"""Command line interface.

Four subcommands: ``simulate`` (drops to CSV), ``analyze`` (statistics
from power-delay data), ``roundtrip`` (generate, re-extract, compare),
``capacity`` (equal-power MIMO capacity curves). Every run writes its
outputs plus exactly one ``manifest.json`` into ``--out`` and nowhere
else; reruns with identical arguments reproduce CSVs byte for byte. Each
command runs its drops in order, in one process.

Each numeric option's range lives on its argparse type. A command
checks its input and what needs more than one option's value, calls the
library, which computes every statistic it reports, and hands what
comes back to ``_write_run``, the one place that writes files. Each CSV
is one ordered dict from column name to column.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import platform
import sys
from datetime import datetime, timezone
from decimal import Decimal
from pathlib import Path

import numpy as np
import yaml

from . import __version__, analysis
# the per-drop estimator, called through this module's global, where the
# bench's tracer wraps it (bench/tracing.py)
from .analysis import extract_drop_stats
from .capacity import crossover_snr, gap_at_snr, run_capacity_experiment
from .clusters import build_drop, geometry_for, place_users
from .coeffs import assemble_cir, single_antenna
from .lsp import generate_lsp
from .params import (CONDITIONS, SCENARIOS, SOURCES, ParamValidationError,
                     ScenarioParamSet, load_params, params_file)
from .plotting import line_plot


def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.12g}"
    if v is None:
        return ""
    return str(v)


# printf formats of float and integer arrays' cells, as _fmt writes them
_FORMATS = {"f": "%.12g", "i": "%d", "u": "%d"}


def _format(column) -> str | None:
    """The printf format of a float or integer array's cells, else None."""
    return _FORMATS.get(column.dtype.kind) if isinstance(column, np.ndarray) else None


def _cells(column) -> list[str]:
    """A column's cells as ``_fmt`` writes them, formatted a whole float
    or integer array at a time."""
    fmt = _format(column)
    if fmt is None:
        return [_fmt(v) for v in column]
    return [fmt % x for x in column.tolist()]


def _write_csv(path: Path, columns: dict) -> None:
    """One CSV from equal-length columns; the dict's keys are the header.
    A table of float and integer arrays only is written one printf per
    row: its cells need no quoting."""
    fmts = [_format(c) for c in columns.values()]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(columns)
        if None in fmts:
            w.writerows(zip(*map(_cells, columns.values()), strict=True))
        else:
            row = ",".join(fmts) + "\n"
            fh.writelines(map(row.__mod__, zip(
                *(c.tolist() for c in columns.values()), strict=True)))


def _resolve_params(parser, args, source=None) -> tuple[ScenarioParamSet, Path]:
    """The requested set and its file; a file that is missing, invalid or
    lacks the set is a usage error."""
    coords = (args.scenario, args.condition, source or args.source)
    path = Path(args.params) if args.params else params_file(*coords)
    try:
        return load_params(*coords, path=path), path
    except (FileNotFoundError, LookupError, ParamValidationError) as exc:
        option = "--params" if args.params else "--scenario/--condition/--source"
        parser.error(f"{option}: {exc}")


def _out_dir(parser, args) -> Path:
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        parser.error(f"--out: cannot create {out}: {exc}")
    return out


def _no_negative_zero(obj):
    """A report with every -0.0 in it replaced by 0.0; round() of a tiny
    negative value gives -0.0. Reports hold plain Python values only."""
    if isinstance(obj, dict):
        return {k: _no_negative_zero(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_no_negative_zero(v) for v in obj]
    return 0.0 if isinstance(obj, float) and obj == 0.0 else obj


# libyaml's safe dumper writes a report about four times faster than the
# pure-Python one, to the same bytes; a PyYAML built without libyaml lacks it
_YAML_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


def _write_run(parser, args, files: dict, params_files: dict) -> Path:
    """Create ``--out`` and write the run's files into it, then a
    ``manifest.json`` whose outputs are exactly those files. A file is
    text, CSV columns (a ``.csv`` name) or a report written as YAML;
    ``params_files`` maps each set's label to the file it came from."""
    out = _out_dir(parser, args)
    for name, content in files.items():
        if isinstance(content, str):
            (out / name).write_text(content)
        elif name.endswith(".csv"):
            _write_csv(out / name, content)
        else:
            (out / name).write_text(yaml.dump(_no_negative_zero(content),
                                              Dumper=_YAML_DUMPER, sort_keys=False))
    manifest = {
        "command": args.command,
        "argv": args.argv,
        "version": __version__,
        "master_seed": getattr(args, "seed", 0),     # analyze draws nothing
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "params_files": {k: hashlib.sha256(p.read_bytes()).hexdigest()
                         for k, p in sorted(params_files.items())},
        "outputs": sorted(files),
        # simulate's bytes depend on numpy's FFT and generators
        "versions": {"python": platform.python_version(),
                     "numpy": np.__version__, "pyyaml": yaml.__version__},
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2,
                                                  sort_keys=True) + "\n")
    return out


def _by_drop(columns: dict) -> dict:
    """A table of (drops, rows) columns, one row after another in drop
    order, after a drop column."""
    n_drops, n_rows = next(iter(columns.values())).shape
    return {"drop": np.repeat(np.arange(n_drops), n_rows),
            **{k: v.ravel() for k, v in columns.items()}}


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(parser, args) -> int:
    params, pfile = _resolve_params(parser, args)
    children = np.random.SeedSequence(args.seed).spawn(2 + args.drops)
    xs, ys = place_users(params, np.random.default_rng(children[0]), args.drops)

    lsp_rng = np.random.default_rng(children[1])
    lsp = generate_lsp(params, xs, ys, lsp_rng)

    drops = build_drop(params, [np.random.default_rng(ss) for ss in children[2:]],
                       geometry=geometry_for(params, xs, ys), lsp_vals=lsp)
    # only the columns written or read are matched; a CIR reads every
    # plane, so without dumps only arrival azimuths are matched
    c = drops.columns(*(
        ("cluster", "ray", "delay_s", "power", "aoa_deg", "zoa_deg", "aod_deg",
         "zod_deg") if args.dump_clusters or args.dump_cir
        else ("delay_s", "power", "aoa_deg")))

    # an NLoS set draws no K: its k_db cells are empty
    tables = {"lsp.csv": {"drop": np.arange(args.drops), "x_m": xs, "y_m": ys,
                          **lsp, "k_db": lsp.get("k_db", [None] * args.drops)}}
    if args.dump_clusters:
        tables["clusters.csv"] = _by_drop({
            "cluster": c["cluster"], "ray": c["ray"],
            "delay_ns": c["delay_s"] * 1e9, "power": c["power"],
            **{k: c[k] for k in ("aoa_deg", "zoa_deg", "aod_deg", "zod_deg")}})
    if args.dump_cir:
        # an array is immutable, so one serves every drop at both ends;
        # every drop of a set has as many taps
        antenna = single_antenna()
        cirs = [assemble_cir(cs, antenna, antenna, mode=args.mode) for cs in drops]
        amps = np.array([cr.amps[:, 0, 0] for cr in cirs])
        tap = np.broadcast_to(np.arange(amps.shape[1]), amps.shape)
        tables["cir.csv"] = _by_drop({
            "tap": tap, "u": np.zeros_like(tap), "s": np.zeros_like(tap),
            "delay_ns": np.array([cr.delays_s for cr in cirs]) * 1e9,
            "re": amps.real, "im": amps.imag})
    tables["drop_stats.csv"] = {"drop": np.arange(args.drops), **extract_drop_stats(
        c["delay_s"], c["power"], c["aoa_deg"])}
    out = _write_run(parser, args, tables, {params.label(): pfile})
    print(f"simulate: {args.drops} drops of {params.label()} -> {out}")
    return 0


# ---------------------------------------------------------------------------
# analyze


def _read_csv(parser, path: Path) -> tuple[list[int], dict[str, list]]:
    """Line number of each data row and the cells of each named column;
    a cell missing from a short row is None, and a blank line is no row.
    The file must be UTF-8, and a leading byte-order mark is skipped; a
    column named twice, a row longer than the header and a line the csv
    module cannot split are errors. The rows are transposed once."""
    if not path.is_file():
        parser.error(f"--input: file not found: {path}")
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            names = next(reader, None)
            if names is None:
                parser.error(f"--input: {path} has no header row")
            for i, k in enumerate(names):
                if k in names[:i]:
                    raise ValueError(f"input line {reader.line_num}: column "
                                     f"{k!r} is named twice in the header")
            numbered = [(reader.line_num, row) for row in reader if row]
    except csv.Error as exc:        # such as a cell over csv's field limit
        raise ValueError(f"input line {reader.line_num}: {exc}") from None
    except UnicodeDecodeError:
        data = path.read_bytes()    # the whole file, so offsets are the file's
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = data.count(b"\n", 0, exc.start) + 1
            raise ValueError(
                f"--input: {path} is not UTF-8: byte 0x{data[exc.start]:02x} "
                f"at offset {exc.start} (input line {line})") from None
    lines = [line for line, _ in numbered]
    rows = [row for _, row in numbered]
    if set(map(len, rows)) - {len(names)}:
        for line, row in numbered:
            if len(row) > len(names):
                raise ValueError(f"input line {line}: {len(row)} cells under "
                                 f"a header of {len(names)} columns")
            row += [None] * (len(names) - len(row))
    # one transpose; without rows, every column is empty
    cells = [list(c) for c in zip(*rows)] or [[] for _ in names]
    return lines, dict(zip(names, cells))


_POWER = (lambda x: x < 0, "a negative power")     # a rule for _floats


def _floats(table, key, empty, *rules) -> np.ndarray:
    """Finite floats of one column, parsed by one ``np.fromiter``; only a
    column with a cell ``float()`` rejects takes the per-cell loop that
    words the error. An empty or absent cell gives ``empty``, and is an
    error where that is None; so is a cell for which one of ``rules``,
    (test, reason) pairs checked in order, holds. A cell holding ``_`` or
    a non-ASCII character is not a number, though ``float()`` reads 1_0
    as 10 and a non-ASCII digit as its value."""
    lines, columns = table
    cells = columns.get(key, [None] * len(lines))
    try:
        x = np.fromiter(map(float, cells), float, len(cells))
        text = "".join(cells)               # the whole column at once
    except (TypeError, ValueError):     # an empty cell, or one float() rejects
        text = "".join(filter(None, cells))
        x = np.empty(len(cells))
        for i, v in enumerate(cells):
            if v in (None, "") and empty is None:
                raise ValueError(f"input line {lines[i]}: column {key!r} is empty")
            try:
                x[i] = empty if v in (None, "") else float(v)
            except ValueError:
                x[i] = np.nan
    if "_" in text or not text.isascii():
        x[[i for i, v in enumerate(cells)
           if v and ("_" in v or not v.isascii())]] = np.nan
    for test, reason in [(lambda x: ~np.isfinite(x), "not a finite number"),
                         *rules]:
        i = np.flatnonzero(test(x))
        if i.size:
            raise ValueError(f"input line {lines[i[0]]}: column {key!r} "
                             f"holds {cells[i[0]]!r}, {reason}")
    return x


def _labels(table, key) -> np.ndarray:
    """Integer cells of a drop or cluster column, as exact Python ints so
    that no label wraps around or rounds; an empty or absent cell gives 0."""
    _floats(table, key, 0.0)                # every cell a finite number
    lines, columns = table
    cells = columns.get(key, [None] * len(lines))
    try:
        labels = [int(v) for v in cells]
    except (TypeError, ValueError):     # an empty cell, or one such as 1.0
        labels = []
        for line, v in zip(lines, cells):
            x = Decimal(v or 0)
            if x != x.to_integral_value():
                raise ValueError(f"input line {line}: column {key!r} holds "
                                 f"{v!r}, not an integer")
            labels.append(int(x))
    return np.array(labels, dtype=object)


def cmd_analyze(parser, args) -> int:
    path = Path(args.input)
    table = _read_csv(parser, path)
    lines, columns = table
    if not lines:
        print(f"analyze: {path} contains a header but no data rows",
              file=sys.stderr)
        return 1

    tables = {}
    if "delay_ns" in columns and "power" in columns:
        has_aoa = "aoa_deg" in columns
        report, tables["per_drop.csv"] = analysis.analyze_mpcs(
            _labels(table, "drop"),
            _floats(table, "delay_ns", None) * 1e-9,
            _floats(table, "power", None, _POWER),
            _floats(table, "aoa_deg", None) if has_aoa else None,
            (_floats(table, "zoa_deg", 90.0)
             if has_aoa or "zoa_deg" in columns else None),
            (_labels(table, "cluster")
             if "cluster" in columns and not args.recluster else None),
            args.max_clusters, args.delay_weight)
    elif "delay_ns" in columns and "power_linear" in columns:
        dirs = {c: _floats(table, c, None)
                for c in ("phi_rx_deg", "phi_tx_deg", "theta_rx_deg")
                if c in columns}
        delay_s = _floats(table, "delay_ns", None) * 1e-9
        power = _floats(table, "power_linear", None, _POWER)
        first = {}      # a delay appears once per direction
        for i, key in enumerate(zip(delay_s, *dirs.values())):
            if (j := first.setdefault(key, i)) != i:
                where = ", ".join(f"{c} {v:g}" for c, v in zip(dirs, key[1:]))
                raise ValueError(
                    f"input line {lines[i]}: delay_ns "
                    f"{columns['delay_ns'][i]!r} repeats input line {lines[j]}"
                    + (f" in direction {where}" if dirs else ""))
        distance = None
        if "distance_m" in columns:
            distance = float(_floats(
                table, "distance_m", None,
                (lambda x: x <= 0, "not a positive distance"),
                (lambda x: x != x[0], f"while input line {lines[0]} holds "
                 f"{columns['distance_m'][0]!r}; a profile has one distance"))[0])
        try:
            report = analysis.analyze_pdp(dirs, delay_s, power, distance,
                                          args.noise_floor, args.margin_db)
        except analysis.ThresholdError as exc:
            raise ValueError(f"--noise-floor/--margin-db: {exc}") from None
    else:
        parser.error("--input: CSV must carry delay_ns plus power (multipath "
                     "components) or power_linear (power-delay profile)")
    report["input"] = path.name
    out = _write_run(parser, args, {"report.yaml": report, **tables}, {})
    print(f"analyze: report written to {out / 'report.yaml'}")
    return 0


# ---------------------------------------------------------------------------
# roundtrip


def cmd_roundtrip(parser, args) -> int:
    params, pfile = _resolve_params(parser, args)

    drops = build_drop(params, [np.random.default_rng(ss) for ss in
                                np.random.SeedSequence(args.seed).spawn(args.drops)])
    ext = extract_drop_stats(*drops.columns("delay_s", "power", "aoa_deg").values())
    names = ("ds_s", "asa_deg", "k_db")     # an NLoS drop's drawn K is None
    drawn = {k: drops.lsp[k].tolist() if k in drops.lsp else [None] * args.drops
             for k in names}
    extracted = {k: ext[k].tolist() for k in names}

    # stdout prints the values report.yaml gets
    checks = _no_negative_zero(analysis.roundtrip_checks(
        drawn, extracted, args.tol_log10, args.tol_k_db))
    all_ok = all(c["pass"] for c in checks)
    report = {
        "set": params.label(), "n_drops": args.drops, "seed": args.seed,
        "checks": checks, "status": "PASS" if all_ok else "FAIL",
    }
    _write_run(parser, args, {"roundtrip_drops.csv": {
        "drop": range(args.drops),
        **{f"drawn_{k}": v for k, v in drawn.items()},
        **{f"extracted_{k}": v for k, v in extracted.items()}},
        "report.yaml": report}, {params.label(): pfile})
    for c in checks:
        unit = "log10" if c["statistic"] != "k" else "dB"
        print(f"roundtrip {c['statistic']:>3}: drawn={c['drawn_median']:+.4f} "
              f"extracted={c['extracted_median']:+.4f} "
              f"delta={c['delta']:+.4f} {unit} "
              f"(tol {c['tolerance']}) {'PASS' if c['pass'] else 'FAIL'}")
    print(f"roundtrip: {report['status']} for {params.label()}")
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# capacity


def cmd_capacity(parser, args) -> int:
    snr = args.snr
    sources = ("measured", "3gpp") if args.source == "both" else (args.source,)

    runs = {src: _resolve_params(parser, args, source=src) for src in sources}

    curves = {
        src: run_capacity_experiment(
            ps, snr, n_drops=args.drops, seed=args.seed, mode=args.mode,
            n_tones=args.tones, bandwidth_hz=args.bandwidth_hz).mean(axis=0)
        for src, (ps, _) in runs.items()}

    report = {
        "scenario": args.scenario, "condition": args.condition,
        "sources": list(sources), "n_drops": args.drops, "seed": args.seed,
        "snr_db": [float(s) for s in snr],
        "curves": {src: [round(float(c), 6) for c in curves[src]]
                   for src in sources},
    }
    if len(sources) == 2:
        gap = gap_at_snr(snr, curves["3gpp"], curves["measured"], 30.0)
        if gap is not None:
            report["gap_3gpp_minus_measured_at_30db"] = round(gap, 6)
        x = crossover_snr(snr, curves["measured"], curves["3gpp"])
        report["crossover_snr_db"] = None if x is None else round(x, 6)
    _write_run(parser, args, {
        "capacity.csv": {
            "source": [src for src in sources for _ in snr],
            "scenario": [args.scenario] * (len(sources) * snr.size),
            "condition": [args.condition] * (len(sources) * snr.size),
            "snr_db": np.tile(snr, len(sources)),
            "mean_capacity_bpshz": np.concatenate(
                [curves[src] for src in sources])},
        "capacity.svg": line_plot(
            [(src, snr, curves[src]) for src in sources],
            title=f"Equal-power MIMO capacity, {args.scenario} ({args.condition})",
            xlabel="SNR (dB)", ylabel="capacity (bit/s/Hz)"),
        "report.yaml": report}, {ps.label(): pf for ps, pf in runs.values()})
    for src in sources:
        at = curves[src][-1]
        print(f"capacity {src:>8}: {at:.2f} bit/s/Hz at {snr[-1]:g} dB "
              f"({args.drops} drops)")
    if "gap_3gpp_minus_measured_at_30db" in report:
        print(f"capacity gap at 30 dB (3gpp - measured): "
              f"{report['gap_3gpp_minus_measured_at_30db']:+.2f} bit/s/Hz")
    return 0


# ---------------------------------------------------------------------------
# parser


def _number(kind, test, reason: str):
    """argparse type: a finite ``kind`` passing ``test``; ``reason`` names the range."""
    def parse(text: str):
        x = kind(text)          # a ValueError reads "invalid int value"
        if kind is float and not np.isfinite(x):
            raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
        if not test(x):
            raise argparse.ArgumentTypeError(f"{text!r} is not {reason}")
        return x
    parse.__name__, parse.range = kind.__name__, reason
    return parse


_COUNT = _number(int, lambda n: n >= 1, "an integer of at least 1")
_SEED = _number(int, lambda n: n >= 0, "a nonnegative integer")
_NONNEGATIVE = _number(float, lambda x: x >= 0, "a nonnegative number")
_POSITIVE = _number(float, lambda x: x > 0, "a positive number")
_FINITE = _number(float, lambda x: True, "a finite number")


MAX_SNR_POINTS = 10_001     # the most points a start:stop:step grid may hold


def _parse_snr(text: str) -> np.ndarray:
    """argparse type: an SNR grid in dB, start:stop:step of at most
    ``MAX_SNR_POINTS`` points or a comma list, of finite points that
    strictly increase. A grid's points are counted before it is built."""
    sep = ":" if ":" in text else ","
    try:
        x = [_FINITE(p) for p in text.split(sep) if p != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if sep == ":":
        if len(x) != 3 or x[2] <= 0 or x[1] < x[0]:
            raise argparse.ArgumentTypeError(
                "expected start:stop:step with stop >= start and step > 0")
        stop = x[1] + x[2] / 2.0
        n = np.ceil((stop - x[0]) / x[2])      # np.arange's length, or inf
        if n > MAX_SNR_POINTS:
            raise argparse.ArgumentTypeError(
                f"{text!r} holds {n:.0f} points, more than {MAX_SNR_POINTS}")
        x = np.arange(x[0], stop, x[2])
    if len(x) == 0:
        raise argparse.ArgumentTypeError("no points given")
    if np.any(np.diff(x) <= 0):
        raise argparse.ArgumentTypeError("points must strictly increase")
    return np.asarray(x)


_parse_snr.range = "a nonempty, strictly increasing grid of finite numbers"


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="thzgbsm",
        description="Stochastic THz channel simulator and analysis toolkit")
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True, metavar="command")

    def common(sp, drops_default):
        sp.add_argument("--out", required=True, help="output directory")
        sp.add_argument("--seed", type=_SEED, default=0, help="master seed")
        sp.add_argument("--drops", type=_COUNT, default=drops_default,
                        help="number of independent drops")
        # unread; kept while the bench passes --workers 1 (ROADMAP item 1 A)
        sp.add_argument("--workers", default=1, help="only 1 is accepted",
                        type=_number(int, lambda n: n == 1,
                                     "1; drops run in one process"))

    def selection(sp, condition, source, sources):
        sp.add_argument("--scenario", required=True, choices=SCENARIOS)
        sp.add_argument("--condition", required=condition is None,
                        default=condition, choices=CONDITIONS)
        sp.add_argument("--source", default=source, choices=sources)
        sp.add_argument("--params", metavar="FILE",
                        help="YAML parameter file overriding the bundled sets")

    sp = sub.add_parser("simulate", help="generate drops and dump CSVs")
    selection(sp, None, "measured", SOURCES)
    common(sp, 100)
    sp.add_argument("--mode", default="thz-simplified",
                    choices=("thz-simplified", "standard"))
    sp.add_argument("--dump-clusters", action="store_true",
                    help="write per-ray multipath components")
    sp.add_argument("--dump-cir", action="store_true",
                    help="write single-element tapped impulse responses")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("analyze", help="extract statistics from a CSV")
    sp.add_argument("--input", required=True, metavar="FILE")
    sp.add_argument("--out", required=True)
    sp.add_argument("--recluster", action="store_true",
                    help="ignore provided cluster labels and re-cluster")
    sp.add_argument("--max-clusters", default=10, type=_number(
        int, lambda n: n >= 2, "an integer of at least 2"))
    sp.add_argument("--delay-weight", type=_NONNEGATIVE, default=8.0)
    sp.add_argument("--noise-floor", type=_NONNEGATIVE, default=None,
                    help="linear noise floor for PDP thresholding")
    sp.add_argument("--margin-db", type=_POSITIVE, default=6.0)
    sp.set_defaults(func=cmd_analyze)

    sp = sub.add_parser("roundtrip",
                        help="generate drops, re-extract, compare medians")
    selection(sp, None, "measured", SOURCES)
    common(sp, 500)
    sp.add_argument("--tol-log10", type=_NONNEGATIVE, default=0.15,
                    help="median tolerance for log10 DS and ASA")
    sp.add_argument("--tol-k-db", type=_NONNEGATIVE, default=3.0,
                    help="median tolerance for the K-factor in dB")
    sp.set_defaults(func=cmd_roundtrip)

    sp = sub.add_parser("capacity", help="equal-power MIMO capacity curves")
    selection(sp, "los", "both", SOURCES + ("both",))
    common(sp, 100)
    sp.add_argument("--snr", type=_parse_snr, default="0:35:2.5",
                    help="SNR grid: start:stop:step or comma list (dB)")
    sp.add_argument("--mode", default="thz-simplified",
                    choices=("thz-simplified", "standard"))
    sp.add_argument("--tones", type=_COUNT, default=64)
    sp.add_argument("--bandwidth-hz", type=_POSITIVE, default=1e9)
    sp.set_defaults(func=cmd_capacity)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    args.argv = argv
    try:
        return args.func(parser, args)
    except (ParamValidationError, ValueError, RuntimeError, MemoryError) as exc:
        print(f"thzgbsm {args.command}: {str(exc) or type(exc).__name__}",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
