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


def _write_csv(path: Path, columns: dict) -> None:
    """One CSV from equal-length columns; the dict's keys are the header."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(columns)
        w.writerows([_fmt(v) for v in row]
                    for row in zip(*columns.values(), strict=True))


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
            (out / name).write_text(yaml.safe_dump(_no_negative_zero(content),
                                                   sort_keys=False))
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


# ---------------------------------------------------------------------------
# simulate


def _sim_drop(params, seed_seq, x, y, lsp_row, mode, want_cir):
    """One drop's multipath components, CIR (when asked for) and
    re-extracted statistics, each a table of named columns."""
    rng = np.random.default_rng(seed_seq)
    geom = geometry_for(params, x, y)
    cs = build_drop(params, rng, geometry=geom, lsp_vals=lsp_row)
    c = cs.mpc_arrays
    mpcs = {"cluster": c["cluster"], "ray": c["ray"],
            "delay_ns": c["delay_s"] * 1e9, "power": c["power"],
            "aoa_deg": c["aoa_deg"], "zoa_deg": c["zoa_deg"],
            "aod_deg": c["aod_deg"], "zod_deg": c["zod_deg"]}
    cir = None
    if want_cir:
        cr = assemble_cir(cs, single_antenna(), single_antenna(), mode=mode)
        zeros = np.zeros(cr.n_taps, dtype=int)
        cir = {"tap": np.arange(cr.n_taps), "u": zeros, "s": zeros,
               "delay_ns": cr.delays_s * 1e9, "re": cr.amps[:, 0, 0].real,
               "im": cr.amps[:, 0, 0].imag}
    st = extract_drop_stats(c["delay_s"], c["power"], c["aoa_deg"])
    return mpcs, cir, {k: [v] for k, v in st.items()}


def _stack(tables: list[dict]) -> dict:
    """Per-drop tables joined in drop order, after a drop column."""
    sizes = [len(next(iter(t.values()))) for t in tables]
    return {"drop": np.repeat(np.arange(len(tables)), sizes),
            **{k: np.concatenate([t[k] for t in tables]) for k in tables[0]}}


def cmd_simulate(parser, args) -> int:
    params, pfile = _resolve_params(parser, args)
    children = np.random.SeedSequence(args.seed).spawn(2 + args.drops)
    xs, ys = place_users(params, np.random.default_rng(children[0]), args.drops)

    lsp_rng = np.random.default_rng(children[1])
    lsp = generate_lsp(params, xs, ys, lsp_rng)

    results = [_sim_drop(params, ss, xs[i], ys[i],
                         {k: float(v[i]) for k, v in lsp.items()}, args.mode,
                         args.dump_cir) for i, ss in enumerate(children[2:])]

    # an NLoS set draws no K: its k_db cells are empty
    tables = {"lsp.csv": {"drop": np.arange(args.drops), "x_m": xs, "y_m": ys,
                          **lsp, "k_db": lsp.get("k_db", [None] * args.drops)}}
    if args.dump_clusters:
        tables["clusters.csv"] = _stack([mpcs for mpcs, _, _ in results])
    if args.dump_cir:
        tables["cir.csv"] = _stack([cir for _, cir, _ in results])
    tables["drop_stats.csv"] = _stack([st for _, _, st in results])
    out = _write_run(parser, args, tables, {params.label(): pfile})
    print(f"simulate: {args.drops} drops of {params.label()} -> {out}")
    return 0


# ---------------------------------------------------------------------------
# analyze


def _read_csv(parser, path: Path) -> tuple[list[int], dict[str, list]]:
    """Line number of each data row and the cells of each named column;
    a cell missing from a short row is None. The file must be UTF-8, and a
    leading byte-order mark is skipped; a column named twice and a row
    longer than the header are errors."""
    if not path.is_file():
        parser.error(f"--input: file not found: {path}")
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.DictReader(fh)
            names = reader.fieldnames
            if names is None:
                parser.error(f"--input: {path} has no header row")
            for i, k in enumerate(names):
                if k in names[:i]:
                    raise ValueError(f"input line {reader.line_num}: column "
                                     f"{k!r} is named twice in the header")
            rows = [(reader.line_num, row) for row in reader]
    except UnicodeDecodeError:
        data = path.read_bytes()    # the whole file, so offsets are the file's
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = data.count(b"\n", 0, exc.start) + 1
            raise ValueError(
                f"--input: {path} is not UTF-8: byte 0x{data[exc.start]:02x} "
                f"at offset {exc.start} (input line {line})") from None
    for line, row in rows:
        if None in row:     # DictReader files surplus cells under None
            raise ValueError(f"input line {line}: {len(names) + len(row[None])}"
                             f" cells under a header of {len(names)} columns")
    return [line for line, _ in rows], {k: [row[k] for _, row in rows] for k in names}


_POWER = (lambda x: x < 0, "a negative power")     # a rule for _floats


def _floats(table, key, empty, rule) -> np.ndarray:
    """Finite floats of one column. An empty or absent cell gives
    ``empty``, and is an error where that is None; so is a cell for which
    ``rule``, a (test, reason) pair or None, holds."""
    lines, columns = table
    cells = columns.get(key, [None] * len(lines))
    x = np.empty(len(cells))
    for i, v in enumerate(cells):
        if v in (None, "") and empty is None:
            raise ValueError(f"input line {lines[i]}: column {key!r} is empty")
        try:
            x[i] = empty if v in (None, "") else float(v)
        except ValueError:
            x[i] = np.nan
    checks = [(~np.isfinite(x), "not a finite number")]
    if rule is not None:
        checks.append((rule[0](x), rule[1]))
    for bad, reason in checks:
        i = np.flatnonzero(bad)
        if i.size:
            raise ValueError(f"input line {lines[i[0]]}: column {key!r} "
                             f"holds {cells[i[0]]!r}, {reason}")
    return x


def _labels(table, key) -> np.ndarray:
    """Integer cells of a drop or cluster column, as exact Python ints so
    that no label wraps around or rounds; an empty or absent cell gives 0."""
    _floats(table, key, 0.0, None)          # every cell a finite number
    lines, columns = table
    labels = []
    for line, v in zip(lines, columns.get(key, [None] * len(lines))):
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
            _floats(table, "delay_ns", None, None) * 1e-9,
            _floats(table, "power", None, _POWER),
            _floats(table, "aoa_deg", None, None) if has_aoa else None,
            (_floats(table, "zoa_deg", 90.0, None)
             if has_aoa or "zoa_deg" in columns else None),
            (_labels(table, "cluster")
             if "cluster" in columns and not args.recluster else None),
            args.max_clusters, args.delay_weight)
    elif "delay_ns" in columns and "power_linear" in columns:
        dirs = {c: _floats(table, c, None, None)
                for c in ("phi_rx_deg", "phi_tx_deg", "theta_rx_deg")
                if c in columns}
        delay_s = _floats(table, "delay_ns", None, None) * 1e-9
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
            distance = float(_floats(table, "distance_m", None, (
                lambda x: x != x[0], f"while input line {lines[0]} holds "
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


def _rt_drop(params, seed_seq):
    """One drop's drawn LSPs and the statistics re-extracted from it."""
    cs = build_drop(params, np.random.default_rng(seed_seq))
    c = cs.mpc_arrays
    return cs.lsp, extract_drop_stats(c["delay_s"], c["power"], c["aoa_deg"])


def cmd_roundtrip(parser, args) -> int:
    params, pfile = _resolve_params(parser, args)

    seeds = np.random.SeedSequence(args.seed).spawn(args.drops)
    res = [_rt_drop(params, ss) for ss in seeds]
    names = ("ds_s", "asa_deg", "k_db")     # an NLoS drop's drawn K is None
    drawn = {k: [d[k] for d, _ in res] for k in names}
    extracted = {k: [e[k] for _, e in res] for k in names}

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
        sp.add_argument("--seed", type=int, default=0, help="master seed")
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
