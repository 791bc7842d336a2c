"""Command line interface.

Four subcommands: ``simulate`` (drops to CSV), ``analyze`` (statistics
from power-delay data), ``roundtrip`` (generate, re-extract, compare),
``capacity`` (equal-power MIMO capacity curves). Every run writes its
outputs plus exactly one ``manifest.json`` into ``--out`` and nowhere
else; reruns with identical arguments reproduce CSVs byte for byte,
independent of ``--workers``.

A command only parses and checks its arguments and input, calls the
library, which computes every statistic it reports, and writes what
comes back. Each CSV is one ordered dict from column name to column.
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
from .capacity import crossover_snr, gap_at_snr, run_capacity_experiment
from .clusters import (build_drop, extract_drop_stats, geometry_for, map_drops,
                       place_users)
from .coeffs import assemble_cir, single_antenna
from .lsp import generate_lsp
from .params import (CONDITIONS, SCENARIOS, SOURCES, ParamValidationError,
                     ScenarioParamSet, data_dir, load_params, load_params_file)
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


def _sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _write_manifest(out: Path, command: str, argv: list[str], seed: int,
                    outputs: list[str], params_files: dict) -> None:
    manifest = {
        "command": command,
        "argv": argv,
        "version": __version__,
        "master_seed": seed,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "params_files": {k: _sha256(p) for k, p in sorted(params_files.items())},
        "outputs": sorted(outputs),
        # simulate's bytes depend on numpy's FFT and generators
        "versions": {"python": platform.python_version(),
                     "numpy": np.__version__, "pyyaml": yaml.__version__},
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2,
                                                  sort_keys=True) + "\n")


def _resolve_params(parser, args, source=None) -> tuple[ScenarioParamSet, Path]:
    scenario, condition, source = args.scenario, args.condition, source or args.source
    if getattr(args, "params", None):
        path = Path(args.params)
        if not path.is_file():
            parser.error(f"--params: file not found: {path}")
        try:
            sets = load_params_file(path)
        except ParamValidationError as exc:
            parser.error(f"--params: {exc}")
        for ps in sets:
            if (ps.scenario, ps.condition, ps.source) == (scenario, condition, source):
                return ps, path
        parser.error(f"--params: {path} holds no set for "
                     f"{scenario}/{condition}/{source}")
    try:
        ps = load_params(scenario, condition, source)
    except (FileNotFoundError, ParamValidationError) as exc:
        parser.error(f"--scenario/--condition/--source: {exc}")
    return ps, data_dir() / f"{scenario}_{condition}_{source}.yaml"


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


def _yaml_dump(obj, path: Path) -> None:
    path.write_text(yaml.safe_dump(_no_negative_zero(obj), sort_keys=False))


# ---------------------------------------------------------------------------
# simulate


def _sim_drop(job):
    """One drop's multipath components, CIR (when asked for) and
    re-extracted statistics, each a table of named columns."""
    (params, seed_seq, x, y, lsp_row, mode, want_cir) = job
    rng = np.random.default_rng(seed_seq)
    geom = geometry_for(params, x, y)
    cs = build_drop(params, rng, geometry=geom, lsp_vals=lsp_row)
    c = cs.mpc_arrays()
    mpcs = {"cluster": c["cluster"], "ray": c["ray"],
            "delay_ns": c["delay_s"] * 1e9, "power": c["power"],
            "aoa_deg": c["aoa_deg"], "zoa_deg": c["zoa_deg"],
            "aod_deg": c["aod_deg"], "zod_deg": c["zod_deg"]}
    cir = None
    if want_cir:
        cr = assemble_cir(cs, single_antenna(), single_antenna(),
                          params.wavelength_m,
                          c_ds_s=params.clusters.c_ds_ns * 1e-9, mode=mode)
        zeros = np.zeros(cr.n_taps, dtype=int)
        cir = {"tap": np.arange(cr.n_taps), "u": zeros, "s": zeros,
               "delay_ns": cr.delays_s * 1e9, "re": cr.amps[:, 0, 0].real,
               "im": cr.amps[:, 0, 0].imag}
    st = extract_drop_stats(cs)
    return mpcs, cir, {"ds_s": [st["ds_s"]], "asa_deg": [st["asa_deg"]],
                       "k_db": [st.get("k_db")]}


def _stack(tables: list[dict]) -> dict:
    """Per-drop tables joined in drop order, after a drop column."""
    sizes = [len(next(iter(t.values()))) for t in tables]
    return {"drop": np.repeat(np.arange(len(tables)), sizes),
            **{k: np.concatenate([t[k] for t in tables]) for k in tables[0]}}


def cmd_simulate(parser, args) -> int:
    params, pfile = _resolve_params(parser, args)
    if args.grid_step is not None:
        limit = min(params.corr_dist_m[n] for n in params.lsp_names) / 2.0
        if not 0.0 < args.grid_step <= limit:
            parser.error(f"--grid-step: must lie in (0, {limit:g}] m, half the "
                         f"smallest correlation distance of {params.label()}")

    children = np.random.SeedSequence(args.seed).spawn(2 + args.drops)
    xs, ys = place_users(params, np.random.default_rng(children[0]), args.drops)

    lsp_rng = np.random.default_rng(children[1])
    lsp = generate_lsp(params, xs, ys, lsp_rng, grid_step_m=args.grid_step)

    drop_seeds = children[2:]
    jobs = [(params, ss, xs[i], ys[i], lsp.row(i), args.mode,
             args.dump_cir) for i, ss in enumerate(drop_seeds)]
    results = map_drops(_sim_drop, jobs, args.workers)

    tables = {"lsp.csv": {
        "drop": np.arange(args.drops), "x_m": xs, "y_m": ys,
        "ds_s": lsp.ds_s, "asa_deg": lsp.asa_deg, "sf_db": lsp.sf_db,
        "k_db": [None] * args.drops if lsp.k_db is None else lsp.k_db}}
    if args.dump_clusters:
        tables["clusters.csv"] = _stack([mpcs for mpcs, _, _ in results])
    if args.dump_cir:
        tables["cir.csv"] = _stack([cir for _, cir, _ in results])
    tables["drop_stats.csv"] = _stack([st for _, _, st in results])
    out = _out_dir(parser, args)
    for name, cols in tables.items():
        _write_csv(out / name, cols)
    _write_manifest(out, "simulate", args.argv, args.seed, list(tables),
                    {params.label(): pfile})
    print(f"simulate: {args.drops} drops of {params.label()} -> {out}")
    return 0


# ---------------------------------------------------------------------------
# analyze


def _read_csv(parser, path: Path) -> tuple[list[int], dict[str, list]]:
    """Line number of each data row and the cells of each named column;
    a cell missing from a short row is None."""
    if not path.is_file():
        parser.error(f"--input: file not found: {path}")
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            parser.error(f"--input: {path} has no header row")
        rows = [(reader.line_num, row) for row in reader]
    return ([line for line, _ in rows],
            {k: [row[k] for _, row in rows] for k in reader.fieldnames})


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
    if args.max_clusters < 2:
        parser.error("--max-clusters: must be at least 2")
    if args.delay_weight < 0:
        parser.error("--delay-weight: must not be negative")
    if args.noise_floor is not None and args.noise_floor < 0:
        parser.error("--noise-floor: must not be negative")
    if args.noise_floor is not None and args.margin_db <= 0:
        parser.error("--margin-db: must be positive with --noise-floor")
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
    out = _out_dir(parser, args)
    for name, cols in tables.items():
        _write_csv(out / name, cols)
    _yaml_dump(report, out / "report.yaml")
    _write_manifest(out, "analyze", args.argv, 0, ["report.yaml", *tables], {})
    print(f"analyze: report written to {out / 'report.yaml'}")
    return 0


# ---------------------------------------------------------------------------
# roundtrip


def _rt_drop(job):
    params, seed_seq = job
    rng = np.random.default_rng(seed_seq)
    cs = build_drop(params, rng)
    ext = extract_drop_stats(cs)
    return (cs.lsp["ds_s"], cs.lsp["asa_deg"], cs.lsp.get("k_db"),
            ext["ds_s"], ext["asa_deg"], ext.get("k_db"))


def cmd_roundtrip(parser, args) -> int:
    for opt, tol in (("--tol-log10", args.tol_log10),
                     ("--tol-k-db", args.tol_k_db)):
        if tol < 0:
            parser.error(f"{opt}: must not be negative")
    params, pfile = _resolve_params(parser, args)

    seeds = np.random.SeedSequence(args.seed).spawn(args.drops)
    # (drops, 6): drawn then extracted DS, ASA, K; a missing K is NaN
    res = np.array(map_drops(_rt_drop, [(params, ss) for ss in seeds],
                             args.workers), dtype=float)

    checks = analysis.roundtrip_checks(res[:, :3], res[:, 3:],
                                       args.tol_log10, args.tol_k_db)
    all_ok = all(c["pass"] for c in checks)
    report = {
        "set": params.label(), "n_drops": args.drops, "seed": args.seed,
        "checks": checks, "status": "PASS" if all_ok else "FAIL",
    }
    out = _out_dir(parser, args)
    _write_csv(out / "roundtrip_drops.csv", {
        "drop": range(args.drops), "drawn_ds_s": res[:, 0],
        "drawn_asa_deg": res[:, 1], "drawn_k_db": res[:, 2],
        "extracted_ds_s": res[:, 3], "extracted_asa_deg": res[:, 4],
        "extracted_k_db": res[:, 5]})
    _yaml_dump(report, out / "report.yaml")
    _write_manifest(out, "roundtrip", args.argv, args.seed,
                    ["report.yaml", "roundtrip_drops.csv"],
                    {params.label(): pfile})
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


def _parse_snr(parser, spec: str) -> np.ndarray:
    try:
        if ":" in spec:
            parts = [_finite_float(p) for p in spec.split(":")]
            if len(parts) != 3:
                raise ValueError("expected start:stop:step")
            start, stop, step = parts
            if step <= 0 or stop < start:
                raise ValueError("need stop >= start and step > 0")
            return np.arange(start, stop + step / 2.0, step)
        return np.array([_finite_float(p) for p in spec.split(",") if p != ""])
    except (ValueError, argparse.ArgumentTypeError) as exc:
        parser.error(f"--snr: {exc}")


def cmd_capacity(parser, args) -> int:
    snr = _parse_snr(parser, args.snr)
    if snr.size == 0:
        parser.error("--snr: no points given")
    if np.any(np.diff(snr) <= 0):
        parser.error("--snr: points must strictly increase")
    if args.bandwidth_hz <= 0:
        parser.error("--bandwidth-hz: must be positive")
    sources = ("measured", "3gpp") if args.source == "both" else (args.source,)

    runs = {src: _resolve_params(parser, args, source=src) for src in sources}

    curves = {
        src: run_capacity_experiment(
            ps, snr, n_drops=args.drops, seed=args.seed, mode=args.mode,
            n_tones=args.tones, bandwidth_hz=args.bandwidth_hz,
            workers=args.workers)
        for src, (ps, _) in runs.items()}

    out = _out_dir(parser, args)
    _write_csv(out / "capacity.csv", {
        "source": [src for src in sources for _ in snr],
        "scenario": [args.scenario] * (len(sources) * snr.size),
        "condition": [args.condition] * (len(sources) * snr.size),
        "snr_db": np.tile(snr, len(sources)),
        "mean_capacity_bpshz": np.concatenate(
            [curves[src].capacity_bpshz for src in sources])})

    series = [(src, snr, curves[src].capacity_bpshz) for src in sources]
    line_plot(series, out / "capacity.svg",
              title=f"Equal-power MIMO capacity, {args.scenario} ({args.condition})",
              xlabel="SNR (dB)", ylabel="capacity (bit/s/Hz)")

    report = {
        "scenario": args.scenario, "condition": args.condition,
        "sources": list(sources), "n_drops": args.drops, "seed": args.seed,
        "snr_db": [float(s) for s in snr],
        "curves": {src: [round(float(c), 6) for c in curves[src].capacity_bpshz]
                   for src in sources},
    }
    if len(sources) == 2:
        gap = gap_at_snr(snr, curves["3gpp"].capacity_bpshz,
                         curves["measured"].capacity_bpshz, 30.0)
        if gap is not None:
            report["gap_3gpp_minus_measured_at_30db"] = round(gap, 6)
        x = crossover_snr(snr, curves["measured"].capacity_bpshz,
                          curves["3gpp"].capacity_bpshz)
        report["crossover_snr_db"] = None if x is None else round(x, 6)
    _yaml_dump(report, out / "report.yaml")
    _write_manifest(out, "capacity", args.argv, args.seed,
                    ["capacity.csv", "capacity.svg", "report.yaml"],
                    {ps.label(): pf for ps, pf in runs.values()})
    for src in sources:
        at = curves[src].capacity_bpshz[-1]
        print(f"capacity {src:>8}: {at:.2f} bit/s/Hz at {snr[-1]:g} dB "
              f"({args.drops} drops)")
    if "gap_3gpp_minus_measured_at_30db" in report:
        print(f"capacity gap at 30 dB (3gpp - measured): "
              f"{report['gap_3gpp_minus_measured_at_30db']:+.2f} bit/s/Hz")
    return 0


# ---------------------------------------------------------------------------
# parser


def _finite_float(text: str) -> float:
    """argparse type: a float other than nan and +-inf."""
    x = float(text)
    if not np.isfinite(x):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return x


def _count(text: str) -> int:
    """argparse type: an integer of at least 1."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer of at least 1")
    return n


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="thzgbsm",
        description="Stochastic THz channel simulator and analysis toolkit")
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True, metavar="command")

    def common(sp, drops_default):
        sp.add_argument("--out", required=True, help="output directory")
        sp.add_argument("--seed", type=int, default=0, help="master seed")
        sp.add_argument("--drops", type=_count, default=drops_default,
                        help="number of independent drops")
        sp.add_argument("--workers", type=_count, default=1,
                        help="parallel worker processes")

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
    sp.add_argument("--grid-step", type=_finite_float, default=None,
                    help="field grid step in meters")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("analyze", help="extract statistics from a CSV")
    sp.add_argument("--input", required=True, metavar="FILE")
    sp.add_argument("--out", required=True)
    sp.add_argument("--recluster", action="store_true",
                    help="ignore provided cluster labels and re-cluster")
    sp.add_argument("--max-clusters", type=int, default=10)
    sp.add_argument("--delay-weight", type=_finite_float, default=8.0)
    sp.add_argument("--noise-floor", type=_finite_float, default=None,
                    help="linear noise floor for PDP thresholding")
    sp.add_argument("--margin-db", type=_finite_float, default=6.0)
    sp.set_defaults(func=cmd_analyze)

    sp = sub.add_parser("roundtrip",
                        help="generate drops, re-extract, compare medians")
    selection(sp, None, "measured", SOURCES)
    common(sp, 500)
    sp.add_argument("--tol-log10", type=_finite_float, default=0.15,
                    help="median tolerance for log10 DS and ASA")
    sp.add_argument("--tol-k-db", type=_finite_float, default=3.0,
                    help="median tolerance for the K-factor in dB")
    sp.set_defaults(func=cmd_roundtrip)

    sp = sub.add_parser("capacity", help="equal-power MIMO capacity curves")
    selection(sp, "los", "both", SOURCES + ("both",))
    common(sp, 100)
    sp.add_argument("--snr", default="0:35:2.5",
                    help="SNR grid: start:stop:step or comma list (dB)")
    sp.add_argument("--mode", default="thz-simplified",
                    choices=("thz-simplified", "standard"))
    sp.add_argument("--tones", type=_count, default=64)
    sp.add_argument("--bandwidth-hz", type=_finite_float, default=1e9)
    sp.set_defaults(func=cmd_capacity)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    args.argv = argv
    try:
        return args.func(parser, args)
    except (ParamValidationError, ValueError, RuntimeError) as exc:
        print(f"thzgbsm {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
