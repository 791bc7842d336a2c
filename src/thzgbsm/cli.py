"""Command line interface.

Four subcommands: ``simulate`` (drops to CSV), ``analyze`` (statistics
from power-delay data), ``roundtrip`` (generate, re-extract, compare),
``capacity`` (equal-power MIMO capacity curves). Every run writes its
outputs plus exactly one ``manifest.json`` into ``--out`` and nowhere
else; reruns with identical arguments reproduce CSVs byte for byte,
independent of ``--workers``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import platform
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import yaml

from . import __version__, analysis
from .capacity import crossover_snr, run_capacity_experiment
from .clusters import build_drop, extract_drop_stats, geometry_for, map_drops
from .coeffs import assemble_cir, single_antenna
from .lsp import generate_lsp
from .params import (ParamValidationError, ScenarioParamSet, data_dir,
                     load_params, load_params_file)
from .plotting import line_plot


def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.12g}"
    if v is None:
        return ""
    return str(v)


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])


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


def _resolve_params(parser, args, scenario=None, condition=None, source=None
                    ) -> tuple[ScenarioParamSet, Path]:
    scenario = scenario or args.scenario
    condition = condition or args.condition
    source = source or args.source
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


def _to_native(obj):
    """Recursively convert numpy scalars/arrays for yaml.safe_dump."""
    if isinstance(obj, dict):
        return {k: _to_native(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_to_native(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_to_native(v) for v in obj.tolist()]
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float) and obj == 0.0:
        return 0.0      # round() of a tiny negative value gives -0.0
    return obj


def _yaml_dump(obj, path: Path) -> None:
    path.write_text(yaml.safe_dump(_to_native(obj), sort_keys=False))


# ---------------------------------------------------------------------------
# simulate


def _sim_drop(job):
    (params, seed_seq, x, y, lsp_row, mode, want_cir) = job
    rng = np.random.default_rng(seed_seq)
    geom = geometry_for(params, x, y)
    cs = build_drop(params, rng, geometry=geom, lsp_vals=lsp_row)
    cols = cs.mpc_arrays()
    cir_rows = None
    if want_cir:
        c_ds = params.clusters.c_ds_ns * 1e-9 if mode == "standard" else None
        cr = assemble_cir(cs, single_antenna(), single_antenna(),
                          params.wavelength_m, mode=mode, c_ds_s=c_ds)
        cir_rows = [(t, 0, 0, cr.delays_s[t] * 1e9,
                     cr.amps[t, 0, 0].real, cr.amps[t, 0, 0].imag)
                    for t in range(cr.n_taps)]
    return cols, cir_rows, extract_drop_stats(cs)


def cmd_simulate(parser, args) -> int:
    params, pfile = _resolve_params(parser, args)
    if args.grid_step is not None:
        limit = min(params.corr_dist_m[n] for n in params.lsp_names) / 2.0
        if not 0.0 < args.grid_step <= limit:
            parser.error(f"--grid-step: must lie in (0, {limit:g}] m, half the "
                         f"smallest correlation distance of {params.label()}")
    out = _out_dir(parser, args)

    children = np.random.SeedSequence(args.seed).spawn(2 + args.drops)
    place_rng = np.random.default_rng(children[0])
    r_min, r_max = params.geometry.annulus_m
    r = np.sqrt(place_rng.uniform(r_min**2, r_max**2, args.drops))
    ang = place_rng.uniform(-np.pi, np.pi, args.drops)
    xs, ys = r * np.cos(ang), r * np.sin(ang)

    lsp_rng = np.random.default_rng(children[1])
    lsp = generate_lsp(params, xs, ys, lsp_rng, grid_step_m=args.grid_step)

    drop_seeds = children[2:]
    jobs = [(params, ss, xs[i], ys[i], lsp.row(i), args.mode,
             args.dump_cir) for i, ss in enumerate(drop_seeds)]
    results = map_drops(_sim_drop, jobs, args.workers)

    outputs = ["lsp.csv"]
    lsp_rows = [(i, xs[i], ys[i], lsp.ds_s[i], lsp.asa_deg[i], lsp.sf_db[i],
                 lsp.k_db[i] if lsp.k_db is not None else None)
                for i in range(args.drops)]
    _write_csv(out / "lsp.csv", ("drop", "x_m", "y_m", "ds_s", "asa_deg",
                                 "sf_db", "k_db"), lsp_rows)

    if args.dump_clusters:
        rows = []
        for i, (cols, _, _) in enumerate(results):
            for j in range(cols["cluster"].size):
                rows.append((i, cols["cluster"][j], cols["ray"][j],
                             cols["delay_s"][j] * 1e9, cols["power"][j],
                             cols["aoa_deg"][j], cols["zoa_deg"][j],
                             cols["aod_deg"][j], cols["zod_deg"][j]))
        _write_csv(out / "clusters.csv",
                   ("drop", "cluster", "ray", "delay_ns", "power", "aoa_deg",
                    "zoa_deg", "aod_deg", "zod_deg"), rows)
        outputs.append("clusters.csv")

    if args.dump_cir:
        rows = []
        for i, (_, cir_rows, _) in enumerate(results):
            rows.extend((i,) + row for row in cir_rows)
        _write_csv(out / "cir.csv",
                   ("drop", "tap", "u", "s", "delay_ns", "re", "im"), rows)
        outputs.append("cir.csv")

    stats_rows = []
    for i, (_, _, st) in enumerate(results):
        stats_rows.append((i, st["ds_s"], st["asa_deg"], st.get("k_db")))
    _write_csv(out / "drop_stats.csv", ("drop", "ds_s", "asa_deg", "k_db"),
               stats_rows)
    outputs.append("drop_stats.csv")

    _write_manifest(out, "simulate", args.argv, args.seed, outputs,
                    {params.label(): pfile})
    print(f"simulate: {args.drops} drops of {params.label()} -> {out}")
    return 0


# ---------------------------------------------------------------------------
# analyze


def _read_csv(parser, path: Path) -> tuple[list[str], list[tuple[int, dict]]]:
    """Header and (line number, row) pairs of a CSV file."""
    if not path.is_file():
        parser.error(f"--input: file not found: {path}")
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            parser.error(f"--input: {path} has no header row")
        rows = [(reader.line_num, row) for row in reader]
    return list(reader.fieldnames), rows


def _f(line_row, key, default=None, power=False):
    """Finite float from a (line number, row) pair; an empty or absent
    cell gives default, and is an error where there is none. A power
    cell must not be negative either."""
    line, row = line_row
    v = row.get(key, "")
    if v is None or v == "":
        if default is None:
            raise ValueError(f"input line {line}: column {key!r} is empty")
        return default
    try:
        x = float(v)
    except ValueError:
        x = np.nan
    if not np.isfinite(x):
        raise ValueError(f"input line {line}: column {key!r} holds "
                         f"{v!r}, not a finite number")
    if power and x < 0:
        raise ValueError(f"input line {line}: column {key!r} holds "
                         f"{v!r}, a negative power")
    return x


def _analyze_mpcs(args, header, rows) -> tuple[dict, list[tuple]]:
    drops = {}
    for row in rows:
        d = int(_f(row, "drop", 0.0))
        drops.setdefault(d, []).append(row)

    per_drop = []
    k_vals = []
    for d in sorted(drops):
        rs = drops[d]
        delay = np.array([_f(r, "delay_ns") * 1e-9 for r in rs])
        power = np.array([_f(r, "power", power=True) for r in rs])
        aoa = (np.array([_f(r, "aoa_deg") for r in rs])
               if "aoa_deg" in header else None)
        zoa = (np.array([_f(r, "zoa_deg", 90.0) for r in rs])
               if "zoa_deg" in header or "aoa_deg" in header else None)
        if not np.any(power > 0):
            raise ValueError(f"drop {d}: all its power cells are 0, so it "
                             "carries no power")
        ds = analysis.rms_ds(delay, power)
        if np.ptp(delay[power > 0]) == 0:
            raise ValueError(f"drop {d}: all its rows with power share one "
                             "delay, so its delay spread is zero")
        if aoa is not None and np.ptp(aoa[power > 0]) == 0:
            raise ValueError(f"drop {d}: all its rows with power share one "
                             "aoa_deg, so its azimuth spread is zero")
        asa_v = analysis.asa(aoa, power) if aoa is not None else None
        k_v = analysis.k_factor(power)
        if np.isfinite(k_v):
            k_vals.append(k_v)

        labels = None
        # only rows with power can seed a cluster
        n_powered = np.count_nonzero(power)
        if "cluster" in header and not args.recluster:
            labels = np.array([int(_f(r, "cluster", 0.0)) for r in rs])
        elif aoa is not None and n_powered >= 3:
            mp = analysis.MpcSet(delay, power, aoa, zoa)
            _, _, labels = analysis.select_n_clusters(
                mp, k_min=2, k_max=min(args.max_clusters, n_powered - 1),
                delay_weight=args.delay_weight)
        if labels is not None:
            mp = analysis.MpcSet(delay, power, aoa, zoa, labels=labels)
            st = analysis.cluster_stats(mp)
            cstats = st.medians
            n_cl = int(np.unique(labels).size)
        else:
            cstats = {"c_ds_ns": None, "c_asa_deg": None, "c_k_db": None}
            n_cl = 1
        per_drop.append((d, len(rs), ds, asa_v, k_v, n_cl,
                         cstats["c_ds_ns"], cstats["c_asa_deg"],
                         cstats["c_k_db"]))

    ds_all = np.array([p[2] for p in per_drop])
    report = {"n_drops": len(per_drop), "kind": "mpc"}
    mu, sg = analysis.fit_lognormal(ds_all)
    report["ds_log10s"] = {"mu": round(mu, 6), "sigma": round(sg, 6)}
    asa_all = np.array([p[3] for p in per_drop if p[3] is not None])
    if asa_all.size == len(per_drop) and asa_all.size > 0:
        mu, sg = analysis.fit_lognormal(asa_all)
        report["asa_log10deg"] = {"mu": round(mu, 6), "sigma": round(sg, 6)}
    if k_vals:
        mu, sg = analysis.fit_normal(np.asarray(k_vals))
        report["k_db"] = {"mu": round(mu, 6), "sigma": round(sg, 6),
                          "n_finite": len(k_vals)}
    cl_counts = np.array([p[5] for p in per_drop], dtype=float)
    cmed = {"count_median": float(np.median(cl_counts))}
    for idx, key in ((6, "c_ds_ns_median"), (7, "c_asa_deg_median"),
                     (8, "c_k_db_median")):
        vals = np.array([p[idx] for p in per_drop if p[idx] is not None],
                        dtype=float)
        if vals.size:
            cmed[key] = float(np.median(vals))
    if np.all(cl_counts > 0) and cl_counts.std() > 0:
        mu, sg = analysis.fit_lognormal(cl_counts)
        cmed["count_log10"] = {"mu": round(mu, 6), "sigma": round(sg, 6)}
    report["clusters"] = cmed
    if asa_all.size == len(per_drop) and len(per_drop) >= 3:
        try:
            cols = {"ds": np.log10(ds_all), "asa": np.log10(asa_all)}
            if len(k_vals) == len(per_drop):
                cols["k"] = np.asarray(k_vals)
            names, mat = analysis.cross_corr(cols)
            report["xcorr"] = {
                f"{names[i]}_{names[j]}": round(float(mat[i, j]), 6)
                for i in range(len(names)) for j in range(i + 1, len(names))}
        except ValueError:
            pass
    return report, per_drop


def _analyze_pdp(args, header, rows) -> dict:
    dir_cols = [c for c in ("phi_rx_deg", "phi_tx_deg", "theta_rx_deg")
                if c in header]
    groups = {}
    for row in rows:
        key = tuple(_f(row, c) for c in dir_cols)
        groups.setdefault(key, []).append(row)
    pdps = []
    for key in sorted(groups):
        rs = groups[key]
        delays = np.array([_f(r, "delay_ns") * 1e-9 for r in rs])
        powers = np.array([_f(r, "power_linear", power=True) for r in rs])
        order = np.argsort(delays)
        pdps.append(analysis.Pdp(delays[order], powers[order],
                                 direction=dict(zip(dir_cols, key)) or None))
    omni = analysis.synth_omni(pdps) if len(pdps) > 1 else pdps[0]
    if args.noise_floor is not None:
        omni = analysis.threshold(omni, args.noise_floor, args.margin_db)
    report = {
        "kind": "pdp",
        "n_directions": len(pdps),
        "ds_ns": round(analysis.rms_ds(omni) * 1e9, 6),
        "k_db": round(analysis.k_factor(omni.powers[omni.powers > 0]), 6),
    }
    if "phi_rx_deg" in dir_cols and len(pdps) > 1:
        az = np.array([p.direction["phi_rx_deg"] for p in pdps])
        pw = np.array([p.powers.sum() for p in pdps])
        report["asa_deg"] = round(analysis.asa(az, pw), 6)
    if "distance_m" in header:
        from .pathloss import pl_from_pdp
        d = _f(rows[0], "distance_m")
        report["pl_db"] = round(pl_from_pdp(omni), 6)
        report["distance_m"] = d
    return report


def cmd_analyze(parser, args) -> int:
    if args.max_clusters < 2:
        parser.error("--max-clusters: must be at least 2")
    path = Path(args.input)
    header, rows = _read_csv(parser, path)
    if not rows:
        print(f"analyze: {path} contains a header but no data rows",
              file=sys.stderr)
        return 1

    is_mpc = "power" in header and "delay_ns" in header
    is_pdp = "power_linear" in header and "delay_ns" in header
    if not (is_mpc or is_pdp):
        parser.error("--input: CSV must carry delay_ns plus power (multipath "
                     "components) or power_linear (power-delay profile)")

    if is_mpc:
        report, per_drop = _analyze_mpcs(args, header, rows)
    else:
        report = _analyze_pdp(args, header, rows)
    report["input"] = path.name
    out = _out_dir(parser, args)
    outputs = ["report.yaml"]
    if is_mpc:
        _write_csv(out / "per_drop.csv",
                   ("drop", "n_mpcs", "ds_s", "asa_deg", "k_db", "n_clusters",
                    "c_ds_ns_median", "c_asa_deg_median", "c_k_db_median"),
                   per_drop)
        outputs.append("per_drop.csv")
    _yaml_dump(report, out / "report.yaml")
    _write_manifest(out, "analyze", args.argv, 0, outputs, {})
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
    params, pfile = _resolve_params(parser, args)
    out = _out_dir(parser, args)

    seeds = np.random.SeedSequence(args.seed).spawn(args.drops)
    res = map_drops(_rt_drop, [(params, ss) for ss in seeds], args.workers)
    res = np.array([[np.nan if v is None else v for v in row] for row in res])

    checks = []
    for name, drawn, ext, tol, log in (
            ("ds", res[:, 0], res[:, 3], args.tol_log10, True),
            ("asa", res[:, 1], res[:, 4], args.tol_log10, True),
            ("k", res[:, 2], res[:, 5], args.tol_k_db, False)):
        if np.all(np.isnan(drawn)):
            continue
        if log:
            dm = float(np.median(np.log10(drawn)))
            em = float(np.median(np.log10(ext)))
        else:
            dm = float(np.median(drawn))
            em = float(np.median(ext))
        delta = em - dm
        ok = abs(delta) <= tol
        checks.append({"statistic": name, "drawn_median": round(dm, 6),
                       "extracted_median": round(em, 6),
                       "delta": round(delta, 6), "tolerance": tol,
                       "pass": bool(ok)})

    all_ok = all(c["pass"] for c in checks)
    report = {
        "set": params.label(), "n_drops": args.drops, "seed": args.seed,
        "checks": checks, "status": "PASS" if all_ok else "FAIL",
    }
    _write_csv(out / "roundtrip_drops.csv",
               ("drop", "drawn_ds_s", "drawn_asa_deg", "drawn_k_db",
                "extracted_ds_s", "extracted_asa_deg", "extracted_k_db"),
               [(i, *row) for i, row in enumerate(res.tolist())])
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
    if args.los_fraction is not None:
        if args.condition != "los":
            parser.error("--los-fraction: only meaningful with "
                         "--condition los as the base set")
        if not 0.0 <= args.los_fraction <= 1.0:
            parser.error("--los-fraction: must lie in [0, 1]")
    sources = ("measured", "3gpp") if args.source == "both" else (args.source,)

    runs = {}
    pfiles = {}
    for src in sources:
        ps, pf = _resolve_params(parser, args, source=src)
        pfiles[ps.label()] = pf
        kw = {}
        if args.los_fraction is not None:
            ps_nlos, pf_n = _resolve_params(parser, args, condition="nlos",
                                            source=src)
            pfiles[ps_nlos.label()] = pf_n
            kw = {"los_fraction": args.los_fraction, "params_nlos": ps_nlos}
        runs[src] = (ps, kw)
    out = _out_dir(parser, args)

    curves = {
        src: run_capacity_experiment(
            ps, snr, n_drops=args.drops, seed=args.seed, mode=args.mode,
            n_tones=args.tones, bandwidth_hz=args.bandwidth_hz,
            normalization=args.normalization, workers=args.workers, **kw)
        for src, (ps, kw) in runs.items()}

    rows = []
    for src in sources:
        for i, s in enumerate(snr):
            rows.append((src, args.scenario, curves[src].condition, s,
                         curves[src].capacity_bpshz[i]))
    _write_csv(out / "capacity.csv",
               ("source", "scenario", "condition", "snr_db",
                "mean_capacity_bpshz"), rows)

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
    if len(sources) == 2 and snr.min() <= 30.0 <= snr.max():
        gap = (np.interp(30.0, snr, curves["3gpp"].capacity_bpshz)
               - np.interp(30.0, snr, curves["measured"].capacity_bpshz))
        report["gap_3gpp_minus_measured_at_30db"] = round(float(gap), 6)
    if len(sources) == 2:
        x = crossover_snr(snr, curves["measured"].capacity_bpshz,
                          curves["3gpp"].capacity_bpshz)
        report["crossover_snr_db"] = None if x is None else round(x, 6)
    _yaml_dump(report, out / "report.yaml")
    _write_manifest(out, "capacity", args.argv, args.seed,
                    ["capacity.csv", "capacity.svg", "report.yaml"], pfiles)
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

    def selection(sp, with_source=True):
        sp.add_argument("--scenario", required=True, choices=("office", "umi"))
        sp.add_argument("--condition", required=True, choices=("los", "nlos"))
        if with_source:
            sp.add_argument("--source", default="measured",
                            choices=("measured", "3gpp"))
        sp.add_argument("--params", metavar="FILE",
                        help="YAML parameter file overriding the bundled sets")

    sp = sub.add_parser("simulate", help="generate drops and dump CSVs")
    selection(sp)
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
    selection(sp)
    common(sp, 500)
    sp.add_argument("--tol-log10", type=_finite_float, default=0.15,
                    help="median tolerance for log10 DS and ASA")
    sp.add_argument("--tol-k-db", type=_finite_float, default=3.0,
                    help="median tolerance for the K-factor in dB")
    sp.set_defaults(func=cmd_roundtrip)

    sp = sub.add_parser("capacity", help="equal-power MIMO capacity curves")
    sp.add_argument("--scenario", required=True, choices=("office", "umi"))
    sp.add_argument("--condition", default="los", choices=("los", "nlos"))
    sp.add_argument("--source", default="both",
                    choices=("measured", "3gpp", "both"))
    sp.add_argument("--params", metavar="FILE",
                    help="YAML parameter file overriding the bundled sets")
    common(sp, 100)
    sp.add_argument("--snr", default="0:35:2.5",
                    help="SNR grid: start:stop:step or comma list (dB)")
    sp.add_argument("--mode", default="thz-simplified",
                    choices=("thz-simplified", "standard"))
    sp.add_argument("--tones", type=_count, default=64)
    sp.add_argument("--bandwidth-hz", type=_finite_float, default=1e9)
    sp.add_argument("--los-fraction", type=_finite_float, default=None,
                    help="mix NLoS drops in with this LoS probability")
    sp.add_argument("--normalization", default="experiment",
                    choices=("experiment", "per-drop"))
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
