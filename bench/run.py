"""Benchmark of the thzgbsm command line, end to end and layer by layer.

Usage, from the root of a checkout::

    python3 bench/run.py --workload roundtrip --seed 7 --seconds 25 --trace 0

Workloads (see ``bench/workloads.py`` for the exact command lines):

* ``roundtrip``: ``thzgbsm roundtrip`` on all eight bundled parameter sets;
  drop generation plus re-extraction only.
* ``capacity``: ``thzgbsm capacity --source both`` for office/los and
  umi/los at the default 16x16 BS and 2x2 UE arrays and 64 tones.
* ``simulate-analyze``: ``thzgbsm simulate --dump-clusters --dump-cir`` on
  one measured and one 3GPP set, each followed by ``thzgbsm analyze
  --recluster --max-clusters 6`` on the ``clusters.csv`` it wrote.

Everything runs on one core: ``--workers 1`` and BLAS pools pinned to one
thread. Warm passes call ``thzgbsm.cli.main(argv)`` in this process until
``--seconds`` have passed, each pass at its own seed derived from
``--seed``. Set-up time and peak memory come from fresh interpreters
(``bench/child.py``).

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median over
fresh processes), ``drops_per_s`` (drops over time, all warm passes),
``peak_rss_mb`` and ``ok_frac`` (share of CLI invocations that passed
every check, the roundtrip verdict included). ``--trace 1`` alternates untraced passes with passes in
which every public function is wrapped at its call sites
(``bench/tracing.py``) and reports the per-layer metrics, tracing
overhead included.

Times are reported at the speed of a reference core. On a shared 2-core
x86-64 VM the speed of one core swung by up to 40% in phases lasting from
seconds to minutes, which no run of a minute can average out. So a fixed
piece of numpy work (``reference_kernel``) is timed before the first and
after every CLI invocation and fresh-process probe, and each of those is
scaled by ``REF_S`` over the mean of the two readings around it: it is
reported as it would take on a core that runs the reference in ``REF_S``
seconds. Raw times are kept in the details file.

Every CLI invocation is checked. It fails when it raises, exits nonzero,
leaves an expected output missing, writes a NaN or infinite value, or
draws a capacity curve that falls with SNR; those are the ``failed``
operations of the result line. A roundtrip set that gets the tool's own
statistical verdict FAIL ran correctly but did not reproduce its
parameters (the known ASA saturation defect hits the ``umi_los`` sets):
it counts against ``ok_frac``, as ``verdict_fails`` in the details file
and in ``failed_frac`` there (any problem over attempted), but not in
``failed``. The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``. ``correct`` is
false when an invocation failed or when tracing changed the outputs.
Details go to ``.bench_run/BENCH_<workload>[_trace].json``.
"""

import os

# One thread for every BLAS/OpenMP pool, set before numpy loads; the
# fresh-process probes inherit it.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median, quantiles  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"

SETUP_PROBES = 3    # fresh processes per run; untraced, the first also runs a pass
MIN_PASSES = 3
PROBE_TIMEOUT_S = 120
# The reference core runs reference_kernel() in this many seconds.
REF_S = 0.07

END_TO_END_UNITS = {"setup_s": "s", "drops_per_s": "1/s", "peak_rss_mb": "MB",
                    "ok_frac": "fraction"}

# Spans whose self time is reported, and spans whose call count is.
LAYER_SELF_TIMES = (
    "clusters.rescale_azimuth", "clusters.gen_angles", "clusters.build_drop",
    "clusters.extract_drop_stats", "coeffs.assemble_cir", "coeffs.cir_to_ctf",
    "capacity.run_capacity_experiment", "analysis.select_n_clusters",
    "analysis.KPowerMeans.fit", "analysis.cluster_stats", "lsp.draw_lsp_iid",
    "lsp.generate_lsp", "fields.GaussianField", "cli.cmd_simulate",
    "cli.cmd_analyze", "cli.cmd_roundtrip", "cli.cmd_capacity",
    "plotting.line_plot")
LAYER_CALLS = ("clusters.rescale_azimuth", "clusters.build_drop",
               "coeffs.assemble_cir", "analysis.select_n_clusters",
               "analysis.KPowerMeans.fit")
LAYER_COUNTS = {"clusters.asa_evals": "count", "coeffs.ray_tensor_bytes": "B",
                "capacity.gram_eigs": "count",
                "analysis.KPowerMeans.fit.n_iter": "count",
                "fields.grid_cells": "count"}

# Layers a traced pass of each workload must reach; one that records no
# call means a wrap site stopped seeing its calls.
EXPECTED_LAYERS = {
    "roundtrip": ("cli.cmd_roundtrip", "clusters.build_drop", "clusters.gen_angles",
                  "clusters.rescale_azimuth", "clusters.extract_drop_stats",
                  "lsp.draw_lsp_iid"),
    "capacity": ("cli.cmd_capacity", "capacity.run_capacity_experiment",
                 "clusters.build_drop", "clusters.rescale_azimuth",
                 "coeffs.assemble_cir", "coeffs.cir_to_ctf", "lsp.draw_lsp_iid",
                 "plotting.line_plot"),
    "simulate-analyze": ("cli.cmd_simulate", "cli.cmd_analyze", "lsp.generate_lsp",
                         "fields.GaussianField", "clusters.build_drop",
                         "clusters.rescale_azimuth", "clusters.extract_drop_stats",
                         "coeffs.assemble_cir", "analysis.select_n_clusters",
                         "analysis.KPowerMeans.fit", "analysis.cluster_stats"),
}


def quartiles(values):
    q = quantiles(values, n=4)
    return q[0], q[2]


# ---------------------------------------------------------------------------
# host speed


def reference_kernel() -> float:
    """Seconds this core takes for a fixed piece of numpy work.

    The work mixes the program's kinds of load: many tiny array calls
    from Python (as in the azimuth-spread rescale), mid-sized broadcast
    reductions (as in K-power-means) and a large complex einsum (as in
    CIR assembly). It calls nothing from thzgbsm, so a change to the
    program does not move it.
    """
    phi = np.linspace(0.0, 1.0, 40)
    p = np.linspace(1.0, 2.0, 40)
    pts = np.linspace(0.0, 1.0, 1600).reshape(400, 4)
    centers = pts[::57][:6].copy()
    a = np.exp(1j * np.linspace(0.0, 1.0, 380)).reshape(19, 20)
    b = np.exp(1j * np.linspace(0.0, 2.0, 4 * 380)).reshape(4, 19, 20)
    c = np.exp(1j * np.linspace(0.0, 3.0, 256 * 380)).reshape(256, 19, 20)
    t0 = perf_counter()
    for i in range(1500):
        abs((p * np.exp(1j * phi * (1.0 + 1e-4 * i))).sum()) / p.sum()
    for _ in range(250):
        ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2).argmin(axis=1)
    for _ in range(5):
        np.einsum("nm,unm,snm->nmus", a, b, c)
    return perf_counter() - t0


class SpeedGauge:
    """Reference-kernel readings taken between consecutive timed sections."""

    def __init__(self):
        self.last = reference_kernel()

    def scale(self) -> float:
        """Factor that brings the section that just ended to the reference
        core: REF_S over the mean of the readings before and after it."""
        now = reference_kernel()
        factor = REF_S / ((self.last + now) / 2.0)
        self.last = now
        return factor


# ---------------------------------------------------------------------------
# fresh-process probes


def probe(workload: str, seed: int, out: Path, one_pass: bool) -> dict:
    """Start a fresh interpreter, time it to ready, optionally read its
    peak memory after one pass."""
    cmd = [sys.executable, str(BENCH / "child.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(out)] + (["--one-pass"] if one_pass else [])
    t0 = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        try:
            ready = proc.stdout.readline()
            setup_s = perf_counter() - t0
            rest = proc.communicate(timeout=PROBE_TIMEOUT_S)[0]
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if proc.returncode != 0 or not ready.strip():
        raise RuntimeError(f"set-up probe exited with {proc.returncode}: {' '.join(cmd)}")
    result = {"setup_s": setup_s, **json.loads(ready)}
    if one_pass:
        result.update(json.loads(rest.strip().splitlines()[-1]))
    return result


# ---------------------------------------------------------------------------
# warm passes


@dataclass
class Pass:
    index: int           # pass seed index
    traced: bool
    outcomes: list
    scales: list         # per outcome: factor to the reference core
    digest: str
    bytes_written: int
    bytes_read: int

    @property
    def wall_s(self) -> float:
        """Time in ``main`` at the reference core's speed."""
        return sum(sc * oc.wall_s for sc, oc in zip(self.scales, self.outcomes))

    @property
    def scale(self) -> float:
        """Time-weighted factor from measured to reference-core time."""
        return self.wall_s / sum(oc.wall_s for oc in self.outcomes)

    @property
    def drops(self) -> int:
        return sum(oc.invocation.drops for oc in self.outcomes)

    @property
    def drops_per_s(self) -> float:
        return self.drops / self.wall_s


def run_pass(main, workload, seed, index, out_root, gauge, tracer=None) -> Pass:
    """One pass; the gauge reads the host's speed after every invocation."""
    invs = workloads.pass_invocations(workload, workloads.pass_seed(seed, index),
                                      out_root)
    outcomes, scales, written, read = [], [], 0, 0
    for inv in invs:
        if tracer is None:
            oc = workloads.run_invocation(main, inv)
        else:
            tracer.pass_index = index
            with tracer.installed():
                oc = workloads.run_invocation(tracer.span("cli.main", main), inv)
        scales.append(gauge.scale())
        outcomes.append(oc)
        w, r = workloads.output_bytes(inv)
        written += w
        read += r
    return Pass(index, tracer is not None, outcomes, scales,
                workloads.outputs_digest(outcomes), written, read)


def measure(main, workload, seed, seconds, out_root, tracer=None) -> list:
    """Warm passes until ``seconds`` have passed. With a tracer, pass k runs
    once untraced and once traced at the same seed, alternating which
    goes first."""
    passes = []
    gauge = SpeedGauge()
    start = perf_counter()
    k = 0
    while k < MIN_PASSES or perf_counter() - start < seconds:
        if tracer is None:
            order = (False,)
        else:
            order = (False, True) if k % 2 == 0 else (True, False)
        for traced in order:
            passes.append(run_pass(main, workload, seed, k, out_root, gauge,
                                   tracer if traced else None))
        if tracer is not None:
            check_layers(tracer, workload, k)
        k += 1
    return passes


def check_layers(tracer, workload, index) -> None:
    seen = tracer.per_pass()[index]
    silent = [n for n in EXPECTED_LAYERS[workload] if seen[n]["calls"] == 0]
    if silent:
        raise RuntimeError(f"traced {workload} pass recorded no calls to "
                           f"{', '.join(silent)}; update bench/tracing.py")


# ---------------------------------------------------------------------------
# metrics


def pooled_drops_per_s(passes) -> float:
    """Drops over reference-core time, all given passes pooled. Each pass
    draws its own inputs and drops differ in cost, so pooling averages
    over more of them than a median of per-pass rates would."""
    return sum(p.drops for p in passes) / sum(p.wall_s for p in passes)


def end_to_end_metrics(passes, probes) -> dict:
    outcomes = [oc for p in passes for oc in p.outcomes]
    failed = sum(oc.failed for oc in outcomes)   # verdict FAILs included
    return {
        "setup_s": median([pb["setup_s"] * pb["scale"] for pb in probes]),
        "drops_per_s": pooled_drops_per_s([p for p in passes if not p.traced]),
        "peak_rss_mb": probes[0]["peak_rss_mb"],
        "ok_frac": 1.0 - failed / len(outcomes),
    }


def per_layer_metrics(passes, probes, tracer) -> tuple[dict, dict]:
    traced = [p for p in passes if p.traced]
    per = tracer.per_pass()
    first = next(p for p in traced if p.index == 0)
    values, units = {}, {}

    def put(name, value, unit):
        values[name], units[name] = value, unit

    for name in LAYER_SELF_TIMES:
        put(f"{name}.self_s",
            median([p.scale * per[p.index][name]["self_s"] for p in traced]), "s")
    for name in LAYER_CALLS:
        put(f"{name}.calls", per[0][name]["calls"], "count")
    for name, unit in LAYER_COUNTS.items():
        put(name, tracer.count(0, name), unit)
    put("cli.bytes_written", first.bytes_written, "B")
    put("cli.bytes_read", first.bytes_read, "B")
    scales = {p.index: p.scale for p in traced}
    build_ms = [1e3 * scales[i] * (t1 - t0) for _, _, name, t0, t1, i in tracer.spans
                if name == "clusters.build_drop"]
    pct = quantiles(build_ms, n=100)
    put("clusters.build_drop.p50_ms", pct[49], "ms")
    put("clusters.build_drop.p99_ms", pct[98], "ms")
    put("setup.import_s", median([pb["import_s"] * pb["scale"] for pb in probes]), "s")
    put("setup.field_calibration_s",
        median([pb["field_calibration_s"] * pb["scale"] for pb in probes]), "s")
    # drops_per_s lost to tracing, paired with the untraced pass at the
    # same seed that ran next to it
    untraced = {p.index: p for p in passes if not p.traced}
    put("trace.overhead_frac",
        median([1.0 - untraced[p.index].wall_s / p.wall_s for p in traced]), "fraction")
    put("trace.pass_s", median([p.wall_s for p in traced]), "s")
    return values, units


def layer_table(passes, tracer) -> list[dict]:
    """Every span name: calls in the first traced pass, median self time
    per traced pass and its share of the median traced pass."""
    traced = [p for p in passes if p.traced]
    per = tracer.per_pass()
    pass_s = median([p.wall_s for p in traced])
    names = sorted({n for p in traced for n in per[p.index]})
    rows = []
    for n in names:
        self_s = median([p.scale * per[p.index][n]["self_s"] for p in traced])
        rows.append({"layer": n, "calls": per[0][n]["calls"], "self_s": self_s,
                     "share": self_s / pass_s})
    rows.sort(key=lambda r: -r["self_s"])
    return rows


def environment() -> dict:
    import scipy
    import thzgbsm
    import yaml
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version")}
    except (AttributeError, KeyError, TypeError):
        blas = None
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "pyyaml": yaml.__version__,
        "thzgbsm": thzgbsm.__version__, "blas": blas,
        "nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
        "thread_env": {v: os.environ[v] for v in THREAD_VARS}, "workers": 1,
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# entry point


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "thzgbsm" / "__init__.py").is_file():
        print(f"bench: no thzgbsm sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import thzgbsm
    from thzgbsm import cli
    if Path(thzgbsm.__file__).resolve().parent != SRC / "thzgbsm":
        print(f"bench: imported thzgbsm from {thzgbsm.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    label = args.workload + ("_trace" if args.trace else "")
    work = RUN_DIR / f"{label}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        gauge = SpeedGauge()
        probes = []
        for i in range(SETUP_PROBES):
            probes.append(probe(args.workload, args.seed, work / f"probe{i}",
                                one_pass=(i == 0 and not args.trace)))
            probes[-1]["scale"] = gauge.scale()
        workloads.prepare(args.workload)
        tracer = Tracer() if args.trace else None
        passes = measure(cli.main, args.workload, args.seed, args.seconds,
                         work / "passes", tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    outcomes = [oc for p in passes for oc in p.outcomes]
    failed = [oc for oc in outcomes if oc.broken]
    verdict_fails = sum(oc.failed and not oc.broken for oc in outcomes)
    any_problem = sum(oc.failed for oc in outcomes)
    problems = [f"pass {p.index}{' traced' if p.traced else ''}: {m}"
                for p in passes for oc in p.outcomes for _, m in oc.problems]
    by_index = {}
    for p in passes:
        by_index.setdefault(p.index, set()).add(p.digest)
    digests_agree = all(len(d) == 1 for d in by_index.values())
    if not digests_agree:
        problems.append("tracing changed the outputs of a pass")
    correct = digests_agree and not failed

    untraced = [p for p in passes if not p.traced]
    dps = [p.drops_per_s for p in untraced]
    summary = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "passes": len(untraced), "drops_per_pass": untraced[0].drops,
        "ref_s": REF_S,
        "drops_per_s": {"pooled": pooled_drops_per_s(untraced), "median": median(dps), "quartiles": quartiles(dps),
                        "per_pass": dps, "scale_per_pass": [p.scale for p in untraced]},
        "setup_probes": probes,
        "attempted": len(outcomes), "failed": len(failed),
        "verdict_fails": verdict_fails, "failed_frac": any_problem / len(outcomes),
        "problems": problems,
        "digest_pass0": passes[0].digest,
    }
    if args.trace:
        values, units = per_layer_metrics(passes, probes, tracer)
        summary["layers"] = layer_table(passes, tracer)
    else:
        values = end_to_end_metrics(passes, probes)
        units = END_TO_END_UNITS
    summary["metrics"] = values
    RUN_DIR.mkdir(exist_ok=True)
    (RUN_DIR / f"BENCH_{label}.json").write_text(json.dumps(summary, indent=2) + "\n")
    if tracer is not None:
        tracer.write(RUN_DIR / f"spans_{label}.jsonl")

    q1, q3 = quartiles(dps)
    print(f"bench {args.workload} seed={args.seed}: {len(untraced)} passes of "
          f"{untraced[0].drops} drops, drops_per_s {summary['drops_per_s']['pooled']:.4g} "
          f"at reference speed (per pass: median {median(dps):.4g}, quartiles "
          f"{q1:.4g}..{q3:.4g}); failed {len(failed)}/{len(outcomes)} "
          f"invocations, {verdict_fails} roundtrip verdict FAILs "
          f"(failed_frac {summary['failed_frac']:.4f}); "
          f"outputs sha256 {passes[0].digest[:16]}")
    for m in problems:
        print(f"  {m}")
    if args.trace:
        for row in summary["layers"]:
            print(f"  {row['layer']:<34} {row['calls']:>7} calls "
                  f"{row['self_s']:9.4f} s self {100 * row['share']:5.1f}%")
    print(json.dumps({
        "correct": correct, "attempted": len(outcomes), "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
