"""The benchmark's workloads: which CLI invocations make up one pass, how
many drops each completes, how a fresh process sets up for them, and the
checks every invocation's outputs must pass.

A pass is a list of ``thzgbsm`` command lines run in order through the
public entry point ``thzgbsm.cli.main(argv)``. Each pass gets its own
seed, derived from the benchmark seed and the pass index, so a run covers
several independent input draws while the same benchmark seed always
gives the same inputs.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import shutil
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import yaml

# Drops per parameter set in one pass. Sized so a warm pass takes two to
# three seconds on one core and a run holds several passes.
ROUNDTRIP_DROPS = 30
CAPACITY_DROPS = 16
SIMULATE_DROPS = 16
# Cluster-count search range of analyze --recluster (CLI default 10).
# Clustering cost varies from drop to drop, so a run must see many drops
# to repeat; capping the search at 6 makes a drop 2.6 times cheaper while
# K-power-means still dominates the pass.
MAX_CLUSTERS = 6

ALL_SETS = [(sc, co, so) for sc in ("office", "umi") for co in ("los", "nlos")
            for so in ("measured", "3gpp")]
CAPACITY_SCENARIOS = ("office", "umi")
# one measured and one 3GPP set: few multipath components against many
SIMULATE_SETS = [("office", "los", "measured"), ("umi", "nlos", "3gpp")]

WORKLOADS = ("roundtrip", "capacity", "simulate-analyze")

# Files every invocation of a subcommand must leave in its --out directory.
EXPECTED_FILES = {
    "roundtrip": ("report.yaml", "roundtrip_drops.csv", "manifest.json"),
    "capacity": ("capacity.csv", "capacity.svg", "report.yaml", "manifest.json"),
    "simulate": ("lsp.csv", "clusters.csv", "cir.csv", "drop_stats.csv",
                 "manifest.json"),
    "analyze": ("report.yaml", "per_drop.csv", "manifest.json"),
}


@dataclass
class Invocation:
    """One CLI command line of a pass."""
    kind: str                 # subcommand name
    argv: list[str]
    out: Path                 # its --out directory
    drops: int                # drops it completes (0 when it re-reads drops)
    input: Path | None = None  # file it reads, for analyze


@dataclass
class Outcome:
    """What one invocation did: wall time, exit code and check results."""
    invocation: Invocation
    wall_s: float
    returncode: int | None
    problems: list[tuple[str, str]]   # (kind, message); kind "verdict" or "error"

    @property
    def failed(self) -> bool:
        return bool(self.problems)

    @property
    def broken(self) -> bool:
        """A failure other than the tool's own statistical verdict."""
        return any(kind != "verdict" for kind, _ in self.problems)


def pass_seed(seed: int, pass_index: int) -> int:
    return (seed * 1_000_003 + pass_index) % 2**31


def pass_invocations(workload: str, seed: int, out_root: Path) -> list[Invocation]:
    """The command lines of one pass at one pass seed."""
    s = str(seed)
    if workload == "roundtrip":
        out = []
        for sc, co, so in ALL_SETS:
            d = out_root / f"roundtrip-{sc}-{co}-{so}"
            out.append(Invocation("roundtrip", [
                "roundtrip", "--scenario", sc, "--condition", co, "--source", so,
                "--drops", str(ROUNDTRIP_DROPS), "--seed", s, "--workers", "1",
                "--out", str(d)], d, ROUNDTRIP_DROPS))
        return out
    if workload == "capacity":
        out = []
        for sc in CAPACITY_SCENARIOS:
            d = out_root / f"capacity-{sc}"
            out.append(Invocation("capacity", [
                "capacity", "--scenario", sc, "--condition", "los",
                "--source", "both", "--drops", str(CAPACITY_DROPS), "--seed", s,
                "--workers", "1", "--out", str(d)], d, 2 * CAPACITY_DROPS))
        return out
    if workload == "simulate-analyze":
        out = []
        for sc, co, so in SIMULATE_SETS:
            sim = out_root / f"simulate-{sc}-{co}-{so}"
            ana = out_root / f"analyze-{sc}-{co}-{so}"
            out.append(Invocation("simulate", [
                "simulate", "--scenario", sc, "--condition", co, "--source", so,
                "--drops", str(SIMULATE_DROPS), "--seed", s, "--workers", "1",
                "--dump-clusters", "--dump-cir", "--out", str(sim)],
                sim, SIMULATE_DROPS))
            out.append(Invocation("analyze", [
                "analyze", "--input", str(sim / "clusters.csv"), "--recluster",
                "--max-clusters", str(MAX_CLUSTERS), "--out", str(ana)],
                ana, 0, input=sim / "clusters.csv"))
        return out
    raise ValueError(f"unknown workload {workload!r}")


def workload_sets(workload: str) -> list[tuple[str, str, str]]:
    if workload == "roundtrip":
        return list(ALL_SETS)
    if workload == "capacity":
        return [(sc, "los", so) for sc in CAPACITY_SCENARIOS
                for so in ("measured", "3gpp")]
    if workload == "simulate-analyze":
        return list(SIMULATE_SETS)
    raise ValueError(f"unknown workload {workload!r}")


def prepare(workload: str) -> dict:
    """Per-process set-up a workload triggers: parameter loading and, for
    workloads that draw spatially correlated LSPs, the Gaussian-field
    kernel calibration (cached for the rest of the process).

    Returns the time each part took.
    """
    import numpy as np
    from thzgbsm.lsp import generate_lsp
    from thzgbsm.params import load_params

    t0 = perf_counter()
    params = [load_params(*s) for s in workload_sets(workload)]
    t1 = perf_counter()
    if workload == "simulate-analyze":
        rng = np.random.default_rng(0)
        for p in params:
            r = p.geometry.annulus_m[0]
            generate_lsp(p, [r], [0.0], rng)
    t2 = perf_counter()
    return {"params_s": t1 - t0, "field_calibration_s": t2 - t1}


# ---------------------------------------------------------------------------
# running and checking


def run_invocation(main, inv: Invocation) -> Outcome:
    """Run one command line through ``main`` and check what it wrote.

    Only the call to ``main`` is timed. Any exception is caught here and
    counted as a failed invocation, so one bad case cannot stop the run.
    """
    shutil.rmtree(inv.out, ignore_errors=True)
    problems = []
    t0 = perf_counter()
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            rc = main(inv.argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # noqa: BLE001 - reported as a failed invocation
        rc = None
        problems.append(("error", f"raised {exc!r}"))
    wall = perf_counter() - t0
    if rc is not None:
        try:
            problems.extend(check_outputs(inv, rc))
        except (KeyError, TypeError, ValueError, AttributeError, csv.Error,
                yaml.YAMLError) as exc:
            problems.append(("error", f"{inv.out.name}: unreadable output: {exc!r}"))
    return Outcome(inv, wall, rc, problems)


def check_outputs(inv: Invocation, rc: int) -> list[tuple[str, str]]:
    """Problems with one finished invocation; empty when it passed."""
    problems = []
    status = None
    if inv.kind == "roundtrip" and (inv.out / "report.yaml").is_file():
        status = yaml.safe_load((inv.out / "report.yaml").read_text()).get("status")
        if status == "FAIL":
            problems.append(("verdict", f"{inv.out.name}: roundtrip verdict FAIL"))
    if rc != 0 and not (rc == 1 and status == "FAIL"):
        problems.append(("error", f"{inv.out.name}: exit code {rc}"))
    missing = [f for f in EXPECTED_FILES[inv.kind] if not (inv.out / f).is_file()]
    if missing:
        problems.append(("error", f"{inv.out.name}: missing {', '.join(missing)}"))
        return problems
    for path in sorted(inv.out.glob("*.csv")):
        bad = nonfinite_cells(path)
        if bad:
            problems.append(("error", f"{inv.out.name}/{path.name}: {bad} non-finite cells"))
    if inv.kind == "capacity":
        problems.extend(("error", f"{inv.out.name}: {m}")
                        for m in capacity_problems(inv.out / "capacity.csv"))
    if inv.kind in ("simulate", "analyze"):
        name = "drop_stats.csv" if inv.kind == "simulate" else "per_drop.csv"
        n = len(read_rows(inv.out / name))
        if n != SIMULATE_DROPS:
            problems.append(("error", f"{inv.out.name}/{name}: {n} rows, "
                                      f"expected {SIMULATE_DROPS}"))
    return problems


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def nonfinite_cells(path: Path) -> int:
    """Numeric cells that are NaN or infinite.

    Text and empty cells pass. K-factor columns (names holding ``k_db``)
    carry two markers: +inf flags a single-component cluster, and a column
    that is NaN throughout marks a set without a K-factor (NLoS).
    """
    rows = read_rows(path)
    if not rows:
        return 0
    bad = 0
    for col in rows[0]:
        vals = []
        for row in rows:
            try:
                vals.append(float(row[col]))
            except (TypeError, ValueError):
                continue
        if "k_db" in col:
            if all(math.isnan(v) for v in vals):
                continue
            vals = [v for v in vals if v != math.inf]
        bad += sum(not math.isfinite(v) for v in vals)
    return bad


def capacity_problems(path: Path) -> list[str]:
    """Each source's mean capacity curve must not fall as SNR rises."""
    curves = {}
    for row in read_rows(path):
        curves.setdefault(row["source"], []).append(
            (float(row["snr_db"]), float(row["mean_capacity_bpshz"])))
    out = []
    for src, pts in curves.items():
        caps = [c for _, c in sorted(pts)]
        if any(b < a - 1e-9 for a, b in zip(caps, caps[1:])):
            out.append(f"{src} capacity decreases with SNR")
    if not curves:
        out.append("no capacity rows")
    return out


def outputs_digest(outcomes: list[Outcome]) -> str:
    """SHA-256 over every output file except the timestamped manifest."""
    h = hashlib.sha256()
    for oc in outcomes:
        for path in sorted(oc.invocation.out.iterdir()):
            if path.name != "manifest.json" and path.is_file():
                h.update(path.name.encode())
                h.update(path.read_bytes())
    return h.hexdigest()


def output_bytes(inv: Invocation) -> tuple[int, int]:
    """(bytes written to --out, bytes of the input file read)."""
    written = sum(p.stat().st_size for p in inv.out.iterdir() if p.is_file()) \
        if inv.out.is_dir() else 0
    read = inv.input.stat().st_size if inv.input is not None and inv.input.is_file() else 0
    return written, read
