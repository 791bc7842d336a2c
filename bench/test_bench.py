"""Tests of the benchmark itself: span bookkeeping, repeatable kernel
counts, the output checks, and the command's output contract.

Run from the root of a checkout with ``python3 -m pytest bench``.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run as bench
import workloads
from tracing import MissingSiteError, Tracer

sys.path.insert(0, str(bench.SRC))
from thzgbsm import cli  # noqa: E402

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# tracing


def test_self_time_is_duration_minus_children():
    tracer = Tracer()
    inner = tracer.span("inner", lambda: time.sleep(0.01))

    def body():
        inner()
        inner()
        time.sleep(0.005)
    tracer.span("outer", body)()

    spans = {sid: (parent, name, t1 - t0)
             for sid, parent, name, t0, t1, _ in tracer.spans}
    outer = next(sid for sid, (_, name, _) in spans.items() if name == "outer")
    children = [d for parent, _, d in spans.values() if parent == outer]
    assert len(children) == 2
    outer_self = next(s for name, _, _, s in tracer.self_times() if name == "outer")
    assert outer_self == pytest.approx(spans[outer][2] - sum(children))
    assert outer_self >= 0.004


def test_missing_wrap_site_fails_loudly():
    tracer = Tracer()
    with pytest.raises(MissingSiteError, match="thzgbsm.cli.no_such_function"):
        with tracer.installed(span_sites=[("thzgbsm.cli", "no_such_function",
                                           "cli.gone", None)], count_sites=[]):
            pass


def test_installed_sites_are_restored():
    before = (cli.build_drop, cli.analysis.KPowerMeans.fit)
    with Tracer().installed():
        assert cli.build_drop is not before[0]
    assert (cli.build_drop, cli.analysis.KPowerMeans.fit) == before


KERNEL_COUNTS = ("clusters.asa_evals", "coeffs.ray_tensor_bytes",
                 "capacity.gram_eigs", "analysis.KPowerMeans.fit.calls")


def _kernel_counts(workload, out_root):
    tracer = Tracer()
    bench.run_pass(cli.main, workload, 3, 0, out_root, bench.SpeedGauge(), tracer)
    counts = {n: tracer.count(0, n) for n in KERNEL_COUNTS[:3]}
    counts["analysis.KPowerMeans.fit.calls"] = \
        tracer.per_pass()[0]["analysis.KPowerMeans.fit"]["calls"]
    return counts


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_kernel_counts_repeat_at_fixed_seed(workload, tmp_path):
    first = _kernel_counts(workload, tmp_path / "a")
    second = _kernel_counts(workload, tmp_path / "b")
    assert first == second
    assert first["clusters.asa_evals"] > 0
    if workload == "capacity":
        # drops x tones: two scenarios, two sources, 64 tones each
        assert first["capacity.gram_eigs"] == 4 * workloads.CAPACITY_DROPS * 64
        assert first["coeffs.ray_tensor_bytes"] > 0
    if workload == "simulate-analyze":
        assert first["analysis.KPowerMeans.fit.calls"] > 0
    if workload == "roundtrip":
        assert first["coeffs.ray_tensor_bytes"] == 0
        assert first["analysis.KPowerMeans.fit.calls"] == 0


# ---------------------------------------------------------------------------
# correctness check


def _out_dir(argv):
    return Path(argv[argv.index("--out") + 1])


def _stub_capacity(curve, rc=0):
    """A stand-in for cli.main that writes capacity outputs with ``curve``."""
    def main(argv):
        out = _out_dir(argv)
        out.mkdir(parents=True)
        rows = "".join(f"measured,umi,los,{snr},{c}\n"
                       for snr, c in zip((0.0, 10.0, 20.0), curve))
        (out / "capacity.csv").write_text(
            "source,scenario,condition,snr_db,mean_capacity_bpshz\n" + rows)
        for name in ("capacity.svg", "report.yaml", "manifest.json"):
            (out / name).write_text("{}\n")
        return rc
    return main


def _capacity_invocation(tmp_path):
    return workloads.pass_invocations("capacity", 0, tmp_path)[0]


def test_healthy_invocation_passes(tmp_path):
    oc = workloads.run_invocation(_stub_capacity([1.0, 2.0, 3.0]),
                                  _capacity_invocation(tmp_path))
    assert not oc.failed


@pytest.mark.parametrize("main, reason", [
    (_stub_capacity([1.0, float("nan"), 3.0]), "non-finite"),
    (_stub_capacity([1.0, 2.0, 3.0], rc=3), "exit code 3"),
    (_stub_capacity([1.0, 3.0, 2.0]), "decreases"),
])
def test_failing_invocation_is_counted(tmp_path, main, reason):
    oc = workloads.run_invocation(main, _capacity_invocation(tmp_path))
    assert oc.failed and oc.broken
    assert any(reason in m for _, m in oc.problems)


def test_malformed_output_is_counted(tmp_path):
    def main(argv):
        out = _out_dir(argv)
        out.mkdir(parents=True)
        for name in workloads.EXPECTED_FILES["capacity"]:
            (out / name).write_text("snr_db\n1.0\n")
        return 0
    oc = workloads.run_invocation(main, _capacity_invocation(tmp_path))
    assert oc.broken and "unreadable" in oc.problems[0][1]


def test_raising_invocation_is_counted(tmp_path):
    def main(argv):
        raise ValueError("boom")
    oc = workloads.run_invocation(main, _capacity_invocation(tmp_path))
    assert oc.failed and oc.returncode is None


def _stub_roundtrip_fail(argv):
    out = _out_dir(argv)
    out.mkdir(parents=True)
    (out / "report.yaml").write_text("status: FAIL\n")
    (out / "roundtrip_drops.csv").write_text("drop,extracted_ds_s\n0,1e-08\n")
    (out / "manifest.json").write_text("{}\n")
    return 1


def test_roundtrip_fail_verdict_counts_but_is_not_broken(tmp_path):
    inv = workloads.pass_invocations("roundtrip", 0, tmp_path)[0]
    oc = workloads.run_invocation(_stub_roundtrip_fail, inv)
    assert oc.failed and not oc.broken


@pytest.mark.parametrize("workload, main", [
    ("capacity", _stub_capacity([1.0, float("inf"), 3.0])),
    ("roundtrip", _stub_roundtrip_fail),
])
def test_failed_invocations_and_fail_verdicts_lower_ok_frac(tmp_path, workload, main):
    passes = [bench.run_pass(main, workload, 0, 0, tmp_path, bench.SpeedGauge())]
    probes = [{"setup_s": 1.0, "peak_rss_mb": 100.0, "scale": 1.0}]
    metrics = bench.end_to_end_metrics(passes, probes)
    assert metrics["ok_frac"] == 0.0


def test_nonfinite_rules_for_k_factor_columns(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("ds,k_db,drawn_k_db,c_k_db_median,name\n"
                    "1.0,nan,2.0,inf,a\n2.0,nan,nan,1.0,b\n")
    # all-NaN K column and +inf K flag pass; one NaN among finite K fails
    assert workloads.nonfinite_cells(path) == 1
    path.write_text("ds,k_db\nnan,1.0\n")
    assert workloads.nonfinite_cells(path) == 1


# ---------------------------------------------------------------------------
# command contract


def _last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_command_prints_every_metric_with_its_unit(trace, key):
    cmd = [sys.executable, "bench/run.py", "--workload", "capacity", "--seed", "0",
           "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=bench.ROOT, capture_output=True, text=True,
                          timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC[key]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want


def test_command_fails_without_sources(tmp_path):
    shutil.copytree(bench.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "roundtrip",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
