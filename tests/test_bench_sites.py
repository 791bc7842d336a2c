"""The benchmark's traced run wraps library functions where they are
called (``bench/tracing.py``) and stops when a layer a workload needs
records no call (``EXPECTED_LAYERS`` in ``bench/run.py``). This guard
runs one small invocation of each traced command under the benchmark's
own tracer, so that a refactor which strands a wrap site fails the
tests, not only a traced benchmark run. Neither bench file is changed:
the tracer is loaded from its path and the layer table read from the
source."""

import ast
import importlib.util
from pathlib import Path

from thzgbsm.cli import main

BENCH = Path(__file__).parents[1] / "bench"


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracing",
                                                  BENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.Tracer()


def _expected_layers() -> dict:
    for node in ast.parse((BENCH / "run.py").read_text()).body:
        if (isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets]
                == ["EXPECTED_LAYERS"]):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/run.py assigns no EXPECTED_LAYERS")


def test_every_layer_the_bench_requires_records_a_call(tmp_path, capsys):
    sim = tmp_path / "simulate"
    workloads = {
        "roundtrip": [["roundtrip", "--scenario", "office", "--condition",
                       "nlos", "--drops", "3"]],
        "capacity": [["capacity", "--scenario", "office", "--condition", "los",
                      "--source", "both", "--drops", "3"]],
        "simulate-analyze": [
            ["simulate", "--scenario", "office", "--condition", "los",
             "--drops", "3", "--dump-clusters", "--dump-cir", "--out", str(sim)],
            ["analyze", "--input", str(sim / "clusters.csv"), "--recluster",
             "--max-clusters", "3"]],
    }
    expected = _expected_layers()
    assert set(expected) == set(workloads)
    tracer = _tracer()
    with tracer.installed():
        for i, (workload, runs) in enumerate(workloads.items()):
            tracer.pass_index = i
            for j, argv in enumerate(runs):
                out = [] if "--out" in argv else ["--out", str(tmp_path / f"{i}{j}")]
                assert main([*argv, *out]) == 0, argv
    capsys.readouterr()
    seen = tracer.per_pass()
    silent = {w: [n for n in expected[w] if seen[i][n]["calls"] == 0]
              for i, w in enumerate(workloads)}
    assert silent == {w: [] for w in workloads}
