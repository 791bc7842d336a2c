"""Fresh-process probe: set-up time and peak memory of one workload.

Run by ``bench/run.py``, one interpreter per sample::

    python3 bench/child.py --workload roundtrip --seed 7 --out DIR [--one-pass]

It imports ``thzgbsm`` from the checkout's ``src``, loads the workload's
parameter sets, runs the lazy set-up the workload triggers, and prints one
JSON line with the time each part took. The parent times the whole span
from starting the interpreter to that line. With ``--one-pass`` the probe
then runs one pass of the workload and prints a second line with the
process's peak resident memory.
"""

import argparse
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--one-pass", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import thzgbsm
    from thzgbsm import cli
    import_s = perf_counter() - t0
    if Path(thzgbsm.__file__).resolve().parent != SRC / "thzgbsm":
        raise SystemExit(f"imported thzgbsm from {thzgbsm.__file__}, not {SRC}")

    import workloads
    parts = workloads.prepare(args.workload)
    print(json.dumps({"import_s": import_s, **parts}), flush=True)

    if args.one_pass:
        seed = workloads.pass_seed(args.seed, 0)
        for inv in workloads.pass_invocations(args.workload, seed, Path(args.out)):
            workloads.run_invocation(cli.main, inv)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        print(json.dumps({"peak_rss_mb": peak_kb / 1024.0}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
