"""Golden outputs: every file a small fixed command matrix writes,
checked against ``tests/golden_outputs.json``.

Each output other than ``manifest.json`` is fingerprinted by its sha256
and by compact statistics at 12 significant digits: per numeric CSV
column the count of finite cells, their sum and five order statistics
(minimum, quartiles, maximum); per numeric YAML entry its value. With
the numpy version the file records, fingerprints and sha256 must match
exactly. With any other numpy version only the fingerprints are
compared, each to within ``GOLDEN_RTOL`` of the largest magnitude among
its recorded numbers, since numpy's FFT, linear algebra and reductions
may move trailing digits.

An intended output change re-baselines the file, and its diff shows
which columns moved and by how much. Regenerate it with

    PYTHONPATH=src python3 tests/test_golden.py
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
import sys
import tempfile
from collections import Counter
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import numpy as np
import yaml

from thzgbsm.cli import main

GOLDEN = Path(__file__).with_name("golden_outputs.json")
GOLDEN_RTOL = 1e-6
SEED = "5"
SETS = [(sc, co, so) for sc in ("office", "umi") for co in ("los", "nlos")
        for so in ("measured", "3gpp")]
SIM_ANALYZED = "sim-office-los-3gpp-thz-simplified"


def _write_pdp(path: Path) -> None:
    """Four directional scans on one 2 ns delay grid, strongest at 0 deg."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["phi_rx_deg", "delay_ns", "power_linear", "distance_m"])
        for j, phi in enumerate((0.0, 90.0, 180.0, 270.0)):
            for i in range(12):
                p = 10.0 ** (-(i + 3 * j) / 6.0) if (i + j) % 4 else 1e-9
                w.writerow([phi, 2.0 * i, p, 25.0])


def commands(root: Path) -> list[list[str]]:
    """The command matrix; each command writes into its own directory."""
    cmds = []
    for sc, co, so in SETS:
        sel = ["--scenario", sc, "--condition", co, "--source", so]
        for mode in ("thz-simplified", "standard"):
            cmds.append(["simulate", *sel, "--mode", mode, "--drops", "3",
                         "--seed", SEED, "--dump-clusters", "--dump-cir",
                         "--out", str(root / f"sim-{sc}-{co}-{so}-{mode}")])
        cmds.append(["roundtrip", *sel, "--drops", "4", "--seed", SEED,
                     "--out", str(root / f"rt-{sc}-{co}-{so}")])
    for sc in ("office", "umi"):
        for co, mode in (("los", "thz-simplified"), ("nlos", "standard")):
            cmds.append(["capacity", "--scenario", sc, "--condition", co,
                         "--source", "both", "--mode", mode, "--drops", "3",
                         "--tones", "8", "--snr", "0:40:10", "--seed", SEED,
                         "--out", str(root / f"cap-{sc}-{co}")])
    clusters = str(root / SIM_ANALYZED / "clusters.csv")
    cmds.append(["analyze", "--input", clusters, "--out", str(root / "an-labels")])
    cmds.append(["analyze", "--input", clusters, "--recluster",
                 "--max-clusters", "4", "--out", str(root / "an-recluster")])
    cmds.append(["analyze", "--input", str(root / "pdp.csv"),
                 "--noise-floor", "1e-4", "--margin-db", "3",
                 "--out", str(root / "an-pdp")])
    return cmds


def run_matrix(root: Path) -> None:
    _write_pdp(root / "pdp.csv")
    for argv in commands(root):
        with redirect_stdout(StringIO()):
            rc = main(argv)
        # roundtrip exits 1 on a statistical FAIL verdict, which its
        # report records; anything else is a broken run
        if rc != 0 and not (argv[0] == "roundtrip" and rc == 1):
            raise RuntimeError(f"{' '.join(argv)} exited {rc}")


def _sig(x: float) -> float:
    return float(f"{x:.12g}")


def _csv_stats(path: Path) -> dict:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    out = {}
    for j, name in enumerate(rows[0]):
        try:
            vals = np.array([float(r[j]) for r in rows[1:] if r[j] != ""])
        except ValueError:
            continue                        # a text column: sha256 only
        v = np.sort(vals[np.isfinite(vals)])
        stats = [v.size]
        if v.size:
            idx = np.rint(np.array([0.0, 0.25, 0.5, 0.75, 1.0]) * (v.size - 1))
            stats += [_sig(v.sum())] + [_sig(x) for x in v[idx.astype(int)]]
        out[name] = stats
    return out


def _yaml_stats(path: Path) -> dict:
    out = {}

    def walk(key, node):
        if isinstance(node, dict):
            for k, v in node.items():
                walk(f"{key}.{k}" if key else str(k), v)
        elif isinstance(node, list):
            for i, v in enumerate(node):
                walk(f"{key}[{i}]", v)
        elif isinstance(node, (int, float)) and not isinstance(node, bool):
            out[key] = [_sig(node) if math.isfinite(node) else str(node)]

    walk("", yaml.safe_load(path.read_text()))
    return out


def fingerprint(root: Path) -> dict:
    """{relative path: {"sha256": ..., "stats": {column: [numbers]}}}."""
    out = {}
    for path in sorted(root.rglob("*")):
        if not path.is_file() or path.name == "manifest.json" or path.parent == root:
            continue
        rel = path.relative_to(root).as_posix()
        entry = {"sha256": hashlib.sha256(path.read_bytes()).hexdigest()}
        if path.suffix == ".csv":
            entry["stats"] = _csv_stats(path)
        elif path.suffix == ".yaml":
            entry["stats"] = _yaml_stats(path)
        out[rel] = entry
    return out


def _close(got: list, ref: list) -> bool:
    if len(got) != len(ref):
        return False
    nums = [x for x in ref if isinstance(x, float)]
    scale = max((abs(x) for x in nums), default=0.0)
    return all(g == r if not isinstance(r, float) or not isinstance(g, float)
               else abs(g - r) <= GOLDEN_RTOL * scale
               for g, r in zip(got, ref))


def compare(got: dict, ref: dict, exact: bool) -> list[str]:
    """Differences between two fingerprints, one line each."""
    problems = [f"{f}: missing" for f in sorted(set(ref) - set(got))]
    problems += [f"{f}: not in the golden file" for f in sorted(set(got) - set(ref))]
    for f in sorted(set(got) & set(ref)):
        g, r = got[f].get("stats", {}), ref[f].get("stats", {})
        for col in sorted(set(g) | set(r)):
            if col not in g or col not in r:
                problems.append(f"{f}: {col}: present on one side only")
            elif (g[col] != r[col]) if exact else not _close(g[col], r[col]):
                problems.append(f"{f}: {col}: {r[col]} -> {g[col]}")
        if exact and got[f]["sha256"] != ref[f]["sha256"]:
            problems.append(f"{f}: sha256 differs")
    return problems


def _dump(obj: dict) -> str:
    # one statistics list per line keeps a re-baseline diff readable
    text = json.dumps(obj, indent=1, sort_keys=True)
    return re.sub(r"\[\n\s*([^\[\]{}]*?)\n\s*\]",
                  lambda m: "[" + ", ".join(s.strip() for s in
                                            m.group(1).split(",\n")) + "]",
                  text) + "\n"


def test_golden_outputs(tmp_path):
    ref = json.loads(GOLDEN.read_text())
    run_matrix(tmp_path)
    # each run's manifest lists exactly the files it wrote
    for out in sorted(p for p in tmp_path.iterdir() if p.is_dir()):
        listed = json.loads((out / "manifest.json").read_text())["outputs"]
        assert listed == sorted(f.name for f in out.iterdir()
                                if f.name != "manifest.json"), out.name
    exact = np.__version__ == ref["numpy"]
    problems = compare(fingerprint(tmp_path), ref["outputs"], exact)
    # every differing file is named, however many details are cut
    per_file = Counter(p.split(": ", 1)[0] for p in problems)
    assert not problems, (
        f"{len(problems)} output differences (numpy {np.__version__}, golden "
        f"file {ref['numpy']}, {'exact' if exact else f'rtol {GOLDEN_RTOL}'}) "
        f"in {len(per_file)} files:\n"
        + "\n".join(f"{f}: {n}" for f, n in sorted(per_file.items()))
        + "\nfirst details:\n" + "\n".join(problems[:60]))


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        run_matrix(Path(tmp))
        GOLDEN.write_text(_dump({"numpy": np.__version__,
                                 "outputs": fingerprint(Path(tmp))}))
    print(f"wrote {GOLDEN}", file=sys.stderr)
