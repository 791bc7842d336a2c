import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from thzgbsm.cli import main


def _read(path):
    return path.read_bytes()


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_console_script_exists():
    out = subprocess.run([sys.executable, "-m", "thzgbsm.cli", "--version"],
                         capture_output=True, text=True)
    # argparse --version exits 0 and prints the tool name
    assert out.returncode == 0
    assert "thzgbsm" in out.stdout


def test_runtime_loads_no_scipy(tmp_path):
    """numpy and PyYAML are the whole runtime: importing the package and
    running simulate, Gaussian field included, loads no scipy module."""
    import thzgbsm
    code = ("import sys, thzgbsm, thzgbsm.cli\n"
            "rc = thzgbsm.cli.main(['simulate', '--scenario', 'office', "
            "'--condition', 'los', '--drops', '2', '--out', sys.argv[1]])\n"
            "assert rc == 0, rc\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n")
    src_root = str(Path(thzgbsm.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src_root] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path / "sim")],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert (tmp_path / "sim" / "lsp.csv").is_file()
    assert out.stdout.splitlines()[-1] == "[]"


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_bad_choice_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--scenario", "mars", "--condition", "los",
              "--out", str(tmp_path)])
    assert exc.value.code == 2


def test_missing_params_file_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--scenario", "office", "--condition", "los",
              "--params", str(tmp_path / "nope.yaml"),
              "--out", str(tmp_path / "o"), "--drops", "1"])
    assert exc.value.code == 2


def test_simulate_outputs_and_manifest(tmp_path):
    out = tmp_path / "sim"
    rc = main(["simulate", "--scenario", "office", "--condition", "los",
               "--drops", "5", "--seed", "3", "--out", str(out),
               "--dump-clusters"])
    assert rc == 0
    lsp = _rows(out / "lsp.csv")
    assert len(lsp) == 5
    assert set(lsp[0]) >= {"drop", "x_m", "y_m", "ds_s", "asa_deg",
                           "sf_db", "k_db"}
    stats = _rows(out / "drop_stats.csv")
    assert len(stats) == 5
    clusters = _rows(out / "clusters.csv")
    assert {"drop", "cluster", "ray", "delay_ns", "power",
            "aoa_deg", "zoa_deg", "aod_deg", "zod_deg"} <= set(clusters[0])
    man = json.loads((out / "manifest.json").read_text())
    assert man["command"] == "simulate"
    assert man["master_seed"] == 3
    assert {"lsp.csv", "drop_stats.csv", "clusters.csv"} <= set(man["outputs"])


def test_simulate_rerun_byte_identical(tmp_path):
    args = ["simulate", "--scenario", "umi", "--condition", "nlos",
            "--drops", "4", "--seed", "11", "--dump-clusters"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    for name in ("lsp.csv", "drop_stats.csv", "clusters.csv"):
        assert _read(a / name) == _read(b / name)


def test_simulate_worker_count_does_not_change_output(tmp_path):
    args = ["simulate", "--scenario", "office", "--condition", "nlos",
            "--drops", "6", "--seed", "2", "--dump-clusters", "--dump-cir"]
    a, b = tmp_path / "w1", tmp_path / "w3"
    assert main(args + ["--out", str(a), "--workers", "1"]) == 0
    assert main(args + ["--out", str(b), "--workers", "3"]) == 0
    for name in ("lsp.csv", "drop_stats.csv", "clusters.csv", "cir.csv"):
        assert _read(a / name) == _read(b / name)


def test_manifest_records_parsed_argv(tmp_path):
    argv = ["simulate", "--scenario", "office", "--condition", "los",
            "--drops", "1", "--seed", "8", "--out", str(tmp_path / "m")]
    assert main(argv) == 0
    man = json.loads((tmp_path / "m" / "manifest.json").read_text())
    assert man["argv"] == argv


def test_manifest_records_versions(tmp_path):
    src = tmp_path / "mpcs.csv"
    src.write_text("drop,delay_ns,power\n0,0,1\n0,5,1\n")
    assert main(["analyze", "--input", str(src),
                 "--out", str(tmp_path / "m")]) == 0
    man = json.loads((tmp_path / "m" / "manifest.json").read_text())
    assert man["versions"]["numpy"] == np.__version__
    assert set(man["versions"]) == {"python", "numpy", "pyyaml"}


def test_simulate_writes_only_inside_out(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    before = set(tmp_path.iterdir())
    out = tmp_path / "only"
    main(["simulate", "--scenario", "office", "--condition", "los",
          "--drops", "2", "--out", str(out)])
    after = set(tmp_path.iterdir())
    assert after - before == {out}


def test_simulate_custom_params_file(tmp_path):
    from thzgbsm.params import data_dir
    d = yaml.safe_load((data_dir() / "office_los_measured.yaml").read_text())
    d["clusters"]["count"] = 2
    pfile = tmp_path / "mine.yaml"
    pfile.write_text(yaml.safe_dump(d))
    out = tmp_path / "sim"
    rc = main(["simulate", "--scenario", "office", "--condition", "los",
               "--params", str(pfile), "--drops", "2", "--out", str(out),
               "--dump-clusters"])
    assert rc == 0
    clusters = _rows(out / "clusters.csv")
    per_drop = {r["cluster"] for r in clusters if r["drop"] == "0"}
    # 2 generated clusters plus the direct path
    assert len(per_drop) == 3


def test_analyze_planted_ds_fixture(tmp_path):
    """Drops with two equal taps at spacing 2*10^(mu+i*step) plant an
    exact lognormal delay-spread law."""
    rows = []
    for d in range(10):
        lg = -8.0 + 0.05 * d
        delta_ns = 2.0 * 10.0 ** (lg + 9.0)
        rows.append((d, 0.0, 1.0))
        rows.append((d, delta_ns, 1.0))
    src = tmp_path / "mpcs.csv"
    with open(src, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["drop", "delay_ns", "power"])
        w.writerows(rows)
    out = tmp_path / "rep"
    assert main(["analyze", "--input", str(src), "--out", str(out)]) == 0
    rep = yaml.safe_load((out / "report.yaml").read_text())
    want_mu = np.mean([-8.0 + 0.05 * d for d in range(10)])
    assert rep["ds_log10s"]["mu"] == pytest.approx(want_mu, abs=1e-6)


def test_analyze_simulator_output_roundtrip(tmp_path):
    out = tmp_path / "sim"
    main(["simulate", "--scenario", "office", "--condition", "los",
          "--drops", "6", "--seed", "1", "--out", str(out),
          "--dump-clusters"])
    rep_dir = tmp_path / "rep"
    rc = main(["analyze", "--input", str(out / "clusters.csv"),
               "--out", str(rep_dir)])
    assert rc == 0
    rep = yaml.safe_load((rep_dir / "report.yaml").read_text())
    assert rep["kind"] == "mpc"
    assert "ds_log10s" in rep and "asa_log10deg" in rep and "k_db" in rep
    assert "clusters" in rep and "count_median" in rep["clusters"]
    per = _rows(rep_dir / "per_drop.csv")
    assert len(per) == 6


def test_analyze_empty_input_no_partial_outputs(tmp_path):
    src = tmp_path / "empty.csv"
    src.write_text("drop,delay_ns,power\n")
    out = tmp_path / "rep"
    rc = main(["analyze", "--input", str(src), "--out", str(out)])
    assert rc == 1
    assert not out.exists()


# a negative delay_ns stays legal: the RMS delay spread is shift-invariant
@pytest.mark.parametrize(("column", "cell"),
                         [(c, v) for c in ("delay_ns", "power")
                          for v in ("", "abc", "inf", "nan")]
                         + [("power", "-1")])
def test_analyze_bad_cell_exits_1_with_message(tmp_path, capsys, column, cell):
    rows = [{"drop": 0, "delay_ns": 0.0, "power": 1.0},
            {"drop": 0, "delay_ns": 5.0, "power": 0.5},
            {"drop": 1, "delay_ns": 0.0, "power": 1.0}]
    rows[1][column] = cell
    src = tmp_path / "bad.csv"
    with open(src, "w", newline="") as fh:
        w = csv.DictWriter(fh, ["drop", "delay_ns", "power"])
        w.writeheader()
        w.writerows(rows)
    out = tmp_path / "rep"
    assert main(["analyze", "--input", str(src), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "line 3" in err and repr(column) in err
    assert not out.exists()


@pytest.mark.parametrize(("drop0", "cause"), [
    ("0,5,1,30\n", "delay spread is zero"),
    ("0,5,1,30\n0,5,0.5,40\n0,9,0,50\n", "delay spread is zero"),
    ("0,5,1,30\n0,9,0.5,30\n0,12,0,50\n", "azimuth spread is zero"),
    ("0,5,0,30\n0,9,0,40\n", "carries no power"),
], ids=["one-row", "one-delay", "one-aoa", "no-power"])
def test_analyze_zero_delay_spread_names_the_drop(tmp_path, capsys, drop0,
                                                  cause):
    src = tmp_path / "mpcs.csv"
    src.write_text("drop,delay_ns,power,aoa_deg\n" + drop0
                   + "1,0,1,0\n1,5,0.5,40\n")
    out = tmp_path / "rep"
    assert main(["analyze", "--input", str(src), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "drop 0" in err and cause in err
    assert not out.exists()


def test_analyze_recluster_counts_only_powered_rows(tmp_path):
    # drop 0: five rows, two with power; drop 1: six rows, four with power
    src = tmp_path / "mpcs.csv"
    src.write_text("drop,delay_ns,power,aoa_deg\n"
                   "0,0,1,0\n0,5,0,90\n0,9,0.5,180\n0,12,0,-90\n0,20,0,45\n"
                   "1,0,1,0\n1,5,0,90\n1,9,0.5,180\n1,12,0.2,-90\n"
                   "1,20,0,45\n1,30,0.7,60\n")
    out = tmp_path / "rep"
    assert main(["analyze", "--input", str(src), "--recluster",
                 "--out", str(out)]) == 0
    rows = _rows(out / "per_drop.csv")
    assert [r["n_mpcs"] for r in rows] == ["5", "6"]
    assert rows[0]["n_clusters"] == "1" and rows[0]["c_ds_ns_median"] == ""
    assert 2 <= int(rows[1]["n_clusters"]) <= 3


def test_simulate_oversized_grid_exits_1(tmp_path, capsys):
    assert main(["simulate", "--scenario", "office", "--condition", "los",
                 "--grid-step", "1e-4", "--drops", "3",
                 "--out", str(tmp_path / "sim")]) == 1
    err = capsys.readouterr().err
    assert "grid_step_m=0.0001" in err and "grid cells" in err


def test_analyze_max_clusters_below_two_exits_2(tmp_path):
    src = tmp_path / "mpcs.csv"
    src.write_text("drop,delay_ns,power,aoa_deg\n0,0,1,0\n0,5,1,90\n"
                   "0,9,1,180\n0,12,1,-90\n")
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--input", str(src), "--recluster",
              "--max-clusters", "1", "--out", str(tmp_path / "rep")])
    assert exc.value.code == 2
    assert not (tmp_path / "rep").exists()


def test_analyze_unknown_schema_exits_2_before_creating_out(tmp_path, capsys):
    src = tmp_path / "cir.csv"
    src.write_text("drop,tap,u,s,delay_ns,re,im\n0,0,0,0,1.5,1.0,0.0\n")
    out = tmp_path / "rep"
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--input", str(src), "--out", str(out)])
    assert exc.value.code == 2
    assert "power_linear" in capsys.readouterr().err
    assert not out.exists()


def test_analyze_pdp_schema(tmp_path):
    src = tmp_path / "pdp.csv"
    with open(src, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["phi_rx_deg", "delay_ns", "power_linear", "distance_m"])
        for phi in (0.0, 90.0, 180.0, 270.0):
            for i, p in enumerate((1.0, 0.3, 0.05)):
                scale = 1.0 if phi == 0.0 else 0.2
                w.writerow([phi, 5.0 * i, p * scale, 20.0])
    out = tmp_path / "rep"
    rc = main(["analyze", "--input", str(src), "--out", str(out)])
    assert rc == 0
    rep = yaml.safe_load((out / "report.yaml").read_text())
    assert rep["kind"] == "pdp"
    assert rep["ds_ns"] > 0
    assert "asa_deg" in rep
    assert "pl_db" in rep


def test_roundtrip_cli_pass_and_exit_codes(tmp_path, capsys):
    out = tmp_path / "rt"
    rc = main(["roundtrip", "--scenario", "office", "--condition", "los",
               "--drops", "40", "--seed", "0", "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "PASS" in text
    rep = yaml.safe_load((out / "report.yaml").read_text())
    assert rep["status"] == "PASS"
    assert {c["statistic"] for c in rep["checks"]} == {"ds", "asa", "k"}
    assert (out / "roundtrip_drops.csv").exists()


def test_roundtrip_report_writes_no_negative_zero(tmp_path):
    # the k-factor medians agree here, and their difference rounds to zero
    # from below
    out = tmp_path / "rt"
    main(["roundtrip", "--scenario", "office", "--condition", "los",
          "--drops", "10", "--seed", "0", "--out", str(out)])
    rep = yaml.safe_load((out / "report.yaml").read_text())
    k, = (c for c in rep["checks"] if c["statistic"] == "k")
    assert k["drawn_median"] == k["extracted_median"]
    assert k["delta"] == 0.0 and not np.signbit(k["delta"])


def test_roundtrip_zero_tolerance_fails(tmp_path):
    out = tmp_path / "rt0"
    rc = main(["roundtrip", "--scenario", "umi", "--condition", "los",
               "--drops", "30", "--seed", "0", "--tol-log10", "0",
               "--out", str(out)])
    assert rc == 1


def test_capacity_single_snr_point(tmp_path):
    out = tmp_path / "cap"
    rc = main(["capacity", "--scenario", "office", "--condition", "los",
               "--source", "measured", "--drops", "3", "--snr", "30",
               "--out", str(out)])
    assert rc == 0
    rows = _rows(out / "capacity.csv")
    assert len(rows) == 1
    assert rows[0]["source"] == "measured"
    assert float(rows[0]["snr_db"]) == 30.0
    assert (out / "capacity.svg").exists()


def test_capacity_both_sources_report(tmp_path):
    out = tmp_path / "cap2"
    rc = main(["capacity", "--scenario", "office", "--condition", "los",
               "--drops", "4", "--snr", "0,30", "--out", str(out)])
    assert rc == 0
    rows = _rows(out / "capacity.csv")
    assert {r["source"] for r in rows} == {"measured", "3gpp"}
    assert len(rows) == 4
    rep = yaml.safe_load((out / "report.yaml").read_text())
    assert "gap_3gpp_minus_measured_at_30db" in rep
    svg = (out / "capacity.svg").read_text()
    assert "measured" in svg and "3gpp" in svg


def test_capacity_bad_snr_exits_2(tmp_path):
    for snr in ("bogus", "nan", "0,inf", "0:inf:5"):
        with pytest.raises(SystemExit) as exc:
            main(["capacity", "--scenario", "umi", "--snr", snr,
                  "--out", str(tmp_path / "x")])
        assert exc.value.code == 2
        assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("argv", [
    ["analyze", "--input", "in.csv", "--recluster", "--delay-weight", "nan"],
    ["analyze", "--input", "in.csv", "--noise-floor", "inf"],
    ["analyze", "--input", "in.csv", "--margin-db", "nan"],
    ["capacity", "--scenario", "umi", "--bandwidth-hz", "nan"],
    ["capacity", "--scenario", "umi", "--bandwidth-hz", "inf"],
    ["capacity", "--scenario", "umi", "--los-fraction", "nan"],
    ["simulate", "--scenario", "office", "--condition", "los",
     "--grid-step", "nan"],
    ["roundtrip", "--scenario", "office", "--condition", "los",
     "--tol-log10", "nan"],
    ["roundtrip", "--scenario", "office", "--condition", "los",
     "--tol-k-db=-inf"],
])
def test_non_finite_float_option_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(out)])
    assert exc.value.code == 2
    assert "not a finite number" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["simulate", "--scenario", "office", "--condition", "los", "--drops", "0"],
    ["roundtrip", "--scenario", "office", "--condition", "los", "--drops", "0"],
    ["simulate", "--scenario", "office", "--condition", "los", "--workers", "0"],
    ["roundtrip", "--scenario", "umi", "--condition", "los", "--workers", "-3"],
    ["simulate", "--scenario", "office", "--condition", "los",
     "--grid-step", "0"],
    ["simulate", "--scenario", "office", "--condition", "los",
     "--grid-step", "5"],
    ["capacity", "--scenario", "umi", "--los-fraction", "1.5"],
    ["capacity", "--scenario", "umi", "--condition", "nlos",
     "--los-fraction", "0.5"],
], ids=["simulate-drops", "roundtrip-drops", "simulate-workers-0",
        "roundtrip-workers-negative", "grid-step-zero",
        "grid-step-above-half-corr-dist", "los-fraction-range",
        "los-fraction-nlos"])
def test_bad_argument_exits_2_before_creating_out(tmp_path, argv):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


@pytest.mark.parametrize("tones", ["0", "-3"])
def test_capacity_tones_below_one_exits_2(tmp_path, tones):
    out = tmp_path / "cap"
    with pytest.raises(SystemExit) as exc:
        main(["capacity", "--scenario", "office", "--source", "measured",
              "--drops", "2", "--tones", tones, "--out", str(out)])
    assert exc.value.code == 2
    assert not (out / "capacity.csv").exists()


def test_capacity_rerun_byte_identical(tmp_path):
    args = ["capacity", "--scenario", "umi", "--condition", "los",
            "--source", "measured", "--drops", "3", "--snr", "10,20",
            "--seed", "4"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b), "--workers", "2"]) == 0
    assert _read(a / "capacity.csv") == _read(b / "capacity.csv")
    assert _read(a / "capacity.svg") == _read(b / "capacity.svg")


_DELETE = object()
# (where, new value) edits of office_los_measured, or raw file text, with
# the text the usage error must carry
_BAD_PARAMS = {
    "string-sigma": ((("ds_log10s", "sigma"), "x"), "ds_log10s.sigma"),
    "string-count": ((("clusters", "count"), "four"),
                     "clusters.count: expected an integer, got 'four'"),
    "string-r-tau": ((("supplemental", "r_tau"), "x"), "supplemental.r_tau"),
    "string-corr-dist": ((("corr_dist_m", "ds"), "x"), "corr_dist_m.ds"),
    "float-count": ((("clusters", "count"), 4.5), "clusters.count"),
    "float-rays": ((("clusters", "rays"), 3.0), "clusters.rays"),
    "bool-count": ((("clusters", "count"), True), "clusters.count"),
    "list-xcorr": ((("xcorr",), [0.1, 0.2]), "xcorr: expected a mapping"),
    "scalar-count-log10": ((("clusters", "count_log10"), 3),
                           "clusters.count_log10: expected a mapping"),
    "unknown-supplemental-key": ((("supplemental", "extra"), 1),
                                 "supplemental: unknown key 'extra'"),
    "unknown-geometry-key": ((("geometry", "extra"), 1),
                             "geometry: unknown key 'extra'"),
    "unknown-top-level-key": ((("extra",), 1), "top level: unknown key 'extra'"),
    "inf-corr-dist": ((("corr_dist_m", "ds"), float("inf")), "corr_dist_m.ds"),
    "nan-zsa-mu": ((("supplemental", "zsa_log10deg", "mu"), float("nan")),
                   "supplemental.zsa_log10deg.mu"),
    "int-past-float-range": ((("geometry", "bs_height_m"), 10**400),
                             "geometry.bs_height_m: expected a finite number"),
    "string-ple": ((("pathloss", "ple"), "x"), "pathloss.ple"),
    "scalar-pathloss": ((("pathloss",), "ci"), "pathloss: expected a mapping"),
    "three-element-annulus": ((("geometry", "annulus_m"), [1.0, 2.0, 3.0]),
                              "geometry.annulus_m: expected a list of 2"),
    "string-annulus-max": ((("geometry", "annulus_m", 1), "far"),
                           "geometry.annulus_m[1]"),
    "null-xcorr-pair": ((("xcorr", "ds_k"), None), "xcorr.ds_k"),
    "missing-supplemental-key": ((("supplemental", "c_zsd_deg"), _DELETE),
                                 "supplemental: missing key 'c_zsd_deg'"),
    "yaml-syntax-error": ("scenario: office\n  condition: [los\n", "not valid YAML"),
    "not-utf8": (b"scenario: \xff\n", "not valid YAML"),
}


@pytest.mark.parametrize("case", list(_BAD_PARAMS.values()), ids=list(_BAD_PARAMS))
def test_malformed_params_file_exits_2_naming_the_entry(tmp_path, capsys, case):
    from thzgbsm.params import data_dir
    content, expected = case
    pfile = tmp_path / "bad.yaml"
    if isinstance(content, bytes):
        pfile.write_bytes(content)
    elif isinstance(content, str):
        pfile.write_text(content)
    else:
        (*where, key), value = content
        d = yaml.safe_load((data_dir() / "office_los_measured.yaml").read_text())
        node = d
        for k in where:
            node = node[k]
        if value is _DELETE:
            del node[key]
        else:
            node[key] = value
        pfile.write_text(yaml.safe_dump(d))
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["roundtrip", "--scenario", "office", "--condition", "los",
              "--params", str(pfile), "--drops", "1", "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert expected in err and str(pfile) in err
    assert not out.exists()


def test_params_list_with_a_set_twice_exits_2_naming_both_entries(
        tmp_path, capsys):
    from thzgbsm.params import data_dir
    d = yaml.safe_load((data_dir() / "office_los_measured.yaml").read_text())
    pfile = tmp_path / "twice.yaml"
    pfile.write_text(yaml.safe_dump([d, d]))
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["roundtrip", "--scenario", "office", "--condition", "los",
              "--params", str(pfile), "--drops", "1", "--out", str(out)])
    assert exc.value.code == 2
    assert (f"{pfile}: entries 0 and 1 are both office_los_measured"
            in capsys.readouterr().err)
    assert not out.exists()
