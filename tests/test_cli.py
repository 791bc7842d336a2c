import argparse
import csv
import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

import thzgbsm
from thzgbsm import analysis, capacity, cli, clusters
from thzgbsm.cli import (_floats, _fmt, _labels, _read_csv, _write_csv,
                         build_parser, main)
from thzgbsm.clusters import build_drop
from thzgbsm.params import load_params


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


def _python(code, *argv):
    """``code`` run in a fresh interpreter that imports this package."""
    src_root = str(Path(thzgbsm.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src_root] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    out = subprocess.run([sys.executable, "-c", code, *argv],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()[-1]


def test_runtime_loads_no_scipy(tmp_path):
    """numpy and PyYAML are the whole runtime: importing the package and
    running simulate, Gaussian field included, loads no scipy module."""
    code = ("import sys, thzgbsm, thzgbsm.cli\n"
            "rc = thzgbsm.cli.main(['simulate', '--scenario', 'office', "
            "'--condition', 'los', '--drops', '2', '--out', sys.argv[1]])\n"
            "assert rc == 0, rc\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n")
    assert _python(code, str(tmp_path / "sim")) == "[]"
    assert (tmp_path / "sim" / "lsp.csv").is_file()


def test_cli_imports_no_process_pool():
    """Drops run in one process, so importing the CLI loads no process
    pool machinery and pays none of its import cost."""
    code = ("import sys, thzgbsm.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] in "
            "('multiprocessing', 'concurrent')))\n")
    assert _python(code) == "[]"


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
    assert man["outputs"] == ["clusters.csv", "drop_stats.csv", "lsp.csv"]
    # without the dump options only the always-written tables appear
    bare = tmp_path / "bare"
    assert main(["simulate", "--scenario", "office", "--condition", "los",
                 "--drops", "2", "--out", str(bare)]) == 0
    man = json.loads((bare / "manifest.json").read_text())
    assert man["outputs"] == ["drop_stats.csv", "lsp.csv"]
    assert {f.name for f in bare.iterdir()} == {*man["outputs"], "manifest.json"}


def test_simulate_rerun_byte_identical(tmp_path):
    args = ["simulate", "--scenario", "umi", "--condition", "nlos",
            "--drops", "4", "--seed", "11", "--dump-clusters", "--dump-cir"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
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


@pytest.mark.parametrize("selection", [("office", "los", "measured"),
                                       ("umi", "nlos", "3gpp")],
                         ids=["office_los_measured", "umi_nlos_3gpp"])
def test_analyze_of_a_dump_reproduces_simulate_drop_stats(tmp_path, selection):
    # one estimator behind both files: they agree to the CSVs' 12 digits,
    # K on NLoS drops included
    sc, co, so = selection
    sim, rep = tmp_path / "sim", tmp_path / "rep"
    assert main(["simulate", "--scenario", sc, "--condition", co,
                 "--source", so, "--drops", "3", "--seed", "2",
                 "--dump-clusters", "--out", str(sim)]) == 0
    assert main(["analyze", "--input", str(sim / "clusters.csv"),
                 "--out", str(rep)]) == 0
    want, got = _rows(sim / "drop_stats.csv"), _rows(rep / "per_drop.csv")
    assert [r["drop"] for r in got] == [r["drop"] for r in want] == ["0", "1", "2"]
    for w, g in zip(want, got):
        for key in ("ds_s", "asa_deg", "k_db"):
            assert float(g[key]) == pytest.approx(float(w[key]), rel=1e-9), (
                w["drop"], key)


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


# float(), int() and Decimal() read 1_0 as 10 and the Arabic-Indic digit
# three as 3; neither is a number in a CSV file
@pytest.mark.parametrize(("column", "cell"), [
    ("power", "1_0"), ("drop", "1_0"), ("delay_ns", "\u0663")])
def test_analyze_underscored_or_non_ascii_number_exits_1(tmp_path, capsys,
                                                         column, cell):
    rows = [{"drop": 0, "delay_ns": 0.0, "power": 1.0},
            {"drop": 0, "delay_ns": 5.0, "power": 0.5},
            {"drop": 1, "delay_ns": 0.0, "power": 1.0}]
    rows[1][column] = cell
    src = tmp_path / "bad.csv"
    with open(src, "w", newline="", encoding="utf-8") as fh:
        w = csv.DictWriter(fh, ["drop", "delay_ns", "power"])
        w.writeheader()
        w.writerows(rows)
    out = tmp_path / "rep"
    assert main(["analyze", "--input", str(src), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"thzgbsm analyze: input line 3: column {column!r} holds {cell!r}, "
        "not a finite number\n")
    assert not out.exists()


# int() would truncate the cell and merge drop 0.5 into drop 0
@pytest.mark.parametrize("column", ["drop", "cluster"])
def test_analyze_non_integer_label_exits_1_with_message(tmp_path, capsys,
                                                        column):
    rows = [{"drop": 0, "cluster": 1, "delay_ns": 0.0, "power": 1.0},
            {"drop": 0, "cluster": 2, "delay_ns": 5.0, "power": 0.5},
            {"drop": 1, "cluster": 1, "delay_ns": 0.0, "power": 1.0},
            {"drop": 1, "cluster": 2, "delay_ns": 7.0, "power": 0.3}]
    rows[1][column] = 0.5
    src = tmp_path / "mpcs.csv"
    with open(src, "w", newline="") as fh:
        w = csv.DictWriter(fh, ["drop", "cluster", "delay_ns", "power"])
        w.writeheader()
        w.writerows(rows)
    out = tmp_path / "rep"
    assert main(["analyze", "--input", str(src), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "line 3" in err and repr(column) in err and "not an integer" in err
    assert not out.exists()


def test_analyze_reads_a_byte_order_mark_as_nothing(tmp_path):
    # spreadsheet exports often start with one; it must not rename the
    # first column and so merge every drop into one
    text = ("drop,delay_ns,power\n0,0,1\n0,5,0.5\n0,9,0.2\n"
            "1,0,1\n1,7,0.3\n1,8,0.1\n")
    outs = []
    for name, data in (("plain", text.encode()),
                       ("bom", b"\xef\xbb\xbf" + text.encode())):
        src = tmp_path / f"{name}.csv"
        src.write_bytes(data)
        outs.append(tmp_path / f"rep-{name}")
        assert main(["analyze", "--input", str(src), "--out", str(outs[-1])]) == 0
    plain, bom = outs
    assert len(_rows(bom / "per_drop.csv")) == 2
    assert _read(bom / "per_drop.csv") == _read(plain / "per_drop.csv")
    rep = [yaml.safe_load((o / "report.yaml").read_text()) for o in outs]
    assert rep[0].pop("input") == "plain.csv" and rep[1].pop("input") == "bom.csv"
    assert rep[0] == rep[1]


def test_analyze_non_utf8_input_exits_1_naming_the_byte(tmp_path, capsys):
    # a Latin-1 export: the é of "café" is the single byte 0xe9
    src = tmp_path / "latin1.csv"
    src.write_bytes("drop,delay_ns,power,note\n0,0,1,a\n0,5,0.5,café\n"
                    .encode("latin-1"))
    out = tmp_path / "rep"
    assert main(["analyze", "--input", str(src), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"thzgbsm analyze: --input: {src} is not UTF-8: byte 0xe9 at offset "
        "44 (input line 3)\n")
    assert not out.exists()


@pytest.mark.parametrize(("text", "message"), [
    ("drop,delay_ns,power,power\n0,0,1,2\n0,5,0.5,0.1\n",
     "input line 1: column 'power' is named twice in the header\n"),
    ("drop,delay_ns,power,aoa_deg\n0,0,1,0\n0,5,0.5,10\n0,0,1,0,99\n",
     "input line 4: 5 cells under a header of 4 columns\n"),
    # csv's field limit is 131,072 characters
    ("drop,delay_ns,power\n0,0,1\n0," + "5" * 200_000 + ",0.5\n",
     "input line 3: field larger than field limit (131072)\n"),
], ids=["duplicate-column", "long-row", "oversized-cell"])
def test_analyze_malformed_shape_exits_1_before_out(tmp_path, capsys, text,
                                                    message):
    src = tmp_path / "mpcs.csv"
    src.write_text(text)
    out = tmp_path / "rep"
    assert main(["analyze", "--input", str(src), "--out", str(out)]) == 1
    assert capsys.readouterr().err.endswith(message)
    assert not out.exists()


def _dict_reader_table(path):
    """(lines, columns) as a csv.DictReader reads the file, one dict per
    row: the oracle for _read_csv's one transpose."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.DictReader(fh)
        rows = [(reader.line_num, row) for row in reader]
        names = reader.fieldnames
    return [line for line, _ in rows], {k: [row[k] for _, row in rows]
                                        for k in names}


@pytest.mark.parametrize("data", [
    b"\xef\xbb\xbfdrop,delay_ns,power\n0,0,1\n0,5,0.5\n",
    b"drop,delay_ns,power\n\n0,0,1\n\n\n0,5,0.5\n\n",
    b"drop,delay_ns,power,aoa_deg\n0,0,1,10\n0,5\n1,,3,4\n1\n",
    b'note,delay_ns,power\n"a,b",0,1\n"two\nlines",5,0.5\n"q ""x""",7,"0,2"\n',
    b"drop,delay_ns,power\r\n0,0,1\r\n\r\n0,5,0.5\r\n",
    b"drop,delay_ns,power\n",
], ids=["bom", "blank-lines", "short-rows", "quoted", "crlf", "header-only"])
def test_read_csv_reads_what_a_dict_reader_reads(tmp_path, data):
    src = tmp_path / "in.csv"
    src.write_bytes(data)
    assert _read_csv(build_parser(), src) == _dict_reader_table(src)


@pytest.mark.parametrize(("cell", "message"), [
    ("", "input line 3: column 'c' is empty"),
    ("abc", "input line 3: column 'c' holds 'abc', not a finite number"),
    ("nan", "input line 3: column 'c' holds 'nan', not a finite number"),
    ("1_0", "input line 3: column 'c' holds '1_0', not a finite number"),
    ("\u0663", "input line 3: column 'c' holds '\u0663', not a finite number"),
])
def test_floats_name_a_bad_cell(cell, message):
    table = ([2, 3], {"c": ["0", cell]})
    with pytest.raises(ValueError) as exc:
        _floats(table, "c", None)
    assert str(exc.value) == message
    if cell:        # an empty label is 0
        with pytest.raises(ValueError) as exc:
            _labels(table, "c")
        assert str(exc.value) == message


def test_floats_and_labels_parse_whole_columns_as_cell_by_cell():
    cells = ["1.0", "9007199254740993", " 7 ", "-0", "", "0" * 5000 + "1"]
    table = (list(range(2, 8)), {"c": cells})
    x = _floats(table, "c", 90.0)
    assert x.tolist() == [1.0, 9007199254740992.0, 7.0, -0.0, 90.0, 1.0]
    assert np.signbit(x[3])
    labels = _labels(table, "c")
    assert labels.dtype == object
    assert labels.tolist() == [1, 9007199254740993, 7, 0, 0, 1]
    assert all(type(v) is int for v in labels)
    # whole columns of plain numbers take the one-pass parse
    table = ([2, 3], {"c": ["3", "9007199254740993"]})
    assert _floats(table, "c", None).tolist() == [3.0, 9007199254740992.0]
    assert _labels(table, "c").tolist() == [3, 9007199254740993]
    # an absent column is all empty cells
    assert _floats(table, "d", 90.0).tolist() == [90.0, 90.0]
    assert _labels(table, "d").tolist() == [0, 0]


def test_analyze_keeps_labels_beyond_int64_apart(tmp_path):
    src = tmp_path / "mpcs.csv"
    src.write_text("drop,delay_ns,power\n1e19,0,1\n1e19,5,0.5\n"
                   "2e19,0,1\n2e19,7,0.3\n")
    out = tmp_path / "rep"
    assert main(["analyze", "--input", str(src), "--out", str(out)]) == 0
    assert [r["drop"] for r in _rows(out / "per_drop.csv")] == [
        "10000000000000000000", "20000000000000000000"]


# float() maps both labels to 2**53 and would merge the two drops
def test_analyze_keeps_labels_beyond_2_pow_53_apart(tmp_path):
    src = tmp_path / "mpcs.csv"
    src.write_text("drop,delay_ns,power\n9007199254740993,0,1\n"
                   "9007199254740993,5,0.5\n9007199254740992,0,1\n"
                   "9007199254740992,7,0.3\n")
    out = tmp_path / "rep"
    assert main(["analyze", "--input", str(src), "--out", str(out)]) == 0
    assert [(r["drop"], r["n_mpcs"]) for r in _rows(out / "per_drop.csv")] == [
        ("9007199254740992", "2"), ("9007199254740993", "2")]


def test_analyze_without_azimuths_reports_no_cluster_asa(tmp_path):
    src = tmp_path / "mpcs.csv"
    src.write_text("drop,delay_ns,power,cluster\n0,0,1,1\n0,5,0.5,1\n"
                   "0,9,0.2,2\n0,12,0.1,2\n1,0,1,1\n1,4,0.3,2\n")
    out = tmp_path / "rep"
    assert main(["analyze", "--input", str(src), "--out", str(out)]) == 0
    rep = yaml.safe_load((out / "report.yaml").read_text())
    assert "c_asa_deg_median" not in rep["clusters"]
    assert "c_ds_ns_median" in rep["clusters"]
    for row in _rows(out / "per_drop.csv"):
        assert row["asa_deg"] == row["c_asa_deg_median"] == ""
        assert row["c_ds_ns_median"] != ""


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


@pytest.mark.parametrize(("rows", "message"), [
    ("0,0,1\n0,5,1\n0,1e200,1\n",
     "drop 0: its delay_ns cells lie too far apart, so its delay spread "
     "overflows"),
    ("0,0,1e308\n0,5,1e308\n",
     "drop 0: its power cells sum to more than the largest float, so its "
     "statistics overflow"),
], ids=["delay", "power"])
def test_analyze_overflowing_cells_exit_1_naming_drop_and_column(
        tmp_path, capsys, rows, message):
    """Finite cells whose spread or power sum overflows a float stop the
    run, without a warning, instead of writing inf or NaN statistics."""
    src = tmp_path / "mpcs.csv"
    src.write_text("drop,delay_ns,power\n" + rows + "1,0,1\n1,5,0.5\n")
    out = tmp_path / "rep"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["analyze", "--input", str(src), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"thzgbsm analyze: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(("rows", "message"), [
    ("0,1\n1e300,0.5\n",
     "the profile's delay_ns cells lie too far apart, so its delay spread "
     "overflows"),
    ("0,1e308\n5,1e308\n",
     "the profile's power_linear cells sum to more than the largest float, "
     "so its statistics overflow"),
], ids=["delay", "power"])
def test_analyze_pdp_overflowing_cells_exit_1_naming_the_column(
        tmp_path, capsys, rows, message):
    """A power-delay profile whose finite cells overflow its statistics
    stops the run, without a warning, instead of writing inf or 0."""
    src = tmp_path / "pdp.csv"
    src.write_text("delay_ns,power_linear\n" + rows)
    out = tmp_path / "rep"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["analyze", "--input", str(src), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"thzgbsm analyze: {message}\n"
    assert not out.exists()


def test_analyze_writes_a_finite_k_where_the_sum_rounds_the_rest_away(
        tmp_path):
    src = tmp_path / "mpcs.csv"
    src.write_text("drop,delay_ns,power\n0,0,1e-300\n0,5,1e300\n0,9,1\n"
                   "0,12,1e-320\n")
    out = tmp_path / "rep"
    assert main(["analyze", "--input", str(src), "--out", str(out)]) == 0
    row, = _rows(out / "per_drop.csv")
    assert float(row["k_db"]) == pytest.approx(3000.0, rel=1e-12)


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
    # a field's step is a quarter of the set's smallest correlation
    # distance, so a set with millimetre distances needs billions of cells
    from thzgbsm.params import data_dir
    d = yaml.safe_load((data_dir() / "office_los_measured.yaml").read_text())
    d["corr_dist_m"] = dict.fromkeys(d["corr_dist_m"], 1e-3)
    pfile = tmp_path / "fine.yaml"
    pfile.write_text(yaml.safe_dump(d))
    assert main(["simulate", "--scenario", "office", "--condition", "los",
                 "--params", str(pfile), "--drops", "3",
                 "--out", str(tmp_path / "sim")]) == 1
    err = capsys.readouterr().err
    assert "correlation distance 0.001 m" in err
    assert "grid_step_m=0.00025" in err and "grid cells" in err
    assert not (tmp_path / "sim").exists()


def test_simulate_has_no_grid_step_option(tmp_path, capsys):
    out = tmp_path / "X"
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--scenario", "office", "--condition", "los",
              "--grid-step", "0.5", "--out", str(out)])
    assert exc.value.code == 2
    assert "--grid-step" in capsys.readouterr().err
    assert not out.exists()


def test_analyze_unknown_schema_exits_2_before_creating_out(tmp_path, capsys):
    src = tmp_path / "cir.csv"
    src.write_text("drop,tap,u,s,delay_ns,re,im\n0,0,0,0,1.5,1.0,0.0\n")
    out = tmp_path / "rep"
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--input", str(src), "--out", str(out)])
    assert exc.value.code == 2
    assert "power_linear" in capsys.readouterr().err
    assert not out.exists()


def test_analyze_labeled_cluster_without_power_exits_1_naming_it(
        tmp_path, capsys):
    src = tmp_path / "mpcs.csv"
    src.write_text("drop,cluster,delay_ns,power,aoa_deg\n"
                   "0,1,0,1,0\n0,1,5,0.5,30\n0,2,9,0,60\n0,2,12,0,90\n"
                   "1,1,0,1,0\n1,1,4,0.3,20\n1,2,8,0.6,40\n")
    out = tmp_path / "rep"
    assert main(["analyze", "--input", str(src), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "thzgbsm analyze: drop 0: all power cells of its cluster 2 are 0, "
        "so it carries no power\n")
    assert not out.exists()


def _spy_matches(monkeypatch):
    """The rows each spread match runs, spied where match_planes looks
    the matches up: one (bearing, target) per plane
    matched, a stacked call giving one per drop and plane it holds."""
    rows = {"rescale_azimuth": [], "rescale_zenith": []}
    for name in rows:
        def counted(ang, pw, w, bearing, target, match=getattr(clusters, name),
                    name=name):
            rows[name] += zip(np.ravel(bearing), np.ravel(target))
            return match(ang, pw, w, bearing, target)
        monkeypatch.setattr(clusters, name, counted)
    return rows


def _matched_once(rows, per_drop, drops):
    """Each drop's planes were matched once: per_drop rows per drop, no
    row twice (every plane has its own drawn bearing and target)."""
    return len(rows) == per_drop * drops and len(set(rows)) == len(rows)


@pytest.mark.parametrize(("argv", "per_plane"), [
    (["roundtrip"], (1, 0)),
    (["simulate"], (1, 0)),
    (["simulate", "--dump-clusters"], (2, 2)),
    (["simulate", "--dump-cir"], (2, 2)),
    (["simulate", "--dump-clusters", "--dump-cir"], (2, 2)),
], ids=["roundtrip", "simulate", "simulate-clusters", "simulate-cir",
        "simulate-clusters-cir"])
def test_commands_match_only_the_planes_they_read(tmp_path, monkeypatch,
                                                   argv, per_plane):
    # roundtrip and a simulate without dumps read the arrival azimuths
    # alone; a dump reads all four planes, matched once however many
    # dumps read them
    rows = _spy_matches(monkeypatch)
    assert main([*argv, "--scenario", "office", "--condition", "los",
                 "--drops", "3", "--out", str(tmp_path / "run")]) == 0
    azimuth, zenith = per_plane
    assert _matched_once(rows["rescale_azimuth"], azimuth, 3)
    assert _matched_once(rows["rescale_zenith"], zenith, 3)


def test_capacity_matches_every_plane_after_each_build(tmp_path, monkeypatch):
    # every plane is matched between the builds and the channels: none
    # inside build_drop or assemble_cir
    rows = _spy_matches(monkeypatch)
    matched_in = {"build_drop": [], "assemble_cir": []}
    for name, flags in matched_in.items():
        def watched(*args, call=getattr(capacity, name), flags=flags, **kwargs):
            before = {k: len(v) for k, v in rows.items()}
            result = call(*args, **kwargs)
            flags.append({k: len(v) for k, v in rows.items()} != before)
            return result
        monkeypatch.setattr(capacity, name, watched)
    assert main(["capacity", "--scenario", "office", "--condition", "los",
                 "--source", "measured", "--drops", "2",
                 "--out", str(tmp_path / "cap")]) == 0
    assert _matched_once(rows["rescale_azimuth"], 2, 2)
    assert _matched_once(rows["rescale_zenith"], 2, 2)
    assert matched_in == {"build_drop": [False, False],
                          "assemble_cir": [False, False]}


@pytest.mark.parametrize("dumps", [[], ["--dump-clusters", "--dump-cir"]],
                         ids=["no-dumps", "dumps"])
def test_simulate_extracts_every_drop_in_one_call(tmp_path, monkeypatch, dumps):
    """simulate re-extracts the statistics of all its drops with one
    extract_drop_stats call over their stacked columns, looked up in cli,
    as roundtrip does."""
    extract, shapes = cli.extract_drop_stats, []

    def counted(*args):
        shapes.append(np.shape(args[0]))
        return extract(*args)
    monkeypatch.setattr(cli, "extract_drop_stats", counted)
    assert main(["simulate", "--scenario", "office", "--condition", "los",
                 "--drops", "3", *dumps, "--out", str(tmp_path / "sim")]) == 0
    p = load_params("office", "los", "measured")    # with a direct path
    assert shapes == [(3, p.clusters.count * p.clusters.rays + 1)]


@pytest.mark.parametrize("mode", ["thz-simplified", "standard"])
def test_simulate_each_dump_alone_writes_what_both_dumps_write(tmp_path, mode):
    def run(name, *dumps):
        out = tmp_path / name
        assert main(["simulate", "--scenario", "umi", "--condition", "los",
                     "--source", "3gpp", "--mode", mode, "--drops", "3",
                     "--seed", "4", *dumps, "--out", str(out)]) == 0
        return {f.name: f.read_bytes() for f in out.iterdir()
                if f.name != "manifest.json"}
    both = run("both", "--dump-clusters", "--dump-cir")
    for name, dumps, files in [
            ("clusters", ["--dump-clusters"], ["clusters.csv"]),
            ("cir", ["--dump-cir"], ["cir.csv"]), ("none", [], [])]:
        assert run(name, *dumps) == {
            k: both[k] for k in ["lsp.csv", "drop_stats.csv", *files]}


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


# the report used to echo whichever distance the first row held
@pytest.mark.parametrize(("distances", "line", "cell"),
                         [((10, 10, 400), 4, "400"), ((400, 10, 10), 3, "10")],
                         ids=["last-differs", "first-differs"])
def test_analyze_pdp_distances_that_disagree_exit_1(tmp_path, capsys,
                                                    distances, line, cell):
    src = tmp_path / "pdp.csv"
    src.write_text("delay_ns,power_linear,distance_m\n" + "".join(
        f"{5 * i},{p},{d}\n" for i, (p, d) in enumerate(zip((1, 0.3, 0.1),
                                                            distances))))
    out = tmp_path / "rep"
    assert main(["analyze", "--input", str(src), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"input line {line}: column 'distance_m' holds {cell!r}" in err
    assert not out.exists()


@pytest.mark.parametrize("distance", ["-5", "0"])
def test_analyze_pdp_distance_not_positive_exits_1(tmp_path, capsys,
                                                  distance):
    src = tmp_path / "pdp.csv"
    src.write_text("delay_ns,power_linear,distance_m\n"
                   f"0,1,{distance}\n5,0.5,{distance}\n")
    out = tmp_path / "rep"
    assert main(["analyze", "--input", str(src), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"thzgbsm analyze: input line 2: column 'distance_m' holds "
        f"{distance!r}, not a positive distance\n")
    assert not out.exists()


def test_analyze_noise_floor_above_every_bin_names_the_option(tmp_path,
                                                               capsys):
    src = tmp_path / "pdp.csv"
    src.write_text("delay_ns,power_linear\n0,1e-3\n5,1e-4\n")
    out = tmp_path / "rep"
    assert main(["analyze", "--input", str(src), "--noise-floor", "1",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "--noise-floor" in err and "cuts at 3.98107" in err
    assert "Warning" not in err
    assert not out.exists()


@pytest.mark.parametrize(("text", "message"), [
    ("delay_ns,power_linear\n0,1\n5,0.5\n5.0,0.2\n",
     "input line 4: delay_ns '5.0' repeats input line 3\n"),
    ("phi_rx_deg,delay_ns,power_linear\n0,0,1\n90,0,0.5\n0,5,0.3\n"
     "90,5,0.2\n90,0,0.1\n",
     "input line 6: delay_ns '0' repeats input line 3 in direction "
     "phi_rx_deg 90\n"),
], ids=["one-direction", "two-directions"])
def test_analyze_pdp_repeated_delay_names_line_and_direction(tmp_path, capsys,
                                                             text, message):
    src = tmp_path / "pdp.csv"
    src.write_text(text)
    out = tmp_path / "rep"
    assert main(["analyze", "--input", str(src), "--out", str(out)]) == 1
    assert capsys.readouterr().err.endswith(message)
    assert not out.exists()


@pytest.mark.parametrize("recluster", [False, True])
def test_analyze_writes_what_the_library_returns(tmp_path, recluster):
    """analysis.analyze_mpcs on arrays gives the report and per-drop
    columns that analyze writes for the same rows."""
    params = load_params("office", "los", "measured")
    drops = [build_drop(params, np.random.default_rng(s)).mpc_arrays()
             for s in range(4)]
    cols = {k: np.concatenate([d[k] for d in drops]) for k in drops[0]}
    cols["drop"] = np.repeat(np.arange(4), [d["power"].size for d in drops])
    cols["delay_ns"] = cols["delay_s"] * 1e9
    names = ["drop", "cluster", "delay_ns", "power", "aoa_deg", "zoa_deg"]
    src = tmp_path / "mpcs.csv"
    with open(src, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(names)
        w.writerows(zip(*(cols[n].tolist() for n in names)))
    out = tmp_path / "rep"
    assert main(["analyze", "--input", str(src), "--max-clusters", "4",
                 "--out", str(out)] + ["--recluster"] * recluster) == 0

    report, per_drop = analysis.analyze_mpcs(
        cols["drop"], cols["delay_ns"] * 1e-9, cols["power"], cols["aoa_deg"],
        cols["zoa_deg"], None if recluster else cols["cluster"], 4, 8.0)
    written = yaml.safe_load((out / "report.yaml").read_text())
    assert written.pop("input") == "mpcs.csv"
    assert written == report
    rows = _rows(out / "per_drop.csv")
    assert list(rows[0]) == list(per_drop)
    assert [[r[k] for r in rows] for k in per_drop] == [
        [_fmt(v) for v in col] for col in per_drop.values()]


def test_write_csv_formats_columns_as_fmt_does_cell_by_cell(tmp_path, monkeypatch):
    # whole-column formatting of float and integer arrays gives the bytes
    # of the per-cell _fmt writer; a table of such arrays only is written
    # one printf per row, any other table cell by cell through csv.writer
    numeric = {
        "f": np.array([0.1, -0.0, np.inf, -np.inf, 1e-300, 123456789.123456789,
                       np.nan, 2.0 / 3.0]),
        "f32": np.linspace(-1.0, 1.0, 8, dtype=np.float32),
        "i": np.array([0, -1, 2**63 - 1, -(2**63), 2**62, -(2**62), 7, 8]),
        "u": np.arange(8, dtype=np.uint8) * 31,
        "u64": np.array([2**64 - 1, 0, 1, 2, 3, 4, 5, 6], dtype=np.uint64),
        "x,y": np.array([1e20, -1e-20, 5e-324, 1.7976931348623157e308,
                         0.5, 1.0, 100.0, 1e12]),   # a header name with a comma
    }
    tables = {
        "numeric": numeric,
        "zero-rows": {k: v[:0] for k, v in numeric.items()},
        "one-column": {"x,y": numeric["x,y"]},
        "mixed": {**numeric,
                  "label": np.array(["a", "b,c", 'q"d', "", "x", "y", "z", "w"],
                                    dtype=object),
                  "opt": [None, 1.5, np.float64(-0.0), 3, None, "s", np.int64(4),
                          0.25]},
    }
    for name, cols in tables.items():
        path = tmp_path / f"{name}.csv"
        with monkeypatch.context() as m:
            if name != "mixed":     # the printf path formats no cell alone
                m.setattr(cli, "_cells", None)
            _write_csv(path, cols)
        with open(tmp_path / "cells.csv", "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(cols)
            w.writerows([_fmt(v) for v in row] for row in zip(*cols.values()))
        assert path.read_bytes() == (tmp_path / "cells.csv").read_bytes(), name


def test_write_csv_rejects_columns_of_unequal_length(tmp_path):
    with pytest.raises(ValueError):
        _write_csv(tmp_path / "bad.csv", {"a": np.arange(3), "b": [1.0, 2.0]})
    with pytest.raises(ValueError):
        _write_csv(tmp_path / "bad.csv", {"a": np.arange(3), "b": np.ones(2)})


def test_analyze_pdp_writes_what_the_library_returns(tmp_path):
    """analysis.analyze_pdp on arrays gives the report that analyze
    writes for the same rows."""
    rng = np.random.default_rng(3)
    dirs = {"phi_rx_deg": np.repeat([0.0, 90.0, 180.0], 6),
            "theta_rx_deg": np.full(18, 90.0)}
    delay_ns = np.tile(np.arange(6) * 2.5, 3)
    power = rng.lognormal(-4.0, 1.5, 18)
    order = rng.permutation(18)         # rows in no particular order
    src = tmp_path / "pdp.csv"
    with open(src, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([*dirs, "delay_ns", "power_linear", "distance_m"])
        w.writerows(zip(*(v[order].tolist()
                          for v in (*dirs.values(), delay_ns, power)),
                        [12.5] * 18))
    out = tmp_path / "rep"
    assert main(["analyze", "--input", str(src), "--noise-floor", "1e-3",
                 "--margin-db", "3", "--out", str(out)]) == 0

    report = analysis.analyze_pdp(dirs, delay_ns * 1e-9, power, 12.5, 1e-3,
                                  3.0)
    written = yaml.safe_load((out / "report.yaml").read_text())
    assert written.pop("input") == "pdp.csv"
    assert written == report
    assert {"asa_deg", "pl_db"} <= set(report)


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


def test_roundtrip_prints_no_negative_zero(tmp_path, capsys):
    # one drop: the asa medians agree, and their difference rounds to zero
    # from below
    out = tmp_path / "rt"
    main(["roundtrip", "--scenario", "umi", "--condition", "nlos",
          "--drops", "1", "--out", str(out)])
    text = capsys.readouterr().out
    rep = yaml.safe_load((out / "report.yaml").read_text())
    asa, = (c for c in rep["checks"] if c["statistic"] == "asa")
    assert asa["delta"] == 0.0
    assert "delta=+0.0000 log10" in text and "-0.0000" not in text


def test_roundtrip_nlos_drawn_k_cells_are_empty(tmp_path):
    # an NLoS set draws no K; the extracted K of its drops is still written
    out = tmp_path / "rt"
    main(["roundtrip", "--scenario", "umi", "--condition", "nlos",
          "--drops", "3", "--out", str(out)])
    rows = _rows(out / "roundtrip_drops.csv")
    assert [r["drawn_k_db"] for r in rows] == ["", "", ""]
    assert all(np.isfinite(float(r["extracted_k_db"])) for r in rows)


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


def test_capacity_bad_snr_exits_2(tmp_path, capsys):
    for snr in ("bogus", "nan", "0,inf", "0:inf:5", "0:30:1e-9"):
        with pytest.raises(SystemExit) as exc:
            main(["capacity", "--scenario", "umi", "--snr", snr,
                  "--out", str(tmp_path / "x")])
        assert exc.value.code == 2
        assert not (tmp_path / "x").exists()
    # a grid too fine to build is counted, not allocated
    assert "30000000001 points, more than 10001" in capsys.readouterr().err


def test_out_of_memory_exits_1_before_creating_out(tmp_path, monkeypatch, capsys):
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.45 GiB for an array")
    monkeypatch.setattr("thzgbsm.cli.run_capacity_experiment", no_memory)
    out = tmp_path / "cap"
    assert main(["capacity", "--scenario", "umi", "--tones", "1000000000",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("thzgbsm capacity: Unable to allocate 7.45 GiB")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["analyze", "--input", "in.csv", "--recluster", "--delay-weight", "nan"],
    ["analyze", "--input", "in.csv", "--noise-floor", "inf"],
    ["analyze", "--input", "in.csv", "--margin-db", "nan"],
    ["capacity", "--scenario", "umi", "--bandwidth-hz", "nan"],
    ["capacity", "--scenario", "umi", "--bandwidth-hz", "inf"],
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
    ["roundtrip", "--scenario", "office", "--condition", "los",
     "--tol-log10", "-0.1"],
    ["roundtrip", "--scenario", "office", "--condition", "los",
     "--tol-k-db", "-1"],
    ["analyze", "--input", "in.csv", "--noise-floor", "-1"],
    ["analyze", "--input", "in.csv", "--noise-floor", "1e-6",
     "--margin-db", "0"],
    ["analyze", "--input", "in.csv", "--recluster", "--delay-weight", "-8"],
    ["capacity", "--scenario", "umi", "--bandwidth-hz", "0"],
    ["capacity", "--scenario", "umi", "--bandwidth-hz=-1e9"],
    ["analyze", "--input", "in.csv", "--margin-db", "0"],
    ["analyze", "--input", "in.csv", "--recluster", "--max-clusters", "1"],
    ["capacity", "--scenario", "umi", "--snr", ","],
    ["capacity", "--scenario", "umi", "--drops", "2", "--workers", "2"],
    ["simulate", "--scenario", "office", "--condition", "los", "--seed", "-1"],
], ids=["simulate-drops", "roundtrip-drops", "simulate-workers-0",
        "roundtrip-workers-negative", "tol-log10-negative",
        "tol-k-db-negative", "noise-floor-negative", "margin-db-zero",
        "delay-weight-negative", "bandwidth-hz-zero", "bandwidth-hz-negative",
        "margin-db-zero-without-noise-floor", "max-clusters-1", "snr-empty",
        "capacity-workers-2", "seed-negative"])
def test_bad_argument_exits_2_before_creating_out(tmp_path, monkeypatch,
                                                  capsys, argv):
    # a valid profile, so that only the option can be at fault
    monkeypatch.chdir(tmp_path)
    Path("in.csv").write_text("delay_ns,power_linear\n0,1\n5,0.5\n")
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(out)])
    assert exc.value.code == 2
    option = [a for a in argv if a.startswith("--")][-1].split("=")[0]
    assert option in capsys.readouterr().err
    assert not out.exists()


# numeric options that may take any value of their type
_UNBOUNDED_OPTIONS = set()


def test_every_numeric_option_declares_a_range_or_is_listed_unbounded():
    """An option's range lives on its argparse type, which names it as
    ``.range``; an option without a type would hand a number over as text."""
    sub, = (a for a in build_parser()._actions
            if isinstance(a, argparse._SubParsersAction))
    typed = []
    for command, sp in sub.choices.items():
        for action in sp._actions:
            where = (command, action.option_strings[0])
            if action.type is None:
                assert (isinstance(action.default, bool)
                        or not isinstance(action.default, (int, float))), where
                continue
            typed.append(where)
            bounded = hasattr(action.type, "range")
            assert bounded != (where[1] in _UNBOUNDED_OPTIONS), where
    assert len(typed) == 18


# options the README names that belong to other tools: pip's and the bench's
_FOREIGN_OPTIONS = {"--no-build-isolation", "--workload"}


def test_readme_names_only_options_the_parser_has():
    parser = build_parser()
    sub, = (a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction))
    known = {o for p in (parser, *sub.choices.values())
             for a in p._actions for o in a.option_strings}
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", readme))
    assert named - known - _FOREIGN_OPTIONS == set()


# names README calls that are not the package's: KPowerMeans' method, and
# numpy's generator, complex exponential and weighted draw
_FOREIGN_NAMES = {"fit", "default_rng", "exp", "choice"}
_FILE_SUFFIXES = {"csv", "json", "md", "py", "svg", "yaml"}


_MISSING = object()


def _resolves(dotted: str, roots) -> bool:
    """Whether ``dotted`` is an attribute path from one of ``roots``."""
    for obj in roots:
        for part in dotted.split("."):
            obj = getattr(obj, part, _MISSING)
            if obj is _MISSING:
                break
        else:
            return True
    return False


def test_readme_names_only_api_the_package_has():
    """Every backticked module-qualified name (``analysis.asa``) and every
    backticked call (``kpower_means(``) in README resolves: a qualified
    name from the package or, for a dotted parameter-file entry such as
    ``clusters.count``, from a loaded set; a call from the package or one
    of its modules, unless it is listed as foreign."""
    modules = {m.name: importlib.import_module(f"thzgbsm.{m.name}")
               for m in pkgutil.iter_modules(thzgbsm.__path__)}
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    spans = re.findall(r"`([^`]+)`", re.sub(r"```.*?```", "", readme, flags=re.S))
    params = load_params("office", "los", "measured")
    stale = set()
    for span in spans:
        for dotted in re.findall(r"(?<![\w./-])[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+",
                                 span):
            name = dotted.removeprefix("thzgbsm.")
            parts = name.split(".")
            if (parts[0] in modules and parts[-1] not in _FILE_SUFFIXES
                    and not _resolves(name, [thzgbsm, params])):
                stale.add(dotted)
        for called in re.findall(r"(?<![\w.])([A-Za-z_][\w.]*)\(", span):
            name = called.removeprefix("thzgbsm.")
            if name not in _FOREIGN_NAMES and not _resolves(
                    name, [thzgbsm, *modules.values()]):
                stale.add(called + "(")
    assert stale == set()


def test_package_exports_only_api_readme_names():
    """The reverse direction: every name ``from thzgbsm import *`` gives
    is one README names, and none is a module."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    named = set(re.findall(r"\w+", readme))
    assert thzgbsm.__all__ and set(thzgbsm.__all__) <= named
    assert not [k for k in thzgbsm.__all__
                if isinstance(getattr(thzgbsm, k), type(thzgbsm))]


# np.interp and crossover_snr read the grid in the order given
@pytest.mark.parametrize("snr", ["40,30,20,10,0", "0,10,10,20"])
def test_capacity_snr_not_increasing_exits_2(tmp_path, capsys, snr):
    out = tmp_path / "cap"
    with pytest.raises(SystemExit) as exc:
        main(["capacity", "--scenario", "umi", "--snr", snr, "--drops", "2",
              "--out", str(out)])
    assert exc.value.code == 2
    assert "strictly increase" in capsys.readouterr().err
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
    assert main(args + ["--out", str(b)]) == 0
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
    # arrays are single-polarized, so the schema has no XPR
    "retired-xpr-db": ((("supplemental", "xpr_db"), {"mu": 11.0, "sigma": 4.0}),
                       "supplemental: unknown key 'xpr_db'"),
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


def test_simulate_params_out_of_range_exits_2_before_creating_out(
        tmp_path, capsys):
    from thzgbsm.params import data_dir
    d = yaml.safe_load((data_dir() / "office_los_measured.yaml").read_text())
    d["supplemental"]["zsa_log10deg"]["sigma"] = -1
    pfile = tmp_path / "bad.yaml"
    pfile.write_text(yaml.safe_dump(d))
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--scenario", "office", "--condition", "los",
              "--params", str(pfile), "--drops", "1", "--out", str(out)])
    assert exc.value.code == 2
    assert (f"{pfile}: supplemental.zsa_log10deg.sigma: must be nonnegative, got -1.0"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("route", ["params", "env-dir"])
def test_params_file_without_the_set_exits_2_before_creating_out(
        tmp_path, capsys, monkeypatch, route):
    from thzgbsm.params import data_dir
    d = yaml.safe_load((data_dir() / "office_los_measured.yaml").read_text())
    argv = ["roundtrip", "--scenario", "office", "--condition", "los",
            "--source", "3gpp", "--drops", "1", "--out", str(tmp_path / "out")]
    if route == "params":
        pfile, option = tmp_path / "measured.yaml", "--params"
        argv += ["--params", str(pfile)]
    else:
        # the set's own file name, holding a set with other coordinates
        pfile, option = tmp_path / "office_los_3gpp.yaml", "--scenario/--condition/--source"
        monkeypatch.setenv("THZ_GBSM_PARAMS_DIR", str(tmp_path))
    pfile.write_text(yaml.safe_dump(d))
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"{option}: {pfile} holds no set for office/los/3gpp" in err
    assert "invalid" not in err         # the file itself is valid
    assert not (tmp_path / "out").exists()


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
