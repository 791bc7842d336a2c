import copy
import dataclasses
import types
import typing

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from thzgbsm import params
from thzgbsm.params import (
    LSP_ORDER, ParamValidationError, ScenarioParamSet, data_dir, load_params,
    load_params_file, nearest_psd)

ALL_SETS = [("office", "los", "measured"), ("office", "nlos", "measured"),
            ("umi", "los", "measured"), ("umi", "nlos", "measured"),
            ("office", "los", "3gpp"), ("office", "nlos", "3gpp"),
            ("umi", "los", "3gpp"), ("umi", "nlos", "3gpp")]


@pytest.mark.parametrize("scenario,condition,source", ALL_SETS)
def test_bundled_sets_load_and_validate(scenario, condition, source):
    p = load_params(scenario, condition, source)
    p.validate()
    assert p.scenario == scenario
    assert p.condition == condition
    assert p.source == source
    assert p.has_k == (condition == "los")


def test_umi_nlos_measured_spot_values():
    p = load_params("umi", "nlos", "measured")
    assert p.asa_log10deg.mu == pytest.approx(0.59)
    assert p.clusters.rays == 2
    assert p.corr_dist_m["sf"] == pytest.approx(7.8)


def test_office_los_measured_spot_values():
    p = load_params("office", "los", "measured")
    assert p.carrier_frequency_ghz == pytest.approx(100.0)
    assert p.pathloss.ple == pytest.approx(1.94)
    assert p.ds_log10s.mu == pytest.approx(-8.82)
    assert p.k_db.mu == pytest.approx(8.80)
    assert p.clusters.count == 4
    assert p.clusters.c_k_db == pytest.approx(1.47)
    assert p.xcorr["sf_k"] == pytest.approx(0.67)


def test_umi_los_3gpp_spot_values():
    p = load_params("umi", "los", "3gpp")
    assert p.carrier_frequency_ghz == pytest.approx(132.0)
    assert p.ds_log10s.mu == pytest.approx(-7.65)
    assert p.clusters.count == 12
    assert p.k_db.mu == pytest.approx(9.0)


def test_wavelength():
    p = load_params("umi", "los", "measured")
    assert_allclose(p.wavelength_m, 299792458.0 / 132e9)


def test_xcorr_matrix_shape_and_symmetry():
    for scenario, condition, source in ALL_SETS:
        p = load_params(scenario, condition, source)
        c = p.xcorr_matrix()
        n = 4 if p.has_k else 3
        assert c.shape == (n, n)
        assert_allclose(c, c.T, atol=1e-15)
        assert_allclose(np.diag(c), 1.0)


def test_lsp_names_order():
    p = load_params("office", "los", "measured")
    assert p.lsp_names == ("ds", "asa", "sf", "k")
    q = load_params("office", "nlos", "measured")
    assert q.lsp_names == ("ds", "asa", "sf")
    assert LSP_ORDER == ("ds", "asa", "sf", "k")


@pytest.mark.parametrize("scenario,condition,source", ALL_SETS)
def test_bundled_files_parse_alike_under_both_loaders(scenario, condition,
                                                      source):
    """The loader the parameter files are parsed with, libyaml's where
    PyYAML has it, gives each bundled file the dict the pure-Python safe
    loader gives."""
    assert params._YAML_LOADER is getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    text = (data_dir() / f"{scenario}_{condition}_{source}.yaml").read_text()
    assert (yaml.load(text, Loader=params._YAML_LOADER)
            == yaml.load(text, Loader=yaml.SafeLoader))


_LOADERS = [yaml.SafeLoader] + ([yaml.CSafeLoader] if hasattr(yaml, "CSafeLoader") else [])


@pytest.mark.parametrize("loader", _LOADERS, ids=lambda L: L.__name__)
def test_yaml_syntax_error_names_file_line_and_column(tmp_path, monkeypatch,
                                                      loader):
    """A syntax error names <path>:<line>:<column>, 1-based, and quotes
    the marked lines with a caret under the column, under either loader."""
    monkeypatch.setattr(params, "_YAML_LOADER", loader)
    f = tmp_path / "bad.yaml"
    f.write_text("scenario: office\ncondition: [los\nsource: measured\n")
    with pytest.raises(ParamValidationError) as err:
        load_params_file(f)
    (issue,) = err.value.issues
    lines = issue.splitlines()
    assert lines[0].startswith(f"{f}:3:7: not valid YAML: ")
    assert lines[1:3] == ["    source: measured", "          ^"]
    assert lines[3] == f"  while parsing a flow sequence at {f}:2:12"
    assert lines[4:] == ["    condition: [los", "               ^"]
    assert "<unicode string>" not in issue


@pytest.mark.parametrize("loader", _LOADERS, ids=lambda L: L.__name__)
def test_yaml_syntax_error_at_the_end_of_the_file_quotes_its_context(
        tmp_path, monkeypatch, loader):
    monkeypatch.setattr(params, "_YAML_LOADER", loader)
    f = tmp_path / "cut.yaml"
    f.write_text("scenario: office\ncondition: [los\n")
    with pytest.raises(ParamValidationError) as err:
        load_params_file(f)
    lines = err.value.issues[0].splitlines()
    assert lines[0].startswith(f"{f}:3:1: not valid YAML: ")
    assert lines[1:] == [f"  while parsing a flow sequence at {f}:2:12",
                         "    condition: [los", "               ^"]


def _bundled_dict(label):
    return yaml.safe_load((data_dir() / f"{label}.yaml").read_text())


def test_from_dict_rejects_unknown_keys():
    d = _bundled_dict("office_nlos_measured")
    d["unexpected"] = 1
    with pytest.raises(ParamValidationError):
        ScenarioParamSet.from_dict(d)


def test_from_dict_leaves_callers_dict_unchanged():
    d = _bundled_dict("office_los_measured")
    assert "count_log10" in d["clusters"]
    before = copy.deepcopy(d)
    ScenarioParamSet.from_dict(d)
    assert d == before


def test_from_dict_reads_explicit_null_as_absent():
    d = _bundled_dict("office_nlos_measured")
    d["k_db"] = None
    d["clusters"]["count_log10"] = None
    ps = ScenarioParamSet.from_dict(d)
    assert ps.k_db is None and ps.clusters.count_log10 is None


def _leaf_paths(node, path=()):
    if not isinstance(node, (dict, list)):
        return [path]
    items = node.items() if isinstance(node, dict) else enumerate(node)
    return [p for k, v in items for p in _leaf_paths(v, path + (k,))]


_JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(), st.just(10**400), st.floats(),
    st.text(max_size=4), st.lists(st.floats(), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2))


@given(label=st.sampled_from(["_".join(s) for s in ALL_SETS]), data=st.data())
@settings(max_examples=60, deadline=None)
def test_from_dict_with_one_leaf_swapped_builds_or_raises_validation_error(
        label, data):
    d = _bundled_dict(label)
    path = data.draw(st.sampled_from(_leaf_paths(d)))
    node = d
    for k in path[:-1]:
        node = node[k]
    node[path[-1]] = data.draw(_JUNK)
    try:
        ps = ScenarioParamSet.from_dict(d)
    except ParamValidationError as exc:
        assert exc.issues
    else:
        ps.validate()


# fields whose range the hand-written checks once missed: (path, bad value)
_OUT_OF_RANGE = [
    (("supplemental", "zsa_log10deg", "sigma"), -0.1),
    (("supplemental", "zsd_log10deg", "sigma"), -0.1),
    (("supplemental", "c_zsa_deg"), -2.0),
    (("supplemental", "c_zsd_deg"), -2.0),
    (("clusters", "count_log10", "sigma"), -0.3),
    (("clusters", "count"), 1),
    (("pathloss", "ple"), 0.0),
]


@pytest.mark.parametrize("where,value", _OUT_OF_RANGE,
                         ids=[".".join(w) for w, _ in _OUT_OF_RANGE])
def test_from_dict_rejects_out_of_range_field_by_path(where, value):
    d = _bundled_dict("office_los_measured")
    node = d
    for k in where[:-1]:
        node = node[k]
    node[where[-1]] = value
    with pytest.raises(ParamValidationError) as exc:
        ScenarioParamSet.from_dict(d)
    [issue] = exc.value.issues
    assert issue.startswith(".".join(where) + ": must be ")
    assert issue.endswith(f"got {value!r}")


def _numbers(tp, path=""):
    """(dotted path, declared type) of every number in the schema."""
    if typing.get_origin(tp) in (typing.Union, types.UnionType):
        tp = typing.get_args(tp)[0]
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if dataclasses.is_dataclass(tp):
        return [n for f in dataclasses.fields(tp)
                for n in _numbers(f.type, f"{path}.{f.name}".lstrip("."))]
    if origin is dict:
        return _numbers(args[1], f"{path}[*]")
    if origin is tuple:
        return [n for i, a in enumerate(args) for n in _numbers(a, f"{path}[{i}]")]
    base = args[0] if origin is typing.Annotated else tp
    return [(path, tp)] if base in (int, float) else []


# numbers that may take any finite value, by field name
_UNBOUNDED = {"mu", "c_k_db"}


def test_every_number_declares_a_range_or_is_listed_unbounded():
    numbers = _numbers(ScenarioParamSet)
    assert len(numbers) == 30
    for path, tp in numbers:
        bounded = typing.get_origin(tp) is typing.Annotated
        assert bounded != (path.rsplit(".", 1)[-1] in _UNBOUNDED), path


def test_validate_requires_k_for_los():
    p = load_params("office", "los", "measured")
    p.k_db = None
    with pytest.raises(ParamValidationError) as exc:
        p.validate()
    assert "k" in str(exc.value).lower()


def test_validate_rejects_negative_sigma():
    p = load_params("office", "los", "measured")
    p.ds_log10s.sigma = -0.1
    with pytest.raises(ParamValidationError):
        p.validate()


def test_env_var_overrides_bundled_dir(tmp_path, monkeypatch):
    d = _bundled_dict("office_los_measured")
    d["ds_log10s"]["mu"] = -9.5
    (tmp_path / "office_los_measured.yaml").write_text(yaml.safe_dump(d))
    monkeypatch.setenv("THZ_GBSM_PARAMS_DIR", str(tmp_path))
    q = load_params("office", "los", "measured")
    assert q.ds_log10s.mu == pytest.approx(-9.5)


def test_env_dir_file_may_hold_a_list(tmp_path, monkeypatch):
    d = _bundled_dict("office_los_measured")
    d["ds_log10s"]["mu"] = -9.5
    (tmp_path / "office_los_measured.yaml").write_text(
        yaml.safe_dump([_bundled_dict("umi_los_measured"), d]))
    monkeypatch.setenv("THZ_GBSM_PARAMS_DIR", str(tmp_path))
    q = load_params("office", "los", "measured")
    assert q.label() == "office_los_measured"
    assert q.ds_log10s.mu == pytest.approx(-9.5)


def test_load_params_picks_the_set_out_of_a_path(tmp_path):
    f = tmp_path / "sets.yaml"
    f.write_text(yaml.safe_dump([_bundled_dict("umi_los_measured"),
                                 _bundled_dict("office_nlos_3gpp")]))
    assert load_params("office", "nlos", "3gpp", path=f) == \
        load_params("office", "nlos", "3gpp")
    assert load_params("umi", "los", "measured", path=f).label() == "umi_los_measured"
    with pytest.raises(LookupError) as exc:
        load_params("office", "los", "3gpp", path=f)
    assert str(exc.value) == f"{f} holds no set for office/los/3gpp"
    assert not isinstance(exc.value, ParamValidationError)
    with pytest.raises(FileNotFoundError, match="nope.yaml"):
        load_params("office", "los", "3gpp", path=tmp_path / "nope.yaml")


def test_list_file_issues_name_their_entry(tmp_path):
    good = _bundled_dict("office_los_measured")
    bad = _bundled_dict("umi_los_measured")
    bad["clusters"]["count"] = "four"
    two = tmp_path / "two.yaml"
    two.write_text(yaml.safe_dump([good, bad]))
    with pytest.raises(ParamValidationError) as exc:
        load_params_file(two)
    assert exc.value.issues == [
        f"{two}: entry 1: clusters.count: expected an integer, got 'four'"]
    # a single-set file has no entries to name
    one = tmp_path / "one.yaml"
    one.write_text(yaml.safe_dump(bad))
    with pytest.raises(ParamValidationError) as exc:
        load_params_file(one)
    assert exc.value.issues == [
        f"{one}: clusters.count: expected an integer, got 'four'"]


def test_list_file_rejects_two_entries_for_one_set(tmp_path):
    d = _bundled_dict("office_los_measured")
    other = _bundled_dict("umi_los_measured")
    f = tmp_path / "dup.yaml"
    f.write_text(yaml.safe_dump([d, other, d]))
    with pytest.raises(ParamValidationError) as exc:
        load_params_file(f)
    assert exc.value.issues == [
        f"{f}: entries 0 and 2 are both office_los_measured"]
    f.write_text(yaml.safe_dump([d, other]))
    assert [ps.label() for ps in load_params_file(f)] == [
        "office_los_measured", "umi_los_measured"]


# --- nearest correlation-matrix projection ---

def test_nearest_psd_returns_psd_input_unchanged():
    c = np.array([[1.0, 0.3], [0.3, 1.0]])
    out = nearest_psd(c)
    assert np.array_equal(out, c)


def test_nearest_psd_three_way_contradiction():
    """Three pairwise correlations of (+0.9, +0.9, -0.9) cannot coexist;
    eigenvalue clipping lands exactly on (+0.5, +0.5, -0.5)."""
    c = np.array([[1.0, 0.9, 0.9],
                  [0.9, 1.0, -0.9],
                  [0.9, -0.9, 1.0]])
    out = nearest_psd(c)
    expect = np.array([[1.0, 0.5, 0.5],
                       [0.5, 1.0, -0.5],
                       [0.5, -0.5, 1.0]])
    assert_allclose(out, expect, atol=1e-9)
    assert np.min(np.linalg.eigvalsh(out)) >= -1e-12


def test_nearest_psd_office_los_projection_is_mild():
    p = load_params("office", "los", "measured")
    raw = p.xcorr_matrix()
    proj = nearest_psd(raw)
    assert np.min(np.linalg.eigvalsh(raw)) < 0
    assert np.max(np.abs(proj - raw)) < 0.02
    assert np.min(np.linalg.eigvalsh(proj)) >= -1e-12


def test_nearest_psd_rejects_asymmetry():
    c = np.array([[1.0, 0.2], [0.3, 1.0]])
    with pytest.raises(ValueError):
        nearest_psd(c)


def test_nearest_psd_rejects_bad_diagonal():
    c = np.array([[1.0, 0.2], [0.2, 0.9]])
    with pytest.raises(ValueError):
        nearest_psd(c)


@st.composite
def correlation_matrices(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    vals = draw(st.lists(st.floats(min_value=-0.99, max_value=0.99),
                         min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    c = np.eye(n)
    iu = np.triu_indices(n, 1)
    c[iu] = vals
    c[(iu[1], iu[0])] = vals
    return c


@given(correlation_matrices())
@settings(max_examples=60, deadline=None)
def test_nearest_psd_output_is_valid_and_idempotent(c):
    out = nearest_psd(c)
    assert_allclose(np.diag(out), 1.0, atol=1e-12)
    assert_allclose(out, out.T, atol=1e-12)
    assert np.min(np.linalg.eigvalsh(out)) >= -1e-9
    again = nearest_psd(out)
    assert_allclose(again, out, atol=1e-8)
