import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

from thzgbsm import params as params_mod
from thzgbsm.clusters import build_drop, place_user
from thzgbsm.lsp import draw_lsp_iid, generate_lsp, transform_standard_normals
from thzgbsm.params import load_params, nearest_psd


def test_degenerate_sigmas_give_point_mass():
    p = load_params("office", "los", "measured")
    p.ds_log10s.sigma = 0.0
    p.asa_log10deg.sigma = 0.0
    p.pathloss.sigma_sf_db = 0.0
    p.k_db.sigma = 0.0
    out = draw_lsp_iid(p, 5, np.random.default_rng(0))
    assert_allclose(out["ds_s"], 10.0 ** p.ds_log10s.mu)
    assert_allclose(out["asa_deg"], 10.0 ** p.asa_log10deg.mu)
    assert_allclose(out["sf_db"], 0.0)
    assert_allclose(out["k_db"], p.k_db.mu)


def test_mixing_matrix_reproduces_projected_target():
    p = load_params("office", "los", "measured")
    l = p.mixing_matrix
    target = nearest_psd(p.xcorr_matrix())
    assert_allclose(l @ l.T, target, atol=1e-10)


def test_mixing_matrix_built_once_per_set(monkeypatch):
    calls = []
    monkeypatch.setattr(params_mod, "nearest_psd",
                        lambda c: calls.append(c) or nearest_psd(c))
    p = load_params("office", "los", "measured")
    for s in np.random.SeedSequence(3).spawn(30):
        build_drop(p, np.random.default_rng(s))
    assert len(calls) == 1
    q = dataclasses.replace(p, xcorr={**p.xcorr, "ds_asa": -0.6})
    draw_lsp_iid(q, 4, np.random.default_rng(0))
    assert len(calls) == 2
    l = q.mixing_matrix
    assert_allclose(l @ l.T, nearest_psd(q.xcorr_matrix()), atol=1e-10)
    assert not np.allclose(l, p.mixing_matrix)


def test_asa_cap_applies():
    p = load_params("office", "nlos", "measured")
    p.asa_log10deg.mu = 2.6  # ~400 degrees before capping
    out = draw_lsp_iid(p, 200, np.random.default_rng(1))
    assert np.max(out["asa_deg"]) <= 104.0
    assert np.any(out["asa_deg"] == 104.0)


def test_nlos_has_no_k():
    p = load_params("umi", "nlos", "measured")
    out = draw_lsp_iid(p, 3, np.random.default_rng(2))
    assert list(out) == ["ds_s", "asa_deg", "sf_db"]


def test_iid_marginals_ks():
    """Marginal laws of the generated parameters at the 1% level."""
    p = load_params("umi", "los", "measured")
    out = draw_lsp_iid(p, 10_000, np.random.default_rng(7))
    lgds = np.log10(out["ds_s"])
    lgasa = np.log10(out["asa_deg"])
    sf = out["sf_db"]
    k = out["k_db"]
    checks = [
        (lgds, p.ds_log10s.mu, p.ds_log10s.sigma),
        (lgasa, p.asa_log10deg.mu, p.asa_log10deg.sigma),
        (sf, 0.0, p.pathloss.sigma_sf_db),
        (k, p.k_db.mu, p.k_db.sigma),
    ]
    for sample, mu, sigma in checks:
        _, pval = stats.kstest(sample, "norm", args=(mu, sigma))
        assert pval > 0.01


def test_transform_standard_normals_formulas():
    p = load_params("office", "los", "measured")
    z = np.array([[1.0, -1.0, 0.5, 2.0]])
    vals = transform_standard_normals(p, z)
    assert vals["ds_s"][0] == pytest.approx(
        10.0 ** (p.ds_log10s.mu + p.ds_log10s.sigma))
    assert vals["asa_deg"][0] == pytest.approx(
        10.0 ** (p.asa_log10deg.mu - p.asa_log10deg.sigma))
    assert vals["sf_db"][0] == pytest.approx(0.5 * p.pathloss.sigma_sf_db)
    assert vals["k_db"][0] == pytest.approx(p.k_db.mu + 2.0 * p.k_db.sigma)


def test_generate_lsp_nearby_points_similar():
    # two locations far closer than the correlation distance nearly coincide
    p = load_params("umi", "nlos", "measured")
    x = np.array([50.0, 50.2, 250.0])
    y = np.array([50.0, 50.0, 250.0])
    diffs_near = []
    diffs_far = []
    for seed in range(40):
        out = generate_lsp(p, x, y, np.random.default_rng(seed))
        sf = out["sf_db"]
        diffs_near.append(abs(sf[0] - sf[1]))
        diffs_far.append(abs(sf[0] - sf[2]))
    assert np.mean(diffs_near) < 0.25 * np.mean(diffs_far)


def test_build_drop_lsp_is_row_zero_as_floats():
    # build_drop places the user, then keeps its own draw by name: a set of
    # one holds row 0 of each column, floats, and an NLoS set no K
    p = load_params("office", "nlos", "measured")
    rng = np.random.default_rng(0)
    place_user(p, rng)
    out = draw_lsp_iid(p, 1, rng)
    lsp = build_drop(p, np.random.default_rng(0)).lsp
    assert {k: v.tolist() for k, v in lsp.items()} == {k: [out[k][0]] for k in out}
    assert all(v.dtype == float for v in lsp.values()) and "k_db" not in lsp
