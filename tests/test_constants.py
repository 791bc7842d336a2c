import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

from thzgbsm.constants import (
    RAY_OFFSETS, SPEED_OF_LIGHT, c_phi, c_theta, ray_offsets, wrap_deg)


def test_speed_of_light():
    assert SPEED_OF_LIGHT == 299792458.0


def test_ray_offset_table_is_symmetric():
    offs = np.sort(np.asarray(RAY_OFFSETS))
    assert len(offs) == 20
    assert_allclose(offs, -offs[::-1], atol=1e-15)
    # largest canonical offset
    assert_allclose(np.max(offs), 2.1551)


def test_ray_offsets_first_m_recentered():
    for m in (1, 2, 3, 5, 20):
        offs = ray_offsets(m)
        assert offs.shape == (m,)
        assert_allclose(offs.mean(), 0.0, atol=1e-12)
    # the full table is already zero-mean, so recentring is a no-op
    assert_allclose(ray_offsets(20), np.asarray(RAY_OFFSETS), atol=1e-12)


def test_ray_offsets_rejects_bad_counts():
    with pytest.raises(ValueError):
        ray_offsets(0)
    with pytest.raises(ValueError):
        ray_offsets(21)


def test_scaling_tables_exact_anchors():
    assert_allclose(c_phi(4), 0.779)
    assert_allclose(c_phi(20), 1.289)
    assert_allclose(c_theta(8), 0.889)
    assert_allclose(c_theta(20), 1.178)


def test_scaling_tables_interpolate_between_anchors():
    # 6 clusters lies between the 5 and 8 cluster anchors
    lo, hi = c_phi(5), c_phi(8)
    assert lo < c_phi(6) < hi
    assert lo < c_phi(7) < hi
    assert c_theta(13) == pytest.approx(0.5 * (c_theta(12) + c_theta(14, None)), rel=0.05)


# _table_lookup's branches besides the anchors (pinned above), per table
@pytest.mark.parametrize(("lookup", "n", "expected"), [
    (c_phi, 6, 0.860 + 0.158 / 3),      # a third of the way from 5 to 8
    (c_theta, 13, 1.1056),              # a third of the way from 12 to 15
    (c_phi, 2, 0.617),                  # 0.779 - 2 * (0.860 - 0.779)
    (c_theta, 6, 0.821),                # 0.889 - (0.957 - 0.889)
    (c_phi, 25, 1.369),                 # 1.273 + 6 * (1.289 - 1.273)
    (c_theta, 25, 1.148),               # 1.184 + 6 * (1.178 - 1.184)
], ids=["c_phi-between", "c_theta-between", "c_phi-below", "c_theta-below",
        "c_phi-above", "c_theta-above"])
def test_scaling_table_lookup_exact_off_the_anchors(lookup, n, expected):
    """Linear between the two neighbouring anchors, and linear through
    the two nearest anchors outside the table."""
    assert_allclose(lookup(n), expected, rtol=1e-12)


def test_scaling_small_count_extrapolation_positive():
    for n in (1, 2, 3):
        assert c_phi(n) > 0
        assert c_theta(n) > 0


def test_c_phi_k_correction():
    """The Rician correction polynomial at K=0 dB multiplies by 1.1035."""
    assert_allclose(c_phi(8, 0.0), 1.018 * 1.1035)
    k = 10.0
    factor = 1.1035 - 0.028 * k - 0.002 * k**2 + 0.0001 * k**3
    assert_allclose(c_phi(8, k), 1.018 * factor)


def test_c_theta_k_correction():
    k = 5.0
    factor = 1.3086 + 0.0339 * k - 0.0077 * k**2 + 0.0002 * k**3
    assert_allclose(c_theta(8, k), 0.889 * factor)


def test_wrap_deg_known_points():
    assert wrap_deg(180.0) == -180.0
    assert wrap_deg(-180.0) == -180.0
    assert wrap_deg(370.0) == pytest.approx(10.0)
    assert_allclose(wrap_deg(np.array([0.0, 359.0, -190.0])),
                    [0.0, -1.0, 170.0])


@given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
def test_wrap_deg_range_and_congruence(a):
    w = float(wrap_deg(a))
    assert -180.0 <= w < 180.0
    # wrapping only ever adds a multiple of 360
    assert abs((a - w) / 360.0 - round((a - w) / 360.0)) < 1e-9
