import numpy as np
import pytest

from thzgbsm.pathloss import fspl_db, pl_from_pdp, umi_nlos_3gpp_pl_db


def test_fspl_reference_values():
    assert fspl_db(100.0, 1.0) == pytest.approx(72.45, abs=0.01)
    assert fspl_db(132.0, 1.0) == pytest.approx(74.86, abs=0.01)


def test_fspl_distance_slope():
    # free space decays 20 dB per decade
    assert fspl_db(100.0, 10.0) - fspl_db(100.0, 1.0) == pytest.approx(20.0)


def test_umi_nlos_street_canyon_values():
    assert umi_nlos_3gpp_pl_db(1.0) == pytest.approx(67.57, abs=0.01)
    assert umi_nlos_3gpp_pl_db(100.0) == pytest.approx(138.57, abs=0.01)


def test_pl_from_pdp_sums_power():
    pl = pl_from_pdp(np.array([0.05, 0.05]))
    assert isinstance(pl, float)
    assert pl == pytest.approx(10.0)
    with pytest.raises(ValueError):
        pl_from_pdp(np.array([0.0]))
