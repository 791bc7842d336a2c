"""Stochastic terahertz channel simulator and analysis toolkit.

Generates geometry-based stochastic channel drops parameterized by
measured 100 GHz indoor-office and 132 GHz urban-microcell statistics
(or the matching 3GPP defaults), re-extracts channel characteristics
from power-delay data, and runs equal-power MIMO capacity comparisons
between the two parameter sources.
"""

from types import ModuleType as _ModuleType

__version__ = "0.1.0"

# the API README documents by bare name; the rest is reached through
# its module
from .analysis import (KPowerMeans, asa, cluster_stats, extract_drop_stats,
                       k_factor, kpower_means, mcd_embedding, rms_ds,
                       select_n_clusters)
from .capacity import capacity_from_eigs, run_capacity_experiment
from .clusters import (ClusterSet, build_drop, match_planes, rescale_azimuth,
                       rescale_linear, rescale_zenith)
from .coeffs import AntennaArray, assemble_cir, single_antenna
from .params import NormalSpec, ScenarioParamSet, load_params

__all__ = [k for k, v in globals().items()
           if not (k.startswith("_") or isinstance(v, _ModuleType))]
