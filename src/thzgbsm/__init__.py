"""Stochastic terahertz channel simulator and analysis toolkit.

Generates geometry-based stochastic channel drops parameterized by
measured 100 GHz indoor-office and 132 GHz urban-microcell statistics
(or the matching 3GPP defaults), re-extracts channel characteristics
from power-delay data, and runs equal-power MIMO capacity comparisons
between the two parameter sources.
"""

__version__ = "0.1.0"

from .analysis import (KPowerMeans, asa, cluster_stats, cross_corr,
                       extract_drop_stats, fit_lognormal, fit_normal, k_factor,
                       kpower_means, lsp_cross_corr, rms_ds, select_n_clusters)
from .capacity import (crossover_snr, gram_eigs, mimo_capacity_det,
                       run_capacity_experiment)
from .clusters import (ClusterSet, LinkGeometry, apply_in_cluster_k,
                       build_drop, gen_angles, gen_delays, gen_powers,
                       geometry_for, place_user, place_users,
                       rescale_azimuth, rescale_linear, rescale_zenith)
from .coeffs import (AntennaArray, ChannelRealization, assemble_cir, cir_to_ctf,
                     single_antenna)
from .constants import (RAY_OFFSETS, SPEED_OF_LIGHT, c_phi, c_theta,
                        ray_offsets, spherical_unit, wrap_deg)
from .fields import GaussianField
from .lsp import draw_lsp_iid, generate_lsp
from .params import (NormalSpec, ParamValidationError, ScenarioParamSet,
                     load_params, load_params_file, nearest_psd)
from .pathloss import fspl_db, pl_from_pdp, umi_nlos_3gpp_pl_db

__all__ = [k for k in dir() if not k.startswith("_")]
