"""Cluster-level channel realization: delays, powers, angles, phases.

One drop turns a large-scale parameter draw into a discrete set of
clusters and rays: exponential conditional delays, delay-proportional
powers with per-cluster shadowing, a Rice blend that carves the direct
path share out of the cluster sum, inverse-Gaussian azimuth and
inverse-Laplacian zenith cluster angles with tabulated-offset rays, an
in-cluster K split, XPR draws and iid phases.

Generated delays and composite angular spreads are rescaled per drop so
the realization reproduces the drawn delay spread exactly and the drawn
azimuth spread as closely as the circular-spread saturation allows;
statistics re-extracted from a drop then match the drawn values instead
of being a smeared copy of them.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import analysis
from .constants import c_phi, c_theta, ray_offsets, wrap_deg
from .params import ScenarioParamSet


@dataclass
class LinkGeometry:
    """BS at the origin, user on the annulus; LoS bearings in degrees."""
    d2_m: float
    d3_m: float
    aoa_los_deg: float
    aod_los_deg: float
    zoa_los_deg: float
    zod_los_deg: float
    mu_xy_m: tuple[float, float]


def geometry_for(params: ScenarioParamSet, x_m: float, y_m: float) -> LinkGeometry:
    """Link geometry for a user at an explicit horizontal position."""
    g = params.geometry
    d2 = float(np.hypot(x_m, y_m))
    dz = g.mu_height_m - g.bs_height_m
    d3 = float(np.hypot(d2, dz))
    aod = float(np.degrees(np.arctan2(y_m, x_m)))
    zod = float(np.degrees(np.arccos(np.clip(dz / d3, -1.0, 1.0))))
    aoa = float(wrap_deg(aod + 180.0))
    zoa = float(np.degrees(np.arccos(np.clip(-dz / d3, -1.0, 1.0))))
    return LinkGeometry(d2_m=d2, d3_m=d3, aoa_los_deg=aoa, aod_los_deg=aod,
                        zoa_los_deg=zoa, zod_los_deg=zod, mu_xy_m=(x_m, y_m))


def place_user(params: ScenarioParamSet, rng) -> LinkGeometry:
    """Uniform placement over the scenario's annulus (uniform in area)."""
    r_min, r_max = params.geometry.annulus_m
    r = float(np.sqrt(rng.uniform(r_min**2, r_max**2)))
    ang = rng.uniform(-np.pi, np.pi)
    return geometry_for(params, r * np.cos(ang), r * np.sin(ang))


# ---------------------------------------------------------------------------
# generation steps


def gen_delays(n_clusters: int, ds_s: float, r_tau: float, rng) -> np.ndarray:
    """Exponential conditional cluster delays, sorted, first at zero."""
    if n_clusters < 1:
        raise ValueError("n_clusters must be at least 1")
    if ds_s <= 0:
        raise ValueError("ds_s must be positive")
    u = 1.0 - rng.random(n_clusters)            # (0, 1], keeps log finite
    tau = -r_tau * ds_s * np.log(u)
    tau.sort()
    return tau - tau[0]


def gen_powers(delays_s, ds_s: float, r_tau: float, zeta_db: float, rng,
               k_linear: float | None = None) -> tuple[np.ndarray, float]:
    """Cluster powers and the direct-path share.

    Powers decay exponentially in delay with per-cluster lognormal
    shadowing, then normalize to one. For LoS the Rice factor moves the
    share k/(k+1) onto the direct path; the normalized cluster powers are
    returned unscaled with that share reported separately.
    """
    tau = np.asarray(delays_s, dtype=float)
    z = rng.normal(0.0, zeta_db, tau.size) if zeta_db > 0 else np.zeros(tau.size)
    p = np.exp(-tau * (r_tau - 1.0) / (r_tau * ds_s)) * 10.0 ** (-z / 10.0)
    p = p / p.sum()
    w = 0.0
    if k_linear is not None:
        w = k_linear / (k_linear + 1.0)
    return p, float(w)


def apply_in_cluster_k(powers, n_rays: int, c_k_db: float) -> np.ndarray:
    """Per-ray power fractions within each cluster.

    Ray 0 takes the in-cluster-K share kappa/(kappa+M-1), the remaining
    rays split the rest evenly; every row sums to one. c_k_db = 0 gives
    the uniform split.
    """
    n = len(np.atleast_1d(powers))
    if n_rays < 1:
        raise ValueError("n_rays must be at least 1")
    kappa = 10.0 ** (c_k_db / 10.0)
    fr = np.full(n_rays, 1.0 / (kappa + n_rays - 1.0))
    fr[0] = kappa / (kappa + n_rays - 1.0)
    return np.tile(fr, (n, 1))


def gen_xpr_and_phases(n_clusters: int, n_rays: int, xpr_mu_db: float,
                       xpr_sigma_db: float, rng) -> tuple[np.ndarray, np.ndarray]:
    """Lognormal XPR (linear) and iid uniform phases per ray.

    Phases come as (n_clusters, n_rays, 4) for the four polarization
    combinations (theta-theta, theta-phi, phi-theta, phi-phi).
    """
    x_db = rng.normal(xpr_mu_db, xpr_sigma_db, (n_clusters, n_rays))
    phases = rng.uniform(-np.pi, np.pi, (n_clusters, n_rays, 4))
    return 10.0 ** (x_db / 10.0), phases


# ---------------------------------------------------------------------------
# per-drop rescaling


def composite_rms_ds(delays_s, powers, los_weight: float) -> float:
    """RMS delay spread of the clusters plus the direct tap at zero."""
    d = np.concatenate([[0.0], np.asarray(delays_s, dtype=float)])
    p = np.concatenate([[los_weight],
                        (1.0 - los_weight) * np.asarray(powers, dtype=float)])
    return analysis.rms_ds(d, p)


def rescale_delays(delays_s, powers, los_weight: float,
                   target_ds_s: float) -> np.ndarray:
    """Scale delays so the composite RMS delay spread hits the target.

    The direct tap sits at zero delay, so the spread is homogeneous in
    the delay scale and one multiplicative factor is exact. Degenerate
    single-cluster realizations (zero spread) are returned unchanged.
    """
    cur = composite_rms_ds(delays_s, powers, los_weight)
    if cur <= 0:
        return np.asarray(delays_s, dtype=float).copy()
    return np.asarray(delays_s, dtype=float) * (target_ds_s / cur)


def composite_asa(angles_deg, ray_powers, los_weight: float,
                  bearing_deg: float) -> float | np.ndarray:
    """Circular azimuth spread of all rays plus the direct path. Axes of
    angles_deg ahead of ray_powers' shape stack configurations."""
    a = np.asarray(angles_deg, dtype=float)
    a = a.reshape(a.shape[:max(a.ndim - np.ndim(ray_powers), 0)] + (-1,))
    p = np.asarray(ray_powers, dtype=float).ravel()
    if los_weight > 0:
        a = np.concatenate([np.full(a.shape[:-1] + (1,), bearing_deg), a], axis=-1)
        p = np.concatenate([[los_weight], p])
    return analysis.asa(a, p)


# ray angles per stacked spread evaluation in rescale_azimuth's scale-grid
# scan: amortizes numpy's call overhead on small sets
_ASA_BATCH = 1024

# rescale_azimuth stops once the composite spread is this close to the
# target, relative to it; nothing downstream resolves it any finer
_SPREAD_RTOL = 1e-10


def _solve(f, lo, hi, target: float):
    """Bisect [lo, hi], where f(lo) < target <= f(hi), for f(x) = target:
    the first midpoint whose f lies within _SPREAD_RTOL * target of the
    target, else the midpoint left after 60 halvings."""
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        val = f(mid)
        if abs(val - target) <= _SPREAD_RTOL * target:
            return mid
        if val < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def rescale_azimuth(angles_deg, ray_powers, los_weight: float,
                    bearing_deg: float, target_asa_deg: float) -> np.ndarray:
    """Move ray azimuths about the bearing until the composite circular
    spread hits the target.

    Reachable targets are met by bisecting a common deviation scale, to
    within _SPREAD_RTOL of the target (_solve). The spread saturates,
    though: it cannot exceed one radian, and a direct path pinning the
    fraction w at the bearing caps it harder, at sqrt(1 - (2w - 1)^2),
    attained when all scattered power sits at the antipode. When no
    uniform scale reaches the target the rays are therefore swept from
    the best uniformly scaled configuration toward the antipode
    (bisecting the sweep position), and a target beyond even that clamps
    at the maximum-spread configuration. The sweep distorts per-ray
    geometry only on drops whose drawn spread exceeds what their drawn
    K-factor admits at all.
    """
    ang = np.asarray(angles_deg, dtype=float)
    dev = wrap_deg(ang - bearing_deg).ravel()
    p = np.asarray(ray_powers, dtype=float).ravel()
    from_dev = lambda d: wrap_deg(bearing_deg + d).reshape(ang.shape)
    # deviations (n,) -> spread, or stacked (k, n) -> (k,) spreads
    spread = lambda d: composite_asa(wrap_deg(bearing_deg + d), p,
                                     los_weight, bearing_deg)
    scaled = lambda s: spread(s * dev)
    s0 = spread(dev)
    if s0 <= 0:
        return from_dev(dev)
    if s0 >= target_asa_deg:
        return from_dev(_solve(scaled, 0.0, 1.0, target_asa_deg) * dev)

    # growing: the spread is not monotone in the scale once deviations
    # wrap, so probe a log grid (grid[0] = 1 gave s0) and bisect the
    # first upward crossing
    grid = np.geomspace(1.0, 256.0, 96)
    vals, j, chunk = [np.array([s0])], 1, max(1, _ASA_BATCH // dev.size)
    while j < grid.size:
        vals.append(spread(grid[j:j + chunk, None] * dev))
        hit = np.nonzero(vals[-1] >= target_asa_deg)[0]
        if hit.size:
            i = j + hit[0]
            s = _solve(scaled, grid[i - 1], grid[i], target_asa_deg)
            return from_dev(s * dev)
        j, chunk = j + chunk, 2 * chunk
    vals = np.concatenate(vals)

    # no uniform scale reaches the target: sweep from the best scaled
    # configuration toward the antipodal maximum-spread one
    base = wrap_deg(grid[int(np.argmax(vals))] * dev)
    anti = 180.0 * np.where(base >= 0.0, 1.0, -1.0)
    swept = lambda u: spread((1.0 - u) * base + u * anti)
    s_anti = spread(anti)
    if s_anti >= target_asa_deg:
        u = _solve(swept, 0.0, 1.0, target_asa_deg)
        return from_dev((1.0 - u) * base + u * anti)
    if s_anti >= vals.max():
        return from_dev(anti)
    return from_dev(base)


def rescale_zenith(angles_deg, ray_powers, los_weight: float,
                   bearing_deg: float, target_spread_deg: float) -> np.ndarray:
    """Scale zenith deviations to the target power-weighted linear std.

    Linear spread scales exactly with the deviation factor; afterwards
    angles are reflected back into [0, 180], which perturbs the spread
    only when rays were pushed past the poles.
    """
    ang = np.asarray(angles_deg, dtype=float)
    a = ang.ravel()
    p = np.asarray(ray_powers, dtype=float).ravel()
    if los_weight > 0:
        a = np.concatenate([[bearing_deg], a])
        p = np.concatenate([[los_weight], p])
    cur = analysis.rms_ds(a, p)
    if cur <= 0:
        return _fold_zenith(ang)
    return _fold_zenith(bearing_deg + (target_spread_deg / cur) * (ang - bearing_deg))


def _fold_zenith(z):
    z = np.mod(np.asarray(z, dtype=float), 360.0)
    return np.where(z > 180.0, 360.0 - z, z)


# ---------------------------------------------------------------------------
# angles


def gen_angles(powers, ray_fractions, los_weight: float, asa_deg: float,
               zsa_deg: float, zsd_deg: float, k_db: float | None,
               params: ScenarioParamSet, geometry: LinkGeometry, rng):
    """Cluster and ray angles for one drop, spread-matched per drop.

    Azimuth cluster centers follow the inverse-Gaussian construction,
    zenith centers the inverse-Laplacian one, both centered on the LoS
    bearing with random sign flips and Gaussian perturbations. Rays add
    tabulated offsets (re-centered first-M entries) scaled by the
    intra-cluster spread constants, randomly coupled per cluster. The
    composite arrival azimuth spread is then rescaled to the drawn ASA
    (departure reuses the same azimuth statistics; zenith spreads use
    their drawn targets with a linear-std match).

    Returns (aoa, aod, zoa, zod), each (n_clusters, n_rays) in degrees.
    """
    p = np.asarray(powers, dtype=float)
    n = p.size
    m = ray_fractions.shape[1]
    ratio = p / p.max()
    cp = c_phi(n, k_db)
    ct = c_theta(n, k_db)
    ray_p = (1.0 - los_weight) * p[:, None] * ray_fractions

    def plane(rescale, bearing, center_dev, spread, c_spread):
        # random sign flips and N(0, spread/7) jitter about the bearing,
        # then the tabulated offsets in a fresh order per cluster
        x = rng.integers(0, 2, n) * 2 - 1
        y = rng.normal(0.0, spread / 7.0, n)
        centers = x * center_dev + y + bearing
        offs = c_spread * ray_offsets(m)
        perm = np.array([rng.permutation(m) for _ in range(n)])
        return rescale(centers[:, None] + offs[perm], ray_p, los_weight,
                       bearing, spread)

    phi_c = 2.0 * (asa_deg / 1.4) * np.sqrt(-np.log(ratio)) / cp
    c_asa = params.clusters.c_asa_deg
    sup = params.supplemental
    aoa = plane(rescale_azimuth, geometry.aoa_los_deg, phi_c, asa_deg, c_asa)
    aod = plane(rescale_azimuth, geometry.aod_los_deg, phi_c, asa_deg, c_asa)
    zoa = plane(rescale_zenith, geometry.zoa_los_deg,
                -(zsa_deg / ct) * np.log(ratio), zsa_deg, sup.c_zsa_deg)
    zod = plane(rescale_zenith, geometry.zod_los_deg,
                -(zsd_deg / ct) * np.log(ratio), zsd_deg, sup.c_zsd_deg)
    return aoa, aod, zoa, zod


# ---------------------------------------------------------------------------
# drop assembly


@dataclass
class ClusterSet:
    """One channel drop: everything the coefficient assembly needs."""
    delays_s: np.ndarray          # (N,), sorted, first is 0 (excess delay)
    powers: np.ndarray            # (N,), normalized cluster powers, sum 1
    los_weight: float             # direct-path share, K/(K+1); 0 for NLoS
    ray_fractions: np.ndarray     # (N, M), rows sum to 1
    aoa_deg: np.ndarray           # (N, M)
    aod_deg: np.ndarray
    zoa_deg: np.ndarray
    zod_deg: np.ndarray
    xpr: np.ndarray               # (N, M), linear
    phases: np.ndarray            # (N, M, 4)
    geometry: LinkGeometry
    lsp: dict                     # drawn values this drop realizes

    @property
    def n_clusters(self) -> int:
        return self.delays_s.size

    @property
    def n_rays(self) -> int:
        return self.ray_fractions.shape[1]

    def ray_powers(self) -> np.ndarray:
        """(N, M) absolute ray powers; together with the direct share
        they sum to one."""
        return (1.0 - self.los_weight) * self.powers[:, None] * self.ray_fractions

    def mpc_arrays(self) -> dict:
        """Flat per-component arrays, direct path first when present.

        Cluster index 0 marks the direct path; generated clusters are
        numbered from 1. Ray index within the direct path is 0.
        """
        rp = self.ray_powers()
        n, m = rp.shape
        cl = np.repeat(np.arange(1, n + 1), m)
        ray = np.tile(np.arange(m), n)
        cols = {
            "cluster": cl,
            "ray": ray,
            "delay_s": np.repeat(self.delays_s, m),
            "power": rp.ravel(),
            "aoa_deg": self.aoa_deg.ravel(),
            "zoa_deg": self.zoa_deg.ravel(),
            "aod_deg": self.aod_deg.ravel(),
            "zod_deg": self.zod_deg.ravel(),
        }
        if self.los_weight > 0:
            g = self.geometry
            head = {
                "cluster": np.array([0]),
                "ray": np.array([0]),
                "delay_s": np.array([0.0]),
                "power": np.array([self.los_weight]),
                "aoa_deg": np.array([g.aoa_los_deg]),
                "zoa_deg": np.array([g.zoa_los_deg]),
                "aod_deg": np.array([g.aod_los_deg]),
                "zod_deg": np.array([g.zod_los_deg]),
            }
            cols = {k: np.concatenate([head[k], v]) for k, v in cols.items()}
        return cols


def extract_drop_stats(cs: ClusterSet) -> dict:
    """Re-extract DS / ASA / K from a drop's multipath components.

    Works on the discrete component list (direct path included), i.e.
    the same information a dump of the drop carries.
    """
    cols = cs.mpc_arrays()
    out = {
        "ds_s": analysis.rms_ds(cols["delay_s"], cols["power"]),
        "asa_deg": analysis.asa(cols["aoa_deg"], cols["power"]),
    }
    if cs.los_weight > 0:
        out["k_db"] = analysis.k_factor(cols["power"])
    return out


def build_drop(params: ScenarioParamSet, rng, geometry: LinkGeometry | None = None,
               lsp_vals: dict | None = None) -> ClusterSet:
    """Generate one full drop.

    lsp_vals, when given, must carry ds_s / asa_deg / sf_db (and k_db for
    LoS sets); otherwise an independent correlated draw is made here.
    """
    if geometry is None:
        geometry = place_user(params, rng)
    if lsp_vals is None:
        from .lsp import draw_lsp_iid
        lsp_vals = draw_lsp_iid(params, 1, rng).row(0)

    n = params.clusters.count
    k_db = lsp_vals.get("k_db")
    if params.condition == "nlos":
        k_db = None
    k_lin = 10.0 ** (k_db / 10.0) if k_db is not None else None

    sup = params.supplemental
    ds = lsp_vals["ds_s"]
    delays = gen_delays(n, ds, sup.r_tau, rng)
    powers, w = gen_powers(delays, ds, sup.r_tau, sup.per_cluster_shadow_db,
                           rng, k_lin)
    delays = rescale_delays(delays, powers, w, ds)
    fractions = apply_in_cluster_k(powers, params.clusters.rays,
                                   params.clusters.c_k_db)
    zsa = 10.0 ** (sup.zsa_log10deg.mu
                   + sup.zsa_log10deg.sigma * rng.standard_normal())
    zsd = 10.0 ** (sup.zsd_log10deg.mu
                   + sup.zsd_log10deg.sigma * rng.standard_normal())
    aoa, aod, zoa, zod = gen_angles(powers, fractions, w, lsp_vals["asa_deg"],
                                    zsa, zsd, k_db, params, geometry, rng)
    xpr, phases = gen_xpr_and_phases(n, params.clusters.rays,
                                     sup.xpr_db.mu, sup.xpr_db.sigma, rng)

    lsp_record = dict(lsp_vals)
    lsp_record["k_db"] = k_db
    lsp_record["zsa_deg"] = zsa
    lsp_record["zsd_deg"] = zsd
    return ClusterSet(delays_s=delays, powers=powers, los_weight=w,
                      ray_fractions=fractions, aoa_deg=aoa, aod_deg=aod,
                      zoa_deg=zoa, zod_deg=zod, xpr=xpr, phases=phases,
                      geometry=geometry, lsp=lsp_record)


def map_drops(fn, jobs, workers: int = 1) -> list:
    """``[fn(job) for job in jobs]``, over a process pool when workers > 1.

    Results come back in submission order, so output built from them
    does not depend on the worker count. With workers > 1, fn and every
    job must pickle.
    """
    if workers <= 1:
        return [fn(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(fn, jobs,
                           chunksize=max(1, len(jobs) // (workers * 4))))
