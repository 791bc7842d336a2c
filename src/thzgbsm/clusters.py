"""Cluster-level channel realization: delays, powers, angles, phases.

One drop turns a large-scale parameter draw into a discrete set of
clusters and rays: exponential conditional delays, delay-proportional
powers with per-cluster shadowing, a Rice blend that carves the direct
path share out of the cluster sum, inverse-Gaussian azimuth and
inverse-Laplacian zenith cluster angles with tabulated-offset rays, an
in-cluster K split and one iid phase per ray (the arrays are
single-polarized, so no XPR or cross-polar phases are drawn).

Generated delays and composite angular spreads are rescaled per drop so
the realization reproduces the drawn delay spread exactly and the drawn
azimuth spread as closely as the circular-spread saturation allows;
statistics re-extracted from a drop then match the drawn values instead
of being a smeared copy of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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
                        zoa_los_deg=zoa, zod_los_deg=zod)


def place_users(params: ScenarioParamSet, rng, n: int
                ) -> tuple[np.ndarray, np.ndarray]:
    """x and y of n users placed uniformly in area over the scenario's
    annulus; n radii are drawn first, then n bearings."""
    r_min, r_max = params.geometry.annulus_m
    r = np.sqrt(rng.uniform(r_min**2, r_max**2, n))
    ang = rng.uniform(-np.pi, np.pi, n)
    return r * np.cos(ang), r * np.sin(ang)


def place_user(params: ScenarioParamSet, rng) -> LinkGeometry:
    """Link geometry of one user placed by ``place_users``."""
    x, y = place_users(params, rng, 1)
    return geometry_for(params, x[0], y[0])


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


def apply_in_cluster_k(n_rays: int, c_k_db: float) -> np.ndarray:
    """(M,) per-ray power fractions that every cluster shares.

    Ray 0 takes the in-cluster-K share kappa/(kappa+M-1), the remaining
    rays split the rest evenly; the fractions sum to one. c_k_db = 0
    gives the uniform split.
    """
    if n_rays < 1:
        raise ValueError("n_rays must be at least 1")
    kappa = 10.0 ** (c_k_db / 10.0)
    fr = np.full(n_rays, 1.0 / (kappa + n_rays - 1.0))
    fr[0] = kappa / (kappa + n_rays - 1.0)
    return fr


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


def _with_direct(angles_deg, ray_powers, los_weight: float, bearing_deg: float):
    """Flat ray angles and powers, headed by the direct path's bearing and
    share when the drop has one (los_weight > 0)."""
    a = np.asarray(angles_deg, dtype=float).ravel()
    p = np.asarray(ray_powers, dtype=float).ravel()
    if los_weight > 0:
        return np.concatenate([[bearing_deg], a]), np.concatenate([[los_weight], p])
    return a, p


def composite_asa(angles_deg, ray_powers, los_weight: float,
                  bearing_deg: float) -> float:
    """Circular azimuth spread of all rays plus the direct path."""
    return analysis.asa(*_with_direct(angles_deg, ray_powers, los_weight,
                                      bearing_deg))


def _phasor_spread(ray_powers, los_weight: float):
    """Composite spread of ray deviations d from the bearing in radians,
    (n,) or stacked (k, n), from the resultant |w + sum p e^{jd}| / (w + sum p)."""
    p = np.asarray(ray_powers, dtype=float).ravel()
    tot = los_weight + p.sum()
    return lambda d: analysis._resultant_spread_deg(
        np.abs(los_weight + np.exp(1j * d) @ p) / tot)


# rescale_azimuth's scale grid, and the ray angles per stacked spread
# evaluation in its scan: amortizes numpy's call overhead on small sets
_SCALES = np.geomspace(1.0, 256.0, 96)
_ASA_BATCH = 1024

# rescale_azimuth stops once the composite spread is this close to the
# target, relative to it; nothing downstream resolves it any finer
_SPREAD_RTOL = 1e-10

# eps (180/pi)^2: rounding in the resultant R moves the spread
# sqrt(1 - R^2) in degrees by about this over the spread (_spread_tol)
_EPS_DEG2 = float(np.finfo(float).eps * np.rad2deg(1.0) ** 2)

# Rays that all point one way have spread 0, but sqrt(1 - R^2) turns the
# few ulps of rounding in R into about 1e-6 degrees. No scale stretches
# such a spread, so rescale_azimuth leaves rays below this floor as they
# are rather than search on the noise; the bundled sets' smallest
# starting spread is about 0.04 degrees.
_SPREAD_FLOOR_DEG = 1e-4


def _spread_tol(target: float, n: int) -> float:
    """How near ``target`` degrees the composite spread of n rays counts
    as met: within _SPREAD_RTOL of it, or within the rounding of
    sqrt(1 - R^2) where that is larger, since (n + 1) terms of a few ulps
    in R move a spread of s degrees by about 4 (n + 1) _EPS_DEG2 / s. A
    target of 0 or below is never met."""
    t = float(target)
    return max(_SPREAD_RTOL * t, 4 * (n + 1) * _EPS_DEG2 / t) if t > 0 else 0.0


def _solve(f, lo, hi, f_lo, f_hi, target: float, tol: float):
    """Illinois regula falsi (Dowell & Jarratt, BIT 11, 1971) for
    f(x) = target on [lo, hi], where f_lo = f(lo) < target <= f_hi = f(hi).

    Each step evaluates f at the secant through the ends, or at their
    midpoint when the secant leaves the bracket or the end values
    coincide, and the new point replaces the end on its side of the
    target; an end kept twice in a row has its distance to the target
    halved. Returns the first point whose f lies within tol of the
    target, else the midpoint once the bracket is as narrow as 60 halvings
    make it, or no float lies inside.
    """
    g_lo, g_hi, last = f_lo - target, f_hi - target, 0
    width = (hi - lo) * 2.0 ** -60
    while hi - lo > width and lo < (mid := 0.5 * (lo + hi)) < hi:
        # the fraction of the bracket lies in [0, 1]: it cannot overflow
        x = lo + (hi - lo) * (g_lo / (g_lo - g_hi)) if g_hi > g_lo else mid
        if not lo < x < hi:
            x = mid
        g = f(x) - target
        if abs(g) <= tol:
            return x
        # last: the end replaced by the step before, -1 lo or +1 hi
        if g < 0.0:
            if last < 0:
                g_hi *= 0.5
            lo, g_lo, last = x, g, -1
        else:
            if last > 0:
                g_lo *= 0.5
            hi, g_hi, last = x, g, 1
    return 0.5 * (lo + hi)


def rescale_azimuth(angles_deg, ray_powers, los_weight: float,
                    bearing_deg: float, target_asa_deg: float) -> np.ndarray:
    """Move ray azimuths about the bearing until the composite circular
    spread hits the target.

    Reachable targets are met by solving for a common deviation scale, to
    within _spread_tol of the target (_solve). The spread saturates,
    though: it cannot exceed one radian, and a direct path holding the
    share w >= 1/2 of the power at the bearing caps it harder, at
    sqrt(1 - (2w - 1)^2), attained when all scattered power sits at the
    antipode; a target above that cap returns the antipode at once. When
    no uniform scale reaches the target the rays are swept from the best
    uniformly scaled configuration toward the antipode (solving for the
    sweep position), and a target beyond even that clamps at the larger
    spread of the two ends. The sweep distorts per-ray geometry only on
    drops whose drawn spread exceeds what their drawn K-factor admits at
    all.

    The search starts from ``composite_asa`` of the angles; each later
    step is one phasor sum over the deviations from the bearing in
    radians (_phasor_spread), in which neither the bearing nor the wrap
    of the angles enters, since e^{jx} is 2 pi periodic.
    """
    ang = np.asarray(angles_deg, dtype=float)
    dev = wrap_deg(ang - bearing_deg).ravel()
    from_dev = lambda d: wrap_deg(bearing_deg + d).reshape(ang.shape)
    s0 = composite_asa(from_dev(dev), ray_powers, los_weight, bearing_deg)
    if s0 < _SPREAD_FLOOR_DEG:
        return from_dev(dev)
    rad, spread = np.deg2rad(dev), _phasor_spread(ray_powers, los_weight)
    scaled = lambda s: spread(s * rad)
    tol = _spread_tol(target_asa_deg, dev.size)
    if s0 >= target_asa_deg:
        return from_dev(_solve(scaled, 0.0, 1.0, 0.0, s0, target_asa_deg,
                               tol) * dev)

    # every ray at the antipode: resultant |w - P| / (w + P) for the
    # scattered power P, the largest spread there is when w >= P
    antipode = np.full(ang.shape, wrap_deg(bearing_deg + 180.0))
    p_sum = float(np.sum(ray_powers))
    s_anti = float(analysis._resultant_spread_deg(
        abs(los_weight - p_sum) / (los_weight + p_sum)))
    if los_weight >= p_sum and s_anti < target_asa_deg:
        return antipode

    # growing: the spread is not monotone in the scale once deviations
    # wrap, so probe a log grid (_SCALES[0] = 1 gave s0) and solve on the
    # first upward crossing
    vals, j, chunk = [np.array([s0])], 1, max(1, _ASA_BATCH // dev.size)
    while j < _SCALES.size:
        vals.append(spread(_SCALES[j:j + chunk, None] * rad))
        hit = np.nonzero(vals[-1] >= target_asa_deg)[0]
        if hit.size:
            v, i = np.concatenate(vals), j + hit[0]
            s = _solve(scaled, _SCALES[i - 1], _SCALES[i], v[i - 1], v[i],
                       target_asa_deg, tol)
            return from_dev(s * dev)
        j, chunk = j + chunk, 2 * chunk
    vals = np.concatenate(vals)

    # no uniform scale reaches the target: sweep from the best scaled
    # configuration toward the antipodal one
    k = int(np.argmax(vals))
    base = wrap_deg(_SCALES[k] * dev)
    anti = 180.0 * np.where(base >= 0.0, 1.0, -1.0)
    swept = lambda u: spread(np.deg2rad((1.0 - u) * base + u * anti))
    if s_anti >= target_asa_deg:
        u = _solve(swept, 0.0, 1.0, vals[k], s_anti, target_asa_deg, tol)
        return from_dev((1.0 - u) * base + u * anti)
    return antipode if s_anti >= vals[k] else from_dev(base)


def rescale_zenith(angles_deg, ray_powers, los_weight: float,
                   bearing_deg: float, target_spread_deg: float) -> np.ndarray:
    """Scale zenith deviations to the target power-weighted linear std.

    Linear spread scales exactly with the deviation factor; afterwards
    angles are reflected back into [0, 180], which perturbs the spread
    only when rays were pushed past the poles.
    """
    ang = np.asarray(angles_deg, dtype=float)
    cur = analysis.rms_ds(*_with_direct(ang, ray_powers, los_weight, bearing_deg))
    if cur <= 0:
        return _fold_zenith(ang)
    return _fold_zenith(bearing_deg + (target_spread_deg / cur) * (ang - bearing_deg))


def _fold_zenith(z):
    z = np.mod(np.asarray(z, dtype=float), 360.0)
    return np.where(z > 180.0, 360.0 - z, z)


# ---------------------------------------------------------------------------
# angles


def gen_angles(powers, ray_powers, los_weight: float, asa_deg: float,
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

    Returns (aoa, aod, zoa, zod), each shaped like ray_powers, in degrees.
    """
    p = np.asarray(powers, dtype=float)
    n = p.size
    m = ray_powers.shape[1]
    ratio = p / p.max()
    cp = c_phi(n, k_db)
    ct = c_theta(n, k_db)

    def plane(rescale, bearing, center_dev, spread, c_spread):
        # random sign flips and N(0, spread/7) jitter about the bearing,
        # then the tabulated offsets in a fresh order per cluster
        x = rng.integers(0, 2, n) * 2 - 1
        y = rng.normal(0.0, spread / 7.0, n)
        centers = x * center_dev + y + bearing
        offs = c_spread * ray_offsets(m)
        perm = rng.permuted(np.tile(np.arange(m), (n, 1)), axis=1)
        return rescale(centers[:, None] + offs[perm], ray_powers, los_weight,
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
    """One channel drop, the whole of what ``assemble_cir`` reads."""
    delays_s: np.ndarray          # (N,), sorted, first is 0 (excess delay)
    powers: np.ndarray            # (N,), normalized cluster powers, sum 1
    los_weight: float             # direct-path share, K/(K+1); 0 for NLoS
    ray_powers: np.ndarray        # (N, M); with los_weight they sum to 1
    aoa_deg: np.ndarray           # (N, M)
    aod_deg: np.ndarray
    zoa_deg: np.ndarray
    zod_deg: np.ndarray
    phases: np.ndarray            # (N, M), radians in [-pi, pi)
    geometry: LinkGeometry
    wavelength_m: float           # its parameter set's carrier wavelength
    c_ds_s: float                 # and intra-cluster delay spread
    lsp: dict                     # drawn values this drop realizes

    @property
    def n_clusters(self) -> int:
        return self.delays_s.size

    @property
    def n_rays(self) -> int:
        return self.ray_powers.shape[1]

    @cached_property
    def mpc_arrays(self) -> dict:
        """Flat per-component columns, direct path first when present.

        Cluster index 0 marks the direct path; generated clusters are
        numbered from 1. The direct path has ray index 0 and the carrier
        phase -2 pi d3/lambda; the rays carry their drawn phases. Built
        once per drop; every reader shares its read-only columns.
        """
        g = self.geometry
        n, m = self.ray_powers.shape
        pairs = {   # column: (direct-path value, per-ray values)
            "cluster": (0, np.repeat(np.arange(1, n + 1), m)),
            "ray": (0, np.tile(np.arange(m), n)),
            "delay_s": (0.0, np.repeat(self.delays_s, m)),
            "power": (self.los_weight, self.ray_powers.ravel()),
            "phase": (-2.0 * np.pi * g.d3_m / self.wavelength_m,
                      self.phases.ravel()),
            "aoa_deg": (g.aoa_los_deg, self.aoa_deg.ravel()),
            "zoa_deg": (g.zoa_los_deg, self.zoa_deg.ravel()),
            "aod_deg": (g.aod_los_deg, self.aod_deg.ravel()),
            "zod_deg": (g.zod_los_deg, self.zod_deg.ravel()),
        }
        cols = {k: np.concatenate([[d], r]) if self.los_weight > 0 else r
                for k, (d, r) in pairs.items()}
        for c in cols.values():
            c.flags.writeable = False
        return cols


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
        lsp_vals = {k: float(v[0])
                    for k, v in draw_lsp_iid(params, 1, rng).items()}

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
    ray_p = ((1.0 - w) * powers[:, None]
             * apply_in_cluster_k(params.clusters.rays, params.clusters.c_k_db))
    zsa = 10.0 ** (sup.zsa_log10deg.mu
                   + sup.zsa_log10deg.sigma * rng.standard_normal())
    zsd = 10.0 ** (sup.zsd_log10deg.mu
                   + sup.zsd_log10deg.sigma * rng.standard_normal())
    aoa, aod, zoa, zod = gen_angles(powers, ray_p, w, lsp_vals["asa_deg"],
                                    zsa, zsd, k_db, params, geometry, rng)
    phases = rng.uniform(-np.pi, np.pi, (n, params.clusters.rays))

    return ClusterSet(delays_s=delays, powers=powers, los_weight=w, ray_powers=ray_p,
                      aoa_deg=aoa, aod_deg=aod, zoa_deg=zoa, zod_deg=zod,
                      phases=phases, geometry=geometry,
                      wavelength_m=params.wavelength_m,
                      c_ds_s=params.clusters.c_ds_ns * 1e-9,
                      lsp={**lsp_vals, "k_db": k_db})

