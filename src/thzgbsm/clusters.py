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
of being a smeared copy of them. ``build_drop`` draws all of a drop's
random numbers and keeps its angle planes as drawn; ``match_planes``,
which draws none, matches the planes a reader names, the azimuth planes
of many drops as one stacked search, so a reader that names no other
plane among its columns (``ClusterSet.mpc_arrays``) skips the other
matches.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


def rescale_linear(values, powers, los_weight: float, center: float,
                   target: float) -> np.ndarray:
    """Scale deviations from ``center``, the direct path's value, so the
    power-weighted linear spread of the values plus the direct path (when
    los_weight > 0) hits the target.

    The direct path sits at the center, so the spread is homogeneous in
    the deviation scale and one factor is exact. Values without spread
    are returned unchanged.
    """
    v = np.asarray(values, dtype=float)
    x, p = v.ravel(), np.asarray(powers, dtype=float).ravel()
    if los_weight > 0:
        x, p = np.concatenate([[center], x]), np.concatenate([[los_weight], p])
    cur = analysis.rms_ds(x, p)
    if cur <= 0:
        return v.copy()
    return center + (target / cur) * (v - center)


def composite_asa(dev_rad, ray_powers, los_weight):
    """Composite circular spread in degrees of rays at deviations
    ``dev_rad`` from the direct path's bearing in radians, (..., n), plus
    the direct path's share at deviation 0: sqrt(1 - R^2) of the
    resultant R = |w + sum p e^{jd}| (Fleury, IEEE Trans. IT 46(6),
    2000), the spread ``analysis.asa`` takes. The ray powers p, (..., n),
    and the direct share w, (...), broadcast against the deviations and
    their leading axes; they are shares of the total, summing to one as a
    ``ClusterSet``'s do, so no call sums them. Neither the bearing nor a
    wrap of the angles enters, since e^{jx} is 2 pi periodic."""
    # numpy's sum gives a stacked row the bits of the row alone; a BLAS
    # matrix-vector product need not round as its dot product does
    return analysis._resultant_spread_deg(
        np.abs(los_weight + (np.exp(1j * dev_rad) * ray_powers).sum(axis=-1)))


# rescale_azimuth's scale grid, whose scale 0 has spread 0, its coarse
# scales (every 8th from scale 1, and the last) and its fine ones; its
# docstring gives the scan order. _RAD_DEG is the most sqrt(1 - R^2)
# spreads. A row's scan takes chunks of scales doubling from _ASA_BATCH
# ray angles, which amortizes numpy's call overhead on small sets.
# _STACK_ANGLES caps the ray angles of one stacked spread evaluation over
# rows, which bounds its temporaries. np.delete, not np.unique, builds
# _FINE: np.unique's first call costs a fresh process milliseconds.
_SCALES = np.concatenate([[0.0], np.geomspace(1.0, 256.0, 96)])
_COARSE = np.append(np.arange(1, _SCALES.size, 8), _SCALES.size - 1)
_FINE = np.delete(np.arange(2, _SCALES.size), _COARSE[1:] - 2)
_RAD_DEG = float(np.rad2deg(1.0))
_ASA_BATCH = 1024
_STACK_ANGLES = 1 << 12

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


def _spread_tol(target, n: int) -> np.ndarray:
    """How near each ``target`` in degrees the composite spread of n rays
    counts as met: within _SPREAD_RTOL of it, or within the rounding of
    sqrt(1 - R^2) where that is larger, since (n + 1) terms of a few ulps
    in R move a spread of s degrees by about 4 (n + 1) _EPS_DEG2 / s. A
    target of 0 or below is never met."""
    t = np.asarray(target, dtype=float)
    with np.errstate(divide="ignore", over="ignore"):
        return np.where(t > 0, np.maximum(_SPREAD_RTOL * t,
                                          4 * (n + 1) * _EPS_DEG2 / t), 0.0)


def _solve(f, lo, hi, f_lo, f_hi, target, tol) -> np.ndarray:
    """Illinois regula falsi (Dowell & Jarratt, BIT 11, 1971) for
    f(x) = target on [lo, hi], where f_lo = f(lo) < target <= f_hi = f(hi),
    run in lockstep over rows: every argument but f is an (m,) array, and
    f(j, x) gives f of the rows j at the points x.

    Each step evaluates f at the secant through the ends, or at their
    midpoint when the secant leaves the bracket or the end values
    coincide, and the new point replaces the end on its side of the
    target; an end kept twice in a row has its distance to the target
    halved. A row's result is its first point whose f lies within tol of
    the target, else the midpoint once its bracket is as narrow as 60
    halvings make it, or no float lies inside. A row steps with the
    arithmetic it would take alone, so its result does not depend on the
    others.
    """
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    g_lo, g_hi = f_lo - target, f_hi - target
    width = (hi - lo) * 2.0 ** -60
    last = np.zeros(lo.size, dtype=int)     # end replaced last: -1 lo, +1 hi
    met, x_met = np.zeros(lo.size, dtype=bool), np.empty(lo.size)
    j = np.arange(lo.size)                  # rows still stepping
    while True:
        a, b = lo[j], hi[j]
        mid = 0.5 * (a + b)
        go = (b - a > width[j]) & (a < mid) & (mid < b)
        if not go.all():
            j, a, b, mid = j[go], a[go], b[go], mid[go]
        if not j.size:
            break
        ga, gb, kept = g_lo[j], g_hi[j], last[j]
        # the fraction of the bracket lies in [0, 1]: it cannot overflow;
        # rows whose end values coincide take the midpoint, and divide by
        # -1 instead of 0
        secant = gb > ga
        x = np.where(secant, a + (b - a) * (ga / np.where(secant, ga - gb, -1.0)),
                     mid)
        x = np.where((a < x) & (x < b), x, mid)
        g = f(j, x) - target[j]
        below = g < 0.0
        lo[j], hi[j] = np.where(below, x, a), np.where(below, b, x)
        g_lo[j] = np.where(below, g, np.where(kept > 0, 0.5 * ga, ga))
        g_hi[j] = np.where(below, np.where(kept < 0, 0.5 * gb, gb), g)
        last[j] = np.where(below, -1, 1)
        done = np.abs(g) <= tol[j]
        met[j[done]], x_met[j[done]] = True, x[done]
        j = j[~done]
    return np.where(met, x_met, 0.5 * (lo + hi))


def rescale_azimuth(angles_deg, ray_powers, los_weight, bearing_deg,
                    target_asa_deg) -> np.ndarray:
    """Move ray azimuths about the bearing until the composite circular
    spread hits the target, for one drop or for drops stacked on leading
    axes.

    The leading shape is that of ``los_weight``, ``bearing_deg`` and
    ``target_asa_deg`` broadcast together: () for one drop, (d,) for d
    drops. ``angles_deg`` and ``ray_powers`` hold that shape followed by
    each drop's rays, the same count for every drop, and the result has
    the shape of ``angles_deg``. The drops run one search in lockstep,
    each leaving it at its own exit, and a drop's angles are the bits it
    gets alone: every spread of a stacked row is that row's alone
    (``composite_asa``), whatever the rows beside it and however the
    stack is cut into evaluations of at most _STACK_ANGLES ray angles.

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
    all. Rays whose starting spread is below _SPREAD_FLOOR_DEG are left
    as they are.

    The scale grid _SCALES is scanned coarse to fine. The coarse scales
    _COARSE go first; on the first that reaches the target, the fine
    scales of its coarse bracket are evaluated and the solve runs on the
    first fine crossing there. When no coarse scale reaches the target,
    one at most a radian takes the fine scales in order as well, so every
    target a scan of all 96 scales meets is met; one above a radian,
    which nothing reaches, takes the best coarse scale or one of its two
    fine neighbours as the best scaled configuration. A drop evaluates
    exactly the scales it would alone, since the best configuration is
    the best of those.

    Every spread the search takes, the starting one, each scan chunk and
    each solver step, is one ``composite_asa`` of the deviations from the
    bearing, with the powers turned into shares of their total once.
    """
    lead = np.broadcast_shapes(np.shape(los_weight), np.shape(bearing_deg),
                               np.shape(target_asa_deg))
    w, bearing, target = (np.broadcast_to(np.asarray(v, dtype=float),
                                          lead).ravel()
                          for v in (los_weight, bearing_deg, target_asa_deg))
    ang = np.asarray(angles_deg, dtype=float)
    dev = wrap_deg(ang.reshape(w.size, -1) - bearing[:, None])
    rad = np.deg2rad(dev)
    p = np.asarray(ray_powers, dtype=float).reshape(dev.shape)
    p_sum = p.sum(axis=1)
    total = w + p_sum
    shares, w_share = p / total[:, None], w / total
    n = dev.shape[1]

    def spread(rows, dev_of, k=None):
        """Spreads of the rows, one each or k each: composite_asa of the
        deviations dev_of(sl) of the rows at positions sl, (m, n) or
        (m, k, n), in pieces of at most _STACK_ANGLES ray angles (one row
        where its k n alone is more)."""
        out = np.empty((rows.size,) if k is None else (rows.size, k))
        step = max(1, _STACK_ANGLES // ((k or 1) * n))
        for i in range(0, rows.size, step):
            sl = slice(i, i + step)
            r = rows[sl] if k is None else rows[sl, None]
            out[sl] = composite_asa(dev_of(sl), shares[r], w_share[r])
        return out

    vals = np.full((w.size, _SCALES.size), -np.inf)   # -inf: not evaluated
    vals[:, 0] = 0.0

    def at(rows, idx):
        """Spreads at the scale indices idx, (k,) or (rows, k), kept in vals."""
        idx = np.broadcast_to(idx, (rows.size, np.shape(idx)[-1]))
        v = spread(rows, lambda sl: _SCALES[idx[sl], None] * rad[rows[sl], None],
                   idx.shape[1])
        vals[rows[:, None], idx] = v
        return v

    def scan(rows, idx):
        """The first index of idx, in order, whose spread reaches each
        row's target, or 0: chunks of scales doubling from _ASA_BATCH
        angles, a row leaving at the chunk that reaches its target."""
        first = np.zeros(rows.size, dtype=int)
        todo = np.arange(rows.size)
        j, chunk = 0, max(1, _ASA_BATCH // n)
        while j < idx.size and todo.size:
            part = idx[j:j + chunk]
            reach = at(rows[todo], part) >= target[rows[todo], None]
            hit = reach.any(axis=1)
            first[todo[hit]] = part[reach[hit].argmax(axis=1)]
            todo = todo[~hit]
            j, chunk = j + chunk, 2 * chunk
        return first

    every = np.arange(w.size)
    s0 = vals[:, 1] = spread(every, lambda sl: rad[sl])
    out = dev.copy()          # deviations of the result; the floor keeps them

    # every ray at the antipode: resultant |w - P| / (w + P) for the
    # scattered power P, the largest spread there is when w >= P; an s0
    # above it by rounding alone is solved in the scan's first bracket
    s_anti = analysis._resultant_spread_deg(np.abs(w - p_sum) / total)
    live = s0 >= _SPREAD_FLOOR_DEG
    capped = live & (s0 < target) & (w >= p_sum) & (s_anti < target)
    out[capped] = 180.0
    live &= ~capped

    # the spread is not monotone in the scale once deviations wrap, so
    # probe the scale grid and solve on an upward crossing; scale 0
    # (spread 0) only opens the first bracket, and scale 1 gave s0
    tol = _spread_tol(target, n)
    i = np.where(live & (s0 >= target), 1, 0)
    rows = np.flatnonzero(live & (i == 0))
    i[rows] = scan(rows, _COARSE[1:])
    hit = rows[i[rows] > 0]
    if hit.size:
        prev = _COARSE[np.searchsorted(_COARSE, i[hit]) - 1]
        # a bracket narrower than the widest repeats its coarse scale
        width = (i[hit] - prev).max() - 1
        fine = np.minimum(prev[:, None] + 1 + np.arange(width), i[hit, None])
        reach = at(hit, fine) >= target[hit, None]
        i[hit] = np.where(reach.any(axis=1),
                          fine[np.arange(hit.size), reach.argmax(axis=1)], i[hit])
    low = rows[(i[rows] == 0) & (target[rows] <= _RAD_DEG)]
    i[low] = scan(low, _FINE)

    rows = np.flatnonzero(i)
    if rows.size:
        k = i[rows]

        def scaled(j, x):
            return spread(rows[j], lambda sl: x[sl, None] * rad[rows[j][sl]])
        s = _solve(scaled, _SCALES[k - 1], _SCALES[k], vals[rows, k - 1],
                   vals[rows, k], target[rows], tol[rows])
        out[rows] = s[:, None] * dev[rows]

    # no uniform scale reaches the target: sweep from the best scaled
    # configuration toward the antipodal one
    rows = np.flatnonzero(live & (i == 0))
    far = rows[target[rows] > _RAD_DEG]
    if far.size:
        k = np.argmax(vals[far], axis=1)
        below, above = k - 1 > 1, k + 1 < _SCALES.size
        near = np.stack([np.where(below, k - 1, k + 1),
                         np.where(above, k + 1, k - 1)], axis=1)
        at(far, near if (below & above).any() else near[:, :1])
    k = np.argmax(vals[rows], axis=1)
    best = vals[rows, k]
    base = wrap_deg(_SCALES[k, None] * dev[rows])
    anti = 180.0 * np.where(base >= 0.0, 1.0, -1.0)
    out[rows] = np.where((s_anti[rows] >= best)[:, None], 180.0, base)
    sweep = s_anti[rows] >= target[rows]
    if sweep.any():
        rows, base, anti = rows[sweep], base[sweep], anti[sweep]

        def swept(j, x):
            return spread(rows[j], lambda sl: np.deg2rad(
                (1.0 - x[sl, None]) * base[j][sl] + x[sl, None] * anti[j][sl]))
        u = _solve(swept, np.zeros(rows.size), np.ones(rows.size), best[sweep],
                   s_anti[rows], target[rows], tol[rows])
        out[rows] = (1.0 - u)[:, None] * base + u[:, None] * anti
    return wrap_deg(bearing[:, None] + out).reshape(ang.shape)


def rescale_zenith(angles_deg, ray_powers, los_weight: float,
                   bearing_deg: float, target_spread_deg: float) -> np.ndarray:
    """``rescale_linear`` of zenith angles about the bearing, reflected back
    into [0, 180]; the fold perturbs the spread only when rays were pushed
    past the poles."""
    z = np.mod(rescale_linear(angles_deg, ray_powers, los_weight, bearing_deg,
                              target_spread_deg), 360.0)
    return np.where(z > 180.0, 360.0 - z, z)


# ---------------------------------------------------------------------------
# angles


def gen_angles(powers, asa_deg: float, zsa_deg: float, zsd_deg: float,
               k_db: float | None, params: ScenarioParamSet,
               geometry: LinkGeometry, rng) -> dict:
    """Cluster and ray angles for one drop, as drawn.

    Azimuth cluster centers follow the inverse-Gaussian construction,
    zenith centers the inverse-Laplacian one, both centered on the LoS
    bearing with random sign flips and Gaussian perturbations. Rays add
    tabulated offsets (re-centered first-M entries) scaled by the
    intra-cluster spread constants, randomly coupled per cluster. Both
    azimuth planes take the drawn ASA as their spread, the zenith planes
    their drawn ZSA and ZSD.

    Every random number is drawn here and no plane is matched: each is
    returned in a dict by name (aoa_deg, aod_deg, zoa_deg, zod_deg) as
    its drawn (N, M) angles in degrees and the spread ``match_planes``
    matches them to.
    """
    p = np.asarray(powers, dtype=float)
    n = p.size
    m = params.clusters.rays
    ratio = p / p.max()
    cp = c_phi(n, k_db)
    ct = c_theta(n, k_db)
    offs, order = ray_offsets(m), np.tile(np.arange(m), (n, 1))

    def plane(bearing, center_dev, spread, c_spread):
        # random sign flips and N(0, spread/7) jitter about the bearing,
        # then the tabulated offsets in a fresh order per cluster
        x = rng.integers(0, 2, n) * 2 - 1
        y = rng.normal(0.0, spread / 7.0, n)
        centers = x * center_dev + y + bearing
        perm = rng.permuted(order, axis=1)
        return centers[:, None] + (c_spread * offs)[perm], spread

    phi_c = 2.0 * (asa_deg / 1.4) * np.sqrt(-np.log(ratio)) / cp
    c_asa = params.clusters.c_asa_deg
    sup = params.supplemental
    aoa = plane(geometry.aoa_los_deg, phi_c, asa_deg, c_asa)
    aod = plane(geometry.aod_los_deg, phi_c, asa_deg, c_asa)
    zoa = plane(geometry.zoa_los_deg, -(zsa_deg / ct) * np.log(ratio), zsa_deg,
                sup.c_zsa_deg)
    zod = plane(geometry.zod_los_deg, -(zsd_deg / ct) * np.log(ratio), zsd_deg,
                sup.c_zsd_deg)
    return {"aoa_deg": aoa, "aod_deg": aod, "zoa_deg": zoa, "zod_deg": zod}


# ---------------------------------------------------------------------------
# drop assembly


@dataclass
class ClusterSet:
    """One channel drop, the whole of what ``assemble_cir`` reads. Its
    angle planes are kept as drawn, in ``drawn``, and as matched, in
    ``angles``, which only ``match_planes`` fills: each plane is matched
    once per drop, however many readers take it."""
    delays_s: np.ndarray          # (N,), sorted, first is 0 (excess delay)
    powers: np.ndarray            # (N,), normalized cluster powers, sum 1
    los_weight: float             # direct-path share, K/(K+1); 0 for NLoS
    ray_powers: np.ndarray        # (N, M); with los_weight they sum to 1
    drawn: dict                   # angle plane: ((N, M) degrees, its spread)
    phases: np.ndarray            # (N, M), radians in [-pi, pi)
    geometry: LinkGeometry
    wavelength_m: float           # its parameter set's carrier wavelength
    c_ds_s: float                 # and intra-cluster delay spread
    lsp: dict                     # drawn values this drop realizes
    angles: dict = field(default_factory=dict)  # angle plane: (N, M) degrees

    @property
    def n_clusters(self) -> int:
        return self.delays_s.size

    @property
    def n_rays(self) -> int:
        return self.ray_powers.shape[1]

    def mpc_arrays(self, *names: str) -> dict:
        """Flat per-component columns by name, direct path first when
        present; with no names, all nine in table order.

        Cluster index 0 marks the direct path; generated clusters are
        numbered from 1. The direct path has ray index 0 and the carrier
        phase -2 pi d3/lambda; the rays carry their drawn phases. Each
        column is a fresh array, and only the planes named are matched,
        by ``match_planes`` as a set of one drop.
        """
        g = self.geometry
        n, m = self.ray_powers.shape
        table = {   # column: (direct-path value, per-ray values on call)
            "cluster": (0, lambda: np.repeat(np.arange(1, n + 1), m)),
            "ray": (0, lambda: np.tile(np.arange(m), n)),
            "delay_s": (0.0, lambda: np.repeat(self.delays_s, m)),
            "power": (self.los_weight, lambda: self.ray_powers),
            "phase": (-2.0 * np.pi * g.d3_m / self.wavelength_m,
                      lambda: self.phases),
            "aoa_deg": (g.aoa_los_deg, lambda: self.angles["aoa_deg"]),
            "zoa_deg": (g.zoa_los_deg, lambda: self.angles["zoa_deg"]),
            "aod_deg": (g.aod_los_deg, lambda: self.angles["aod_deg"]),
            "zod_deg": (g.zod_los_deg, lambda: self.angles["zod_deg"]),
        }
        names = names or tuple(table)
        match_planes([self], *names)
        cols = {}
        for k in names:
            direct, rays = table[k]             # KeyError for an unknown name
            cols[k] = (np.concatenate([[direct], rays().ravel()])
                       if self.los_weight > 0 else rays().flatten())
        return cols


def match_planes(drops, *names: str) -> None:
    """Match the named angle planes of drops of one set that are not
    matched yet, and keep each in its drop's ``angles``.

    The azimuth planes of every drop go into one stacked
    ``rescale_azimuth`` call, which gives each the bits it gets alone;
    each zenith plane goes through ``rescale_zenith`` on its own. Both
    are looked up in this module on every call. Names that are no plane
    are skipped, so a caller may name every column it reads. No random
    number is drawn.
    """
    todo = [(cs, k) for k in dict.fromkeys(names) for cs in drops
            if k in cs.drawn and k not in cs.angles]

    def args(cs, k):
        # a plane is matched about the direct path's angle: aoa_deg about
        # the geometry's aoa_los_deg
        angles, spread = cs.drawn[k]
        return (angles, cs.ray_powers, cs.los_weight,
                getattr(cs.geometry, k.replace("_deg", "_los_deg")), spread)
    azimuth = [(cs, k) for cs, k in todo if k in ("aoa_deg", "aod_deg")]
    if azimuth:
        stacked = zip(*(args(cs, k) for cs, k in azimuth))
        for (cs, k), plane in zip(azimuth, rescale_azimuth(*map(np.stack, stacked))):
            cs.angles[k] = plane
    for cs, k in todo:
        if k in ("zoa_deg", "zod_deg"):
            cs.angles[k] = rescale_zenith(*args(cs, k))


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
    delays = rescale_linear(delays, (1.0 - w) * powers, w, 0.0, ds)
    ray_p = ((1.0 - w) * powers[:, None]
             * apply_in_cluster_k(params.clusters.rays, params.clusters.c_k_db))
    zsa = 10.0 ** (sup.zsa_log10deg.mu
                   + sup.zsa_log10deg.sigma * rng.standard_normal())
    zsd = 10.0 ** (sup.zsd_log10deg.mu
                   + sup.zsd_log10deg.sigma * rng.standard_normal())
    drawn = gen_angles(powers, lsp_vals["asa_deg"], zsa, zsd, k_db, params,
                       geometry, rng)
    phases = rng.uniform(-np.pi, np.pi, (n, params.clusters.rays))

    return ClusterSet(delays_s=delays, powers=powers, los_weight=w, ray_powers=ray_p,
                      drawn=drawn, phases=phases, geometry=geometry,
                      wavelength_m=params.wavelength_m,
                      c_ds_s=params.clusters.c_ds_ns * 1e-9,
                      lsp={**lsp_vals, "k_db": k_db})

