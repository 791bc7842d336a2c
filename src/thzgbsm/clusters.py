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

Drops travel stacked: ``build_drop`` builds a set as one record,
``Drops``, every array on a leading drop axis (a lone generator builds a
set of one), and the steps below take such stacks. Each drop draws from
its own generator in the order it draws alone, the arithmetic runs once
over the stack, and each drop gets the bits it gets alone. The record
keeps its angle planes as drawn; ``match_planes``, which draws none,
matches those a reader names, one stacked call per plane, so a reader
naming no other plane among its columns skips the other matches.
"""

from __future__ import annotations

from dataclasses import dataclass, field, is_dataclass

import numpy as np

from . import analysis
from .constants import c_phi, c_theta, ray_offsets, wrap_deg
from .params import ScenarioParamSet


@dataclass
class LinkGeometry:
    """BS at the origin, users on the annulus; LoS bearings in degrees."""
    d2_m: np.ndarray
    d3_m: np.ndarray
    aoa_los_deg: np.ndarray
    aod_los_deg: np.ndarray
    zoa_los_deg: np.ndarray
    zod_los_deg: np.ndarray


def geometry_for(params: ScenarioParamSet, x_m, y_m) -> LinkGeometry:
    """Link geometry of users at explicit horizontal positions, each
    field shaped like x and y: one user's for scalars, d users' for 1-D
    arrays."""
    g = params.geometry
    x, y = np.asarray(x_m, dtype=float), np.asarray(y_m, dtype=float)
    d2 = np.hypot(x, y)
    dz = g.mu_height_m - g.bs_height_m
    d3 = np.hypot(d2, dz)
    aod = np.degrees(np.arctan2(y, x))
    zod = np.degrees(np.arccos(np.clip(dz / d3, -1.0, 1.0)))
    aoa = wrap_deg(aod + 180.0)
    zoa = np.degrees(np.arccos(np.clip(-dz / d3, -1.0, 1.0)))
    return LinkGeometry(d2, d3, aoa, aod, zoa, zod)


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
    return geometry_for(params, *(v[0] for v in place_users(params, rng, 1)))


# ---------------------------------------------------------------------------
# generation steps


def _rows(shape, draw, rngs, *per_drop, dtype=float) -> np.ndarray:
    """A (d, *shape) array whose row i is draw(rngs[i], *(a[i] for a in
    per_drop)), stored as drawn: one drop's draw at most is held apart."""
    out = np.empty((len(rngs), *shape), dtype=dtype)
    for row, args in zip(out, zip(rngs, *per_drop)):
        row[...] = draw(*args)
    return out


def gen_delays(n_clusters: int, ds_s, r_tau: float, rng) -> np.ndarray:
    """(d, N) exponential conditional cluster delays, sorted, first at
    zero, for the d delay spreads ``ds_s`` and generators ``rng``."""
    ds = np.asarray(ds_s, dtype=float)
    if n_clusters < 1:
        raise ValueError("n_clusters must be at least 1")
    if np.any(ds <= 0):
        raise ValueError("ds_s must be positive")
    u = 1.0 - _rows((n_clusters,), lambda r: r.random(n_clusters), rng)  # (0, 1]
    tau = -r_tau * ds[:, None] * np.log(u)
    tau.sort(axis=1)
    return tau - tau[:, :1]


def gen_powers(delays_s, ds_s, r_tau: float, zeta_db: float, rng,
               k_linear=None) -> tuple[np.ndarray, np.ndarray]:
    """Cluster powers and direct-path shares for (d, N) delays and d delay
    spreads, generators and, for LoS, Rice factors k.

    Powers decay exponentially in delay with per-cluster lognormal
    shadowing, then normalize to one. The share k/(k+1), 0 without a
    Rice factor, goes to the direct path; it is returned apart from the
    powers, which are not scaled by it.
    """
    tau = np.asarray(delays_s, dtype=float)
    n = tau.shape[1]
    z = (_rows((n,), lambda r: r.normal(0.0, zeta_db, n), rng) if zeta_db > 0
         else np.zeros(tau.shape))
    ds = np.asarray(ds_s, dtype=float)[:, None]
    p = np.exp(-tau * (r_tau - 1.0) / (r_tau * ds)) * 10.0 ** (-z / 10.0)
    p = p / p.sum(axis=1, keepdims=True)
    if k_linear is None:
        return p, np.zeros(len(p))
    k = np.asarray(k_linear, dtype=float)
    return p, k / (k + 1.0)


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


def rescale_linear(values, powers, los_weight, center, target) -> np.ndarray:
    """Scale deviations from ``center``, the direct path's value, so the
    power-weighted linear spread of the values plus the direct path (when
    los_weight > 0) hits the target.

    As in ``rescale_azimuth``, the leading shape is that of
    ``los_weight``, ``center`` and ``target`` broadcast together, and
    ``values`` and ``powers`` hold it followed by each drop's values
    (``analysis.rms_ds`` sums each row alone). The direct path sits at
    the center, so one scale factor is exact. Values without spread are
    returned unchanged.
    """
    w, c, t = (a.reshape(-1, 1) for a in np.broadcast_arrays(
        *(np.asarray(a, dtype=float) for a in (los_weight, center, target))))
    v = np.asarray(values, dtype=float)
    x = v.reshape(len(w), -1)
    p = np.asarray(powers, dtype=float).reshape(x.shape)
    direct = w[:, 0] > 0
    n_direct = np.count_nonzero(direct)
    if 0 < n_direct < len(w):
        # a drop without a direct path sums its own values only: a zero
        # share at the center would change how the sums round
        out = np.empty_like(x)
        for rows in (direct, ~direct):
            out[rows] = rescale_linear(x[rows], p[rows], w[rows, 0], c[rows, 0],
                                       t[rows, 0])
        return out.reshape(v.shape)
    cur = analysis.rms_ds(*((np.concatenate([c, x], axis=1),
                             np.concatenate([w, p], axis=1)) if n_direct
                            else (x, p)))[:, None]
    spread = cur > 0
    scale = t / np.where(spread, cur, 1.0)
    return np.where(spread, c + scale * (x - c), x).reshape(v.shape)


def composite_asa(dev_rad, ray_powers, los_weight):
    """Composite circular spread in degrees of rays at deviations
    ``dev_rad`` from the direct path's bearing in radians, (..., n), plus
    the direct path's share at deviation 0: sqrt(1 - R^2) of the
    resultant R = |w + sum p e^{jd}| (Fleury, IEEE Trans. IT 46(6),
    2000), the spread ``analysis.asa`` takes. The ray powers p, (..., n),
    and the direct share w, (...), broadcast against the deviations and
    their leading axes; they are shares of the total, summing to one as a
    ``Drops`` record's do, so no call sums them. Neither the bearing nor a
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
    spread hits the target, for one drop or a stack.

    The leading shape is that of ``los_weight``, ``bearing_deg`` and
    ``target_asa_deg`` broadcast together, () or (d,); ``angles_deg`` and
    ``ray_powers`` add each drop's rays, as many for every drop. The drops
    run one search in lockstep, each leaving at its own exit; a row's
    spreads are its own (``composite_asa``), however the stack is cut
    into evaluations of at most _STACK_ANGLES ray angles.

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


def rescale_zenith(angles_deg, ray_powers, los_weight, bearing_deg,
                   target_spread_deg) -> np.ndarray:
    """``rescale_linear`` of zenith angles about the bearing, folded back
    into [0, 180], which moves the spread only of rays pushed past a pole."""
    z = np.mod(rescale_linear(angles_deg, ray_powers, los_weight, bearing_deg,
                              target_spread_deg), 360.0)
    return np.where(z > 180.0, 360.0 - z, z)


# ---------------------------------------------------------------------------
# angles


def gen_angles(powers, asa_deg, zsa_deg, zsd_deg, k_db, params: ScenarioParamSet,
               geometry, rng) -> dict:
    """Cluster and ray angles of a stack of drops, as drawn.

    Azimuth cluster centers follow the inverse-Gaussian construction,
    zenith centers the inverse-Laplacian one, both centered on the LoS
    bearing with random sign flips and Gaussian perturbations. Rays add
    tabulated offsets (re-centered first-M entries) scaled by the
    intra-cluster spread constants, randomly coupled per cluster. Both
    azimuth planes take the drawn ASA as their spread, the zenith planes
    their drawn ZSA and ZSD.

    ``powers`` is (d, N), ``geometry`` holds d users, and the spreads,
    ``k_db`` (None for NLoS) and ``rng`` d values each. Every random
    number is drawn here, plane by plane in the order aoa, aod, zoa, zod:
    N sign flips, N jitters, then one permutation of the ray offsets per
    cluster. No plane is matched: each is returned by name as its drawn
    (d, N, M) angles in degrees and the d spreads it is matched to.
    """
    p = np.asarray(powers, dtype=float)
    d, n = p.shape
    m = params.clusters.rays
    log_ratio = np.log(p / p.max(axis=1, keepdims=True))
    cp = np.array([c_phi(n, k) for k in k_db])[:, None]
    ct = np.array([c_theta(n, k) for k in k_db])[:, None]
    offs, order = ray_offsets(m), np.tile(np.arange(m), (n, 1))

    def plane(los, center_dev, spread, c_spread):
        # random sign flips and N(0, spread/7) jitter about the bearing,
        # then the tabulated offsets in a fresh order per cluster, held as
        # uint8 until one gather over the drops
        spread = np.asarray(spread, dtype=float)
        flips = _rows((n,), lambda r: r.integers(0, 2, n), rng, dtype=int)
        jitter = _rows((n,), lambda r, s: r.normal(0.0, s, n), rng,
                       (spread / 7.0).tolist())
        perms = _rows((n, m), lambda r: r.permuted(order, axis=1), rng,
                      dtype=np.uint8)
        bearing = np.asarray(getattr(geometry, los), dtype=float)[:, None]
        centers = (flips * 2 - 1) * center_dev + jitter + bearing
        rays = (c_spread * offs)[perms]
        rays += centers[:, :, None]
        return rays, spread

    phi_c = 2.0 * (np.asarray(asa_deg)[:, None] / 1.4) * np.sqrt(-log_ratio) / cp
    c_asa = params.clusters.c_asa_deg
    sup = params.supplemental
    aoa = plane("aoa_los_deg", phi_c, asa_deg, c_asa)
    aod = plane("aod_los_deg", phi_c, asa_deg, c_asa)
    zoa = plane("zoa_los_deg", -(np.asarray(zsa_deg)[:, None] / ct) * log_ratio,
                zsa_deg, sup.c_zsa_deg)
    zod = plane("zod_los_deg", -(np.asarray(zsd_deg)[:, None] / ct) * log_ratio,
                zsd_deg, sup.c_zsd_deg)
    return {"aoa_deg": aoa, "aod_deg": aod, "zoa_deg": zoa, "zod_deg": zod}


# ---------------------------------------------------------------------------
# drop assembly


def _map(fn, x, *rest):
    """A copy of x with fn of its arrays and the like-placed ones of rest."""
    if isinstance(x, np.ndarray):
        return fn(x, *rest)
    if isinstance(x, dict):
        return {k: _map(fn, v, *(r[k] for r in rest)) for k, v in x.items()}
    if isinstance(x, tuple):
        return tuple(_map(fn, *v) for v in zip(x, *rest))
    if is_dataclass(x):
        return type(x)(**{k: _map(fn, v, *(vars(r)[k] for r in rest))
                          for k, v in vars(x).items()})
    return x


@dataclass
class Drops:
    """The d drops of one set, every array stacked on a leading drop axis.
    Its angle planes are kept as drawn and as matched (``angles``, filled
    by ``match_planes`` once per plane). ``drops[i]`` is drop i as a
    record of one, the row ``assemble_cir`` reads; iteration gives rows."""
    delays_s: np.ndarray          # (d, N), sorted, first is 0 (excess delay)
    powers: np.ndarray            # (d, N), normalized cluster powers, sum 1
    los_weight: np.ndarray        # (d,), direct-path share K/(K+1); 0 for NLoS
    ray_powers: np.ndarray        # (d, N, M); with los_weight they sum to 1
    drawn: dict                   # angle plane: ((d, N, M) degrees, (d,) spreads)
    phases: np.ndarray            # (d, N, M), radians in [-pi, pi)
    geometry: LinkGeometry        # of the d users
    wavelength_m: float           # its parameter set's carrier wavelength
    c_ds_s: float                 # and intra-cluster delay spread
    lsp: dict                     # LSP: (d,) drawn values the drops realize
    angles: dict = field(default_factory=dict)  # angle plane: (d, N, M) degrees
    table: dict = field(default_factory=dict)   # column: (d, components), read-only

    def __len__(self) -> int:
        return len(self.los_weight)

    def __getitem__(self, i: int) -> Drops:
        i = range(len(self))[i]         # IndexError past the end ends iteration
        r = slice(i, i + 1)     # field by field: a quarter of what _map costs
        return Drops(
            self.delays_s[r], self.powers[r], self.los_weight[r],
            self.ray_powers[r], {k: (a[r], s[r]) for k, (a, s) in self.drawn.items()},
            self.phases[r], LinkGeometry(*(v[r] for v in vars(self.geometry).values())),
            self.wavelength_m, self.c_ds_s,
            *({k: v[r] for k, v in f.items()} for f in (self.lsp, self.angles, self.table)))

    @property
    def n_clusters(self) -> int:
        return self.delays_s.shape[1]

    @property
    def n_rays(self) -> int:
        return self.ray_powers.shape[2]

    def columns(self, *names: str) -> dict:
        """Per-component columns by name, (d, components), direct path
        first when the drops have one; with no names, all nine in order.
        Each is built once per record, kept in ``table``, handed out
        read-only, and matches only the planes named (``match_planes``).
        The direct path has cluster and ray index 0 (generated clusters
        count from 1) and the carrier phase -2 pi d3/lambda."""
        g = self.geometry
        d, n, m = self.ray_powers.shape
        ray = np.arange(n * m)
        recipe = {  # column: (direct-path values, per-ray values on call)
            "cluster": (0, lambda: ray // m + 1),
            "ray": (0, lambda: ray % m),
            "delay_s": (0.0, lambda: np.repeat(self.delays_s, m, axis=1)),
            "power": (self.los_weight, lambda: self.ray_powers),
            "phase": (-2.0 * np.pi * g.d3_m / self.wavelength_m,
                      lambda: self.phases),
            **{k: (getattr(g, k[:3] + "_los_deg"), lambda k=k: self.angles[k])
               for k in ("aoa_deg", "zoa_deg", "aod_deg", "zod_deg")},
        }
        names = names or tuple(recipe)
        match_planes(self, *names)
        direct = int(self.los_weight.any())     # shares are never negative
        for k in [k for k in names if k not in self.table]:
            lead, rays = recipe[k]              # KeyError for an unknown name
            rays = rays().reshape(-1, n * m)
            col = self.table[k] = np.empty((d, direct + n * m), rays.dtype)
            col[:, :direct], col[:, direct:] = np.reshape(lead, (-1, 1)), rays
            col.flags.writeable = False
        return {k: self.table[k] for k in names}


def match_planes(drops: Drops, *names: str) -> None:
    """Match the named angle planes of a record not matched yet into its
    ``angles``: the azimuth planes in one ``rescale_azimuth`` call, each
    zenith plane in one ``rescale_zenith`` call, both looked up in this
    module on every call. Names that are no plane are skipped, so a
    caller may name every column it reads. No random number is drawn."""
    todo = [k for k in dict.fromkeys(names)
            if k in drops.drawn and k not in drops.angles]

    def args(k):    # matched about the direct path's angle: aoa_los_deg
        angles, spread = drops.drawn[k]
        return (angles, drops.ray_powers, drops.los_weight,
                getattr(drops.geometry, k[:3] + "_los_deg"), spread)
    azimuth = [k for k in todo if k in ("aoa_deg", "aod_deg")]
    if azimuth:
        matched = rescale_azimuth(*map(np.concatenate, zip(*map(args, azimuth))))
        drops.angles.update(zip(azimuth, np.split(matched, len(azimuth))))
    for k in todo:
        if k not in azimuth:
            drops.angles[k] = rescale_zenith(*args(k))


# build_drop stacks the drops of a set in pieces of at most this many ray
# angles, float planes of at most 1 MiB. Stacked whole, a 5,000-drop
# umi_nlos_3gpp roundtrip peaked at 313 MB against 296 MB built drop by
# drop; in pieces it peaks at 298 MB (2-core x86-64 VM).
_BUILD_ANGLES = 1 << 17


def build_drop(params: ScenarioParamSet, rng, geometry=None,
               lsp_vals=None) -> Drops:
    """The drops of one set as one record, each from its own generator.

    ``rng`` is a sequence of d generators, or one, which builds a set of
    one. ``geometry``, when given, is the ``LinkGeometry`` of the d users
    (``geometry_for``); ``lsp_vals`` holds columns of d values, as
    ``draw_lsp_iid`` and ``generate_lsp`` return them (floats for one
    generator), with ds_s and asa_deg, and k_db for a LoS set. Drops given
    neither place their users and draw their LSPs (``lsp.draw_lsp_iid``).

    A drop draws, in order: the user, the LSPs, the cluster delays, the
    per-cluster shadowing, the zenith spreads of arrival and departure,
    the angle planes (``gen_angles``) and the ray phases. A set is built
    in pieces of at most _BUILD_ANGLES ray angles, which bounds the
    temporaries. The zenith spreads' and K's powers of ten are taken per
    drop in Python floats, which numpy's power on arrays does not round
    alike. No plane is matched.
    """
    rngs = [rng] if isinstance(rng, np.random.Generator) else list(rng)
    d, los = len(rngs), params.condition == "los"
    def per_drop(v):
        return np.atleast_1d(np.asarray(v, dtype=float))
    if lsp_vals is not None:
        for k in ("ds_s", "asa_deg", "k_db")[:3 if los else 2]:
            if k not in lsp_vals:
                raise ValueError(f"lsp_vals for {params.label()} have no {k} column")
        lsp_vals = {k: per_drop(v) for k, v in lsp_vals.items()}
    if geometry is not None:
        geometry = LinkGeometry(*map(per_drop, vars(geometry).values()))
    shapes = set()
    _map(lambda a: shapes.add(a.shape), (geometry, lsp_vals))
    if shapes - {(d,)}:
        raise ValueError(f"{d} drops of {params.label()} need one geometry and "
                         "one value of each LSP column per drop")
    n, m = params.clusters.count, params.clusters.rays
    step = max(1, _BUILD_ANGLES // (n * m))
    if d > step:
        out = None
        for i in range(0, d, step):
            c = slice(i, i + step)
            piece = build_drop(params, rngs[c], _map(lambda a: a[c], geometry),
                               _map(lambda a: a[c], lsp_vals))
            out = out or _map(lambda a: np.empty((d, *a.shape[1:]), a.dtype), piece)
            _map(lambda o, a: o.__setitem__(c, a), out, piece)
        return out
    if geometry is None:
        x, y = _rows((2,), lambda r: np.ravel(place_users(params, r, 1)), rngs).T
        geometry = geometry_for(params, x, y)
    if lsp_vals is None:
        from .lsp import draw_lsp_iid
        lsp_vals = draw_lsp_iid(params, d, rngs)
    k_db = [float(k) for k in lsp_vals["k_db"]] if los else [None] * d
    k_lin = [10.0 ** (k / 10.0) for k in k_db] if los else None
    sup = params.supplemental
    ds = np.asarray(lsp_vals["ds_s"], dtype=float)
    delays = gen_delays(n, ds, sup.r_tau, rngs)
    powers, w = gen_powers(delays, ds, sup.r_tau, sup.per_cluster_shadow_db,
                           rngs, k_lin)
    delays = rescale_linear(delays, (1.0 - w)[:, None] * powers, w, 0.0, ds)
    ray_p = ((1.0 - w)[:, None, None] * powers[:, :, None]
             * apply_in_cluster_k(m, params.clusters.c_k_db))
    za, zd = sup.zsa_log10deg, sup.zsd_log10deg
    zsa, zsd = np.array([(10.0 ** (za.mu + za.sigma * r.standard_normal()),
                          10.0 ** (zd.mu + zd.sigma * r.standard_normal()))
                         for r in rngs]).T
    drawn = gen_angles(powers, np.asarray(lsp_vals["asa_deg"], dtype=float),
                       zsa, zsd, k_db, params, geometry, rngs)
    phases = _rows((n, m), lambda r: r.uniform(-np.pi, np.pi, (n, m)), rngs)
    return Drops(
        delays_s=delays, powers=powers, los_weight=w, ray_powers=ray_p,
        drawn=drawn, phases=phases, geometry=geometry,
        wavelength_m=params.wavelength_m, c_ds_s=params.clusters.c_ds_ns * 1e-9,
        lsp={k: np.array(v, dtype=float) for k, v in lsp_vals.items()
             if los or k != "k_db"})
