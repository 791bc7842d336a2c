"""Channel statistics extraction.

Standalone estimators that work on measured or simulated power-delay
data: RMS delay spread, circular azimuth spread, Rician K-factor,
lognormal/normal parameter fits, LSP cross-correlations,
multipath-component clustering by power-weighted K-means on an
embedding whose Euclidean distance is the multipath component distance,
per-cluster spread statistics, and the reports built from them,
including the omnidirectional PDP of directional scans.

Everything here consumes plain arrays, one entry per component or bin,
and knows nothing about the generation side, so the same code runs on
external measurement exports.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .constants import spherical_unit, wrap_deg
from .pathloss import pl_from_pdp

# ---------------------------------------------------------------------------
# spread / K estimators


def rms_ds(delays, powers) -> float:
    """RMS delay spread: power-weighted standard deviation of delay.

    The same statistic serves as the linear (unwrapped) zenith spread
    when given angles in degrees.
    """
    delays = np.asarray(delays, dtype=float)
    p = np.asarray(powers, dtype=float)
    tot = p.sum()
    if tot <= 0:
        raise ValueError("total power must be positive")
    mean = (p * delays).sum() / tot
    return float(np.sqrt((p * (delays - mean) ** 2).sum() / tot))


def asa(azimuth_deg, powers) -> float:
    """Circular azimuth spread in degrees.

    sqrt(1 - R^2) radians with R the power-weighted resultant length
    |sum p e^{j phi}| / sum p, converted to degrees. A single direction
    gives 0; power spread uniformly over the circle saturates at one
    radian (57.2958 deg).
    """
    phi = np.deg2rad(np.asarray(azimuth_deg, dtype=float))
    p = np.asarray(powers, dtype=float)
    tot = p.sum()
    if tot <= 0:
        raise ValueError("total power must be positive")
    return float(_resultant_spread_deg(np.abs((p * np.exp(1j * phi)).sum()) / tot))


def _resultant_spread_deg(r):
    """sqrt(1 - R^2) radians in degrees, R clipped at 1: the spread from
    resultant lengths in ``asa`` and ``clusters.rescale_azimuth``'s search."""
    r = np.minimum(r, 1.0)
    return np.rad2deg(np.sqrt(np.maximum(1.0 - r * r, 0.0)))


def k_factor(powers) -> float:
    """Rician K estimate in dB: strongest component over the rest.

    A profile with a single nonzero component has no diffuse power and
    returns +inf, a flag that keeps medians across clusters defined.
    """
    p = np.asarray(powers, dtype=float)
    p = p[p > 0]
    if p.size == 0:
        raise ValueError("profile has no positive power")
    peak = p.max()
    rest = p.sum() - peak
    if rest <= 0:
        return float("inf")
    return float(10.0 * np.log10(peak / rest))


# ---------------------------------------------------------------------------
# distribution fits and correlations


def fit_lognormal(values) -> tuple[float, float]:
    """(mu, sigma) of log10(values); sigma is the population std."""
    v = np.asarray(values, dtype=float)
    if np.any(v <= 0):
        raise ValueError("lognormal fit needs strictly positive values")
    lg = np.log10(v)
    return float(lg.mean()), float(lg.std())


def fit_normal(values) -> tuple[float, float]:
    """(mu, sigma) with population sigma."""
    v = np.asarray(values, dtype=float)
    return float(v.mean()), float(v.std())


def cross_corr(columns: dict) -> tuple[list[str], np.ndarray]:
    """Pearson correlation matrix over named sample columns."""
    names = list(columns)
    if len(names) < 2:
        raise ValueError("need at least two columns")
    mats = []
    n = None
    for nm in names:
        v = np.asarray(columns[nm], dtype=float)
        if v.ndim != 1:
            raise ValueError(f"column {nm!r} must be 1-D")
        if n is None:
            n = v.size
        elif v.size != n:
            raise ValueError("columns must have equal length")
        if v.std() == 0:
            raise ValueError(f"column {nm!r} has zero variance")
        mats.append(v)
    return names, np.corrcoef(np.stack(mats))


def lsp_cross_corr(ds_s, asa_deg, sf_db, k_db=None) -> tuple[list[str], np.ndarray]:
    """Cross-correlations in the domains the parameter tables use.

    Spreads enter as log10, SF and K in dB. Column order matches the
    parameter files: ds, asa, sf[, k].
    """
    cols = {
        "ds": np.log10(np.asarray(ds_s, dtype=float)),
        "asa": np.log10(np.asarray(asa_deg, dtype=float)),
        "sf": np.asarray(sf_db, dtype=float),
    }
    if k_db is not None:
        cols["k"] = np.asarray(k_db, dtype=float)
    return cross_corr(cols)


# ---------------------------------------------------------------------------
# multipath clustering


def mcd_embedding(delay_s, aoa_deg, zoa_deg, delay_weight: float = 8.0) -> np.ndarray:
    """Embed MPCs so Euclidean distance equals the multipath component
    distance.

    The angular part of the MCD between components i and j is
    ||u_i - u_j|| / 2 with u the arrival unit vectors; the delay part is
    delay_weight * |t_i - t_j| * std(t) / max_spacing^2. Both are norms
    of coordinate differences, so placing each component at
    (u/2, delay_weight * std(t)/max_spacing^2 * t) in R^4 turns the MCD
    into a plain Euclidean distance and weighted K-means into K-power-
    means over the MCD. A delay_weight of 0 clusters on angles only.
    """
    if aoa_deg is None or zoa_deg is None:
        raise ValueError("clustering needs arrival angles, aoa_deg and zoa_deg")
    if not delay_weight >= 0:
        raise ValueError(f"delay_weight must be a nonnegative number, got {delay_weight:g}")
    t, a, z = (np.asarray(v, dtype=float) for v in (delay_s, aoa_deg, zoa_deg))
    if t.ndim != 1 or a.shape != t.shape or z.shape != t.shape:
        raise ValueError("delay_s, aoa_deg and zoa_deg must be matching 1-D arrays")
    if not np.isfinite(np.stack([t, a, z])).all():
        raise ValueError("clustering needs finite delays and arrival angles")
    u = spherical_unit(z, a)
    span = t.max() - t.min()
    if span**2 > 0:                 # a span whose square underflows is none
        scale = delay_weight * t.std() / span**2
    else:
        scale = 0.0
    return np.column_stack([u / 2.0, scale * t])


N_INIT = 10      # K-power-means restarts per fit; the best objective wins
MAX_ITER = 100   # Lloyd iteration cap per restart


class KPowerMeans:
    """Power-weighted K-means over the multipath component distance.

    Follows the estimator convention: construct with hyperparameters,
    ``fit(E, sample_weight)`` with E the rows of ``mcd_embedding``, one
    per component, then read ``labels_``, ``inertia_``,
    ``objective_path_`` and ``n_iter_``.

    The ``N_INIT`` restarts run as one batch in lockstep, each seeded by
    its own child of ``SeedSequence(random_state)``. A restart stops on
    the first iteration whose labels repeat (``MAX_ITER`` at most) and
    leaves the batch. The first restart with the lowest objective wins,
    and ``objective_path_`` and ``n_iter_`` are that restart's.
    A cluster's center is its members' weighted mean; a cluster that
    holds no weight is re-seeded at its restart's worst represented point.
    """

    def __init__(self, n_clusters: int = 3, random_state: int = 0):
        self.n_clusters = n_clusters
        self.random_state = random_state

    def fit(self, E, sample_weight) -> "KPowerMeans":
        E = np.asarray(E, dtype=float)
        if E.ndim != 2:
            raise ValueError("E must be 2-D, one embedded component per row")
        n = E.shape[0]
        k = self.n_clusters
        if not 1 <= k <= n:
            raise ValueError(f"n_clusters must be in 1..{n}")
        w = np.asarray(sample_weight, dtype=float)
        if w.shape != (n,) or np.any(w < 0) or w.sum() <= 0:
            raise ValueError("sample_weight must be nonnegative with positive sum")
        if k > np.count_nonzero(w):
            raise ValueError(f"n_clusters={k} exceeds the number of components "
                             f"with positive weight, {np.count_nonzero(w)}")

        # weight-proportional seeding over distinct points, one generator
        # per restart
        seeds = np.random.SeedSequence(self.random_state).spawn(N_INIT)
        init = [np.random.default_rng(ss).choice(n, size=k, replace=False,
                                                 p=w / w.sum()) for ss in seeds]
        centers = E[np.array(init)]                  # (restart, k, d)
        labels = np.full((N_INIT, n), -1)
        paths = [[] for _ in range(N_INIT)]
        n_iter = np.zeros(N_INIT, dtype=int)
        active = np.arange(N_INIT)
        EW = np.column_stack([E, np.ones(n)])
        for it in range(1, MAX_ITER + 1):
            # (active, k, n) squared distances, one coordinate at a time
            C = centers[active, :, :, None]
            d2 = (E[:, 0] - C[:, :, 0]) ** 2
            for j in range(1, E.shape[1]):
                d2 += (E[:, j] - C[:, :, j]) ** 2
            new = d2.argmin(axis=1)
            wd = w * d2.min(axis=1)
            for r, obj in zip(active, wd.sum(axis=1)):
                paths[r].append(float(obj))
            # a restart whose labels repeat has converged and leaves
            moving = (new != labels[active]).any(axis=1)
            labels[active] = new
            n_iter[active] = it
            active, new, wd = active[moving], new[moving], wd[moving]
            if not active.size:
                break
            # weighted sums and cluster weights in one matmul
            onehot = (new[:, None, :] == np.arange(k)[:, None]) * w
            S = onehot @ EW                          # (active, k, d + 1)
            wc = S[:, :, -1:]
            centers[active] = np.divide(S[:, :, :-1], wc, where=wc > 0,
                                        out=np.zeros_like(S[:, :, :-1]))
            # re-seed an emptied cluster at its restart's currently worst
            # represented point; the next assignment can only lower the
            # objective
            for a, c in zip(*np.nonzero(wc[:, :, 0] <= 0)):
                centers[active[a], c] = E[wd[a].argmax()]

        # first restart with the lowest objective wins
        best = int(np.argmin([path[-1] for path in paths]))
        self.labels_ = labels[best].copy()
        self.inertia_ = paths[best][-1]
        self.objective_path_ = np.asarray(paths[best])
        self.n_iter_ = int(n_iter[best])
        return self


def kpower_means(delay_s, power, aoa_deg, zoa_deg, n_clusters: int,
                 delay_weight: float = 8.0, random_state: int = 0) -> np.ndarray:
    """Cluster labels of multipath components, one per component, by
    K-power-means over the multipath component distance."""
    E = mcd_embedding(delay_s, aoa_deg, zoa_deg, delay_weight)
    km = KPowerMeans(n_clusters=n_clusters, random_state=random_state)
    return km.fit(E, sample_weight=power).labels_


def select_n_clusters(delay_s, power, aoa_deg, zoa_deg, k_max: int = 10,
                      delay_weight: float = 8.0) -> tuple[int, dict, np.ndarray]:
    """Pick a cluster count by a Calinski-Harabasz style ratio.

    Embeds the components once, fits K-power-means to the embedding for
    each k from 2 to ``k_max`` (at most one below the number of
    components) and scores the weighted between/within dispersion ratio;
    returns (best_k, {k: score}, labels), the labels being those of the
    best_k fit, i.e. what ``kpower_means`` returns for best_k. Fewer than
    3 components, or a ``k_max`` below 2, leave no k to score and are a
    ValueError.
    """
    E = mcd_embedding(delay_s, aoa_deg, zoa_deg, delay_weight)
    n = E.shape[0]
    if n < 3 or k_max < 2:
        raise ValueError(f"selecting a cluster count needs at least 3 "
                         f"components and k_max of at least 2, got {n} "
                         f"components and k_max={k_max}")
    w = np.asarray(power, dtype=float)
    gmean = (w[:, None] * E).sum(axis=0) / w.sum()
    total = float((w * ((E - gmean) ** 2).sum(axis=1)).sum())
    scores = {}
    labels = {}
    for k in range(2, min(k_max, n - 1) + 1):
        km = KPowerMeans(n_clusters=k).fit(E, sample_weight=w)
        labels[k] = km.labels_
        within = km.inertia_
        between = max(total - within, 0.0)
        if within <= 0:
            scores[k] = np.inf
        else:
            scores[k] = (between / (k - 1)) / (within / max(n - k, 1))
    best = max(scores, key=lambda k: (scores[k], -k))
    return best, scores, labels[best]


# ---------------------------------------------------------------------------
# per-cluster statistics


@dataclass
class ClusterStats:
    """Intra-cluster spread statistics of labeled multipath components."""
    labels: np.ndarray
    c_ds_ns: np.ndarray
    c_asa_deg: np.ndarray | None  # None without azimuths
    c_k_db: np.ndarray          # +inf flags single-component clusters
    counts: np.ndarray
    medians: dict = field(default_factory=dict)


def cluster_stats(delay_s, power, aoa_deg, labels) -> ClusterStats:
    """Per-cluster delay spread, azimuth spread (None when aoa_deg is None)
    and in-cluster K, with one cluster label per component.

    Single-component clusters report zero spreads and an infinite
    in-cluster K (flagged as +inf, not an exception, so medians across
    clusters stay well defined).
    """
    t, p = np.asarray(delay_s, dtype=float), np.asarray(power, dtype=float)
    a = None if aoa_deg is None else np.asarray(aoa_deg, dtype=float)
    lab = np.asarray(labels)
    if t.ndim != 1 or any(v.shape != t.shape for v in (p, a, lab) if v is not None):
        raise ValueError("power, aoa_deg and labels must match 1-D delay_s in shape")
    uniq = np.unique(lab)
    cds, casa, ck, cnt = [], [], [], []
    for c in uniq:
        m = lab == c
        cds.append(rms_ds(t[m], p[m]) * 1e9)
        if a is not None:
            casa.append(asa(a[m], p[m]))
        ck.append(k_factor(p[m]))
        cnt.append(int(m.sum()))
    cds, ck, cnt = map(np.asarray, (cds, ck, cnt))
    casa = None if a is None else np.asarray(casa)
    medians = {k: float(np.median(v)) for k, v in (
        ("c_ds_ns", cds), ("c_asa_deg", casa), ("c_k_db", ck), ("count", cnt))
        if v is not None}
    return ClusterStats(labels=uniq, c_ds_ns=cds, c_asa_deg=casa,
                        c_k_db=ck, counts=cnt, medians=medians)


# ---------------------------------------------------------------------------
# reports


def _fit(fit, values) -> dict:
    mu, sg = fit(values)
    return {"mu": round(mu, 6), "sigma": round(sg, 6)}


def analyze_mpcs(drop, delay_s, power, aoa_deg, zoa_deg, cluster,
                 max_clusters: int, delay_weight: float) -> tuple[dict, dict]:
    """Report and per-drop columns of multipath components, one array
    entry per component; ``aoa_deg``, ``zoa_deg`` and ``cluster`` may be
    None. Without cluster labels, a drop with azimuths and at least 3
    powered components takes the ``select_n_clusters`` count over 2 to
    ``max_clusters``, and any other drop counts as one cluster. A drop
    without power or with zero delay or azimuth spread is a ValueError."""
    ids, group = np.unique(drop, return_inverse=True)
    rows = []
    for g, d in enumerate(ids):
        m = group == g
        t, p, a, z = (None if v is None else np.asarray(v, dtype=float)[m]
                      for v in (delay_s, power, aoa_deg, zoa_deg))
        if not np.any(p > 0):
            raise ValueError(f"drop {d}: all its power cells are 0, so it "
                             "carries no power")
        if np.ptp(t[p > 0]) == 0:
            raise ValueError(f"drop {d}: all its rows with power share one "
                             "delay, so its delay spread is zero")
        if a is not None and np.ptp(a[p > 0]) == 0:
            raise ValueError(f"drop {d}: all its rows with power share one "
                             "aoa_deg, so its azimuth spread is zero")
        labels = None if cluster is None else np.asarray(cluster)[m]
        # only rows with power can seed a cluster
        n_powered = np.count_nonzero(p)
        if labels is None and a is not None and n_powered >= 3:
            _, _, labels = select_n_clusters(
                t, p, a, z, k_max=min(max_clusters, n_powered - 1),
                delay_weight=delay_weight)
        med = {} if labels is None else cluster_stats(t, p, a, labels).medians
        rows.append({
            "drop": d, "n_mpcs": t.size, "ds_s": rms_ds(t, p),
            "asa_deg": None if a is None else asa(a, p), "k_db": k_factor(p),
            "n_clusters": 1 if labels is None else np.unique(labels).size,
            "c_ds_ns_median": med.get("c_ds_ns"),
            "c_asa_deg_median": med.get("c_asa_deg"),
            "c_k_db_median": med.get("c_k_db")})
    per_drop = {k: [row[k] for row in rows] for k in rows[0]}

    ds, asa_v = per_drop["ds_s"], per_drop["asa_deg"]
    k_finite = [k for k in per_drop["k_db"] if np.isfinite(k)]
    counts = np.array(per_drop["n_clusters"], dtype=float)
    report = {"n_drops": len(rows), "kind": "mpc",
              "ds_log10s": _fit(fit_lognormal, ds)}
    if aoa_deg is not None:
        report["asa_log10deg"] = _fit(fit_lognormal, asa_v)
    if k_finite:
        report["k_db"] = {**_fit(fit_normal, k_finite), "n_finite": len(k_finite)}
    cmed = report["clusters"] = {"count_median": float(np.median(counts))}
    for key, col in per_drop.items():       # c_: per-cluster statistics
        vals = [v for v in col if v is not None]
        if key.startswith("c_") and vals:
            cmed[key] = float(np.median(vals))
    if counts.std() > 0:
        cmed["count_log10"] = _fit(fit_lognormal, counts)
    if aoa_deg is not None and len(rows) >= 3:
        cols = {"ds": np.log10(ds), "asa": np.log10(asa_v)}
        if len(k_finite) == len(rows):
            cols["k"] = np.asarray(k_finite)
        try:
            names, mat = cross_corr(cols)
        except ValueError:              # a statistic without variance
            return report, per_drop
        report["xcorr"] = {
            f"{names[i]}_{names[j]}": round(float(mat[i, j]), 6)
            for i in range(len(names)) for j in range(i + 1, len(names))}
    return report, per_drop


class ThresholdError(ValueError):
    """A noise threshold that removes every bin of a profile."""


def analyze_pdp(directions: dict, delay_s, power, distance_m, noise_floor,
                margin_db) -> dict:
    """Report of power-delay bins, one array entry per bin (linear power).

    ``directions`` maps pointing columns to per-bin angles (empty for one
    profile); bins that share every angle form one directional PDP, in
    which no delay repeats. Every pointing must cover one delay grid. A
    horn sees each path in one pointing only, so the omni profile takes
    the strongest pointing per delay bin. A ``noise_floor`` (or None)
    zeroes the omni bins below noise_floor * 10^(margin_db/10), and a cut
    above every bin is a ThresholdError. The path loss is reported for a
    profile taken at a known ``distance_m`` (or None).
    """
    t, p = np.asarray(delay_s, dtype=float), np.asarray(power, dtype=float)
    if (t.ndim != 1 or t.size == 0 or p.shape != t.shape
            or any(np.shape(v) != t.shape for v in directions.values())):
        raise ValueError("delay_s, power and every direction must be "
                         "matching non-empty 1-D arrays")
    if np.any(p < 0):
        raise ValueError("power must be nonnegative")
    if noise_floor is not None and noise_floor < 0:
        raise ValueError("noise_floor must be nonnegative linear power")
    if noise_floor is not None and margin_db <= 0:
        raise ValueError("margin_db must be positive")
    # (pointing, bin) matrices: pointings in sorted order, bins by delay
    keys = list(zip(*directions.values())) or [()] * t.size
    rank = {key: i for i, key in enumerate(sorted(set(keys)))}
    pointing = np.array([rank[key] for key in keys])
    order = np.lexsort((t, pointing))
    t, pointing = t[order], pointing[order]
    if np.any((np.diff(t) <= 0) & (pointing[1:] == pointing[:-1])):
        raise ValueError("a delay repeats within one pointing")
    n_bins = t.size // len(rank)
    T = t.reshape(-1, n_bins) if np.all(np.bincount(pointing) == n_bins) else None
    # rtol only: the default atol would equate ns-scale delay grids
    if T is None or not np.allclose(T, T[0], rtol=1e-9, atol=0.0):
        raise ValueError("directional PDPs must share one delay grid")
    P = p[order].reshape(-1, n_bins)
    omni = P.max(axis=0)
    if noise_floor is not None:
        cut = noise_floor * 10.0 ** (margin_db / 10.0)
        omni = np.where(omni >= cut, omni, 0.0)
        if not omni.any():
            raise ThresholdError(
                f"noise floor {noise_floor:g} with a {margin_db:g} dB margin "
                f"cuts at {cut:g}, above every bin (the strongest holds "
                f"{P.max():g})")
    report = {
        "kind": "pdp",
        "n_directions": len(rank),
        "ds_ns": round(rms_ds(T[0], omni) * 1e9, 6),
        "k_db": round(k_factor(omni[omni > 0]), 6),
    }
    if "phi_rx_deg" in directions and len(rank) > 1:
        # each pointing's azimuth, weighted by the pointing's total power
        j = list(directions).index("phi_rx_deg")
        report["asa_deg"] = round(asa([key[j] for key in rank], P.sum(axis=1)), 6)
    if distance_m is not None:
        report["pl_db"] = round(pl_from_pdp(omni), 6)
        report["distance_m"] = distance_m
    return report


def roundtrip_checks(drawn, extracted, tol_log10: float,
                     tol_k_db: float) -> list[dict]:
    """Median checks of (drops, 3) arrays of DS (s), ASA (deg) and K (dB),
    re-extracted against drawn: log10 medians within ``tol_log10`` for the
    spreads, dB medians within ``tol_k_db`` for K, unless no drop draws K
    (all NaN)."""
    checks = []
    for j, (name, tol) in enumerate((("ds", tol_log10), ("asa", tol_log10),
                                     ("k", tol_k_db))):
        d, e = drawn[:, j], extracted[:, j]
        if np.all(np.isnan(d)):
            continue
        if name != "k":
            d, e = np.log10(d), np.log10(e)
        dm, em = float(np.median(d)), float(np.median(e))
        checks.append({"statistic": name, "drawn_median": round(dm, 6),
                       "extracted_median": round(em, 6),
                       "delta": round(em - dm, 6), "tolerance": tol,
                       "pass": bool(abs(em - dm) <= tol)})
    return checks
