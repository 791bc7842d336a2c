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

import numpy as np

from .constants import spherical_unit
from .pathloss import pl_from_pdp

# ---------------------------------------------------------------------------
# spread / K estimators


def _per_row(v):
    """A reduction over the last axis: a float for one group of
    components, else the array of one value per row of a stack."""
    return float(v) if np.ndim(v) == 0 else v


def rms_ds(delays, powers):
    """RMS delay spread: power-weighted standard deviation of delay.

    The same statistic serves as the linear (unwrapped) zenith spread
    when given angles in degrees. Like ``asa`` and ``k_factor`` it
    reduces over the last axis: a float for one group of components, one
    value per row of a stack, each with the bits of that row alone.
    """
    delays = np.asarray(delays, dtype=float)
    p = np.asarray(powers, dtype=float)
    tot = p.sum(axis=-1)
    if np.any(tot <= 0):
        raise ValueError("total power must be positive")
    mean = (p * delays).sum(axis=-1) / tot
    return _per_row(np.sqrt((p * (delays - mean[..., None]) ** 2).sum(axis=-1) / tot))


def asa(azimuth_deg, powers):
    """Circular azimuth spread in degrees, over the last axis.

    sqrt(1 - R^2) radians with R the power-weighted resultant length
    |sum p e^{j phi}| / sum p, converted to degrees. A single direction
    gives 0; power spread uniformly over the circle saturates at one
    radian (57.2958 deg).
    """
    phi = np.deg2rad(np.asarray(azimuth_deg, dtype=float))
    p = np.asarray(powers, dtype=float)
    tot = p.sum(axis=-1)
    if np.any(tot <= 0):
        raise ValueError("total power must be positive")
    z = 1j * phi
    np.exp(z, out=z)        # in place: one (drops, components) temporary less
    return _per_row(_resultant_spread_deg(np.abs((p * z).sum(axis=-1)) / tot))


def _resultant_spread_deg(r):
    """sqrt(1 - R^2) radians in degrees, R clipped at 1: the spread from
    resultant lengths in ``asa`` and ``clusters.composite_asa``."""
    r = np.minimum(r, 1.0)
    return np.rad2deg(np.sqrt(np.maximum(1.0 - r * r, 0.0)))


def k_factor(powers):
    """Rician K estimate in dB: strongest component over the rest, over
    the last axis.

    A profile with a single nonzero component has no diffuse power and
    returns +inf, a flag that keeps medians across clusters defined. Any
    other profile has a finite K, also where the rest is too small next
    to the peak to survive the sum.
    """
    p = np.asarray(powers, dtype=float)
    if p.ndim > 1:
        # rows with every power positive and a rest that survives the sum
        # take the profile's arithmetic in lockstep; the others take it alone
        rows = p.reshape(-1, p.shape[-1])
        peak = rows.max(axis=-1)
        rest = rows.sum(axis=-1) - peak
        with np.errstate(divide="ignore", invalid="ignore"):
            k = 10.0 * np.log10(peak / rest)
        odd = np.flatnonzero(~((rest > 0) & (rows > 0).all(axis=-1)))
        k[odd] = [k_factor(rows[i]) for i in odd]
        return k.reshape(p.shape[:-1])
    p = p[p > 0]
    if p.size == 0:
        raise ValueError("profile has no positive power")
    if p.size == 1:
        return float("inf")
    peak = p.max()
    rest = p.sum() - peak
    if rest > 0:
        return float(10.0 * np.log10(peak / rest))
    # the sum rounded the rest away: add it up without the peak, and take
    # logs first, since peak / rest may overflow
    rest = np.delete(p, p.argmax()).sum()
    return float(10.0 * (np.log10(peak) - np.log10(rest)))


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


def lsp_cross_corr(ds_s, asa_deg, sf_db=None, k_db=None) -> tuple[list[str], np.ndarray]:
    """Cross-correlations in the domains the parameter tables use.

    Spreads enter as log10, SF and K in dB. Column order matches the
    parameter files: ds, asa[, sf][, k].
    """
    cols = {
        "ds": np.log10(np.asarray(ds_s, dtype=float)),
        "asa": np.log10(np.asarray(asa_deg, dtype=float)),
    }
    if sf_db is not None:
        cols["sf"] = np.asarray(sf_db, dtype=float)
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

    ``n_clusters`` is one count or a sequence of counts. Every (count,
    restart) pair, ``N_INIT`` restarts per count, runs as one batch in
    lockstep, with the centers padded to the largest count; a padded
    center lies at infinite distance, so it never takes a component. One
    draw of ``default_rng(random_state)`` seeds them all
    (``_seed_indices``): each restart starts from k distinct components
    drawn without replacement with probability proportional to weight,
    and the seeds for k are a prefix of those for k + 1, so each count
    starts where its own one-count fit would. A restart stops on the
    first iteration whose labels repeat (``MAX_ITER`` at most) and
    leaves the batch. Per count, the first restart with the lowest
    objective wins. A cluster's center is its members' weighted mean; a
    cluster that holds no weight is re-seeded at its restart's worst
    represented point.

    For one count, ``labels_`` is (n,), ``inertia_`` a float,
    ``objective_path_`` the winner's objective per iteration and
    ``n_iter_`` its iteration count. For a sequence, ``labels_`` is
    (counts, n), ``inertia_`` (counts,), ``objective_path_`` a list of
    one path per count, and ``n_iter_`` the sum of the winners'
    iteration counts.
    """

    def __init__(self, n_clusters=3, random_state: int = 0):
        self.n_clusters = n_clusters
        self.random_state = random_state

    def fit(self, E, sample_weight) -> "KPowerMeans":
        E = np.asarray(E, dtype=float)
        if E.ndim != 2:
            raise ValueError("E must be 2-D, one embedded component per row")
        n, dim = E.shape
        ks = np.array(self.n_clusters, ndmin=1)
        if ks.ndim != 1 or not ks.size or ks.dtype.kind not in "iu":
            raise ValueError("n_clusters must be an int or a non-empty sequence of ints")
        if not (1 <= ks.min() and ks.max() <= n):
            raise ValueError(f"n_clusters must be in 1..{n}")
        if not np.isfinite(E).all():
            raise ValueError("E must be finite")
        w = np.asarray(sample_weight, dtype=float)
        if not np.isfinite(w).all():
            raise ValueError("sample_weight must be finite")
        if w.shape != (n,) or np.any(w < 0) or w.sum() <= 0:
            raise ValueError("sample_weight must be nonnegative with positive sum")
        k = int(ks.max())
        if k > np.count_nonzero(w):
            raise ValueError(f"n_clusters={k} exceeds the number of components "
                             f"with positive weight, {np.count_nonzero(w)}")

        # One row per (count, restart), count-major. Labels take the
        # narrowest unsigned type that holds the largest count k, so the
        # label passes move bytes; k itself marks "not labeled yet".
        rows = ks.size * N_INIT
        cluster = np.arange(k, dtype=np.min_scalar_type(k))[:, None]
        rank = k - cluster                   # k..1: the first minimum ranks highest
        padded = cluster[:, 0] >= np.repeat(ks, N_INIT)[:, None]   # (rows, k)
        pad_inf = np.where(padded, np.inf, 0.0)
        # Distances do not move with the origin. Taken from the weighted
        # mean, |x|^2 stays near the scale of the distances, so the
        # expansion below loses no digits to an offset such as large
        # absolute delays.
        E = E - (w @ E) / w.sum()
        # |x - c|^2 = |c|^2 + |x|^2 - 2 c.x: center rows [c, |c|^2, 1]
        # times component columns [-2 x; 1; |x|^2]. A padded center is
        # [0, +inf, 1], so its distances are +inf, never NaN.
        A = np.ones((rows, k, dim + 2))
        A[:, :, :dim] = np.tile(E[_seed_indices(w, k, self.random_state)],
                                (ks.size, 1, 1))
        A[padded, :dim] = 0.0
        A[:, :, dim] = (A[:, :, :dim] ** 2).sum(axis=2) + pad_inf
        X = np.vstack([-2.0 * E.T, np.ones(n), (E * E).sum(axis=1)])
        EW = np.column_stack([E, np.ones(n)])
        labels = np.full((rows, n), k, dtype=cluster.dtype)
        objective = np.empty((MAX_ITER, rows))
        n_iter = np.zeros(rows, dtype=int)
        # The active restarts' batch rows, centers, labels and padding,
        # kept compact: a restart that converges is dropped once.
        row, lab = np.arange(rows), labels
        buf = np.empty((rows, k, n))         # the distances, then the one-hot weights
        for it in range(1, MAX_ITER + 1):
            # (active, k, n) squared distances, clipped at 0 against
            # cancellation. The stacked matmul is one small product per
            # row, so a row's distances do not depend on the batch around
            # it; one 2-D product over all rows rounds by its size.
            d2 = buf[:row.size]
            np.matmul(A, X, out=d2)
            mn = d2.min(axis=1)
            if mn.min() < 0:                # else clipping changes nothing
                np.maximum(d2, 0.0, out=d2)
                mn = d2.min(axis=1)
            # the first cluster at the minimum, as argmin picks it
            new = k - ((d2 == mn[:, None]) * rank).max(axis=1)
            wd = np.multiply(w, mn, out=mn)
            objective[it - 1, row] = wd.sum(axis=1)
            # a restart whose labels repeat has converged and leaves
            moving = (new != lab).any(axis=1)
            lab = new
            if not moving.all():
                done = ~moving
                labels[row[done]] = new[done]
                n_iter[row[done]] = it
                keep = np.flatnonzero(moving)
                row, lab, wd, A, pad_inf, padded = (
                    v.take(keep, axis=0) for v in (row, lab, wd, A, pad_inf, padded))
            if not row.size:
                break
            # weighted sums and cluster weights in one matmul; the one-hot
            # 0/1 go straight into floats, where a boolean times w would
            # run through a buffered cast
            onehot = buf[:row.size]
            np.equal(lab[:, None, :], cluster, out=onehot, casting="unsafe")
            np.multiply(onehot, w, out=onehot)
            S = onehot @ EW                          # (active, k, dim + 1)
            wc = S[:, :, -1:]
            # an empty cluster keeps its center; a padded one stays at 0
            np.divide(S[:, :, :-1], wc, where=wc > 0, out=A[:, :, :dim])
            # re-seed an emptied cluster at its restart's currently worst
            # represented point; the next assignment can only lower the
            # objective. A padded cluster stays empty at +inf.
            reseed = (wc[:, :, 0] <= 0) & ~padded
            if reseed.any():
                for a, c in zip(*np.nonzero(reseed)):
                    A[a, c, :dim] = E[wd[a].argmax()]
            A[:, :, dim] = (A[:, :, :dim] ** 2).sum(axis=2) + pad_inf
        # restarts still moving at MAX_ITER stop there
        labels[row] = lab
        n_iter[row] = it

        # per count, the first restart with the lowest objective wins
        final = objective[n_iter - 1, np.arange(rows)].reshape(ks.size, N_INIT)
        best = final.argmin(axis=1) + N_INIT * np.arange(ks.size)
        paths = [objective[:n_iter[b], b].copy() for b in best]
        if np.ndim(self.n_clusters):
            self.labels_ = labels[best].astype(int)
            self.inertia_ = final.min(axis=1)
            self.objective_path_ = paths
            self.n_iter_ = int(n_iter[best].sum())
        else:
            self.labels_ = labels[best[0]].astype(int)
            self.inertia_ = float(final.min())
            self.objective_path_ = paths[0]
            self.n_iter_ = int(n_iter[best[0]])
        return self


def _seed_indices(w, k: int, random_state) -> np.ndarray:
    """(N_INIT, k) initial center indices for ``KPowerMeans``, one row per
    restart: k distinct indices drawn without replacement with
    probability proportional to ``w``, in draw order.

    One generator draws an exponential x per (restart, component), and
    each row takes the k smallest keys x / w (Efraimidis and Spirakis,
    "Weighted random sampling with a reservoir", 2006), the same
    successive weighted sampling as ``Generator.choice(p=w / w.sum())``.
    The keys are compared as log x - log w, which cannot overflow for a
    tiny positive weight; a zero weight's key is +inf, so it is never
    drawn while k does not exceed the number of positive weights. Seeds
    for k are the first k columns of the seeds for k + 1.
    """
    log_w = np.log(w, out=np.full(w.shape, -np.inf), where=w > 0)
    x = np.random.default_rng(random_state).standard_exponential((N_INIT, w.size))
    return np.argsort(np.log(x) - log_w, axis=1)[:, :k]


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

    Embeds the components once, fits K-power-means to the embedding in
    one batch over every k from 2 to ``k_max``, at most one below the
    number of powered components (only those seed a cluster), and scores
    the weighted between/within dispersion ratio over all components;
    returns (best_k, {k: score}, labels), the labels being those of the
    best_k fit, i.e. what ``kpower_means`` returns for best_k unless BLAS
    rounds the batch's padded distance products differently. Fewer than 3
    powered components, or a ``k_max`` below 2, leave no k to score and
    are a ValueError.
    """
    E = mcd_embedding(delay_s, aoa_deg, zoa_deg, delay_weight)
    n = E.shape[0]
    w = np.asarray(power, dtype=float)
    n_powered = np.count_nonzero(w > 0)
    if n_powered < 3 or k_max < 2:
        raise ValueError(f"selecting a cluster count needs at least 3 components and "
                         f"k_max of at least 2, got {n_powered} components and "
                         f"k_max={k_max}, counting only components with power")
    gmean = (w[:, None] * E).sum(axis=0) / w.sum()
    total = float((w * ((E - gmean) ** 2).sum(axis=1)).sum())
    counts = range(2, min(k_max, n_powered - 1) + 1)
    km = KPowerMeans(n_clusters=counts).fit(E, sample_weight=w)
    scores = {}
    for k, within in zip(counts, km.inertia_.tolist()):
        between = max(total - within, 0.0)
        if within <= 0:
            scores[k] = np.inf
        else:
            scores[k] = (between / (k - 1)) / (within / max(n - k, 1))
    best = max(scores, key=lambda k: (scores[k], -k))
    return best, scores, km.labels_[counts.index(best)]


# ---------------------------------------------------------------------------
# per-group statistics


def extract_drop_stats(delay_s, power, aoa_deg=None) -> dict:
    """DS (s), ASA (deg) and K (dB) of one group of components: a drop,
    direct path included, or one cluster of it. ``asa_deg`` is None
    without azimuths. K is the strongest component over the rest, +inf
    for a group with one powered component. Each statistic reduces over
    the last axis, so drops stacked on leading axes give one array per
    statistic, each row the value of that drop alone."""
    return {"ds_s": rms_ds(delay_s, power),
            "asa_deg": None if aoa_deg is None else asa(aoa_deg, power),
            "k_db": k_factor(power)}


def cluster_stats(delay_s, power, aoa_deg, labels) -> dict:
    """Per-cluster columns of labeled components, one label per component:
    ``cluster`` (sorted distinct labels), ``c_ds_ns``, ``c_asa_deg`` (None
    when aoa_deg is None), ``c_k_db`` and ``count``, each statistic
    ``extract_drop_stats`` of the cluster's components. A single-component
    cluster has zero spreads and a K of +inf, so medians across clusters
    stay defined."""
    t, p = np.asarray(delay_s, dtype=float), np.asarray(power, dtype=float)
    a = None if aoa_deg is None else np.asarray(aoa_deg, dtype=float)
    lab = np.asarray(labels)
    if t.ndim != 1 or any(v.shape != t.shape for v in (p, a, lab) if v is not None):
        raise ValueError("power, aoa_deg and labels must match 1-D delay_s in shape")
    uniq, count = np.unique(lab, return_counts=True)
    st = [extract_drop_stats(t[m], p[m], None if a is None else a[m])
          for m in (lab == c for c in uniq)]
    return {"cluster": uniq,
            "c_ds_ns": np.array([s["ds_s"] for s in st]) * 1e9,
            "c_asa_deg": None if a is None else np.array([s["asa_deg"] for s in st]),
            "c_k_db": np.array([s["k_db"] for s in st]),
            "count": count}


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
    without power, with zero delay or azimuth spread, or with power or
    delay cells whose statistics overflow, and a labeled cluster without
    power, is a ValueError."""
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
        # finite cells can still overflow the estimators' sums and squares
        with np.errstate(all="ignore"):
            total, stats = p.sum(), extract_drop_stats(t, p, a)
        if not np.isfinite(total):
            raise ValueError(f"drop {d}: its power cells sum to more than "
                             "the largest float, so its statistics overflow")
        if not np.isfinite(stats["ds_s"]):
            raise ValueError(f"drop {d}: its delay_ns cells lie too far "
                             "apart, so its delay spread overflows")
        labels = None if cluster is None else np.asarray(cluster)[m]
        if labels is not None and (dark := set(labels) - set(labels[p > 0])):
            raise ValueError(f"drop {d}: all power cells of its cluster "
                             f"{min(dark)} are 0, so it carries no power")
        if labels is None and a is not None and np.count_nonzero(p) >= 3:
            _, _, labels = select_n_clusters(t, p, a, z, max_clusters,
                                             delay_weight)
        cl = {} if labels is None else cluster_stats(t, p, a, labels)
        med = {k: float(np.median(v)) for k, v in cl.items()
               if k.startswith("c_") and v is not None}
        rows.append({
            "drop": d, "n_mpcs": t.size, **stats,
            "n_clusters": cl["cluster"].size if cl else 1,
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
        try:
            names, mat = lsp_cross_corr(
                ds, asa_v, k_db=k_finite if len(k_finite) == len(rows) else None)
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
    profile taken at a known ``distance_m`` (or None). Cells whose power
    sum or delay spread overflows a float are a ValueError.
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
    # finite cells can still overflow the estimators' sums and squares
    with np.errstate(all="ignore"):
        total, st = P.sum(), extract_drop_stats(T[0], omni)
    if not np.isfinite(total):
        raise ValueError("the profile's power_linear cells sum to more than "
                         "the largest float, so its statistics overflow")
    if not np.isfinite(st["ds_s"]):
        raise ValueError("the profile's delay_ns cells lie too far apart, so "
                         "its delay spread overflows")
    report = {
        "kind": "pdp",
        "n_directions": len(rank),
        "ds_ns": round(st["ds_s"] * 1e9, 6),
        "k_db": round(st["k_db"], 6),
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
    """Median checks of re-extracted against drawn values, each a dict of
    per-drop ``ds_s``, ``asa_deg`` and ``k_db`` columns: log10 medians
    within ``tol_log10`` for the spreads, dB medians within ``tol_k_db``
    for K, unless no drop draws K (every drawn K None)."""
    checks = []
    for name, key, tol in (("ds", "ds_s", tol_log10),
                           ("asa", "asa_deg", tol_log10),
                           ("k", "k_db", tol_k_db)):
        if all(v is None for v in drawn[key]):
            continue
        d = np.asarray(drawn[key], dtype=float)
        e = np.asarray(extracted[key], dtype=float)
        if name != "k":
            d, e = np.log10(d), np.log10(e)
        dm, em = float(np.median(d)), float(np.median(e))
        checks.append({"statistic": name, "drawn_median": round(dm, 6),
                       "extracted_median": round(em, 6),
                       "delta": round(em - dm, 6), "tolerance": tol,
                       "pass": bool(abs(em - dm) <= tol)})
    return checks
