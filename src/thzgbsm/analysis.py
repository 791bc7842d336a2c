"""Channel statistics extraction.

Standalone estimators that work on measured or simulated power-delay
data: omnidirectional PDP synthesis from directional scans, noise
thresholding, RMS delay spread, circular azimuth spread, Rician
K-factor, lognormal/normal parameter fits, LSP cross-correlations,
multipath-component clustering by power-weighted K-means over a
multipath component distance, and per-cluster spread statistics.

Everything here consumes plain arrays (or the small dataclasses below)
and knows nothing about the generation side, so the same code runs on
external measurement exports.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .constants import wrap_deg

# ---------------------------------------------------------------------------
# containers


@dataclass
class Pdp:
    """Power-delay profile on a uniform delay grid (linear power)."""
    delays_s: np.ndarray
    powers: np.ndarray
    direction: dict | None = None   # e.g. {"phi_rx_deg": 30.0, ...}

    def __post_init__(self):
        self.delays_s = np.asarray(self.delays_s, dtype=float)
        self.powers = np.asarray(self.powers, dtype=float)
        if self.delays_s.shape != self.powers.shape or self.delays_s.ndim != 1:
            raise ValueError("delays_s and powers must be matching 1-D arrays")
        if self.delays_s.size == 0:
            raise ValueError("empty profile")
        if np.any(np.diff(self.delays_s) <= 0):
            raise ValueError("delays_s must be strictly increasing")
        if np.any(self.powers < 0):
            raise ValueError("powers must be nonnegative")


@dataclass
class MpcSet:
    """Discrete multipath components, optionally labeled by cluster."""
    delay_s: np.ndarray
    power: np.ndarray
    aoa_deg: np.ndarray | None = None
    zoa_deg: np.ndarray | None = None
    labels: np.ndarray | None = None

    def __post_init__(self):
        self.delay_s = np.asarray(self.delay_s, dtype=float)
        self.power = np.asarray(self.power, dtype=float)
        if self.delay_s.shape != self.power.shape or self.delay_s.ndim != 1:
            raise ValueError("delay_s and power must be matching 1-D arrays")
        for name in ("aoa_deg", "zoa_deg"):
            v = getattr(self, name)
            if v is not None:
                v = np.asarray(v, dtype=float)
                if v.shape != self.delay_s.shape:
                    raise ValueError(f"{name} must match delay_s in shape")
                setattr(self, name, v)
        if self.labels is not None:
            self.labels = np.asarray(self.labels)
            if self.labels.shape != self.delay_s.shape:
                raise ValueError("labels must match delay_s in shape")

    def __len__(self):
        return self.delay_s.size


# ---------------------------------------------------------------------------
# PDP synthesis and cleaning


def synth_omni(pdps: list[Pdp]) -> Pdp:
    """Omnidirectional PDP from directional scans: per-bin maximum.

    Directional sounding with horn antennas sees each path in one
    pointing only, so the omni profile is reconstructed by taking the
    strongest observation per delay bin across pointings.
    """
    if not pdps:
        raise ValueError("need at least one directional PDP")
    base = pdps[0].delays_s
    for p in pdps[1:]:
        # rtol only: the default atol would equate ns-scale delay grids
        if (p.delays_s.shape != base.shape
                or not np.allclose(p.delays_s, base, rtol=1e-9, atol=0.0)):
            raise ValueError("directional PDPs must share one delay grid")
    powers = np.max(np.stack([p.powers for p in pdps]), axis=0)
    return Pdp(delays_s=base.copy(), powers=powers)


def threshold(pdp: Pdp, noise_floor: float, margin_db: float) -> Pdp:
    """Zero out bins below noise_floor * 10^(margin_db/10).

    Emits a warning and still returns the (all-zero) profile when the
    cut removes everything, so callers can distinguish an over-aggressive
    margin from an empty measurement.
    """
    if noise_floor < 0:
        raise ValueError("noise_floor must be nonnegative linear power")
    if margin_db <= 0:
        raise ValueError("margin_db must be positive")
    cut = noise_floor * 10.0 ** (margin_db / 10.0)
    kept = np.where(pdp.powers >= cut, pdp.powers, 0.0)
    if not kept.any():
        import warnings
        warnings.warn("threshold removed every bin; margin_db too aggressive "
                      "for this profile", RuntimeWarning, stacklevel=2)
    return Pdp(delays_s=pdp.delays_s.copy(), powers=kept, direction=pdp.direction)


# ---------------------------------------------------------------------------
# spread / K estimators


def _delays_powers(a, powers):
    if isinstance(a, Pdp):
        return a.delays_s, a.powers
    if powers is None:
        raise ValueError("powers required when not passing a Pdp")
    return np.asarray(a, dtype=float), np.asarray(powers, dtype=float)


def rms_ds(pdp_or_delays, powers=None) -> float:
    """RMS delay spread: power-weighted standard deviation of delay.

    The same statistic serves as the linear (unwrapped) zenith spread
    when given angles in degrees.
    """
    delays, p = _delays_powers(pdp_or_delays, powers)
    tot = p.sum()
    if tot <= 0:
        raise ValueError("total power must be positive")
    mean = (p * delays).sum() / tot
    return float(np.sqrt((p * (delays - mean) ** 2).sum() / tot))


def asa(azimuth_deg, powers) -> float | np.ndarray:
    """Circular azimuth spread in degrees.

    sqrt(1 - R^2) radians with R the power-weighted resultant length
    |sum p e^{j phi}| / sum p, converted to degrees. A single direction
    gives 0; power spread uniformly over the circle saturates at one
    radian (57.2958 deg).

    Sums run over the last axis: 1-D inputs give a float, stacked (k, n)
    rows give (k,) spreads, each equal bit for bit to its row's 1-D call.
    """
    phi = np.deg2rad(np.asarray(azimuth_deg, dtype=float))
    p = np.asarray(powers, dtype=float)
    tot = p.sum(axis=-1)
    if (tot <= 0).any():
        raise ValueError("total power must be positive")
    r = np.minimum(np.abs((p * np.exp(1j * phi)).sum(axis=-1)) / tot, 1.0)
    s = np.rad2deg(np.sqrt(np.maximum(1.0 - r * r, 0.0)))
    return float(s) if s.ndim == 0 else s


def k_factor(pdp_or_powers, powers=None) -> float:
    """Rician K estimate in dB: strongest component over the rest.

    A profile with a single nonzero component has no diffuse power and
    returns +inf, a flag that keeps medians across clusters defined.
    """
    if isinstance(pdp_or_powers, Pdp):
        p = pdp_or_powers.powers
    else:
        p = np.asarray(pdp_or_powers if powers is None else powers, dtype=float)
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
    means over the MCD.
    """
    from .coeffs import spherical_unit
    t = np.asarray(delay_s, dtype=float)
    u = spherical_unit(zoa_deg, aoa_deg)
    span = t.max() - t.min()
    if span > 0:
        scale = delay_weight * t.std() / span**2
    else:
        scale = 0.0
    return np.column_stack([u / 2.0, scale * t])


N_INIT = 10      # K-power-means restarts per fit; the best objective wins
MAX_ITER = 100   # Lloyd iteration cap per restart


class KPowerMeans:
    """Power-weighted K-means over the multipath component distance.

    Follows the estimator convention: construct with hyperparameters,
    ``fit(X, sample_weight)`` with X columns (delay_s, aoa_deg, zoa_deg),
    then read ``labels_``, ``cluster_centers_`` (same column layout),
    ``inertia_``, ``objective_path_`` and ``n_iter_``.

    The ``N_INIT`` restarts run as one batch in lockstep, each seeded by
    its own child of ``SeedSequence(random_state)``. A restart stops on
    the first iteration whose labels repeat (``MAX_ITER`` at most) and
    leaves the batch. The first restart with the lowest objective wins,
    and ``objective_path_`` and ``n_iter_`` are that restart's.
    A cluster's center is its members' weighted mean, or their unweighted
    mean when every member has zero weight.
    """

    def __init__(self, n_clusters: int = 3, delay_weight: float = 8.0,
                 random_state: int = 0):
        self.n_clusters = n_clusters
        self.delay_weight = delay_weight
        self.random_state = random_state

    def fit(self, X, sample_weight=None) -> "KPowerMeans":
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != 3:
            raise ValueError("X must be (n, 3): delay_s, aoa_deg, zoa_deg")
        n = X.shape[0]
        k = self.n_clusters
        if not 1 <= k <= n:
            raise ValueError(f"n_clusters must be in 1..{n}")
        w = np.ones(n) if sample_weight is None else np.asarray(sample_weight, dtype=float)
        if w.shape != (n,) or np.any(w < 0) or w.sum() <= 0:
            raise ValueError("sample_weight must be nonnegative with positive sum")
        if k > np.count_nonzero(w):
            raise ValueError(f"n_clusters={k} exceeds the number of components "
                             f"with positive weight, {np.count_nonzero(w)}")

        E = mcd_embedding(X[:, 0], X[:, 1], X[:, 2], self.delay_weight)
        # weight-proportional seeding over distinct points, one generator
        # per restart
        seeds = np.random.SeedSequence(self.random_state).spawn(N_INIT)
        init = [np.random.default_rng(ss).choice(n, size=k, replace=False,
                                                 p=w / w.sum()) for ss in seeds]
        centers = E[np.array(init)]                  # (restart, k, 4)
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
            S = onehot @ EW                          # (active, k, 5)
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
        self.cluster_centers_ = self._centers_to_domain(E, X, self.labels_, w, k)
        return self

    @staticmethod
    def _centers_to_domain(E, X, labels, w, k):
        out = np.zeros((k, 3))
        for c in range(k):
            m = labels == c
            if not m.any():
                out[c] = np.nan
                continue
            wc = w[m] if w[m].sum() > 0 else np.ones(np.count_nonzero(m))
            out[c, 0] = (wc * X[m, 0]).sum() / wc.sum()
            u = (wc[:, None] * 2.0 * E[m, :3]).sum(axis=0) / wc.sum()
            norm = np.linalg.norm(u)
            if norm > 0:
                out[c, 1] = np.degrees(np.arctan2(u[1], u[0]))
                out[c, 2] = np.degrees(np.arccos(np.clip(u[2] / norm, -1, 1)))
        return out


def kpower_means(mpcs: MpcSet, n_clusters: int, delay_weight: float = 8.0,
                 random_state: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Cluster an MpcSet; returns (labels, centers) in domain units."""
    if mpcs.aoa_deg is None or mpcs.zoa_deg is None:
        raise ValueError("clustering needs arrival angles on the MpcSet")
    km = KPowerMeans(n_clusters=n_clusters, delay_weight=delay_weight,
                     random_state=random_state)
    X = np.column_stack([mpcs.delay_s, mpcs.aoa_deg, mpcs.zoa_deg])
    km.fit(X, sample_weight=mpcs.power)
    return km.labels_, km.cluster_centers_


def select_n_clusters(mpcs: MpcSet, k_min: int = 2, k_max: int = 10,
                      delay_weight: float = 8.0, random_state: int = 0
                      ) -> tuple[int, dict, np.ndarray]:
    """Pick a cluster count by a Calinski-Harabasz style ratio.

    Fits K-power-means for each k and scores the weighted between/within
    dispersion ratio; returns (best_k, {k: score}, labels), the labels
    being those of the best_k fit, i.e. what
    ``kpower_means(mpcs, best_k, delay_weight, random_state)`` returns.
    """
    if mpcs.aoa_deg is None or mpcs.zoa_deg is None:
        raise ValueError("clustering needs arrival angles on the MpcSet")
    X = np.column_stack([mpcs.delay_s, mpcs.aoa_deg, mpcs.zoa_deg])
    w = mpcs.power
    E = mcd_embedding(mpcs.delay_s, mpcs.aoa_deg, mpcs.zoa_deg, delay_weight)
    gmean = (w[:, None] * E).sum(axis=0) / w.sum()
    total = float((w * ((E - gmean) ** 2).sum(axis=1)).sum())
    n = len(mpcs)
    scores = {}
    labels = {}
    for k in range(k_min, min(k_max, n - 1) + 1):
        km = KPowerMeans(n_clusters=k, delay_weight=delay_weight,
                         random_state=random_state)
        km.fit(X, sample_weight=w)
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
    """Intra-cluster spread statistics for one labeled MpcSet."""
    labels: np.ndarray
    c_ds_ns: np.ndarray
    c_asa_deg: np.ndarray
    c_k_db: np.ndarray          # +inf flags single-component clusters
    counts: np.ndarray
    medians: dict = field(default_factory=dict)


def cluster_stats(mpcs: MpcSet, labels=None) -> ClusterStats:
    """Per-cluster delay spread, azimuth spread and in-cluster K.

    Single-component clusters report zero spreads and an infinite
    in-cluster K (flagged as +inf, not an exception, so medians across
    clusters stay well defined).
    """
    lab = labels if labels is not None else mpcs.labels
    if lab is None:
        raise ValueError("cluster labels required (fit KPowerMeans first)")
    lab = np.asarray(lab)
    uniq = np.unique(lab)
    cds, casa, ck, cnt = [], [], [], []
    for c in uniq:
        m = lab == c
        p = mpcs.power[m]
        cds.append(rms_ds(mpcs.delay_s[m], p) * 1e9)
        if mpcs.aoa_deg is not None:
            casa.append(asa(mpcs.aoa_deg[m], p))
        else:
            casa.append(np.nan)
        ck.append(k_factor(p))
        cnt.append(int(m.sum()))
    cds, casa, ck = map(np.asarray, (cds, casa, ck))
    cnt = np.asarray(cnt)
    medians = {
        "c_ds_ns": float(np.median(cds)),
        "c_asa_deg": float(np.median(casa)),
        "c_k_db": float(np.median(ck)),
        "count": float(np.median(cnt)),
    }
    return ClusterStats(labels=uniq, c_ds_ns=cds, c_asa_deg=casa,
                        c_k_db=ck, counts=cnt, medians=medians)
