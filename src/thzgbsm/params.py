"""Scenario parameter sets: schema, validation, loading.

A parameter set bundles everything one scenario/condition/source needs:
path loss model coefficients, large-scale parameter distributions
(delay spread, azimuth spread, shadow fading, K-factor), their
cross-correlation matrix, intra-cluster statistics, correlation
distances, and the supplemental quantities the generation recipe needs
but that the measurement campaign did not estimate (delay scaling
factor, per-cluster shadowing, zenith spreads, geometry).

Sets are stored as YAML, one file per (scenario, condition, source).
The bundled files live in ``thzgbsm/data``; the environment variable
``THZ_GBSM_PARAMS_DIR`` points the loader at an alternative directory.
One builder, driven by the spec dataclasses' annotations, reports every
missing, unknown, wrongly typed, non-finite, out-of-range or unlisted
entry by its dotted path; the rules that tie fields together run on the
built set.
"""

# No ``from __future__ import annotations``: _build reads each field's
# type from ``dataclasses.fields`` as an object, not a string.
import os
import sys
import types
import typing
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from functools import cached_property
from pathlib import Path
from typing import Annotated, Literal

import numpy as np
import yaml

SCENARIOS = ("office", "umi")
CONDITIONS = ("los", "nlos")
SOURCES = ("measured", "3gpp")
PATHLOSS_MODELS = ("ci", "umi_nlos_3gpp")

#: Canonical ordering of large-scale parameters in correlation matrices.
LSP_ORDER = ("ds", "asa", "sf", "k")

DATA_ENV_VAR = "THZ_GBSM_PARAMS_DIR"

# Each range is declared once, on the field's type, as an
# Annotated[type, (test, reason)] that _build applies to the built value.
# Numbers left plain are unbounded: every ``mu``, and ``clusters.c_k_db``.
Nonneg = Annotated[float, (lambda v: v >= 0, "must be nonnegative")]
Positive = Annotated[float, (lambda v: v > 0, "must be positive")]
Corr = Annotated[float, (lambda v: -1 <= v <= 1, "must lie in [-1, 1]")]


class ParamValidationError(ValueError):
    """Raised when a parameter set fails validation; lists every issue."""

    def __init__(self, issues):
        self.issues = list(issues)
        super().__init__("invalid parameter set:\n" + "\n".join(f"- {i}" for i in self.issues))


@dataclass
class NormalSpec:
    """Normal law mu + sigma*x, x ~ N(0,1), in the domain the field name
    gives: log10 of the value for ``*_log10*`` fields, dB for ``*_db``."""
    mu: float
    sigma: Nonneg


@dataclass
class PathLossSpec:
    """Reference path-loss fit; generation reads only ``sigma_sf_db``."""
    model: Literal[PATHLOSS_MODELS]
    sigma_sf_db: Nonneg
    ple: Positive | None = None   # close-in exponent; None for the fixed-slope model


@dataclass
class ClusterSpec:
    # one cluster would sit at zero excess delay with the direct path
    count: Annotated[int, (lambda v: v >= 2, "must be at least 2")]
    rays: Annotated[int, (lambda v: 1 <= v <= 20, "must be in 1..20")]
    c_ds_ns: Nonneg
    c_asa_deg: Nonneg
    c_k_db: float
    count_log10: NormalSpec | None = None  # measured count fit; reference only


@dataclass
class SupplementalSpec:
    """Recipe inputs not estimated by the measurement campaign.

    Values follow common 3GPP defaults for the matching scenario and are
    shared verbatim between the measured and 3gpp variants of a scenario
    so that source comparisons isolate the measured statistics.
    """
    r_tau: Annotated[float, (lambda v: v > 1, "must exceed 1")]
    per_cluster_shadow_db: Nonneg
    zsa_log10deg: NormalSpec
    zsd_log10deg: NormalSpec
    c_zsa_deg: Nonneg
    c_zsd_deg: Nonneg


@dataclass
class GeometrySpec:
    bs_height_m: Positive
    mu_height_m: Positive
    annulus_m: tuple[Positive, Positive]   # (min, max) horizontal link distance


@dataclass
class ScenarioParamSet:
    scenario: Literal[SCENARIOS]
    condition: Literal[CONDITIONS]
    source: Literal[SOURCES]
    carrier_frequency_ghz: Positive
    pathloss: PathLossSpec
    ds_log10s: NormalSpec
    asa_log10deg: NormalSpec
    clusters: ClusterSpec
    supplemental: SupplementalSpec
    geometry: GeometrySpec
    corr_dist_m: dict[str, Positive] = field(default_factory=dict)  # keys from LSP_ORDER
    xcorr: dict[str, Corr] = field(default_factory=dict)            # pair keys like "ds_sf"
    k_db: NormalSpec | None = None                                  # LoS only

    # -- derived ---------------------------------------------------------

    @property
    def has_k(self) -> bool:
        return self.k_db is not None

    @property
    def lsp_names(self) -> tuple[str, ...]:
        return LSP_ORDER if self.has_k else LSP_ORDER[:3]

    @property
    def wavelength_m(self) -> float:
        from .constants import SPEED_OF_LIGHT
        return SPEED_OF_LIGHT / (self.carrier_frequency_ghz * 1e9)

    def xcorr_matrix(self) -> np.ndarray:
        """Cross-correlation matrix in LSP_ORDER, as stored (no projection)."""
        names = self.lsp_names
        n = len(names)
        c = np.eye(n)
        for i in range(n):
            for j in range(i + 1, n):
                c[i, j] = c[j, i] = _pair_lookup(self.xcorr, names[i], names[j])
        return c

    @cached_property
    def mixing_matrix(self) -> np.ndarray:
        """Square root (eigh-based) of the PSD-projected cross-correlation,
        built once per set, on first use (a ``replace``d set builds its own)."""
        w, v = np.linalg.eigh(nearest_psd(self.xcorr_matrix()))
        return v @ np.diag(np.sqrt(np.clip(w, 0.0, None))) @ v.T

    def label(self) -> str:
        return f"{self.scenario}_{self.condition}_{self.source}"

    # -- validation and loading ------------------------------------------

    def validate(self) -> None:
        """Check the set as it stands now, for example after a field was
        changed: the same checks ``from_dict`` makes."""
        type(self).from_dict(asdict(self))

    def _cross_field_issues(self) -> list[str]:
        """The rules that tie fields together; each field's own range and
        choices are declared on its type."""
        issues = []
        if self.condition == "los" and self.k_db is None:
            issues.append("k_db: required when condition is los")
        if self.condition == "nlos" and self.k_db is not None:
            issues.append("k_db: must be absent when condition is nlos")
        if self.pathloss.model == "ci" and self.pathloss.ple is None:
            issues.append("pathloss.ple: required for the ci model")
        names = self.lsp_names
        issues += [f"corr_dist_m: unknown parameter {k!r}"
                   for k in self.corr_dist_m if k not in names]
        issues += [f"corr_dist_m: missing entry for {k!r}"
                   for k in names if k not in self.corr_dist_m]
        expected = {_pair_key(a, b) for i, a in enumerate(names) for b in names[i + 1:]}
        issues += [f"xcorr: unexpected pair {k!r}" for k in sorted(self.xcorr.keys() - expected)]
        issues += [f"xcorr: missing pair {k!r}" for k in sorted(expected - self.xcorr.keys())]
        if self.geometry.annulus_m[0] > self.geometry.annulus_m[1]:
            issues.append("geometry.annulus_m: need min <= max")
        return issues

    @classmethod
    def from_dict(cls, d: dict) -> "ScenarioParamSet":
        """Build and validate a set from ``yaml.safe_load`` data; ``d`` is not changed."""
        issues = []
        ps = _build(cls, d, "", issues)
        if ps is not None:
            issues += ps._cross_field_issues()
        if issues:
            raise ParamValidationError(issues)
        return ps


def _build(tp, raw, path: str, issues: list):
    """A value of type ``tp`` built from ``raw``, or None after appending
    one issue per missing, unknown, wrongly typed, non-finite, out-of-range
    or unlisted entry, each named by its dotted path from the document root."""
    where = path or "top level"
    if typing.get_origin(tp) in (typing.Union, types.UnionType):   # X | None: null means absent
        if raw is None:
            return None
        tp = typing.get_args(tp)[0]
    rules = ()
    if typing.get_origin(tp) is Annotated:
        tp, *rules = typing.get_args(tp)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    n_issues = len(issues)
    if is_dataclass(tp) and isinstance(raw, dict):
        specs = {f.name: f for f in fields(tp)}
        issues += [f"{where}: unknown key {k!r}"
                   for k in sorted(raw.keys() - specs.keys(), key=str)]
        issues += [f"{where}: missing key {k!r}" for k, f in specs.items()
                   if k not in raw and f.default is f.default_factory is MISSING]
        kw = {k: _build(f.type, raw[k], _join(path, k), issues)
              for k, f in specs.items() if k in raw}
        return tp(**kw) if len(issues) == n_issues else None
    if origin is dict and isinstance(raw, dict):
        value = {_build(args[0], k, where, issues): _build(args[1], v, _join(path, k), issues)
                 for k, v in raw.items()}
    elif origin is tuple and isinstance(raw, (list, tuple)) and len(raw) == len(args):
        value = tuple(_build(a, v, f"{where}[{i}]", issues)
                      for i, (a, v) in enumerate(zip(args, raw)))
    elif origin is Literal and isinstance(raw, str) and raw in args:
        value = raw
    elif (tp in (float, int, str) and not isinstance(raw, bool)
          and isinstance(raw, (int, float) if tp is float else tp)
          # exact comparison: nan, +-inf and ints past the float range fail
          and (tp is not float or abs(raw) <= sys.float_info.max)):
        value = tp(raw)
    else:
        expected = ("a mapping" if is_dataclass(tp) or origin is dict
                    else f"a list of {len(args)} entries" if origin is tuple
                    else f"one of {args}" if origin is Literal
                    else {float: "a finite number", int: "an integer"}.get(tp, "a string"))
        issues.append(f"{where}: expected {expected}, got {raw!r}")
        return None
    issues += [f"{where}: {reason}, got {value!r}" for test, reason in rules if not test(value)]
    return value if len(issues) == n_issues else None


def _join(path: str, key) -> str:
    return f"{path}.{key}" if path else str(key)


def _pair_key(a: str, b: str) -> str:
    # Stored pair keys follow LSP_ORDER precedence, e.g. "ds_sf", "asa_k".
    ia, ib = LSP_ORDER.index(a), LSP_ORDER.index(b)
    return f"{a}_{b}" if ia < ib else f"{b}_{a}"


def _pair_lookup(xcorr: dict, a: str, b: str) -> float:
    return float(xcorr[_pair_key(a, b)])


def nearest_psd(c: np.ndarray) -> np.ndarray:
    """Project a correlation matrix onto the nearest PSD correlation matrix.

    Symmetric PSD inputs are returned unchanged (a copy). Indefinite
    inputs have their negative eigenvalues clipped to zero and the
    diagonal renormalized back to ones; the result is symmetric PSD with
    unit diagonal. Raises ValueError for non-symmetric or non-unit-diagonal
    input.
    """
    c = np.asarray(c, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError("correlation matrix must be square")
    if not np.allclose(c, c.T, atol=1e-12):
        raise ValueError("correlation matrix must be symmetric")
    if not np.allclose(np.diag(c), 1.0, atol=1e-12):
        raise ValueError("correlation matrix must have unit diagonal")
    w, v = np.linalg.eigh(c)
    if w.min() >= -1e-12:
        return c.copy()
    w = np.clip(w, 0.0, None)
    out = (v * w) @ v.T
    d = np.sqrt(np.diag(out))
    out = out / np.outer(d, d)
    out = (out + out.T) / 2.0
    np.fill_diagonal(out, 1.0)
    return out


def data_dir() -> Path:
    override = os.environ.get(DATA_ENV_VAR)
    if override:
        return Path(override)
    return Path(__file__).parent / "data"


def params_file(scenario: str, condition: str, source: str) -> Path:
    """The file of one set under ``data_dir()``."""
    return data_dir() / f"{scenario}_{condition}_{source}.yaml"


# libyaml's safe loader parses a bundled file about seven times faster
# than the pure-Python one; a PyYAML built without libyaml lacks it
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def _yaml_error(path: Path, text: str, exc: yaml.MarkedYAMLError) -> str:
    """A YAML syntax error as ``<path>:<line>:<column>: <problem>``, 1-based,
    then the context it arose in, each marked line quoted above a caret.
    Both loaders mark the same places, but libyaml's quotes no line."""
    lines = text.splitlines()

    def place(mark) -> str:
        return f"{path}:{mark.line + 1}:{mark.column + 1}"

    def quote(mark) -> str:                 # nothing past the last line
        if mark.line >= len(lines):
            return ""
        return f"\n    {lines[mark.line]}\n    {' ' * mark.column}^"

    pm, cm = exc.problem_mark, exc.context_mark
    msg = f"{place(pm)}: not valid YAML: {exc.problem}{quote(pm)}"
    if exc.context:
        msg += f"\n  {exc.context}"
        if cm is not None:
            msg += f" at {place(cm)}{quote(cm)}"
    return msg


def load_params_file(path) -> list[ScenarioParamSet]:
    """Load one YAML file holding a single set or a list of sets. Issues in
    a list name their entry; two entries for one set are an error."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
        raw = yaml.load(text, Loader=_YAML_LOADER)
    except (yaml.YAMLError, UnicodeDecodeError) as exc:
        marked = getattr(exc, "problem_mark", None) is not None
        raise ParamValidationError([_yaml_error(path, text, exc) if marked else
                                    f"{path}: not valid YAML: {exc}"]) from exc
    if raw is None:
        raise ParamValidationError([f"{path}: file is empty"])
    docs = raw if isinstance(raw, list) else [raw]
    sets, first = [], {}
    for i, doc in enumerate(docs):
        if not isinstance(doc, dict):
            raise ParamValidationError([f"{path}: entry {i} is not a mapping"])
        where = f"{path}: entry {i}:" if isinstance(raw, list) else f"{path}:"
        try:
            ps = ScenarioParamSet.from_dict(doc)
        except ParamValidationError as exc:
            raise ParamValidationError([f"{where} {issue}" for issue in exc.issues]) from exc
        if (j := first.setdefault(ps.label(), i)) != i:
            raise ParamValidationError([f"{path}: entries {j} and {i} are both {ps.label()}"])
        sets.append(ps)
    return sets


def load_params(scenario: str, condition: str, source: str,
                path=None) -> ScenarioParamSet:
    """The set with these coordinates from ``path``, a file holding one
    set or a list; by default ``params_file`` of those coordinates. A
    valid file without that set is a LookupError."""
    path = Path(path or params_file(scenario, condition, source))
    if not path.is_file():
        raise FileNotFoundError(f"parameter file not found: {path}")
    for ps in load_params_file(path):
        if (ps.scenario, ps.condition, ps.source) == (scenario, condition, source):
            return ps
    raise LookupError(f"{path} holds no set for {scenario}/{condition}/{source}")
