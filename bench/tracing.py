"""Span tracing for the benchmark's traced run.

The program itself carries no timers, so the benchmark wraps each public
function at the places that call it: the module attribute a caller looks
the function up in. ``cli`` and ``capacity`` import ``build_drop``,
``assemble_cir`` and the like by name, so those names are wrapped in the
importing module; ``clusters.gen_angles`` reaches ``rescale_azimuth``
through its own module global, so that global is wrapped.

Spans are kept in memory as (id, parent id, name, start, end, pass) and
written out when the run ends. A span's self time is its duration minus
the time its child spans cover. A wrap site that no longer exists raises
``MissingSiteError``: a refactor that moves a call must update the table
below instead of silently dropping a layer from the breakdown.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter


class MissingSiteError(RuntimeError):
    """A wrap site named in the table is gone from the program."""


def _ray_tensor_bytes(tracer, args, kwargs, result):
    # complex128 ray tensor (N, M, U, S) built per call
    cs, rx, tx = args[:3]
    tracer.add("coeffs.ray_tensor_bytes",
               cs.n_clusters * cs.n_rays * rx.n_elements * tx.n_elements * 16)


def _gram_eigs(tracer, args, kwargs, result):
    # one Gram eigendecomposition per tone of the transfer function
    tracer.add("capacity.gram_eigs", result.shape[0])


def _grid_cells(tracer, args, kwargs, result):
    tracer.add("fields.grid_cells", result.values.size)


def _lloyd_iterations(tracer, args, kwargs, result):
    tracer.add("analysis.KPowerMeans.fit.n_iter", result.n_iter_)


# (object path, attribute, span name, hook run on the result). The object
# path is a module, or a module plus a class inside it.
SPAN_SITES = [
    ("thzgbsm.cli", "cmd_simulate", "cli.cmd_simulate", None),
    ("thzgbsm.cli", "cmd_analyze", "cli.cmd_analyze", None),
    ("thzgbsm.cli", "cmd_roundtrip", "cli.cmd_roundtrip", None),
    ("thzgbsm.cli", "cmd_capacity", "cli.cmd_capacity", None),
    ("thzgbsm.cli", "generate_lsp", "lsp.generate_lsp", None),
    ("thzgbsm.cli", "build_drop", "clusters.build_drop", None),
    ("thzgbsm.cli", "extract_drop_stats", "clusters.extract_drop_stats", None),
    ("thzgbsm.cli", "assemble_cir", "coeffs.assemble_cir", _ray_tensor_bytes),
    ("thzgbsm.cli", "run_capacity_experiment", "capacity.run_capacity_experiment", None),
    ("thzgbsm.cli", "line_plot", "plotting.line_plot", None),
    ("thzgbsm.capacity", "place_user", "clusters.place_user", None),
    ("thzgbsm.capacity", "draw_lsp_iid", "lsp.draw_lsp_iid", None),
    ("thzgbsm.capacity", "build_drop", "clusters.build_drop", None),
    ("thzgbsm.capacity", "assemble_cir", "coeffs.assemble_cir", _ray_tensor_bytes),
    ("thzgbsm.capacity", "cir_to_ctf", "coeffs.cir_to_ctf", _gram_eigs),
    ("thzgbsm.lsp", "GaussianField", "fields.GaussianField", _grid_cells),
    # build_drop imports draw_lsp_iid from lsp when it draws its own LSPs
    ("thzgbsm.lsp", "draw_lsp_iid", "lsp.draw_lsp_iid", None),
    ("thzgbsm.clusters", "place_user", "clusters.place_user", None),
    ("thzgbsm.clusters", "gen_angles", "clusters.gen_angles", None),
    ("thzgbsm.clusters", "rescale_azimuth", "clusters.rescale_azimuth", None),
    ("thzgbsm.analysis", "select_n_clusters", "analysis.select_n_clusters", None),
    ("thzgbsm.analysis", "kpower_means", "analysis.kpower_means", None),
    ("thzgbsm.analysis", "cluster_stats", "analysis.cluster_stats", None),
    ("thzgbsm.analysis:KPowerMeans", "fit", "analysis.KPowerMeans.fit",
     _lloyd_iterations),
]

# Calls that are too many and too short for a span each: only counted.
# composite_asa is the scalar spread evaluation rescale_azimuth searches with.
COUNT_SITES = [
    ("thzgbsm.clusters", "composite_asa", "clusters.asa_evals"),
]


def _resolve(path: str):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """In-memory span and counter recorder for one single-threaded run."""

    def __init__(self):
        self.spans = []               # (id, parent, name, t0, t1, pass)
        self.counts = Counter()       # (pass, name) -> count
        self.pass_index = 0
        self._stack = []
        self._ids = itertools.count()

    def add(self, name: str, n: int = 1) -> None:
        self.counts[(self.pass_index, name)] += n

    def span(self, name: str, fn, hook=None):
        """``fn`` wrapped so each call records one span named ``name``."""
        spans, stack, ids = self.spans, self._stack, self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans.append((sid, parent, name, t0, t1, self.pass_index))
            if hook is not None:
                hook(self, args, kwargs, result)
            return result
        return traced

    def counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[(self.pass_index, name)] += 1
            return fn(*args, **kwargs)
        return counted

    @contextmanager
    def installed(self, span_sites=None, count_sites=None):
        """Wrap every site for the duration of the block, then restore."""
        span_sites = SPAN_SITES if span_sites is None else span_sites
        count_sites = COUNT_SITES if count_sites is None else count_sites
        plan = []
        for path, attr, name, hook in span_sites:
            obj = _resolve(path)
            plan.append((obj, attr, lambda fn, n=name, h=hook: self.span(n, fn, h)))
        for path, attr, name in count_sites:
            obj = _resolve(path)
            plan.append((obj, attr, lambda fn, n=name: self.counter(n, fn)))
        missing = [f"{getattr(obj, '__name__', obj)}.{attr}"
                   for obj, attr, _ in plan if not hasattr(obj, attr)]
        if missing:
            raise MissingSiteError(
                "wrap sites no longer exist: " + ", ".join(missing)
                + "; update SPAN_SITES/COUNT_SITES in bench/tracing.py")
        saved = []
        try:
            for obj, attr, make in plan:
                orig = obj.__dict__[attr] if attr in vars(obj) else getattr(obj, attr)
                saved.append((obj, attr, orig))
                setattr(obj, attr, make(orig))
            yield self
        finally:
            for obj, attr, orig in reversed(saved):
                setattr(obj, attr, orig)

    # -- summaries -----------------------------------------------------

    def self_times(self):
        """(name, pass, duration, self time) per span."""
        covered = defaultdict(float)
        for sid, parent, name, t0, t1, p in self.spans:
            if parent is not None:
                covered[parent] += t1 - t0
        return [(name, p, t1 - t0, (t1 - t0) - covered[sid])
                for sid, parent, name, t0, t1, p in self.spans]

    def per_pass(self):
        """{pass: {span name: {"calls": n, "self_s": seconds}}}."""
        out = defaultdict(lambda: defaultdict(lambda: {"calls": 0, "self_s": 0.0}))
        for name, p, _, self_s in self.self_times():
            row = out[p][name]
            row["calls"] += 1
            row["self_s"] += self_s
        return out

    def count(self, pass_index: int, name: str) -> int:
        return self.counts.get((pass_index, name), 0)

    def write(self, path) -> None:
        """Spans as JSON lines, then the counters."""
        with open(path, "w") as fh:
            for sid, parent, name, t0, t1, p in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": t0, "end": t1, "pass": p}) + "\n")
            for (p, name), n in sorted(self.counts.items()):
                fh.write(json.dumps({"counter": name, "pass": p, "value": n}) + "\n")
