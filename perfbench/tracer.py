"""In-memory span tracer for the spqm library layers.

`Tracer.install` replaces every plain function named in a layer
module's ``__all__`` with a wrapper that records a span (layer, name,
parent, start, end) per call.  The wrappers are set as module
attributes, so calls between modules and within a module (which look
the name up in the module's globals) are caught as well.  Classes in
``__all__`` are left alone: wrapping them would break ``isinstance``.

Whatever the layers export at start-up is wrapped; a name that is
listed but missing, or a layer that cannot be imported, is skipped, so
a renamed or deleted function drops its metric instead of crashing.

Self time of a span is its duration minus the part of its interval
covered by its child spans.  Per-layer numbers are derived from the
spans of one pass with `summarize`.
"""

import functools
import importlib
import inspect
import time
from collections import Counter

LAYERS = ("fock", "group", "paths", "moments", "dists", "povm")

#: Span layer of the benchmark's own pass and job spans.
BENCH = "bench"


def _increments(args, kwargs, out):
    return out.increments.size


def _kernel_entries(args, kwargs, out):
    return out.N ** 2


def _expm_entries(args, kwargs, out):
    x = args[0] if args else kwargs["x"]
    return getattr(x, "size", 1)


def _fk_paths(args, kwargs, out):
    return out.n_paths


def _fk_ess(args, kwargs, out):
    return out.ess


#: Counts computed from the arguments or results of one call:
#: (layer, function) -> [(count name, extractor)].  An extractor that
#: no longer fits the function's signature or result is skipped.
COMPUTED = {
    ("paths", "sample_wiener"): [("paths.increments", _increments)],
    ("paths", "sample_modified"): [("paths.increments", _increments)],
    ("paths", "refine_path"): [("paths.increments", _increments)],
    ("moments", "build_kernel"): [("moments.kernel_entries", _kernel_entries)],
    ("fock", "matrix_exponential"): [("fock.expm_entries", _expm_entries)],
    ("dists", "feynman_kac_estimate"): [("dists.fk_paths", _fk_paths),
                                        ("dists.fk_ess", _fk_ess)],
}


class Span:
    """One timed call.  `parent` indexes the enclosing span, or is None."""

    __slots__ = ("layer", "name", "parent", "start", "end")

    def __init__(self, layer, name, parent, start):
        self.layer = layer
        self.name = name
        self.parent = parent
        self.start = start
        self.end = None


class Tracer:
    """Collects spans, per-layer error and warning counts, computed counts."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.errors = Counter()
        self.warnings = Counter()
        self.counts = Counter()
        self.functions = []
        self._stack = []
        self._originals = []

    def reset(self):
        """Drop everything recorded so far; keep the installed wrappers."""
        if self._stack:
            raise RuntimeError("cannot reset inside an open span")
        self.spans = []
        self.errors.clear()
        self.warnings.clear()
        self.counts.clear()

    def install(self, package="spqm", layers=LAYERS):
        """Wrap the public functions of each importable layer module.

        `functions` lists the (layer, name) pairs wrapped by the latest
        install; it outlives `uninstall`, for `summarize`.
        """
        self.uninstall()
        self.functions = []
        for layer in layers:
            try:
                module = importlib.import_module(f"{package}.{layer}")
            except ImportError:
                continue
            for name in getattr(module, "__all__", ()):
                func = getattr(module, name, None)
                if inspect.isfunction(func):
                    self.functions.append((layer, name))
                    self._originals.append((module, name, func))
                    setattr(module, name, self._wrap(layer, name, func))

    def uninstall(self):
        """Put back the original functions, in reverse order."""
        while self._originals:
            module, name, func = self._originals.pop()
            setattr(module, name, func)

    def current_layer(self):
        """Layer of the innermost open span, or None outside all spans."""
        return self.spans[self._stack[-1]].layer if self._stack else None

    def _open(self, layer, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(layer, name, parent, self.clock()))
        self._stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def _close(self, span):
        span.end = self.clock()
        self._stack.pop()

    def span(self, layer, name):
        """Context manager recording a span of the benchmark's own code."""
        return _SpanContext(self, layer, name)

    def _wrap(self, layer, name, func):
        extractors = COMPUTED.get((layer, name), ())

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = self._open(layer, name)
            try:
                out = func(*args, **kwargs)
            except BaseException as exc:
                # Count an exception once, in the layer that raised it,
                # not again in every traced caller it passes through.
                if not getattr(exc, "_perfbench_counted", False):
                    self.errors[layer] += 1
                    try:
                        exc._perfbench_counted = True
                    except AttributeError:
                        pass
                raise
            finally:
                self._close(span)
            for count, extract in extractors:
                try:
                    self.counts[count] += extract(args, kwargs, out)
                except (AttributeError, KeyError, IndexError, TypeError):
                    pass
            return out

        return wrapper

    def record_warning(self):
        """Attribute one warning to the innermost open span's layer."""
        self.warnings[self.current_layer() or BENCH] += 1


class _SpanContext:
    def __init__(self, tracer, layer, name):
        self.tracer = tracer
        self.layer = layer
        self.name = name

    def __enter__(self):
        self.span = self.tracer._open(self.layer, self.name)
        return self.span

    def __exit__(self, *exc_info):
        self.tracer._close(self.span)
        return False


def self_times(spans):
    """Self time of every span: duration minus child-covered time.

    Children's intervals are clipped to the parent's and merged, so
    the result holds even if children overlap each other.
    """
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(i)
    out = []
    for span, kids in zip(spans, children):
        intervals = sorted((max(spans[k].start, span.start),
                            min(spans[k].end, span.end)) for k in kids)
        covered, reach = 0.0, span.start
        for lo, hi in intervals:
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((span.end - span.start) - covered)
    return out


def summarize(tracer):
    """Per-function, per-layer and computed metrics of the recorded spans.

    Returns a flat dict of metric name -> value: ``L.F.calls`` and
    ``L.F.self_s`` per wrapped function that exists, ``L.self_s``,
    ``L.errors`` and ``L.warnings`` per layer (always all six), the
    benchmark's own self time as ``bench.self_s``, the computed counts
    and ``dists.ess_ratio`` (sum of ESS over sum of paths).
    """
    metrics = {}
    for layer, name in tracer.functions:
        metrics[f"{layer}.{name}.calls"] = 0
        metrics[f"{layer}.{name}.self_s"] = 0.0
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = 0.0
        metrics[f"{layer}.errors"] = tracer.errors[layer]
        metrics[f"{layer}.warnings"] = tracer.warnings[layer]
    metrics[f"{BENCH}.self_s"] = 0.0
    metrics[f"{BENCH}.warnings"] = tracer.warnings[BENCH]
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        metrics[f"{span.layer}.self_s"] += own
        if span.layer != BENCH:
            metrics[f"{span.layer}.{span.name}.calls"] += 1
            metrics[f"{span.layer}.{span.name}.self_s"] += own
    for count in ("paths.increments", "moments.kernel_entries",
                  "fock.expm_entries"):
        metrics[count] = tracer.counts[count]
    fk_paths = tracer.counts["dists.fk_paths"]
    metrics["dists.ess_ratio"] = (tracer.counts["dists.fk_ess"] / fk_paths
                                  if fk_paths else 0.0)
    return metrics
