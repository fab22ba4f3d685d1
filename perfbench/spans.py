"""Spans and counters recorded around the toolkit's layer boundaries.

The benchmark wraps public functions of the ``miml`` package from outside,
without editing the package.  Learner modules import their kernels and
solvers with ``from ... import``, so each wrapper replaces the name in the
module that calls it (``miml.dmimlsvm.solve_qp``, not
``miml.solvers.qp.solve_qp``).  ``miml.cli.REGISTRY`` captured every
learner's ``fit``/``predict`` when it was built, so learner spans replace
the registry entries.  A target that no longer exists is reported as an
absent layer; the run goes on without it.

Spans stay in memory (name, start, end, parent, workload) until the run
ends.  A layer's self time is the sum of its spans' durations minus the
time covered by their direct children; calls are single-threaded, so a
child lies wholly inside its parent.
"""

import dataclasses
import functools
import importlib
import time
from collections import defaultdict


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int        # index into Tracer.spans, -1 for a root
    workload: str


class Tracer:
    """Wraps layer functions, records their spans and counters, and puts
    every wrapped name back on :meth:`restore`."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans = []
        self.counters = defaultdict(float)
        self.absent = []
        self._stack = []
        self._originals = []

    # ------------------------------------------------------------ spans

    def call(self, layer, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``layer``; an exception counts
        against the layer as ``<layer>.failed`` and propagates."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(layer, time.perf_counter(), 0.0, parent, self.workload))
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.counters[layer + ".failed"] += 1
            raise
        finally:
            self.spans[idx].end = time.perf_counter()
            self._stack.pop()

    def self_times(self):
        """Self seconds per layer name."""
        out = defaultdict(float)
        for span in self.spans:
            d = span.end - span.start
            out[span.name] += d
            if span.parent >= 0:
                out[self.spans[span.parent].name] -= d
        return dict(out)

    def durations(self, layer):
        """Inclusive seconds of every span named ``layer``, in call order."""
        return [s.end - s.start for s in self.spans if s.name == layer]

    def attribution(self):
        """Self seconds per layer under each learner's fit spans, keyed by
        learner, plus the fit spans' total under ``"total"``."""
        owner = {}
        out = defaultdict(lambda: defaultdict(float))
        for i, span in enumerate(self.spans):
            if span.name.endswith(".fit"):
                owner[i] = span.name[: -len(".fit")]
                out[owner[i]]["total"] += span.end - span.start
            elif span.parent in owner:
                owner[i] = owner[span.parent]
            else:
                continue
            d = span.end - span.start
            out[owner[i]][span.name] += d
            if span.parent in owner:
                out[owner[i]][self.spans[span.parent].name] -= d
        return {k: dict(v) for k, v in out.items()}

    # ---------------------------------------------------------- wrapping

    def wrap(self, target: str, layer: str, count=None):
        """Replace ``module.attr`` (given as a dotted ``target``) by a traced
        version.  ``count(counters, args, kwargs, result)`` runs after each
        successful call.  Returns False, and records the target as absent,
        when the module or attribute does not exist."""
        modname, _, attr = target.rpartition(".")
        try:
            module = importlib.import_module(modname)
            original = getattr(module, attr)
        except (ImportError, AttributeError):
            self.absent.append(target)
            return False
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            result = tracer.call(layer, original, *args, **kwargs)
            if count is not None:
                count(tracer.counters, args, kwargs, result)
            return result

        setattr(module, attr, traced)
        self._originals.append((module, attr, original))
        return True

    def wrap_registry(self, registry, algos):
        """Trace each learner's ``fit`` and ``predict`` through the CLI
        registry, whose entries are frozen dataclasses."""
        for algo in algos:
            entry = registry.get(algo)
            if entry is None or not dataclasses.is_dataclass(entry):
                self.absent.append(f"miml.cli.REGISTRY[{algo!r}]")
                continue
            changes = {}
            for field, layer in (("fit", algo + ".fit"), ("predict", algo + ".predict")):
                fn = getattr(entry, field, None)
                if fn is None:
                    self.absent.append(f"miml.cli.REGISTRY[{algo!r}].{field}")
                    continue
                changes[field] = functools.partial(self.call, layer, fn)
            registry[algo] = dataclasses.replace(entry, **changes)
            self._originals.append((registry, algo, entry))

    def restore(self):
        for owner, key, original in reversed(self._originals):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._originals.clear()
