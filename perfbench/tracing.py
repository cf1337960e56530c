"""Per-layer tracing from outside the package.

The layers are the modules of ``hahnseries``.  ``Tracer.install`` wraps
every public function of a layer module in each other module that binds
it (modules import names directly, so patching the defining module alone
would miss most calls), and the public methods of the classes each layer
defines.  Calls inside one module are left alone: they are not layer
boundaries, and wrapping a recursive function would deepen its recursion.

Coarse layers (cli, parser, series, supports, conditions, classify, verify)
record one span per call.  ``groups`` and ``fields`` are called hundreds of
thousands of times per job, so they keep per-job counters and summed time
instead, and add that time to the innermost open span, whose self time
then excludes it.
"""

from __future__ import annotations

import inspect
import sys
from time import perf_counter

from execute import LAYERS

FINE = ("groups", "fields")
COARSE = tuple(layer for layer in LAYERS if layer not in FINE)
FINE_DUNDERS = frozenset((
    "__add__", "__sub__", "__neg__", "__mul__", "__lt__", "__le__", "__gt__",
    "__ge__", "__eq__", "__hash__", "__str__",
))
REPORT_WORK = ("probes", "pairs_checked", "instances", "families")


class FineLayer:
    __slots__ = ("active", "ops", "new", "time")

    def __init__(self):
        self.active = False
        self.reset()

    def reset(self):
        self.ops = 0
        self.new = 0
        self.time = 0.0


class Tracer:
    """Spans and counters of one traced phase.

    ``spans`` holds ``[layer, name, start, end, parent, job, inner_s]`` lists
    (see ``stats.span_self_times``); ``jobs`` holds per job the
    ``(ops, new, time)`` of each fine layer; ``counts`` holds the layer
    outcome counters, keyed like ``series.terms_out``.
    """

    def __init__(self, package):
        self.pkg = package
        self.spans: list[list] = []
        self.open: list[int] = []
        self.job = None
        self.fine = {layer: FineLayer() for layer in FINE}
        self.jobs: list[dict[str, tuple[int, int, float]]] = []
        self.counts: dict[str, float] = {}
        self.main = None
        self._undo: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self):
        pkg = self.pkg
        namespaces = [pkg] + [m for n, m in sorted(sys.modules.items())
                              if n.startswith(pkg.__name__ + ".")]
        for layer in COARSE + FINE:
            module = getattr(pkg, layer)
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(layer, obj)
                elif inspect.isfunction(obj):
                    wrapped = self._wrap(layer, name, obj)
                    if (layer, name) == ("cli", "main"):
                        self.main = wrapped
                    for ns in namespaces:
                        if ns is not module and getattr(ns, name, None) is obj:
                            self._patch(ns, name, wrapped)

    def uninstall(self):
        for target, name, original in reversed(self._undo):
            setattr(target, name, original)
        self._undo.clear()

    def _patch(self, target, name, value):
        self._undo.append((target, name, vars(target)[name]))
        setattr(target, name, value)

    def _wrap(self, layer, name, fn):
        if layer in FINE:
            return self._wrap_fine(self.fine[layer], fn, counts_new=False)
        return self._wrap_coarse(layer, name, fn)

    def _wrap_class(self, layer, cls):
        for name, attr in list(vars(cls).items()):
            if layer in FINE and name == "__init__":
                self._patch(cls, name, self._wrap_fine(self.fine[layer], attr, counts_new=True))
            elif layer in FINE and isinstance(attr, property) and not name.startswith("_"):
                self._patch(cls, name, property(self._wrap_fine(self.fine[layer], attr.fget, False)))
            elif inspect.isfunction(attr) and (
                not name.startswith("_") or (layer in FINE and name in FINE_DUNDERS)
            ):
                self._patch(cls, name, self._wrap(layer, f"{cls.__name__}.{name}", attr))

    # -- wrappers -----------------------------------------------------------

    def _wrap_coarse(self, layer, name, fn):
        spans, open_ = self.spans, self.open
        observe = getattr(self, "_observe_" + layer)

        def wrapper(*args, **kwargs):
            parent = open_[-1] if open_ else None
            entry = parent is None or spans[parent][0] != layer
            depth = len(open_)
            span = [layer, name, 0.0, 0.0, parent, self.job, 0.0]
            open_.append(len(spans))
            spans.append(span)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if entry:
                    self._count(f"{layer}.raised")
                    observe(name, None, exc)
                raise
            finally:
                span[3] = perf_counter()
                del open_[depth:]
            if entry:
                observe(name, result, None)
            return result

        return wrapper

    def _wrap_fine(self, state, fn, counts_new):
        spans, open_ = self.spans, self.open

        def wrapper(*args, **kwargs):
            if counts_new:
                state.new += 1
            if state.active:
                return fn(*args, **kwargs)
            state.active = True
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                state.active = False
                state.ops += 1
                state.time += elapsed
                if open_:
                    spans[open_[-1]][6] += elapsed

        return wrapper

    # -- jobs -----------------------------------------------------------------

    def begin_job(self, job_id):
        self.job = job_id

    def end_job(self):
        self.jobs.append({layer: (s.ops, s.new, s.time) for layer, s in self.fine.items()})
        for s in self.fine.values():
            s.reset()
        self.job = None

    # -- layer outcome counters -------------------------------------------------
    # Results are read by shape, not by class, so the counters survive
    # refactors of the types behind them.

    def _count(self, key, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount

    def _observe_cli(self, name, result, exc):
        if name == "main" and result == 3:
            self._count("cli.budget_exits")

    def _observe_parser(self, name, result, exc):
        if name == "parse_expression" and result is not None:
            nodes, stack = 0, [result]
            while stack:
                node = stack.pop()
                nodes += 1
                stack.extend(getattr(node, f) for f in ("left", "right", "child")
                             if hasattr(node, f))
            self._count("parser.nodes_out", nodes)

    def _observe_series(self, name, result, exc):
        if hasattr(result, "terms") and hasattr(result, "complete"):
            self._count("series.terms_out", len(result.terms))
            self._count("series.truncated", not result.complete)

    def _observe_supports(self, name, result, exc):
        budget_errors = (self.pkg.TermBudgetExceeded, self.pkg.UnknownWithinBudget)
        if hasattr(result, "points") and hasattr(result, "budget_hit"):
            self._count("supports.points_out", len(result.points))
            self._count("supports.budget_hit", result.budget_hit)
        elif (exc is None and result is None) or isinstance(exc, budget_errors):
            self._count("supports.budget_hit")

    def _observe_conditions(self, name, result, exc):
        if hasattr(result, "outcome"):
            self._count("conditions.checks")
            self._count("conditions.decided", result.outcome != "unknown")

    def _observe_classify(self, name, result, exc):
        if hasattr(result, "flags"):
            undecided = sum(f.value == "unknown" for f in result.flags.values())
            self._count("classify.undecided", undecided)

    def _observe_verify(self, name, result, exc):
        for report in result if isinstance(result, list) else [result]:
            details = getattr(report, "details", None) or {}
            self._count("verify.probes", sum(int(details.get(k, 0)) for k in REPORT_WORK))
