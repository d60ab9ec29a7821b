"""Per-layer tracing of the analyzer, attached from outside.

:class:`LayerTracer` wraps public functions of the ``repro`` modules in
place: each wrapped call opens a span on the tracer's own stack, so
nested calls form a tree under the benchmark's per-program root span.
Modules import functions by name (``from repro.linalg.simplex import
solve_lp``), so a function is rebound in every ``repro`` module that
holds it, not only where it is defined.  Methods are rebound on their
class, which subclasses inherit.  Spans stay in memory until
:meth:`LayerTracer.summary` folds them into per-layer totals.

Every ``solve_lp`` call is labelled by the innermost wrapped caller
that has a label (:data:`LP_LABELS`), so a redundancy-prune LP, a
theta probe and a final feasibility solve count separately.  The
backend's ``feasible_point`` is labelled ``solve`` except when the
size-change prover calls it directly, where the LP is that prover's.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from time import perf_counter

#: (layer, defining module, attribute) — ``Class.method`` for methods.
TARGETS = (
    ("interarg.infer", "repro.interarg.inference",
     "infer_interargument_constraints"),
    ("linalg.polyhedron.project", "repro.linalg.polyhedron",
     "Polyhedron.project"),
    ("linalg.polyhedron.join", "repro.linalg.polyhedron", "Polyhedron.join"),
    ("linalg.polyhedron.widen", "repro.linalg.polyhedron",
     "Polyhedron.widen"),
    ("linalg.fm.eliminate_tracked", "repro.linalg.fourier_motzkin",
     "eliminate_all_tracked"),
    ("linalg.fm.prune", "repro.linalg.fourier_motzkin", "prune_redundant"),
    ("linalg.simplex.lp", "repro.linalg.simplex", "solve_lp"),
    ("core.theta", "repro.core.theta", "choose_thetas"),
    ("solve.feasible_point", "repro.solve.simplex_backend",
     "SimplexBackend.feasible_point"),
    ("solve.feasible_point", "repro.solve.simplex_backend",
     "SimplexBackend.feasible_points"),
    ("core.rule_systems", "repro.core.rule_system", "build_rule_systems"),
    ("core.dualize", "repro.core.pipeline", "cached_pair_constraints"),
    ("core.adorn", "repro.core.adornment", "adorned_call_graph"),
    ("core.verify", "repro.core.verifier", "verify_proof"),
    ("lp.parse", "repro.lp.parser", "parse_clause_terms"),
    ("lp.engine", "repro.lp.engine", "SLDEngine.solve"),
    ("methods.argsize", "repro.methods.argsize", "ArgSizeMethod.analyze"),
    ("methods.sizechange", "repro.methods.sizechange",
     "SizeChangeMethod.analyze"),
    ("methods.nonterm", "repro.methods.nonterm",
     "NonTerminationMethod.analyze"),
    ("methods.nonterm.static", "repro.methods.nonterm", "find_static_loops"),
    ("methods.nonterm.sld", "repro.methods.nonterm",
     "hunt_looping_derivation"),
)

LP_LAYER = "linalg.simplex.lp"

#: Wrapped callers that give the LPs under them a label.
LP_LABELS = {
    "linalg.fm.prune": "prune",
    "core.theta": "theta",
    "solve.feasible_point": "solve",
    "linalg.polyhedron.widen": "widen",
    "methods.sizechange": "sizechange",
    "core.verify": "verify",
}
LP_KINDS = ("prune", "theta", "solve", "widen", "sizechange", "verify",
            "other")

#: Every layer the summary reports, in report order.
LAYERS = (
    "interarg.infer",
    "linalg.polyhedron.project",
    "linalg.polyhedron.join",
    "linalg.polyhedron.widen",
    "linalg.fm.eliminate_tracked",
    "linalg.fm.prune",
) + tuple("%s.%s" % (LP_LAYER, kind) for kind in LP_KINDS) + (
    "core.theta",
    "solve.feasible_point",
    "core.rule_systems",
    "core.dualize",
    "core.adorn",
    "core.verify",
    "lp.parse",
    "lp.engine",
    "methods.argsize",
    "methods.sizechange",
    "methods.nonterm",
    "methods.nonterm.static",
    "methods.nonterm.sld",
)

#: Layers whose spans count rows in (first argument) and rows out.
ROW_LAYERS = ("linalg.fm.eliminate_tracked", "linalg.fm.prune")

ROOT = "bench.program"


class Record:
    """One span: a layer name, its interval and its children."""

    __slots__ = ("name", "started", "wall_s", "children", "counters")

    def __init__(self, name, started):
        self.name = name
        self.started = started
        self.wall_s = 0.0
        self.children = []
        self.counters = None


class LayerTracer:
    """Wraps the :data:`TARGETS` and records a span tree per root."""

    def __init__(self):
        self.roots = []  # (label, root record) per traced analysis
        self._stack = []
        self._restore = []

    # -- installation ---------------------------------------------------------

    def install(self):
        """Rebind every target (and every module-level alias of it)."""
        modules = [
            module for name, module in list(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro."))
        ]
        for layer, module_name, attribute in TARGETS:
            owner = sys.modules[module_name]
            if "." in attribute:
                class_name, method = attribute.split(".")
                cls = getattr(owner, class_name)
                original = cls.__dict__[method]
                self._rebind(cls, method, self._wrap(layer, original))
                continue
            original = getattr(owner, attribute)
            wrapper = self._wrap(layer, original)
            for module in modules:
                aliases = [
                    key for key, value in vars(module).items()
                    if value is original
                ]
                for key in aliases:
                    self._rebind(module, key, wrapper)
        return self

    def uninstall(self):
        """Put every original function back."""
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    def _rebind(self, owner, key, wrapper):
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def _wrap(self, layer, function):
        stack = self._stack
        is_lp = layer == LP_LAYER
        rows = layer in ROW_LAYERS
        dualize = layer == "core.dualize"

        def wrapper(*args, **kwargs):
            if not stack:  # outside a traced root: stay transparent
                return function(*args, **kwargs)
            name = _lp_name(stack) if is_lp else layer
            record = Record(name, perf_counter())
            stack[-1].children.append(record)
            stack.append(record)
            started = record.started
            try:
                result = function(*args, **kwargs)
            finally:
                record.wall_s = perf_counter() - started
                stack.pop()
            if rows:
                record.counters = (len(args[0]), len(result))
            elif dualize:
                record.counters = (1 if result[1] else 0,)
            return result

        wrapper.__wrapped__ = function
        wrapper.__name__ = getattr(function, "__name__", layer)
        wrapper.__doc__ = getattr(function, "__doc__", None)
        return wrapper

    # -- recording ------------------------------------------------------------

    @contextmanager
    def root(self, label):
        """One traced root span (one analysis), named by *label*."""
        record = Record(ROOT, perf_counter())
        self._stack.append(record)
        try:
            yield record
        finally:
            record.wall_s = perf_counter() - record.started
            self._stack.pop()
            self.roots.append((label, record))

    # -- reporting ------------------------------------------------------------

    def summary(self):
        """Fold the recorded spans into per-layer totals.

        Returns ``(layers, wall_s)``: ``layers`` maps each layer name to
        a dict with ``calls``, ``wall_s`` (inclusive, counting a layer
        nested in itself once) and ``self_s`` (minus the time covered
        by child spans) plus row counts where recorded; ``wall_s`` is
        the total over root spans.
        """
        layers = {
            name: {"calls": 0, "wall_s": 0.0, "self_s": 0.0}
            for name in LAYERS + (ROOT,)
        }
        for name in ROW_LAYERS:
            layers[name].update(rows_in=0, rows_out=0)
        layers["core.dualize"]["hits"] = 0
        wall = 0.0
        for _, root in self.roots:
            wall += root.wall_s
            _fold(root, layers, ())
        return layers, wall

    def to_spans(self):
        """The recorded trees as :class:`repro.obs.spans.Span` roots
        (the ``repro.trace/1`` schema that ``repro-trace`` renders)."""
        from repro.obs.spans import Span

        def convert(record):
            span = Span(record.name)
            span.started = record.started
            span.wall_s = record.wall_s
            if record.counters is not None:
                keys = (("hits",) if record.name == "core.dualize"
                        else ("rows_in", "rows_out"))
                span.counters = dict(zip(keys, record.counters))
            span.children = [convert(child) for child in record.children]
            return span

        converted = []
        for label, root in self.roots:
            span = convert(root)
            span.attrs["program"] = label
            converted.append(span)
        return converted


def _lp_name(stack):
    """``linalg.simplex.lp.<label>`` for an LP opened under *stack*."""
    for depth in range(len(stack) - 1, -1, -1):
        label = LP_LABELS.get(stack[depth].name)
        if label is None:
            continue
        if (label == "solve" and depth
                and stack[depth - 1].name == "methods.sizechange"):
            label = "sizechange"
        return "%s.%s" % (LP_LAYER, label)
    return "%s.other" % LP_LAYER


def _fold(record, layers, open_layers):
    entry = layers[record.name]
    entry["calls"] += 1
    if record.name not in open_layers:
        entry["wall_s"] += record.wall_s
        open_layers = open_layers + (record.name,)
    entry["self_s"] += max(
        0.0, record.wall_s - sum(child.wall_s for child in record.children)
    )
    if record.counters is not None:
        if record.name == "core.dualize":
            entry["hits"] += record.counters[0]
        else:
            entry["rows_in"] += record.counters[0]
            entry["rows_out"] += record.counters[1]
    for child in record.children:
        _fold(child, layers, open_layers)


def wrapper_cost_s(rounds=20000):
    """Seconds one wrapped call adds, measured on a no-op function.

    The traced run multiplies this by its span count to estimate the
    tracing overhead inside its own wall time.
    """
    tracer = LayerTracer()

    def noop():
        return None

    wrapped = tracer._wrap("calibration", noop)
    best = None
    for _ in range(5):
        tracer.roots = []
        with tracer.root("calibration"):
            started = perf_counter()
            for _ in range(rounds):
                wrapped()
            traced = perf_counter() - started
        started = perf_counter()
        for _ in range(rounds):
            noop()
        plain = perf_counter() - started
        cost = max(0.0, traced - plain) / rounds
        best = cost if best is None else min(best, cost)
    return best
