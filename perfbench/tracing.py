"""Span tracing at the module boundaries of ``lcsgame``, from outside.

The tracer never edits the package: ``install`` rebinds public names in the
``lcsgame`` modules to timing wrappers and ``uninstall`` puts the originals
back.  Every wrapped call becomes a span (name, start, end, parent span,
op id).  Calls, inclusive time and self time (duration minus the time the
span's child spans cover) are aggregated online, so the per-layer numbers
are exact however many spans there are; the spans themselves are kept in
memory up to a cap and written out at the end of the run.

A wrapper's own bookkeeping counts towards the wrapped name's inclusive and
self time, and towards the time its parent's children cover, so it never
lands in the caller's self time.  The graph-primitive wrappers run millions
of times and each costs about a microsecond, so their absolute times are
inflated: use them to attribute time between layers, not as speeds.

``legal_moves`` and ``apply_move`` are wrapped where ``engine`` and
``strategies`` call them, not in ``solver``: the solver's principal-variation
walk stays in ``solver.pv`` and the search core, and the engine metrics
count only engine and strategy work.
"""

from __future__ import annotations

import time
from array import array

from lcsgame import engine, graphs, qgraph, reductions, solver, strategies
from lcsgame.engine import Strategy

GRAPH_PRIMITIVES = ("component_of", "components_within",
                    "largest_component_order", "induced")
ENGINE_MOVES = ("legal_moves", "apply_move")
_CLIENT_MODULES = (solver, engine, qgraph, strategies, reductions)


def _call(fn, *args, **kwargs):
    return fn(*args, **kwargs)


class NullTracer:
    """Tracer stand-in for the untraced runs: records no spans.

    With ``rss_probe`` set it keeps the resident-set growth of the solve
    that expanded the most states, for ``solver.bytes_per_state``.
    """

    op_id = -1

    def __init__(self, rss_probe: bool = False):
        self.rss_probe = rss_probe
        self.rss_growth = 0
        self.rss_states = 0

    def note_rss(self, growth: int, states: int) -> None:
        if states > self.rss_states:
            self.rss_growth, self.rss_states = growth, states

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def strategy(self, strat: Strategy) -> Strategy:
        return strat


class _Agg:
    __slots__ = ("calls", "total_ns", "self_ns")

    def __init__(self):
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0


class Tracer:
    """In-memory span recorder with online per-name aggregation."""

    rss_probe = False

    def __init__(self, span_cap: int = 500_000):
        self.op_id = -1
        self.span_cap = span_cap
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.aggs: dict[str, _Agg] = {}
        self.counters: dict[str, int] = {}
        # one frame per open span: [span id, ns covered by its children]
        self._stack: list[list[int]] = []
        self.spans_started = 0
        self._sid = array("q")
        self._name = array("l")
        self._start = array("q")
        self._end = array("q")
        self._parent = array("q")
        self._op = array("q")
        self._patches: list[tuple[object, str, object]] = []
        self._strategies: dict[int, Strategy] = {}
        self._blocks: dict[str, object] = {}

    # -- recording ---------------------------------------------------------

    def _agg(self, name: str) -> tuple[int, _Agg]:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = len(self.names)
            self._name_ids[name] = nid
            self.names.append(name)
            self.aggs[name] = _Agg()
        return nid, self.aggs[name]

    def _timed(self, name: str, fn, on_call=None):
        """Wrap *fn* so that each call records a span called *name*.

        ``on_call(args, kwargs, result)`` may add to counters after a call
        that returned normally.
        """
        nid, agg = self._agg(name)
        stack = self._stack
        now = time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            t_in = now()
            sid = tracer.spans_started
            tracer.spans_started = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0]
            stack.append(frame)
            t0 = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = now()
                stack.pop()
                if sid < tracer.span_cap:
                    tracer._sid.append(sid)
                    tracer._name.append(nid)
                    tracer._start.append(t0)
                    tracer._end.append(t1)
                    tracer._parent.append(parent)
                    tracer._op.append(tracer.op_id)
                # The wrapper's own bookkeeping before t0 and after t1 is
                # charged to this name and covered in the parent span, so the
                # tracing cost inflates the wrapped call, not its caller.
                spent = now() - t_in
                agg.calls += 1
                agg.total_ns += spent
                agg.self_ns += spent - frame[1]
                if stack:
                    stack[-1][1] += spent
            if on_call is not None:
                on_call(args, kwargs, result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        wrapper.__wrapped__ = fn
        return wrapper

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span of the benchmark's own."""
        wrapper = self._blocks.get(name)
        if wrapper is None:
            wrapper = self._blocks[name] = self._timed(name, _call)
        return wrapper(fn, *args, **kwargs)

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def strategy(self, strat: Strategy) -> Strategy:
        """The delegating wrapper that records ``strategies.choose`` spans."""
        wrapped = self._strategies.get(id(strat))
        if wrapped is None:
            wrapped = _TracedStrategy(strat, self._timed("strategies.choose",
                                                         strat.choose))
            self._strategies[id(strat)] = wrapped
        return wrapped

    # -- patching ------------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _patch_everywhere(self, attr: str, replacement) -> None:
        for mod in _CLIENT_MODULES:
            if hasattr(mod, attr):
                self._patch(mod, attr, replacement)

    def install(self) -> None:
        """Rebind the public names of each layer to span-recording wrappers."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for name in GRAPH_PRIMITIVES:
            self._patch_everywhere(name, self._timed(f"graphs.{name}",
                                                     getattr(graphs, name)))
        self._patch(graphs.Graph, "neighborhood",
                    self._timed("graphs.neighborhood", graphs.Graph.neighborhood))
        for name in ENGINE_MOVES:
            wrapped = self._timed(f"engine.{name}", getattr(engine, name))
            for mod in (engine, strategies):
                if hasattr(mod, name):
                    self._patch(mod, name, wrapped)

        def count_states(args, kwargs, result):
            self.count("solver.states_expanded", result.states_expanded)

        self._patch_everywhere("cg", self._timed("solver.cg", solver.cg,
                                                 count_states))
        for name in ("analyze_head", "can_force_cds_within", "is_a_perfect"):
            self._patch_everywhere(name, self._timed(f"solver.{name}",
                                                     getattr(solver, name)))
        self._patch(engine, "verify_strategy_exhaustive",
                    self._timed("engine.verify", engine.verify_strategy_exhaustive))

        def count_playouts(args, kwargs, result):
            self.count("engine.playouts", len(result))

        self._patch(engine, "random_playouts",
                    self._timed("engine.playouts", engine.random_playouts,
                                count_playouts))

        def count_nodes(args, kwargs, result):
            stats = kwargs.get("stats")
            if stats is not None:
                self.count("qgraph.nodes_evaluated", stats.nodes_evaluated)

        self._patch(qgraph, "cg_qgraph",
                    self._timed("qgraph.cg_qgraph", qgraph.cg_qgraph, count_nodes))
        self._patch(qgraph, "validate_tree",
                    self._timed("qgraph.validate_tree", qgraph.validate_tree))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading -------------------------------------------------------------

    def seconds(self, name: str, which: str = "total") -> float:
        agg = self.aggs.get(name)
        if agg is None:
            return 0.0
        return (agg.total_ns if which == "total" else agg.self_ns) / 1e9

    def calls(self, name: str) -> int:
        agg = self.aggs.get(name)
        return 0 if agg is None else agg.calls

    @property
    def spans_kept(self) -> int:
        return len(self._sid)

    def write_spans(self, path) -> None:
        """Write the kept spans as tab-separated lines, one span per line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tstart_ns\tend_ns\tparent\top\n")
            names = self.names
            for sid, nid, t0, t1, par, op in zip(self._sid, self._name,
                                                 self._start, self._end,
                                                 self._parent, self._op):
                fh.write(f"{sid}\t{names[nid]}\t{t0}\t{t1}\t{par}\t{op}\n")


class _TracedStrategy(Strategy):
    """Delegates to a strategy; its ``choose`` is a span-recording wrapper."""

    def __init__(self, inner: Strategy, choose):
        self.inner = inner
        self.name = inner.name
        self._choose = choose

    def initial_state(self):
        return self.inner.initial_state()

    def choose(self, g, variant, cfg, state, last_opp):
        return self._choose(g, variant, cfg, state, last_opp)
