"""Decomposition-tree evaluation for graphs with few induced P4's.

Trees are inputs, never computed: validation checks every structural axiom
bottom-up.  Evaluation is one pass that returns the value and, when asked,
the composed strategy, and only unions recurse, since only the union rule
reads its children's values.  A join, a spider and a pseudo-spider are
settled from their vertex sets (a pseudo-spider with |R| > 2q also from its
head), so nothing below them is solved.  Exact solves touch only
constant-size pieces, so the whole computation is linear in the tree size
for fixed q.  The composed Alice strategy is the engine ``Strategy`` of one
node, played on a *virtual* board that ignores her arbitrary moves, the
standard device that keeps it sound when wrapped.

One ``engine.Budget`` covers every search an evaluation starts: each exact
solve, and each head's target-set solve and compound-skip searches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NoReturn, Union as TUnion

from .engine import (
    ARBITRARY,
    PASS,
    Budget,
    Plain,
    Strategy,
    virtual_answer,
    virtual_step,
)
from .graphs import (Graph, bits, induced, int_field, is_clique,
                     is_connected_within, is_independent, lowest_bit_index, mask_of)
from .solver import (
    DEFAULT_MAX_STATES,
    HeadAnalysis,
    _CompoundSkipGame,
    _Core,
    _analyze_head,
    _cg,
)
from .strategies import SpiderPriority


# -- tree nodes ----------------------------------------------------------------


@dataclass(frozen=True)
class Leaf:
    vertices: int  # vertex mask in the host graph


@dataclass(frozen=True)
class UnionNode:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class JoinNode:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Spider:
    flavor: str  # "matched" | "antimatched"
    s: int
    k: int
    fmap: tuple[tuple[int, int], ...]  # bijection S -> K
    r_tree: "Node | None" = None


@dataclass(frozen=True)
class PseudoSpider:
    s: int
    k: int
    r_tree: "Node | None" = None


Node = TUnion[Leaf, UnionNode, JoinNode, Spider, PseudoSpider]


@dataclass(frozen=True)
class DecompositionTree:
    q: int
    root: Node


def vertex_set(node: Node) -> int:
    if isinstance(node, Leaf):
        return node.vertices
    if isinstance(node, (UnionNode, JoinNode)):
        return vertex_set(node.left) | vertex_set(node.right)
    if isinstance(node, (Spider, PseudoSpider)):
        r = vertex_set(node.r_tree) if node.r_tree is not None else 0
        return node.s | node.k | r
    raise TypeError(f"unknown node {node!r}")


@dataclass
class ValidationResult:
    ok: bool
    diagnostic: str = ""

    def __bool__(self) -> bool:
        return self.ok


class _InvalidTree(Exception):
    """A failed structural invariant; the message starts with the node path."""


def validate_tree(g: Graph, tree: DecompositionTree) -> ValidationResult:
    """Check every structural invariant of the tree against g, bottom-up.

    Each node's vertex mask is built once, from its children's masks.
    Returns false plus a diagnostic path naming the first failing node.
    """

    def fail(path: str, why: str) -> NoReturn:
        raise _InvalidTree(f"{path}: {why}")

    def cross_edges_all(a: int, b: int) -> bool:
        return all(g.adj[v] & b == b for v in bits(a))

    def cross_edges_none(a: int, b: int) -> bool:
        return all(not (g.adj[v] & b) for v in bits(a))

    def walk(node: Node, path: str) -> int:
        """The vertex mask of a node whose whole subtree passes."""
        if isinstance(node, Leaf):
            if node.vertices == 0:
                fail(path, "empty leaf")
            if node.vertices & ~g.full_mask:
                fail(path, "leaf vertices outside graph")
            if node.vertices.bit_count() > tree.q:
                fail(path, f"leaf larger than q={tree.q}")
            return node.vertices
        if isinstance(node, (UnionNode, JoinNode)):
            a = walk(node.left, path + ".left")
            b = walk(node.right, path + ".right")
            if a & b:
                fail(path, "children overlap")
            if isinstance(node, UnionNode) and not cross_edges_none(a, b):
                fail(path, "union children are joined by an edge")
            if isinstance(node, JoinNode) and not cross_edges_all(a, b):
                fail(path, "join is missing a cross edge")
            return a | b
        if not isinstance(node, (Spider, PseudoSpider)):
            fail(path, f"unknown node type {type(node).__name__}")
        s, k = node.s, node.k
        r = walk(node.r_tree, path + ".r") if node.r_tree is not None else 0
        if isinstance(node, Spider) and node.flavor not in ("matched", "antimatched"):
            fail(path, f"unknown flavour {node.flavor!r}")
        if s & k or s & r or k & r:
            fail(path, "S, K, R are not disjoint")
        if isinstance(node, Spider):
            if s.bit_count() != k.bit_count() or s.bit_count() < 2:
                fail(path, "need |S| = |K| >= 2")
            if not is_independent(g, s):
                fail(path, "S is not independent")
            if not is_clique(g, k):
                fail(path, "K is not a clique")
            if {a for a, _ in node.fmap} != set(bits(s)) or \
               sorted(b for _, b in node.fmap) != sorted(bits(k)):
                fail(path, "f is not a bijection S -> K")
            for sv, kv in node.fmap:
                want = (1 << kv) if node.flavor == "matched" else k & ~(1 << kv)
                if g.adj[sv] & k != want:
                    fail(path, f"vertex {sv} breaks the {node.flavor} pattern")
        else:
            if (s | k).bit_count() > tree.q:
                fail(path, f"head larger than q={tree.q}")
            if (s | k) == 0:
                fail(path, "empty head")
        if not cross_edges_all(k, r):
            fail(path, "K is not fully joined to R")
        if not cross_edges_none(s, r):
            fail(path, "an S-R edge crosses the separator")
        return s | k | r

    if tree.q < 0:
        return ValidationResult(False, "root: negative q")
    try:
        mask = walk(tree.root, "root")
    except _InvalidTree as exc:
        return ValidationResult(False, str(exc))
    if mask != g.full_mask:
        return ValidationResult(False, "root: tree does not cover V(G) exactly")
    return ValidationResult(True)


# -- the matched-spider closed formula ----------------------------------------


def matched_spider_value(n: int, k_size: int) -> int:
    """Game value of a matched spider of order n with |K| = k_size."""
    if not n >= 2 * k_size >= 4:
        raise ValueError("need n >= 2|K| >= 4")
    half_k = k_size // 2
    if n % 2 == 1 and half_k % 2 == 1:
        return (n + 1) // 2 - (half_k + 1) // 2
    return (n + 1) // 2 - half_k // 2


# -- evaluation ------------------------------------------------------------------


@dataclass
class EvalStats:
    # the root and each node reached from it through unions alone; nothing
    # below a join, a spider or a pseudo-spider is evaluated or counted
    nodes_evaluated: int = 0
    states_expanded: int = 0  # by the exact solves and head analyses


def _head(g: Graph, node: PseudoSpider,
          budget: Budget) -> tuple[HeadAnalysis, Graph, tuple[int, ...]]:
    """The head analysis of a pseudo-spider, with the head graph and the map
    from its indices to the host graph's vertices."""
    head_graph, head_map = induced(g, node.s | node.k)
    k_local = mask_of(i for i, v in enumerate(head_map) if node.k >> v & 1)
    return _analyze_head(head_graph, k_local, budget), head_graph, head_map


def _pseudo_spider_rule(head: HeadAnalysis, head_size: int,
                        r_size: int) -> tuple[int, str]:
    """``(value, play mode)`` of a pseudo-spider with |R| = r_size > 2q.

    The value is c* + ceil(r/2) or c* + floor(r/2).  An even rest splits
    evenly; an odd one goes to Alice's ceiling under "sa2", to Bob's floor
    under "sb2", and under "hold" to the ceiling when the head is even.
    The play mode is "plain" (optimal target-set moves on the head), "sa2"
    or "hold"."""
    floor = head.c_star + r_size // 2
    if r_size % 2 == 0 or head.mode == "sb2":
        return floor, "plain"
    if head.mode == "sa2" or head_size % 2 == 0:
        return floor + 1, head.mode
    return floor, "hold"


def _solve_induced(g: Graph, mask: int, budget: Budget,
                   play: bool) -> tuple[int, Strategy | None]:
    """Exact evaluation of the graph induced by ``mask``.  With ``play`` the
    strategy is played from the solved core when that graph is connected; a
    disconnected one is solved per component, so it gets a fresh core."""
    sub, back = induced(g, mask)
    res = _cg(sub, Plain(), budget)
    if not play:
        return res.value, None
    core = (res._core if res._component_map is None
            else _Core(sub, Plain(), budget=budget))
    return res.value, _ExactStrategy(mask, back, core)


def _evaluate(g: Graph, node: Node, q: int, stats: EvalStats, budget: Budget,
              play: bool = False) -> tuple[int, Strategy | None]:
    """``(value, strategy)`` of a tree node: its game value and, only with
    ``play``, its node strategy.  Every exact solve and head analysis it
    starts charges ``budget``.

    Only unions recurse, since only the union rule reads its children's
    values: a union returns its better child's pair as it stands, so the
    strategy of a union chain is that of one non-union node; the other
    child's cores are dropped as soon as that child is evaluated.  A join, a spider and a pseudo-spider are settled from vertex
    sets (a pseudo-spider with |R| > 2q also from its head), so no node
    below them is solved or counted in ``stats.nodes_evaluated``."""
    stats.nodes_evaluated += 1
    if isinstance(node, Leaf):
        return _solve_induced(g, node.vertices, budget, play)
    if isinstance(node, UnionNode):
        left = _evaluate(g, node.left, q, stats, budget, play)
        right = _evaluate(g, node.right, q, stats, budget, play)
        return left if left[0] >= right[0] else right
    if isinstance(node, JoinNode):
        small, large = vertex_set(node.left), vertex_set(node.right)
        mask = small | large
        if small.bit_count() > large.bit_count():
            small, large = large, small
        return ((mask.bit_count() + 1) // 2,
                _JoinStrategy(mask, small, large) if play else None)
    mask = vertex_set(node)
    n = mask.bit_count()
    if isinstance(node, Spider):
        k_size = node.k.bit_count()
        if node.flavor == "antimatched" and k_size >= 3:
            return (n + 1) // 2, _AntimatchedStrategy(mask, node.k) if play else None
        # an antimatched bijection on |K| = 2 is a matched spider
        return (matched_spider_value(n, k_size),
                _MatchedStrategy(g, mask, node.s, node.k) if play else None)
    head_mask = node.s | node.k
    r_size = n - head_mask.bit_count()
    if r_size <= 2 * q:
        return _solve_induced(g, mask, budget, play)
    if not is_connected_within(g.adj, mask):
        raise ValueError(
            "pseudo-spider with |R| > 2q must be connected; "
            "split disconnected graphs under a union root")
    head, head_graph, head_map = _head(g, node, budget)
    value, mode = _pseudo_spider_rule(head, head_mask.bit_count(), r_size)
    return value, (_PseudoSpiderStrategy(mask, head_mask, head, head_graph,
                                         head_map, mode) if play else None)


def cg_qgraph(g: Graph, tree: DecompositionTree, *,
              stats: EvalStats | None = None,
              max_states: int = DEFAULT_MAX_STATES,
              time_limit: float | None = None) -> int:
    """Game value of a (q, q-4) graph, evaluated bottom-up over its tree.

    ``max_states`` and ``time_limit`` cover the whole evaluation: each
    exact solve, and each head's target-set solve and compound-skip
    searches, draws on one ``Budget``.
    """
    res = validate_tree(g, tree)
    if not res:
        raise ValueError(f"invalid decomposition tree: {res.diagnostic}")
    if stats is None:
        stats = EvalStats()
    budget = Budget(max_states, time_limit)
    value, _ = _evaluate(g, tree.root, tree.q, stats, budget)
    stats.states_expanded += budget.spent
    return value


# -- composed Alice strategy -----------------------------------------------------

# A union keeps only its better child's strategy, so the composed strategy is
# that of the one non-union node a union chain ends in.  Each node strategy
# is an engine ``Strategy`` that opens in the node and answers only the Bob
# moves inside its ``mask`` (elsewhere it plays ``ARBITRARY``), on a virtual
# board (vred, vblue restricted to the node's vertices) that ignores her
# arbitrary moves: ``engine.virtual_step`` plays one turn on it, and
# ``engine.virtual_answer`` reads the real move from it.


class _WantStrategy(Strategy):
    """Common shell: subclasses provide want(vred, vblue) -> vertex | None.
    State: (vred, vblue, pending), where ``pending`` says that the opening
    or a Bob move inside the mask awaits an answer."""

    name = "qgraph-alice"

    def __init__(self, mask: int):
        self.mask = mask

    def initial_state(self):
        return (0, 0, True)

    def want(self, vred: int, vblue: int) -> int | None:
        raise NotImplementedError

    def choose(self, g, variant, pos, state, last_opp):
        vred, vblue, pending = state
        opp = None
        if isinstance(last_opp, int) and self.mask >> last_opp & 1:
            opp = last_opp
        elif not pending:
            return ARBITRARY, state
        answer, vred, vblue = virtual_step(pos, True, vred, vblue, opp, self.want)
        return answer, (vred, vblue, False)


class _JoinStrategy(_WantStrategy):
    def __init__(self, mask: int, small: int, large: int):
        super().__init__(mask)
        self.small = small
        self.large = large

    def want(self, vred, vblue):
        avail = self.mask & ~vred & ~vblue
        if self.mask.bit_count() == 2:
            return lowest_bit_index(avail)
        if not vred & self.small:
            w = lowest_bit_index(self.small & avail)
            if w is not None:
                return w
        if not vred & self.large:
            w = lowest_bit_index(self.large & avail)
            if w is not None:
                return w
        return lowest_bit_index(avail)


class _AntimatchedStrategy(_WantStrategy):
    def __init__(self, mask: int, k: int):
        super().__init__(mask)
        self.k = k

    def want(self, vred, vblue):
        avail = self.mask & ~vred & ~vblue
        if (vred & self.k).bit_count() < 2:
            w = lowest_bit_index(self.k & avail)
            if w is not None:
                return w
        return lowest_bit_index(avail)


class _MatchedStrategy(_WantStrategy):
    """Exhaust K, then dodge the S-vertices matched to blue K vertices
    (``strategies.SpiderPriority``), finally concede those."""

    def __init__(self, g: Graph, mask: int, s: int, k: int):
        super().__init__(mask)
        self.priority = SpiderPriority(g, s, k)

    def want(self, vred, vblue):
        avail = self.mask & ~vred & ~vblue
        w = self.priority.pick(avail, vblue)
        return lowest_bit_index(avail) if w is None else w


class _ExactStrategy(_WantStrategy):
    """Optimal play on a leaf or small-pseudo-spider node, from the memo.

    ``core`` is the node's core from the evaluation; when it solved the node
    its table already holds the solve.  Play gets a budget of its own of the
    evaluation's ``max_states``, as a fresh core would."""

    def __init__(self, mask: int, back: tuple[int, ...], core: _Core):
        super().__init__(mask)
        self._back = back
        self._fwd = {orig: i for i, orig in enumerate(self._back)}
        core.own_budget()
        self._core = core

    def want(self, vred, vblue):
        lred = mask_of(self._fwd[v] for v in bits(vred))
        lblue = mask_of(self._fwd[v] for v in bits(vblue))
        move = self._core.best_move(lred, lblue, 0, 0, self._core.exact(lred, lblue))
        return None if move is None else self._back[move]


class _PseudoSpiderStrategy(Strategy):
    """The head/rest protocol for a pseudo-spider with |R| > 2q.

    Keeps the local one-skip game state over the head: head moves map
    one-to-one, Alice's pass surfaces as a move into R, and Bob's first move
    into R while a pass would still matter counts as his pass.  ``mode``
    comes from ``_pseudo_spider_rule``.
    State: (vred, vblue, aP, bP, first, pending), the first five over head
    vertices and ``pending`` as in ``_WantStrategy``.
    """

    name = "qgraph-alice"

    def __init__(self, mask: int, head_mask: int, head: HeadAnalysis,
                 head_graph: Graph, head_map: tuple[int, ...], mode: str):
        self.mask = mask
        self.head_mask = head_mask
        self.r_mask = mask & ~head_mask
        self._back = head_map
        self._fwd = {orig: i for i, orig in enumerate(head_map)}
        self.head_graph = head_graph
        self.mode = mode
        self.game: _CompoundSkipGame | None = head._game
        # the c* solve's core; play gets a budget of its own, as in
        # ``_ExactStrategy``
        head._core.own_budget()
        self.core = head._core

    def initial_state(self):
        return (0, 0, 0, 0, 0, True)

    def choose(self, g, variant, pos, state, last_opp):
        vred, vblue, a_p, b_p, first, pending = state
        if isinstance(last_opp, int) and self.mask >> last_opp & 1:
            pending = True
            if self.head_mask >> last_opp & 1:
                vblue |= 1 << self._fwd[last_opp]
            elif self.mode != "plain" and b_p == 0 and a_p == 0 \
                    and (vred | vblue) != self.head_graph.full_mask:
                # a move into R: his pass, the first time a pass still matters
                b_p = first = 1
        if not pending:
            return ARBITRARY, state
        state = (vred, vblue, a_p, b_p, first, False)
        r_free = self.r_mask & ~(pos[0] | pos[1])
        if vred.bit_count() + a_p != vblue.bit_count() + b_p \
                or not self.head_graph.full_mask & ~vred & ~vblue:
            # not Alice's turn in the head game, or the head is full: keep
            # the head game frozen and mirror into R
            return (lowest_bit_index(r_free) if r_free else ARBITRARY), state
        if self.mode == "plain":
            # nothing sets a pass in this mode, so the game is TargetSet(K)
            lv = self.core.best_move(vred, vblue, 0, 0, self.core.exact(vred, vblue))
        else:
            # the compound condition picks the move, not just the current
            # value: Alice stands on a winning position of the Sa2 or holding
            # game, and once her pass is spent or Bob passed first a pass
            # never wins there
            lv = self.game.winning_move(
                vred, vblue, a_p, b_p, first,
                prefer_pass=self.mode == "sa2" and a_p == 0 and first == 0)
            if lv is PASS:
                if r_free:
                    return lowest_bit_index(r_free), (vred, vblue, 1, b_p, first, False)
                lv = self.game.winning_move(vred, vblue, a_p, b_p, first,
                                            prefer_pass=False)
                if lv is PASS:
                    return ARBITRARY, state
        return (virtual_answer(pos, self._back[lv]),
                (vred | 1 << lv, vblue, a_p, b_p, first, False))


def alice_strategy_qgraph(g: Graph, tree: DecompositionTree, *,
                          max_states: int = DEFAULT_MAX_STATES) -> Strategy:
    """Alice strategy achieving cg_qgraph(g, tree) against any Bob: the
    strategy of the one non-union node that the root's union chain ends in
    (see the comment at the head of this section).

    The evaluation behind it keeps one ``max_states`` budget, as in
    ``cg_qgraph``; the exact node or pseudo-spider head the strategy plays
    from a solver core gets a budget of its own of ``max_states`` during
    play.  An exact node whose graph is connected, and a pseudo-spider head,
    is played from the core that evaluated it, so it is not solved twice.
    """
    res = validate_tree(g, tree)
    if not res:
        raise ValueError(f"invalid decomposition tree: {res.diagnostic}")
    return _evaluate(g, tree.root, tree.q, EvalStats(), Budget(max_states),
                     play=True)[1]


# -- text format --------------------------------------------------------------------


def _fmt_node(node: Node) -> str:
    if isinstance(node, Leaf):
        return "(leaf " + " ".join(str(v) for v in bits(node.vertices)) + ")"
    if isinstance(node, UnionNode):
        return f"(union {_fmt_node(node.left)} {_fmt_node(node.right)})"
    if isinstance(node, JoinNode):
        return f"(join {_fmt_node(node.left)} {_fmt_node(node.right)})"
    if isinstance(node, Spider):
        s = " ".join(str(v) for v in bits(node.s))
        k = " ".join(str(v) for v in bits(node.k))
        f = " ".join(f"{a}:{b}" for a, b in sorted(node.fmap))
        r = f" {_fmt_node(node.r_tree)}" if node.r_tree is not None else ""
        return f"(spider {node.flavor} (s {s}) (k {k}) (f {f}){r}"+")"
    if isinstance(node, PseudoSpider):
        s = " ".join(str(v) for v in bits(node.s))
        k = " ".join(str(v) for v in bits(node.k))
        r = f" {_fmt_node(node.r_tree)}" if node.r_tree is not None else ""
        return f"(pspider (s {s}) (k {k}){r})"
    raise TypeError(f"unknown node {node!r}")


def format_tree(tree: DecompositionTree) -> str:
    return f"q {tree.q}\n{_fmt_node(tree.root)}\n"


def parse_tree(text: str) -> DecompositionTree:
    """Parse the parenthesised tree format with its ``q <int>`` header.

    Each token keeps its line, and every integer is read by
    ``graphs.int_field``, so an error names the line it was found on."""
    lines = [(lineno, ln.replace("(", " ( ").replace(")", " ) ").split())
             for lineno, ln in enumerate(text.splitlines(), start=1)
             if ln.strip() and not ln.strip().startswith("#")]
    if not lines or lines[0][1][0] != "q":
        raise ValueError("tree file must start with a 'q <int>' header")
    (line, header), body = lines[0], lines[1:]
    if len(header) != 2:
        raise ValueError(f"line {line}: malformed q header")
    q = int_field(header[1], line, "q")
    toks = [(tok, lineno) for lineno, words in body for tok in words]
    pos = 0

    def peek() -> str:
        if pos == len(toks):
            raise ValueError("unexpected end of tree")
        return toks[pos][0]

    def take(want: str | None = None) -> tuple[str, int]:
        nonlocal pos
        tok = peek()
        if want is not None and tok != want:
            raise ValueError(f"line {toks[pos][1]}: expected {want!r}, "
                             f"got {tok!r}")
        pos += 1
        return toks[pos - 1]

    def until_close(read) -> list:
        out = []
        while peek() != ")":
            out.append(read(*take()))
        take()
        return out

    def vertices(what: str) -> int:
        return mask_of(until_close(lambda tok, lineno: int_field(tok, lineno, what)))

    def group(tag: str) -> int:
        take("(")
        take(tag)
        return vertices(f"a vertex of ({tag} ...)")

    def f_pair(tok: str, lineno: int) -> tuple[int, ...]:
        return tuple(int_field(x, lineno, "each side of an f pair <s>:<k>")
                     for x in tok.partition(":")[::2])

    def r_tree() -> Node | None:
        return parse_node() if peek() == "(" else None

    def parse_node() -> Node:
        take("(")
        kind, lineno = take()
        if kind == "leaf":
            return Leaf(vertices("a leaf vertex"))
        if kind in ("union", "join"):
            node = (UnionNode if kind == "union" else JoinNode)(parse_node(), parse_node())
        elif kind == "spider":
            flavor, _ = take()
            s, k = group("s"), group("k")
            take("(")
            take("f")
            node = Spider(flavor, s, k, tuple(until_close(f_pair)), r_tree())
        elif kind == "pspider":
            node = PseudoSpider(group("s"), group("k"), r_tree())
        else:
            raise ValueError(f"line {lineno}: unknown node kind {kind!r}")
        take(")")
        return node

    root = parse_node()
    if pos != len(toks):
        raise ValueError(f"line {toks[pos][1]}: trailing tokens after tree")
    return DecompositionTree(q, root)


def read_tree(path) -> DecompositionTree:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_tree(fh.read())


def write_tree(path, tree: DecompositionTree) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_tree(tree))


def spider_tree(fg) -> DecompositionTree:
    """Canonical tree for a generated spider family instance."""
    k = fg.params["k"]
    r = fg.params["r"]
    flavor = fg.family.rsplit("_", 1)[1]
    s_mask = mask_of(range(k))
    k_mask = mask_of(range(k, 2 * k))
    fmap = tuple((i, k + i) for i in range(k))
    r_tree = None
    if r:
        r_tree = Leaf(mask_of(range(2 * k, 2 * k + r)))
    return DecompositionTree(max(4, r), Spider(flavor, s_mask, k_mask, fmap, r_tree))
