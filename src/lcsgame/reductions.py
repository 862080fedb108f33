"""The three hardness constructions with brute-force source-game solvers.

Each builder emits the reduction graph, the threshold k, and a total role
map; the source games (POS CNF and Generalised Hex) are solved exactly at
desk scale, each by one ``expand`` function over ``engine.AndOrSearch``, so
winning strategies can be lifted onto the reduction graphs and checked
against adversarial play.  ``lift_strategy`` is the one way to build a lift,
and the one place that checks the source solver against the reduction.
Lifted strategies keep a virtual source-game state that ignores their own
arbitrary moves, the usual device for strategy transfer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from .engine import (
    ARBITRARY,
    PASS,
    AndOrSearch,
    InternalError,
    Player,
    Position,
    Strategy,
    virtual_answer,
)
from .graphs import (
    FormatError,
    Graph,
    GraphDocument,
    Planarity,
    bits,
    component_of,
    int_field,
    lowest_bit_index,
    mask_of,
    planarity_check,
)


# -- instances ------------------------------------------------------------------


@dataclass(frozen=True)
class CnfInstance:
    """All-positive CNF: clauses are sets of variable indices."""

    variable_count: int
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for cl in self.clauses:
            if not cl:
                raise ValueError("clauses must be nonempty")
            if any(not 0 <= v < self.variable_count for v in cl):
                raise ValueError("clause variable out of range")
            if len(set(cl)) != len(cl):
                raise ValueError("repeated variable inside a clause")

    @staticmethod
    def of(variable_count: int, clauses) -> "CnfInstance":
        return CnfInstance(variable_count,
                           tuple(tuple(sorted(set(c))) for c in clauses))


@dataclass(frozen=True)
class HexInstance:
    """Generalised Hex input: planar-ish graph with a nonadjacent outside pair."""

    h: Graph
    s: int
    t: int

    def __post_init__(self):
        if not (0 <= self.s < self.h.n and 0 <= self.t < self.h.n) or self.s == self.t:
            raise ValueError("s and t must be distinct vertices of h")
        if self.h.has_edge(self.s, self.t):
            raise ValueError("outside pair must be nonadjacent")
        g_plus = Graph.from_edges(self.h.n, self.h.edges() + [(self.s, self.t)])
        if planarity_check(g_plus) is Planarity.NON_PLANAR:
            raise ValueError("h + st must not be recognisably non-planar")


@dataclass
class ReductionOutput:
    kind: str  # bipartite | split | planar
    g: Graph
    k: int
    role_map: dict[int, str]
    # wiring for strategy lifting
    var_count: int = 0
    pair_partner: dict[int, int] = field(default_factory=dict)
    source_cnf: CnfInstance | None = None
    source_hex: HexInstance | None = None
    hex_vertices: int = 0  # mask of the embedded (padded) H
    s_group: int = 0
    t_group: int = 0
    hub_leaves: dict[int, int] = field(default_factory=dict)
    s_vertex: int = -1
    t_vertex: int = -1


# -- source-game solvers -----------------------------------------------------------

_MAX_VARS = 16  # the largest POS CNF the source solver takes
_MAX_HEX_VERTICES = 18  # the largest Generalised Hex board it takes

class CnfGameSolver:
    """Memoised AND/OR search for POS CNF: Alice sets variables true, Bob false."""

    def __init__(self, cnf: CnfInstance):
        if cnf.variable_count > _MAX_VARS:
            raise ValueError(f"too many variables (> {_MAX_VARS})")
        self.cnf = cnf
        self.clause_masks = [mask_of(c) for c in cnf.clauses]
        self.full = (1 << cnf.variable_count) - 1
        self.search = AndOrSearch(self._expand)

    def _expand(self, pos: tuple[int, int]):
        true_mask, false_mask = pos
        if all(cm & true_mask for cm in self.clause_masks):
            return True
        if any(cm & ~false_mask == 0 for cm in self.clause_masks):
            return False
        # not decided, so some variable is still free
        free = self.full & ~true_mask & ~false_mask
        if true_mask.bit_count() == false_mask.bit_count():
            return True, ((v, (true_mask | 1 << v, false_mask)) for v in bits(free))
        return False, ((v, (true_mask, false_mask | 1 << v)) for v in bits(free))

    @property
    def winner(self) -> Player:
        return Player.ALICE if self.search.wins((0, 0)) else Player.BOB

    def best_variable(self, true_mask: int, false_mask: int) -> int:
        """Mover's lowest outcome-preserving variable (winning when possible)."""
        free = self.full & ~true_mask & ~false_mask
        if not free:
            raise ValueError("no free variable")
        v = self.search.move((true_mask, false_mask))
        return lowest_bit_index(free) if v is None else v


class HexGameSolver:
    """Memoised AND/OR search for Generalised Hex; s and t start red."""

    def __init__(self, hx: HexInstance):
        if hx.h.n > _MAX_HEX_VERTICES:
            raise ValueError(f"hex instance too large (> {_MAX_HEX_VERTICES})")
        self.hx = hx
        self.g = hx.h
        self.st = (1 << hx.s) | (1 << hx.t)
        self.playable = self.g.full_mask & ~self.st
        self.search = AndOrSearch(self._expand)

    def _connected_st(self, within: int) -> bool:
        comp = component_of(self.g.adj, 1 << self.hx.s, within)
        return bool(comp >> self.hx.t & 1)

    def _expand(self, pos: tuple[int, int]):
        # red excludes s,t; they are permanently red
        red, blue = pos
        if self._connected_st(red | self.st):
            return True
        if not self._connected_st(self.g.full_mask & ~blue):
            return False
        # not decided, so some vertex is still free
        free = self.playable & ~red & ~blue
        if red.bit_count() == blue.bit_count():
            return True, ((v, (red | 1 << v, blue)) for v in bits(free))
        return False, ((v, (red, blue | 1 << v)) for v in bits(free))

    @property
    def winner(self) -> Player:
        return Player.ALICE if self.search.wins((0, 0)) else Player.BOB

    def best_vertex(self, red: int, blue: int) -> int:
        free = self.playable & ~red & ~blue
        if not free:
            raise ValueError("no free vertex")
        v = self.search.move((red, blue))
        return lowest_bit_index(free) if v is None else v


# -- builders -----------------------------------------------------------------------


def _padded(cnf: CnfInstance) -> CnfInstance:
    if cnf.variable_count % 2 == 0:
        return cnf
    return CnfInstance(cnf.variable_count + 1, cnf.clauses)


def build_bipartite(cnf: CnfInstance) -> ReductionOutput:
    """Variables, duplicated clause vertices, and two universal-to-variables
    hubs; k is half the (even) order.  Output is bipartite with diameter <= 4."""
    cnf = _padded(cnf)
    n, m = cnf.variable_count, len(cnf.clauses)
    total = n + 2 * m + 2
    u1, u2 = n + 2 * m, n + 2 * m + 1
    edges = []
    roles = {i: f"x{i}" for i in range(n)}
    pair = {u1: u2, u2: u1}
    for j, clause in enumerate(cnf.clauses):
        c1, c2 = n + 2 * j, n + 2 * j + 1
        roles[c1] = f"C{j}a"
        roles[c2] = f"C{j}b"
        pair[c1] = c2
        pair[c2] = c1
        for v in clause:
            edges.append((v, c1))
            edges.append((v, c2))
    roles[u1] = "u1"
    roles[u2] = "u2"
    for i in range(n):
        edges.append((i, u1))
        edges.append((i, u2))
    g = Graph.from_edges(total, edges)
    from .graphs import diameter, is_bipartite
    ok, _ = is_bipartite(g)
    if not ok or diameter(g) > 4:
        raise InternalError("reduction output must be bipartite of diameter <= 4")
    return ReductionOutput("bipartite", g, total // 2, roles,
                           var_count=n, pair_partner=pair, source_cnf=cnf)


def build_split(cnf: CnfInstance) -> ReductionOutput:
    """As the bipartite build, but the variables form a clique and the two
    hubs are dropped; output is a split graph with k = |V|/2."""
    cnf = _padded(cnf)
    n, m = cnf.variable_count, len(cnf.clauses)
    total = n + 2 * m
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    roles = {i: f"x{i}" for i in range(n)}
    pair = {}
    for j, clause in enumerate(cnf.clauses):
        c1, c2 = n + 2 * j, n + 2 * j + 1
        roles[c1] = f"C{j}a"
        roles[c2] = f"C{j}b"
        pair[c1] = c2
        pair[c2] = c1
        for v in clause:
            edges.append((v, c1))
            edges.append((v, c2))
    g = Graph.from_edges(total, edges)
    from .graphs import is_clique, is_independent
    clique_mask = mask_of(range(n))
    if not is_clique(g, clique_mask) or \
       not is_independent(g, g.full_mask & ~clique_mask):
        raise InternalError("output must be a split graph")
    return ReductionOutput("split", g, total // 2, roles,
                           var_count=n, pair_partner=pair, source_cnf=cnf)


def build_planar(hx: HexInstance) -> ReductionOutput:
    """Attach three pendant hubs to each of s and t, and n+4 leaves to every
    hub; k = n + 5 and |V| = 7n + 30 (n the even-padded hex order)."""
    h = hx.h
    s, t = hx.s, hx.t
    edges = h.edges()
    n = h.n
    if n % 2 == 1:
        # parity pad: one leaf attached to s (does not change the hex outcome)
        edges.append((s, n))
        n += 1
    roles = {v: "hex" for v in range(n)}
    roles[s] = "s"
    roles[t] = "t"
    hub_leaves: dict[int, int] = {}
    s_group = 1 << s
    t_group = 1 << t
    nxt = n
    hubs = []
    for i in range(3):
        hub = nxt
        nxt += 1
        edges.append((s, hub))
        roles[hub] = f"s0_{i + 1}"
        s_group |= 1 << hub
        hubs.append(hub)
    for i in range(3):
        hub = nxt
        nxt += 1
        edges.append((t, hub))
        roles[hub] = f"t0_{i + 1}"
        t_group |= 1 << hub
        hubs.append(hub)
    for hub in hubs:
        leaves = 0
        for _ in range(n + 4):
            leaf = nxt
            nxt += 1
            edges.append((hub, leaf))
            roles[leaf] = f"leaf_of_{hub}"
            leaves |= 1 << leaf
        hub_leaves[hub] = leaves
    g = Graph.from_edges(nxt, edges)
    if g.n != 7 * n + 30:
        raise InternalError("planar build has wrong order")
    hexi = HexInstance(Graph.from_edges(n, [(u, v) for u, v in edges
                                            if u < n and v < n]), s, t)
    return ReductionOutput("planar", g, n + 5, roles,
                           source_hex=hexi, hex_vertices=(1 << n) - 1,
                           s_group=s_group, t_group=t_group,
                           hub_leaves=hub_leaves, s_vertex=s, t_vertex=t)


# -- lifted strategies ------------------------------------------------------------


class CnfLift(Strategy):
    """Translate a CNF winning strategy onto the bipartite or split graph.

    Variable vertices forward to the source game (ignoring this side's own
    arbitrary moves); hub and clause-copy moves are answered by pairing.
    State: (true_mask, false_mask) of the virtual source game.
    """

    def __init__(self, red: ReductionOutput, side: Player, source: CnfGameSolver):
        self.red = red
        self.side = side
        self.source = source
        self.name = f"lift_{red.kind}_{'alice' if side is Player.ALICE else 'bob'}"
        self.var_mask = mask_of(range(red.var_count))

    def initial_state(self):
        return (0, 0)

    def _respond_variable(self, state, opp_var: int | None):
        true_mask, false_mask = state
        if opp_var is not None:
            if self.side is Player.ALICE:
                false_mask |= 1 << opp_var
            else:
                true_mask |= 1 << opp_var
        free = self.source.full & ~true_mask & ~false_mask
        if not free:
            return None, (true_mask, false_mask)
        x = self.source.best_variable(true_mask, false_mask)
        if self.side is Player.ALICE:
            true_mask |= 1 << x
        else:
            false_mask |= 1 << x
        return x, (true_mask, false_mask)

    def choose(self, g, variant, pos, state, last_opp):
        colored = pos[0] | pos[1]
        if last_opp is None:
            # Alice's opening: her first variable of the winning strategy
            x, state = self._respond_variable(state, None)
            if x is not None and not (colored >> x & 1):
                return x, state
            return ARBITRARY, state
        if last_opp is PASS:
            return ARBITRARY, state
        if self.var_mask >> last_opp & 1:
            x, state = self._respond_variable(state, last_opp)
            if x is not None and not (colored >> x & 1):
                return x, state
            return ARBITRARY, state
        partner = self.red.pair_partner.get(last_opp)
        if partner is not None and not (colored >> partner & 1):
            return partner, state
        return ARBITRARY, state


_HEX = -1  # PlanarBobLift group marker: a vertex of the embedded hex board


class PlanarBobLift(Strategy):
    """Bob's hex-blocking strategy on the planar reduction.

    Answers inside the s-star and t-star by exhausting those stars, pairs
    leaves hub-by-hub, and forwards hex moves to the source game.
    """

    def __init__(self, red: ReductionOutput, source: HexGameSolver):
        self.red = red
        self.source = source
        self.name = "lift_planar_bob"
        # the group each vertex answers into, tested in the proof's order:
        # the s-star, the t-star, the hex board (_HEX), then the first hub
        # whose leaves hold it; 0 means no group
        groups = [(red.s_group, red.s_group), (red.t_group, red.t_group),
                  (red.hex_vertices, _HEX)]
        groups += [(leaves, leaves) for leaves in red.hub_leaves.values()]
        self._group = [next((grp for members, grp in groups if members >> v & 1), 0)
                       for v in range(red.g.n)]

    def initial_state(self):
        return (0, 0)  # virtual hex red/blue (excluding the pre-red s, t)

    def choose(self, g, variant, pos, state, last_opp):
        if last_opp is None or last_opp is PASS:
            return ARBITRARY, state
        colored = pos[0] | pos[1]
        group = self._group[last_opp]
        if group == _HEX:
            hred, hblue = state
            hred |= 1 << last_opp
            if self.source.playable & ~hred & ~hblue:
                w = self.source.best_vertex(hred, hblue)
                hblue |= 1 << w
                if not (colored >> w & 1):
                    return w, (hred, hblue)
            return ARBITRARY, (hred, hblue)
        w = lowest_bit_index(group & ~colored)
        return (ARBITRARY if w is None else w), state


_A_OPEN_S, _A_HUB_S, _A_THIRD, _A_T, _A_HUB_T = range(5)
_A_LEAF_S, _A_LEAF_T, _A_HEX = 10, 11, 12


class PlanarAliceLift(Strategy):
    """Alice's opening protocol over the two pendant stars, falling back to
    the lifted hex strategy when Bob contests both stars."""

    def __init__(self, red: ReductionOutput, source: HexGameSolver):
        self.red = red
        self.source = source
        self.name = "lift_planar_alice"
        r = red
        self.s_hubs = r.s_group & ~(1 << r.s_vertex)
        self.t_hubs = r.t_group & ~(1 << r.t_vertex)

    def initial_state(self):
        return (_A_OPEN_S, 0, 0)  # phase, virtual hex red, virtual hex blue

    def _my_hub_leaves(self, hubs: int, pos: Position) -> int | None:
        pool = 0
        for hub in bits(hubs & pos[0]):
            pool |= self.red.hub_leaves[hub]
        return lowest_bit_index(pool & ~(pos[0] | pos[1]))

    def _hex_respond(self, state, opp_vertex: int | None, pos: Position):
        phase, hred, hblue = state
        if opp_vertex is not None:
            hblue |= 1 << opp_vertex
        free = self.source.playable & ~hred & ~hblue
        if not free:
            return None, (phase, hred, hblue)
        w = self.source.best_vertex(hred, hblue)
        hred |= 1 << w
        return virtual_answer(pos, w), (phase, hred, hblue)

    def choose(self, g, variant, pos, state, last_opp):
        phase, hred, hblue = state
        r = self.red
        colored = pos[0] | pos[1]
        w = None
        if phase == _A_OPEN_S:
            state = (_A_HUB_S, hred, hblue)
            if not (colored >> r.s_vertex & 1):
                w = r.s_vertex
        elif phase == _A_HUB_S:
            state = (_A_THIRD, hred, hblue)
            w = lowest_bit_index(self.s_hubs & ~colored)
        elif phase == _A_THIRD:
            w = lowest_bit_index(self.s_hubs & ~colored)
            if w is not None:
                state = (_A_LEAF_S, hred, hblue)
            else:
                state = (_A_T, hred, hblue)
                if not (colored >> r.t_vertex & 1):
                    w = r.t_vertex
        elif phase == _A_T:
            state = (_A_HUB_T, hred, hblue)
            w = lowest_bit_index(self.t_hubs & ~colored)
        elif phase == _A_HUB_T:
            w = lowest_bit_index(self.t_hubs & ~colored)
            if w is not None:
                state = (_A_LEAF_T, hred, hblue)
            else:
                # Bob spent his first four moves on the hubs: play the hex game
                w, state = self._hex_respond((_A_HEX, hred, hblue), None, pos)
        elif phase == _A_LEAF_S:
            w = self._my_hub_leaves(self.s_hubs, pos)
        elif phase == _A_LEAF_T:
            w = self._my_hub_leaves(self.t_hubs, pos)
        elif last_opp is not None and last_opp is not PASS:  # hex phase
            v = last_opp
            if r.hex_vertices >> v & 1 and v not in (r.s_vertex, r.t_vertex):
                w, state = self._hex_respond(state, v, pos)
            else:
                for leaves in r.hub_leaves.values():
                    if leaves >> v & 1:
                        w = lowest_bit_index(leaves & ~colored)
                        break
        return (ARBITRARY if w is None else w), state


def lift_strategy(reduction: ReductionOutput, side: Player, source) -> Strategy:
    """The proof's translation of a winning source strategy onto a reduction.

    This is the one entry point for the lifts, so it alone checks that the
    source solver suits the reduction's kind and was built on its input."""
    if reduction.kind in ("bipartite", "split"):
        if not isinstance(source, CnfGameSolver):
            raise ValueError("CNF reductions lift from a CnfGameSolver")
        matches = source.cnf == reduction.source_cnf
    elif reduction.kind == "planar":
        if not isinstance(source, HexGameSolver):
            raise ValueError("planar reductions lift from a HexGameSolver")
        matches = source.hx == reduction.source_hex
    else:
        raise ValueError(f"unknown reduction kind {reduction.kind!r}")
    if not matches:
        raise ValueError("source solver does not match the reduction input")
    if reduction.kind != "planar":
        return CnfLift(reduction, side, source)
    return (PlanarBobLift if side is Player.BOB else PlanarAliceLift)(reduction, source)


# -- text formats -----------------------------------------------------------------


def parse_cnf(text: str) -> CnfInstance:
    """DIMACS-like all-positive CNF: ``p poscnf <nvars> <nclauses>`` then one
    clause per line of 1-indexed variables terminated by 0."""
    nvars = nclauses = None
    clauses = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith(("#", "c")):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "poscnf":
                raise FormatError(f"line {lineno}: expected 'p poscnf <n> <m>'")
            nvars, nclauses = (int_field(x, lineno, "a problem-line count")
                               for x in parts[2:])
            continue
        if nvars is None:
            raise FormatError(f"line {lineno}: clause before problem line")
        try:
            nums = [int(x) for x in line.split()]
        except ValueError as exc:
            raise FormatError(f"line {lineno}: clause must be integers") from exc
        if not nums or nums[-1] != 0:
            raise FormatError(f"line {lineno}: clause must end with 0")
        lits = nums[:-1]
        if any(x <= 0 for x in lits):
            raise FormatError(f"line {lineno}: only positive literals allowed")
        if any(x > nvars for x in lits):
            raise FormatError(f"line {lineno}: variable index out of range")
        clauses.append(tuple(x - 1 for x in lits))
    if nvars is None:
        raise FormatError("missing 'p poscnf' problem line")
    if nclauses is not None and len(clauses) != nclauses:
        raise FormatError(
            f"clause count mismatch: header says {nclauses}, found {len(clauses)}")
    return CnfInstance.of(nvars, clauses)


def format_cnf(cnf: CnfInstance) -> str:
    lines = [f"p poscnf {cnf.variable_count} {len(cnf.clauses)}"]
    for cl in cnf.clauses:
        lines.append(" ".join(str(v + 1) for v in cl) + " 0")
    return "\n".join(lines) + "\n"


def read_cnf(path) -> CnfInstance:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_cnf(fh.read())


def hex_from_document(doc: GraphDocument) -> HexInstance:
    s_lines = doc.meta.get("s", [])
    t_lines = doc.meta.get("t", [])
    if len(s_lines) != 1 or len(t_lines) != 1:
        raise FormatError("hex input needs exactly one 's <v>' and one 't <v>' line")
    return HexInstance(doc.graph, s_lines[0][0], t_lines[0][0])


def format_hex(hx: HexInstance) -> str:
    from .graphs import format_graph
    body = format_graph(hx.h)
    return body + f"s {hx.s}\nt {hx.t}\n"
