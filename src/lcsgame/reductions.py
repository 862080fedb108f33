"""The three hardness constructions with brute-force source-game solvers.

Each builder emits the reduction graph, the threshold k, and a total role
map; the bipartite and split builds share one clause-gadget builder.  The
source games (POS CNF and Generalised Hex) are solved exactly at desk
scale by one solver shell over ``engine.AndOrSearch``, each game supplying
only when a position is decided, so winning strategies can be lifted onto
the reduction graphs and checked against adversarial play.
``lift_strategy`` is the one way to build a lift, and the one place that
checks the source solver against the reduction.  Lifted strategies play
the source game on a virtual board that ignores their own arbitrary moves,
the usual device for strategy transfer, one ``engine.virtual_step`` per
turn.
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
    virtual_step,
)
from .graphs import (
    FormatError,
    Graph,
    GraphDocument,
    Planarity,
    bits,
    component_of,
    diameter,
    format_graph,
    int_field,
    is_bipartite,
    is_clique,
    is_independent,
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


class _SourceGame:
    """The shell of a source-game solver: one memoised AND/OR search over
    positions ``(red, blue)``, the masks of the ``free`` vertices each side
    has taken (Alice red, first).  Each game supplies ``_decided(red,
    blue)``: True or False once Alice has won or lost, else None."""

    def __init__(self, free: int):
        self.free = free
        self.search = AndOrSearch(self._expand)

    def _expand(self, pos: tuple[int, int]):
        red, blue = pos
        decided = self._decided(red, blue)
        if decided is not None:
            return decided
        # not decided, so some vertex is still free
        free = self.free & ~red & ~blue
        if red.bit_count() == blue.bit_count():
            return True, ((v, (red | 1 << v, blue)) for v in bits(free))
        return False, ((v, (red, blue | 1 << v)) for v in bits(free))

    @property
    def winner(self) -> Player:
        return Player.ALICE if self.search.wins((0, 0)) else Player.BOB

    def best(self, red: int, blue: int) -> int | None:
        """The mover's lowest outcome-preserving move (winning when
        possible), else the lowest free vertex; None on a full board."""
        free = self.free & ~red & ~blue
        if not free:
            return None
        v = self.search.move((red, blue))
        return lowest_bit_index(free) if v is None else v


class CnfGameSolver(_SourceGame):
    """POS CNF: Alice sets variables true (red), Bob false (blue)."""

    def __init__(self, cnf: CnfInstance):
        if cnf.variable_count > _MAX_VARS:
            raise ValueError(f"too many variables (> {_MAX_VARS})")
        self.cnf = cnf
        self.clause_masks = [mask_of(c) for c in cnf.clauses]
        super().__init__((1 << cnf.variable_count) - 1)

    def _decided(self, true_mask, false_mask):
        if all(cm & true_mask for cm in self.clause_masks):
            return True
        if any(cm & ~false_mask == 0 for cm in self.clause_masks):
            return False
        return None


class HexGameSolver(_SourceGame):
    """Generalised Hex; s and t start red, so they are not free."""

    def __init__(self, hx: HexInstance):
        if hx.h.n > _MAX_HEX_VERTICES:
            raise ValueError(f"hex instance too large (> {_MAX_HEX_VERTICES})")
        self.hx = hx
        self.g = hx.h
        self.st = (1 << hx.s) | (1 << hx.t)
        super().__init__(self.g.full_mask & ~self.st)

    def _connected_st(self, within: int) -> bool:
        comp = component_of(self.g.adj, 1 << self.hx.s, within)
        return bool(comp >> self.hx.t & 1)

    def _decided(self, red, blue):
        if self._connected_st(red | self.st):
            return True
        if not self._connected_st(self.g.full_mask & ~blue):
            return False
        return None


# -- builders -----------------------------------------------------------------------


def _cnf_build(cnf: CnfInstance, kind: str) -> ReductionOutput:
    """The CNF reduction of ``kind``: variables, then two copies of each
    clause vertex, each copy adjacent to the clause's variables.  The
    bipartite build adds two hubs adjacent to every variable; the split
    build makes the variables a clique instead.  An odd variable count gets
    one unused variable, so k is half the (even) order."""
    if cnf.variable_count % 2:
        cnf = CnfInstance(cnf.variable_count + 1, cnf.clauses)
    n, m = cnf.variable_count, len(cnf.clauses)
    roles = {i: f"x{i}" for i in range(n)}
    pair = {}
    if kind == "bipartite":
        u1, u2 = n + 2 * m, n + 2 * m + 1
        edges = [(i, u) for i in range(n) for u in (u1, u2)]
        roles[u1], roles[u2] = "u1", "u2"
        pair[u1], pair[u2] = u2, u1
    else:
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for j, clause in enumerate(cnf.clauses):
        c1, c2 = n + 2 * j, n + 2 * j + 1
        roles[c1], roles[c2] = f"C{j}a", f"C{j}b"
        pair[c1], pair[c2] = c2, c1
        edges += [(v, c) for v in clause for c in (c1, c2)]
    g = Graph.from_edges(len(roles), edges)
    return ReductionOutput(kind, g, g.n // 2, roles,
                           var_count=n, pair_partner=pair, source_cnf=cnf)


def build_bipartite(cnf: CnfInstance) -> ReductionOutput:
    """Variables, duplicated clause vertices, and two universal-to-variables
    hubs; k is half the (even) order.  Output is bipartite with diameter <= 4."""
    out = _cnf_build(cnf, "bipartite")
    ok, _ = is_bipartite(out.g)
    if not ok or diameter(out.g) > 4:
        raise InternalError("reduction output must be bipartite of diameter <= 4")
    return out


def build_split(cnf: CnfInstance) -> ReductionOutput:
    """As the bipartite build, but the variables form a clique and the two
    hubs are dropped; output is a split graph with k = |V|/2."""
    out = _cnf_build(cnf, "split")
    clique_mask = mask_of(range(out.var_count))
    if not is_clique(out.g, clique_mask) or \
       not is_independent(out.g, out.g.full_mask & ~clique_mask):
        raise InternalError("output must be a split graph")
    return out


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

    Variable vertices forward to the source game, played on a virtual board
    (``engine.virtual_step``) that ignores this side's own arbitrary moves;
    hub and clause-copy moves are answered by pairing.  Every opponent move
    on a variable is recorded on that board, so the source game never picks
    a variable the opponent holds, and the desynchronisation check of
    ``engine.virtual_answer`` cannot fire, for Bob as for Alice.
    State: (true_mask, false_mask) of the virtual source game.
    """

    def __init__(self, red: ReductionOutput, side: Player, source: CnfGameSolver):
        self.red = red
        self.alice = side is Player.ALICE
        self.source = source
        self.name = f"lift_{red.kind}_{'alice' if self.alice else 'bob'}"
        self.var_mask = mask_of(range(red.var_count))

    def initial_state(self):
        return (0, 0)

    def choose(self, g, variant, pos, state, last_opp):
        if last_opp is PASS:
            return ARBITRARY, state
        if last_opp is None or self.var_mask >> last_opp & 1:
            # Alice's opening or a variable: the source game answers
            true_mask, false_mask = state
            answer, true_mask, false_mask = virtual_step(
                pos, self.alice, true_mask, false_mask, last_opp, self.source.best)
            return answer, (true_mask, false_mask)
        partner = self.red.pair_partner.get(last_opp)
        if partner is not None and not ((pos[0] | pos[1]) >> partner & 1):
            return partner, state
        return ARBITRARY, state


_HEX = -1  # PlanarBobLift group marker: a vertex of the embedded hex board


class PlanarBobLift(Strategy):
    """Bob's hex-blocking strategy on the planar reduction.

    Answers inside the s-star and t-star by exhausting those stars, pairs
    leaves hub-by-hub, and forwards hex moves to the source game, played on
    a virtual board (``engine.virtual_step``).  Every Alice move on the hex
    board is recorded on that board, so the source game never picks a
    vertex she holds, and the desynchronisation check of
    ``engine.virtual_answer`` cannot fire.
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
            answer, hred, hblue = virtual_step(pos, False, hred, hblue, last_opp,
                                               self.source.best)
            return answer, (hred, hblue)
        w = lowest_bit_index(group & ~colored)
        return (ARBITRARY if w is None else w), state


_A_OPEN_S, _A_HUB_S, _A_THIRD, _A_T, _A_HUB_T = range(5)
_A_LEAF_S, _A_LEAF_T, _A_HEX = 10, 11, 12


class PlanarAliceLift(Strategy):
    """Alice's opening protocol over the two pendant stars, falling back to
    the lifted hex strategy, played on a virtual board
    (``engine.virtual_step``), when Bob contests both stars."""

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
                w, hred, hblue = virtual_step(pos, True, hred, hblue, None,
                                              self.source.best)
                state = (_A_HEX, hred, hblue)
        elif phase == _A_LEAF_S:
            w = self._my_hub_leaves(self.s_hubs, pos)
        elif phase == _A_LEAF_T:
            w = self._my_hub_leaves(self.t_hubs, pos)
        elif last_opp is not None and last_opp is not PASS:  # hex phase
            v = last_opp
            if r.hex_vertices >> v & 1 and v not in (r.s_vertex, r.t_vertex):
                w, hred, hblue = virtual_step(pos, True, hred, hblue, v,
                                              self.source.best)
                state = (phase, hred, hblue)
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
    body = format_graph(hx.h)
    return body + f"s {hx.s}\nt {hx.t}\n"
