"""Executable versions of the constructive strategies behind the bounds.

Most Bob strategies are pairing strategies: answer the opponent's move at v
by claiming v's designated partner.  One generic pairing engine hosts those;
bespoke classes exist only where a strategy needs private state (the cubic
Bob's committed component, lifted source-game states).  ``builtin_strategy``
builds each named strategy one way: the pairing plans come from a family's
meta through shared helpers (``_meta_pairs``, ``_group_triggers``), and the
degree-based Alice strategies share ``_hub``.  Every "arbitrary" move in a
proof is answered with ``engine.ARBITRARY``, which the engine resolves to
the lowest-index legal vertex.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable

from .engine import (
    ARBITRARY,
    PASS,
    Budget,
    Strategy,
    first_move_strategy,
    lowest_index_strategy,
)
from .graphs import (
    Graph,
    Matching,
    bits,
    component_of,
    components_within,
    int_field,
    is_connected,
    is_connected_within,
    lowest_bit_index,
    mask_of,
)


@dataclass(frozen=True)
class PairingPlan:
    """Pairs plus optional trigger responses, evaluated before the pairing.

    ``triggers[v]`` is an ordered tuple of candidate answers to the
    opponent colouring v; the first uncoloured one is played.  Pairs need
    not be edges.  The fallback is always the lowest-index legal vertex.
    """

    pairs: tuple[tuple[int, int], ...] = ()
    triggers: dict[int, tuple[int, ...]] = field(default_factory=dict)
    opening: int | None = None
    name: str = "pairing"

    def __post_init__(self):
        seen = 0
        for u, v in self.pairs:
            if u == v:
                raise ValueError("pair members must differ")
            m = (1 << u) | (1 << v)
            if seen & m:
                raise ValueError("pairs are not vertex-disjoint")
            seen |= m


class PairingStrategy(Strategy):
    def __init__(self, plan: PairingPlan):
        self.plan = plan
        self.name = plan.name
        self._partner = {}
        for u, v in plan.pairs:
            self._partner[u] = v
            self._partner[v] = u

    def choose(self, g, variant, pos, state, last_opp):
        plan = self.plan
        colored = pos[0] | pos[1]
        if last_opp is None or colored == 0:
            if plan.opening is not None and not (colored >> plan.opening & 1):
                return plan.opening, None
            return ARBITRARY, None
        # a pass has no triggers and no partner
        resp = plan.triggers.get(last_opp)
        if resp is not None:
            for w in resp:
                if not (colored >> w & 1):
                    return w, None
            return ARBITRARY, None
        partner = self._partner.get(last_opp)
        if partner is not None and not (colored >> partner & 1):
            return partner, None
        return ARBITRARY, None


# -- degree-based Alice strategies -------------------------------------------


def _hub(g: Graph) -> int:
    """The lowest-index vertex of maximum degree."""
    degrees = [g.degree(v) for v in range(g.n)]
    return degrees.index(max(degrees))


class MaxDegreeAlice(Strategy):
    """Open at a maximum-degree vertex, then eat its neighbourhood."""

    name = "alice_max_degree"

    def __init__(self, g: Graph):
        if g.n == 0:
            raise ValueError("graph is empty")
        self.hub = _hub(g)

    def choose(self, g, variant, pos, state, last_opp):
        colored = pos[0] | pos[1]
        if not (colored >> self.hub & 1):
            return self.hub, None
        w = lowest_bit_index(g.adj[self.hub] & ~colored)
        return (ARBITRARY if w is None else w), None


class DegreeSumAlice(Strategy):
    """Connected-dominating growth for graphs with max degree + min degree >= n.

    Maintains the invariant that the red vertices form one component C and
    that the undominated uncoloured vertices R_u shrink by one per round:
    pick v in R_u and colour an uncoloured neighbour of v adjacent to C.
    Everything is derived from the configuration, so no private state.
    """

    name = "alice_degree_sum"

    def __init__(self, g: Graph):
        if not is_connected(g) or g.n == 0:
            raise ValueError("degree-sum strategy needs a connected graph")
        if g.max_degree + g.min_degree < g.n:
            raise ValueError("degree-sum strategy needs max+min degree >= n")
        self.hub = _hub(g)

    def choose(self, g, variant, pos, state, last_opp):
        red = pos[0]
        colored = red | pos[1]
        if not (colored >> self.hub & 1):
            return self.hub, None
        if not (red >> self.hub & 1):
            return ARBITRARY, None
        comp = component_of(g.adj, 1 << self.hub, red)
        dominated = g.closed_neighborhood(comp)
        r_uncol = g.full_mask & ~dominated & ~colored
        if r_uncol:
            v = (r_uncol & -r_uncol).bit_length() - 1
            w_cands = g.adj[v] & dominated & ~colored
            if w_cands:
                return (w_cands & -w_cands).bit_length() - 1, None
        return ARBITRARY, None


# -- the cubic Bob strategy ----------------------------------------------------


class CubicBob(Strategy):
    """Disconnection strategy on a cubic graph with a suitable matching.

    Interior vertices (those on matching edges) are paired; the first
    exterior vertex Alice colours commits Bob to that side, whose exterior
    vertices he then exhausts, lowest first (any order would do).
    Private state: 0 = uncommitted, 1/2 = side.
    """

    name = "cubic_bob"

    def __init__(self, g: Graph, matching: Matching):
        adj = list(g.adj)
        for u, v in matching.pairs:
            adj[u] &= ~(1 << v)
            adj[v] &= ~(1 << u)
        comps = components_within(tuple(adj), g.full_mask)
        if len(comps) != 2:
            raise ValueError("matching removal must leave exactly two components")
        self.sides = (comps[0], comps[1])
        self.partner = {}
        for u, v in matching.pairs:
            self.partner[u] = v
            self.partner[v] = u
        interior = matching.covered
        self.exterior = (comps[0] & ~interior, comps[1] & ~interior)
        if not self.exterior[0] or not self.exterior[1]:
            raise ValueError("each side needs an exterior (unmatched) vertex")

    def initial_state(self) -> Hashable:
        return 0

    def choose(self, g, variant, pos, state, last_opp):
        if last_opp is None or last_opp is PASS:
            return ARBITRARY, state
        v = last_opp
        colored = pos[0] | pos[1]
        partner = self.partner.get(v)
        if partner is not None:
            if not (colored >> partner & 1):
                return partner, state
            return ARBITRARY, state
        # exterior vertex: commit if needed, then exhaust that side's exteriors
        if state == 0:
            state = 1 if (self.sides[0] >> v & 1) else 2
        avail = self.exterior[state - 1] & ~colored
        if avail:
            return (avail & -avail).bit_length() - 1, state
        return ARBITRARY, state


# -- the spider priority strategy ---------------------------------------------


class SpiderPriority:
    """The matched-spider move priority: the clique K first, then any vertex
    except the S vertices matched to blue K vertices.

    The matching is read off the adjacency (the unique K neighbour of each
    S vertex), so an antimatched bijection on |K| = 2, which is really a
    matched spider, works too.
    """

    def __init__(self, g: Graph, s: int, k: int):
        self.k = k
        self.pairs = []
        for sv in bits(s):
            nk = g.adj[sv] & k
            if nk.bit_count() != 1:
                raise ValueError("spider exhaust strategies need a matched spider")
            self.pairs.append((sv, (nk & -nk).bit_length() - 1))

    def pick(self, avail: int, blue: int) -> int | None:
        """The lowest vertex of ``avail`` by that priority; None when only
        S vertices matched to blue K vertices are left."""
        w = lowest_bit_index(self.k & avail)
        if w is None:
            bad = 0
            for sv, kv in self.pairs:
                if blue >> kv & 1:
                    bad |= 1 << sv
            w = lowest_bit_index(avail & ~bad)
        return w


class SpiderExhaust(Strategy):
    """Priority play on a matched spider: exhaust the clique K, then avoid the
    S-vertices matched to blue clique vertices, finally concede those.

    Used by both sides; the same priorities (``SpiderPriority``) prove both
    bounds of the matched-spider value.
    """

    def __init__(self, g: Graph, s: int, k: int, side_name: str):
        self.name = f"spider_exhaust_{side_name}"
        self.priority = SpiderPriority(g, s, k)

    def choose(self, g, variant, pos, state, last_opp):
        blue = pos[1]
        w = self.priority.pick(g.full_mask & ~(pos[0] | blue), blue)
        return (ARBITRARY if w is None else w), None


# -- named builtin strategies ----------------------------------------------------


def _meta_pairs(doc, key: str = "pair") -> tuple[tuple[int, int], ...]:
    return tuple((a, b) for a, b, *rest in doc.meta.get(key, []))


def _group_triggers(doc) -> dict[int, tuple[int, ...]]:
    """Each member of a ``group`` meta line answers into the rest of it."""
    return {v: tuple(w for w in grp if w != v)
            for grp in doc.meta.get("group", []) for v in grp}


def builtin_strategy(name: str, doc, matching: Matching | None = None,
                     budget: Budget | None = None) -> Strategy:
    """Instantiate a named proof strategy for a generated family instance.

    ``doc`` is a generated family graph (or a parsed graph document) whose
    role/meta annotations identify the vertex roles the strategy addresses.
    ``cubic_bob`` with no ``matching`` charges its matching search to
    ``budget`` (unbounded by default).
    """
    g = doc.graph
    if name in ("regular4_alice", "king_mirror_alice"):
        pairs = _meta_pairs(doc)
        if not pairs:
            raise ValueError(f"{name} needs column pairs in meta")
        return PairingStrategy(PairingPlan(pairs=pairs, opening=0, name=name))
    if name == "regular5_alice":
        pairs, triggers = _meta_pairs(doc), _group_triggers(doc)
        if not pairs or not triggers:
            raise ValueError("regular5_alice needs pair and group meta")
        return PairingStrategy(PairingPlan(
            pairs=pairs, triggers=triggers, opening=0, name=name))
    if name == "clique_chain_bob":
        # later tables overwrite earlier ones: chain_u, chain_v, then groups
        triggers = {**{u: (prev_v,) for u, prev_v in doc.meta.get("chain_u", [])},
                    **{v: (next_u,) for v, next_u in doc.meta.get("chain_v", [])},
                    **_group_triggers(doc)}
        if not triggers:
            raise ValueError("clique_chain_bob needs chain meta")
        return PairingStrategy(PairingPlan(triggers=triggers, name=name))
    if name == "cubic_bob":
        if matching is None:
            matching = find_suitable_matching(g, budget)
            if matching is None:
                raise ValueError("graph admits no suitable matching")
        return CubicBob(g, matching)
    if name == "cartesian_bob":
        coords = {v: (r, c) for v, r, c in doc.meta.get("coord", [])}
        if not coords:
            raise ValueError("cartesian_bob needs coord meta")
        by_coord = {rc: v for v, rc in coords.items()}
        # answer into the row: right neighbour first, then left
        triggers = {v: tuple(w for w in (by_coord.get((r, c + 1)),
                                         by_coord.get((r, c - 1))) if w is not None)
                    for v, (r, c) in coords.items()}
        return PairingStrategy(PairingPlan(triggers=triggers, name=name))
    if name in ("spider_exhaust_bob", "spider_exhaust_alice"):
        fmap = {s: k for s, k in doc.meta.get("fmap", [])}
        if not fmap:
            raise ValueError("spider strategies need fmap meta")
        return SpiderExhaust(g, mask_of(fmap), mask_of(fmap.values()),
                             name.rsplit("_", 1)[1])
    if name == "hex_patch_bob":
        return PairingStrategy(PairingPlan(pairs=_meta_pairs(doc, "medge"), name=name))
    if name == "alice_max_degree":
        return MaxDegreeAlice(g)
    if name == "alice_degree_sum":
        return DegreeSumAlice(g)
    if name == "lowest":
        return lowest_index_strategy()
    if name.startswith("first:"):
        v = int_field(name[len("first:"):], None, "the vertex of first:<v>")
        if v >= g.n:
            raise ValueError(
                f"{name}: vertex {v} is not in the graph's range 0..{g.n - 1}")
        return first_move_strategy(v)
    raise ValueError(f"unknown strategy name {name!r}")


# -- suitable matchings ------------------------------------------------------------


def find_suitable_matching(g: Graph, budget: Budget | None = None) -> Matching | None:
    """Search for a matching whose removal splits a connected cubic graph into
    exactly two supercycles.

    Any such matching can be taken to be exactly the edge cut of a vertex
    bipartition (removing extra non-cut edges never helps: it only lowers
    degrees or disconnects), so the complete search enumerates bipartitions
    whose cut is a matching, both sides connected, and each side keeping a
    degree-3 vertex.  Each bipartition examined charges one state to
    ``budget`` (unbounded by default).
    """
    if g.n == 0 or any(g.degree(v) != 3 for v in range(g.n)):
        raise ValueError("suitable matchings are defined for cubic graphs")
    if not is_connected(g):
        raise ValueError("graph must be connected")
    full = g.full_mask
    adj = g.adj
    n = g.n
    # no call per bipartition without a budget: the loop is the whole cost
    tick = None if budget is None else budget.tick
    # vertex n-1 fixed on side B to kill the complement symmetry
    for bits_a in range(1, 1 << (n - 1)):
        if tick:
            tick()
        side_a = bits_a
        pc = side_a.bit_count()
        if pc < 4 or n - pc < 4:
            continue
        side_b = full & ~side_a
        cut = []
        ok = True
        ext_a = ext_b = False
        for v in bits(side_a):
            x = adj[v] & side_b
            c = x.bit_count()
            if c > 1:
                ok = False
                break
            if c == 0:
                ext_a = True
            else:
                cut.append((v, (x & -x).bit_length() - 1))
        if not ok or not ext_a or not cut:
            continue
        b_ends = [w for _, w in cut]
        if len(set(b_ends)) != len(b_ends):
            continue
        covered_b = mask_of(b_ends)
        if side_b & ~covered_b:
            ext_b = True
        if not ext_b:
            continue
        # connectivity inside each side ignoring cut edges equals connectivity
        # of the induced subgraphs, since cut edges leave the side
        if not (is_connected_within(g.adj, side_a)
                and is_connected_within(g.adj, side_b)):
            continue
        return Matching.of(g, cut)
    return None
