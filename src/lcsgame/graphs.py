"""Simple undirected graphs over dense integer vertices, backed by bitmasks.

Vertex sets are plain Python ints used as bitmasks (bit v set <=> vertex v in
the set), which gives constant-time membership tests and word-parallel
union/intersection for free.  All graphs are immutable after construction;
functions here never mutate their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator

CAPACITY = 128          # hard cap on vertex count
SOLVER_CAPACITY = 64    # game-solving operations additionally require n <= 64


class CapacityError(ValueError):
    """Graph too large for the requested operation."""


class FormatError(ValueError):
    """Malformed input file; message carries the offending line number."""


def int_field(text: str, lineno: int | None, what: str) -> int:
    """``text`` read as a non-negative decimal integer; otherwise a
    ``FormatError`` that names the line, if any, and what the field holds."""
    if not text.isdecimal():
        where = "" if lineno is None else f"line {lineno}: "
        raise FormatError(f"{where}{what} must be a non-negative integer, got {text!r}")
    return int(text)


def bits(mask: int) -> Iterator[int]:
    """Iterate the set bit positions of *mask* in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def lowest_bit_index(mask: int) -> int | None:
    """Index of the lowest set bit of *mask*; None when *mask* is empty."""
    return (mask & -mask).bit_length() - 1 if mask else None


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph: ``adj[v]`` is the neighbour bitmask of v."""

    n: int
    adj: tuple[int, ...]

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        if n < 0 or n > CAPACITY:
            raise CapacityError(f"vertex count {n} outside [0, {CAPACITY}]")
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"loop at vertex {u} not allowed")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return Graph(n, tuple(adj))

    # -- basic queries ----------------------------------------------------

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for u in range(self.n):
            rest = self.adj[u] >> (u + 1) << (u + 1)
            for v in bits(rest):
                out.append((u, v))
        return out

    @property
    def edge_count(self) -> int:
        return sum(self.degree(v) for v in range(self.n)) // 2

    @property
    def max_degree(self) -> int:
        return max((self.degree(v) for v in range(self.n)), default=0)

    @property
    def min_degree(self) -> int:
        return min((self.degree(v) for v in range(self.n)), default=0)

    def neighborhood(self, s: int) -> int:
        """Open neighbourhood N(s) of a vertex set, as a mask."""
        return self.closed_neighborhood(s) & ~s

    def closed_neighborhood(self, s: int) -> int:
        """Closed neighbourhood N[s] of a vertex set, as a mask."""
        adj = self.adj
        out = rest = s
        while rest:
            low = rest & -rest
            out |= adj[low.bit_length() - 1]
            rest ^= low
        return out

    def __str__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"


@dataclass(frozen=True)
class Matching:
    """Vertex-disjoint set of edges of an associated graph."""

    pairs: tuple[tuple[int, int], ...]

    @staticmethod
    def of(g: Graph, pairs: Iterable[tuple[int, int]]) -> "Matching":
        seen = 0
        norm = []
        for u, v in pairs:
            if not g.has_edge(u, v):
                raise ValueError(f"({u},{v}) is not an edge")
            if seen >> u & 1 or seen >> v & 1:
                raise ValueError(f"vertex reused in matching at ({u},{v})")
            seen |= (1 << u) | (1 << v)
            norm.append((min(u, v), max(u, v)))
        return Matching(tuple(sorted(norm)))

    @property
    def covered(self) -> int:
        m = 0
        for u, v in self.pairs:
            m |= (1 << u) | (1 << v)
        return m


# -- connectivity and domination ------------------------------------------


def component_of(adj: tuple[int, ...], start_bit: int, within: int) -> int:
    """Connected component (as a mask) of the vertex *start_bit* inside the
    induced subgraph on *within*."""
    comp = start_bit
    frontier = start_bit
    while frontier:
        nxt = 0
        while frontier:
            low = frontier & -frontier
            nxt |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = nxt & within & ~comp
        comp |= frontier
    return comp


def components_within(adj: tuple[int, ...], within: int) -> list[int]:
    """Components of the induced subgraph on *within*, sorted by min vertex."""
    out = []
    rest = within
    while rest:
        low = rest & -rest
        comp = component_of(adj, low, within)
        out.append(comp)
        rest &= ~comp
    return out


def components(g: Graph) -> list[int]:
    """Vertex sets of the connected components of g, sorted by minimum index."""
    return components_within(g.adj, g.full_mask)


def is_connected_within(adj: tuple[int, ...], within: int) -> bool:
    if within == 0:
        return True
    low = within & -within
    return component_of(adj, low, within) == within


def is_connected(g: Graph) -> bool:
    if g.n == 0:
        return True
    return is_connected_within(g.adj, g.full_mask) and g.full_mask != 0


def largest_component_order(adj: tuple[int, ...], within: int) -> int:
    """Order of the largest component of the induced subgraph on *within*.
    The loop stops once the vertices not yet counted are no more than the
    best order found: no component among them can beat it."""
    best = 0
    rest = within
    while rest.bit_count() > best:
        low = rest & -rest
        comp = component_of(adj, low, within)
        rest &= ~comp
        c = comp.bit_count()
        if c > best:
            best = c
    return best


def induced(g: Graph, s: int) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph on mask *s* plus the index map back to g.

    Position i of the returned map holds the original index of the new
    vertex i; new vertices keep the relative order of their old indices.
    """
    if s & ~g.full_mask:
        raise ValueError(f"vertex set {s:#x} not within graph of order {g.n}")
    verts = list(bits(s))
    back = {old: new for new, old in enumerate(verts)}
    adj = []
    for old in verts:
        m = 0
        for w in bits(g.adj[old] & s):
            m |= 1 << back[w]
        adj.append(m)
    return Graph(len(verts), tuple(adj)), tuple(verts)


def is_connected_dominating(g: Graph, s: int) -> bool:
    """True iff G[s] is connected and N[s] = V(G).

    A singleton is connected by convention; the empty set dominates only the
    empty graph.
    """
    if s & ~g.full_mask:
        raise ValueError("set not within graph")
    if s == 0:
        return g.n == 0
    return is_connected_within(g.adj, s) and g.closed_neighborhood(s) == g.full_mask


def delete_vertices(g: Graph, s: int) -> Graph:
    sub, _ = induced(g, g.full_mask & ~s)
    return sub


def delete_edge(g: Graph, u: int, v: int) -> Graph:
    if not g.has_edge(u, v):
        raise ValueError(f"({u},{v}) is not an edge")
    adj = list(g.adj)
    adj[u] &= ~(1 << v)
    adj[v] &= ~(1 << u)
    return Graph(g.n, tuple(adj))


def is_bipartite(g: Graph) -> tuple[bool, int]:
    """Bipartiteness plus one side of a 2-colouring (mask), when it exists."""
    color = {}
    side0 = 0
    for start in range(g.n):
        if start in color:
            continue
        color[start] = 0
        side0 |= 1 << start
        queue = [start]
        while queue:
            u = queue.pop()
            for w in bits(g.adj[u]):
                if w not in color:
                    color[w] = color[u] ^ 1
                    if color[w] == 0:
                        side0 |= 1 << w
                    queue.append(w)
                elif color[w] == color[u]:
                    return False, 0
    return True, side0


def diameter(g: Graph) -> int:
    """Max eccentricity; raises on disconnected or empty graphs."""
    if g.n == 0 or not is_connected(g):
        raise ValueError("diameter requires a nonempty connected graph")
    best = 0
    for s in range(g.n):
        dist = 0
        seen = 1 << s
        frontier = seen
        while seen != g.full_mask:
            nxt = 0
            for v in bits(frontier):
                nxt |= g.adj[v]
            frontier = nxt & ~seen
            seen |= frontier
            dist += 1
        best = max(best, dist)
    return best


def is_clique(g: Graph, s: int) -> bool:
    for v in bits(s):
        if g.adj[v] & s != s & ~(1 << v):
            return False
    return True


def is_independent(g: Graph, s: int) -> bool:
    for v in bits(s):
        if g.adj[v] & s:
            return False
    return True


# -- planarity (three-valued, desk scale) ----------------------------------


class Planarity(Enum):
    PLANAR = "planar"
    NON_PLANAR = "non-planar"
    UNKNOWN = "unknown"


class _MinorBudgetSpent(Exception):
    """The minor searches of one planarity check ran out of steps."""


def _find_minor(g: Graph, pattern_adj: list[int], k: int, sym_prev: list[int],
                steps: Iterator[int]) -> bool:
    """Search for a minor with k branch sets and required adjacencies.

    Each search step takes one item of ``steps``; raises
    ``_MinorBudgetSpent`` once they run out.  All branch sets are seeded
    first, then grown one neighbour at a time.  ``sym_prev[a]`` names an
    interchangeable earlier set whose seed must precede a's seed (symmetry
    breaking within interchangeable groups only, so the search stays
    complete).
    """
    need_edges = sum(a.bit_count() for a in pattern_adj) // 2
    if g.edge_count < need_edges or g.n < k:
        return False

    def missing_pairs(branch: list[int]) -> list[tuple[int, int]]:
        out = []
        for a in range(k):
            if branch[a] == 0:
                continue
            reach_a = g.closed_neighborhood(branch[a])
            for b in bits(pattern_adj[a] & ~((1 << (a + 1)) - 1)):
                if branch[b] and not (reach_a & branch[b]):
                    out.append((a, b))
        return out

    def feasible(branch: list[int], used: int) -> bool:
        pool = g.full_mask & ~used
        for a, b in missing_pairs(branch):
            if not (g.neighborhood(branch[a]) & pool) and \
               not (g.neighborhood(branch[b]) & pool):
                return False
        return True

    def rec(branch: list[int], used: int) -> bool:
        if next(steps, None) is None:
            raise _MinorBudgetSpent
        empty = next((a for a in range(k) if branch[a] == 0), None)
        if empty is None:
            if not missing_pairs(branch):
                return True
            # grow some branch set towards a missing contact
            for a in range(k):
                grow = g.neighborhood(branch[a]) & ~used
                for v in bits(grow):
                    bit = 1 << v
                    branch[a] |= bit
                    if feasible(branch, used | bit) and rec(branch, used | bit):
                        return True
                    branch[a] &= ~bit
            return False
        lo = 0
        if sym_prev[empty] >= 0 and branch[sym_prev[empty]]:
            lo = lowest_bit_index(branch[sym_prev[empty]]) + 1
        for v in range(lo, g.n):
            bit = 1 << v
            if used & bit:
                continue
            branch[empty] = bit
            if feasible(branch, used | bit) and rec(branch, used | bit):
                return True
            branch[empty] = 0
        return False

    return rec([0] * k, 0)


def _strip_leaves(g: Graph) -> Graph:
    """Repeatedly delete degree<=1 vertices (K5/K3,3 minors never need them)."""
    cur = g
    while True:
        drop = mask_of(v for v in range(cur.n) if cur.degree(v) <= 1)
        if not drop or drop == cur.full_mask:
            if drop == cur.full_mask:
                return Graph.from_edges(0, [])
            return cur
        cur = delete_vertices(cur, drop)


def planarity_check(g: Graph, budget: int = 50_000) -> Planarity:
    """Three-valued desk-scale planarity test.

    Euler's bound gives quick NonPlanar answers; otherwise a budgeted search
    for a K5 or K3,3 minor runs on the leaf-stripped graph.  A completed
    search without a minor certifies Planar (Wagner's theorem); running out
    of budget yields Unknown.
    """
    n, m = g.n, g.edge_count
    if n >= 3 and m > 3 * n - 6:
        return Planarity.NON_PLANAR
    core = _strip_leaves(g)
    if core.edge_count < 9:
        # too few edges for either forbidden minor
        return Planarity.PLANAR
    k5 = [0b11111 & ~(1 << i) for i in range(5)]
    k33 = [(0b111000 if i < 3 else 0b000111) for i in range(6)]
    steps = iter(range(budget))  # shared by both searches
    try:
        if _find_minor(core, k5, 5, [-1, 0, 1, 2, 3], steps) or \
                _find_minor(core, k33, 6, [-1, 0, 1, -1, 3, 4], steps):
            return Planarity.NON_PLANAR
    except _MinorBudgetSpent:
        return Planarity.UNKNOWN
    return Planarity.PLANAR


# -- text format ------------------------------------------------------------


@dataclass
class GraphDocument:
    """A parsed graph file: the graph plus any role/meta annotations."""

    graph: Graph
    roles: dict[int, str] = field(default_factory=dict)
    meta: dict[str, list[tuple[int, ...]]] = field(default_factory=dict)
    header: list[str] = field(default_factory=list)


def parse_graph(text: str) -> GraphDocument:
    """Parse the graph text format.

    First non-comment line ``n <count>``, then ``e <u> <v>`` per edge.
    Comment lines start with ``#``; ``# role: <v> <tag>`` and
    ``# meta: <key> <ints...>`` comments are collected, other comments and
    blank lines are skipped.
    """
    n = None
    edges: list[tuple[int, int]] = []
    roles: dict[int, tuple[str, int]] = {}  # vertex -> (tag, line)
    meta: dict[str, list[tuple[int, ...]]] = {}
    header: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("role:"):
                parts = body[len("role:"):].split()
                if len(parts) != 2:
                    raise FormatError(f"line {lineno}: malformed role comment")
                roles[int_field(parts[0], lineno, "a role's vertex")] = parts[1], lineno
            elif body.startswith("meta:"):
                parts = body[len("meta:"):].split()
                if not parts:
                    raise FormatError(f"line {lineno}: malformed meta comment")
                try:
                    args = tuple(int(x) for x in parts[1:])
                except ValueError as exc:
                    raise FormatError(f"line {lineno}: meta arguments must be ints") from exc
                meta.setdefault(parts[0], []).append(args)
            else:
                header.append(body)
            continue
        fields = line.split()
        if fields[0] == "n":
            if n is not None:
                raise FormatError(f"line {lineno}: duplicate vertex count")
            if len(fields) != 2:
                raise FormatError(f"line {lineno}: expected 'n <count>'")
            n = int_field(fields[1], lineno, "the vertex count")
        elif fields[0] == "e":
            if n is None:
                raise FormatError(f"line {lineno}: edge before vertex count")
            if len(fields) != 3:
                raise FormatError(f"line {lineno}: expected 'e <u> <v>'")
            u, v = (int_field(x, lineno, "an edge endpoint") for x in fields[1:])
            if not (u < n and v < n):
                raise FormatError(f"line {lineno}: edge ({u},{v}) out of range")
            if u == v:
                raise FormatError(f"line {lineno}: loop not allowed")
            edges.append((u, v))
        elif fields[0] in ("s", "t"):
            # hex-instance extension lines; stored as meta
            if len(fields) != 2:
                raise FormatError(f"line {lineno}: expected '{fields[0]} <v>'")
            meta.setdefault(fields[0], []).append(
                (int_field(fields[1], lineno, f"the {fields[0]} vertex"),))
        else:
            raise FormatError(f"line {lineno}: unknown record '{fields[0]}'")
    if n is None:
        raise FormatError("line 1: missing 'n <count>' line")
    for v, (_, lineno) in roles.items():
        if v >= n:
            raise FormatError(f"line {lineno}: role vertex {v} out of range for n={n}")
    return GraphDocument(Graph.from_edges(n, edges),
                         {v: tag for v, (tag, _) in roles.items()}, meta, header)


def format_graph(g: Graph, roles: dict[int, str] | None = None,
                 meta: dict[str, list[tuple[int, ...]]] | None = None,
                 header: Iterable[str] | None = None) -> str:
    lines = []
    for h in header or ():
        lines.append(f"# {h}")
    for v, tag in sorted((roles or {}).items()):
        lines.append(f"# role: {v} {tag}")
    for key in sorted(meta or {}):
        for args in meta[key]:
            lines.append(f"# meta: {key} " + " ".join(str(a) for a in args))
    lines.append(f"n {g.n}")
    for u, v in sorted(g.edges()):
        lines.append(f"e {u} {v}")
    return "\n".join(lines) + "\n"


def read_graph(path) -> GraphDocument:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())


def write_graph(path, g: Graph, roles=None, meta=None, header=None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_graph(g, roles, meta, header))
