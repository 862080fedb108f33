"""Constructors for the graph families used by the bounds and strategies.

Every family has a fixed, documented index layout so strategies can address
vertex roles by arithmetic, and asserts its claimed structural property
(regularity, spider axioms, 6-cycle partition, ...) at construction time.
Role and pairing metadata ride along for the strategy factory and the text
format writer.
"""

from __future__ import annotations

import inspect
import random
from dataclasses import dataclass, field

from .engine import InternalError
from .graphs import (
    Graph,
    Matching,
    bits,
    is_clique,
    is_connected,
    is_independent,
    mask_of,
)


@dataclass
class FamilyGraph:
    """A generated graph plus the role/meta annotations of its family."""

    graph: Graph
    family: str
    params: dict[str, int]
    roles: dict[int, str] = field(default_factory=dict)
    meta: dict[str, list[tuple[int, ...]]] = field(default_factory=dict)

    @property
    def header(self) -> list[str]:
        args = " ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return [f"family: {self.family} {args}".rstrip()]


def _check(cond: bool, message: str) -> None:
    if not cond:
        raise InternalError(f"family self-check failed: {message}")


# -- standard families ----------------------------------------------------------


def path(n: int) -> FamilyGraph:
    if n < 1:
        raise ValueError("path needs n >= 1")
    g = Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])
    return FamilyGraph(g, "path", {"n": n})


def cycle(n: int) -> FamilyGraph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    g = Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])
    return FamilyGraph(g, "cycle", {"n": n})


def complete(n: int) -> FamilyGraph:
    g = Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    return FamilyGraph(g, "complete", {"n": n})


def complete_bipartite(a: int, b: int) -> FamilyGraph:
    g = Graph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])
    roles = {v: ("left" if v < a else "right") for v in range(a + b)}
    return FamilyGraph(g, "complete_bipartite", {"a": a, "b": b}, roles)


def gnm(n: int, m: int, seed: int = 0) -> FamilyGraph:
    """Uniform G(n, m) sample (the random model used by the property tests)."""
    all_edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if m < 0 or m > len(all_edges):
        raise ValueError("edge count out of range")
    rng = random.Random(seed)
    g = Graph.from_edges(n, rng.sample(all_edges, m))
    return FamilyGraph(g, "gnm", {"n": n, "m": m, "seed": seed})


# -- sharpness examples -------------------------------------------------------------


def subdivided_star(leaves: int) -> FamilyGraph:
    """Star on `leaves` leaves with exactly one edge subdivided.

    Layout: centre 0, leaves 1..leaves, subdivision vertex leaves+1 on the
    path 0 - (leaves+1) - 1.
    """
    if leaves < 1:
        raise ValueError("needs at least one leaf")
    mid = leaves + 1
    edges = [(0, v) for v in range(2, leaves + 1)] + [(0, mid), (mid, 1)]
    g = Graph.from_edges(leaves + 2, edges)
    roles = {0: "center", 1: "far_leaf", mid: "mid"}
    roles.update({v: "leaf" for v in range(2, leaves + 1)})
    return FamilyGraph(g, "subdivided_star", {"leaves": leaves}, roles)


def two_cliques_bridge(d: int) -> FamilyGraph:
    """Two complete graphs on d vertices joined by one edge (0 -- d)."""
    if d < 3:
        raise ValueError("needs d >= 3")
    edges = [(i, j) for i in range(d) for j in range(i + 1, d)]
    edges += [(d + i, d + j) for i in range(d) for j in range(i + 1, d)]
    edges.append((0, d))
    g = Graph.from_edges(2 * d, edges)
    _check(g.max_degree + g.min_degree == 2 * d - 1, "degree-sum sharpness")
    roles = {v: ("cliqueA" if v < d else "cliqueB") for v in range(2 * d)}
    roles[0] = "bridgeA"
    roles[d] = "bridgeB"
    return FamilyGraph(g, "two_cliques_bridge", {"d": d}, roles)


def clique_pendant_path(nn: int) -> FamilyGraph:
    """K_nn (odd order) with a pending path (u, v, w) attached at u = 0.

    Realises the edge-count sharpness example: |E| = (n-2)(n-3)/2 + 2.
    """
    if nn < 3 or nn % 2 == 0:
        raise ValueError("needs odd clique order >= 3")
    edges = [(i, j) for i in range(nn) for j in range(i + 1, nn)]
    edges += [(0, nn), (nn, nn + 1)]
    g = Graph.from_edges(nn + 2, edges)
    n = g.n
    _check(g.edge_count == (n - 2) * (n - 3) // 2 + 2, "edge-count sharpness")
    roles = {v: "clique" for v in range(nn)}
    roles.update({0: "u", nn: "v", nn + 1: "w"})
    return FamilyGraph(g, "clique_pendant_path", {"nn": nn}, roles)


# -- regular chains -----------------------------------------------------------------


def clique_chain(d: int, nchain: int) -> FamilyGraph:
    """N copies of K_{d+1}, edge u_i v_i removed, v_i joined to u_{i+1} (mod N).

    Layout: H_i occupies [i(d+1), (i+1)(d+1)); u_i is its first vertex, v_i
    its second.  The result is d-regular.
    """
    if d < 3 or nchain < 2:
        raise ValueError("needs d >= 3 and N >= 2")
    size = d + 1
    edges = []
    meta: dict[str, list[tuple[int, ...]]] = {"chain_u": [], "chain_v": [], "group": []}
    roles = {}
    for i in range(nchain):
        base = i * size
        u, v = base, base + 1
        roles[u] = f"u{i}"
        roles[v] = f"v{i}"
        internal = []
        for a in range(size):
            for b in range(a + 1, size):
                if (base + a, base + b) != (u, v):
                    edges.append((base + a, base + b))
        for a in range(2, size):
            roles[base + a] = f"int{i}"
            internal.append(base + a)
        meta["group"].append(tuple(internal))
    for i in range(nchain):
        u_next = ((i + 1) % nchain) * size
        v_i = i * size + 1
        edges.append((v_i, u_next))
        meta["chain_v"].append((v_i, u_next))
        meta["chain_u"].append((u_next, v_i))
    g = Graph.from_edges(nchain * size, edges)
    _check(all(g.degree(x) == d for x in range(g.n)), "d-regularity")
    return FamilyGraph(g, "clique_chain", {"d": d, "nchain": nchain}, roles, meta)


def regular4_chain(nchain: int) -> FamilyGraph:
    """The 4-regular ring of paired vertices u^i_1 = 2i, u^i_2 = 2i+1."""
    if nchain < 3:
        raise ValueError("needs N >= 3 for simplicity")
    edges = []
    meta = {"pair": []}
    for i in range(nchain):
        j = (i + 1) % nchain
        for a in (0, 1):
            for b in (0, 1):
                edges.append((2 * i + a, 2 * j + b))
        meta["pair"].append((2 * i, 2 * i + 1))
    g = Graph.from_edges(2 * nchain, edges)
    _check(all(g.degree(x) == 4 for x in range(g.n)), "4-regularity")
    roles = {v: f"col{v // 2}" for v in range(g.n)}
    return FamilyGraph(g, "regular4_chain", {"nchain": nchain}, roles, meta)


def regular5_chain(d: int, nchain: int) -> FamilyGraph:
    """The d-regular ring of modified cliques, d >= 5.

    H_i = K_{d+1} on [i(d+1), (i+1)(d+1)) with v1v3, v1v4, v2v3, v2v4
    removed; v3^i, v4^i are joined to v1^{i+1}, v2^{i+1}.
    """
    if d < 5 or nchain < 2:
        raise ValueError("needs d >= 5 and N >= 2")
    size = d + 1
    edges = []
    meta: dict[str, list[tuple[int, ...]]] = {"pair": [], "group": []}
    roles = {}
    for i in range(nchain):
        base = i * size
        drop = {(0, 2), (0, 3), (1, 2), (1, 3)}
        for a in range(size):
            for b in range(a + 1, size):
                if (a, b) not in drop:
                    edges.append((base + a, base + b))
        meta["pair"].append((base + 0, base + 1))
        meta["pair"].append((base + 2, base + 3))
        meta["group"].append(tuple(base + j for j in range(4, size)))
        for j in range(size):
            roles[base + j] = f"v{j + 1}_{i}"
    for i in range(nchain):
        base = i * size
        nxt = ((i + 1) % nchain) * size
        for a in (2, 3):
            for b in (0, 1):
                edges.append((base + a, nxt + b))
    g = Graph.from_edges(nchain * size, edges)
    _check(all(g.degree(x) == d for x in range(g.n)), "d-regularity")
    return FamilyGraph(g, "regular5_chain", {"d": d, "nchain": nchain}, roles, meta)


# -- spiders ---------------------------------------------------------------------


def spider(flavor: str, k: int, r_graph: Graph | None = None,
           r_size: int | None = None) -> FamilyGraph:
    """A (matched or antimatched) spider with |S| = |K| = k.

    Layout: S = [0, k), K = [k, 2k) with f(s_i) = k + i, R = [2k, 2k + |R|)
    carrying ``r_graph`` (edgeless on ``r_size`` vertices when only a size is
    given).  K is a clique fully joined to R; S sees K per the flavour.
    """
    if flavor not in ("matched", "antimatched"):
        raise ValueError("flavor must be matched or antimatched")
    if k < 2:
        raise ValueError("needs |K| >= 2")
    if r_graph is None:
        r_graph = Graph.from_edges(r_size or 0, [])
    r = r_graph.n
    base_r = 2 * k
    edges = []
    for i in range(k):
        for j in range(i + 1, k):
            edges.append((k + i, k + j))
    for i in range(k):
        if flavor == "matched":
            edges.append((i, k + i))
        else:
            for j in range(k):
                if j != i:
                    edges.append((i, k + j))
    for i in range(k):
        for j in range(r):
            edges.append((k + i, base_r + j))
    for u in range(r_graph.n):
        for w in bits(r_graph.adj[u]):
            if w > u:
                edges.append((base_r + u, base_r + w))
    g = Graph.from_edges(2 * k + r, edges)
    s_mask, k_mask = mask_of(range(k)), mask_of(range(k, 2 * k))
    _check(is_independent(g, s_mask), "S independent")
    _check(is_clique(g, k_mask), "K clique")
    for i in range(k):
        want = (1 << (k + i)) if flavor == "matched" else k_mask & ~(1 << (k + i))
        _check(g.adj[i] & k_mask == want, "S-K adjacency per flavour")
        _check(g.adj[i] & ~k_mask & ~s_mask == 0, "K separates S from R")
    roles = {}
    meta: dict[str, list[tuple[int, ...]]] = {"fmap": []}
    for i in range(k):
        roles[i] = f"s{i}"
        roles[k + i] = f"k{i}"
        meta["fmap"].append((i, k + i))
    for j in range(r):
        roles[base_r + j] = f"r{j}"
    fam = f"spider_{flavor}"
    return FamilyGraph(g, fam, {"k": k, "r": r}, roles, meta)


# -- grids -----------------------------------------------------------------------


def cartesian_grid(rows: int, cols: int) -> FamilyGraph:
    """P_rows x P_cols Cartesian grid; vertex (i, j) has index i*cols + j."""
    if rows < 1 or cols < 1:
        raise ValueError("needs positive dimensions")
    edges = []
    meta = {"coord": []}
    for i in range(rows):
        for j in range(cols):
            v = i * cols + j
            meta["coord"].append((v, i, j))
            if j + 1 < cols:
                edges.append((v, v + 1))
            if i + 1 < rows:
                edges.append((v, v + cols))
    g = Graph.from_edges(rows * cols, edges)
    return FamilyGraph(g, "cartesian_grid", {"rows": rows, "cols": cols},
                       {}, meta)


def king_grid_2rows(cols: int) -> FamilyGraph:
    """Two-row king's grid; column j holds vertices 2j (top) and 2j+1 (bottom).

    Any vertex of a column is adjacent to both vertices of the next column,
    so columns are the natural pairing for the mirror strategy.
    """
    if cols < 1:
        raise ValueError("needs at least one column")
    edges = []
    meta = {"pair": [], "coord": []}
    for j in range(cols):
        edges.append((2 * j, 2 * j + 1))
        meta["pair"].append((2 * j, 2 * j + 1))
        meta["coord"].append((2 * j, 0, j))
        meta["coord"].append((2 * j + 1, 1, j))
        if j + 1 < cols:
            for a in (0, 1):
                for b in (0, 1):
                    edges.append((2 * j + a, 2 * (j + 1) + b))
    g = Graph.from_edges(2 * cols, edges)
    return FamilyGraph(g, "king_grid_2rows", {"cols": cols}, {}, meta)


def hex_patch(cells: int, cols: int = 1) -> FamilyGraph:
    """A finite piece of the hexagonal grid built from whole partition cells.

    The infinite grid is taken in brick coordinates (vertex (x, y) with a
    vertical edge up iff x+y is even); the cells of one face colour class
    (x = 0 mod 3) partition the vertices into 6-cycles, and the leftover
    edges form the matching M.  Cells are laid out row-major over a
    staggered patch, so consecutive rows are M-connected; M edges leaving
    the patch are truncated.
    """
    if cells < 1:
        raise ValueError("needs at least one cell")
    rows = (cells + cols - 1) // cols
    chosen = []
    for idx in range(cells):
        i, j = divmod(idx, cols)
        chosen.append((6 * j + 3 * (i % 2), i))
    index: dict[tuple[int, int], int] = {}
    cell_vertices = []
    for (cx, cy) in chosen:
        ring = [(cx, cy), (cx + 1, cy), (cx + 2, cy),
                (cx + 2, cy + 1), (cx + 1, cy + 1), (cx, cy + 1)]
        ids = []
        for p in ring:
            if p in index:
                raise InternalError("cells overlap")
            index[p] = len(index)
            ids.append(index[p])
        cell_vertices.append(tuple(ids))
    edges = set()
    cell_edges = set()
    for ids in cell_vertices:
        for a in range(6):
            e = tuple(sorted((ids[a], ids[(a + 1) % 6])))
            cell_edges.add(e)
            edges.add(e)
    # grid edges between patch vertices
    for (x, y), v in index.items():
        w = index.get((x + 1, y))
        if w is not None:
            edges.add(tuple(sorted((v, w))))
        if (x + y) % 2 == 0:
            w = index.get((x, y + 1))
            if w is not None:
                edges.add(tuple(sorted((v, w))))
    g = Graph.from_edges(len(index), sorted(edges))
    m_edges = sorted(edges - cell_edges)
    matching = Matching.of(g, m_edges)  # validates vertex-disjointness
    covered = mask_of(v for ids in cell_vertices for v in ids)
    _check(covered == g.full_mask and sum(len(c) for c in cell_vertices) == g.n,
           "cells partition the vertices")
    meta: dict[str, list[tuple[int, ...]]] = {
        "cell": [tuple(ids) for ids in cell_vertices],
        "medge": list(matching.pairs),
    }
    roles = {}
    for ci, ids in enumerate(cell_vertices):
        for v in ids:
            roles[v] = f"cell{ci}"
    return FamilyGraph(g, "hex_patch", {"cells": cells, "cols": cols}, roles, meta)


# -- dispatch ------------------------------------------------------------------------


FAMILIES = {
    "path": (path, ("n",)),
    "cycle": (cycle, ("n",)),
    "complete": (complete, ("n",)),
    "complete_bipartite": (complete_bipartite, ("a", "b")),
    "gnm": (gnm, ("n", "m", "seed")),
    "subdivided_star": (subdivided_star, ("leaves",)),
    "two_cliques_bridge": (two_cliques_bridge, ("d",)),
    "clique_pendant_path": (clique_pendant_path, ("nn",)),
    "clique_chain": (clique_chain, ("d", "nchain")),
    "regular4_chain": (regular4_chain, ("nchain",)),
    "regular5_chain": (regular5_chain, ("d", "nchain")),
    "spider_matched": (lambda k, r=0: spider("matched", k, r_size=r), ("k", "r")),
    "spider_antimatched": (lambda k, r=0: spider("antimatched", k, r_size=r), ("k", "r")),
    "cartesian_grid": (cartesian_grid, ("rows", "cols")),
    "king_grid_2rows": (king_grid_2rows, ("cols",)),
    "hex_patch": (hex_patch, ("cells", "cols")),
}


def generate(family: str, **params: int) -> FamilyGraph:
    """Build a named family instance; unknown names or bad params raise."""
    entry = FAMILIES.get(family)
    if entry is None:
        raise ValueError(f"unknown family {family!r}")
    fn, names = entry
    unknown = set(params) - set(names)
    if unknown:
        raise ValueError(f"unknown parameters {sorted(unknown)} for {family}")
    missing = [p.name for p in inspect.signature(fn).parameters.values()
               if p.default is p.empty and p.name not in params]
    if missing:
        raise ValueError(f"missing parameters {missing} for {family}")
    return fn(**params)


def random_connected_gnm(n: int, m: int, rng: random.Random) -> Graph:
    """Rejection-sample a connected G(n, m); m must be >= n-1."""
    all_edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if m < n - 1 or m > len(all_edges):
        raise ValueError("infeasible edge count for a connected graph")
    while True:
        g = Graph.from_edges(n, rng.sample(all_edges, m))
        if is_connected(g):
            return g


_CUBIC_TRIES = 10_000  # pairing-model draws before random_cubic gives up


def random_cubic(n: int, rng: random.Random) -> Graph:
    """Rejection-sample a connected simple cubic graph via the pairing model."""
    if n < 4 or n % 2:
        raise ValueError("cubic graphs need even n >= 4")
    stubs = [v for v in range(n) for _ in range(3)]
    for _ in range(_CUBIC_TRIES):
        rng.shuffle(stubs)
        pairs = [(stubs[2 * i], stubs[2 * i + 1]) for i in range(len(stubs) // 2)]
        if any(a == b for a, b in pairs):
            continue
        norm = {(min(a, b), max(a, b)) for a, b in pairs}
        if len(norm) != len(pairs):
            continue
        g = Graph.from_edges(n, sorted(norm))
        if is_connected(g):
            return g
    raise RuntimeError("failed to sample a connected cubic graph")
