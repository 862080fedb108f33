"""Desk-scale acceptance checks: exact values on closed-form families,
oracle equivalence, and strategy-guarantee verification.

Each criterion is a function returning a ``CriterionResult``; the CLI bench
command and the acceptance test module both run them, so the pass/fail
report and the pytest suite cannot drift apart.  All randomness is seeded.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass

from .engine import (
    CONNECTED,
    PLAIN,
    Budget,
    Player,
    random_playouts,
    verify_strategy_exhaustive,
)
from .generators import (
    cartesian_grid,
    clique_chain,
    clique_pendant_path,
    complete,
    hex_patch,
    king_grid_2rows,
    random_connected_gnm,
    random_cubic,
    regular4_chain,
    regular5_chain,
    spider,
)
from .graphs import Graph, bits, is_connected
from .qgraph import (
    DecompositionTree,
    JoinNode,
    Leaf,
    PseudoSpider,
    UnionNode,
    _head,
    cg_qgraph,
    matched_spider_value,
    spider_tree,
    validate_tree,
)
from .reductions import (
    CnfGameSolver,
    CnfInstance,
    HexGameSolver,
    HexInstance,
    build_bipartite,
    build_planar,
    build_split,
    lift_strategy,
)
from .solver import DEFAULT_MAX_STATES, can_force_cds_within, cg, is_a_perfect
from .strategies import (
    CubicBob,
    DegreeSumAlice,
    builtin_strategy,
    find_suitable_matching,
)

PLANAR_PLAYOUTS = 100_000


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    elapsed: float


class _Check:
    def __init__(self):
        self.failures: list[str] = []
        self.notes: list[str] = []

    def expect(self, cond: bool, message: str) -> None:
        if not cond:
            self.failures.append(message)

    def note(self, message: str) -> None:
        self.notes.append(message)

    def result(self, number: int, name: str, t0: float) -> CriterionResult:
        detail = "; ".join(self.failures if self.failures else self.notes)
        return CriterionResult(number, name, not self.failures, detail,
                               time.time() - t0)


def criterion_1(seed: int = 0) -> CriterionResult:
    """Cycles and paths have value 2 for 3 <= n <= 12."""
    t0 = time.time()
    c = _Check()
    for n in range(3, 13):
        cyc = Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])
        pat = Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])
        vc = cg(cyc).value
        vp = cg(pat).value
        c.expect(vc == 2, f"c_g(C_{n}) = {vc}, want 2")
        c.expect(vp == 2, f"c_g(P_{n}) = {vp}, want 2")
    c.note("c_g = 2 on all cycles and paths with 3 <= n <= 12")
    return c.result(1, "cycle and path values", t0)


def criterion_2(seed: int = 0) -> CriterionResult:
    """Disjoint unions of complete graphs sit on the degree lower bound."""
    t0 = time.time()
    c = _Check()
    count = 0
    for d in (2, 3, 4):
        for m in (1, 2, 3):
            if (d + 1) * m > 15:
                continue
            size = d + 1
            edges = [(a * size + i, a * size + j)
                     for a in range(m) for i in range(size)
                     for j in range(i + 1, size)]
            g = Graph.from_edges(m * size, edges)
            v = cg(g).value
            c.expect(v == d // 2 + 1,
                     f"{m} x K_{d + 1}: value {v}, want {d // 2 + 1}")
            count += 1
    c.note(f"floor(d/2)+1 on {count} clique unions")
    return c.result(2, "disjoint clique lower-bound family", t0)


def criterion_3(seed: int = 0) -> CriterionResult:
    """Degree bounds hold on 500 random connected graphs with n <= 12."""
    t0 = time.time()
    c = _Check()
    rng = random.Random(seed)
    for i in range(500):
        n = rng.randint(2, 12)
        m = rng.randint(n - 1, n * (n - 1) // 2)
        g = random_connected_gnm(n, m, rng)
        v = cg(g).value
        lo = g.max_degree // 2 + 1
        hi = (g.n + 1) // 2
        c.expect(lo <= v <= hi,
                 f"sample {i}: n={n} m={m} value {v} outside [{lo}, {hi}]")
    c.note("floor(max_degree/2)+1 <= c_g <= ceil(n/2) on 500 samples")
    return c.result(3, "degree bounds on random graphs", t0)


def _sample_degree_sum_graph(rng: random.Random) -> Graph:
    while True:
        n = rng.randint(3, 11)
        m = rng.randint(max(n - 1, n * (n - 1) // 4), n * (n - 1) // 2)
        g = random_connected_gnm(n, m, rng)
        if g.max_degree + g.min_degree >= g.n:
            return g


def criterion_4(seed: int = 0) -> CriterionResult:
    """Graphs with max+min degree >= n are A-perfect, and the degree-sum
    strategy realises ceil(n/2) on 20 of them."""
    t0 = time.time()
    c = _Check()
    rng = random.Random(seed)
    samples = [_sample_degree_sum_graph(rng) for _ in range(200)]
    for i, g in enumerate(samples):
        if not is_a_perfect(g):
            c.expect(False, f"sample {i} (n={g.n}) is not A-perfect")
    for i, g in enumerate(samples[:20]):
        v = verify_strategy_exhaustive(g, PLAIN, DegreeSumAlice(g), Player.ALICE)
        c.expect(v == (g.n + 1) // 2,
                 f"degree-sum sample {i}: guaranteed {v}, want {(g.n + 1) // 2}")
    c.note("200 samples A-perfect; degree-sum strategy exact on 20")
    return c.result(4, "degree-sum sufficient condition", t0)


def criterion_5(seed: int = 0) -> CriterionResult:
    """Dense graphs force a connected dominating set within four rounds;
    the pendant-path example shows the edge bound is sharp."""
    t0 = time.time()
    c = _Check()
    rng = random.Random(seed)
    for i in range(200):
        n = rng.randint(4, 10)
        lo = (n - 2) * (n - 3) // 2 + 2
        hi = n * (n - 1) // 2
        if lo + 1 > hi:
            continue
        m = rng.randint(lo + 1, hi)
        g = random_connected_gnm(n, m, rng)
        c.expect(can_force_cds_within(g, 4),
                 f"sample {i}: n={n} m={m} cannot force a CDS in 4 rounds")
    for nn in (3, 5):
        g = clique_pendant_path(nn).graph
        c.expect(not is_a_perfect(g),
                 f"clique_pendant_path({nn}) should not be A-perfect")
    c.note("200 dense samples force a CDS by round 4; sharpness holds")
    return c.result(5, "edge-count sufficient condition", t0)


def criterion_6(seed: int = 0) -> CriterionResult:
    """The clique-chain Bob strategy caps Alice at ceil((d+3)/2)."""
    t0 = time.time()
    c = _Check()
    for d, nch in ((3, 2), (3, 3), (4, 2)):
        fg = clique_chain(d, nch)
        bob = builtin_strategy("clique_chain_bob", fg)
        v = verify_strategy_exhaustive(fg.graph, PLAIN, bob, Player.BOB)
        bound = (d + 3 + 1) // 2
        c.expect(v <= bound,
                 f"clique_chain({d},{nch}): Bob concedes {v} > {bound}")
    v = cg(clique_chain(3, 2).graph).value
    c.expect(v <= 3, f"c_g(clique_chain(3,2)) = {v}, want <= 3")
    c.note("Bob holds ceil((d+3)/2) on three chains; exact value <= 3 on (3,2)")
    return c.result(6, "regular chains with small value", t0)


def criterion_7(seed: int = 0) -> CriterionResult:
    """The 4- and 5-regular chain constructions are A-perfect."""
    t0 = time.time()
    c = _Check()
    for nch in (3, 4):
        g = regular4_chain(nch).graph
        c.expect(is_a_perfect(g), f"regular4_chain({nch}) not A-perfect")
    fg = regular5_chain(5, 3)
    alice = builtin_strategy("regular5_alice", fg)
    v = verify_strategy_exhaustive(fg.graph, PLAIN, alice, Player.ALICE)
    c.expect(v == 9, f"regular5_chain(5,3): guaranteed {v}, want exactly 9")
    c.note("regular4_chain(3..4) A-perfect; regular5_chain(5,3) strategy = 9")
    return c.result(7, "A-perfect regular constructions", t0)


def criterion_8(seed: int = 0) -> CriterionResult:
    """On cubic graphs with suitable matchings Bob disconnects the red set."""
    t0 = time.time()
    c = _Check()
    rng = random.Random(seed)
    found_total = 0
    for n in (8, 10, 12, 14):
        found = 0
        for _ in range(25):
            g = random_cubic(n, rng)
            matching = find_suitable_matching(g)
            if matching is None:
                continue
            found += 1
            found_total += 1
            bob = CubicBob(g, matching)
            v = verify_strategy_exhaustive(g, PLAIN, bob, Player.BOB)
            c.expect(v < (n + 1) // 2,
                     f"cubic n={n}: red stays connected in some line (max {v})")
            if found >= 3:
                break
        c.note(f"n={n}: {found} graphs with suitable matchings checked")
    c.expect(found_total > 0, "no cubic graph with a suitable matching found")
    c.expect(is_a_perfect(complete(4).graph), "K_4 should be A-perfect")
    return c.result(8, "cubic graphs are eventually not A-perfect", t0)


def _all_small_r_graphs() -> list[Graph]:
    out = [Graph.from_edges(0, [])]
    for rn in (1, 2, 3):
        pairs = list(itertools.combinations(range(rn), 2))
        for em in range(1 << len(pairs)):
            out.append(Graph.from_edges(rn, [e for i, e in enumerate(pairs)
                                             if em >> i & 1]))
    rng = random.Random(1)
    pairs4 = list(itertools.combinations(range(4), 2))
    picks = {0, (1 << 6) - 1}
    while len(picks) < 8:
        picks.add(rng.randrange(1 << 6))
    for em in sorted(picks):
        edges = [e for i, e in enumerate(pairs4) if em >> i & 1]
        out.append(Graph.from_edges(4, edges))
    return out


def _random_cotree(rng: random.Random, n_leaves: int):
    """Random union/join shape over singleton leaves; returns (graph, tree)."""
    items = list(range(n_leaves))
    nodes = [Leaf(1 << v) for v in items]
    edges = []
    masks = [1 << v for v in items]
    while len(nodes) > 1:
        i = rng.randrange(len(nodes) - 1)
        a, b = nodes[i], nodes[i + 1]
        ma, mb = masks[i], masks[i + 1]
        if rng.random() < 0.5:
            nodes[i:i + 2] = [UnionNode(a, b)]
        else:
            for u in bits(ma):
                for w in bits(mb):
                    edges.append((u, w))
            nodes[i:i + 2] = [JoinNode(a, b)]
        masks[i:i + 2] = [ma | mb]
    g = Graph.from_edges(n_leaves, edges)
    return g, DecompositionTree(4, nodes[0])


def _union_chain(verts: list[int]):
    node = Leaf(1 << verts[0])
    for v in verts[1:]:
        node = UnionNode(node, Leaf(1 << v))
    return node


def _random_pseudo_spider(rng: random.Random, big_r: bool):
    """A connected pseudo-spider instance with an edgeless decomposed rest."""
    while True:
        hn = rng.randint(2, 4)
        head_pairs = list(itertools.combinations(range(hn), 2))
        head_edges = [e for e in head_pairs if rng.random() < 0.6]
        k_mask = 0
        while not k_mask:
            k_mask = rng.randrange(1, 1 << hn)
        q = hn
        r_n = rng.randint(2 * q + 1, 2 * q + 2) if big_r else rng.randint(1, 2 * q)
        edges = list(head_edges)
        for kv in bits(k_mask):
            for j in range(r_n):
                edges.append((kv, hn + j))
        g = Graph.from_edges(hn + r_n, edges)
        if not is_connected(g):
            continue
        s_mask = ((1 << hn) - 1) & ~k_mask
        tree = DecompositionTree(
            q, PseudoSpider(s_mask, k_mask,
                            _union_chain(list(range(hn, hn + r_n)))))
        if validate_tree(g, tree):
            return g, tree


def _pseudo_spider_mode(g: Graph, tree: DecompositionTree) -> str:
    node = tree.root
    r_n = (g.full_mask & ~(node.s | node.k)).bit_count()
    if r_n % 2 == 0:
        return "even"
    return _head(g, node, Budget(DEFAULT_MAX_STATES))[0].mode


def _pseudo_spider_sample(rng: random.Random, total: int = 20):
    """10 small-rest instances plus 10 large-rest ones that, between them,
    hit every branch of the odd-rest rule (the three head modes)."""
    out = [_random_pseudo_spider(rng, big_r=False) for _ in range(total // 2)]
    needed = {"sa2": 2, "sb2": 2, "hold": 2}
    big: list = []
    attempts = 0
    while len(big) < total - total // 2 and attempts < 3000:
        attempts += 1
        g, tree = _random_pseudo_spider(rng, big_r=True)
        mode = _pseudo_spider_mode(g, tree)
        if needed.get(mode, 0) > 0:
            needed[mode] -= 1
            big.append((g, tree))
        elif len(big) + sum(needed.values()) < total - total // 2:
            big.append((g, tree))
    return out + big


def criterion_9(seed: int = 0) -> CriterionResult:
    """Tree evaluation agrees with the exact solver across the node kinds."""
    t0 = time.time()
    c = _Check()
    r_graphs = [r for r in _all_small_r_graphs() if r.n <= 4]
    spiders = 0
    for k in (2, 3, 4):
        for flavor in ("matched", "antimatched"):
            if flavor == "antimatched" and k == 2:
                continue
            for rg in r_graphs:
                fg = spider(flavor, k, r_graph=rg)
                want = cg(fg.graph).value
                tree = spider_tree(fg)
                got = cg_qgraph(fg.graph, tree)
                c.expect(want == got,
                         f"{flavor} spider k={k} |R|={rg.n}: tree {got}, solver {want}")
                if flavor == "matched":
                    form = matched_spider_value(fg.graph.n, k)
                    c.expect(form == want,
                             f"matched formula k={k} n={fg.graph.n}: "
                             f"{form} vs solver {want}")
                spiders += 1
    rng = random.Random(seed)
    for i in range(50):
        g, tree = _random_cotree(rng, rng.randint(2, 12))
        want = cg(g).value
        got = cg_qgraph(g, tree)
        c.expect(want == got, f"cotree {i}: tree {got}, solver {want}")
    for i, (g, tree) in enumerate(_pseudo_spider_sample(rng)):
        want = cg(g).value
        got = cg_qgraph(g, tree)
        c.expect(want == got, f"pseudo-spider {i}: tree {got}, solver {want}")
    c.note(f"{spiders} spiders, 50 cotrees, 20 pseudo-spiders all match")
    return c.result(9, "tree evaluation vs exact solver", t0)


def _all_cnf_instances():
    for nv in (1, 2, 3, 4):
        supports = []
        for size in range(1, nv + 1):
            supports.extend(itertools.combinations(range(nv), size))
        for cl in supports:
            yield CnfInstance.of(nv, [cl])
        for i, a in enumerate(supports):
            for b in supports[i:]:
                yield CnfInstance.of(nv, [a, b])


def criterion_10(seed: int = 0) -> CriterionResult:
    """Reduction soundness at desk scale plus structural assertions."""
    t0 = time.time()
    c = _Check()
    checked = 0
    for cnf in _all_cnf_instances():
        winner = CnfGameSolver(cnf).winner
        for build in (build_bipartite, build_split):
            out = build(cnf)  # structural assertions run inside the builders
            v = cg(out.g).value
            agree = (winner is Player.ALICE) == (v >= out.k)
            c.expect(agree,
                     f"{out.kind} on {cnf}: winner {winner.name}, "
                     f"c_g {v} vs k {out.k}")
        checked += 1
    c.note(f"{checked} CNF instances agree for both builds")

    # planar structural assertions on a few instances
    h_path = Graph.from_edges(4, [(0, 2), (2, 3), (3, 1)])
    h_fork = Graph.from_edges(5, [(0, 2), (2, 1), (0, 3), (3, 4), (4, 1)])
    for hx in (HexInstance(h_path, 0, 1), HexInstance(h_fork, 0, 1)):
        out = build_planar(hx)
        n_pad = out.hex_vertices.bit_count()
        c.expect(out.k == n_pad + 5, "planar k formula")
        c.expect(out.g.n == 7 * n_pad + 30, "planar order formula")
        from .graphs import Planarity, planarity_check
        c.expect(planarity_check(out.g) is not Planarity.NON_PLANAR,
                 "planar build must not be non-planar")
        hubs = sum(1 for r in out.role_map.values() if r.startswith(("s0", "t0")))
        leaves = sum(1 for r in out.role_map.values() if r.startswith("leaf"))
        c.expect(hubs == 6 and leaves == 6 * (n_pad + 4), "planar role counts")

    # lifted planar Bob strategy on the smallest losing hex instance
    hx = HexInstance(h_path, 0, 1)
    out = build_planar(hx)
    hsolver = HexGameSolver(out.source_hex)
    c.expect(hsolver.winner is Player.BOB, "path hex instance should be a Bob win")
    bob = lift_strategy(out, Player.BOB, hsolver)
    n_pad = out.hex_vertices.bit_count()
    scores = random_playouts(out.g, PLAIN, bob, Player.BOB,
                             PLANAR_PLAYOUTS, seed=seed)
    c.expect(max(scores) <= n_pad + 3,
             f"planar Bob lift leaked {max(scores)} > n+3 = {n_pad + 3}")
    c.note(f"{checked} CNF equivalences; planar Bob lift max "
           f"{max(scores)} <= {n_pad + 3} over {PLANAR_PLAYOUTS} playouts")
    return c.result(10, "reduction soundness at desk scale", t0)


def criterion_11(seed: int = 0) -> CriterionResult:
    """Grid results: king's grids, Cartesian grids, hexagonal patches, and
    the connected variant staying bounded."""
    t0 = time.time()
    c = _Check()
    for m in range(1, 7):
        fg = king_grid_2rows(m)
        v = cg(fg.graph).value
        c.expect(v == m, f"c_g(P_2 x P_{m} king) = {v}, want {m}")
        alice = builtin_strategy("king_mirror_alice", fg)
        w = verify_strategy_exhaustive(fg.graph, PLAIN, alice, Player.ALICE)
        c.expect(w == m, f"king mirror on m={m}: guaranteed {w}, want {m}")
    for rows in (1, 2, 3):
        for cols in range(rows, 5):
            fg = cartesian_grid(rows, cols)
            v = cg(fg.graph).value
            c.expect(v <= 2 * rows,
                     f"c_g(P_{rows} [] P_{cols}) = {v} > 2n = {2 * rows}")
    fg = cartesian_grid(3, 5)
    bob = builtin_strategy("cartesian_bob", fg)
    v = verify_strategy_exhaustive(fg.graph, PLAIN, bob, Player.BOB)
    c.expect(v <= 6, f"cartesian Bob on 3x5: concedes {v} > 6")
    fg = hex_patch(2)
    bob = builtin_strategy("hex_patch_bob", fg)
    v = verify_strategy_exhaustive(fg.graph, PLAIN, bob, Player.BOB)
    c.expect(v <= 6, f"hex patch pairing concedes {v} > 6")
    values = {}
    for m in (4, 5, 6):
        values[m] = cg(king_grid_2rows(m).graph, CONNECTED).value
        c.expect(values[m] <= 6, f"connected king m={m}: value {values[m]} > 6")
    ms = sorted(values)
    peak = max(ms, key=lambda m: values[m])
    for a, b in zip(ms, ms[1:]):
        if a >= peak:
            c.expect(values[a] >= values[b],
                     f"connected king values increase after their max: {values}")
    c.note(f"king grids exact; connected-variant values {values}")
    return c.result(11, "grid families", t0)


def _suite_graphs_small() -> list[Graph]:
    out = []
    for n in range(3, 9):
        out.append(Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)]))
        out.append(Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)]))
        out.append(complete(n).graph)
    out.append(clique_chain(3, 2).graph)
    out.append(regular4_chain(3).graph)
    out.append(spider("matched", 2, r_size=2).graph)
    out.append(spider("matched", 3, r_size=1).graph)
    out.append(spider("antimatched", 3).graph)
    out.append(king_grid_2rows(4).graph)
    out.append(cartesian_grid(2, 4).graph)
    out.append(build_split(CnfInstance.of(2, [(0, 1)])).g)
    out.append(build_bipartite(CnfInstance.of(2, [(0,)])).g)
    rng = random.Random(5)
    for _ in range(10):
        n = rng.randint(4, 8)
        out.append(random_connected_gnm(n, rng.randint(n - 1, n * (n - 1) // 2), rng))
    return [g for g in out if g.n <= 8]


def criterion_12(seed: int = 0) -> CriterionResult:
    """Pruning changes nothing about the values."""
    t0 = time.time()
    c = _Check()
    rng = random.Random(seed)
    insts = _suite_graphs_small()
    while len(insts) < 50:
        n = rng.randint(4, 10)
        insts.append(random_connected_gnm(n, rng.randint(n - 1, n * (n - 1) // 2), rng))
    for i, g in enumerate(insts):
        a = cg(g, use_pruning=True).value
        b = cg(g, use_pruning=False).value
        c.expect(a == b, f"pruning changed a value on instance {i}: {a} vs {b}")
    c.note(f"{len(insts)} pruned/unpruned matches")
    return c.result(12, "solver self-consistency", t0)


ALL_CRITERIA = [
    criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
    criterion_6, criterion_7, criterion_8, criterion_9, criterion_10,
    criterion_11, criterion_12,
]


def run_criteria(numbers: list[int] | None = None, seed: int = 0) -> list[CriterionResult]:
    """Run the numbered criteria (all of them when ``numbers`` is empty or
    None), in order; a number outside 1..len(ALL_CRITERIA) is a
    ``ValueError``."""
    unknown = sorted(set(numbers or ()) - set(range(1, len(ALL_CRITERIA) + 1)))
    if unknown:
        raise ValueError(f"unknown criteria {unknown}: the criteria are "
                         f"numbered 1 to {len(ALL_CRITERIA)}")
    out = []
    for i, fn in enumerate(ALL_CRITERIA, start=1):
        if numbers and i not in numbers:
            continue
        out.append(fn(seed))
    return out


def format_report(results: list[CriterionResult]) -> str:
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"[{status}] criterion {r.number:2d} "
                     f"({r.elapsed:7.2f}s) {r.name}: {r.detail}")
    total = sum(r.elapsed for r in results)
    passed = sum(1 for r in results if r.passed)
    lines.append(f"{passed}/{len(results)} criteria passed in {total:.1f}s")
    return "\n".join(lines)
