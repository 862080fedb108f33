"""The three seeded workloads: their inputs, their ops and the checks on them.

Every workload is built from the benchmark's seed alone, and the program
only ever sees the generated inputs.  An op is one call (or one short
sequence of calls) into the public ``lcsgame`` API with an explicit budget;
it returns a small record of plain values, which the checks read after the
round and which must repeat exactly from round to round.

The benchmark's own code calls the package through module attributes
(``solver.cg``, ``engine.random_playouts``, ...) so that the tracer's
rebinding of those names takes effect.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
from dataclasses import dataclass
from typing import Callable

from lcsgame import engine, generators as gen, qgraph, reductions as red, solver
from lcsgame import strategies as strat
from lcsgame.engine import CONNECTED, PLAIN, ColorVertex, GameConfig, Player, TargetSet
from lcsgame.graphs import Graph, bits, is_connected, mask_of

# Budgets sit far above what each op needs at these sizes, so a regression
# that blows up the work shows as failed ops instead of a hang.
LADDER_BUDGET = {"max_states": 6_000_000, "time_limit": 40.0}
DESK_BUDGET = {"max_states": 1_000_000, "time_limit": 20.0}
VERIFY_MAX_STATES = 5_000_000
QGRAPH_MAX_STATES = 1_000_000
PLAYOUT_BATCH = 1000


@dataclass
class Op:
    kind: str
    label: str
    run: Callable[[object], dict]          # tracer -> record
    check: Callable[[dict], str | None]    # record -> error message or None
    graph: Graph | None = None


def _rng(seed: int, workload: str, part: str) -> random.Random:
    return random.Random(f"lcsgame-bench/{workload}/{part}/{seed}")


def edge_hash(g: Graph) -> str:
    edges = sorted(g.edges())
    return hashlib.sha256(repr((g.n, edges)).encode()).hexdigest()[:16]


def rss_bytes() -> int:
    """Current resident set size of this process (Linux only)."""
    with open("/proc/self/statm", "rb") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


# The record fields the digest covers: game values, principal variations and
# playout scores.  Work counts (states expanded, tree nodes evaluated) are
# left out, so that a search that reaches the same results with less work
# still matches.
DIGEST_FIELDS = ("value", "pv", "min", "max", "sum", "scores")


def records_digest(ops: list[Op], records: list[dict | None]) -> str:
    """Digest of every value, principal variation and playout score."""
    kept = [None if rec is None else {k: rec[k] for k in DIGEST_FIELDS if k in rec}
            for rec in records]
    blob = json.dumps([[op.kind, op.label, rec] for op, rec in zip(ops, kept)],
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _degree_bounds(g: Graph) -> tuple[int, int]:
    return g.max_degree // 2 + 1, (g.n + 1) // 2


def _replay_score(g: Graph, variant, pv: list[int]) -> tuple[int, GameConfig]:
    cfg = GameConfig()
    for v in pv:
        cfg = engine.apply_move(cfg, cfg.mover(), ColorVertex(v))
    return engine.score(g, variant, cfg.red), cfg


def _solve(tr, g: Graph, variant, budget: dict, with_pv: bool) -> dict:
    rss0 = rss_bytes() if tr.rss_probe else 0
    res = solver.cg(g, variant, **budget)
    rec = {"value": res.value, "states": res.states_expanded}
    if with_pv:
        pv = tr.call("solver.pv", lambda: res.principal_variation)
        rec["pv"] = [m.v for m in pv]
    if tr.rss_probe:
        tr.note_rss(rss_bytes() - rss0, res.states_expanded)
    return rec


# -- ladder: deep exact solves ----------------------------------------------------


def _ladder_check(g: Graph, variant, king_cols: int | None,
                  grid_rows: int | None):
    def check(rec: dict) -> str | None:
        value = rec["value"]
        got, cfg = _replay_score(g, variant, rec["pv"])
        if got != value:
            return f"PV replays to score {got}, solver reported {value}"
        if variant == PLAIN:
            if cfg.colored != g.full_mask:
                return "PV stops before the board is full"
            lo, hi = _degree_bounds(g)
            if not lo <= value <= hi:
                return f"value {value} outside [{lo}, {hi}]"
        elif not 1 <= value <= (g.n + 1) // 2:
            return f"connected value {value} outside [1, ceil(n/2)]"
        if king_cols is not None:
            if variant == PLAIN and value != king_cols:
                return f"king 2x{king_cols} has value {value}, want {king_cols}"
            if variant == CONNECTED and value > king_cols:
                return f"connected king value {value} exceeds plain {king_cols}"
        if grid_rows is not None and value > 2 * grid_rows:
            return f"grid value {value} exceeds 2*rows = {2 * grid_rows}"
        return None
    return check


def build_ladder(seed: int, tr, smoke: bool = False) -> list[Op]:
    """Whole-graph exact solves with their principal variations.

    The large fixed family instances carry most of the time.  The seeded
    G(16, 56) draws vary little in cost from draw to draw; five small fixed
    instances cost less than any draw and four large ones more, so the
    median op is a middle draw on every seed.  The draws are spread between
    the fixed instances so that they sample the whole round.  The largest
    op is the 3x5 grid (about 1.7e5 states): a 4x4 grid solve (6.5e5 states,
    over 10 s) varied by a quarter from run to run and would have set the
    round's time alone.  The draws are dense: 40 draws of G(16, 56) expanded
    19 449 to 20 310 states, while G(16, 48) draws reached 7.8e4 and
    G(16, 40) draws 3.6e5, which made a seed's round time hang on its one
    costliest draw.
    """
    rng = _rng(seed, "ladder", "gnm")
    if smoke:
        fixed = [("grid", 2, 4, PLAIN), ("king", 4, 0, PLAIN), ("grid", 3, 3, PLAIN),
                 ("king", 4, 0, CONNECTED)]
        draws, n, m = 3, 8, 14
    else:
        fixed = [("grid", 3, 5, PLAIN), ("grid", 3, 4, PLAIN), ("grid", 2, 6, PLAIN),
                 ("king", 7, 0, PLAIN), ("king", 5, 0, PLAIN),
                 ("grid", 2, 7, PLAIN), ("king", 6, 0, CONNECTED),
                 ("king", 7, 0, CONNECTED), ("grid", 3, 4, CONNECTED)]
        draws, n, m = 12, 16, 56
    specs = []
    for family, a, b, variant in fixed:
        suffix = "" if variant == PLAIN else " connected"
        if family == "grid":
            g = tr.call("generators", gen.cartesian_grid, a, b).graph
            specs.append((f"cartesian_grid({a},{b}){suffix}", g, variant, None, a))
        else:
            g = tr.call("generators", gen.king_grid_2rows, a).graph
            specs.append((f"king_grid_2rows({a}){suffix}", g, variant, a, None))
    seeded = [(f"gnm({n},{m}) draw {i}",
               tr.call("generators", gen.random_connected_gnm, n, m, rng),
               PLAIN, None, None) for i in range(draws)]
    ordered = []
    for i, spec in enumerate(specs):
        ordered.append(spec)
        ordered.extend(d for j, d in enumerate(seeded) if j * len(specs) // draws == i)
    ops = []
    for label, g, variant, king_cols, grid_rows in ordered:
        def run(tr, g=g, variant=variant):
            return _solve(tr, g, variant, LADDER_BUDGET, with_pv=True)
        kind = "cg_plain" if variant == PLAIN else "cg_connected"
        ops.append(Op(kind, label, run,
                      _ladder_check(g, variant, king_cols, grid_rows), g))
    return ops


# -- strategy: exhaustive verification and playouts --------------------------------


def _verify_op(label: str, g: Graph, fixed, side: Player,
               check: Callable[[int], str | None]) -> Op:
    def run(tr):
        value = engine.verify_strategy_exhaustive(
            g, PLAIN, tr.strategy(fixed), side, max_states=VERIFY_MAX_STATES)
        return {"value": value}
    return Op("verify", label, run, lambda rec: check(rec["value"]), g)


def _playout_op(label: str, g: Graph, fixed, side: Player, seed: int,
                check: Callable[[int, int], str | None]) -> Op:
    def run(tr):
        scores = engine.random_playouts(g, PLAIN, tr.strategy(fixed), side,
                                        PLAYOUT_BATCH, seed=seed)
        return {"min": min(scores), "max": max(scores), "sum": sum(scores),
                "scores": hashlib.sha256(bytes(scores)).hexdigest()[:16]}
    return Op("playouts", label, run, lambda rec: check(rec["min"], rec["max"]), g)


def _seeded_cubic(n: int, rng: random.Random, tr):
    for _ in range(500):
        g = tr.call("generators", gen.random_cubic, n, rng)
        matching = strat.find_suitable_matching(g)
        if matching is not None:
            return g, strat.CubicBob(g, matching)
    raise RuntimeError(f"no cubic graph with a suitable matching at n={n}")


def build_strategy(seed: int, tr, smoke: bool = False) -> list[Op]:
    """Strategy verification against every opposing line, plus seeded
    uniform-random playouts counted in batches of 1000."""
    ops = []
    chain = tr.call("generators", gen.regular5_chain, 5, 2 if smoke else 3)
    want = 9 if not smoke else None
    ops.append(_verify_op(
        f"regular5_alice on regular5_chain(5,{chain.params['nchain']})",
        chain.graph, strat.builtin_strategy("regular5_alice", chain), Player.ALICE,
        lambda v: None if want is None or v == want
        else f"regular5_alice guarantees {v}, want exactly {want}"))
    rows, cols = (2, 4) if smoke else (3, 5)
    grid = tr.call("generators", gen.cartesian_grid, rows, cols)
    ops.append(_verify_op(
        f"cartesian_bob on cartesian_grid({rows},{cols})",
        grid.graph, strat.builtin_strategy("cartesian_bob", grid), Player.BOB,
        lambda v: None if v <= 2 * rows else f"cartesian Bob concedes {v} > {2 * rows}"))
    patch = tr.call("generators", gen.hex_patch, 1 if smoke else 2)
    ops.append(_verify_op(
        f"hex_patch_bob on hex_patch({patch.params['cells']})",
        patch.graph, strat.builtin_strategy("hex_patch_bob", patch), Player.BOB,
        lambda v: None if v <= 6 else f"hex patch pairing concedes {v} > 6"))

    rng = _rng(seed, "strategy", "cubic")
    for i, n in enumerate((8,) if smoke else (12, 12, 12, 12, 14, 14)):
        g, bob = _seeded_cubic(n, rng, tr)
        ops.append(_verify_op(
            f"cubic_bob on random_cubic({n}) draw {i}", g, bob, Player.BOB,
            lambda v, n=n: None if v < (n + 1) // 2
            else f"cubic n={n}: red stays connected in some line ({v})"))

    h_path = Graph.from_edges(4, [(0, 2), (2, 3), (3, 1)])
    hx = red.HexInstance(h_path, 0, 1)
    planar = tr.call("reductions", red.build_planar, hx)
    hsolver = tr.call("reductions", red.HexGameSolver, planar.source_hex)
    if tr.call("reductions", lambda: hsolver.winner) is not Player.BOB:
        raise RuntimeError("the path hex instance should be a Bob win")
    lift = tr.call("reductions", red.lift_strategy, planar, Player.BOB, hsolver)
    n_pad = planar.hex_vertices.bit_count()
    king_cols = 4 if smoke else 8
    king = tr.call("generators", gen.king_grid_2rows, king_cols)
    mirror = strat.builtin_strategy("king_mirror_alice", king)
    prng = _rng(seed, "strategy", "playouts")
    for i in range(2 if smoke else 20):
        ops.append(_playout_op(
            f"lift_planar_bob playouts batch {i}", planar.g, lift, Player.BOB,
            prng.getrandbits(32),
            lambda lo, hi: None if hi <= n_pad + 3
            else f"planar Bob lift leaked {hi} > n+3 = {n_pad + 3}"))
        if i % 2 == 0:
            ops.append(_playout_op(
                f"king_mirror_alice playouts batch {i // 2}", king.graph, mirror,
                Player.ALICE, prng.getrandbits(32),
                lambda lo, hi: None if lo >= king_cols
                else f"king mirror scored {lo} < {king_cols}"))
    return ops


# -- desk_small: many short calls ------------------------------------------------------


def _plain_value(g: Graph) -> int:
    return solver.cg(g, **DESK_BUDGET).value


def _cg_op(kind: str, label: str, g: Graph, variant,
           check: Callable[[int], str | None]) -> Op:
    def run(tr):
        return _solve(tr, g, variant, DESK_BUDGET, with_pv=False)
    return Op(kind, label, run, lambda rec: check(rec["value"]), g)


def _qgraph_op(kind: str, label: str, g: Graph, tree: qgraph.DecompositionTree,
               check: Callable[[int], str | None]) -> Op:
    def run(tr):
        stats = qgraph.EvalStats()
        value = qgraph.cg_qgraph(g, tree, stats=stats, max_states=QGRAPH_MAX_STATES)
        return {"value": value, "nodes": stats.nodes_evaluated}
    return Op(kind, label, run, lambda rec: check(rec["value"]), g)


def _matches_cg(g: Graph):
    def check(value: int) -> str | None:
        want = _plain_value(g)
        return None if value == want else f"tree value {value}, solver {want}"
    return check


def _union_chain(leaves: list[qgraph.Leaf]):
    node = leaves[0]
    for leaf in leaves[1:]:
        node = qgraph.UnionNode(node, leaf)
    return node


def random_cotree(rng: random.Random, n_leaves: int):
    """Random union/join shape over singleton leaves, as (graph, tree)."""
    nodes = [qgraph.Leaf(1 << v) for v in range(n_leaves)]
    masks = [1 << v for v in range(n_leaves)]
    edges = []
    while len(nodes) > 1:
        i = rng.randrange(len(nodes) - 1)
        (a, b), (ma, mb) = nodes[i:i + 2], masks[i:i + 2]
        if rng.random() < 0.5:
            nodes[i:i + 2] = [qgraph.UnionNode(a, b)]
        else:
            edges.extend(itertools.product(bits(ma), bits(mb)))
            nodes[i:i + 2] = [qgraph.JoinNode(a, b)]
        masks[i:i + 2] = [ma | mb]
    return Graph.from_edges(n_leaves, edges), qgraph.DecompositionTree(4, nodes[0])


def random_odd_rest_pseudo_spider(rng: random.Random, hn: int):
    """A connected pseudo-spider with an hn-vertex head and an edgeless rest
    of odd order 2q + 1, so that evaluating it runs the head analysis."""
    while True:
        head_edges = [e for e in itertools.combinations(range(hn), 2)
                      if rng.random() < 0.6]
        k_mask = rng.randrange(1, 1 << hn)
        r_n = 2 * hn + 1
        edges = head_edges + [(kv, hn + j) for kv in bits(k_mask) for j in range(r_n)]
        g = Graph.from_edges(hn + r_n, edges)
        if not is_connected(g):
            continue
        rest = _union_chain([qgraph.Leaf(1 << v) for v in range(hn, hn + r_n)])
        s_mask = ((1 << hn) - 1) & ~k_mask
        tree = qgraph.DecompositionTree(hn, qgraph.PseudoSpider(s_mask, k_mask, rest))
        if qgraph.validate_tree(g, tree):
            return g, tree


def clique_union_chain(rng: random.Random, n_leaves: int, max_size: int):
    """Disjoint cliques of 1..max_size vertices under a union chain."""
    sizes = [rng.randint(1, max_size) for _ in range(n_leaves)]
    edges, leaves, base = [], [], 0
    for size in sizes:
        verts = range(base, base + size)
        edges.extend(itertools.combinations(verts, 2))
        leaves.append(qgraph.Leaf(mask_of(verts)))
        base += size
    g = Graph.from_edges(base, edges)
    return g, qgraph.DecompositionTree(4, _union_chain(leaves)), \
        max((s + 1) // 2 for s in sizes)


def _stratified(lo: int, hi: int, j: int, strata: int) -> int:
    """The j-th of *strata* evenly spaced points of [lo, hi]."""
    return lo + round((j + 0.5) / strata * (hi - lo))


def build_desk_small(seed: int, tr, smoke: bool = False) -> list[Op]:
    """About 1 400 seeded calls of a few milliseconds or less each.

    Sizes and densities are stratified rather than drawn, so that the mix
    of op costs is the same on every seed, and there are many calls of each
    kind, so that a seed's few costly draws move the round's sum and median
    little; the seed draws the edges, target
    sets, tree shapes and head graphs.  TargetSet and is_a_perfect calls go
    to graphs with n <= 10: on the sparse n = 11, 12 graphs their cost swings
    threefold with the seed and would dominate the round.
    """
    per_n = 1 if smoke else 60
    ops = []
    rng = _rng(seed, "desk_small", "gnm")
    graphs = []
    for n in range(4, 13):
        for j in range(per_n):
            m = _stratified(n - 1, n * (n - 1) // 2, j, per_n)
            graphs.append(tr.call("generators", gen.random_connected_gnm, n, m, rng))
    for i, g in enumerate(graphs):
        lo, hi = _degree_bounds(g)
        ops.append(_cg_op("cg_plain", f"gnm #{i} plain", g, PLAIN,
                          lambda v, lo=lo, hi=hi: None if lo <= v <= hi
                          else f"value {v} outside [{lo}, {hi}]"))
    trng = _rng(seed, "desk_small", "target")
    for i, g in enumerate(graphs):
        if i % 3 == 0 or g.n > 10:
            def check(v, g=g):
                plain = _plain_value(g)
                return None if 1 <= v <= plain else f"connected {v} vs plain {plain}"
            ops.append(_cg_op("cg_connected", f"gnm #{i} connected", g, CONNECTED, check))
        elif i % 3 == 1:
            x = trng.randrange(1, 1 << g.n)

            def check(v, g=g, x=x):
                if not 0 <= v <= (g.n + 1) // 2:
                    return f"target value {v} outside [0, ceil(n/2)]"
                if g.n <= 9:
                    ref = solver.cg(g, TargetSet(x), use_pruning=False,
                                    **DESK_BUDGET).value
                    if ref != v:
                        return f"target value {v}, unpruned search {ref}"
                return None
            ops.append(_cg_op("cg_target", f"gnm #{i} target {x:#x}", g,
                              TargetSet(x), check))
        else:
            def run(tr, g=g):
                return {"value": solver.is_a_perfect(
                    g, max_states=DESK_BUDGET["max_states"])}

            def check(rec, g=g):
                want = _plain_value(g) == (g.n + 1) // 2
                return None if rec["value"] == want else \
                    f"is_a_perfect {rec['value']} but value == ceil(n/2) is {want}"
            ops.append(Op("is_a_perfect", f"gnm #{i} a-perfect", run, check, g))

    drng = _rng(seed, "desk_small", "dense")
    for i in range(7 if smoke else 84):
        n = 4 + i % 7
        lo = (n - 2) * (n - 3) // 2 + 3
        g = tr.call("generators", gen.random_connected_gnm, n,
                    _stratified(lo, n * (n - 1) // 2, i // 7 % 4, 4), drng)

        def run(tr, g=g):
            return {"value": solver.can_force_cds_within(
                g, 4, max_states=DESK_BUDGET["max_states"])}
        ops.append(Op("cds_within_4", f"dense #{i} n={n} m={g.edge_count}", run,
                      lambda rec: None if rec["value"]
                      else "dense graph cannot force a CDS in 4 rounds", g))

    qrng = _rng(seed, "desk_small", "qgraph")
    for i in range(10 if smoke else 90):
        g, tree = random_cotree(qrng, 3 + i % 10)
        ops.append(_qgraph_op("qgraph_cotree", f"cotree #{i}", g, tree, _matches_cg(g)))
    shapes = [("matched", 2), ("matched", 3), ("matched", 4),
              ("antimatched", 3), ("antimatched", 4)]
    for i in range(5 if smoke else 75):
        flavor, k = shapes[i % len(shapes)]
        r_n = i // len(shapes) % 5
        r_graph = Graph.from_edges(r_n, [e for e in itertools.combinations(range(r_n), 2)
                                         if qrng.random() < 0.5])
        fg = tr.call("generators", gen.spider, flavor, k, r_graph=r_graph)
        g = fg.graph

        def check(v, g=g, flavor=flavor, k=k):
            if flavor == "matched":
                want = qgraph.matched_spider_value(g.n, k)
                if v != want:
                    return f"matched spider value {v}, closed form {want}"
            return _matches_cg(g)(v)
        ops.append(_qgraph_op("qgraph_spider", f"{flavor} spider k={k} r={r_n} #{i}",
                              g, qgraph.spider_tree(fg), check))
    for i in range(3 if smoke else 27):
        g, tree = random_odd_rest_pseudo_spider(qrng, 2 + i % 3)
        ops.append(_qgraph_op("qgraph_pseudo_spider", f"odd-rest pseudo-spider #{i}",
                              g, tree, _matches_cg(g)))
    for n_leaves, max_size in ((16, 2),) if smoke else ((16, 4), (32, 4), (64, 2), (128, 1)):
        g, tree, want = clique_union_chain(qrng, n_leaves, max_size)
        ops.append(_qgraph_op("qgraph_union_chain", f"union chain of {n_leaves} cliques",
                              g, tree, lambda v, want=want: None if v == want
                              else f"union chain value {v}, want {want}"))
    return ops


WORKLOADS = {
    "ladder": build_ladder,
    "strategy": build_strategy,
    "desk_small": build_desk_small,
}
