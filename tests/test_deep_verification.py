"""Heavier cross-validation sweeps: exhaustive small graphs, nested tree
strategies, and seed robustness of the randomized checks."""

from __future__ import annotations

import itertools
import random

import pytest

from lcsgame.engine import (
    CONNECTED,
    PLAIN,
    GameConfig,
    Player,
    apply_move,
    legal_moves,
    score,
    verify_strategy_exhaustive,
)
from lcsgame.generators import random_connected_gnm, spider
from lcsgame.graphs import Graph, bits, mask_of
from lcsgame.qgraph import (
    DecompositionTree,
    JoinNode,
    Leaf,
    PseudoSpider,
    UnionNode,
    alice_strategy_qgraph,
    cg_qgraph,
    spider_tree,
    validate_tree,
)
from lcsgame.solver import cg

from oracles import naive_cg


def union_chain(verts):
    node = Leaf(1 << verts[0])
    for v in verts[1:]:
        node = UnionNode(node, Leaf(1 << v))
    return node


class TestExhaustiveSmallGraphs:
    def test_all_labelled_graphs_up_to_n5(self):
        # every labelled graph on at most 5 vertices against the bare oracle
        for n in range(6):
            pairs = list(itertools.combinations(range(n), 2))
            for em in range(1 << len(pairs)):
                edges = [e for i, e in enumerate(pairs) if em >> i & 1]
                g = Graph.from_edges(n, edges)
                v = cg(g).value
                assert v == naive_cg(g)
                assert v <= (n + 1) // 2
                if n:
                    assert v >= g.max_degree // 2 + 1

    def test_pruning_neutral_on_all_n4_graphs(self):
        pairs = list(itertools.combinations(range(4), 2))
        for em in range(1 << len(pairs)):
            edges = [e for i, e in enumerate(pairs) if em >> i & 1]
            g = Graph.from_edges(4, edges)
            assert cg(g, use_pruning=True).value == cg(g, use_pruning=False).value


class TestNestedTreeStrategies:
    def _verify(self, g, tree):
        want = cg_qgraph(g, tree)
        assert want == cg(g).value
        strat = alice_strategy_qgraph(g, tree)
        got = verify_strategy_exhaustive(g, PLAIN, strat, Player.ALICE)
        assert got == want

    def test_spider_under_union(self):
        # matched spider |K|=2, |R|=1 next to an isolated triangle
        fg = spider("matched", 2, r_size=1)
        base = fg.graph
        n0 = base.n
        edges = base.edges() + [(n0, n0 + 1), (n0 + 1, n0 + 2), (n0, n0 + 2)]
        g = Graph.from_edges(n0 + 3, edges)
        sp_node = spider_tree(fg).root
        tree = DecompositionTree(4, UnionNode(
            sp_node, JoinNode(Leaf(1 << n0), JoinNode(Leaf(1 << (n0 + 1)),
                                                      Leaf(1 << (n0 + 2))))))
        assert validate_tree(g, tree)
        self._verify(g, tree)

    def test_large_rest_pseudo_spider_under_union(self):
        # the skip-protocol strategy must stay sound when wrapped: pair it
        # with an isolated edge so its component is not the whole board
        hn, q = 2, 2
        r_n = 5
        edges = [(0, 1)] + [(1, 2 + j) for j in range(r_n)]
        n0 = hn + r_n
        edges.append((n0, n0 + 1))
        g = Graph.from_edges(n0 + 2, edges)
        ps = PseudoSpider(0b01, 0b10, union_chain(list(range(2, 2 + r_n))))
        tree = DecompositionTree(q, UnionNode(ps, Leaf(mask_of([n0, n0 + 1]))))
        assert validate_tree(g, tree)
        self._verify(g, tree)

    def test_small_leaf_under_two_unions(self):
        # union nesting with the decisive component deepest
        edges = [(0, 1), (1, 2), (0, 2), (0, 3), (1, 3), (2, 3)]  # K4
        g = Graph.from_edges(6, edges)
        tree = DecompositionTree(4, UnionNode(
            UnionNode(Leaf(0b001111), Leaf(0b010000)), Leaf(0b100000)))
        assert validate_tree(g, tree)
        self._verify(g, tree)

    def test_join_of_spiders(self):
        # join rule must win regardless of the children's inner structure
        fg = spider("matched", 2)
        base = fg.graph
        n0 = base.n
        edges = list(base.edges())
        edges += [(n0, n0 + 1)]
        for u in range(n0):
            for w in (n0, n0 + 1):
                edges.append((u, w))
        g = Graph.from_edges(n0 + 2, edges)
        tree = DecompositionTree(4, JoinNode(
            spider_tree(fg).root, Leaf(mask_of([n0, n0 + 1]))))
        assert validate_tree(g, tree)
        self._verify(g, tree)

    def test_random_cotree_strategies(self):
        rng = random.Random(31)
        for _ in range(12):
            n = rng.randint(2, 9)
            nodes = [Leaf(1 << v) for v in range(n)]
            masks = [1 << v for v in range(n)]
            edges = []
            while len(nodes) > 1:
                i = rng.randrange(len(nodes) - 1)
                if rng.random() < 0.5:
                    nodes[i:i + 2] = [UnionNode(nodes[i], nodes[i + 1])]
                else:
                    for u in bits(masks[i]):
                        for w in bits(masks[i + 1]):
                            edges.append((u, w))
                    nodes[i:i + 2] = [JoinNode(nodes[i], nodes[i + 1])]
                masks[i:i + 2] = [masks[i] | masks[i + 1]]
            g = Graph.from_edges(n, edges)
            tree = DecompositionTree(4, nodes[0])
            self._verify(g, tree)


class TestPrincipalVariations:
    def test_connected_variant_pv(self):
        g = Graph.from_edges(8, [(2 * j + a, 2 * (j + 1) + b)
                                 for j in range(3) for a in (0, 1) for b in (0, 1)]
                             + [(2 * j, 2 * j + 1) for j in range(4)])
        res = cg(g, CONNECTED)
        cfg = GameConfig()
        for move in res.principal_variation:
            cfg = apply_move(cfg, cfg.mover(), move)
        assert not legal_moves(g, CONNECTED, cfg)
        assert score(g, CONNECTED, cfg.red) == res.value

    def test_pv_moves_alternate_legally(self):
        g = random_connected_gnm(9, 14, random.Random(33))
        res = cg(g)
        cfg = GameConfig()
        for move in res.principal_variation:
            assert move in legal_moves(g, PLAIN, cfg)
            cfg = apply_move(cfg, cfg.mover(), move)
        assert not legal_moves(g, PLAIN, cfg)


class TestSeedRobustness:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_random_invariants_other_seeds(self, seed):
        rng = random.Random(seed)
        for _ in range(40):
            n = rng.randint(2, 10)
            g = random_connected_gnm(n, rng.randint(n - 1, n * (n - 1) // 2), rng)
            v = cg(g).value
            assert g.max_degree // 2 + 1 <= v <= (n + 1) // 2
            assert cg(g, CONNECTED).value <= v


class TestPseudoSpiderHoldingPlay:
    def test_star_head_regression(self):
        # head = star at 1 with K = {0, 2}: the straight-value-preserving
        # opening can forfeit the deviation punishment, so the holding
        # condition must drive the move choice
        hn, km = 4, 0b0101
        edges = [(0, 1), (1, 2), (1, 3)]
        r_n = 9
        for kv in (0, 2):
            for j in range(r_n):
                edges.append((kv, hn + j))
        g = Graph.from_edges(hn + r_n, edges)
        tree = DecompositionTree(hn, PseudoSpider(
            0b1010, km, union_chain(list(range(hn, hn + r_n)))))
        assert validate_tree(g, tree)
        want = cg(g).value
        assert cg_qgraph(g, tree) == want == 7
        strat = alice_strategy_qgraph(g, tree)
        assert verify_strategy_exhaustive(g, PLAIN, strat, Player.ALICE) == want


class TestAllSmallHeadModes:
    @pytest.mark.parametrize("mode,extra", itertools.product(("sa2", "sb2", "hold"), (1, 2)),
                             ids=lambda x: f"2q+{x}" if isinstance(x, int) else x)
    def test_every_small_head_of_mode_verifies(self, mode, extra):
        # every head on <= 3 vertices of the given mode, with the rest
        # |R| = 2q + extra: the tree value is c_g, and the composed strategy
        # guarantees exactly that value against every Bob
        from lcsgame.graphs import is_connected
        from lcsgame.solver import analyze_head
        checked = 0
        for hn in (1, 2, 3):
            pairs = list(itertools.combinations(range(hn), 2))
            for em in range(1 << len(pairs)):
                edges_h = [e for i, e in enumerate(pairs) if em >> i & 1]
                hg = Graph.from_edges(hn, edges_h)
                for km in range(1, 1 << hn):
                    if analyze_head(hg, km).mode != mode:
                        continue
                    r_n = 2 * hn + extra
                    edges = list(edges_h)
                    for kv in bits(km):
                        for j in range(r_n):
                            edges.append((kv, hn + j))
                    g = Graph.from_edges(hn + r_n, edges)
                    if not is_connected(g):
                        continue
                    s_mask = ((1 << hn) - 1) & ~km
                    tree = DecompositionTree(hn, PseudoSpider(
                        s_mask, km, union_chain(list(range(hn, hn + r_n)))))
                    if not validate_tree(g, tree):
                        continue
                    want = cg(g).value
                    assert cg_qgraph(g, tree) == want
                    strat = alice_strategy_qgraph(g, tree)
                    assert verify_strategy_exhaustive(
                        g, PLAIN, strat, Player.ALICE) == want
                    checked += 1
        assert checked > 0
