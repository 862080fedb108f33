"""Decomposition trees: validation, the closed formula, evaluation, strategy."""

from __future__ import annotations

import random

import pytest

from lcsgame.engine import (PLAIN, BudgetExceededError, FunctionStrategy,
                            Player, lowest_index_strategy, play_match,
                            verify_strategy_exhaustive)
from lcsgame.generators import spider
from lcsgame.graphs import Graph, bits
from lcsgame.qgraph import (
    DecompositionTree,
    EvalStats,
    JoinNode,
    Leaf,
    PseudoSpider,
    Spider,
    UnionNode,
    alice_strategy_qgraph,
    cg_qgraph,
    format_tree,
    matched_spider_value,
    parse_tree,
    spider_tree,
    validate_tree,
)
from lcsgame.solver import analyze_head, cg

from oracles import naive_cg


def complete(n):
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def union_chain(verts):
    node = Leaf(1 << verts[0])
    for v in verts[1:]:
        node = UnionNode(node, Leaf(1 << v))
    return node


class TestMatchedSpiderValue:
    @pytest.mark.parametrize("n,k,want", [(4, 2, 2), (8, 4, 3), (7, 3, 3)])
    def test_frozen_values(self, n, k, want):
        assert matched_spider_value(n, k) == want

    def test_matches_brute_force(self):
        for k in (2, 3, 4):
            for r in range(0, 5):
                g = spider("matched", k, r_size=r).graph
                assert matched_spider_value(g.n, k) == cg(g).value

    def test_domain_violation(self):
        with pytest.raises(ValueError):
            matched_spider_value(3, 2)
        with pytest.raises(ValueError):
            matched_spider_value(4, 1)


class TestValidation:
    def test_k2_join_tree(self):
        g = Graph.from_edges(2, [(0, 1)])
        assert validate_tree(g, DecompositionTree(4, JoinNode(Leaf(1), Leaf(2))))

    def test_matched_spider_accepted(self):
        g = Graph.from_edges(4, [(0, 2), (1, 3), (2, 3)])
        t = DecompositionTree(4, Spider("matched", 0b0011, 0b1100,
                                        ((0, 2), (1, 3))))
        assert validate_tree(g, t)

    def test_extra_sk_edge_rejected(self):
        # edge 0-3 breaks both the matched and antimatched patterns
        g = Graph.from_edges(4, [(0, 2), (1, 3), (2, 3), (0, 3)])
        t = DecompositionTree(4, Spider("matched", 0b0011, 0b1100,
                                        ((0, 2), (1, 3))))
        res = validate_tree(g, t)
        assert not res and "pattern" in res.diagnostic

    def test_union_with_cross_edge_rejected(self):
        g = Graph.from_edges(2, [(0, 1)])
        res = validate_tree(g, DecompositionTree(4, UnionNode(Leaf(1), Leaf(2))))
        assert not res and "joined" in res.diagnostic

    def test_join_missing_edge_rejected(self):
        g = Graph.from_edges(2, [])
        res = validate_tree(g, DecompositionTree(4, JoinNode(Leaf(1), Leaf(2))))
        assert not res and "missing" in res.diagnostic

    def test_cover_must_be_exact(self):
        g = Graph.from_edges(3, [])
        res = validate_tree(g, DecompositionTree(4, union_chain([0, 1])))
        assert not res and "cover" in res.diagnostic

    def test_leaf_size_capped_by_q(self):
        g = Graph.from_edges(3, [])
        res = validate_tree(g, DecompositionTree(2, Leaf(0b111)))
        assert not res and "larger than q" in res.diagnostic

    def test_diagnostic_names_path(self):
        g = Graph.from_edges(3, [])
        bad = DecompositionTree(4, UnionNode(Leaf(0b100),
                                             JoinNode(Leaf(1), Leaf(2))))
        res = validate_tree(g, bad)
        assert not res and res.diagnostic.startswith("root.right")

    def test_pseudo_spider_head_capped(self):
        g = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
        t = DecompositionTree(2, PseudoSpider(0b011, 0b100))
        res = validate_tree(g, t)
        assert not res and "head larger" in res.diagnostic


class TestEvaluation:
    def test_star_cograph(self):
        g = Graph.from_edges(3, [(0, 1), (0, 2)])
        t = DecompositionTree(4, JoinNode(Leaf(1), union_chain([1, 2])))
        assert cg_qgraph(g, t) == 2

    def test_union_of_k4_and_k2(self):
        edges = complete(4).edges() + [(4, 5)]
        g = Graph.from_edges(6, edges)
        t = DecompositionTree(4, UnionNode(Leaf(0b001111), Leaf(0b110000)))
        assert cg_qgraph(g, t) == 2

    def test_antimatched_k3_is_a_perfect(self):
        fg = spider("antimatched", 3)
        assert cg_qgraph(fg.graph, spider_tree(fg)) == 3

    def test_invalid_tree_raises(self):
        g = Graph.from_edges(2, [])
        with pytest.raises(ValueError, match="invalid decomposition tree"):
            cg_qgraph(g, DecompositionTree(4, JoinNode(Leaf(1), Leaf(2))))

    def test_matches_solver_on_mixed_trees(self):
        rng = random.Random(8)
        for _ in range(25):
            n = rng.randint(2, 10)
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
            t = DecompositionTree(4, nodes[0])
            assert cg_qgraph(g, t) == naive_cg(g) if n <= 6 else cg(g).value

    def test_state_budget_covers_the_whole_call(self):
        # two disjoint C12 under a union: each leaf solve takes what the
        # other left, as cg does on the same disconnected graph
        c12 = [(i, (i + 1) % 12) for i in range(12)]
        g = Graph.from_edges(24, c12 + [(u + 12, v + 12) for u, v in c12])
        t = DecompositionTree(12, UnionNode(Leaf(0xFFF), Leaf(0xFFF << 12)))
        one = cg(Graph.from_edges(12, c12)).states_expanded
        stats = EvalStats()
        assert cg_qgraph(g, t, stats=stats, max_states=2 * one) == 2
        assert stats.states_expanded == 2 * one
        with pytest.raises(BudgetExceededError):
            cg_qgraph(g, t, max_states=one + 10)
        # the strategy's evaluation keeps the same single budget
        alice_strategy_qgraph(g, t, max_states=2 * one)
        with pytest.raises(BudgetExceededError):
            alice_strategy_qgraph(g, t, max_states=one + 10)

    def test_strategy_plays_a_leaf_from_its_evaluation_core(self):
        # two disjoint C12 under a union: the leaf the strategy follows was
        # solved by the evaluation, and its first move reuses that table
        # instead of solving the leaf again in a fresh core
        c12 = [(i, (i + 1) % 12) for i in range(12)]
        g = Graph.from_edges(24, c12 + [(u + 12, v + 12) for u, v in c12])
        t = DecompositionTree(12, UnionNode(Leaf(0xFFF), Leaf(0xFFF << 12)))
        one = cg(Graph.from_edges(12, c12)).states_expanded
        strat = alice_strategy_qgraph(g, t, max_states=2 * one)
        leaf = strat
        move, _ = strat.choose(g, PLAIN, (0, 0, 0, 0), strat.initial_state(), None)
        assert move in range(12)
        # play has a budget of its own, and the move barely charged it
        assert leaf._core.budget.max_states == 2 * one
        assert leaf._core.budget.spent < one // 10

    def test_head_analysis_draws_from_the_call_budget(self):
        # head: path 0-1-2 with K = {1}; seven rest vertices hang off 1
        edges = [(0, 1), (1, 2)] + [(1, 3 + j) for j in range(7)]
        g = Graph.from_edges(10, edges)
        t = DecompositionTree(3, PseudoSpider(0b101, 0b010,
                                              union_chain(list(range(3, 10)))))
        head = analyze_head(Graph.from_edges(3, [(0, 1), (1, 2)]), 0b010)
        stats = EvalStats()
        assert cg_qgraph(g, t, stats=stats) == cg(g).value
        # the head analysis alone: the rest is read, not solved
        assert stats.states_expanded == head.states_expanded
        assert cg_qgraph(g, t, max_states=stats.states_expanded) == cg(g).value
        with pytest.raises(BudgetExceededError):
            cg_qgraph(g, t, max_states=stats.states_expanded - 1)

    def test_head_core_keeps_the_per_solve_budget(self):
        # only the head analysis draws on the call's budget; the c* core,
        # which solves again during play, gets a fresh max_states of its own
        edges = [(0, 1), (1, 2)] + [(1, 3 + j) for j in range(7)]
        g = Graph.from_edges(10, edges)
        t = DecompositionTree(3, PseudoSpider(0b101, 0b010,
                                              union_chain(list(range(3, 10)))))
        g3 = Graph.from_edges(3, [(0, 1), (1, 2)])
        need = analyze_head(g3, 0b010).states_expanded
        with pytest.raises(BudgetExceededError):
            alice_strategy_qgraph(g, t, max_states=need - 1)
        strat = alice_strategy_qgraph(g, t, max_states=need)
        core = strat.core
        assert core.budget.max_states == need
        assert core.budget.spent == 0
        assert core.exact(0, 0) == analyze_head(g3, 0b010).c_star
        assert verify_strategy_exhaustive(g, PLAIN, strat, Player.ALICE) == cg(g).value

    def test_disconnected_large_rest_pseudo_spider_rejected(self):
        # isolated S vertex: the large-rest rule requires a connected node
        edges = [(1, 2 + j) for j in range(5)]
        g = Graph.from_edges(7, edges)
        t = DecompositionTree(2, PseudoSpider(0b01, 0b10, union_chain([2, 3, 4, 5, 6])))
        assert validate_tree(g, t)
        with pytest.raises(ValueError, match="connected"):
            cg_qgraph(g, t)

    def test_join_over_disconnected_pseudo_spider(self):
        # the pseudo-spider's value is never read, so its large-rest rule,
        # which needs a connected node, does not apply below the join
        edges = [(1, 2 + j) for j in range(5)] + [(7, v) for v in range(7)]
        g = Graph.from_edges(8, edges)
        t = DecompositionTree(2, JoinNode(
            PseudoSpider(0b01, 0b10, union_chain([2, 3, 4, 5, 6])), Leaf(1 << 7)))
        assert validate_tree(g, t)
        assert cg_qgraph(g, t) == cg(g).value == 4
        strat = alice_strategy_qgraph(g, t)
        assert verify_strategy_exhaustive(g, PLAIN, strat, Player.ALICE) == 4

    def test_join_evaluates_no_child(self):
        g = Graph.from_edges(5, [(i, j) for i in range(2) for j in range(2, 5)])
        t = DecompositionTree(4, JoinNode(union_chain([0, 1]), union_chain([2, 3, 4])))
        stats = EvalStats()
        assert cg_qgraph(g, t, stats=stats) == 3
        assert stats.nodes_evaluated == 1
        assert stats.states_expanded == 0

    def test_linear_operation_count(self):
        # node evaluations grow exactly with the tree, not the graph games
        def chain(n):
            g = Graph.from_edges(n, [])
            return g, DecompositionTree(4, union_chain(list(range(n))))

        small_stats, big_stats = EvalStats(), EvalStats()
        g, t = chain(8)
        cg_qgraph(g, t, stats=small_stats)
        g, t = chain(16)
        cg_qgraph(g, t, stats=big_stats)
        assert small_stats.nodes_evaluated == 15
        assert big_stats.nodes_evaluated == 31


class TestComposedStrategy:
    def _verify(self, g, tree):
        want = cg_qgraph(g, tree)
        strat = alice_strategy_qgraph(g, tree)
        got = verify_strategy_exhaustive(g, PLAIN, strat, Player.ALICE)
        assert got == want, f"strategy guarantees {got}, tree value {want}"

    def test_join_on_k23(self):
        g = Graph.from_edges(5, [(i, j) for i in range(2) for j in range(2, 5)])
        t = DecompositionTree(4, JoinNode(union_chain([0, 1]),
                                          union_chain([2, 3, 4])))
        assert cg_qgraph(g, t) == 3
        self._verify(g, t)

    def test_union_of_k4_and_k2(self):
        edges = complete(4).edges() + [(4, 5)]
        g = Graph.from_edges(6, edges)
        t = DecompositionTree(4, UnionNode(Leaf(0b001111), Leaf(0b110000)))
        self._verify(g, t)

    def test_matched_spider_with_rest(self):
        fg = spider("matched", 3, r_size=1)
        tree = spider_tree(fg)
        assert cg_qgraph(fg.graph, tree) == 3
        self._verify(fg.graph, tree)

    def test_antimatched_spider(self):
        fg = spider("antimatched", 3, r_size=2)
        self._verify(fg.graph, spider_tree(fg))

    def test_pseudo_spider_small_rest(self):
        edges = [(0, 1), (1, 2), (1, 3)]
        g = Graph.from_edges(4, edges)
        t = DecompositionTree(2, PseudoSpider(0b01, 0b10, union_chain([2, 3])))
        assert validate_tree(g, t)
        self._verify(g, t)

    @pytest.mark.parametrize("head_edges,k_mask,hn", [
        ([(0, 1)], 0b10, 2),          # Sb2-style head
        ([], 0b11, 2),                # Sa2-style head (both targets)
        ([], 0b01, 2),                # neither-strategy head
        ([(0, 1), (1, 2)], 0b010, 3),
    ])
    def test_pseudo_spider_large_rest_modes(self, head_edges, k_mask, hn):
        q = hn
        for r_n in (2 * q + 1, 2 * q + 2):
            edges = list(head_edges)
            for kv in bits(k_mask):
                for j in range(r_n):
                    edges.append((kv, hn + j))
            g = Graph.from_edges(hn + r_n, edges)
            from lcsgame.graphs import is_connected
            if not is_connected(g):
                continue
            t = DecompositionTree(q, PseudoSpider(
                ((1 << hn) - 1) & ~k_mask, k_mask,
                union_chain(list(range(hn, hn + r_n)))))
            assert validate_tree(g, t)
            assert cg_qgraph(g, t) == cg(g).value
            self._verify(g, t)

    def test_nested_union_join(self):
        # Union(Join(K1, K2-bar), Leaf(K3)): two components
        edges = [(0, 1), (0, 2), (3, 4), (3, 5), (4, 5)]
        g = Graph.from_edges(6, edges)
        t = DecompositionTree(4, UnionNode(
            JoinNode(Leaf(1), union_chain([1, 2])), Leaf(0b111000)))
        self._verify(g, t)


def _large_rest_pseudo_spider(head_edges, k_mask, hn, r_n):
    edges = list(head_edges)
    for kv in bits(k_mask):
        edges.extend((kv, hn + j) for j in range(r_n))
    g = Graph.from_edges(hn + r_n, edges)
    return g, DecompositionTree(hn, PseudoSpider(
        ((1 << hn) - 1) & ~k_mask, k_mask, union_chain(list(range(hn, hn + r_n)))))


def _pinned_tree(name):
    if name == "union_c12":
        c12 = [(i, (i + 1) % 12) for i in range(12)]
        return (Graph.from_edges(24, c12 + [(u + 12, v + 12) for u, v in c12]),
                DecompositionTree(12, UnionNode(Leaf(0xFFF), Leaf(0xFFF << 12))))
    if name == "sa2":
        return _large_rest_pseudo_spider([], 0b11, 2, 5)
    if name == "hold":
        return _large_rest_pseudo_spider([(0, 1)], 0b10, 2, 5)
    if name == "join":
        g = Graph.from_edges(7, [(i, j) for i in range(3) for j in range(3, 7)])
        return g, DecompositionTree(4, JoinNode(union_chain([0, 1, 2]),
                                                union_chain([3, 4, 5, 6])))
    fg = spider("matched", 3, r_size=2)
    return fg.graph, spider_tree(fg)


_HIGHEST_BOB = FunctionStrategy(
    "highest", lambda g, variant, pos, last_opp:
    (g.full_mask & ~(pos[0] | pos[1])).bit_length() - 1)


class TestComposedStrategyMoves:
    # the moves of whole matches, not only the guaranteed value: a change to
    # the strategy's plumbing must leave every move where it was
    @pytest.mark.parametrize("name,bob,moves,final", [
        ("union_c12", "lowest", [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 10,
                                 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23], 2),
        ("union_c12", "highest", [0, 23, 1, 22, 2, 21, 3, 20, 4, 19, 5, 18,
                                  6, 17, 7, 16, 8, 15, 9, 14, 10, 13, 11, 12], 12),
        ("sa2", "lowest", [2, 0, 1, 3, 4, 5, 6], 4),
        ("sa2", "highest", [2, 6, 3, 5, 4, 1, 0], 4),
        ("hold", "lowest", [1, 0, 2, 3, 4, 5, 6], 4),
        ("hold", "highest", [1, 6, 0, 5, 2, 4, 3], 4),
        ("join", "lowest", [0, 1, 3, 2, 4, 5, 6], 4),
        ("join", "highest", [0, 6, 3, 5, 1, 4, 2], 4),
        ("matched", "lowest", [3, 0, 4, 1, 5, 2, 6, 7], 4),
        ("matched", "highest", [3, 7, 4, 6, 5, 2, 0, 1], 4),
    ])
    def test_match_trace(self, name, bob, moves, final):
        g, t = _pinned_tree(name)
        bob_strategy = lowest_index_strategy() if bob == "lowest" else _HIGHEST_BOB
        trace = play_match(g, PLAIN, alice_strategy_qgraph(g, t), bob_strategy)
        assert [m.v for _, m in trace.moves] == moves
        assert trace.score == final


class TestTreeFormat:
    def test_round_trip_all_node_kinds(self):
        tree = DecompositionTree(5, UnionNode(
            Spider("matched", 0b0011, 0b1100, ((0, 2), (1, 3)), None),
            PseudoSpider(0b010000, 0b100000, Leaf(0b1000000))))
        assert parse_tree(format_tree(tree)) == tree

    def test_header_required(self):
        with pytest.raises(ValueError, match="header"):
            parse_tree("(leaf 0)\n")

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown node kind"):
            parse_tree("q 4\n(widget 0)\n")

    def test_trailing_tokens_rejected(self):
        with pytest.raises(ValueError, match="trailing"):
            parse_tree("q 4\n(leaf 0) (leaf 1)\n")

    @pytest.mark.parametrize("text,frag", [
        ("q x\n(leaf 0)\n", "line 1: q must be a non-negative integer, got 'x'"),
        ("q 4\n(leaf x)\n", "line 2: a leaf vertex must be a non-negative "
                             "integer, got 'x'"),
        ("q 4\n# the spider\n(spider matched (s 0 1) (k 2 3)\n (f 0-1 1:3))\n",
         "line 4: each side of an f pair <s>:<k> must be a non-negative "
         "integer, got '0-1'"),
    ], ids=["q", "leaf", "f-pair"])
    def test_bad_integer_fields_name_their_line(self, text, frag):
        with pytest.raises(ValueError) as exc:
            parse_tree(text)
        assert str(exc.value) == frag

    def test_comments_allowed(self):
        t = parse_tree("# a tree\nq 4\n(leaf 0 1)\n")
        assert t.root == Leaf(0b11)


class TestSpiderBobSide:
    def test_exhaust_bob_caps_alice_at_formula_value(self):
        from lcsgame.strategies import builtin_strategy
        for k in (2, 3, 4):
            for r in (0, 1, 2):
                fg = spider("matched", k, r_size=r)
                bob = builtin_strategy("spider_exhaust_bob", fg)
                v = verify_strategy_exhaustive(fg.graph, PLAIN, bob, Player.BOB)
                assert v <= matched_spider_value(fg.graph.n, k)


class TestAntimatchedPairFlavour:
    def test_k2_antimatched_is_matched(self):
        # an antimatched bijection on |K| = 2 is the matched spider of the
        # swapped bijection; both the value and the strategy must notice
        for r in (0, 1, 2):
            fg = spider("antimatched", 2, r_size=r)
            tree = spider_tree(fg)
            want = cg(fg.graph).value
            assert cg_qgraph(fg.graph, tree) == want
            s = alice_strategy_qgraph(fg.graph, tree)
            assert verify_strategy_exhaustive(fg.graph, PLAIN, s,
                                              Player.ALICE) == want
