"""Strategy factories: the pairing engine, named strategies, matchings."""

from __future__ import annotations

import random

import pytest

from lcsgame.engine import (
    ARBITRARY,
    PLAIN,
    Budget,
    BudgetExceededError,
    Player,
    _fixed_move_bit,
    verify_strategy_exhaustive,
)
from lcsgame.generators import (
    cartesian_grid,
    clique_chain,
    complete_bipartite,
    hex_patch,
    king_grid_2rows,
    random_cubic,
    regular4_chain,
    regular5_chain,
    spider,
)
from lcsgame.graphs import Graph, Matching, format_graph, mask_of, parse_graph
from lcsgame.solver import cg
from lcsgame.strategies import (
    CubicBob,
    DegreeSumAlice,
    MaxDegreeAlice,
    PairingPlan,
    PairingStrategy,
    builtin_strategy,
    find_suitable_matching,
)


def cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def complete(n):
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return Graph.from_edges(10, outer + inner + spokes)


class TestPairingEngine:
    def test_partner_response(self):
        plan = PairingPlan(pairs=((0, 1), (2, 3)))
        bob = PairingStrategy(plan)
        g = cycle(4)
        pos = (1, 0, 0, 0)  # Alice played 0
        move, _ = bob.choose(g, PLAIN, pos, None, 0)
        assert move == 1

    def test_fallback_when_partner_taken(self):
        plan = PairingPlan(pairs=((0, 1),))
        bob = PairingStrategy(plan)
        g = cycle(4)
        red, blue = mask_of([0, 1]), mask_of([2])
        move, _ = bob.choose(g, PLAIN, (red, blue, 0, 0), None, 0)
        assert move is ARBITRARY
        # which the engine resolves to the lowest legal vertex, 3
        assert _fixed_move_bit(bob, move, g.full_mask & ~(red | blue), False) == 1 << 3

    def test_trigger_precedes_pairing(self):
        plan = PairingPlan(pairs=((0, 1),), triggers={0: (3, 2)})
        bob = PairingStrategy(plan)
        g = cycle(4)
        move, _ = bob.choose(g, PLAIN, (1, 0, 0, 0), None, 0)
        assert move == 3

    def test_opening_move(self):
        alice = PairingStrategy(PairingPlan(pairs=((0, 1),), opening=2))
        move, _ = alice.choose(cycle(4), PLAIN, (0, 0, 0, 0), None, None)
        assert move == 2

    def test_overlapping_pairs_rejected(self):
        with pytest.raises(ValueError):
            PairingPlan(pairs=((0, 1), (1, 2)))

    def test_hex_patch_pairing_guarantee(self):
        fg = hex_patch(2)
        bob = builtin_strategy("hex_patch_bob", fg)
        v = verify_strategy_exhaustive(fg.graph, PLAIN, bob, Player.BOB)
        assert v <= 6


class TestMaxDegreeAlice:
    def test_star_value(self):
        fg = complete_bipartite(1, 6)
        v = verify_strategy_exhaustive(fg.graph, PLAIN,
                                       MaxDegreeAlice(fg.graph), Player.ALICE)
        assert v == 4  # floor(6/2) + 1

    def test_k2(self):
        v = verify_strategy_exhaustive(complete(2), PLAIN,
                                       MaxDegreeAlice(complete(2)), Player.ALICE)
        assert v == 1

    def test_petersen_lower_bound(self):
        v = verify_strategy_exhaustive(petersen(), PLAIN,
                                       MaxDegreeAlice(petersen()), Player.ALICE)
        assert v >= 2

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            MaxDegreeAlice(Graph.from_edges(0, []))


class TestDegreeSumAlice:
    def test_k4(self):
        v = verify_strategy_exhaustive(complete(4), PLAIN,
                                       DegreeSumAlice(complete(4)), Player.ALICE)
        assert v == 2

    def test_wheel_w5(self):
        rim = [(1 + i, 1 + (i + 1) % 5) for i in range(5)]
        hub = [(0, 1 + i) for i in range(5)]
        g = Graph.from_edges(6, rim + hub)
        assert g.max_degree + g.min_degree >= g.n
        v = verify_strategy_exhaustive(g, PLAIN, DegreeSumAlice(g), Player.ALICE)
        assert v == 3

    def test_random_dense_graph_n9(self):
        rng = random.Random(42)
        from lcsgame.generators import random_connected_gnm
        while True:
            g = random_connected_gnm(9, rng.randint(20, 36), rng)
            if g.max_degree + g.min_degree >= 9:
                break
        v = verify_strategy_exhaustive(g, PLAIN, DegreeSumAlice(g), Player.ALICE)
        assert v == 5 == cg(g).value

    def test_precondition_refused(self):
        with pytest.raises(ValueError):
            DegreeSumAlice(cycle(6))
        with pytest.raises(ValueError):
            DegreeSumAlice(Graph.from_edges(4, [(0, 1), (2, 3)]))


class TestBuiltinStrategies:
    # pairs, triggers in insertion order, opening: trigger order decides moves
    @pytest.mark.parametrize("name,fg,pairs,triggers,opening", [
        ("regular4_alice", regular4_chain(3), ((0, 1), (2, 3), (4, 5)), [], 0),
        ("king_mirror_alice", king_grid_2rows(3),
         ((0, 1), (2, 3), (4, 5)), [], 0),
        ("regular5_alice", regular5_chain(5, 2),
         ((0, 1), (2, 3), (6, 7), (8, 9)),
         [(4, (5,)), (5, (4,)), (10, (11,)), (11, (10,))], 0),
        ("clique_chain_bob", clique_chain(3, 2), (),
         [(4, (1,)), (0, (5,)), (1, (4,)), (5, (0,)), (2, (3,)), (3, (2,)),
          (6, (7,)), (7, (6,))], None),
        ("cartesian_bob", cartesian_grid(2, 3), (),
         [(0, (1,)), (1, (2, 0)), (2, (1,)), (3, (4,)), (4, (5, 3)),
          (5, (4,))], None),
        ("hex_patch_bob", hex_patch(1), (), [], None),
        ("hex_patch_bob", hex_patch(2), ((3, 6),), [], None),
    ], ids=["regular4_alice", "king_mirror_alice", "regular5_alice",
            "clique_chain_bob", "cartesian_bob", "hex_patch_bob-1",
            "hex_patch_bob-2"])
    def test_pairing_plan_is_pinned(self, name, fg, pairs, triggers, opening):
        plan = builtin_strategy(name, fg).plan
        assert (plan.pairs, list(plan.triggers.items()), plan.opening,
                plan.name) == (pairs, triggers, opening, name)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            builtin_strategy("mystery", king_grid_2rows(3))

    def test_missing_meta_rejected(self):
        from lcsgame.generators import path as path_family
        with pytest.raises(ValueError):
            builtin_strategy("king_mirror_alice", path_family(4))

    @pytest.mark.parametrize("name,cls", [("alice_max_degree", MaxDegreeAlice),
                                          ("alice_degree_sum", DegreeSumAlice)])
    def test_degree_alices_by_name(self, name, cls):
        doc = complete_bipartite(3, 4)
        alice = builtin_strategy(name, doc)
        assert type(alice) is cls
        assert verify_strategy_exhaustive(doc.graph, PLAIN, alice, Player.ALICE) \
            == verify_strategy_exhaustive(doc.graph, PLAIN, cls(doc.graph),
                                          Player.ALICE)

    def test_cubic_bob_finds_its_own_matching(self):
        g = random_cubic(10, random.Random(0))
        bob = builtin_strategy("cubic_bob", parse_graph(format_graph(g)))
        assert type(bob) is CubicBob
        v = verify_strategy_exhaustive(g, PLAIN, bob, Player.BOB)
        assert v == verify_strategy_exhaustive(
            g, PLAIN, CubicBob(g, find_suitable_matching(g)), Player.BOB)
        assert v < (g.n + 1) // 2

    def test_cubic_bob_without_a_matching_rejected(self):
        with pytest.raises(ValueError, match="no suitable matching"):
            builtin_strategy("cubic_bob", parse_graph(format_graph(petersen())))

    def test_cubic_bob_matching_search_charges_the_budget(self):
        doc = parse_graph(format_graph(petersen()))
        with pytest.raises(BudgetExceededError):
            builtin_strategy("cubic_bob", doc, budget=Budget(100))

    @pytest.mark.parametrize("name", ["first:5", "first:99"])
    def test_first_vertex_outside_graph_rejected(self, name):
        with pytest.raises(ValueError, match=r"not in the graph's range 0\.\.4"):
            builtin_strategy(name, parse_graph(format_graph(path(5))))

    def test_regular4_alice_guarantee(self):
        fg = regular4_chain(4)
        alice = builtin_strategy("regular4_alice", fg)
        v = verify_strategy_exhaustive(fg.graph, PLAIN, alice, Player.ALICE)
        assert v == 4

    def test_regular5_alice_small(self):
        fg = regular5_chain(5, 2)
        alice = builtin_strategy("regular5_alice", fg)
        v = verify_strategy_exhaustive(fg.graph, PLAIN, alice, Player.ALICE)
        assert v == 6 == (fg.graph.n + 1) // 2

    def test_clique_chain_bob_guarantee(self):
        fg = clique_chain(3, 2)
        bob = builtin_strategy("clique_chain_bob", fg)
        v = verify_strategy_exhaustive(fg.graph, PLAIN, bob, Player.BOB)
        assert v <= 3

    def test_cartesian_bob_bound(self):
        fg = cartesian_grid(2, 4)
        bob = builtin_strategy("cartesian_bob", fg)
        v = verify_strategy_exhaustive(fg.graph, PLAIN, bob, Player.BOB)
        assert v <= 4

    def test_king_mirror_exact(self):
        for m in (3, 4):
            fg = king_grid_2rows(m)
            alice = builtin_strategy("king_mirror_alice", fg)
            assert verify_strategy_exhaustive(fg.graph, PLAIN, alice,
                                              Player.ALICE) == m

    def test_spider_exhaust_bob_cap(self):
        fg = spider("matched", 4)
        bob = builtin_strategy("spider_exhaust_bob", fg)
        v = verify_strategy_exhaustive(fg.graph, PLAIN, bob, Player.BOB)
        assert v <= 3

    def test_spider_exhaust_alice_floor(self):
        fg = spider("matched", 3, r_size=1)
        alice = builtin_strategy("spider_exhaust_alice", fg)
        v = verify_strategy_exhaustive(fg.graph, PLAIN, alice, Player.ALICE)
        assert v >= 3

    def test_strategy_side_sandwich(self):
        # every Alice strategy lower-bounds the value, every Bob one upper-bounds
        fg = king_grid_2rows(4)
        value = cg(fg.graph).value
        alice = builtin_strategy("king_mirror_alice", fg)
        assert verify_strategy_exhaustive(fg.graph, PLAIN, alice,
                                          Player.ALICE) <= value
        fg2 = clique_chain(3, 2)
        value2 = cg(fg2.graph).value
        bob = builtin_strategy("clique_chain_bob", fg2)
        assert verify_strategy_exhaustive(fg2.graph, PLAIN, bob,
                                          Player.BOB) >= value2


class TestSuitableMatchings:
    def test_k4_has_none(self):
        assert find_suitable_matching(complete(4)) is None

    @pytest.mark.parametrize("g,spent", [(complete(4), 7), (petersen(), 511)],
                             ids=["k4", "petersen"])
    def test_each_bipartition_charges_one_state(self, g, spent):
        # neither graph has a suitable matching, so every one of the
        # 2^(n-1) - 1 bipartitions is examined
        budget = Budget(spent)
        assert find_suitable_matching(g, budget) is None
        assert budget.spent == spent
        with pytest.raises(BudgetExceededError):
            find_suitable_matching(g, Budget(spent - 1))

    def test_non_cubic_rejected(self):
        with pytest.raises(ValueError):
            find_suitable_matching(cycle(5))

    def test_disconnected_rejected(self):
        g = Graph.from_edges(8, complete(4).edges()
                             + [(4 + u, 4 + v) for u, v in complete(4).edges()])
        with pytest.raises(ValueError):
            find_suitable_matching(g)

    def test_found_matchings_are_suitable(self):
        rng = random.Random(3)
        from lcsgame.graphs import components_within
        checked = 0
        while checked < 3:
            g = random_cubic(10, rng)
            m = find_suitable_matching(g)
            if m is None:
                continue
            checked += 1
            adj = list(g.adj)
            for u, v in m.pairs:
                adj[u] &= ~(1 << v)
                adj[v] &= ~(1 << u)
            comps = components_within(tuple(adj), g.full_mask)
            assert len(comps) == 2
            for comp in comps:
                degs = [(adj[v] & comp).bit_count() for v in range(g.n)
                        if comp >> v & 1]
                assert min(degs) >= 2 and max(degs) == 3

    def test_large_cubic_always_admits_one(self):
        rng = random.Random(9)
        g = random_cubic(18, rng)
        assert find_suitable_matching(g) is not None

    def test_cubic_bob_disconnects(self):
        rng = random.Random(4)
        while True:
            g = random_cubic(10, rng)
            m = find_suitable_matching(g)
            if m is not None:
                break
        bob = CubicBob(g, m)
        v = verify_strategy_exhaustive(g, PLAIN, bob, Player.BOB)
        assert v < (g.n + 1) // 2

    def test_cubic_bob_rejects_bad_matching(self):
        g = complete(4)
        with pytest.raises(ValueError):
            CubicBob(g, Matching.of(g, [(0, 1)]))


class TestCubicBobChoiceFreedom:
    def test_guarantee_holds_under_both_exterior_orders(self):
        # the committed side's exterior order is a free choice in the
        # disconnection argument; both resolutions must force a split.  On
        # the copy of g with reversed labels (v -> n-1-v), Bob's lowest-first
        # order is g's highest-first order
        rng = random.Random(21)
        while True:
            g = random_cubic(10, rng)
            m = find_suitable_matching(g)
            if m is not None:
                break
        flip = g.n - 1
        g_rev = Graph.from_edges(g.n, [(flip - u, flip - v) for u, v in g.edges()])
        m_rev = Matching.of(g_rev, [(flip - u, flip - v) for u, v in m.pairs])
        for h, matching in ((g, m), (g_rev, m_rev)):
            v = verify_strategy_exhaustive(h, PLAIN, CubicBob(h, matching), Player.BOB)
            assert v < (g.n + 1) // 2


class TestSpiderExhaustFlavours:
    def test_antimatched_pair_supported_via_adjacency(self):
        fg = spider("antimatched", 2, r_size=1)
        bob = builtin_strategy("spider_exhaust_bob", fg)
        v = verify_strategy_exhaustive(fg.graph, PLAIN, bob, Player.BOB)
        assert v <= cg(fg.graph).value

    def test_wide_antimatched_refused(self):
        fg = spider("antimatched", 3)
        with pytest.raises(ValueError, match="matched spider"):
            builtin_strategy("spider_exhaust_bob", fg)
