"""Exact solver: values, invariants, head analysis, strategy extraction."""

from __future__ import annotations

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcsgame.engine import (
    CONNECTED,
    PLAIN,
    AndOrSearch,
    Budget,
    BudgetExceededError,
    GameConfig,
    InternalError,
    Player,
    SkipBudget,
    TargetSet,
    apply_move,
    legal_moves,
    play_match,
    score,
    verify_strategy_exhaustive,
)
from lcsgame.generators import (
    cartesian_grid,
    complete_bipartite,
    king_grid_2rows,
    random_connected_gnm,
)
from lcsgame.graphs import (
    CapacityError,
    Graph,
    components,
    delete_edge,
    delete_vertices,
    induced,
    largest_component_order,
    mask_of,
)
from lcsgame import solver
from lcsgame.solver import (
    _SYMMETRY_MAPS,
    _automorphism_masks,
    _better_moves,
    _CompoundSkipGame,
    _Core,
    analyze_head,
    can_force_cds_within,
    cg,
    is_a_perfect,
)

from oracles import naive_cg, naive_cg_connected, naive_cg_target, naive_value


def cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def complete(n):
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def king2(m):
    edges = []
    for j in range(m):
        edges.append((2 * j, 2 * j + 1))
        if j + 1 < m:
            for a in (0, 1):
                for b in (0, 1):
                    edges.append((2 * j + a, 2 * (j + 1) + b))
    return Graph.from_edges(2 * m, edges)


class TestKnownValues:
    def test_c5(self):
        assert cg(cycle(5)).value == 2

    def test_k5_a_perfect(self):
        assert cg(complete(5)).value == 3

    def test_three_k5_copies(self):
        g = Graph.from_edges(15, [(5 * a + i, 5 * a + j) for a in range(3)
                                  for i in range(5) for j in range(i + 1, 5)])
        assert cg(g).value == 3

    def test_king_grid_p2xp4(self):
        assert cg(king2(4)).value == 4

    def test_connected_king_grid_p2xp6(self):
        res = cg(king2(6), CONNECTED)
        assert res.value <= 6

    def test_single_vertex_and_empty(self):
        assert cg(Graph.from_edges(1, [])).value == 1
        assert cg(Graph.from_edges(0, [])).value == 0

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            cg(Graph.from_edges(65, []))

    def test_budget_error_distinct(self):
        with pytest.raises(BudgetExceededError):
            cg(cycle(10), max_states=2)

    def test_state_budget_covers_all_components(self):
        grid = cartesian_grid(2, 5).graph
        one = cg(grid).states_expanded
        twice = Graph.from_edges(20, grid.edges() + [(u + 10, v + 10)
                                                     for u, v in grid.edges()])
        assert cg(twice, max_states=2 * one).states_expanded == 2 * one
        with pytest.raises(BudgetExceededError):
            cg(twice, max_states=one + 10)


class TestBudget:
    """One ``Budget`` is charged by every search that shares it."""

    @staticmethod
    def _chain_expand(pos):
        # an OR root over 3000 OR nodes, each with one losing child: every
        # one of the 3001 non-terminal positions is expanded
        if pos == "lose":
            return False
        if pos == "root":
            return True, ((i, i) for i in range(3000))
        return True, ((0, "lose"),)

    def test_shared_by_cores_and_and_or_search(self):
        searches = (lambda b: _Core(cycle(8), PLAIN, budget=b).exact(0, 0),
                    lambda b: _Core(path(7), CONNECTED, budget=b).exact(0, 0),
                    lambda b: AndOrSearch(self._chain_expand, b).wins("root"))
        counts = []
        for search in searches:
            budget = Budget(10**9)
            search(budget)
            counts.append(budget.spent)
        assert min(counts) > 0
        budget = Budget(sum(counts))
        for search in searches:
            search(budget)
        assert budget.spent == sum(counts)
        budget = Budget(sum(counts) - 1)
        searches[0](budget)
        searches[1](budget)
        with pytest.raises(BudgetExceededError, match="states expanded"):
            searches[2](budget)

    def test_time_limit_read_every_2048_states(self):
        with pytest.raises(BudgetExceededError, match="time limit"):
            AndOrSearch(self._chain_expand, Budget(10**9, time_limit=0)).wins("root")
        budget = Budget(10**9, time_limit=0)
        for _ in range(2047):
            budget.tick()
        with pytest.raises(BudgetExceededError, match="time limit"):
            budget.tick()

    def test_clock_rearmed_after_each_check(self):
        # the 3x5 grid takes more than 2048 states, so a generous deadline
        # is read and re-armed several times without changing the solve
        g = cartesian_grid(3, 5).graph
        timed, untimed = cg(g, time_limit=60), cg(g)
        assert timed.states_expanded > 2 * 2048
        assert (timed.value, timed.states_expanded) == \
            (untimed.value, untimed.states_expanded)

    @pytest.mark.parametrize("limits", [{"max_states": -5},
                                        {"max_states": math.nan},
                                        {"time_limit": -1.0},
                                        {"time_limit": math.nan}])
    def test_negative_or_nan_limit_rejected(self, limits):
        with pytest.raises(ValueError, match="must be >= 0"):
            cg(path(3), **limits)

    def test_zero_and_infinite_limits_valid(self):
        assert cg(path(3), max_states=math.inf, time_limit=0.0).value == 2
        with pytest.raises(BudgetExceededError):
            cg(path(3), max_states=0)


class TestMoveOrder:
    def test_degree_order_cuts_the_3x5_grid(self):
        # both players try high-degree vertices first: 20 571 states, against
        # 83 424 when the moves were walked by vertex index
        assert cg(cartesian_grid(3, 5).graph).states_expanded <= 25_000

    def test_follow_bound_and_bob_killer_cut_gnm_18_36(self):
        # the third seeded G(18, 36): 7 273 states, and 15 393 without the
        # follow bound and Bob's killer slot
        rng = random.Random(1)
        for _ in range(3):
            g = random_connected_gnm(18, 36, rng)
        res = cg(g)
        assert res.value == 9 and res.states_expanded <= 10_000


class TestFollowBound:
    def test_settles_a_split_path_without_search(self):
        # P9 with red {0} and blue {4}: G - blue is 0-1-2-3 (one red, three
        # free) and 5-6-7-8 (four free).  Bob answering each Alice move in
        # the same part holds them to 1 + 2 and 0 + 2, so the probe "at
        # least 4?" fails on the static bound.  Capped by Alice's four
        # remaining moves alone, each part allows 4 and the probe expands
        # 18 states.
        core = _Core(path(9), PLAIN)
        reach, lc = core._red_summary(1)
        assert core.search(1, 1 << 4, 0, 0, 4, reach, lc) <= 3
        assert core.budget.spent == 0


class TestNaiveOracleEquivalence:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_plain_matches_naive(self, data):
        n = data.draw(st.integers(min_value=1, max_value=6))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        g = Graph.from_edges(n, edges)
        assert cg(g).value == naive_cg(g)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_connected_matches_naive(self, data):
        n = data.draw(st.integers(min_value=1, max_value=6))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        g = Graph.from_edges(n, edges)
        assert cg(g, CONNECTED).value == naive_cg_connected(g)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_target_matches_naive(self, data):
        n = data.draw(st.integers(min_value=1, max_value=5))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        g = Graph.from_edges(n, edges)
        x = data.draw(st.integers(min_value=0, max_value=g.full_mask))
        x_set = {v for v in range(n) if x >> v & 1}
        assert cg(g, TargetSet(x)).value == naive_cg_target(g, x_set)


class TestStructuralInvariants:
    def test_bounds_small_connected(self):
        rng = random.Random(11)
        for _ in range(40):
            n = rng.randint(2, 10)
            g = random_connected_gnm(n, rng.randint(n - 1, n * (n - 1) // 2), rng)
            v = cg(g).value
            assert g.max_degree // 2 + 1 <= v <= (g.n + 1) // 2

    def test_monotone_under_vertex_deletion(self):
        rng = random.Random(12)
        for _ in range(15):
            n = rng.randint(3, 9)
            g = random_connected_gnm(n, rng.randint(n - 1, n * (n - 1) // 2), rng)
            base = cg(g).value
            v = rng.randrange(n)
            assert cg(delete_vertices(g, 1 << v)).value <= base

    def test_monotone_under_edge_deletion(self):
        rng = random.Random(13)
        for _ in range(15):
            n = rng.randint(3, 9)
            g = random_connected_gnm(n, rng.randint(n, n * (n - 1) // 2), rng)
            base = cg(g).value
            u, w = g.edges()[rng.randrange(g.edge_count)]
            assert cg(delete_edge(g, u, w)).value <= base

    def test_component_rule(self):
        rng = random.Random(14)
        for _ in range(15):
            n = rng.randint(4, 12)
            m = rng.randint(0, max(0, n * (n - 1) // 2 - 2 * n))
            all_edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
            g = Graph.from_edges(n, rng.sample(all_edges, min(m, len(all_edges))))
            whole = _Core(g, PLAIN).exact(0, 0)
            split = cg(g).value
            per_comp = max(cg(induced(g, c)[0]).value for c in components(g))
            assert whole == split == per_comp

    def test_disconnected_a_perfect_structure(self):
        # every disconnected A-perfect graph found: even order, two
        # components, one a singleton
        rng = random.Random(15)
        found = 0
        for _ in range(300):
            n = rng.randint(2, 9)
            all_edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
            m = rng.randint(0, len(all_edges))
            g = Graph.from_edges(n, rng.sample(all_edges, m))
            comps = components(g)
            if len(comps) < 2:
                continue
            if is_a_perfect(g):
                found += 1
                assert g.n % 2 == 0
                assert len(comps) == 2
                assert min(c.bit_count() for c in comps) == 1
        assert found > 0

    def test_connected_variant_dominated_by_plain(self):
        rng = random.Random(16)
        for _ in range(25):
            n = rng.randint(2, 9)
            g = random_connected_gnm(n, rng.randint(n - 1, n * (n - 1) // 2), rng)
            assert cg(g, CONNECTED).value <= cg(g).value


class TestAPerfect:
    def test_subdivided_star(self):
        g = Graph.from_edges(6, [(0, 2), (0, 3), (0, 4), (0, 5), (5, 1)])
        assert is_a_perfect(g)

    def test_two_cliques_joined_by_edge(self):
        edges = [(i, j) for i in range(3) for j in range(i + 1, 3)]
        edges += [(3 + i, 3 + j) for i in range(3) for j in range(i + 1, 3)]
        edges.append((0, 3))
        assert not is_a_perfect(Graph.from_edges(6, edges))

    def test_triangle_plus_isolated_vertex(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (0, 2)])
        assert is_a_perfect(g)

    def test_matches_the_value(self):
        rng = random.Random(19)
        disconnected = 0
        for _ in range(60):
            n = rng.randint(1, 9)
            all_edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
            g = Graph.from_edges(n, rng.sample(all_edges,
                                               rng.randint(0, len(all_edges))))
            disconnected += len(components(g)) > 1
            assert is_a_perfect(g) == (cg(g).value == (n + 1) // 2), g.edges()
        for _ in range(20):
            n = rng.randint(4, 10)
            m = rng.randint(n - 1, min(2 * n, n * (n - 1) // 2))
            g = random_connected_gnm(n, m, rng)
            assert is_a_perfect(g) == (cg(g).value == (n + 1) // 2), g.edges()
        assert disconnected

    def test_keeps_the_state_budget(self):
        with pytest.raises(BudgetExceededError):
            is_a_perfect(cycle(8), max_states=1)


class TestForcingCds:
    def test_k5_one_round(self):
        assert can_force_cds_within(complete(5), 1)

    def test_p5_needs_more_than_one(self):
        assert not can_force_cds_within(path(5), 1)

    def test_dense_graph_four_rounds(self):
        rng = random.Random(17)
        for _ in range(10):
            n = 8
            m = rng.randint((6 * 5) // 2 + 3, n * (n - 1) // 2)
            g = random_connected_gnm(n, m, rng)
            assert can_force_cds_within(g, 4)

    def test_cds_forcing_implies_a_perfect(self):
        rng = random.Random(18)
        for _ in range(25):
            n = rng.randint(2, 9)
            g = random_connected_gnm(n, rng.randint(n - 1, n * (n - 1) // 2), rng)
            for r in range(1, (n + 1) // 2 + 1):
                if can_force_cds_within(g, r):
                    assert is_a_perfect(g)
                    break

    def test_r_validation(self):
        with pytest.raises(ValueError):
            can_force_cds_within(path(3), 0)


class TestHeadAnalysis:
    def test_k2_both_targets(self):
        h = analyze_head(Graph.from_edges(2, [(0, 1)]), 0b11)
        assert h.c_star == 1

    def test_single_vertex(self):
        h = analyze_head(Graph.from_edges(1, []), 0b1)
        assert h.c_star == 1
        assert h.mode == "hold"

    def test_every_small_head_has_a_valid_mode(self):
        # analyze_head raises InternalError when neither compound skip
        # strategy exists and the holding game fails
        for hn in (1, 2, 3):
            pairs = list(itertools.combinations(range(hn), 2))
            for em in range(1 << len(pairs)):
                edges = [e for i, e in enumerate(pairs) if em >> i & 1]
                g = Graph.from_edges(hn, edges)
                for km in range(1, 1 << hn):
                    h = analyze_head(g, km)
                    assert h.mode in ("sa2", "sb2", "hold")
                    assert (h._game is None) == (h.mode == "sb2")

    def test_head_without_a_mode_raises(self, monkeypatch):
        # every compound-skip game lost: no compound skip strategy and no
        # holding play, so no mode applies and the analysis must not guess
        monkeypatch.setattr(_CompoundSkipGame, "_terminal_win",
                            lambda self, *pos: False)
        with pytest.raises(InternalError, match="holding strategy fails"):
            analyze_head(Graph.from_edges(1, []), 0b1)

    def test_compound_skip_searches_keep_the_state_budget(self):
        # the compound-skip searches draw on max_states after the target-set
        # solve: a budget that covers the solve alone runs out in them
        g3 = Graph.from_edges(3, [(0, 1), (1, 2)])
        solve = cg(g3, TargetSet(0b010)).states_expanded
        need = analyze_head(g3, 0b010).states_expanded
        assert solve < need
        assert analyze_head(g3, 0b010, max_states=need).states_expanded == need
        with pytest.raises(BudgetExceededError):
            analyze_head(g3, 0b010, max_states=need - 1)

    def test_compound_skip_searches_keep_the_time_limit(self):
        # the target-set solve expands fewer than the 2048 states between
        # clock reads, the whole analysis more: a spent time limit stops
        # the compound-skip searches
        g = path(9)
        assert cg(g, TargetSet(0b1)).states_expanded < 2048
        assert analyze_head(g, 0b1).states_expanded > 2048
        with pytest.raises(BudgetExceededError, match="time limit"):
            analyze_head(g, 0b1, time_limit=0)

    def test_target_outside_head_rejected(self):
        with pytest.raises(ValueError):
            analyze_head(Graph.from_edges(1, []), 0b10)


class TestResultArtifacts:
    def test_pv_replays_to_value(self):
        for g in (cycle(5), complete(5), king2(3), path(6)):
            res = cg(g)
            cfg = GameConfig()
            for move in res.principal_variation:
                cfg = apply_move(cfg, cfg.mover(), move)
            assert score(g, PLAIN, cfg.red) == res.value

    def test_pv_starts_at_initial_position(self):
        g = path(6)
        initial = GameConfig(red=0b1, blue=0b10)
        res = cg(g, initial=initial)
        cfg = initial
        for move in res.principal_variation:
            cfg = apply_move(cfg, cfg.mover(), move)
        assert cfg.colored == g.full_mask
        assert score(g, PLAIN, cfg.red) == res.value

    def test_pv_on_disconnected_graph_covers_decisive_component(self):
        g = Graph.from_edges(7, [(0, 1), (1, 2), (0, 2),
                                 (3, 4), (4, 5), (5, 6), (6, 3)])
        res = cg(g)
        cfg = GameConfig()
        for move in res.principal_variation:
            cfg = apply_move(cfg, cfg.mover(), move)
        assert score(g, PLAIN, cfg.red) == res.value == 2

    def test_extracted_strategies_are_optimal(self):
        for g in (cycle(5), complete(4), king2(3)):
            res = cg(g)
            alice = res.alice_strategy()
            bob = res.bob_strategy()
            assert verify_strategy_exhaustive(g, PLAIN, alice,
                                              Player.ALICE) == res.value
            assert verify_strategy_exhaustive(g, PLAIN, bob,
                                              Player.BOB) == res.value
            trace = play_match(g, PLAIN, alice, bob)
            assert trace.score == res.value

    def test_states_expanded_positive(self):
        assert cg(cycle(5)).states_expanded > 0

    def test_skip_variant_solvable(self):
        g = complete(3)
        res = cg(g, SkipBudget(1, 1, g.full_mask))
        assert 0 <= res.value <= 3


class TestConsistencyKnobs:
    def test_pruned_equals_unpruned(self):
        rng = random.Random(19)
        for _ in range(20):
            n = rng.randint(2, 8)
            all_edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
            g = Graph.from_edges(n, rng.sample(all_edges,
                                               rng.randint(0, len(all_edges))))
            assert cg(g, use_pruning=True).value == cg(g, use_pruning=False).value

    def test_initial_position_solving(self):
        g = complete(4)
        res = cg(g, initial=GameConfig(red=1, blue=2))
        assert res.value == 2

    def test_unreachable_turn_order_rejected(self):
        # two blue vertices against one red: Bob would have moved twice in a
        # row, which alternating play never gives; the pruned search read 2
        # here and the unpruned one 1
        g = Graph.from_edges(6, [(0, 2), (0, 5), (2, 3), (2, 5), (4, 5)])
        initial = GameConfig(red=0b100, blue=0b11)
        for pruning in (True, False):
            with pytest.raises(ValueError, match="turn"):
                cg(g, initial=initial, use_pruning=pruning)
        for cfg in (GameConfig(red=0b11), GameConfig(blue=0b1),
                    GameConfig(red=0b1, alice_skips_used=1),
                    GameConfig(blue=0b1, bob_skips_used=1)):
            with pytest.raises(ValueError, match="turn"):
                cfg.check(g)

    def test_reachable_mid_game_positions_accepted(self):
        g = Graph.from_edges(6, [(0, 2), (0, 5), (2, 3), (2, 5), (4, 5)])
        variant = SkipBudget(1, 1, g.full_mask)
        for initial, v in ((GameConfig(red=0b100, blue=0b1), PLAIN),  # Alice to move
                           (GameConfig(red=0b10100, blue=0b1), PLAIN),  # Bob to move
                           (GameConfig(red=0b100, blue=0b1, alice_skips_used=1,
                                       bob_skips_used=1), variant),
                           (GameConfig(red=0b100, bob_skips_used=1), variant)):
            assert cg(g, v, initial=initial).value == \
                cg(g, v, initial=initial, use_pruning=False).value


def _cotree(n, rng):
    """A seeded cograph: vertex groups merged pairwise by disjoint union or
    by join until one group is left."""
    groups = [[v] for v in range(n)]
    edges = []
    while len(groups) > 1:
        a = groups.pop(rng.randrange(len(groups)))
        b = groups.pop(rng.randrange(len(groups)))
        if rng.random() < 0.5:
            edges += [(u, w) for u in a for w in b]
        groups.append(a + b)
    return Graph.from_edges(n, edges)


TWIN_RICH = ["complete", "bipartite", "star", "king", "cotree", "dense"]


def _twin_rich(family, rng):
    """Dense and twin-rich graphs on at most 7 vertices."""
    if family == "complete":
        return complete(rng.randint(5, 7))
    if family == "bipartite":
        a = rng.randint(2, 3)
        return complete_bipartite(a, rng.randint(a, 7 - a)).graph
    if family == "star":
        return complete_bipartite(1, rng.randint(4, 6)).graph
    if family == "king":
        return king2(3)
    if family == "cotree":
        return _cotree(rng.randint(5, 7), rng)
    n = rng.randint(5, 7)
    pairs = n * (n - 1) // 2
    return random_connected_gnm(n, rng.randint(-(-6 * pairs // 10), pairs), rng)


def _cutoff_margin(g, cfg):
    """For a connected non-empty red set, k - (2 * fa - alice), where k counts
    the uncoloured neighbours of red and fa Alice's remaining moves; None
    when red is empty or disconnected."""
    red = cfg.red
    if not red or largest_component_order(g.adj, red) != red.bit_count():
        return None
    uncolored = g.full_mask & ~(red | cfg.blue)
    u = uncolored.bit_count()
    alice = cfg.mover() is Player.ALICE
    fa = (u + 1) // 2 if alice else u // 2
    return (g.neighborhood(red) & uncolored).bit_count() - (2 * fa - alice)


def _neighbour_count_bound(g, cfg):
    """rc + (k + alice) // 2 for a connected non-empty red set: Alice can
    keep taking uncoloured neighbours of red that many times."""
    uncolored = g.full_mask & ~(cfg.red | cfg.blue)
    alice = cfg.mover() is Player.ALICE
    k = (g.neighborhood(cfg.red) & uncolored).bit_count()
    return cfg.red.bit_count() + (k + alice) // 2


SYMMETRIC = {
    **{f"C{n}": (lambda n=n: cycle(n)) for n in (5, 6, 7)},
    **{f"P{n}": (lambda n=n: path(n)) for n in (5, 6, 7)},
    **{f"grid{r}x{c}": (lambda r=r, c=c: cartesian_grid(r, c).graph)
       for r, c in ((2, 3), (3, 3), (2, 4))},
    "king2x3": lambda: king2(3),
}


class TestSharedCoreQueries:
    """``exact`` from every reachable position, asked in a shuffled order on
    one pruned core, as ``OptimalStrategy`` and a pseudo-spider head ask it:
    the entries earlier probes left behind, with their bound flags, and the
    memoised ``lc`` growth must give the same values as an unpruned
    search."""

    @staticmethod
    def _reachable(g, variant):
        seen = {GameConfig()}
        stack = [GameConfig()]
        while stack:
            cfg = stack.pop()
            for move in legal_moves(g, variant, cfg):
                nxt = apply_move(cfg, cfg.mover(), move)
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return sorted(seen, key=lambda c: (c.red, c.blue, c.alice_skips_used,
                                           c.bob_skips_used))

    def _check_every_position(self, g, kind, rng, symmetric=False):
        x = rng.randrange(1, 1 << g.n)
        if symmetric:
            # a degree class is a union of orbits, so every automorphism of G
            # keeps membership in it
            degree = g.adj[rng.randrange(g.n)].bit_count()
            x = mask_of(v for v in range(g.n) if g.adj[v].bit_count() == degree)
        variant = {"plain": PLAIN, "connected": CONNECTED, "target": TargetSet(x),
                   "skip11": SkipBudget(1, 1, x), "skip10": SkipBudget(1, 0, x)}[kind]
        positions = self._reachable(g, variant)
        rng.shuffle(positions)
        pruned = _Core(g, variant)
        if symmetric:
            # installed before the first probe: the lazy trigger would not
            # fire on searches this small
            pruned._syms = _automorphism_masks(g, pruned.x)
            assert pruned._syms
        reference = _Core(g, variant, use_pruning=False)
        for cfg in positions:
            pos = (cfg.red, cfg.blue, cfg.alice_skips_used, cfg.bob_skips_used)
            assert pruned.exact(*pos) == reference.search_plain(*pos), (g.edges(), cfg)

    @pytest.mark.parametrize("kind", ["plain", "connected", "target",
                                      "skip11", "skip10"])
    @pytest.mark.parametrize("seed", range(4))
    def test_any_position_matches_unpruned(self, kind, seed):
        rng = random.Random(f"{kind}/{seed}")
        n = rng.randint(5, 7)
        g = random_connected_gnm(n, rng.randint(n - 1, n + 2), rng)
        self._check_every_position(g, kind, rng)

    @pytest.mark.parametrize("kind", ["plain", "connected", "target",
                                      "skip11", "skip10"])
    @pytest.mark.parametrize("family", TWIN_RICH)
    def test_twin_rich_position_matches_unpruned(self, kind, family):
        # dense and twin-rich graphs, where the counting cutoff and the twin
        # move skip do most of the pruning
        rng = random.Random(f"{family}/{kind}")
        self._check_every_position(_twin_rich(family, rng), kind, rng)

    @pytest.mark.parametrize("kind", ["plain", "connected", "target",
                                      "skip11", "skip10"])
    @pytest.mark.parametrize("name", list(SYMMETRIC))
    def test_symmetric_position_matches_unpruned(self, kind, name):
        # the symmetric move skip, with the core's automorphisms in place
        # from the first probe on
        rng = random.Random(f"{name}/{kind}")
        self._check_every_position(SYMMETRIC[name](), kind, rng, symmetric=True)

    @pytest.mark.parametrize("variant", [PLAIN, CONNECTED], ids=["plain", "connected"])
    def test_cutoff_boundary(self, variant):
        # at k = 2 * fa - alice a fresh core settles the position without
        # expanding it; one below, the value still matches the reference.
        # Below the cutoff, a null-window probe at the neighbour-count bound
        # rc + (k + alice) // 2 settles without expanding the position too.
        seen = {0: 0, -1: 0}
        probes = 0
        for family in TWIN_RICH:
            for seed in range(3):
                g = _twin_rich(family, random.Random(f"{family}/{seed}"))
                reference = _Core(g, variant, use_pruning=False)
                for cfg in self._reachable(g, variant):
                    margin = _cutoff_margin(g, cfg)
                    pos = (cfg.red, cfg.blue, 0, 0)
                    if margin is not None and margin < 0:
                        fresh = _Core(g, variant)
                        t = _neighbour_count_bound(g, cfg)
                        reach, lc = fresh._red_summary(cfg.red)
                        assert fresh.search(*pos, t, reach, lc) >= t, \
                            (g.edges(), cfg)
                        assert fresh.budget.spent == 0, (g.edges(), cfg)
                        assert reference.search_plain(*pos) >= t, (g.edges(), cfg)
                        probes += 1
                    if margin not in seen:
                        continue
                    seen[margin] += 1
                    fresh = _Core(g, variant)
                    assert fresh.exact(*pos) == reference.search_plain(*pos), \
                        (g.edges(), cfg)
                    if margin == 0:
                        assert fresh.budget.spent == 0, (g.edges(), cfg)
        assert seen[0] and seen[-1] and probes

    def test_connected_alice_keeps_moves_into_dead_components(self):
        # red {0} and {2, 3} are apart, as only a given initial position has
        # them: 0's component {0, 1} cannot beat lc = 2, yet 1 is Connected
        # Alice's only legal move, and the path 4..7 is live
        g = Graph.from_edges(11, [(0, 1), (1, 8), (2, 3), (3, 9), (9, 4), (4, 5),
                                  (5, 6), (6, 7), (7, 10)])
        cfg = GameConfig(red=0b1101, blue=0b111 << 8)
        assert cg(g, CONNECTED, initial=cfg).value == 2


class TestTwinClasses:
    # the better-move table with its strict entries off holds the lower twins
    def test_false_twins_and_target_membership(self):
        star = complete_bipartite(1, 3).graph
        # leaves 1, 2, 3 share the open neighbourhood {0}
        assert _better_moves(star.adj, 0, False) == ((0b100, 0b10), (0b1000, 0b110))
        # leaf 2 is in x, leaves 1 and 3 are not
        assert _better_moves(star.adj, 0b101, False) == ((0b1000, 0b10),)

    def test_true_twins(self):
        # each column of the two-row king's grid shares a closed neighbourhood
        assert _better_moves(king2(3).adj, 0, False) == ((0b10, 0b1), (0b1000, 0b100),
                                                         (0b100000, 0b10000))


class TestBetterMoves:
    def test_centre_of_star_dominates_every_leaf(self):
        star = complete_bipartite(1, 3).graph
        # each leaf: the centre, then its lower twins
        assert _better_moves(star.adj, 0, True) == ((0b10, 0b1), (0b100, 0b11),
                                                    (0b1000, 0b111))

    def test_target_set_membership_is_one_way(self):
        star = complete_bipartite(1, 3).graph
        table = dict(_better_moves(star.adj, 0b101, True))
        # leaf 2 is in x and leaf 1 is not: 2 dominates 1, not the other way
        assert table[0b10] & 0b100
        assert not table[0b100] & 0b10
        assert table == {0b10: 0b101, 0b100: 0b1, 0b1000: 0b111}

    def test_grid_corner_has_the_diagonal_vertex_as_dominator(self):
        # 0's neighbours 1 and 5 are both neighbours of 6
        table = dict(_better_moves(cartesian_grid(3, 5).graph.adj, 0, True))
        assert table[0b1] == 1 << 6

    def test_connected_core_keeps_twins_only(self):
        # the corners of the 2x4 grid have dominators and no twins
        g = cartesian_grid(2, 4).graph
        twins = _better_moves(g.adj, 0, False)
        assert twins == () and _better_moves(g.adj, 0, True)
        core = _Core(g, CONNECTED)
        core.exact(0, 0)
        assert core.budget.spent > 1 and core._better == twins
        core = _Core(g, PLAIN)
        core.exact(0, 0)
        assert core._better == _better_moves(g.adj, 0, True)

    def test_one_state_solve_builds_no_table(self):
        res = cg(path(3))
        assert res.states_expanded == 1 and res._core._better is None
        res = cg(cycle(6))
        assert res.states_expanded > 1 and res._core._better is not None

    def test_small_graphs_match_naive(self):
        # every labelled graph with n <= 4 under all five variants, with the
        # table built after each core's first expanded state: every value and
        # principal variation must hold
        strict = 0
        for n in range(1, 5):
            pairs = list(itertools.combinations(range(n), 2))
            for em in range(1 << len(pairs)):
                g = Graph.from_edges(n, [e for i, e in enumerate(pairs) if em >> i & 1])
                variants = [PLAIN, CONNECTED]
                for x in range(1 << n):
                    variants += [TargetSet(x), SkipBudget(1, 1, x), SkipBudget(1, 0, x)]
                for variant in variants:
                    res = cg(g, variant)
                    assert res.value == naive_value(g, variant), (g.edges(), variant)
                    cfg = GameConfig()
                    for move in res.principal_variation:
                        cfg = apply_move(cfg, cfg.mover(), move)
                    assert score(g, variant, cfg.red) == res.value, (g.edges(), variant)
                    core = res._core
                    strict += bool(core._better) and \
                        core._better != _better_moves(core.adj, core.x, False)
        assert strict > 0


class TestAutomorphismMasks:
    def test_grid_3x5_has_three_maps(self):
        # the two mirror images and the half turn
        assert len(_automorphism_masks(cartesian_grid(3, 5).graph)) == 3

    @pytest.mark.parametrize("cols", [3, 5, 6])
    def test_king_grid_only_the_left_right_flip(self, cols):
        # swapping the rows is the twin swap of every column, so the one map
        # is the flip that keeps each column's top vertex on top
        ((fixed, down),) = _automorphism_masks(king_grid_2rows(cols).graph)
        image = [2 * (cols - 1 - v // 2) + v % 2 for v in range(2 * cols)]
        assert fixed == mask_of(v for v in range(2 * cols) if image[v] == v)
        assert down == mask_of(v for v in range(2 * cols) if image[v] < v)

    def test_asymmetric_graph_has_none(self):
        # the spider with legs of lengths 1, 2 and 3
        spider = Graph.from_edges(7, [(0, 1), (0, 2), (2, 3), (0, 4), (4, 5), (5, 6)])
        assert _automorphism_masks(spider) == ()

    def test_x_that_breaks_the_symmetry_has_none(self):
        # only the identity fixes a corner of the 3x5 grid
        assert _automorphism_masks(cartesian_grid(3, 5).graph, x=1) == ()

    def test_huge_group_stops_at_its_bound(self):
        # 12 disjoint triangles: 12! maps even after the twin swaps
        triangles = Graph.from_edges(36, [(3 * i + a, 3 * i + b) for i in range(12)
                                          for a, b in ((0, 1), (0, 2), (1, 2))])
        maps = _automorphism_masks(triangles)
        assert len(maps) == _SYMMETRY_MAPS
        for fixed, down in maps:
            # each triangle stays in order and moves as a whole
            for i in range(12):
                tri = 0b111 << 3 * i
                assert fixed & tri in (0, tri) and down & tri in (0, tri)


class TestSymmetricMoveSkip:
    def test_small_graphs_match_naive_with_maps_after_the_first_probe(self, monkeypatch):
        # no small solve reaches the _SYMMETRY_AFTER states after which a
        # core installs its automorphisms; with the threshold at 0 every core
        # installs them after its first failed probe, and every value and
        # principal variation must still hold
        monkeypatch.setattr(solver, "_SYMMETRY_AFTER", 0)
        with_maps = 0
        for n in range(1, 6):
            pairs = list(itertools.combinations(range(n), 2))
            for em in range(1 << len(pairs)):
                g = Graph.from_edges(n, [e for i, e in enumerate(pairs) if em >> i & 1])
                variants = [PLAIN, CONNECTED]
                if n <= 4:
                    for x in range(1 << n):
                        variants += [TargetSet(x), SkipBudget(1, 1, x),
                                     SkipBudget(1, 0, x)]
                for variant in variants:
                    res = cg(g, variant)
                    assert res.value == naive_value(g, variant), (g.edges(), variant)
                    cfg = GameConfig()
                    for move in res.principal_variation:
                        cfg = apply_move(cfg, cfg.mover(), move)
                    assert score(g, variant, cfg.red) == res.value, (g.edges(), variant)
                    with_maps += bool(res._core._syms)
        assert with_maps > 0


class TestConnectedVariantEndings:
    def test_score_at_block_equals_board_filling_reading(self):
        # whether Bob keeps colouring after Alice is blocked cannot change
        # the value: his extra moves never touch the red set and Alice's
        # legal set only shrinks; checked against an oracle that fills the
        # board before scoring
        from functools import lru_cache
        rng = random.Random(23)
        for _ in range(15):
            n = rng.randint(2, 6)
            g = random_connected_gnm(n, rng.randint(n - 1, n * (n - 1) // 2), rng)
            adj = {v: {w for w in range(n) if g.adj[v] >> w & 1} for v in range(n)}
            everything = frozenset(range(n))

            @lru_cache(maxsize=None)
            def fill_value(red: frozenset, blue: frozenset, blocked: bool):
                free = everything - red - blue
                alice = (not blocked) and len(red) == len(blue)
                if alice:
                    moves = ({v for v in free if any(w in red for w in adj[v])}
                             if red else free)
                    if not moves:
                        # Alice blocked: Bob fills the rest, score unchanged
                        return fill_value(red, blue | free, True)
                    return max(fill_value(red | {v}, blue, False) for v in moves)
                if not free:
                    from oracles import naive_score_plain
                    return naive_score_plain(g, set(red))
                return min(fill_value(red, blue | {v}, blocked) for v in free)

            assert cg(g, CONNECTED).value == fill_value(frozenset(), frozenset(), False)
            fill_value.cache_clear()
