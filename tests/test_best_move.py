"""Move extraction: the null-window ``_Core.best_move`` against the unpruned
reference rule (the first legal move, by index with Pass last, whose
successor keeps the exact value)."""

from __future__ import annotations

import itertools
import random
from dataclasses import astuple

import pytest

from lcsgame.engine import (
    CONNECTED,
    PASS,
    PLAIN,
    GameConfig,
    Player,
    SkipBudget,
    TargetSet,
    apply_move,
    legal_moves,
)
from lcsgame.generators import cartesian_grid, king_grid_2rows, random_connected_gnm
from lcsgame.graphs import Graph, components, mask_of
from lcsgame.solver import _automorphism_masks, _Core, cg


def reference_move(core: _Core, cfg: GameConfig):
    """First value-keeping legal move, read off an unpruned core."""
    target = core.exact(*astuple(cfg))
    for move in legal_moves(core.g, core.variant, cfg):
        if core.exact(*astuple(apply_move(cfg, cfg.mover(), move))) == target:
            return move
    return None


def reference_pv(g: Graph, variant) -> list:
    core = _Core(g, variant, use_pruning=False)
    cfg, line = GameConfig(), []
    while (move := reference_move(core, cfg)) is not None:
        cfg = apply_move(cfg, cfg.mover(), move)
        line.append(move)
    return line


def random_position(g: Graph, variant, rng: random.Random) -> GameConfig:
    """A position reached by a random number of random legal moves."""
    cfg = GameConfig()
    for _ in range(rng.randrange(g.n)):
        legal = legal_moves(g, variant, cfg)
        if not legal:
            break
        cfg = apply_move(cfg, cfg.mover(), legal[rng.randrange(len(legal))])
    return cfg


class TestPrincipalVariation:
    def test_all_small_graphs_pruned_equals_unpruned(self):
        for n in range(1, 6):
            pairs = list(itertools.combinations(range(n), 2))
            for em in range(1 << len(pairs)):
                g = Graph.from_edges(n, [e for i, e in enumerate(pairs) if em >> i & 1])
                for variant in (PLAIN, CONNECTED):
                    pruned = cg(g, variant).principal_variation
                    plain = cg(g, variant, use_pruning=False).principal_variation
                    assert pruned == plain, (n, g.edges(), variant)
                    if len(components(g)) == 1:
                        assert pruned == reference_pv(g, variant), (g.edges(), variant)

    def test_target_and_skip_variants_match_reference(self):
        rng = random.Random(31)
        for _ in range(24):
            n = rng.randint(2, 8)
            g = random_connected_gnm(n, rng.randint(n - 1, n * (n - 1) // 2), rng)
            x = rng.randrange(1, 1 << n)
            for variant in (TargetSet(x), SkipBudget(1, 1, x), SkipBudget(1, 0, x)):
                assert cg(g, variant).principal_variation == reference_pv(g, variant), \
                    (g.edges(), variant)

    # lines recorded while the search still walked its moves by vertex
    # index: the search's move order must not move the line best_move picks
    @pytest.mark.parametrize("g, variant, line", [
        (cartesian_grid(3, 4).graph, PLAIN, [5, 1, 6, 4, 0, 2, 7, 3, 9, 8, 10, 11]),
        (king_grid_2rows(7).graph, PLAIN, list(range(14))),
        (king_grid_2rows(7).graph, CONNECTED,
         [6, 2, 4, 3, 8, 5, 7, 9, 10, 11, 12, 13]),
    ], ids=["grid3x4", "king2x7", "king2x7-connected"])
    def test_ladder_lines_recorded(self, g, variant, line):
        assert [m.v for m in cg(g, variant).principal_variation] == line


class TestStrategyMoves:
    def test_optimal_strategy_matches_reference(self):
        rng = random.Random(32)
        for _ in range(30):
            n = rng.randint(3, 8)
            g = random_connected_gnm(n, rng.randint(n - 1, n * (n - 1) // 2), rng)
            x = rng.randrange(1, 1 << n)
            variant = rng.choice([PLAIN, CONNECTED, TargetSet(x), SkipBudget(1, 1, x)])
            res = cg(g, variant)
            ref = _Core(g, variant, use_pruning=False)
            for _ in range(4):
                cfg = random_position(g, variant, rng)
                want = reference_move(ref, cfg)
                if want is None:
                    continue
                strat = (res.alice_strategy() if cfg.mover() is Player.ALICE
                         else res.bob_strategy())
                assert strat.choose(g, variant, astuple(cfg), None, None)[0] == \
                    (want if want is PASS else want.v)

    def test_used_up_skip_offsets_match_reference(self):
        # skip offsets equal to the pass budgets leave no pass: the game is
        # the target-set game with that turn parity, and the move a vertex;
        # each offset pair's core answers every position asked of it
        rng = random.Random(33)
        for _ in range(30):
            n = rng.randint(2, 8)
            g = random_connected_gnm(n, rng.randint(n - 1, n * (n - 1) // 2), rng)
            x = rng.randrange(1, 1 << n)
            cores = {off: _Core(g, SkipBudget(*off, x))
                     for off in itertools.product((0, 1), repeat=2)}
            for _ in range(4):
                a_off, b_off = rng.randint(0, 1), rng.randint(0, 1)
                red = blue = 0
                for v in rng.sample(range(n), rng.randrange(n)):
                    if rng.random() < 0.5:
                        red |= 1 << v
                    else:
                        blue |= 1 << v
                ref = _Core(g, SkipBudget(a_off, b_off, x), use_pruning=False)
                want = reference_move(ref, GameConfig(red, blue, a_off, b_off))
                core = cores[a_off, b_off]
                t = core.exact(red, blue, a_off, b_off)
                assert core.best_move(red, blue, a_off, b_off, t) == want.v

    def test_symmetric_move_skip_keeps_the_move(self):
        # the lower image of a value-keeping move keeps the value too and
        # comes first, so skipping the higher one leaves the move unchanged;
        # the maps are installed at once, as a large search would have them
        rng = random.Random(34)
        graphs = [Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)]),
                  Graph.from_edges(6, [(i, i + 1) for i in range(5)]),
                  cartesian_grid(2, 3).graph, cartesian_grid(3, 3).graph,
                  king_grid_2rows(3).graph]
        for g in graphs:
            # a degree class keeps every automorphism of G
            x = mask_of(v for v in range(g.n) if g.adj[v].bit_count() == 2)
            for variant in (PLAIN, CONNECTED, TargetSet(x), SkipBudget(1, 1, x)):
                core = _Core(g, variant)
                core._syms = _automorphism_masks(g, core.x)
                assert core._syms
                ref = _Core(g, variant, use_pruning=False)
                for cfg in [GameConfig()] + [random_position(g, variant, rng)
                                             for _ in range(20)]:
                    want = reference_move(ref, cfg)
                    pos = (cfg.red, cfg.blue, cfg.alice_skips_used, cfg.bob_skips_used)
                    got = core.best_move(*pos, core.exact(*pos))
                    assert got == (want if want is None or want is PASS else want.v), \
                        (g.edges(), variant, cfg)
