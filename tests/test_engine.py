"""Game engine: legality per variant, scoring, match execution, verification."""

from __future__ import annotations

import dataclasses
import inspect

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lcsgame.engine import (
    ARBITRARY,
    CONNECTED,
    EMPTY_CONFIG,
    PASS,
    PLAIN,
    ColorVertex,
    GameConfig,
    IllegalMoveError,
    InternalError,
    MatchTrace,
    Player,
    SkipBudget,
    Strategy,
    StrategyError,
    TargetSet,
    apply_move,
    first_move_strategy,
    format_trace,
    legal_moves,
    lowest_index_strategy,
    parse_trace,
    play_match,
    random_playouts,
    score,
    verify_strategy_exhaustive,
    virtual_step,
)
from lcsgame.graphs import Graph, mask_of
from lcsgame.solver import cg

from oracles import naive_score_plain, naive_score_target


def cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def complete(n):
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


class TestGameConfig:
    def test_init_parameters_are_the_fields(self):
        # the constructor takes every field, in order and with its default
        params = list(inspect.signature(GameConfig.__init__).parameters.values())[1:]
        assert [(p.name, p.default) for p in params] == \
            [(f.name, f.default) for f in dataclasses.fields(GameConfig)]

    def test_fields_set_and_frozen(self):
        cfg = GameConfig(1, 2, alice_skips_used=1)
        assert dataclasses.astuple(cfg) == (1, 2, 1, 0)
        assert cfg == dataclasses.replace(EMPTY_CONFIG, red=1, blue=2, alice_skips_used=1)
        assert hash(cfg) == hash(GameConfig(1, 2, 1, 0))
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.red = 3

    def test_colored_is_derived_and_not_a_field(self):
        cfg = GameConfig(0b101, 0b10)
        assert cfg.colored == 0b111
        assert dataclasses.replace(cfg, blue=0b1000).colored == 0b1101
        assert "colored" not in {f.name for f in dataclasses.fields(GameConfig)}
        assert EMPTY_CONFIG.colored == 0


class TestLegalMoves:
    def test_plain_everything_uncolored(self):
        assert legal_moves(cycle(4), PLAIN, EMPTY_CONFIG) == \
            [ColorVertex(v) for v in range(4)]

    def test_connected_alice_restricted_to_red_neighbours(self):
        cfg = GameConfig(red=1)
        # Alice just moved, so after Bob's reply it is her turn again
        cfg = GameConfig(red=1, blue=4)
        assert legal_moves(path(3), CONNECTED, cfg) == [ColorVertex(1)]

    def test_connected_first_move_unrestricted(self):
        assert len(legal_moves(path(3), CONNECTED, EMPTY_CONFIG)) == 3

    def test_connected_bob_unrestricted(self):
        cfg = GameConfig(red=1)
        assert len(legal_moves(path(3), CONNECTED, cfg)) == 2

    def test_skip_budget_includes_pass_last(self):
        moves = legal_moves(complete(2), SkipBudget(1, 1, 0b11), EMPTY_CONFIG)
        assert moves == [ColorVertex(0), ColorVertex(1), PASS]

    def test_skip_budget_pass_spent(self):
        cfg = GameConfig(alice_skips_used=1, bob_skips_used=1)
        moves = legal_moves(complete(2), SkipBudget(1, 1, 0b11), cfg)
        assert PASS not in moves

    def test_empty_list_signals_game_over(self):
        cfg = GameConfig(red=1, blue=2)
        assert legal_moves(complete(2), PLAIN, cfg) == []


class TestApplyMove:
    def test_color_vertex(self):
        cfg = apply_move(EMPTY_CONFIG, Player.ALICE, ColorVertex(2))
        assert cfg.red == 4 and cfg.blue == 0

    def test_bob_reply(self):
        cfg = GameConfig(red=4)
        cfg = apply_move(cfg, Player.BOB, ColorVertex(0))
        assert cfg.blue == 1

    def test_pass_increments_skip_and_flips_mover(self):
        cfg = apply_move(EMPTY_CONFIG, Player.ALICE, PASS)
        assert cfg.alice_skips_used == 1
        assert cfg.mover() is Player.BOB

    def test_wrong_mover_rejected(self):
        with pytest.raises(IllegalMoveError):
            apply_move(EMPTY_CONFIG, Player.BOB, ColorVertex(0))

    def test_recolor_rejected(self):
        cfg = GameConfig(red=1, blue=2)
        with pytest.raises(IllegalMoveError):
            apply_move(cfg, Player.ALICE, ColorVertex(0))

    def test_second_pass_rejected(self):
        cfg = GameConfig(red=1, alice_skips_used=1, bob_skips_used=1)
        with pytest.raises(IllegalMoveError):
            apply_move(cfg, Player.ALICE, PASS)

    def test_inputs_unmodified(self):
        cfg = EMPTY_CONFIG
        apply_move(cfg, Player.ALICE, ColorVertex(1))
        assert cfg.red == 0


class TestScore:
    def test_path_split_red(self):
        assert score(path(4), PLAIN, mask_of([0, 1, 3])) == 2

    def test_empty_red(self):
        assert score(path(4), PLAIN, 0) == 0
        assert score(path(4), TargetSet(0b1111), 0) == 0

    def test_target_set_example(self):
        # both red components meet the target, so their orders add up
        assert score(path(4), TargetSet(mask_of([0, 3])), mask_of([0, 1, 3])) == 3

    def test_target_set_empty_target(self):
        assert score(path(4), TargetSet(0), mask_of([0, 1])) == 0

    @given(st.integers(min_value=1, max_value=7), st.data())
    def test_matches_naive(self, n, data):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        g = Graph.from_edges(n, edges)
        red = data.draw(st.integers(min_value=0, max_value=g.full_mask))
        x = data.draw(st.integers(min_value=0, max_value=g.full_mask))
        red_set = {v for v in range(n) if red >> v & 1}
        x_set = {v for v in range(n) if x >> v & 1}
        assert score(g, PLAIN, red) == naive_score_plain(g, red_set)
        assert score(g, TargetSet(x), red) == naive_score_target(g, red_set, x_set)


class TestPlayMatch:
    def test_k2_lowest_vs_lowest(self):
        trace = play_match(complete(2), PLAIN,
                           lowest_index_strategy(), lowest_index_strategy())
        assert trace.final.red == 1 and trace.final.blue == 2
        assert trace.score == 1

    def test_c4_lowest_vs_lowest(self):
        trace = play_match(cycle(4), PLAIN,
                           lowest_index_strategy(), lowest_index_strategy())
        assert trace.final.red == mask_of([0, 2])
        assert trace.score == 1

    def test_connected_p3_center_start(self):
        trace = play_match(path(3), CONNECTED,
                           first_move_strategy(1), lowest_index_strategy())
        assert trace.final.red & 2
        assert trace.score >= 2

    def test_trace_replay_reproduces_final(self):
        g = cycle(5)
        trace = play_match(g, PLAIN, lowest_index_strategy(),
                           lowest_index_strategy())
        assert trace.replay(g, PLAIN) == trace.final

    def test_determinism(self):
        g = cycle(6)
        t1 = play_match(g, PLAIN, lowest_index_strategy(), lowest_index_strategy())
        t2 = play_match(g, PLAIN, lowest_index_strategy(), lowest_index_strategy())
        assert t1.moves == t2.moves and t1.score == t2.score

    def test_illegal_strategy_aborts_with_turn_number(self):
        class Cheater(Strategy):
            name = "cheater"

            def choose(self, g, variant, pos, state, last_opp):
                return 0, None  # replays vertex 0 forever

        with pytest.raises(StrategyError, match="turn 3"):
            play_match(path(3), PLAIN, Cheater(), lowest_index_strategy())

    def test_skip_game_terminates(self):
        trace = play_match(complete(2), SkipBudget(1, 1, 0b11),
                           lowest_index_strategy(), lowest_index_strategy())
        # both colour once; passes only when no vertices remain
        assert trace.final.colored == 0b11

    def test_arbitrary_on_a_full_board_passes(self):
        trace = play_match(complete(2), SkipBudget(1, 1, 0b11),
                           lowest_index_strategy(), lowest_index_strategy())
        assert trace.moves == [(Player.ALICE, ColorVertex(0)), (Player.BOB, ColorVertex(1)),
                               (Player.ALICE, PASS), (Player.BOB, PASS)]

    def test_arbitrary_is_the_lowest_neighbour_of_red_when_connected(self):
        # after A v3, B v0 the lowest uncoloured vertex is 1, but Alice's
        # lowest legal vertex is 2
        trace = play_match(path(5), CONNECTED,
                           first_move_strategy(3), lowest_index_strategy())
        assert format_trace(trace) == "A v3\nB v0\nA v2\nB v1\nA v4\nscore 3\n"


class TestVirtualStep:
    """One turn on a virtual board; ``alice`` says whose turn it is, and the
    real position is (red, blue, 0, 0)."""

    @pytest.mark.parametrize("alice,pos,asked,after", [
        (True, (0, 0b10, 0, 0), (0b1000, 0b10010), (0b1100, 0b10010)),
        (False, (0b10, 0, 0, 0), (0b1010, 0b10000), (0b1010, 0b10100)),
    ], ids=["alice", "bob"])
    def test_records_both_moves_and_answers_the_pick(self, alice, pos, asked, after):
        # the opponent just coloured vertex 1, and the pick wants vertex 2
        seen = []

        def pick(vred, vblue):
            seen.append((vred, vblue))
            return 2

        assert virtual_step(pos, alice, 0b1000, 0b10000, 1, pick) == (2, *after)
        assert seen == [asked]

    @pytest.mark.parametrize("alice", [True, False], ids=["alice", "bob"])
    def test_no_opponent_move_and_no_pick(self, alice):
        step = virtual_step((0, 0, 0, 0), alice, 0b1, 0b10, None, lambda r, b: None)
        assert step == (ARBITRARY, 0b1, 0b10)

    @pytest.mark.parametrize("alice", [True, False], ids=["alice", "bob"])
    def test_own_colour_is_arbitrary(self, alice):
        # vertex 3 is the player's own, taken by an arbitrary real move
        pos = (0b1000, 0, 0, 0) if alice else (0, 0b1000, 0, 0)
        answer, _, _ = virtual_step(pos, alice, 0, 0, None, lambda r, b: 3)
        assert answer is ARBITRARY

    @pytest.mark.parametrize("alice", [True, False], ids=["alice", "bob"])
    def test_opponent_colour_is_a_desync(self, alice):
        pos = (0, 0b1000, 0, 0) if alice else (0b1000, 0, 0, 0)
        with pytest.raises(InternalError, match="desynchronised"):
            virtual_step(pos, alice, 0, 0, None, lambda r, b: 3)


class TestTraceFormat:
    def test_round_trip(self):
        g = cycle(5)
        trace = play_match(g, PLAIN, lowest_index_strategy(),
                           lowest_index_strategy())
        moves, sc = parse_trace(format_trace(trace))
        assert moves == trace.moves and sc == trace.score

    def test_format_shape(self):
        g = complete(2)
        text = format_trace(play_match(g, PLAIN, lowest_index_strategy(),
                                       lowest_index_strategy()))
        assert text == "A v0\nB v1\nscore 1\n"

    def test_pass_serialisation(self):
        trace = play_match(complete(2), SkipBudget(1, 1, 0b11),
                           lowest_index_strategy(), lowest_index_strategy())
        text = format_trace(trace)
        moves, _ = parse_trace(text)
        assert moves == trace.moves

    def test_missing_score_rejected(self):
        with pytest.raises(ValueError):
            parse_trace("A v0\nB v1\n")

    @pytest.mark.parametrize("line", ["score", "score 1 2"])
    def test_score_line_without_exactly_one_integer_rejected(self, line):
        with pytest.raises(ValueError, match="line 3: a score line holds one integer"):
            parse_trace(f"A v0\nB v1\n{line}\n")

    @pytest.mark.parametrize("text,frag", [
        ("A v\nscore 0\n", "line 1: a vertex must be a non-negative integer"),
        ("A v0\nscore x\n", "line 2: the score must be a non-negative integer"),
        ("A v-1\nscore 0\n", "line 1: a vertex must be a non-negative integer"),
    ])
    def test_non_integer_fields_carry_line_numbers(self, text, frag):
        with pytest.raises(ValueError, match=frag):
            parse_trace(text)


class TestTraceReplay:
    # replay checks every move against the mover's legal moves on the graph
    def replay(self, g, variant, line):
        moves = [(Player.ALICE if i % 2 == 0 else Player.BOB,
                  PASS if m == "pass" else ColorVertex(m)) for i, m in enumerate(line)]
        return MatchTrace(moves, EMPTY_CONFIG, 0).replay(g, variant)

    def test_connected_alice_move_outside_the_neighbourhood_of_red(self):
        assert self.replay(path(4), CONNECTED, [0, 1]) == GameConfig(red=1, blue=2)
        with pytest.raises(IllegalMoveError, match="turn 3 .ALICE.: illegal move v3"):
            self.replay(path(4), CONNECTED, [0, 1, 3])

    def test_pass_under_plain(self):
        with pytest.raises(IllegalMoveError, match="turn 2 .BOB.: illegal move pass"):
            self.replay(path(4), PLAIN, [0, "pass"])

    def test_vertex_outside_the_graph(self):
        with pytest.raises(IllegalMoveError, match="turn 1 .ALICE.: illegal move v9"):
            self.replay(path(4), PLAIN, [9])


class TestVerifyExhaustive:
    def test_k3_lowest_alice(self):
        v = verify_strategy_exhaustive(complete(3), PLAIN,
                                       lowest_index_strategy(), Player.ALICE)
        assert v == 2

    def test_fixed_alice_lower_bounds_value(self):
        for g in (cycle(5), path(6), complete(4)):
            v = verify_strategy_exhaustive(g, PLAIN, lowest_index_strategy(),
                                           Player.ALICE)
            assert v <= cg(g).value

    def test_fixed_bob_upper_bounds_value(self):
        for g in (cycle(5), path(6), complete(4)):
            v = verify_strategy_exhaustive(g, PLAIN, lowest_index_strategy(),
                                           Player.BOB)
            assert v >= cg(g).value

    def test_budget_reported_distinctly(self):
        from lcsgame.engine import BudgetExceededError
        with pytest.raises(BudgetExceededError):
            verify_strategy_exhaustive(cycle(8), PLAIN,
                                       lowest_index_strategy(), Player.ALICE,
                                       max_states=3)

    def test_custom_objective(self):
        v = verify_strategy_exhaustive(
            complete(3), PLAIN, lowest_index_strategy(), Player.ALICE,
            objective=lambda pos: pos[0].bit_count())
        assert v == 2


class TestRandomPlayouts:
    def test_seed_reproducibility(self):
        g = cycle(6)
        a = random_playouts(g, PLAIN, lowest_index_strategy(), Player.ALICE, 50, seed=3)
        b = random_playouts(g, PLAIN, lowest_index_strategy(), Player.ALICE, 50, seed=3)
        assert a == b

    def test_playouts_within_exhaustive_bounds(self):
        g = cycle(6)
        lo = verify_strategy_exhaustive(g, PLAIN, lowest_index_strategy(),
                                        Player.ALICE)
        scores = random_playouts(g, PLAIN, lowest_index_strategy(),
                                 Player.ALICE, 100, seed=0)
        assert min(scores) >= lo


@st.composite
def random_play_configs(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    g = Graph.from_edges(n, edges)
    kind = draw(st.sampled_from(["plain", "connected", "target", "skip"]))
    if kind == "plain":
        variant = PLAIN
    elif kind == "connected":
        variant = CONNECTED
    elif kind == "target":
        variant = TargetSet(draw(st.integers(0, g.full_mask)))
    else:
        variant = SkipBudget(draw(st.integers(0, 1)), draw(st.integers(0, 1)),
                             draw(st.integers(0, g.full_mask)))
    steps = draw(st.lists(st.integers(min_value=0, max_value=10), max_size=12))
    return g, variant, steps


class TestConfigInvariantsUnderPlay:
    @given(random_play_configs())
    def test_reachable_configs_stay_valid(self, case):
        g, variant, steps = case
        cfg = EMPTY_CONFIG
        for pick in steps:
            moves = legal_moves(g, variant, cfg)
            if not moves:
                break
            mover = cfg.mover()
            cfg = apply_move(cfg, mover, moves[pick % len(moves)])
            assert cfg.red & cfg.blue == 0
            assert (cfg.red | cfg.blue) & ~g.full_mask == 0
            assert cfg.alice_skips_used in (0, 1)
            assert cfg.bob_skips_used in (0, 1)
            if isinstance(variant, (type(PLAIN), type(CONNECTED))):
                diff = cfg.red.bit_count() - cfg.blue.bit_count()
                assert diff in (0, 1)
