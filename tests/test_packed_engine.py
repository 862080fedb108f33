"""The packed-mask verifier and playout loop against set-based references.

The references below re-derive legality from Python sets and explicit turn
counts (whoever has taken fewer turns moves; passes are turns that colour
nothing) and share no code with ``engine``'s mask helpers.  They branch and
draw over the same move order as ``legal_moves`` (vertex index, Pass
last), and resolve a strategy's ``ARBITRARY`` to the first legal move
themselves, so the packed loops must reproduce their values and seeded
scores exactly.
"""

from __future__ import annotations

import random

import pytest

from lcsgame.engine import (
    ARBITRARY,
    CONNECTED,
    PASS,
    PLAIN,
    ColorVertex,
    Connected,
    Player,
    SkipBudget,
    Strategy,
    StrategyError,
    TargetSet,
    first_move_strategy,
    lowest_index_strategy,
    play_match,
    random_playouts,
    verify_strategy_exhaustive,
)
from lcsgame.generators import king_grid_2rows
from lcsgame.graphs import Graph, mask_of
from lcsgame.reductions import HexGameSolver, HexInstance, build_planar, lift_strategy
from lcsgame.strategies import builtin_strategy

from oracles import adj_dict, naive_score_plain, naive_score_target

START = (frozenset(), frozenset(), (0, 0))


def ref_legal(g, variant, pos):
    red, blue, (a_turns, b_turns) = pos
    alice = a_turns == b_turns
    free = [v for v in range(g.n) if v not in red and v not in blue]
    if isinstance(variant, Connected) and alice and red:
        adj = adj_dict(g)
        free = [v for v in free if adj[v] & red]
    moves = list(free)
    if isinstance(variant, SkipBudget):
        if alice:
            skipped, budget = a_turns - len(red), variant.alice_budget
        else:
            skipped, budget = b_turns - len(blue), variant.bob_budget
        if skipped < budget:
            moves.append(PASS)
    return moves


def ref_play(pos, move):
    red, blue, (a_turns, b_turns) = pos
    if a_turns == b_turns:
        if move is not PASS:
            red = red | {move}
        return red, blue, (a_turns + 1, b_turns)
    if move is not PASS:
        blue = blue | {move}
    return red, blue, (a_turns, b_turns + 1)


def ref_resolve(legal, move):
    """The move a strategy's answer plays: ``ARBITRARY`` is the first legal
    move; a vertex must be an int, not a bool."""
    if move is ARBITRARY:
        return legal[0]
    if not (move is PASS or type(move) is int) or move not in legal:
        raise StrategyError(f"illegal move {move!r}")
    return move


def ref_config(pos) -> tuple[int, int, int, int]:
    """The packed position ``choose`` receives: red and blue masks, skips
    used by Alice and by Bob."""
    red, blue, (a_turns, b_turns) = pos
    return (sum(1 << v for v in red), sum(1 << v for v in blue),
            a_turns - len(red), b_turns - len(blue))


def ref_score(g, variant, red) -> int:
    if isinstance(variant, (TargetSet, SkipBudget)):
        return naive_score_target(g, set(red),
                                  {v for v in range(g.n) if variant.x >> v & 1})
    return naive_score_plain(g, set(red))


def ref_verify(g, variant, fixed, side, objective):
    alice_fixed = side is Player.ALICE

    def value(pos, state, last_adv):
        legal = ref_legal(g, variant, pos)
        if not legal:
            return objective(pos)
        alice = pos[2][0] == pos[2][1]
        if alice == alice_fixed:
            move, state = fixed.choose(g, variant, ref_config(pos), state, last_adv)
            return value(ref_play(pos, ref_resolve(legal, move)), state, None)
        vals = [value(ref_play(pos, m), state, m) for m in legal]
        return min(vals) if alice_fixed else max(vals)

    return value(START, fixed.initial_state(), None)


def ref_playouts(g, variant, fixed, side, count, seed):
    rng = random.Random(seed)
    alice_fixed = side is Player.ALICE
    out = []
    for _ in range(count):
        pos, state, last_adv = START, fixed.initial_state(), None
        while True:
            legal = ref_legal(g, variant, pos)
            if not legal:
                break
            if (pos[2][0] == pos[2][1]) == alice_fixed:
                move, state = fixed.choose(g, variant, ref_config(pos), state,
                                           last_adv)
                move = ref_resolve(legal, move)
            else:
                move = last_adv = legal[rng.randrange(len(legal))]
            pos = ref_play(pos, move)
        out.append(ref_score(g, variant, pos[0]))
    return out


def ref_match(g, variant, alice, bob):
    pos, states, last = START, [alice.initial_state(), bob.initial_state()], [None, None]
    while legal := ref_legal(g, variant, pos):
        side = 0 if pos[2][0] == pos[2][1] else 1
        move, states[side] = (alice, bob)[side].choose(
            g, variant, ref_config(pos), states[side], last[1 - side])
        last[side] = ref_resolve(legal, move)
        pos = ref_play(pos, last[side])
    return pos


def ref_legal_packed(g, variant, pos):
    red, blue, ask, bsk = pos
    red = frozenset(v for v in range(g.n) if red >> v & 1)
    blue = frozenset(v for v in range(g.n) if blue >> v & 1)
    return ref_legal(g, variant, (red, blue, (len(red) + ask, len(blue) + bsk)))


class Scripted(Strategy):
    """Deterministic and stateful, and passes whenever its pick lands on
    Pass.  The state hashes the opponent's moves so far into five values,
    so one position is reached with several states and one state at
    positions that differ only in skips used."""

    name = "scripted"

    def initial_state(self):
        return 0

    def choose(self, g, variant, pos, state, last_opp):
        moves = ref_legal_packed(g, variant, pos)
        salt = 0 if last_opp is None else g.n + 1 if last_opp is PASS else last_opp + 1
        state = (3 * state + salt) % 5
        return moves[state % len(moves)], state


class Grudge(Strategy):
    """Plays the first legal move, except when at most two are left: then
    the parity of the opponent's first move may pick the last one (Pass,
    where allowed).  Lines that transpose into one position carry different
    states, and the state decides the endgame."""

    name = "grudge"

    def choose(self, g, variant, pos, state, last_opp):
        if state is None and last_opp is not None:
            state = g.n if last_opp is PASS else last_opp
        moves = ref_legal_packed(g, variant, pos)
        if len(moves) <= 2 and state is not None and state % 2:
            return moves[-1], state
        return moves[0], state


class Recorder(Strategy):
    """Plays as ``inner`` and records every position ``choose`` receives."""

    def __init__(self, inner):
        self.inner, self.name, self.seen = inner, inner.name, set()

    def initial_state(self):
        return self.inner.initial_state()

    def choose(self, g, variant, pos, state, last_opp):
        self.seen.add(pos)
        return self.inner.choose(g, variant, pos, state, last_opp)


def seeded_graphs(count, seed=11):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, 8)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.45]
        out.append((Graph.from_edges(n, edges), rng.randint(0, (1 << n) - 1)))
    return out


GRAPHS = seeded_graphs(10)
VARIANTS = ["plain", "target", "connected", "skip11", "skip10"]
SIDES = [Player.ALICE, Player.BOB]


def make_variant(kind, x):
    return {"plain": PLAIN, "target": TargetSet(x), "connected": CONNECTED,
            "skip11": SkipBudget(1, 1, x), "skip10": SkipBudget(1, 0, x)}[kind]


def strategies_for(g):
    return [lowest_index_strategy(), first_move_strategy(g.n - 1), Scripted(),
            Grudge()]


@pytest.mark.parametrize("kind", VARIANTS)
@pytest.mark.parametrize("side", SIDES, ids=lambda p: p.name)
class TestAgainstReference:
    def test_verifier_values(self, kind, side):
        for g, x in GRAPHS:
            variant = make_variant(kind, x)
            for strat in strategies_for(g):
                want = ref_verify(g, variant, strat, side,
                                  lambda pos: ref_score(g, variant, pos[0]))
                got = verify_strategy_exhaustive(g, variant, strat, side)
                assert got == want, (g.adj, variant, strat.name)

    def test_verifier_reaches_every_final_position(self, kind, side):
        # the memo may skip a repeated subtree, never a final position: a
        # key that merged two strategy states or two skip counts would
        # lose the lines only the other one reaches
        for g, x in GRAPHS:
            variant = make_variant(kind, x)
            for strat in (Scripted(), Grudge()):
                want, got = set(), set()
                ref_verify(g, variant, strat, side,
                           lambda pos: want.add(ref_config(pos)) or 0)
                verify_strategy_exhaustive(g, variant, strat, side,
                                           objective=lambda pos: got.add(pos) or 0)
                assert got == want, (g.adj, variant, strat.name)

    def test_choose_receives_the_reference_positions(self, kind, side):
        # per loop, the packed positions handed to ``choose`` are the ones
        # the set-based reference hands it
        for i, (g, x) in enumerate(GRAPHS):
            variant = make_variant(kind, x)
            for strat in (Scripted(), Grudge()):
                def seen(run):
                    rec = Recorder(strat)
                    run(rec)
                    return rec.seen

                def players(rec):
                    return (rec, Scripted()) if side is Player.ALICE else (Scripted(), rec)

                want = [seen(lambda s: ref_verify(g, variant, s, side, lambda pos: 0)),
                        seen(lambda s: ref_playouts(g, variant, s, side, 25, seed=i)),
                        seen(lambda s: ref_match(g, variant, *players(s)))]
                got = [seen(lambda s: verify_strategy_exhaustive(g, variant, s, side)),
                       seen(lambda s: random_playouts(g, variant, s, side, 25, seed=i)),
                       seen(lambda s: play_match(g, variant, *players(s)))]
                assert got == want, (g.adj, variant, strat.name)

    def test_seeded_playout_scores(self, kind, side):
        for i, (g, x) in enumerate(GRAPHS):
            variant = make_variant(kind, x)
            for strat in strategies_for(g):
                want = ref_playouts(g, variant, strat, side, 25, seed=i)
                got = random_playouts(g, variant, strat, side, 25, seed=i)
                assert got == want, (g.adj, variant, strat.name)


def planar_bob_lift():
    """The lifted Bob strategy on the planar build of the smallest losing
    path hex instance (58 vertices), as the benchmark and criterion 10 play
    it."""
    planar = build_planar(HexInstance(Graph.from_edges(4, [(0, 2), (2, 3), (3, 1)]),
                                      0, 1))
    lift = lift_strategy(planar, Player.BOB, HexGameSolver(planar.source_hex))
    return planar.g, lift, Player.BOB, planar.hex_vertices


def king_mirror():
    king = king_grid_2rows(8)
    return (king.graph, builtin_strategy("king_mirror_alice", king), Player.ALICE,
            mask_of(range(0, king.graph.n, 3)))


@pytest.mark.parametrize("kind", ["plain", "target"])
@pytest.mark.parametrize("build", [planar_bob_lift, king_mirror],
                         ids=lambda f: f.__name__)
def test_builtin_stateful_playouts(build, kind):
    # stateful strategies that answer ARBITRARY and vertex indices, on the
    # graphs the benchmark plays them on; x: a target set for TargetSet.
    # The king mirror always scores 8, so the positions ``choose`` receives
    # are compared too.
    g, strat, side, x = build()
    variant = make_variant(kind, x)
    for seed in (0, 1):
        want, got = Recorder(strat), Recorder(strat)
        assert (random_playouts(g, variant, got, side, 100, seed)
                == ref_playouts(g, variant, want, side, 100, seed))
        assert got.seen == want.seen


# -- illegal moves from the fixed strategy -------------------------------------


class Bad(Strategy):
    """Plays ``opening`` first (when given), then ``move`` on every turn."""

    name = "bad"

    def __init__(self, move, opening=None):
        self.move = move
        self.opening = opening

    def choose(self, g, variant, pos, state, last_opp):
        if self.opening is not None and pos[0] == 0 and pos[1] == 0:
            return self.opening, state
        return self.move, state


def path(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


BAD_CASES = {
    "pass_not_allowed": (PLAIN, Player.ALICE, Bad(PASS)),
    "pass_over_budget": (SkipBudget(1, 0, 0b11111), Player.BOB, Bad(PASS)),
    "second_pass": (SkipBudget(1, 1, 0b11111), Player.ALICE, Bad(PASS)),
    "coloured_vertex": (PLAIN, Player.ALICE, Bad(0)),
    "vertex_out_of_range": (PLAIN, Player.BOB, Bad(5)),
    "non_neighbour": (CONNECTED, Player.ALICE, Bad(4, opening=0)),
    "none": (PLAIN, Player.BOB, Bad(None)),
    # ``mask >> -1`` raises ValueError, so the index's sign is tested first
    "negative_index": (PLAIN, Player.ALICE, Bad(-1)),
    # legal as the index 1, but a move object or a bool is no vertex index
    "move_object": (PLAIN, Player.ALICE, Bad(ColorVertex(1))),
    "bool": (PLAIN, Player.ALICE, Bad(True)),
}


@pytest.mark.parametrize("case", sorted(BAD_CASES))
def test_verifier_rejects_illegal_move(case):
    variant, side, strat = BAD_CASES[case]
    with pytest.raises(StrategyError, match="bad"):
        verify_strategy_exhaustive(path(5), variant, strat, side)


@pytest.mark.parametrize("case", sorted(BAD_CASES))
def test_playouts_reject_illegal_move(case):
    variant, side, strat = BAD_CASES[case]
    with pytest.raises(StrategyError, match="bad"):
        random_playouts(path(5), variant, strat, side, 5, seed=1)


class Highest(Strategy):
    """Colours the highest uncoloured vertex, so that under Connected Bob
    does not block Alice's only neighbour."""

    name = "highest"

    def choose(self, g, variant, pos, state, last_opp):
        return (g.full_mask & ~(pos[0] | pos[1])).bit_length() - 1, state


@pytest.mark.parametrize("case", sorted(BAD_CASES))
def test_play_match_rejects_illegal_move(case):
    variant, side, strat = BAD_CASES[case]
    players = (strat, Highest())
    if side is Player.BOB:
        players = players[::-1]
    with pytest.raises(StrategyError, match=r"turn \d+ .*bad"):
        play_match(path(5), variant, *players)
