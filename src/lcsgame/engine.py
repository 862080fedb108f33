"""Game positions, move legality per variant, scoring, and strategy execution.

Two players alternately colour vertices of a shared graph, Alice (red) first.
Alice's final score is the order of the largest connected red component --
or, in the target-set variant, the total order of the red components meeting
the target set.  Turn order is never stored: whoever has taken fewer turns
(counting a pass as a turn) moves next, so a configuration alone determines
the mover.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Hashable, Union

from .graphs import (
    Graph,
    bits,
    component_of,
    largest_component_order,
)


class Player(Enum):
    ALICE = "A"
    BOB = "B"

    @property
    def opponent(self) -> "Player":
        return Player.BOB if self is Player.ALICE else Player.ALICE


@dataclass(frozen=True)
class ColorVertex:
    v: int

    def __str__(self) -> str:
        return f"v{self.v}"


class _PassType:
    """Singleton skip-turn move."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "Pass"

    def __str__(self) -> str:
        return "pass"


PASS = _PassType()
Move = Union[ColorVertex, _PassType]


# -- variants ---------------------------------------------------------------


@dataclass(frozen=True)
class Plain:
    pass


@dataclass(frozen=True)
class TargetSet:
    x: int  # target vertex mask


@dataclass(frozen=True)
class Connected:
    pass


@dataclass(frozen=True)
class SkipBudget:
    alice_budget: int
    bob_budget: int
    x: int

    def __post_init__(self):
        if self.alice_budget not in (0, 1) or self.bob_budget not in (0, 1):
            raise ValueError("skip budgets must be 0 or 1")


GameVariant = Union[Plain, TargetSet, Connected, SkipBudget]

PLAIN = Plain()
CONNECTED = Connected()


@dataclass(frozen=True)
class GameConfig:
    red: int = 0
    blue: int = 0
    alice_skips_used: int = 0
    bob_skips_used: int = 0

    @property
    def colored(self) -> int:
        return self.red | self.blue

    def mover(self) -> Player:
        a_turns = self.red.bit_count() + self.alice_skips_used
        b_turns = self.blue.bit_count() + self.bob_skips_used
        return Player.ALICE if a_turns == b_turns else Player.BOB

    def check(self, g: Graph) -> None:
        if self.red & self.blue:
            raise ValueError("red and blue sets intersect")
        if (self.red | self.blue) & ~g.full_mask:
            raise ValueError("coloured vertices outside graph")


EMPTY_CONFIG = GameConfig()


class IllegalMoveError(ValueError):
    pass


class StrategyError(RuntimeError):
    """A strategy produced an illegal move; message names the offending turn."""


class BudgetExceededError(RuntimeError):
    """Search state budget exhausted before a value was computed."""


def _deadline(time_limit: float | None) -> float | None:
    return None if time_limit is None else time.monotonic() + time_limit


def _time_left(deadline: float | None) -> float | None:
    return None if deadline is None else deadline - time.monotonic()


def legal_moves(g: Graph, variant: GameVariant, cfg: GameConfig) -> list[Move]:
    """Legal moves for the derived mover, ordered by vertex index, Pass last.

    An empty list signals that the game is over for the mover.
    """
    uncolored = g.full_mask & ~cfg.colored
    mover = cfg.mover()
    if isinstance(variant, (Plain, TargetSet)):
        return [ColorVertex(v) for v in bits(uncolored)]
    if isinstance(variant, Connected):
        if mover is Player.BOB or cfg.red == 0:
            return [ColorVertex(v) for v in bits(uncolored)]
        return [ColorVertex(v) for v in bits(g.neighborhood(cfg.red) & uncolored)]
    if isinstance(variant, SkipBudget):
        moves: list[Move] = [ColorVertex(v) for v in bits(uncolored)]
        used = cfg.alice_skips_used if mover is Player.ALICE else cfg.bob_skips_used
        budget = variant.alice_budget if mover is Player.ALICE else variant.bob_budget
        if used < budget:
            moves.append(PASS)
        return moves
    raise TypeError(f"unknown variant {variant!r}")


def apply_move(cfg: GameConfig, mover: Player, move: Move) -> GameConfig:
    """New configuration after *mover* plays *move*; inputs are unmodified."""
    if mover is not cfg.mover():
        raise IllegalMoveError(f"it is not {mover.name}'s turn")
    if move is PASS:
        if mover is Player.ALICE:
            if cfg.alice_skips_used:
                raise IllegalMoveError("Alice already used her skip")
            return replace(cfg, alice_skips_used=1)
        if cfg.bob_skips_used:
            raise IllegalMoveError("Bob already used his skip")
        return replace(cfg, bob_skips_used=1)
    bit = 1 << move.v
    if cfg.colored & bit:
        raise IllegalMoveError(f"vertex {move.v} already coloured")
    if mover is Player.ALICE:
        return replace(cfg, red=cfg.red | bit)
    return replace(cfg, blue=cfg.blue | bit)


def score(g: Graph, variant: GameVariant, red: int) -> int:
    """Alice's score for a (final) red set under the given variant."""
    if red & ~g.full_mask:
        raise ValueError("red set outside graph")
    if red == 0:
        return 0
    if isinstance(variant, (Plain, Connected)):
        return largest_component_order(g.adj, red)
    if isinstance(variant, (TargetSet, SkipBudget)):
        x = variant.x
        if x == 0:
            return 0
        total = 0
        rest = red
        while rest:
            low = rest & -rest
            comp = component_of(g.adj, low, red)
            rest &= ~comp
            if comp & x:
                total += comp.bit_count()
        return total
    raise TypeError(f"unknown variant {variant!r}")


# -- strategies -------------------------------------------------------------


class Strategy:
    """Deterministic move chooser with explicit, hashable private state.

    ``choose`` is called only on the strategy's own turns and receives the
    opponent's most recent move (None on the opening turn).  It must return
    a legal move plus the successor private state; identical inputs must
    yield identical outputs.
    """

    name = "strategy"

    def initial_state(self) -> Hashable:
        return None

    def choose(self, g: Graph, variant: GameVariant, cfg: GameConfig,
               state: Hashable, last_opp: Move | None) -> tuple[Move, Hashable]:
        raise NotImplementedError


class FunctionStrategy(Strategy):
    """Stateless strategy from a plain chooser function."""

    def __init__(self, name: str,
                 fn: Callable[[Graph, GameVariant, GameConfig, Move | None], Move]):
        self.name = name
        self._fn = fn

    def choose(self, g, variant, cfg, state, last_opp):
        return self._fn(g, variant, cfg, last_opp), None


def lowest_index_strategy() -> Strategy:
    """Colour the lowest-index legal vertex; pass only when forced."""

    def fn(g, variant, cfg, last_opp):
        moves = legal_moves(g, variant, cfg)
        for m in moves:
            if m is not PASS:
                return m
        return moves[0]

    return FunctionStrategy("lowest", fn)


def first_move_strategy(first: int) -> Strategy:
    """Open at a designated vertex, then play lowest-index legal vertices."""

    def fn(g, variant, cfg, last_opp):
        moves = legal_moves(g, variant, cfg)
        if cfg.red == 0:
            for m in moves:
                if m is not PASS and m.v == first:
                    return m
        for m in moves:
            if m is not PASS:
                return m
        return moves[0]

    return FunctionStrategy(f"first:{first}", fn)


# -- match execution --------------------------------------------------------


@dataclass
class MatchTrace:
    moves: list[tuple[Player, Move]]
    final: GameConfig
    score: int

    def replay(self, g: Graph, variant: GameVariant) -> GameConfig:
        cfg = EMPTY_CONFIG
        for player, move in self.moves:
            cfg = apply_move(cfg, player, move)
        return cfg


def format_trace(trace: MatchTrace) -> str:
    lines = [f"{p.value} {m}" for p, m in trace.moves]
    lines.append(f"score {trace.score}")
    return "\n".join(lines) + "\n"


def parse_trace(text: str) -> tuple[list[tuple[Player, Move]], int]:
    moves: list[tuple[Player, Move]] = []
    final_score = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "score":
            final_score = int(parts[1])
            continue
        if parts[0] not in ("A", "B") or len(parts) != 2:
            raise ValueError(f"line {lineno}: malformed trace line")
        player = Player.ALICE if parts[0] == "A" else Player.BOB
        if parts[1] == "pass":
            moves.append((player, PASS))
        elif parts[1].startswith("v"):
            moves.append((player, ColorVertex(int(parts[1][1:]))))
        else:
            raise ValueError(f"line {lineno}: malformed move {parts[1]!r}")
    if final_score is None:
        raise ValueError("trace missing final 'score' line")
    return moves, final_score


def play_match(g: Graph, variant: GameVariant, alice: Strategy, bob: Strategy) -> MatchTrace:
    """Run the two strategies from the empty configuration to the end.

    The game stops when the mover has no legal move (in the connected
    variant that is the moment Alice is blocked, where the score is read).
    A strategy returning an illegal move aborts with a diagnostic naming
    the offending turn.
    """
    cfg = EMPTY_CONFIG
    states = {Player.ALICE: alice.initial_state(), Player.BOB: bob.initial_state()}
    last: dict[Player, Move | None] = {Player.ALICE: None, Player.BOB: None}
    moves: list[tuple[Player, Move]] = []
    turn = 0
    while True:
        mover = cfg.mover()
        legal = legal_moves(g, variant, cfg)
        if not legal:
            break
        strat = alice if mover is Player.ALICE else bob
        turn += 1
        move, states[mover] = strat.choose(g, variant, cfg, states[mover],
                                           last[mover.opponent])
        if move not in legal:
            raise StrategyError(
                f"turn {turn}: strategy {strat.name!r} for {mover.name} "
                f"returned illegal move {move}")
        cfg = apply_move(cfg, mover, move)
        last[mover] = move
        moves.append((mover, move))
    return MatchTrace(moves, cfg, score(g, variant, cfg.red))


# -- exhaustive one-sided verification ---------------------------------------

DEFAULT_VERIFY_BUDGET = 500_000_000


def verify_strategy_exhaustive(
    g: Graph, variant: GameVariant, fixed: Strategy, fixed_side: Player,
    *, max_states: int = DEFAULT_VERIFY_BUDGET,
    time_limit: float | None = None,
    objective: Callable[[GameConfig], int] | None = None,
) -> int:
    """Guaranteed value of a deterministic strategy against every opposing line.

    The fixed side's moves are forced; the opponent branches over all legal
    moves.  Returns the minimum final score when the fixed side is Alice and
    the maximum when it is Bob, memoised on (configuration, private state)
    at adversary decision points.  ``time_limit`` (seconds) is checked every
    2048 expanded states.
    """
    if objective is None:
        objective = lambda cfg: score(g, variant, cfg.red)
    adversary = fixed_side.opponent
    minimise = fixed_side is Player.ALICE
    memo: dict[Hashable, int] = {}
    expanded = 0
    deadline = _deadline(time_limit)
    # one comparison per state: the next state count at which to look at
    # the state budget or the clock
    check_at = max_states if deadline is None else min(max_states, 2047)

    def run_fixed(cfg: GameConfig, state: Hashable,
                  last_adv: Move | None) -> tuple[GameConfig, Hashable]:
        """Advance through the fixed side's (forced) moves until it is the
        adversary's turn or the game ends."""
        while True:
            legal = legal_moves(g, variant, cfg)
            if not legal:
                return cfg, state
            if cfg.mover() is adversary:
                return cfg, state
            move, state = fixed.choose(g, variant, cfg, state, last_adv)
            if move not in legal:
                raise StrategyError(
                    f"strategy {fixed.name!r} returned illegal move {move}")
            cfg = apply_move(cfg, fixed_side, move)
            last_adv = None

    def adv_value(cfg: GameConfig, state: Hashable) -> int:
        nonlocal expanded, check_at
        legal = legal_moves(g, variant, cfg)
        if not legal:
            return objective(cfg)
        key = (cfg, state)
        hit = memo.get(key)
        if hit is not None:
            return hit
        expanded += 1
        if expanded > check_at:
            if expanded > max_states:
                raise BudgetExceededError(
                    f"verification exceeded {max_states} states")
            if time.monotonic() > deadline:
                raise BudgetExceededError("verification exceeded its time limit")
            check_at = min(max_states, expanded + 2047)
        best = None
        for move in legal:
            nxt = apply_move(cfg, adversary, move)
            ncfg, nstate = run_fixed(nxt, state, move)
            val = adv_value(ncfg, nstate)
            if best is None or (val < best if minimise else val > best):
                best = val
        memo[key] = best
        return best

    start_cfg, start_state = run_fixed(EMPTY_CONFIG, fixed.initial_state(), None)
    return adv_value(start_cfg, start_state)


def _nth_set_bit(mask: int, idx: int) -> int:
    for _ in range(idx):
        mask &= mask - 1
    return (mask & -mask).bit_length() - 1


def random_playouts(
    g: Graph, variant: GameVariant, fixed: Strategy, fixed_side: Player,
    n_playouts: int, seed: int = 0,
    objective: Callable[[GameConfig], int] | None = None,
) -> list[int]:
    """Final scores of the fixed strategy against a uniform random adversary.

    Plain and target-set games use a move loop over raw masks (the playout
    count is the whole point here); other variants go through the generic
    legality machinery.
    """
    if objective is None:
        objective = lambda cfg: score(g, variant, cfg.red)
    rng = random.Random(seed)
    out = []
    fast = isinstance(variant, (Plain, TargetSet))
    full = g.full_mask
    for _ in range(n_playouts):
        state = fixed.initial_state()
        last_adv: Move | None = None
        if fast:
            red = blue = 0
            alice_fixed = fixed_side is Player.ALICE
            alice_turn = True
            uncolored = full
            ucount = g.n
            while ucount:
                if alice_turn == alice_fixed:
                    cfg = GameConfig(red, blue)
                    move, state = fixed.choose(g, variant, cfg, state, last_adv)
                    if move is PASS or (uncolored >> move.v & 1) == 0:
                        raise StrategyError(
                            f"strategy {fixed.name!r} returned illegal move {move}")
                    bit = 1 << move.v
                else:
                    bit = 1 << _nth_set_bit(uncolored, rng.randrange(ucount))
                    last_adv = ColorVertex(bit.bit_length() - 1)
                if alice_turn:
                    red |= bit
                else:
                    blue |= bit
                uncolored ^= bit
                ucount -= 1
                alice_turn = not alice_turn
            out.append(objective(GameConfig(red, blue)))
            continue
        cfg = EMPTY_CONFIG
        while True:
            legal = legal_moves(g, variant, cfg)
            if not legal:
                break
            if cfg.mover() is fixed_side:
                move, state = fixed.choose(g, variant, cfg, state, last_adv)
                if move not in legal:
                    raise StrategyError(
                        f"strategy {fixed.name!r} returned illegal move {move}")
                cfg = apply_move(cfg, fixed_side, move)
            else:
                move = legal[rng.randrange(len(legal))]
                cfg = apply_move(cfg, fixed_side.opponent, move)
                last_adv = move
        out.append(objective(cfg))
    return out
