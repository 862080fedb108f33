"""Game positions, move legality per variant, scoring, and strategy execution.

Two players alternately colour vertices of a shared graph, Alice (red) first.
Alice's final score is the order of the largest connected red component --
or, in the target-set variant, the total order of the red components meeting
the target set.  Turn order is never stored: whoever has taken fewer turns
(counting a pass as a turn) moves next, so a configuration alone determines
the mover.

Inside ``lcsgame`` a move is a vertex index or ``PASS``.  A strategy's
``choose`` answers with one of those or with ``ARBITRARY``, the "colour an
arbitrary vertex" of the paper's proofs, and only the engine resolves it:
the lowest-index legal vertex, or a pass when no vertex is legal.
``GameConfig`` and ``ColorVertex`` remain only at the public boundary:
``legal_moves``, ``apply_move``, match traces and principal variations.
Inside, a position is packed: the tuple ``(red, blue, ask, bsk)`` of the red
and blue masks and the skips Alice and Bob have used.  The strategy
verifier, the playout loop and ``play_match`` keep it in locals, and a
strategy's ``choose`` and the verifier's objective receive it as that tuple.
Legality comes from one helper, ``_legal_masks``; under the variants in
``_OPEN_BOARD``, where every uncoloured vertex is legal and nobody passes,
the verifier reads the uncoloured mask directly, and the playouts run a
loop of their own in which every turn colours one vertex.

``AndOrSearch`` is the one memoised win/lose search; the source games of
the reductions (through one shared shell), the head analysis and CDS
forcing each supply its ``expand``.

A strategy carried over from another game -- a lifted source-game strategy
or a composed decomposition-tree strategy -- plays on a virtual board that
ignores its own arbitrary moves; ``virtual_step`` plays one of its turns.

``Budget`` is the one state budget and deadline of a call: every search the
call starts -- solver cores, AND/OR searches, the strategy verifier --
charges the same object, so the call's ``max_states`` and ``time_limit``
cover all of them together.
"""

from __future__ import annotations

import math
import random
import time
from bisect import bisect_left
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Hashable, Union

from .graphs import (
    Graph,
    bits,
    component_of,
    int_field,
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


class _ArbitraryType:
    """Singleton strategy answer that leaves the move to the engine."""

    def __repr__(self) -> str:
        return "Arbitrary"


ARBITRARY = _ArbitraryType()


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

# variants under which every uncoloured vertex is legal and nobody passes
_OPEN_BOARD = (Plain, TargetSet)


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
        """Raise ValueError unless the position lies on g and alternating
        play from Alice can reach it: Alice has taken as many turns as Bob,
        or one more.  The solver's bounds assume alternating turns."""
        if self.red & self.blue:
            raise ValueError("red and blue sets intersect")
        if self.colored & ~g.full_mask:
            raise ValueError("coloured vertices outside graph")
        lead = (self.red.bit_count() + self.alice_skips_used
                - self.blue.bit_count() - self.bob_skips_used)
        if lead not in (0, 1):
            raise ValueError(
                f"turn counts out of order: Alice has taken {lead:+d} turns "
                "more than Bob (alternating play gives 0 or +1)")


EMPTY_CONFIG = GameConfig()


class IllegalMoveError(ValueError):
    pass


class StrategyError(RuntimeError):
    """A strategy produced an illegal move; message names the offending turn."""


class BudgetExceededError(RuntimeError):
    """Search state budget exhausted before a value was computed."""


class InternalError(RuntimeError):
    """A broken internal invariant: a bug in lcsgame, not bad input."""


class Budget:
    """The state budget and deadline of one call, shared by every search it
    starts.  ``tick`` charges one expanded state: more than ``max_states``
    raises ``BudgetExceededError``, and so does passing the deadline, which
    is read every 2048 states.  ``spent`` counts the states charged.  A
    negative or NaN ``max_states`` or ``time_limit`` raises ``ValueError``;
    0 and ``math.inf`` are valid."""

    __slots__ = ("max_states", "time_limit", "deadline", "spent", "check_at")

    def __init__(self, max_states: float, time_limit: float | None = None):
        # written as ``not >= 0`` so that NaN fails too
        if not max_states >= 0:
            raise ValueError(f"max_states must be >= 0, got {max_states}")
        if time_limit is not None and not time_limit >= 0:
            raise ValueError(f"time_limit must be >= 0, got {time_limit}")
        self.max_states = max_states
        self.time_limit = time_limit
        self.deadline = None if time_limit is None else time.monotonic() + time_limit
        self.spent = 0
        # one comparison per state: the count past which to look at the
        # state budget or the clock
        self.check_at = max_states if time_limit is None else min(max_states, 2047)

    def tick(self) -> None:
        self.spent += 1
        if self.spent > self.check_at:
            if self.spent > self.max_states:
                raise BudgetExceededError(
                    f"more than {self.max_states} states expanded")
            if time.monotonic() > self.deadline:
                raise BudgetExceededError(
                    f"time limit of {self.time_limit} s reached")
            self.check_at = min(self.max_states, self.spent + 2047)


class AndOrSearch:
    """Memoised AND/OR search of a win/lose game over hashable positions.

    ``expand(pos)`` returns True or False at a decided position (a win or a
    loss for the protagonist), and otherwise ``(or_node, children)``, where
    ``children`` yields ``(move, child)`` pairs in the game's move order.
    At an OR node the protagonist moves and wins if some child wins; at an
    AND node the opponent moves and the protagonist wins only if every child
    does.  Every position is memoised, and the memo is read before
    ``expand`` runs; so is every answer of ``move``, by position and
    preferred move.  Each position expanded into children, on either side,
    charges ``budget`` (unbounded by default).
    """

    def __init__(self, expand: Callable[[Hashable], object],
                 budget: Budget | None = None):
        self.expand = expand
        self.budget = Budget(math.inf) if budget is None else budget
        self.memo: dict[Hashable, bool] = {}
        self.moves: dict[tuple[Hashable, object], object] = {}

    def wins(self, pos: Hashable) -> bool:
        hit = self.memo.get(pos)
        if hit is not None:
            return hit
        node = self.expand(pos)
        if isinstance(node, bool):
            result = node
        else:
            self.budget.tick()
            # the node takes the mover's wanted outcome once a child gives it
            or_node, children = node
            result = not or_node
            for _, child in children:
                if self.wins(child) == or_node:
                    result = or_node
                    break
        self.memo[pos] = result
        return result

    def move(self, pos: Hashable, first: object = None) -> object:
        """The first move (``first`` tried before the others) whose child
        gives the mover the outcome it wants: a protagonist win at an OR
        node, a loss at an AND node.  None at a decided position and when no
        move does."""
        key = (pos, first)
        if key in self.moves:
            return self.moves[key]
        node = self.expand(pos)
        found = None
        if not isinstance(node, bool):
            or_node, children = node
            if first is not None:
                children = sorted(children, key=lambda mc: mc[0] != first)
            for mv, child in children:
                if self.wins(child) == or_node:
                    found = mv
                    break
        self.moves[key] = found
        return found


def _legal_masks(g: Graph, variant: GameVariant, red: int, blue: int,
                 ask: int, bsk: int, alice: bool) -> tuple[int, bool]:
    """Legal moves of a packed position: (vertex mask, pass allowed).
    ``ask``/``bsk`` are the skips Alice and Bob have used, ``alice`` says
    who moves; no vertex and no pass means the game is over for the mover."""
    uncolored = g.full_mask & ~(red | blue)
    kind = type(variant)
    if kind in _OPEN_BOARD:
        return uncolored, False
    if kind is Connected:
        if alice and red:
            uncolored &= g.neighborhood(red)
        return uncolored, False
    if kind is SkipBudget:
        if alice:
            return uncolored, ask < variant.alice_budget
        return uncolored, bsk < variant.bob_budget
    raise TypeError(f"unknown variant {variant!r}")


def legal_moves(g: Graph, variant: GameVariant, cfg: GameConfig) -> list[Move]:
    """Legal moves for the derived mover, ordered by vertex index, Pass last.

    An empty list signals that the game is over for the mover.
    """
    mask, pass_ok = _legal_masks(g, variant, cfg.red, cfg.blue,
                                 cfg.alice_skips_used, cfg.bob_skips_used,
                                 cfg.mover() is Player.ALICE)
    moves: list[Move] = [ColorVertex(v) for v in bits(mask)]
    if pass_ok:
        moves.append(PASS)
    return moves


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


Answer = Union[int, _PassType, _ArbitraryType]
# a packed position: red mask, blue mask, skips Alice and Bob have used
Position = tuple[int, int, int, int]


class Strategy:
    """Deterministic move chooser with explicit, hashable private state.

    ``choose`` is called only on the strategy's own turns.  It receives the
    position packed as ``pos = (red, blue, ask, bsk)`` and the opponent's
    most recent move: a vertex index, ``PASS``, or None on the opening turn.
    It returns its answer -- a legal vertex index, ``PASS`` or ``ARBITRARY``
    (the engine plays the lowest-index legal vertex, or passes when no
    vertex is legal) -- plus the successor private state; identical inputs
    must yield identical outputs.
    """

    name = "strategy"

    def initial_state(self) -> Hashable:
        return None

    def choose(self, g: Graph, variant: GameVariant, pos: Position,
               state: Hashable, last_opp: int | _PassType | None
               ) -> tuple[Answer, Hashable]:
        raise NotImplementedError


class FunctionStrategy(Strategy):
    """Stateless strategy from a plain chooser function, which receives
    ``choose``'s arguments less the private state."""

    def __init__(self, name: str,
                 fn: Callable[[Graph, GameVariant, Position,
                               int | _PassType | None], Answer]):
        self.name = name
        self._fn = fn

    def choose(self, g, variant, pos, state, last_opp):
        return self._fn(g, variant, pos, last_opp), None


def virtual_answer(pos: Position, w: int, alice: bool = True) -> Answer:
    """The real answer of a player (Alice unless ``alice`` is false) whose
    strategy wants ``w`` on a virtual board that ignores the player's own
    arbitrary moves: ``w`` while it is uncoloured, ``ARBITRARY`` when it has
    the player's colour (one of those moves).  ``w`` in the opponent's
    colour means the virtual board has lost track of the real one."""
    own, opp = pos[0], pos[1]
    if not alice:
        own, opp = opp, own
    if opp >> w & 1:
        raise InternalError("virtual board desynchronised from the real one")
    return ARBITRARY if own >> w & 1 else w


def virtual_step(pos: Position, alice: bool, vred: int, vblue: int,
                 opp: int | None, pick: Callable[[int, int], int | None]
                 ) -> tuple[Answer, int, int]:
    """One turn of a strategy played on a virtual board ``(vred, vblue)``:
    record the opponent's virtual move ``opp`` (None: nothing to record),
    ask ``pick(vred, vblue)`` for the player's move (None: there is none, so
    play arbitrarily), record that move, and return ``(answer, vred,
    vblue)`` with the real answer read by ``virtual_answer``."""
    if opp is not None:
        if alice:
            vblue |= 1 << opp
        else:
            vred |= 1 << opp
    w = pick(vred, vblue)
    if w is None:
        return ARBITRARY, vred, vblue
    if alice:
        vred |= 1 << w
    else:
        vblue |= 1 << w
    return virtual_answer(pos, w, alice), vred, vblue


def lowest_index_strategy() -> Strategy:
    """Colour the lowest-index legal vertex; pass only when forced."""
    return FunctionStrategy("lowest", lambda g, variant, pos, last_opp: ARBITRARY)


def first_move_strategy(first: int) -> Strategy:
    """Open at a designated vertex, then play lowest-index legal vertices."""
    first_bit = 1 << first if first >= 0 else 0

    def fn(g, variant, pos, last_opp):
        # with no red vertex yet, every uncoloured vertex is legal
        if pos[0] == 0 and g.full_mask & ~pos[1] & first_bit:
            return first
        return ARBITRARY

    return FunctionStrategy(f"first:{first}", fn)


# -- match execution --------------------------------------------------------


@dataclass
class MatchTrace:
    moves: list[tuple[Player, Move]]
    final: GameConfig
    score: int

    def replay(self, g: Graph, variant: GameVariant) -> GameConfig:
        """The configuration the moves reach from the empty one on ``g``.
        Each move must be the mover's and legal under ``variant``, or
        ``IllegalMoveError`` names its turn."""
        cfg = EMPTY_CONFIG
        for turn, (player, move) in enumerate(self.moves, start=1):
            if player is not cfg.mover():
                raise IllegalMoveError(f"turn {turn}: it is not {player.name}'s turn")
            mask, pass_ok = _legal_masks(g, variant, cfg.red, cfg.blue,
                                         cfg.alice_skips_used, cfg.bob_skips_used,
                                         player is Player.ALICE)
            if not (pass_ok if move is PASS
                    else 0 <= move.v < g.n and mask >> move.v & 1):
                raise IllegalMoveError(f"turn {turn} ({player.name}): "
                                       f"illegal move {move}")
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
            if len(parts) != 2:
                raise ValueError(f"line {lineno}: a score line holds one integer")
            final_score = int_field(parts[1], lineno, "the score")
            continue
        if parts[0] not in ("A", "B") or len(parts) != 2:
            raise ValueError(f"line {lineno}: malformed trace line")
        player = Player.ALICE if parts[0] == "A" else Player.BOB
        if parts[1] == "pass":
            moves.append((player, PASS))
        elif parts[1].startswith("v"):
            moves.append((player, ColorVertex(int_field(parts[1][1:], lineno,
                                                        "a vertex"))))
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
    states = {Player.ALICE: alice.initial_state(), Player.BOB: bob.initial_state()}
    last: dict[Player, int | _PassType | None] = {Player.ALICE: None, Player.BOB: None}
    moves: list[tuple[Player, Move]] = []
    red = blue = ask = bsk = 0
    while True:
        alice_moves = len(moves) % 2 == 0  # turns alternate; a pass is a turn
        mask, pass_ok = _legal_masks(g, variant, red, blue, ask, bsk, alice_moves)
        if not (mask or pass_ok):
            break
        mover, strat = (Player.ALICE, alice) if alice_moves else (Player.BOB, bob)
        answer, states[mover] = strat.choose(g, variant, (red, blue, ask, bsk),
                                             states[mover], last[mover.opponent])
        try:
            bit = _fixed_move_bit(strat, answer, mask, pass_ok)
        except StrategyError as exc:
            raise StrategyError(f"turn {len(moves) + 1} ({mover.name}): {exc}") from None
        if alice_moves:
            red |= bit
            ask += not bit
        else:
            blue |= bit
            bsk += not bit
        if bit:
            v = bit.bit_length() - 1
            move, last[mover] = ColorVertex(v), v
        else:
            move = last[mover] = PASS
        moves.append((mover, move))
    return MatchTrace(moves, GameConfig(red, blue, ask, bsk), score(g, variant, red))


# -- exhaustive one-sided verification ---------------------------------------

DEFAULT_VERIFY_BUDGET = 500_000_000


def _fixed_move_bit(fixed: Strategy, move: object, mask: int,
                    pass_ok: bool) -> int:
    """The bit a strategy's answer colours (0 for a pass), checked against
    the mover's legal masks, which must allow some move.  The one place
    ``ARBITRARY`` is resolved: the lowest legal vertex, else a pass."""
    if type(move) is int:  # a bool is not a vertex
        if move >= 0 and mask >> move & 1:
            return 1 << move
    elif move is ARBITRARY:
        return mask & -mask
    elif move is PASS:
        if pass_ok:
            return 0
    raise StrategyError(f"strategy {fixed.name!r} returned illegal move {move!r}")


def verify_strategy_exhaustive(
    g: Graph, variant: GameVariant, fixed: Strategy, fixed_side: Player,
    *, max_states: int = DEFAULT_VERIFY_BUDGET,
    time_limit: float | None = None,
    objective: Callable[[Position], int] | None = None,
) -> int:
    """Guaranteed value of a deterministic strategy against every opposing line.

    The fixed side's moves are forced; the opponent branches over all legal
    moves.  Returns the minimum final score when the fixed side is Alice and
    the maximum when it is Bob, memoised on (red, blue, skips used, private
    state) at adversary decision points.  One ``Budget`` of ``max_states``
    and ``time_limit`` (seconds) covers the whole verification.  An
    ``objective``, given the packed final position, replaces ``score``.
    """
    return _verify_exhaustive(g, variant, fixed, fixed_side,
                              Budget(max_states, time_limit), objective)


def _verify_exhaustive(g: Graph, variant: GameVariant, fixed: Strategy,
                       fixed_side: Player, budget: Budget,
                       objective: Callable[[Position], int] | None = None) -> int:
    """``verify_strategy_exhaustive`` charging the caller's ``budget``."""
    alice_fixed = fixed_side is Player.ALICE
    minimise = alice_fixed
    # skipping the _legal_masks call on an open board takes about a tenth
    # off the strategy benchmark
    open_board = isinstance(variant, _OPEN_BOARD)
    full = g.full_mask
    memo: dict[Hashable, int] = {}
    tick = budget.tick
    choose = fixed.choose

    def value(red: int, blue: int, ask: int, bsk: int, alice: bool,
              state: Hashable, last_adv: int | _PassType | None) -> int:
        """Play the fixed side's (forced) move, then branch over every
        adversary move; the final score once the game ends.  ``alice``:
        Alice is to move (turns alternate; a pass is a turn)."""
        while True:
            if open_board:
                mask, pass_ok = full & ~(red | blue), False
            else:
                mask, pass_ok = _legal_masks(g, variant, red, blue, ask, bsk, alice)
            if not (mask or pass_ok):
                if objective is None:
                    return score(g, variant, red)
                return objective((red, blue, ask, bsk))
            if alice != alice_fixed:
                break
            move, state = choose(g, variant, (red, blue, ask, bsk), state, last_adv)
            # a legal vertex index inline; ARBITRARY, PASS and illegal
            # answers go to _fixed_move_bit
            if type(move) is int and move >= 0 and mask >> move & 1:
                bit = 1 << move
            else:
                bit = _fixed_move_bit(fixed, move, mask, pass_ok)
            if alice:  # a pass colours no bit and uses a skip
                red |= bit
                ask += not bit
            else:
                blue |= bit
                bsk += not bit
            alice = not alice
            last_adv = None
        key = (red, blue, ask, bsk, state)
        hit = memo.get(key)
        if hit is not None:
            return hit
        tick()
        best = None
        while mask:
            bit = mask & -mask
            mask ^= bit
            last = bit.bit_length() - 1
            if alice:
                val = value(red | bit, blue, ask, bsk, False, state, last)
            else:
                val = value(red, blue | bit, ask, bsk, True, state, last)
            if best is None or (val < best if minimise else val > best):
                best = val
        if pass_ok:
            val = value(red, blue, ask + alice, bsk + (not alice), not alice,
                        state, PASS)
            if best is None or (val < best if minimise else val > best):
                best = val
        memo[key] = best
        return best

    return value(0, 0, 0, 0, True, fixed.initial_state(), None)


def random_playouts(
    g: Graph, variant: GameVariant, fixed: Strategy, fixed_side: Player,
    n_playouts: int, seed: int = 0,
) -> list[int]:
    """Final scores of the fixed strategy against a uniform random adversary.

    The adversary draws uniformly among its legal moves, in the order of
    ``legal_moves`` (vertex index, Pass last), with one ``randrange`` per
    turn.  The draw runs the body of
    ``random.Random._randbelow_with_getrandbits``, which ``randrange(n)``
    calls, inline on a bound ``getrandbits``: the stream, and so every
    seeded score, is the same as with ``Random(seed).randrange``, without
    that call's argument checks on every adversary turn.

    There are two loops.  On an open board (Plain, TargetSet) every
    uncoloured vertex is legal, nobody may pass and ``ARBITRARY`` always
    names a vertex, so every turn colours exactly one vertex: the turns
    alternate, the game ends when no vertex is left, and the adversary
    draws from a sorted list of the uncoloured vertices kept across turns.
    That loop needs no legal masks and no skip counts.  Under the other
    variants (Connected, SkipBudget) the legal moves depend on the
    position, so each turn asks ``_legal_masks`` and the adversary draws
    from a list of the legal vertices built for the turn, with Pass last
    when allowed.
    """
    getrandbits = random.Random(seed).getrandbits
    choose = fixed.choose
    alice_fixed = fixed_side is Player.ALICE
    last_adv: int | _PassType | None
    out = []
    if isinstance(variant, _OPEN_BOARD):
        nv, full = g.n, g.full_mask
        for _ in range(n_playouts):
            state = fixed.initial_state()
            last_adv = None
            red = blue = 0
            free = list(range(nv))
            alice = True
            while free:
                if alice == alice_fixed:
                    move, state = choose(g, variant, (red, blue, 0, 0), state,
                                         last_adv)
                    # an uncoloured vertex index inline; ARBITRARY and
                    # illegal answers go to _fixed_move_bit
                    if not (type(move) is int and 0 <= move < nv
                            and not (red | blue) >> move & 1):
                        move = _fixed_move_bit(fixed, move, full & ~(red | blue),
                                               False).bit_length() - 1
                    del free[bisect_left(free, move)]
                else:
                    n = len(free)
                    k = n.bit_length()
                    idx = getrandbits(k)
                    while idx >= n:
                        idx = getrandbits(k)
                    move = last_adv = free.pop(idx)
                if alice:
                    red |= 1 << move
                else:
                    blue |= 1 << move
                alice = not alice
            out.append(score(g, variant, red))
        return out
    for _ in range(n_playouts):
        state = fixed.initial_state()
        last_adv = None
        red = blue = ask = bsk = 0
        alice = True  # turns alternate; a pass is a turn
        while True:
            mask, pass_ok = _legal_masks(g, variant, red, blue, ask, bsk, alice)
            if not (mask or pass_ok):
                break
            if alice == alice_fixed:
                move, state = choose(g, variant, (red, blue, ask, bsk), state,
                                     last_adv)
                # a legal vertex index inline; ARBITRARY, PASS and illegal
                # answers go to _fixed_move_bit
                if type(move) is int and move >= 0 and mask >> move & 1:
                    bit = 1 << move
                else:
                    bit = _fixed_move_bit(fixed, move, mask, pass_ok)
            else:
                cands = list(bits(mask))
                n = len(cands) + pass_ok
                k = n.bit_length()
                idx = getrandbits(k)
                while idx >= n:
                    idx = getrandbits(k)
                if idx == len(cands):
                    bit, last_adv = 0, PASS
                else:
                    v = cands[idx]
                    bit, last_adv = 1 << v, v
            if alice:
                red |= bit
                ask += not bit
            else:
                blue |= bit
                bsk += not bit
            alice = not alice
        out.append(score(g, variant, red))
    return out
