"""The benchmark's strategy tracer plays exactly as the strategy it wraps.

``perfbench/tracing.py`` wraps a strategy in a ``choose`` of its own that
forwards its arguments, so a change to the arguments of ``Strategy.choose``
must fail here, not only in the traced benchmark run.
"""

from __future__ import annotations

import sys
from pathlib import Path

from lcsgame.engine import (
    PLAIN,
    Player,
    lowest_index_strategy,
    play_match,
    random_playouts,
    verify_strategy_exhaustive,
)
from lcsgame.generators import cartesian_grid
from lcsgame.strategies import builtin_strategy

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from tracing import Tracer  # noqa: E402


def test_traced_strategy_plays_as_the_strategy():
    grid = cartesian_grid(2, 4)
    g = grid.graph
    bob = builtin_strategy("cartesian_bob", grid)
    tracer = Tracer()
    traced = tracer.strategy(bob)

    def runs(strat):
        match = play_match(g, PLAIN, lowest_index_strategy(), strat)
        return (verify_strategy_exhaustive(g, PLAIN, strat, Player.BOB),
                random_playouts(g, PLAIN, strat, Player.BOB, 50, seed=4),
                match.moves, match.final, match.score)

    assert runs(traced) == runs(bob)
    assert tracer.calls("strategies.choose") > 0
