"""Solver, strategies, and constructions for the Maker-Breaker
largest-connected-subgraph game."""

from .engine import (
    ARBITRARY,
    CONNECTED,
    PASS,
    PLAIN,
    BudgetExceededError,
    InternalError,
    ColorVertex,
    Connected,
    GameConfig,
    MatchTrace,
    Plain,
    Player,
    SkipBudget,
    Strategy,
    TargetSet,
    apply_move,
    legal_moves,
    play_match,
    random_playouts,
    score,
    verify_strategy_exhaustive,
)
from .graphs import (
    CAPACITY,
    SOLVER_CAPACITY,
    CapacityError,
    Graph,
    Matching,
    Planarity,
    components,
    induced,
    is_connected_dominating,
    planarity_check,
    read_graph,
    write_graph,
)
from .solver import (
    HeadAnalysis,
    SolveResult,
    analyze_head,
    can_force_cds_within,
    cg,
    is_a_perfect,
)

__all__ = [name for name in dir() if not name.startswith("_")]
