"""Independent reference implementations used as test oracles.

Everything here works on adjacency dicts and Python sets, deliberately
sharing no code with the bitmask implementations under test; only the
variant classes, which hold data alone, come from ``lcsgame``.
"""

from __future__ import annotations

from functools import lru_cache

from lcsgame.engine import Connected, Plain, SkipBudget, TargetSet


def adj_dict(g) -> dict[int, set[int]]:
    return {v: {w for w in range(g.n) if g.adj[v] >> w & 1} for v in range(g.n)}


def naive_components(g) -> list[set[int]]:
    adj = adj_dict(g)
    seen: set[int] = set()
    comps = []
    for start in range(g.n):
        if start in seen:
            continue
        comp = {start}
        queue = [start]
        while queue:
            u = queue.pop()
            for w in adj[u]:
                if w not in comp:
                    comp.add(w)
                    queue.append(w)
        seen |= comp
        comps.append(comp)
    return comps


def naive_score_plain(g, red: set[int]) -> int:
    if not red:
        return 0
    adj = adj_dict(g)
    best = 0
    seen: set[int] = set()
    for start in red:
        if start in seen:
            continue
        comp = {start}
        queue = [start]
        while queue:
            u = queue.pop()
            for w in adj[u]:
                if w in red and w not in comp:
                    comp.add(w)
                    queue.append(w)
        seen |= comp
        best = max(best, len(comp))
    return best


def naive_score_target(g, red: set[int], target: set[int]) -> int:
    if not red or not target:
        return 0
    adj = adj_dict(g)
    total = 0
    seen: set[int] = set()
    for start in red:
        if start in seen:
            continue
        comp = {start}
        queue = [start]
        while queue:
            u = queue.pop()
            for w in adj[u]:
                if w in red and w not in comp:
                    comp.add(w)
                    queue.append(w)
        seen |= comp
        if comp & target:
            total += len(comp)
    return total


def naive_is_cds(g, s: set[int]) -> bool:
    if not s:
        return g.n == 0
    adj = adj_dict(g)
    start = next(iter(s))
    comp = {start}
    queue = [start]
    while queue:
        u = queue.pop()
        for w in adj[u]:
            if w in s and w not in comp:
                comp.add(w)
                queue.append(w)
    if comp != s:
        return False
    dominated = set(s)
    for v in s:
        dominated |= adj[v]
    return dominated == set(range(g.n))


def naive_value(g, variant, red: int = 0, blue: int = 0,
                ask: int = 0, bsk: int = 0) -> int:
    """Value of the position (red mask, blue mask, skips Alice and Bob have
    used) under Plain, Connected, TargetSet or SkipBudget, by bare minimax
    over frozensets (no pruning, no bounds).  Whoever has taken fewer turns,
    a pass counting as one, moves.  A Connected Alice with red plays in
    N(red), and the game ends when she has no such move.  A SkipBudget
    mover may pass while their skips last, also on a full board; the game
    ends on a full board when the mover may not pass."""
    def as_set(mask: int) -> frozenset:
        return frozenset(v for v in range(g.n) if mask >> v & 1)

    adj = adj_dict(g)
    everything = frozenset(range(g.n))
    connected = isinstance(variant, Connected)
    skips = isinstance(variant, SkipBudget)
    a_budget = variant.alice_budget if skips else 0
    b_budget = variant.bob_budget if skips else 0
    largest = isinstance(variant, (Plain, Connected))
    target = set() if largest else set(as_set(variant.x))

    def final(red: frozenset) -> int:
        if largest:
            return naive_score_plain(g, set(red))
        return naive_score_target(g, set(red), target)

    @lru_cache(maxsize=None)
    def value(red: frozenset, blue: frozenset, ask: int, bsk: int) -> int:
        free = everything - red - blue
        alice = len(red) + ask == len(blue) + bsk
        if connected and alice and red:
            free = {v for v in free if adj[v] & red}
        can_pass = (ask < a_budget) if alice else (bsk < b_budget)
        if not free and not can_pass:
            return final(red)
        if alice:
            vals = [value(red | {v}, blue, ask, bsk) for v in free]
            if can_pass:
                vals.append(value(red, blue, ask + 1, bsk))
            return max(vals)
        vals = [value(red, blue | {v}, ask, bsk) for v in free]
        if can_pass:
            vals.append(value(red, blue, ask, bsk + 1))
        return min(vals)

    return value(as_set(red), as_set(blue), ask, bsk)


def naive_cg(g) -> int:
    """Plain game value from the empty board."""
    return naive_value(g, Plain())


def naive_cg_connected(g) -> int:
    """Connected-variant value: Alice must extend her red component."""
    return naive_value(g, Connected())


def naive_cg_target(g, target: set[int]) -> int:
    return naive_value(g, TargetSet(sum(1 << v for v in target)))
