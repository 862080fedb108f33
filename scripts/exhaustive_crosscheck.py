#!/usr/bin/env python3
"""Cross-check the production solver against a bare reference recursion.

Enumerates every labelled graph up to --max-n vertices (this grows as
2^C(n,2): n=6 means 32768 graphs) and compares plain values, and with
--connected also connected values, against the reference; it also asserts
the degree bounds, the component rule and connected <= plain.  Each line
reports the states the pruned solver expanded on that n's graphs
(whole-graph solves only, per variant) beside the elapsed time.

Usage: python scripts/exhaustive_crosscheck.py [--max-n 5] [--connected]
"""

from __future__ import annotations

import argparse
import itertools
import sys
import time
from functools import lru_cache

from lcsgame.engine import CONNECTED
from lcsgame.graphs import Graph, components, induced
from lcsgame.solver import cg


def reference_value(g: Graph, connected: bool = False) -> int:
    """Value by plain minimax over sets.  In the connected variant Alice
    plays in N(red) after her first move, and the game ends when she has no
    such move."""
    adj = {v: {w for w in range(g.n) if g.adj[v] >> w & 1} for v in range(g.n)}
    everything = frozenset(range(g.n))

    def comp_score(red):
        best, seen = 0, set()
        for s in red:
            if s in seen:
                continue
            comp, queue = {s}, [s]
            while queue:
                u = queue.pop()
                for w in adj[u]:
                    if w in red and w not in comp:
                        comp.add(w)
                        queue.append(w)
            seen |= comp
            best = max(best, len(comp))
        return best

    @lru_cache(maxsize=None)
    def value(red, blue):
        free = everything - red - blue
        if not free:
            return comp_score(red)
        if len(red) == len(blue):
            if connected and red:
                free = {v for v in free if adj[v] & red}
                if not free:
                    return comp_score(red)
            return max(value(red | {v}, blue) for v in free)
        return min(value(red, blue | {v}) for v in free)

    return value(frozenset(), frozenset())


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-n", type=int, default=5)
    ap.add_argument("--connected", action="store_true",
                    help="also check the connected variant (slower)")
    args = ap.parse_args()

    t0 = time.time()
    total = 0
    for n in range(args.max_n + 1):
        states = cstates = 0
        pairs = list(itertools.combinations(range(n), 2))
        for em in range(1 << len(pairs)):
            edges = [e for i, e in enumerate(pairs) if em >> i & 1]
            g = Graph.from_edges(n, edges)
            res = cg(g)
            v = res.value
            states += res.states_expanded
            ref = reference_value(g)
            if v != ref:
                print(f"MISMATCH n={n} edges={edges}: solver {v} reference {ref}")
                return 1
            if n and not (g.max_degree // 2 + 1 <= v <= (n + 1) // 2):
                print(f"BOUND VIOLATION n={n} edges={edges}: {v}")
                return 1
            comps = components(g)
            if len(comps) > 1:
                per = max(cg(induced(g, c)[0]).value for c in comps)
                if per != v:
                    print(f"COMPONENT RULE VIOLATION n={n} edges={edges}")
                    return 1
            if args.connected:
                res = cg(g, CONNECTED)
                cc = res.value
                cstates += res.states_expanded
                ref = reference_value(g, connected=True)
                if cc != ref:
                    print(f"CONNECTED MISMATCH n={n} edges={edges}: "
                          f"solver {cc} reference {ref}")
                    return 1
                if cc > v:
                    print(f"CONNECTED > PLAIN n={n} edges={edges}: {cc} > {v}")
                    return 1
            total += 1
        connected = f", {cstates} connected states" if args.connected else ""
        print(f"n={n}: all {1 << len(pairs)} labelled graphs agree "
              f"({states} states{connected}, {time.time() - t0:.1f}s elapsed)")
    print(f"{total} graphs cross-checked, no disagreements")
    return 0


if __name__ == "__main__":
    sys.exit(main())
