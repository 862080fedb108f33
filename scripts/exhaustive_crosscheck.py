#!/usr/bin/env python3
"""Cross-check the production solver against a bare reference recursion.

Enumerates every labelled graph up to --max-n vertices (this grows as
2^C(n,2): n=6 means 32768 graphs) and compares plain values, and with
--connected also connected values, against ``tests/oracles.naive_value``;
it also asserts the degree bounds, the component rule and connected <=
plain.  ``--variants all`` adds the connected check and TargetSet(x),
SkipBudget(1, 1, x) and SkipBudget(1, 0, x): for every target set x on the
graphs with n <= 4, and for two non-empty x per graph drawn from
``random.Random(--seed)`` on the graphs with n = 5 and 6.  Each line
reports the states the pruned solver expanded on that n's graphs
(whole-graph solves only, per variant) beside the elapsed time.

``--sample N`` checks seeded positions instead of the empty board of every
small graph: N connected G(n, m) with n = 8..10 and m <= n + 4, each with a
few random non-empty positions (disjoint red and blue sets, Alice to move
or Bob after her), solved from that position under Plain, Connected,
TargetSet(x), SkipBudget(1, 1, x) and SkipBudget(1, 0, x) and compared with
``naive_value`` there.  Each position's non-empty x comes from its own
stream seeded by --seed, so drawing it leaves the graphs and positions as
they were.
It reports how many positions have G - blue split, the case the
per-component bounds of the search work on.

``--heads N`` runs ``analyze_head`` on every labelled graph with at most N
vertices and every non-empty target set K, and prints how many heads fall
into each mode.  It exits non-zero on the first ``InternalError`` (a head
with neither compound skip strategy and no holding play), and on the first
"sa2" head where Bob's compound skip game, which ``analyze_head`` does not
search once Sa2 exists, wins too.

Usage: python scripts/exhaustive_crosscheck.py [--max-n 5] [--connected]
       [--variants plain|all] [--seed S]
       python scripts/exhaustive_crosscheck.py --sample N [--seed S]
       python scripts/exhaustive_crosscheck.py --heads N
"""

from __future__ import annotations

import argparse
import itertools
import random
import sys
import time
from collections import Counter
from pathlib import Path

from lcsgame.engine import (CONNECTED, PLAIN, GameConfig, InternalError,
                            Player, SkipBudget, TargetSet)
from lcsgame.generators import random_connected_gnm
from lcsgame.graphs import Graph, components, components_within, induced, mask_of
from lcsgame.solver import _CompoundSkipGame, analyze_head, cg

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from oracles import naive_value  # noqa: E402

# the target-set variants are checked for every x on graphs up to this
# order, and for TARGET_SEEDED_X seeded x per graph up to TARGET_SEEDED_MAX_N
TARGET_MAX_N = 4
TARGET_SEEDED_MAX_N = 6
TARGET_SEEDED_X = 2
# the seeded sample: graph orders, edges beyond a tree, positions per graph
SAMPLE_N = (8, 10)
SAMPLE_EXTRA_EDGES = 5
SAMPLE_POSITIONS = 3


def labelled_graphs(n: int):
    """Every labelled graph on n vertices, as (edge list, graph) pairs."""
    pairs = list(itertools.combinations(range(n), 2))
    for em in range(1 << len(pairs)):
        edges = [e for i, e in enumerate(pairs) if em >> i & 1]
        yield edges, Graph.from_edges(n, edges)


def check_heads(max_n: int) -> int:
    """The mode of ``analyze_head`` on every labelled head with at most
    ``max_n`` vertices and every non-empty target set, and on every "sa2"
    head the check that Bob's compound skip game loses."""
    t0 = time.time()
    modes: Counter[str] = Counter()
    for n in range(1, max_n + 1):
        for edges, g in labelled_graphs(n):
            for k in range(1, 1 << n):
                try:
                    head = analyze_head(g, k)
                except InternalError as exc:
                    print(f"INTERNAL ERROR n={n} edges={edges} K={k:#x}: {exc}")
                    return 1
                if head.mode == "sa2" and _CompoundSkipGame(
                        g, k, head.c_star, Player.BOB).search.wins((0, 0, 0, 0, 0)):
                    print(f"BOTH COMPOUND SKIP STRATEGIES n={n} edges={edges} K={k:#x}")
                    return 1
                modes[head.mode] += 1
    print(f"{sum(modes.values())} heads with n <= {max_n}: sa2 {modes['sa2']}, "
          f"sb2 {modes['sb2']}, hold {modes['hold']} "
          f"({time.time() - t0:.1f}s elapsed)")
    return 0


def check_sample(count: int, seed: int) -> int:
    """Values under all five variants at random positions of ``count``
    seeded connected G(n, m), against ``naive_value`` at the same
    positions."""
    rng = random.Random(seed)
    xrng = random.Random(f"target-sets/{seed}")
    t0 = time.time()
    split = states = 0
    for _ in range(count):
        n = rng.randint(*SAMPLE_N)
        g = random_connected_gnm(n, rng.randint(n - 1, n - 1 + SAMPLE_EXTRA_EDGES), rng)
        for _ in range(SAMPLE_POSITIONS):
            verts = rng.sample(range(n), rng.randint(1, n // 2))
            half = (len(verts) + 1) // 2
            red, blue = mask_of(verts[:half]), mask_of(verts[half:])
            split += len(components_within(g.adj, g.full_mask & ~blue)) > 1
            x = xrng.randrange(1, 1 << n)
            for variant in (PLAIN, CONNECTED, TargetSet(x), SkipBudget(1, 1, x),
                            SkipBudget(1, 0, x)):
                res = cg(g, variant, initial=GameConfig(red, blue))
                states += res.states_expanded
                ref = naive_value(g, variant, red, blue)
                if res.value != ref:
                    print(f"MISMATCH {variant} edges={sorted(g.edges())} "
                          f"red={red:#x} blue={blue:#x}: solver {res.value} "
                          f"reference {ref}")
                    return 1
    print(f"{count} sampled graphs, {count * SAMPLE_POSITIONS} positions agree "
          f"under Plain, Connected, TargetSet and both SkipBudgets ({split} with "
          f"G - blue split, {states} states, {time.time() - t0:.1f}s elapsed)")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-n", type=int, default=5)
    ap.add_argument("--connected", action="store_true",
                    help="also check the connected variant (slower)")
    ap.add_argument("--variants", choices=("plain", "all"), default="plain",
                    help="all: also Connected, and TargetSet and SkipBudget "
                         f"for every target set up to n = {TARGET_MAX_N} and "
                         f"{TARGET_SEEDED_X} seeded ones per graph up to "
                         f"n = {TARGET_SEEDED_MAX_N}")
    ap.add_argument("--sample", type=int, metavar="N",
                    help="check N seeded graphs at random positions instead")
    ap.add_argument("--seed", type=int, default=0,
                    help="seed of --sample, and of the seeded target sets")
    ap.add_argument("--heads", type=int, metavar="N",
                    help="count the head modes of every labelled head with "
                         "at most N vertices instead")
    args = ap.parse_args()
    if args.sample is not None:
        return check_sample(args.sample, args.seed)
    if args.heads is not None:
        return check_heads(args.heads)
    if args.variants == "all":
        args.connected = True

    xrng = random.Random(args.seed)
    t0 = time.time()
    total = 0
    for n in range(args.max_n + 1):
        states = cstates = tstates = count = 0
        for edges, g in labelled_graphs(n):
            count += 1
            res = cg(g)
            v = res.value
            states += res.states_expanded
            ref = naive_value(g, PLAIN)
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
                ref = naive_value(g, CONNECTED)
                if cc != ref:
                    print(f"CONNECTED MISMATCH n={n} edges={edges}: "
                          f"solver {cc} reference {ref}")
                    return 1
                if cc > v:
                    print(f"CONNECTED > PLAIN n={n} edges={edges}: {cc} > {v}")
                    return 1
            if args.variants == "all" and n <= TARGET_SEEDED_MAX_N:
                xs = (range(1 << n) if n <= TARGET_MAX_N
                      else xrng.sample(range(1, 1 << n), TARGET_SEEDED_X))
                for x in xs:
                    for variant in (TargetSet(x), SkipBudget(1, 1, x),
                                    SkipBudget(1, 0, x)):
                        res = cg(g, variant)
                        tstates += res.states_expanded
                        ref = naive_value(g, variant)
                        if res.value != ref:
                            print(f"MISMATCH n={n} edges={edges} {variant}: "
                                  f"solver {res.value} reference {ref}")
                            return 1
            total += 1
        extra = f", {cstates} connected states" if args.connected else ""
        if args.variants == "all" and n <= TARGET_SEEDED_MAX_N:
            xs = "every x" if n <= TARGET_MAX_N else f"{TARGET_SEEDED_X} seeded x per graph"
            extra += f", {tstates} target-set and skip states at {xs}"
        print(f"n={n}: all {count} labelled graphs agree "
              f"({states} states{extra}, {time.time() - t0:.1f}s elapsed)")
    print(f"{total} graphs cross-checked, no disagreements")
    return 0


if __name__ == "__main__":
    sys.exit(main())
