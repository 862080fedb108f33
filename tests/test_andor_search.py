"""The four win/lose games on ``engine.AndOrSearch`` against bare recursions.

Each reference below re-derives its game from Python sets and explicit
turn counts, with no memo, and shares no code with the helper or with the
games' ``expand`` functions.  On small seeded instances the games must
reproduce the references' outcomes and their first winning moves, in the
games' move order (vertex or variable index, Pass last unless preferred).
"""

from __future__ import annotations

import itertools
import random

import pytest

from lcsgame.engine import PASS, AndOrSearch, Budget, BudgetExceededError, Player
from lcsgame.generators import random_connected_gnm
from lcsgame.graphs import Graph
from lcsgame.reductions import CnfGameSolver, CnfInstance, HexGameSolver, HexInstance
from lcsgame.solver import _CompoundSkipGame, analyze_head, can_force_cds_within

from oracles import adj_dict, naive_cg_target, naive_score_target


def split_positions(items):
    """Every (mine, theirs) pair of disjoint subsets of ``items``."""
    for assign in itertools.product((0, 1, 2), repeat=len(items)):
        yield (frozenset(v for v, a in zip(items, assign) if a == 1),
               frozenset(v for v, a in zip(items, assign) if a == 2))


def playable_position(board, a, b):
    """Alice (``a``) and Bob (``b``) alternate from Alice, and ``board`` is not full."""
    return a.isdisjoint(b) and len(a) - len(b) in (0, 1) and (a | b) != board


# -- the helper on a subtraction game -------------------------------------------

# take 1 or 2 from a pile; whoever takes the last one wins.  A position is
# (pile, protagonist to move); the mover wins iff the pile is not a multiple of 3


def nim_expand(pos):
    pile, pro = pos
    if pile == 0:
        return not pro  # the protagonist took the last one
    return pro, ((take, (pile - take, not pro)) for take in (1, 2) if take <= pile)


class TestHelper:
    def test_outcomes(self):
        search = AndOrSearch(nim_expand)
        for pile in range(12):
            assert search.wins((pile, True)) is (pile % 3 != 0)
            assert search.wins((pile, False)) is (pile % 3 == 0)

    def test_moves_and_first(self):
        search = AndOrSearch(nim_expand)
        assert search.move((4, True)) == 1
        assert search.move((5, True)) == 2
        assert search.move((4, True), first=2) == 1  # 2 loses: not taken
        assert search.move((5, True), first=1) == 2
        assert search.move((7, True), first=2) == 1
        # no take wins for the mover from a multiple of 3
        assert search.move((6, True)) is None
        assert search.move((6, False)) is None
        assert search.move((4, False)) == 1  # Bob leaves a multiple of 3
        assert search.move((4, False), first=2) == 1
        assert search.move((3, False), first=2) is None
        assert search.move((0, True)) is None  # decided

    def test_first_is_tried_before_the_move_order(self):
        # both moves win, so only the preference picks between them
        def expand(pos):
            if pos == "end":
                return True
            return True, (("a", "end"), ("b", "end"))
        search = AndOrSearch(expand)
        assert search.move("root") == "a"
        assert search.move("root", first="b") == "b"

    def test_budget_counts_both_sides(self):
        # from (3, True): (3, T), (2, F), (1, T), (1, F) are expanded
        search = AndOrSearch(nim_expand, Budget(4))
        assert search.wins((3, True)) is False
        assert search.budget.spent == 4
        with pytest.raises(BudgetExceededError):
            AndOrSearch(nim_expand, Budget(3)).wins((3, True))

    def test_move_is_memoised_by_position_and_first(self):
        calls = []

        def expand(pos):
            calls.append(pos)
            return nim_expand(pos)
        search = AndOrSearch(expand)
        assert search.move((7, True)) == 1
        assert search.move((6, True)) is None
        before, spent = len(calls), search.budget.spent
        assert spent > 0
        assert search.move((7, True)) == 1
        assert search.move((6, True)) is None
        assert len(calls) == before and search.budget.spent == spent
        # another preferred move is a question of its own: the position is
        # expanded again, and its answer does not replace the first one
        assert search.move((7, True), first=2) == 1
        assert len(calls) == before + 1

        def both_win(pos):
            calls.append(pos)
            if pos == "end":
                return True
            return True, (("a", "end"), ("b", "end"))
        search = AndOrSearch(both_win)
        assert search.move("root") == "a"
        assert search.move("root", first="b") == "b"
        before = len(calls)
        assert search.move("root") == "a"
        assert search.move("root", first="b") == "b"
        assert len(calls) == before

    def test_memo_read_before_expand(self):
        calls = []

        def expand(pos):
            calls.append(pos)
            return nim_expand(pos)
        search = AndOrSearch(expand)
        search.wins((5, True))
        before = len(calls)
        search.wins((5, True))
        search.wins((2, True))
        assert len(calls) == before


# -- POS CNF --------------------------------------------------------------------


def ref_cnf_wins(clauses, nvars, true, false) -> bool:
    if all(c & true for c in clauses):
        return True
    if any(c <= false for c in clauses):
        return False
    free = sorted(set(range(nvars)) - true - false)
    if len(true) == len(false):
        return any(ref_cnf_wins(clauses, nvars, true | {v}, false) for v in free)
    return all(ref_cnf_wins(clauses, nvars, true, false | {v}) for v in free)


def ref_cnf_best(clauses, nvars, true, false) -> int:
    free = sorted(set(range(nvars)) - true - false)
    alice = len(true) == len(false)
    for v in free:
        if alice and ref_cnf_wins(clauses, nvars, true | {v}, false):
            return v
        if not alice and not ref_cnf_wins(clauses, nvars, true, false | {v}):
            return v
    return free[0]


def cnf_instances():
    rng = random.Random(41)
    out = []
    for _ in range(14):
        nvars = rng.randint(1, 5)
        clauses = [rng.sample(range(nvars), rng.randint(1, min(2, nvars)))
                   for _ in range(rng.randint(0, 6))]
        out.append(CnfInstance.of(nvars, clauses))
    return out


def to_mask(s) -> int:
    return sum(1 << v for v in s)


@pytest.mark.parametrize("cnf", cnf_instances(), ids=lambda c: f"{c.variable_count}v{len(c.clauses)}c")
def test_cnf_game_matches_reference(cnf):
    clauses = [frozenset(c) for c in cnf.clauses]
    n = cnf.variable_count
    solver = CnfGameSolver(cnf)
    want = ref_cnf_wins(clauses, n, frozenset(), frozenset())
    assert solver.winner is (Player.ALICE if want else Player.BOB)
    checked = 0
    for true, false in split_positions(list(range(n))):
        if playable_position(frozenset(range(n)), true, false):
            got = solver.best_variable(to_mask(true), to_mask(false))
            assert got == ref_cnf_best(clauses, n, true, false), (true, false)
            checked += 1
    assert checked


# -- Generalised Hex --------------------------------------------------------------


def ref_joined(adj, s, t, inside) -> bool:
    seen, stack = {s}, [s]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w in inside and w not in seen:
                seen.add(w)
                stack.append(w)
    return t in seen


def ref_hex_wins(adj, s, t, playable, red, blue) -> bool:
    if ref_joined(adj, s, t, red | {s, t}):
        return True
    if not ref_joined(adj, s, t, set(adj) - blue):
        return False
    free = sorted(playable - red - blue)
    if len(red) == len(blue):
        return any(ref_hex_wins(adj, s, t, playable, red | {v}, blue) for v in free)
    return all(ref_hex_wins(adj, s, t, playable, red, blue | {v}) for v in free)


def ref_hex_best(adj, s, t, playable, red, blue) -> int:
    free = sorted(playable - red - blue)
    alice = len(red) == len(blue)
    for v in free:
        if alice and ref_hex_wins(adj, s, t, playable, red | {v}, blue):
            return v
        if not alice and not ref_hex_wins(adj, s, t, playable, red, blue | {v}):
            return v
    return free[0]


def hex_instances():
    rng = random.Random(43)
    out = []
    while len(out) < 10:
        n = rng.randint(3, 7)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if (i, j) != (0, 1) and rng.random() < 0.5]
        try:
            out.append(HexInstance(Graph.from_edges(n, edges), 0, 1))
        except ValueError:  # recognisably non-planar with the s-t edge
            continue
    return out


@pytest.mark.parametrize("hx", hex_instances(), ids=lambda hx: f"n{hx.h.n}m{hx.h.edge_count}")
def test_hex_game_matches_reference(hx):
    adj = adj_dict(hx.h)
    playable = frozenset(range(hx.h.n)) - {hx.s, hx.t}
    solver = HexGameSolver(hx)
    want = ref_hex_wins(adj, hx.s, hx.t, playable, frozenset(), frozenset())
    assert solver.winner is (Player.ALICE if want else Player.BOB)
    checked = 0
    for red, blue in split_positions(sorted(playable)):
        if playable_position(playable, red, blue):
            got = solver.best_vertex(to_mask(red), to_mask(blue))
            assert got == ref_hex_best(adj, hx.s, hx.t, playable, red, blue), (red, blue)
            checked += 1
    assert checked


# -- forcing a connected dominating set ---------------------------------------------


def ref_contains_cds(adj, red) -> bool:
    rest = set(red)
    while rest:
        start = rest.pop()
        comp, stack = {start}, [start]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w in red and w not in comp:
                    comp.add(w)
                    stack.append(w)
        rest -= comp
        dominated = set(comp)
        for v in comp:
            dominated |= adj[v]
        if dominated == set(adj):
            return True
    return False


def ref_cds_wins(adj, r, red, blue) -> bool:
    """Alice to move: can she hold a CDS after one of her first r moves?"""
    free = set(adj) - red - blue
    for v in sorted(free):
        nred = red | {v}
        if ref_contains_cds(adj, nred):
            return True
        rest = free - {v}
        if len(nred) < r and rest and all(
                ref_cds_wins(adj, r, nred, blue | {w}) for w in sorted(rest)):
            return True
    return False


def cds_graphs():
    rng = random.Random(47)
    out = []
    for i in range(16):
        n = rng.randint(3, 7)
        top = n * (n - 1) // 2 if i % 2 else min(n + 2, n * (n - 1) // 2)
        out.append(random_connected_gnm(n, rng.randint(n - 1, top), rng))
    return out


@pytest.mark.parametrize("g", cds_graphs(), ids=lambda g: f"n{g.n}m{g.edge_count}")
def test_cds_forcing_matches_reference(g):
    adj = adj_dict(g)
    for r in range(1, 5):
        want = ref_cds_wins(adj, r, frozenset(), frozenset())
        assert can_force_cds_within(g, r) is want, r


def test_cds_budget_counts_both_players():
    # on K5 Alice's first move already dominates: only the root is expanded
    assert can_force_cds_within(Graph.from_edges(
        5, [(i, j) for i in range(5) for j in range(i + 1, 5)]), 1, max_states=1)
    # on P5 in two rounds: the root, Bob's position after each of the five
    # openings, and, below each, the one Alice position that refutes it
    p5 = Graph.from_edges(5, [(i, i + 1) for i in range(4)])
    assert can_force_cds_within(p5, 2, max_states=11) is False
    with pytest.raises(BudgetExceededError):
        can_force_cds_within(p5, 2, max_states=10)


# -- the compound one-skip head game ------------------------------------------------


class RefCompound:
    """Bare recursion over (red, blue, aP, bP, first) with the pass-order
    win conditions of the pseudo-spider head analysis."""

    def __init__(self, g, k, c_star, pro_alice, pro_passes):
        self.g, self.target = g, {v for v in range(g.n) if k >> v & 1}
        self.c_star, self.pro_alice = c_star, pro_alice
        self.pro_passes = pro_passes
        self.all = frozenset(range(g.n))

    def end_win(self, red, a_p, b_p, first) -> bool:
        sc = naive_score_target(self.g, set(red), self.target)
        own = 1 if self.pro_passes else 0
        mine = a_p if self.pro_alice else b_p
        if self.pro_alice:
            better, held = sc >= self.c_star + 1, sc >= self.c_star
        else:
            better, held = sc <= self.c_star - 1, sc <= self.c_star
        if first:  # the opponent passed before the protagonist did
            return better and mine == 0
        return mine == own and held

    def moves(self, pos):
        """(move, child) pairs in order: vertices by index, then Pass."""
        red, blue, a_p, b_p, first = pos
        free = sorted(self.all - red - blue)
        if not free:
            return []
        alice = len(red) + a_p == len(blue) + b_p
        out = []
        for v in free:
            if alice:
                out.append((v, (red | {v}, blue, a_p, b_p, first)))
            else:
                out.append((v, (red, blue | {v}, a_p, b_p, first)))
        mover_is_pro = alice == self.pro_alice
        used = a_p if alice else b_p
        if not used and (self.pro_passes or not mover_is_pro):
            pro_used = a_p if self.pro_alice else b_p
            nfirst = int(first or (not mover_is_pro and pro_used == 0))
            if alice:
                out.append(("pass", (red, blue, 1, b_p, nfirst)))
            else:
                out.append(("pass", (red, blue, a_p, 1, nfirst)))
        return out

    def wins(self, pos) -> bool:
        mv = self.moves(pos)
        red, blue, a_p, b_p, first = pos
        if not mv:
            return self.end_win(red, a_p, b_p, first)
        alice = len(red) + a_p == len(blue) + b_p
        if alice == self.pro_alice:
            return any(self.wins(child) for _, child in mv)
        return all(self.wins(child) for _, child in mv)

    def winning_move(self, pos, prefer_pass):
        mv = self.moves(pos)
        if prefer_pass:
            mv = [m for m in mv if m[0] == "pass"] + [m for m in mv if m[0] != "pass"]
        return next((m for m, child in mv if self.wins(child)), None)

    def positions(self, pos):
        """Every position reachable from ``pos``, each once."""
        seen, stack = {pos}, [pos]
        while stack:
            for _, child in self.moves(stack.pop()):
                if child not in seen:
                    seen.add(child)
                    stack.append(child)
        return seen


def head_instances():
    rng = random.Random(53)
    out = []
    for i in range(10):
        n = 1 + i % 4
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        out.append((Graph.from_edges(n, edges), rng.randint(0, (1 << n) - 1)))
    return out


ROOT = (frozenset(), frozenset(), 0, 0, 0)


def game_move_name(move):
    return "pass" if move is PASS else move


@pytest.mark.parametrize("g,k", head_instances(),
                         ids=lambda x: f"n{x.n}" if isinstance(x, Graph) else f"k{x}")
def test_compound_skip_game_matches_reference(g, k):
    c_star = naive_cg_target(g, {v for v in range(g.n) if k >> v & 1})
    ref = {(pa, pp): RefCompound(g, k, c_star, pa, pp)
           for pa in (True, False) for pp in (True, False)}
    head = analyze_head(g, k)
    assert head.c_star == c_star
    sa2, sb2 = ref[True, True].wins(ROOT), ref[False, True].wins(ROOT)
    assert not (sa2 and sb2)
    assert sa2 or sb2 or ref[True, False].wins(ROOT)
    assert head.mode == ("sa2" if sa2 else "sb2" if sb2 else "hold")
    assert (head._game is None) == sb2
    for (pa, pp), rg in ref.items():
        game = _CompoundSkipGame(g, k, c_star, Player.ALICE if pa else Player.BOB,
                                 protagonist_passes=pp)
        for pos in rg.positions(ROOT):
            red, blue, a_p, b_p, first = pos
            packed = (to_mask(red), to_mask(blue), a_p, b_p, first)
            alice = len(red) + a_p == len(blue) + b_p
            if alice != pa or not rg.moves(pos):
                continue
            for prefer_pass in (True, False):
                want = rg.winning_move(pos, prefer_pass)
                if want is None:
                    with pytest.raises(RuntimeError):
                        game.winning_move(*packed, prefer_pass=prefer_pass)
                else:
                    got = game.winning_move(*packed, prefer_pass=prefer_pass)
                    assert game_move_name(got) == want, (pos, prefer_pass)
