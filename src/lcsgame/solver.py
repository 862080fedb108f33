"""Exact game values by memoised minimax over bitboard positions.

Positions are pairs of packed vertex sets (plus skip counters where the
variant allows passing); the mover is derived from turn counts, never
stored, which keeps transposition keys small.  The default path answers
only threshold questions, with cutoffs and admissible static bounds; an
unpruned plain minimax is kept alongside so the no-effect-on-values
invariant can be checked directly.

``_Core.search`` is a memory-enhanced test, an MT call in the terms of
Plaat, Schaeffer, Pijls & de Bruin ("Best-first fixed-depth minimax
algorithms", AIJ 1996): a fail-soft alpha-beta search with the null window
(t - 1, t), which answers "is the value at least t?" with a bound: a result
r >= t proves value >= r, and r < t proves value <= r.  ``exact`` is their
MTD(+inf): it starts at t = n + 1 and, while the answer is no, moves t down
to the upper bound the failed test returned.  The first test returns the
root's static bound at once; the tests share one transposition table and
one state count.  Each table entry is the small int ``value * 2 + (value >=
t)``, the low bit marking a lower bound, and a later test at t' reads it
when that bound settles t'.  ``search`` probes the table before it computes
the static bound.

The pruned search carries two summaries of the red set down the recursion
instead of recomputing them at every node: ``reach``, the union of the red
vertices' neighbourhoods (so ``reach & uncolored`` is N(red) minus the
coloured vertices), and, for Plain and Connected, ``lc``, the order of the
largest red component, which is the score at a leaf and a lower bound at
every other node.  An Alice move updates both from the moved vertex alone;
when red is disconnected, the grown ``lc`` is memoised by the new red set.
The static bound of Plain and Connected reads the components of G - blue
from a cache keyed by blue: their order alone when G - blue is connected,
otherwise their (mask, order) pairs.

Six exact reductions cut the tree further, on no extra path:

- Neighbour-count bound (Plain and Connected).  Let red be connected, k the
  number of uncoloured neighbours of red, and fa the number of moves Alice
  has left.  Alice can keep playing uncoloured neighbours of red: each of
  her moves uses one of the k and adds only new ones, and each Bob move
  uses at most one, so her i-th such move is there while the 2i - 1 - alice
  moves before it have not used all k.  That gives her (k + alice) // 2 of
  them (at most fa), red stays connected, and the value is at least
  ``lb = rc + min(fa, (k + alice) // 2)``, which replaces ``lc`` as the
  lower bound.  When (k + alice) // 2 >= fa, lb is the static bound rc + fa
  and ``search`` returns it without computing the upper bound or storing an
  entry (the counting cutoff).
- Dead components (Plain and Connected).  The final largest red component
  lies in one component C of G - blue and has at most
  min(|C|, |C & red| + fa) vertices there; C is dead when that is at most
  lc.  Colouring a vertex of a dead component changes neither the score,
  which is lc or is made in a live component, nor any other component, so
  it is a pass.  A dead move v is never better than a live move w, by
  strategy stealing: after w, the mover follows their best strategy for
  the line after v with v and w swapped, so the two boards differ only in
  that w is the mover's and v has the colour w gets on the other line; v
  stays dead, and an extra red (blue) vertex never hurts Alice (Bob).  So
  dead vertices are dropped from the moves; if every uncoloured vertex is
  dead, ub <= lc and ``search`` returns before it generates moves.  In
  Connected the swap needs Alice's moves to stay out of dead components,
  which holds while red is connected: her moves touch red, whose component
  is live at every position that is not terminal.  So Connected drops dead
  moves only then; a given initial position may have red apart.
- Follow bound (Plain and Connected).  Let Bob, after each Alice move into
  a component C of G - blue, colour another vertex of C if one is left.
  Then every Alice move into C but perhaps the last is followed by a Bob
  move into C, so Alice gets at most ceil(k / 2) of C's k uncoloured
  vertices, for every C at once; Bob's other moves only hurt her, and
  Connected only ends play earlier.  As the final largest red component
  lies in one C, the value is at most the largest
  ``|C & red| + (k + 1) // 2``, which caps each component's bound.  The
  dead test above reads the bound before the cap: the dead-move swap needs
  C unable to beat lc whatever either player does, and under the cap it
  only cannot while Bob answers there, so an Alice move into C is a
  threat, not a pass.
- Better-move skip (every variant).  A vertex a dominates b when a != b,
  N(b) lies in N[a] and, for TargetSet and SkipBudget, b in x implies a in
  x.  Mutual domination is the twin relation: u < v are twins when
  N(u) - v == N(v) - u (equal open or equal closed neighbourhoods) and both
  or neither lie in x.  Swapping twins is an automorphism of the game that
  fixes every position in which both are uncoloured, so the move v leads
  to the image of the move u and has the same value.  A strict dominator a
  of b (one that b does not dominate back) is at least as good a move as b
  for either player under Plain, TargetSet and SkipBudget.  The mover plays
  a, then follows their best line after b with a and b swapped.  On these
  boards every uncoloured vertex is a legal move, so the swapped line stays
  legal and a pass maps to a pass; each final colouring is the b-line's with
  the colours of a and b exchanged.  So when they differ, Alice's line (she
  played a) ends with a red a where the b-line has a red b, and the b-line
  of Bob (he played b) ends with a red a where his line has a red b.  A red
  a in place of a red b never lowers the score: b's red component keeps
  its order, as a is adjacent to every other neighbour of b, and its
  contact with x; other red components can only join it.  So the mover is
  no worse off after a.  ``_better_moves`` lists, per vertex
  b, its lower twins and, except under Connected, its strict dominators;
  neither player's move b is searched while an entry of b is uncoloured.
  Connected keeps the twins only: there the swap changes which moves are
  legal and when play stops.  Twins are neighbours of red together, so the
  Connected move rule holds for the twin that is searched.
- Symmetric move skip (every variant).  An automorphism s of G that keeps
  membership in x and fixes every coloured vertex fixes the position, so
  the moves v and s(v) lead to images of each other and have the same
  value; the move v is not searched when s(v) < v.  ``_automorphism_masks``
  finds them (one per coset of the twin swaps, a bounded number) once per
  core, when ``exact`` sees between two probes that the core has expanded
  ``_SYMMETRY_AFTER`` states; a small search never pays for them.  The
  table keys stay the plain positions.

With every skip at once, each skipped move leads by a chain of uncoloured
moves, each at least as good as the one before, to a searched one.  The key
(degree, highest first; then membership in x first; then index) strictly
falls along the chain: a twin or an automorphism keeps the degree and
membership in x and lowers the index, and a strict dominator has the higher
degree (deg(a) >= deg(b) for any dominator, with equality exactly for
twins in G), or the same degree and lies in x where b does not.  So any set
of automorphisms is sound.  The chain also stays live, so the dead-move
drop never cuts it: a twin swap or an automorphism maps each component of
G - blue onto one of the same order and red count, and a dominator of a
live vertex is live.  For if b has a neighbour outside blue, it is a or a
neighbour of a, and b lies in a's component of G - blue; otherwise b is
alone in G - blue, with the bound min(1, fa), which is at most that of a's
component, so b is dead when a's component is.  The better-move table is
built once the core expands its second state: a search that settles in
one state never pays for it.

Move order.  Both players' move loops in ``search`` walk the neighbours of
red first and then the other moves, each part in one static order that
``_Core`` builds once: vertices by degree, highest first, ties by index.
The paper's bounds are stated in degrees (Alice's floor(Delta/2) + 1, and
the Delta + delta and edge-count conditions for A-perfection), so a
high-degree vertex is the natural first try for either player, and
alpha-beta cuts more when good moves come first (Knuth & Moore, 1975): the
3x5 grid takes 20 571 states, against 83 424 in index order.  Bob's loop
first tries his killer move (Akl & Newborn, 1977): the move of his last
cutoff at the same move number, the count of blue, kept per core.  A
refutation of one Alice move often refutes her siblings too, and is not
found again at each of them; with it, the follow bound and the better-move
skip the 3x5 grid takes 11 941 states.  Alice has no killer slot: one at her nodes too cut
the solves of the seeded G(16, 56) draws a little more but grew their
index-order PV re-searches (one draw from 259 to 1 803 states, the median
solve plus PV from 629 to 738).  The order decides which children are
searched before a cutoff, never a value.

Optimal moves (principal variations, extracted strategies, a pseudo-spider
head's plain moves) come from one routine, ``_Core.best_move``: given the
exact value t of a position, it returns the first legal move, by vertex
index with Pass last, whose successor keeps t, deciding each successor with
a null-window test (is it >= t after an Alice move, <= t after a Bob
move) instead of solving it exactly.  It skips a move only for a legal
entry of the better-move table with a lower index, and symmetric moves as
``search`` does: that lower move is at least as good, so it keeps the value
whenever the skipped move does, and it comes first; the move chosen is the
same.  A dominator with a higher index is no reason to skip.  It keeps the
moves into dead components, which may keep the value and come first.  It
keeps index order and not the search's degree order: the first
value-keeping move by index fixes the principal variations, the extracted
strategies and the seeded benchmark digests, and another order would pick
other optimal moves.  The price is search: the table holds what the solve
visited in degree order, so the index-order children it never reached are
searched afresh (the ``cartesian_grid(3, 4)`` line takes 1 371 states after
a 1 412-state solve).

The win/lose questions -- forcing a connected dominating set within r
rounds, and the pseudo-spider head's compound-skip games -- are each one
``expand`` function over the memoised ``engine.AndOrSearch``.  The head
analysis decides ``HeadAnalysis.mode`` once, under one reading of the pass
rule and with no pass-rule toggle (see ``analyze_head``).

One ``engine.Budget`` covers every search a call starts: ``cg`` on a
disconnected graph charges each component's core to it, and
``analyze_head`` its target-set solve and its one to three compound-skip
searches, so ``max_states`` and ``time_limit`` bound the call as a whole.
"""

from __future__ import annotations

from dataclasses import dataclass
from .engine import (
    PASS,
    AndOrSearch,
    Budget,
    ColorVertex,
    Connected,
    GameConfig,
    GameVariant,
    InternalError,
    Move,
    Plain,
    Player,
    SkipBudget,
    Strategy,
    TargetSet,
    _PassType,
    _legal_masks,
    apply_move,
    score,
)
from .graphs import (
    SOLVER_CAPACITY,
    CapacityError,
    Graph,
    bits,
    component_of,
    components,
    components_within,
    induced,
    largest_component_order,
)

DEFAULT_MAX_STATES = 500_000_000

_PLAIN_K, _TARGET_K, _CONNECTED_K, _SKIP_K = 0, 1, 2, 3

# states a core expands before ``exact`` looks for the automorphisms of G
_SYMMETRY_AFTER = 2048
# the automorphism search stops after this many maps or candidate images
_SYMMETRY_MAPS = 64
_SYMMETRY_STEPS = 20_000


def _variant_kind(variant: GameVariant) -> tuple[int, int]:
    if isinstance(variant, Plain):
        return _PLAIN_K, 0
    if isinstance(variant, TargetSet):
        return _TARGET_K, variant.x
    if isinstance(variant, Connected):
        return _CONNECTED_K, 0
    if isinstance(variant, SkipBudget):
        return _SKIP_K, variant.x
    raise TypeError(f"unknown variant {variant!r}")


def _better_moves(adj: list[int], x: int,
                  strict: bool) -> tuple[tuple[int, int], ...]:
    """``(bit, better)`` for each vertex b with moves at least as good as
    its own: ``better`` masks the lower twins of b and, with ``strict``, the
    vertices that strictly dominate b (see the module docstring).

    Each a in ``better`` dominates b: a != b, N(b) is in N[a], and b in x
    implies a in x; a is then adjacent to or equal to every neighbour of b.
    Then deg(a) >= deg(b), with equality exactly when N(a) - b == N(b) - a.
    So a dominator of equal degree that agrees with b on x is a twin of b,
    kept when a < b, and every other dominator is strict."""
    full = (1 << len(adj)) - 1
    deg = [nbrs.bit_count() for nbrs in adj]
    table = []
    for b, nbrs in enumerate(adj):
        bit = 1 << b
        # the dominators of b: the closed neighbourhoods of its neighbours
        # meet in them (bit loops inline: the table is built per core)
        dom = full & ~bit
        while nbrs and dom:
            low = nbrs & -nbrs
            dom &= adj[low.bit_length() - 1] | low
            nbrs ^= low
        if x & bit:
            dom &= x
        better = 0
        while dom:
            low = dom & -dom
            dom ^= low
            a = low.bit_length() - 1
            if deg[a] == deg[b] and (x >> a & 1) == (x >> b & 1):
                if a < b:
                    better |= low
            elif strict:
                better |= low
        if better:
            table.append((bit, better))
    return tuple(table)


def _automorphism_masks(g: Graph, x: int = 0) -> tuple[tuple[int, int], ...]:
    """``(fixed, down)`` for non-identity automorphisms of G that keep
    membership in ``x``: ``fixed`` masks the vertices the map fixes, ``down``
    those it sends to a lower index.

    Backtracking maps the vertices in index order, each to an unused vertex
    of the same colour (degree, sorted neighbour degrees, membership in x)
    whose adjacency to the images so far matches.  The twin swaps are left to
    the better-move skip: each vertex must map above the image of its next
    lower twin, so every coset of the twin swaps gives one map, the one that
    keeps twins in order.  The search stops after ``_SYMMETRY_MAPS`` maps or
    ``_SYMMETRY_STEPS`` candidate images, so it may return part of the
    group; the move skip is sound with any set of automorphisms."""
    adj = g.adj
    n = g.n
    deg = [a.bit_count() for a in adj]
    colour = [(deg[v], tuple(sorted(deg[w] for w in bits(adj[v]))), x >> v & 1)
              for v in range(n)]
    classes: dict[tuple, int] = {}
    for v, c in enumerate(colour):
        classes[c] = classes.get(c, 0) | 1 << v
    prev_twin = [-1] * n
    for bit, lower in _better_moves(adj, x, False):
        prev_twin[bit.bit_length() - 1] = lower.bit_length() - 1
    image = [0] * n
    maps: list[tuple[int, int]] = []
    steps = 0

    def extend(v: int, used: int) -> bool:
        """Map v, v + 1, ...; False once a bound stops the search."""
        nonlocal steps
        if v == n:
            fixed = down = 0
            for u, w in enumerate(image):
                if w == u:
                    fixed |= 1 << u
                elif w < u:
                    down |= 1 << u
            if fixed != g.full_mask:
                maps.append((fixed, down))
            return len(maps) < _SYMMETRY_MAPS
        want = 0  # the images of v's lower neighbours
        for u in bits(adj[v] & ((1 << v) - 1)):
            want |= 1 << image[u]
        free = classes[colour[v]] & ~used
        if prev_twin[v] >= 0:
            free &= -(2 << image[prev_twin[v]])
        for w in bits(free):
            steps += 1
            if steps > _SYMMETRY_STEPS:
                return False
            if adj[w] & used == want:
                image[v] = w
                if not extend(v + 1, used | 1 << w):
                    return False
        return True

    extend(0, 0)
    return tuple(maps)


class _Core:
    """Search core over one graph/variant; owns the transposition table.
    Each expanded state charges ``budget`` (by default a fresh
    ``Budget(DEFAULT_MAX_STATES)``), which other searches may share."""

    def __init__(self, g: Graph, variant: GameVariant, *,
                 use_pruning: bool = True, budget: Budget | None = None):
        if g.n > SOLVER_CAPACITY:
            raise CapacityError(
                f"solver requires n <= {SOLVER_CAPACITY}, got {g.n}")
        self.g = g
        self.adj = g.adj
        self.full_mask = g.full_mask
        self.variant = variant
        self.kind, self.x = _variant_kind(variant)
        # Plain and Connected score the largest red component, carried as lc
        self.tracks_lc = self.kind in (_PLAIN_K, _CONNECTED_K)
        self.a_budget = variant.alice_budget if self.kind == _SKIP_K else 0
        self.b_budget = variant.bob_budget if self.kind == _SKIP_K else 0
        self.use_pruning = use_pruning
        self.budget = Budget(DEFAULT_MAX_STATES) if budget is None else budget
        # ``search`` stores value * 2 + (value >= t), the low bit marking a
        # lower bound; ``search_plain`` stores the value.  A core runs only
        # one of the two (``use_pruning``), so they never share the table.
        self.tt: dict[int, int] = {}
        # the components of G - blue, by blue: the order alone when G - blue
        # is connected, otherwise a tuple of (mask, order) pairs
        self._live: dict[int, int | tuple[tuple[int, int], ...]] = {}
        # lc of a disconnected red set after an adjacent Alice move, by red
        self._lc: dict[int, int] = {}
        # the better-move table (see ``_better_moves``): strict dominators
        # under every variant but Connected; None until the core expands its
        # second state
        self._better: tuple[tuple[int, int], ...] | None = None
        # the search's move order: by degree, highest first, ties by index
        self._order = [1 << v for v in sorted(range(g.n),
                                              key=lambda v: -self.adj[v].bit_count())]
        # Bob's killer move per move number (blue's count): his last cutoff
        self._killers = [0] * (g.n + 1)
        # (fixed, down) per automorphism of G and x (see
        # ``_automorphism_masks``); None until ``exact`` looks for them
        self._syms: tuple[tuple[int, int], ...] | None = None
        self._spent0 = self.budget.spent

    def own_budget(self) -> None:
        """Charge a fresh budget of the same ``max_states`` from now on, as
        play does after the evaluation that built the core.  The count its
        lazy builds read, ``budget.spent - _spent0``, runs on from here."""
        spent = self.budget.spent - self._spent0
        self.budget = Budget(self.budget.max_states)
        self._spent0 = -spent

    # -- red-set summaries carried down the search ----------------------------

    def _red_summary(self, red: int) -> tuple[int, int]:
        """``reach``, the union of the neighbourhoods of the red vertices, and
        ``lc``, the order of the largest red component (0 unless tracked)."""
        reach = 0
        for v in bits(red):
            reach |= self.adj[v]
        lc = largest_component_order(self.adj, red) if self.tracks_lc and red else 0
        return reach, lc

    def _grown_lc(self, red: int, bit: int, reach: int, lc: int) -> int:
        """``lc`` after Alice colours ``bit``."""
        if not self.tracks_lc:
            return lc
        if not bit & reach:
            return lc or 1
        if lc == red.bit_count():  # red is connected, and bit touches it
            return lc + 1
        red |= bit
        grown = self._lc.get(red)
        if grown is None:
            grown = max(lc, component_of(self.adj, bit, red).bit_count())
            self._lc[red] = grown
        return grown

    # -- terminal and move machinery -----------------------------------------

    def _better_free(self, avail: int, below: bool = False) -> int:
        """``avail`` without each vertex that has an entry of the better-move
        table in ``avail`` (with ``below``, a lower-index one): that entry is
        a move at least as good."""
        moves = avail
        if below:
            for bit, better in self._better:
                if better & (bit - 1) & avail:
                    moves &= ~bit
            return moves
        for bit, better in self._better:
            if better & avail:
                moves &= ~bit
        return moves

    def _symmetric_free(self, colored: int, moves: int) -> int:
        """``moves`` without each vertex that an automorphism fixing every
        ``colored`` vertex sends to a lower one: its move leads to the image
        of that lower move."""
        for fixed, down in self._syms:
            if not colored & ~fixed:
                moves &= ~down
        return moves

    def _live_components(self, blue: int) -> int | tuple[tuple[int, int], ...]:
        """The cache entry of G - blue (see ``_live``), filled on a miss."""
        comps = components_within(self.adj, self.full_mask & ~blue)
        live = (comps[0].bit_count() if len(comps) == 1
                else tuple((c, c.bit_count()) for c in comps))
        self._live[blue] = live
        return live

    # -- pruned search --------------------------------------------------------

    def search(self, red: int, blue: int, ask: int, bsk: int,
               t: int, reach: int, lc: int) -> int:
        """Fail-soft test of value >= t: a result r >= t proves value >= r,
        and a result r < t proves value <= r.  ``reach`` and ``lc`` summarise
        red as ``_red_summary`` does; they are updated per move, never
        recomputed.

        After the terminal tests the transposition table is probed first;
        the counting cutoff (see the module docstring) and the static bounds
        (``ub`` from the live components of G - blue, or from the colourable
        vertices, and ``lb`` from the neighbour count or the score so far)
        are only computed when it does not settle the position."""
        uncolored = self.full_mask & ~(red | blue)
        rc = red.bit_count()
        bc = blue.bit_count()
        alice = (rc + ask) == (bc + bsk)
        kind = self.kind

        # terminal: a full board (unless the mover may still pass), or a
        # Connected Alice with no uncoloured neighbour of red
        if uncolored == 0 and (kind != _SKIP_K or not (
                (ask < self.a_budget) if alice else (bsk < self.b_budget))):
            return lc if self.tracks_lc else score(self.g, self.variant, red)
        if kind == _CONNECTED_K and alice and red and not reach & uncolored:
            return lc

        if kind == _SKIP_K:
            key = ((ask * 2 + bsk) << (2 * SOLVER_CAPACITY)) | (red << SOLVER_CAPACITY) | blue
        else:
            key = (red << SOLVER_CAPACITY) | blue
        hit = self.tt.get(key)
        if hit is not None and hit & 1 == (hit >> 1 >= t):
            return hit >> 1

        u = uncolored.bit_count()
        lb = lc
        dead = 0
        if kind == _SKIP_K:
            ub = rc + u
        else:
            fa = (u + 1) // 2 if alice else u // 2
            if self.tracks_lc and lc == rc:
                # neighbour count: Alice keeps taking free neighbours of red
                lb = rc + ((reach & uncolored).bit_count() + alice) // 2
                # counting cutoff: she takes one on each of her moves
                if lb >= rc + fa:
                    return rc + fa
            if kind == _TARGET_K:
                ub = (rc + fa) if self.x else 0
            else:
                # the final largest red component lies inside one component
                # of G - blue; a component that cannot beat lc is dead
                live = self._live.get(blue)
                if live is None:
                    live = self._live_components(blue)
                if live.__class__ is int:
                    ub = rc + fa if rc + fa < live else live
                else:
                    ub = 0
                    for comp, order in live:
                        cr = (comp & red).bit_count()
                        b = cr + fa
                        if order < b:
                            b = order
                        if b <= lc:
                            dead |= comp
                        # the follow bound, after the dead test: dead needs
                        # a bound that holds for any play
                        follow = cr + (order - cr + 1) // 2
                        if follow < b:
                            b = follow
                        if b > ub:
                            ub = b
        if ub < t:
            return ub
        if not self.tracks_lc and rc >= t:
            lb = score(self.g, self.variant, red)
        if lb >= t:
            return lb
        self.budget.tick()

        # the moves, without those the better-move table, the dead components
        # and the automorphisms make redundant; both loops walk the
        # neighbours of red (near) and then the rest (far), each in the degree
        # order, Bob's after his killer move (see the module docstring)
        better = self._better
        if better is None and self.budget.spent - self._spent0 > 1:
            better = self._better = _better_moves(self.adj, self.x,
                                                  kind != _CONNECTED_K)
        moves = self._better_free(uncolored) if better else uncolored
        if dead and (kind == _PLAIN_K or lc == rc):
            moves &= ~dead
        if self._syms:
            moves = self._symmetric_free(red | blue, moves)
        near = reach & moves
        far = 0 if kind == _CONNECTED_K and alice and red else moves & ~near
        order = self._order
        if alice:
            adj = self.adj
            best = -1
            for part in (near, far):
                for bit in order:
                    if not bit & part:
                        continue
                    val = self.search(red | bit, blue, ask, bsk, t,
                                      reach | adj[bit.bit_length() - 1],
                                      self._grown_lc(red, bit, reach, lc))
                    if val > best:
                        best = val
                        if best >= t:
                            break
                if best >= t:
                    break
            if kind == _SKIP_K and ask < self.a_budget and best < t:
                val = self.search(red, blue, ask + 1, bsk, t, reach, lc)
                if val > best:
                    best = val
        else:
            best = self.g.n + 1
            killer = self._killers[bc] & moves
            for part in (killer, near & ~killer, far & ~killer):
                for bit in order:
                    if not bit & part:
                        continue
                    val = self.search(red, blue | bit, ask, bsk, t, reach, lc)
                    if val < best:
                        best = val
                        if best < t:
                            self._killers[bc] = bit
                            break
                if best < t:
                    break
            if kind == _SKIP_K and bsk < self.b_budget and best >= t:
                val = self.search(red, blue, ask, bsk + 1, t, reach, lc)
                if val < best:
                    best = val
        self.tt[key] = best * 2 + (best >= t)
        return best

    # -- unpruned reference search ---------------------------------------------

    def search_plain(self, red: int, blue: int, ask: int, bsk: int) -> int:
        """Unpruned minimax value over every legal move, with the legality
        and the stop rule of ``engine._legal_masks`` and ``engine.score``."""
        if self.kind == _SKIP_K:
            key = ((ask * 2 + bsk) << (2 * SOLVER_CAPACITY)) | (red << SOLVER_CAPACITY) | blue
        else:
            key = (red << SOLVER_CAPACITY) | blue
        hit = self.tt.get(key)
        if hit is not None:
            return hit
        alice = red.bit_count() + ask == blue.bit_count() + bsk
        moves, pass_ok = _legal_masks(self.g, self.variant, red, blue, ask, bsk, alice)
        if not (moves or pass_ok):
            return score(self.g, self.variant, red)
        self.budget.tick()
        vals = [self.search_plain(red | 1 << v, blue, ask, bsk) if alice
                else self.search_plain(red, blue | 1 << v, ask, bsk)
                for v in bits(moves)]
        if pass_ok:
            vals.append(self.search_plain(red, blue, ask + alice, bsk + (not alice)))
        best = max(vals) if alice else min(vals)
        self.tt[key] = best
        return best

    # -- public helpers ----------------------------------------------------------

    def exact(self, red: int, blue: int, ask: int = 0, bsk: int = 0) -> int:
        """Exact value of a position; the pruned path runs the tests of
        MTD(+inf) from t = n + 1 down (see the module docstring)."""
        if not self.use_pruning:
            return self.search_plain(red, blue, ask, bsk)
        reach, lc = self._red_summary(red)
        t = self.g.n + 1
        while True:
            r = self.search(red, blue, ask, bsk, t, reach, lc)
            if r >= t:
                return t
            t = r
            if self._syms is None and \
                    self.budget.spent - self._spent0 >= _SYMMETRY_AFTER:
                self._syms = _automorphism_masks(self.g, self.x)

    def best_move(self, red: int, blue: int, ask: int, bsk: int,
                  t: int) -> int | _PassType | None:
        """First legal move, by vertex index with Pass last, whose successor
        keeps the position's exact value ``t`` (a vertex index or Pass; None
        when there is no legal move).  One test decides each successor: an
        Alice move keeps ``t`` when it is worth at least ``t``, a Bob move
        when it fails the test at ``t + 1``."""
        alice = (red.bit_count() + ask) == (blue.bit_count() + bsk)
        reach, lc = self._red_summary(red)
        legal, pass_ok = _legal_masks(self.g, self.variant, red, blue, ask, bsk, alice)
        # only a legal entry with a lower index skips: it keeps the value
        # whenever the skipped move does, and it comes first
        cand = self._better_free(legal, below=True) if self._better else legal
        if self._syms:
            cand = self._symmetric_free(red | blue, cand)
        moves: list[int | _PassType] = list(bits(cand))
        if pass_ok:
            moves.append(PASS)
        for move in moves:
            if move is PASS:
                child = (red, blue, ask + alice, bsk + (not alice), reach, lc)
            elif alice:
                bit = 1 << move
                child = (red | bit, blue, ask, bsk, reach | self.adj[move],
                         self._grown_lc(red, bit, reach, lc))
            else:
                child = (red, blue | 1 << move, ask, bsk, reach, lc)
            if not self.use_pruning:
                keep = self.search_plain(*child[:4]) == t
            elif alice:
                keep = self.search(*child[:4], t, *child[4:]) >= t
            else:
                keep = self.search(*child[:4], t + 1, *child[4:]) <= t
            if keep:
                return move
        if moves:
            raise InternalError("no value-preserving move found (solver bug)")
        return None


class OptimalStrategy(Strategy):
    """Value-preserving move chooser backed by a solver core's memo table.

    On each turn it recomputes the exact value of the current position
    (cached by the shared transposition table) and plays the lowest-index
    move, Pass last, whose successor keeps that value.
    """

    def __init__(self, core: _Core, name: str = "optimal"):
        self._core = core
        self.name = name

    def choose(self, g, variant, pos, state, last_opp):
        return self._core.best_move(*pos, self._core.exact(*pos)), None


class SolveResult:
    """Exact game value with the search statistics and extractable strategies.

    ``principal_variation`` is computed lazily from the memo table; it starts
    at ``initial``, and replaying it from there yields a position whose score
    equals ``value``.  For a disconnected Plain game it covers the decisive
    component (the one whose value is the game value).
    """

    def __init__(self, value: int, states_expanded: int, core: _Core,
                 initial: GameConfig = GameConfig(),
                 component_map: tuple[int, ...] | None = None):
        self.value = value
        self.states_expanded = states_expanded
        self._core = core
        self._initial = initial
        self._component_map = component_map
        self._pv: list[Move] | None = None

    @property
    def principal_variation(self) -> list[Move]:
        if self._pv is None:
            self._pv = self._compute_pv()
        return self._pv

    def _compute_pv(self) -> list[Move]:
        # every move on the line keeps the value, so one target serves all
        cfg = self._initial
        line: list[Move] = []
        while True:
            chosen = self._core.best_move(cfg.red, cfg.blue, cfg.alice_skips_used,
                                          cfg.bob_skips_used, self.value)
            if chosen is None:
                break
            move = chosen if chosen is PASS else ColorVertex(chosen)
            cfg = apply_move(cfg, cfg.mover(), move)
            if self._component_map is not None and chosen is not PASS:
                move = ColorVertex(self._component_map[chosen])
            line.append(move)
        return line

    def alice_strategy(self, name: str = "optimal-alice") -> Strategy:
        if self._component_map is not None:
            raise ValueError("strategy extraction needs a whole-graph solve; "
                             "re-solve the component of interest directly")
        return OptimalStrategy(self._core, name)

    def bob_strategy(self) -> Strategy:
        return self.alice_strategy("optimal-bob")


def cg(g: Graph, variant: GameVariant = Plain(), *,
       initial: GameConfig = GameConfig(),
       use_pruning: bool = True,
       max_states: int = DEFAULT_MAX_STATES,
       time_limit: float | None = None) -> SolveResult:
    """Exact game value under optimal play (Alice maximises, Bob minimises).

    For the Plain variant on a disconnected graph each connected component
    is solved independently and the maximum taken; all other variants solve
    the whole graph.  The state budget and the time limit cover the whole
    call: every component draws on one ``Budget``.
    """
    return _cg(g, variant, Budget(max_states, time_limit), initial, use_pruning)


def _cg(g: Graph, variant: GameVariant, budget: Budget,
        initial: GameConfig = GameConfig(), use_pruning: bool = True) -> SolveResult:
    """``cg`` charging the caller's ``budget``; ``states_expanded`` is what
    this solve added to it."""
    if g.n > SOLVER_CAPACITY:
        raise CapacityError(f"solver requires n <= {SOLVER_CAPACITY}, got {g.n}")
    initial.check(g)
    start = budget.spent
    if isinstance(variant, Plain) and not (initial.red or initial.blue or
                                           initial.alice_skips_used or
                                           initial.bob_skips_used):
        comps = components(g)
        if len(comps) > 1:
            best = None
            for comp in comps:
                sub, back = induced(g, comp)
                core = _Core(sub, variant, use_pruning=use_pruning, budget=budget)
                value = core.exact(0, 0)
                if best is None or value > best[0]:
                    best = (value, core, back)
            value, core, back = best
            return SolveResult(value, budget.spent - start, core, component_map=back)
    core = _Core(g, variant, use_pruning=use_pruning, budget=budget)
    value = core.exact(initial.red, initial.blue, initial.alice_skips_used,
                       initial.bob_skips_used)
    return SolveResult(value, budget.spent - start, core, initial)


def is_a_perfect(g: Graph, *, max_states: int = DEFAULT_MAX_STATES) -> bool:
    """True iff Alice can keep her whole colouring connected: value = ceil(n/2).

    One test of the whole graph at ceil(n/2), the static bound of the empty
    board."""
    t = (g.n + 1) // 2
    return _Core(g, Plain(), budget=Budget(max_states)).search(
        0, 0, 0, 0, t, 0, 0) >= t


# -- forcing a connected dominating set within r rounds -----------------------


def can_force_cds_within(g: Graph, r: int, *,
                         max_states: int = DEFAULT_MAX_STATES) -> bool:
    """Can Alice colour a connected dominating set by her r-th move, whatever
    Bob does?  Solved as a win/lose game truncated after Alice's r-th move.
    ``max_states`` bounds the positions expanded by either player."""
    if g.n > SOLVER_CAPACITY:
        raise CapacityError(f"solver requires n <= {SOLVER_CAPACITY}")
    if r < 1:
        raise ValueError("r must be >= 1")
    if g.n == 0:
        return True
    full = g.full_mask
    # whether red contains a connected dominating set, i.e. one of its
    # components dominates the graph; it depends on red alone
    has_cds: dict[int, bool] = {}

    def contains_cds(red: int) -> bool:
        hit = has_cds.get(red)
        if hit is None:
            hit = has_cds[red] = any(g.closed_neighborhood(comp) == full
                                     for comp in components_within(g.adj, red))
        return hit

    def expand(pos: tuple[int, int]):
        red, blue = pos
        uncolored = full & ~(red | blue)
        if red.bit_count() == blue.bit_count():  # Alice to move
            if uncolored == 0:
                return False
            return True, ((v, (red | 1 << v, blue)) for v in bits(uncolored))
        if contains_cds(red):
            return True
        if red.bit_count() >= r or uncolored == 0:
            return False
        return False, ((w, (red, blue | 1 << w)) for w in bits(uncolored))

    return AndOrSearch(expand, Budget(max_states)).wins((0, 0))


# -- the one-skip-each head analysis ------------------------------------------


@dataclass
class HeadAnalysis:
    """Outcome of analysing a pseudo-spider head G1 with target set K.

    ``c_star`` is the plain target-set value.  ``mode`` names the strategy
    that settles the head against an odd rest:

    - ``"sa2"``: Alice owns a compound skip strategy, a way to spend her one
      pass without losing value while punishing an earlier Bob pass by a
      full extra point;
    - ``"sb2"``: Bob owns the mirror strategy;
    - ``"hold"``: neither exists, and Alice's holding strategy (never pass,
      keep the straight value, and still punish a Bob pass by a point)
      wins, so the head's parity settles the value.

    Sa2 and Sb2 never both exist, so ``analyze_head`` searches Sb2 only when
    Sa2 does not exist.  The two games have the same moves, so let Alice
    follow Sa2 and Bob follow Sb2 in one play.  If nobody passes, Sa2's end
    condition (Alice has passed) fails.  If Alice passes first, Sa2 needs a
    score of at least c_star and Sb2 at most c_star - 1; if Bob passes
    first, Sa2 needs at least c_star + 1 and Sb2 at most c_star.  Each end
    contradicts one of the two, so they cannot both win.

    ``analyze_head`` raises ``InternalError`` when neither compound skip
    strategy exists and the holding strategy fails: the pseudo-spider rule
    reads no value from such a head.
    """

    c_star: int
    mode: str
    # by the target-set solve of c_star and the compound-skip searches
    states_expanded: int = 0

    # solver handles kept for strategy extraction: ``_game`` is the Sa2
    # game under "sa2", the holding game under "hold" and None under "sb2";
    # ``_core`` is the core of the c_star solve
    _game: "_CompoundSkipGame | None" = None
    _core: "_Core | None" = None


class _CompoundSkipGame:
    """Win/lose analysis of the one-skip-each target game with pass-order
    win conditions (the existence questions for the Sa2/Sb2-style strategies).

    State: (red, blue, aP, bP, first) where ``first`` records that the
    antagonist passed while the protagonist had not yet passed.

    A pass stands for a move into the rest of a larger graph, so it is legal
    only while uncoloured vertices remain: nobody is ever forced to pass,
    and the game ends the moment the board is full.  (Allowing passes on a
    full board would force the protagonist to burn an unspent pass at the
    end, wrongly poisoning otherwise winning lines.)
    """

    def __init__(self, g: Graph, x: int, c_star: int, protagonist: Player,
                 protagonist_passes: bool = True, budget: Budget | None = None):
        self.g = g
        self.x = x
        self.c_star = c_star
        self.protagonist = protagonist
        # holding variant: the protagonist never passes, only defends the
        # straight value while punishing the opponent's pass by a point
        self.protagonist_passes = protagonist_passes
        self.search = AndOrSearch(self._expand, budget)

    def _terminal_win(self, red: int, blue: int, a_p: int, b_p: int,
                      first: int) -> bool:
        sc = score(self.g, TargetSet(self.x), red)
        own_passes = 1 if self.protagonist_passes else 0
        if self.protagonist is Player.ALICE:
            if first:  # Bob passed before any Alice pass, and she never does
                return a_p == 0 and sc >= self.c_star + 1
            return a_p == own_passes and sc >= self.c_star
        if first:  # Alice passed before any Bob pass, and he never does
            return b_p == 0 and sc <= self.c_star - 1
        return b_p == own_passes and sc <= self.c_star

    def _expand(self, pos: tuple[int, int, int, int, int]):
        red, blue, a_p, b_p, first = pos
        uncolored = self.g.full_mask & ~(red | blue)
        if not uncolored:
            return self._terminal_win(red, blue, a_p, b_p, first)
        alice = (red.bit_count() + a_p) == (blue.bit_count() + b_p)
        pro_alice = self.protagonist is Player.ALICE

        def children():  # vertices by index, then the pass when legal
            for v in bits(uncolored):
                if alice:
                    yield v, (red | 1 << v, blue, a_p, b_p, first)
                else:
                    yield v, (red, blue | 1 << v, a_p, b_p, first)
            if alice and a_p == 0 and (self.protagonist_passes or not pro_alice):
                yield PASS, (red, blue, 1, b_p, int(first or (not pro_alice and b_p == 0)))
            if not alice and b_p == 0 and (self.protagonist_passes or pro_alice):
                yield PASS, (red, blue, a_p, 1, int(first or (pro_alice and a_p == 0)))

        return alice == pro_alice, children()

    def winning_move(self, red: int, blue: int, a_p: int, b_p: int,
                     first: int, prefer_pass: bool) -> int | _PassType:
        """Protagonist's winning move, a vertex index or Pass; Pass is
        preferred when requested and winning, otherwise the lowest-index
        winning vertex is played."""
        move = self.search.move((red, blue, a_p, b_p, first),
                                PASS if prefer_pass else None)
        if move is None:
            raise RuntimeError("position is not winning for the protagonist")
        return move


def analyze_head(g1: Graph, k: int, *, max_states: int = DEFAULT_MAX_STATES,
                 time_limit: float | None = None) -> HeadAnalysis:
    """Analyse a constant-size head: the target-set value plus the mode of
    the pseudo-spider rule (see ``HeadAnalysis``).

    The pass rule has one reading: the player who benefits from the
    opponent's earlier pass must not pass afterwards.  ``max_states`` and
    ``time_limit`` bound the target-set solve and the compound-skip searches
    together.
    """
    return _analyze_head(g1, k, Budget(max_states, time_limit))


def _analyze_head(g1: Graph, k: int, budget: Budget) -> HeadAnalysis:
    """``analyze_head`` charging the caller's ``budget``; ``states_expanded``
    is what the analysis added to it."""
    if k & ~g1.full_mask:
        raise ValueError("target set outside head graph")
    start = budget.spent
    solve = _cg(g1, TargetSet(k), budget)
    c_star = solve.value

    def solved(protagonist: Player, passes: bool = True):
        game = _CompoundSkipGame(g1, k, c_star, protagonist, passes, budget)
        return game, game.search.wins((0, 0, 0, 0, 0))

    game, exists = solved(Player.ALICE)
    if exists:
        mode = "sa2"
    elif solved(Player.BOB)[1]:
        mode, game = "sb2", None
    else:
        game, holds = solved(Player.ALICE, passes=False)
        if not holds:
            raise InternalError(
                "no compound skip strategy exists and the holding strategy fails")
        mode = "hold"
    return HeadAnalysis(c_star, mode, budget.spent - start,
                        _game=game, _core=solve._core)
