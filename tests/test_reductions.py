"""Hardness constructions, source-game solvers, and strategy lifting."""

from __future__ import annotations

import random

import pytest

from lcsgame.engine import (
    ARBITRARY,
    PLAIN,
    Player,
    Strategy,
    play_match,
    random_playouts,
    verify_strategy_exhaustive,
)
from lcsgame.graphs import Graph, Planarity, bits, diameter, is_bipartite, planarity_check
from lcsgame.reductions import (
    _A_HEX,
    _A_HUB_S,
    _A_HUB_T,
    _A_LEAF_S,
    _A_LEAF_T,
    _A_OPEN_S,
    _A_T,
    _A_THIRD,
    CnfGameSolver,
    CnfInstance,
    HexGameSolver,
    HexInstance,
    build_bipartite,
    build_planar,
    build_split,
    format_cnf,
    format_hex,
    hex_from_document,
    lift_strategy,
    parse_cnf,
)
from lcsgame.graphs import parse_graph
from lcsgame.solver import cg


def hex_path4():
    return HexInstance(Graph.from_edges(4, [(0, 2), (2, 3), (3, 1)]), 0, 1)


def hex_two_paths():
    return HexInstance(Graph.from_edges(4, [(0, 2), (2, 1), (0, 3), (3, 1)]), 0, 1)


class TestCnfInstances:
    def test_empty_clause_rejected(self):
        with pytest.raises(ValueError):
            CnfInstance.of(2, [()])

    def test_out_of_range_variable(self):
        with pytest.raises(ValueError):
            CnfInstance.of(2, [(2,)])


class TestPosCnf:
    def test_single_clause_single_var(self):
        assert CnfGameSolver(CnfInstance.of(2, [(0,)])).winner is Player.ALICE

    def test_two_singleton_clauses(self):
        assert CnfGameSolver(CnfInstance.of(2, [(0,), (1,)])).winner is Player.BOB

    def test_empty_formula_vacuous(self):
        assert CnfGameSolver(CnfInstance.of(2, [])).winner is Player.ALICE

    def test_variable_cap(self):
        with pytest.raises(ValueError):
            CnfGameSolver(CnfInstance.of(17, [(0,)]))

    def test_best_variable_keeps_win(self):
        solver = CnfGameSolver(CnfInstance.of(2, [(0, 1)]))
        x = solver.best(0, 0)
        assert solver.search.wins((1 << x, 0))


class TestHexGame:
    def test_middle_of_p3(self):
        hx = HexInstance(Graph.from_edges(3, [(0, 2), (2, 1)]), 0, 1)
        assert HexGameSolver(hx).winner is Player.ALICE

    def test_two_disjoint_paths(self):
        assert HexGameSolver(hex_two_paths()).winner is Player.ALICE

    def test_single_long_path(self):
        assert HexGameSolver(hex_path4()).winner is Player.BOB

    def test_size_cap(self):
        g = Graph.from_edges(19, [(i, i + 1) for i in range(18)])
        with pytest.raises(ValueError):
            HexGameSolver(HexInstance(g, 0, 18))

    def test_adjacent_outside_pair_rejected(self):
        with pytest.raises(ValueError):
            HexInstance(Graph.from_edges(2, [(0, 1)]), 0, 1)

    def test_nonplanar_pair_rejected(self):
        edges = [(i, j) for i in range(5) for j in range(i + 1, 5)]
        edges.remove((0, 1))
        with pytest.raises(ValueError):
            HexInstance(Graph.from_edges(5, edges), 0, 1)


class TestBipartiteBuild:
    def test_counts_and_k(self):
        out = build_bipartite(CnfInstance.of(2, [(0, 1)]))
        assert out.g.n == 6 and out.k == 3

    def test_padding_appends_dummy(self):
        out = build_bipartite(CnfInstance.of(1, [(0,)]))
        assert out.g.n == 6 and out.k == 3
        assert out.var_count == 2
        assert out.g.degree(1) == 2  # the dummy sees only the two hubs

    def test_structure(self):
        out = build_bipartite(CnfInstance.of(4, [(0, 1, 2), (2, 3)]))
        ok, _ = is_bipartite(out.g)
        assert ok and diameter(out.g) <= 4

    def test_outcome_equivalence_sample(self):
        cnf = CnfInstance.of(2, [(0, 1)])
        assert CnfGameSolver(cnf).winner is Player.ALICE
        out = build_bipartite(cnf)
        assert cg(out.g).value >= out.k

    def test_role_map_total(self):
        out = build_bipartite(CnfInstance.of(2, [(0,)]))
        assert set(out.role_map) == set(range(out.g.n))


class TestSplitBuild:
    def test_counts(self):
        out = build_split(CnfInstance.of(2, [(0, 1)]))
        assert out.g.n == 4 and out.k == 2

    def test_outcome_equivalence_small(self):
        for clauses in ([(0,)], [(0, 1)], [(0,), (1,)], [(0, 1), (1,)]):
            cnf = CnfInstance.of(2, clauses)
            winner = CnfGameSolver(cnf).winner
            out = build_split(cnf)
            assert (winner is Player.ALICE) == (cg(out.g).value >= out.k)


class TestPlanarBuild:
    def test_counts_and_k(self):
        out = build_planar(hex_path4())
        assert out.g.n == 58 and out.k == 9

    def test_odd_instance_padded(self):
        hx = HexInstance(Graph.from_edges(3, [(0, 2), (2, 1)]), 0, 1)
        out = build_planar(hx)
        n_pad = out.hex_vertices.bit_count()
        assert n_pad == 4 and out.g.n == 58 and out.k == 9

    def test_not_nonplanar(self):
        assert planarity_check(build_planar(hex_path4()).g) is not Planarity.NON_PLANAR

    def test_role_counts(self):
        out = build_planar(hex_path4())
        hubs = [v for v, r in out.role_map.items() if r.startswith(("s0", "t0"))]
        leaves = [v for v, r in out.role_map.items() if r.startswith("leaf")]
        n_pad = out.hex_vertices.bit_count()
        assert len(hubs) == 6 and len(leaves) == 6 * (n_pad + 4)


class TestLifts:
    def test_bipartite_bob_holds_threshold(self):
        cnf = CnfInstance.of(2, [(0,), (1,)])
        out = build_bipartite(cnf)
        solver = CnfGameSolver(out.source_cnf)
        assert solver.winner is Player.BOB
        bob = lift_strategy(out, Player.BOB, solver)
        v = verify_strategy_exhaustive(out.g, PLAIN, bob, Player.BOB)
        assert v < out.k

    def test_bipartite_alice_reaches_threshold(self):
        cnf = CnfInstance.of(2, [(0, 1)])
        out = build_bipartite(cnf)
        solver = CnfGameSolver(out.source_cnf)
        assert solver.winner is Player.ALICE
        alice = lift_strategy(out, Player.ALICE, solver)
        v = verify_strategy_exhaustive(out.g, PLAIN, alice, Player.ALICE)
        assert v >= out.k

    def test_split_lifts_both_sides(self):
        for clauses, winner in ([[(0, 1)], Player.ALICE],
                                [[(0,), (1,)], Player.BOB]):
            cnf = CnfInstance.of(2, clauses)
            out = build_split(cnf)
            solver = CnfGameSolver(out.source_cnf)
            assert solver.winner is winner
            lifted = lift_strategy(out, winner, solver)
            v = verify_strategy_exhaustive(out.g, PLAIN, lifted, winner)
            if winner is Player.ALICE:
                assert v >= out.k
            else:
                assert v < out.k

    def test_planar_bob_randomised_bound(self):
        out = build_planar(hex_path4())
        solver = HexGameSolver(out.source_hex)
        assert solver.winner is Player.BOB
        bob = lift_strategy(out, Player.BOB, solver)
        n_pad = out.hex_vertices.bit_count()
        scores = random_playouts(out.g, PLAIN, bob, Player.BOB, 2000, seed=7)
        assert max(scores) <= n_pad + 3

    def test_planar_alice_randomised_bound(self):
        hx = HexInstance(Graph.from_edges(3, [(0, 2), (2, 1)]), 0, 1)
        out = build_planar(hx)
        solver = HexGameSolver(out.source_hex)
        assert solver.winner is Player.ALICE
        alice = lift_strategy(out, Player.ALICE, solver)
        scores = random_playouts(out.g, PLAIN, alice, Player.ALICE, 2000, seed=8)
        assert min(scores) >= out.k

    def test_planar_alice_vs_hub_grabbing_bob(self):
        # a Bob that contests the pendant stars first pushes Alice into the
        # lifted hex line; she must still reach the threshold
        hx = HexInstance(Graph.from_edges(3, [(0, 2), (2, 1)]), 0, 1)
        out = build_planar(hx)
        solver = HexGameSolver(out.source_hex)
        alice = lift_strategy(out, Player.ALICE, solver)
        stars = out.s_group | out.t_group

        class HubGrabber(Strategy):
            name = "hub-grabber"

            def choose(self, g, variant, pos, state, last_opp):
                avail = stars & ~(pos[0] | pos[1])
                if avail:
                    return (avail & -avail).bit_length() - 1, None
                return ARBITRARY, None

        trace = play_match(out.g, PLAIN, alice, HubGrabber())
        assert trace.score >= out.k

    def test_kind_mismatch_rejected(self):
        cnf = CnfInstance.of(2, [(0,)])
        out = build_bipartite(cnf)
        with pytest.raises(ValueError):
            lift_strategy(out, Player.BOB, HexGameSolver(hex_path4()))

    def test_source_mismatch_rejected(self):
        out = build_bipartite(CnfInstance.of(2, [(0,)]))
        other = CnfGameSolver(CnfInstance.of(2, [(1,)]))
        with pytest.raises(ValueError):
            lift_strategy(out, Player.BOB, other)


class TestFormats:
    def test_cnf_round_trip(self):
        cnf = CnfInstance.of(3, [(0, 2), (1,)])
        assert parse_cnf(format_cnf(cnf)) == cnf

    def test_cnf_header_shape(self):
        text = format_cnf(CnfInstance.of(2, [(0, 1)]))
        assert text.splitlines()[0] == "p poscnf 2 1"
        assert text.splitlines()[1] == "1 2 0"

    @pytest.mark.parametrize("text,frag", [
        ("1 0\n", "problem line"),
        ("p poscnf 2 1\n1 2\n", "end with 0"),
        ("p poscnf 2 1\n-1 0\n", "positive"),
        ("p poscnf 2 1\n3 0\n", "out of range"),
        ("p poscnf 2 2\n1 0\n", "mismatch"),
        ("p poscnf x 1\n1 0\n", "line 1: a problem-line count must be a non-negative"),
    ])
    def test_cnf_errors(self, text, frag):
        from lcsgame.graphs import FormatError
        with pytest.raises(FormatError, match=frag):
            parse_cnf(text)

    def test_hex_round_trip(self):
        hx = hex_path4()
        doc = parse_graph(format_hex(hx))
        back = hex_from_document(doc)
        assert back.h.adj == hx.h.adj and (back.s, back.t) == (hx.s, hx.t)

    def test_hex_missing_terminals(self):
        from lcsgame.graphs import FormatError
        with pytest.raises(FormatError):
            hex_from_document(parse_graph("n 2\n"))


class TestLiftGuaranteesExhaustive:
    def test_every_small_cnf_both_builds(self):
        # the winner's lifted strategy meets the proof bound on every small
        # instance, against all opposing play
        from lcsgame.acceptance import _all_cnf_instances
        for cnf in _all_cnf_instances():
            for build in (build_bipartite, build_split):
                out = build(cnf)
                solver = CnfGameSolver(out.source_cnf)
                winner = solver.winner
                lifted = lift_strategy(out, winner, solver)
                v = verify_strategy_exhaustive(out.g, PLAIN, lifted, winner)
                if winner is Player.ALICE:
                    assert v >= out.k, (out.kind, cnf)
                else:
                    assert v < out.k, (out.kind, cnf)


class TestPlanarLiftsAdversarial:
    def _targeted_adversaries(self, out, side):
        from lcsgame.engine import Strategy

        masks = {
            "hex-first": out.hex_vertices,
            "stars-first": out.s_group | out.t_group,
            "leaves-first": 0,
        }
        for leaves in out.hub_leaves.values():
            masks["leaves-first"] |= leaves

        def make(name, prio):
            class Targeted(Strategy):
                def choose(self, g, variant, pos, state, last_opp):
                    avail = prio & ~(pos[0] | pos[1])
                    if avail:
                        return (avail & -avail).bit_length() - 1, None
                    return ARBITRARY, None

            t = Targeted()
            t.name = name
            return t

        return [make(k, v) for k, v in masks.items()]

    def test_bob_lift_against_targeted_alices(self):
        hx = hex_path4()
        out = build_planar(hx)
        solver = HexGameSolver(out.source_hex)
        bob = lift_strategy(out, Player.BOB, solver)
        n_pad = out.hex_vertices.bit_count()
        for alice in self._targeted_adversaries(out, Player.ALICE):
            trace = play_match(out.g, PLAIN, alice, bob)
            assert trace.score <= n_pad + 3, alice.name

    def test_alice_lift_against_targeted_bobs(self):
        hx = HexInstance(Graph.from_edges(3, [(0, 2), (2, 1)]), 0, 1)
        out = build_planar(hx)
        solver = HexGameSolver(out.source_hex)
        alice = lift_strategy(out, Player.ALICE, solver)
        for bob in self._targeted_adversaries(out, Player.BOB):
            trace = play_match(out.g, PLAIN, alice, bob)
            assert trace.score >= out.k, bob.name


class TestPlanarAlicePhases:
    """Bobs that contest the pendant stars in the proof's order drive Alice's
    planar lift through every phase of its opening protocol."""

    class StarFirstBob(Strategy):
        """Takes an s-hub, else a t-hub, else a hex vertex, three times in
        four; otherwise any vertex.  Seeded by the position, so it is
        deterministic."""

        name = "star-first"

        def __init__(self, out, seed):
            self.seed = seed
            self.classes = (out.s_group & ~(1 << out.s_vertex),
                            out.t_group & ~(1 << out.t_vertex), out.hex_vertices)

        def choose(self, g, variant, pos, state, last_opp):
            free = g.full_mask & ~(pos[0] | pos[1])
            rng = random.Random(f"{self.seed}/{pos[0]}/{pos[1]}")
            pool = free
            if rng.random() < 0.75:
                pool = next(c & free for c in self.classes + (free,) if c & free)
            return rng.choice(list(bits(pool))), None

    class PhaseRecorder(Strategy):
        def __init__(self, inner):
            self.inner = inner
            self.name = inner.name
            self.phases = set()

        def initial_state(self):
            return self.inner.initial_state()

        def choose(self, g, variant, pos, state, last_opp):
            move, after = self.inner.choose(g, variant, pos, state, last_opp)
            self.phases |= {state[0], after[0]}
            return move, after

    @pytest.mark.parametrize("edges", [
        [(0, 2), (2, 1)],
        [(0, 2), (2, 1), (0, 3), (3, 1)],
        [(0, 2), (2, 1), (0, 3), (3, 4), (4, 1)],
    ], ids=["path3", "two_paths4", "fork5"])
    def test_every_phase_reached_and_threshold_kept(self, edges):
        h = Graph.from_edges(max(max(e) for e in edges) + 1, edges)
        out = build_planar(HexInstance(h, 0, 1))
        solver = HexGameSolver(out.source_hex)
        assert solver.winner is Player.ALICE
        alice = self.PhaseRecorder(lift_strategy(out, Player.ALICE, solver))
        for seed in range(40):
            trace = play_match(out.g, PLAIN, alice, self.StarFirstBob(out, seed))
            assert trace.score >= out.k, seed
        assert alice.phases == {_A_OPEN_S, _A_HUB_S, _A_THIRD, _A_T, _A_HUB_T,
                                _A_LEAF_S, _A_LEAF_T, _A_HEX}


class TestSecondHexInstances:
    def test_bob_lift_on_padded_instance(self):
        # 5-vertex path instance: odd order exercises the parity leaf
        h = Graph.from_edges(5, [(0, 2), (2, 3), (3, 4), (4, 1)])
        hx = HexInstance(h, 0, 1)
        out = build_planar(hx)
        assert out.hex_vertices.bit_count() == 6  # padded
        solver = HexGameSolver(out.source_hex)
        assert solver.winner is Player.BOB
        bob = lift_strategy(out, Player.BOB, solver)
        n_pad = 6
        scores = random_playouts(out.g, PLAIN, bob, Player.BOB, 3000, seed=11)
        assert max(scores) <= n_pad + 3

    def test_alice_lift_on_fork_instance(self):
        h = Graph.from_edges(5, [(0, 2), (2, 1), (0, 3), (3, 4), (4, 1)])
        hx = HexInstance(h, 0, 1)
        out = build_planar(hx)
        solver = HexGameSolver(out.source_hex)
        assert solver.winner is Player.ALICE
        alice = lift_strategy(out, Player.ALICE, solver)
        scores = random_playouts(out.g, PLAIN, alice, Player.ALICE, 3000, seed=12)
        assert min(scores) >= out.k
