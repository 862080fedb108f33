"""Family generators: layouts, structural self-checks, round-trips."""

from __future__ import annotations

import random

import pytest

from lcsgame.generators import (
    cartesian_grid,
    clique_chain,
    clique_pendant_path,
    complete_bipartite,
    cycle,
    generate,
    gnm,
    hex_patch,
    king_grid_2rows,
    path,
    random_cubic,
    regular4_chain,
    regular5_chain,
    spider,
    subdivided_star,
    two_cliques_bridge,
)
from lcsgame.graphs import (
    Matching,
    Planarity,
    format_graph,
    is_bipartite,
    is_connected,
    mask_of,
    parse_graph,
    planarity_check,
)
from lcsgame.solver import is_a_perfect


class TestRegularFamilies:
    def test_clique_chain_is_regular(self):
        for d, nch in ((3, 2), (3, 3), (4, 2), (5, 2)):
            g = clique_chain(d, nch).graph
            assert g.n == nch * (d + 1)
            assert all(g.degree(v) == d for v in range(g.n))
            assert is_connected(g)

    def test_clique_chain_3_3_example(self):
        g = clique_chain(3, 3).graph
        assert g.n == 12 and all(g.degree(v) == 3 for v in range(12))

    def test_regular4_chain(self):
        for nch in (3, 4, 5):
            g = regular4_chain(nch).graph
            assert all(g.degree(v) == 4 for v in range(g.n))

    def test_regular4_chain_a_perfect(self):
        assert is_a_perfect(regular4_chain(4).graph)

    def test_regular5_chain(self):
        for d, nch in ((5, 2), (5, 3), (6, 2)):
            g = regular5_chain(d, nch).graph
            assert all(g.degree(v) == d for v in range(g.n))

    def test_parameter_domains(self):
        with pytest.raises(ValueError):
            clique_chain(2, 2)
        with pytest.raises(ValueError):
            regular4_chain(2)
        with pytest.raises(ValueError):
            regular5_chain(4, 3)


class TestSharpnessExamples:
    def test_two_cliques_bridge_not_a_perfect(self):
        for d in (3, 4, 5):
            fg = two_cliques_bridge(d)
            assert fg.graph.max_degree + fg.graph.min_degree == fg.graph.n - 1
            assert not is_a_perfect(fg.graph)

    def test_clique_pendant_path_sharp(self):
        fg = clique_pendant_path(3)
        n = fg.graph.n
        assert n == 5 and fg.graph.edge_count == (n - 2) * (n - 3) // 2 + 2
        assert not is_a_perfect(fg.graph)

    def test_clique_pendant_path_even_clique_rejected(self):
        with pytest.raises(ValueError):
            clique_pendant_path(4)

    def test_subdivided_star(self):
        fg = subdivided_star(4)
        g = fg.graph
        assert g.n == 6 and g.edge_count == 5
        assert g.degree(0) == 4
        assert is_a_perfect(g)


class TestSpiders:
    def test_matched_axioms_checked(self):
        fg = spider("matched", 3, r_size=2)
        g = fg.graph
        s_mask, k_mask = mask_of(range(3)), mask_of(range(3, 6))
        for i in range(3):
            assert g.adj[i] & k_mask == 1 << (3 + i)
        assert fg.meta["fmap"] == [(0, 3), (1, 4), (2, 5)]

    def test_antimatched_axioms(self):
        fg = spider("antimatched", 3)
        g = fg.graph
        k_mask = mask_of(range(3, 6))
        for i in range(3):
            assert g.adj[i] & k_mask == k_mask & ~(1 << (3 + i))

    def test_r_graph_embedding(self):
        from lcsgame.graphs import Graph
        r = Graph.from_edges(3, [(0, 1), (1, 2)])
        fg = spider("matched", 2, r_graph=r)
        g = fg.graph
        assert g.has_edge(4, 5) and g.has_edge(5, 6) and not g.has_edge(4, 6)

    def test_k_below_two_rejected(self):
        with pytest.raises(ValueError):
            spider("matched", 1)


class TestGrids:
    def test_cartesian_grid_shape(self):
        g = cartesian_grid(2, 3).graph
        assert g.n == 6 and g.edge_count == 7

    def test_king_grid_columns_fully_joined(self):
        fg = king_grid_2rows(4)
        g = fg.graph
        for j in range(3):
            for a in (0, 1):
                for b in (0, 1):
                    assert g.has_edge(2 * j + a, 2 * (j + 1) + b)
        assert fg.meta["pair"] == [(2 * j, 2 * j + 1) for j in range(4)]

    def test_hex_patch_partition_and_matching(self):
        for cells, cols in ((1, 1), (2, 1), (3, 1), (4, 2)):
            fg = hex_patch(cells, cols)
            g = fg.graph
            assert g.n == 6 * cells
            covered = 0
            cell_edges = set()
            for cyc in fg.meta["cell"]:
                assert len(cyc) == 6
                for v in cyc:
                    covered |= 1 << v
                for a in range(6):
                    u, w = cyc[a], cyc[(a + 1) % 6]
                    assert g.has_edge(u, w)
                    cell_edges.add((min(u, w), max(u, w)))
            assert covered == g.full_mask
            m_edges = set(tuple(e) for e in fg.meta["medge"])
            assert m_edges == set(map(tuple, (sorted(e) for e in g.edges()))) - cell_edges
            Matching.of(g, m_edges)  # raises if not vertex-disjoint

    def test_hex_patch_planar_bound(self):
        g = hex_patch(3).graph
        assert planarity_check(g) is not Planarity.NON_PLANAR

    def test_hex_patch_staircase_connected(self):
        assert is_connected(hex_patch(3).graph)


class TestStandardFamilies:
    def test_path_cycle_complete(self):
        assert path(5).graph.edge_count == 4
        assert cycle(5).graph.edge_count == 5
        assert complete_bipartite(2, 3).graph.edge_count == 6
        ok, _ = is_bipartite(complete_bipartite(2, 3).graph)
        assert ok

    def test_gnm_deterministic(self):
        a = gnm(8, 12, seed=5).graph
        b = gnm(8, 12, seed=5).graph
        assert a.adj == b.adj

    def test_random_cubic_properties(self):
        rng = random.Random(0)
        for n in (6, 8, 10):
            g = random_cubic(n, rng)
            assert all(g.degree(v) == 3 for v in range(n))
            assert is_connected(g)

    def test_random_cubic_odd_rejected(self):
        with pytest.raises(ValueError):
            random_cubic(7, random.Random(0))


class TestDispatchAndRoundTrip:
    def test_generate_dispatch(self):
        fg = generate("cycle", n=6)
        assert fg.graph.n == 6

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            generate("klein_bottle", n=4)

    def test_unknown_parameter(self):
        with pytest.raises(ValueError):
            generate("cycle", n=5, twist=1)

    @pytest.mark.parametrize("family,params", [
        ("path", {"n": 5}),
        ("clique_chain", {"d": 3, "nchain": 2}),
        ("regular4_chain", {"nchain": 3}),
        ("spider_matched", {"k": 3, "r": 2}),
        ("king_grid_2rows", {"cols": 4}),
        ("hex_patch", {"cells": 2}),
        ("cartesian_grid", {"rows": 2, "cols": 3}),
    ])
    def test_text_round_trip(self, family, params):
        fg = generate(family, **params)
        text = format_graph(fg.graph, roles=fg.roles, meta=fg.meta,
                            header=fg.header)
        doc = parse_graph(text)
        assert doc.graph.adj == fg.graph.adj
        assert doc.roles == fg.roles
        for key, rows in fg.meta.items():
            assert [tuple(r) for r in doc.meta[key]] == [tuple(r) for r in rows]
