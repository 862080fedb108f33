"""Graph core: set algebra, connectivity, domination, planarity, file format."""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lcsgame.graphs import (
    CAPACITY,
    CapacityError,
    FormatError,
    Graph,
    Matching,
    Planarity,
    bits,
    components,
    components_within,
    delete_edge,
    delete_vertices,
    diameter,
    format_graph,
    induced,
    is_bipartite,
    is_clique,
    is_connected_dominating,
    is_independent,
    largest_component_order,
    mask_of,
    parse_graph,
    planarity_check,
)

from oracles import naive_components, naive_is_cds


def cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def complete(n):
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


@st.composite
def small_graphs(draw, max_n=7):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph.from_edges(n, chosen)


class TestConstruction:
    def test_rejects_loops(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 2)])

    def test_rejects_over_capacity(self):
        with pytest.raises(CapacityError):
            Graph.from_edges(CAPACITY + 1, [])

    def test_symmetric_adjacency(self):
        g = Graph.from_edges(3, [(0, 2)])
        assert g.has_edge(0, 2) and g.has_edge(2, 0)
        assert not g.has_edge(0, 1)

    def test_duplicate_edges_collapse(self):
        g = Graph.from_edges(2, [(0, 1), (1, 0)])
        assert g.edge_count == 1


class TestComponents:
    def test_two_triangles(self):
        g = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert components(g) == [mask_of([0, 1, 2]), mask_of([3, 4, 5])]

    def test_complete_graph_single_component(self):
        assert components(complete(5)) == [mask_of(range(5))]

    def test_edgeless_graph_singletons(self):
        g = Graph.from_edges(3, [])
        assert components(g) == [1, 2, 4]

    @given(small_graphs())
    def test_matches_naive_and_partitions(self, g):
        got = [set(bits(c)) for c in components(g)]
        assert got == naive_components(g)
        flat = [v for c in got for v in c]
        assert sorted(flat) == list(range(g.n))
        # maximality: no edges between distinct components
        for i, a in enumerate(got):
            for b in got[i + 1:]:
                assert all(not g.has_edge(u, w) for u in a for w in b)


class TestInduced:
    def test_k4_on_three_vertices_is_k3(self):
        sub, back = induced(complete(4), mask_of([0, 2, 3]))
        assert sub.n == 3 and sub.edge_count == 3
        assert back == (0, 2, 3)

    def test_c5_on_adjacent_pair_is_edge(self):
        sub, _ = induced(cycle(5), mask_of([1, 2]))
        assert sub.n == 2 and sub.edge_count == 1

    def test_empty_selection(self):
        sub, back = induced(cycle(5), 0)
        assert sub.n == 0 and back == ()

    def test_out_of_range_vertex(self):
        with pytest.raises(ValueError):
            induced(cycle(3), mask_of([3]))

    @given(small_graphs(), st.integers(min_value=0, max_value=(1 << 7) - 1))
    def test_idempotent(self, g, raw):
        s = raw & g.full_mask
        sub, _ = induced(g, s)
        again, _ = induced(sub, sub.full_mask)
        assert again.adj == sub.adj


class TestConnectedDominating:
    def test_star_center(self):
        g = Graph.from_edges(5, [(0, i) for i in range(1, 5)])
        assert is_connected_dominating(g, 1)

    def test_path_middle_pair(self):
        assert is_connected_dominating(path(4), mask_of([1, 2]))

    def test_path_endpoints_not_connected(self):
        assert not is_connected_dominating(path(4), mask_of([0, 3]))

    def test_empty_set_conventions(self):
        assert is_connected_dominating(Graph.from_edges(0, []), 0)
        assert not is_connected_dominating(path(2), 0)

    @given(small_graphs(), st.integers(min_value=0, max_value=(1 << 7) - 1))
    def test_matches_naive(self, g, raw):
        s = raw & g.full_mask
        assert is_connected_dominating(g, s) == naive_is_cds(g, set(bits(s)))


class TestPlanarity:
    def test_k5_nonplanar(self):
        assert planarity_check(complete(5)) is Planarity.NON_PLANAR

    def test_k33_nonplanar(self):
        g = Graph.from_edges(6, [(i, j) for i in range(3) for j in range(3, 6)])
        assert planarity_check(g) is Planarity.NON_PLANAR

    def test_c6_planar(self):
        assert planarity_check(cycle(6)) is Planarity.PLANAR

    def test_k4_planar(self):
        assert planarity_check(complete(4)) is Planarity.PLANAR

    def test_k5_subdivision_nonplanar(self):
        # K_5 with one edge subdivided through vertex 5
        edges = [(i, j) for i in range(5) for j in range(i + 1, 5)]
        edges.remove((0, 1))
        edges += [(0, 5), (5, 1)]
        assert planarity_check(Graph.from_edges(6, edges)) is Planarity.NON_PLANAR

    def test_petersen_nonplanar(self):
        assert planarity_check(petersen()) is Planarity.NON_PLANAR

    def test_budget_exhaustion_reports_unknown(self):
        g = cycle(12)
        big = Graph.from_edges(24, g.edges() + [(i + 12, (i + 1) % 12 + 12)
                                                for i in range(12)]
                               + [(i, i + 12) for i in range(12)])
        assert planarity_check(big, budget=1) in (Planarity.UNKNOWN,
                                                  Planarity.PLANAR)
        # the search runs out before it finds the minor: UNKNOWN, never PLANAR
        assert planarity_check(petersen(), budget=10) is Planarity.UNKNOWN
        assert planarity_check(petersen()) is Planarity.NON_PLANAR


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return Graph.from_edges(10, outer + inner + spokes)


class TestMatching:
    def test_rejects_non_edges(self):
        with pytest.raises(ValueError):
            Matching.of(path(3), [(0, 2)])

    def test_rejects_shared_vertex(self):
        with pytest.raises(ValueError):
            Matching.of(path(3), [(0, 1), (1, 2)])

    def test_covered_mask(self):
        m = Matching.of(path(4), [(0, 1), (2, 3)])
        assert m.covered == mask_of([0, 1, 2, 3])


class TestHelpers:
    def test_bipartite_detects_odd_cycle(self):
        ok, _ = is_bipartite(cycle(5))
        assert not ok
        ok, side = is_bipartite(cycle(6))
        assert ok and side.bit_count() == 3

    def test_diameter_path(self):
        assert diameter(path(5)) == 4

    def test_clique_and_independent(self):
        g = complete(4)
        assert is_clique(g, mask_of([0, 1, 2]))
        assert not is_independent(g, mask_of([0, 1]))
        assert is_independent(Graph.from_edges(3, []), 7)

    def test_delete_edge_and_vertices(self):
        g = delete_edge(cycle(4), 0, 1)
        assert g.edge_count == 3
        h = delete_vertices(cycle(4), mask_of([0]))
        assert h.n == 3 and h.edge_count == 2

    def test_largest_component_order(self):
        g = Graph.from_edges(5, [(0, 1), (2, 3)])
        assert largest_component_order(g.adj, mask_of([0, 1, 2])) == 2

    def test_largest_component_order_early_exit(self):
        # the loop stops once the uncounted vertices are no more than the
        # best order so far; it must agree with the largest of all components
        rng = random.Random(23)
        for _ in range(400):
            n = rng.randint(1, 16)
            p = rng.choice((0.1, 0.2, 0.35, 0.6))
            g = Graph.from_edges(n, [(u, v) for u in range(n)
                                     for v in range(u + 1, n) if rng.random() < p])
            for within in (0, g.full_mask, rng.getrandbits(n), rng.getrandbits(n)):
                want = max((c.bit_count() for c in components_within(g.adj, within)),
                           default=0)
                assert largest_component_order(g.adj, within) == want
        # the largest component holds the highest vertex, so it is found last
        g = path(8)
        within = mask_of([0, 2, 4, 5, 6, 7])
        assert largest_component_order(g.adj, within) == 4
        assert largest_component_order(g.adj, 0) == 0


class TestTextFormat:
    def test_round_trip(self):
        g = cycle(5)
        doc = parse_graph(format_graph(g, roles={0: "start"},
                                       meta={"pair": [(0, 1)]}))
        assert doc.graph.adj == g.adj
        assert doc.roles == {0: "start"}
        assert doc.meta["pair"] == [(0, 1)]

    def test_edges_sorted_in_output(self):
        g = Graph.from_edges(3, [(2, 1), (1, 0)])
        body = [ln for ln in format_graph(g).splitlines() if ln.startswith("e")]
        assert body == ["e 0 1", "e 1 2"]

    def test_comments_ignored(self):
        doc = parse_graph("# hello\nn 2\n# an aside\ne 0 1\n")
        assert doc.graph.edge_count == 1

    @pytest.mark.parametrize("text,frag", [
        ("e 0 1\nn 2\n", "line 1"),
        ("n 2\ne 0 5\n", "line 2"),
        ("n 2\ne 0\n", "line 2"),
        ("n 2\nx 1 2\n", "line 2"),
        ("n 2\nn 3\n", "line 2"),
        ("", "line 1"),
        ("# role: x tag\nn 2\n", "line 1: a role's vertex must be a non-negative integer"),
        ("n 2\ns x\n", "line 2: the s vertex must be a non-negative integer"),
        ("n 2\n# role: 9 x\n", "line 2: role vertex 9 out of range for n=2"),
        ("# role: 1 a\n# role: 2 b\nn 2\n", "line 2: role vertex 2 out of range"),
    ])
    def test_errors_carry_line_numbers(self, text, frag):
        with pytest.raises(FormatError, match=frag):
            parse_graph(text)

    def test_hex_lines_become_meta(self):
        doc = parse_graph("n 3\ne 0 1\ne 1 2\ns 0\nt 2\n")
        assert doc.meta["s"] == [(0,)] and doc.meta["t"] == [(2,)]
