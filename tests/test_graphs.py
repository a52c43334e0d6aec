import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import adjacency, brute_kappa, components_without, graph_from_mask
from lexiconn import (
    INFINITY,
    ExtendedNat,
    Graph,
    complete_graph,
    connected_components,
    cycle_graph,
    disjoint_union,
    empty_graph,
    enumerate_labeled_graphs,
    is_complete,
    is_connected,
    is_vertex_cut,
    isolated_vertices,
    lift_min_cut,
    min_degree,
    path_graph,
    star_graph,
    vertex_connectivity,
    vertex_connectivity_oracle,
    vertex_set,
)


def graphs(max_n=7, min_n=1):
    return st.integers(min_n, max_n).flatmap(
        lambda n: st.builds(graph_from_mask, st.just(n), st.integers(0, 2 ** (n * (n - 1) // 2) - 1))
    )


class TestExtendedNat:
    def test_total_order(self):
        assert ExtendedNat(2) < ExtendedNat(3)
        assert not ExtendedNat(3) < ExtendedNat(3)
        assert ExtendedNat(3) < INFINITY
        assert not INFINITY < INFINITY
        assert INFINITY <= INFINITY
        assert ExtendedNat(5) > 4
        assert 4 < INFINITY
        # ints on the left go through the reflected comparisons
        assert 3 < ExtendedNat(5)
        assert 5 >= ExtendedNat(5)
        assert not 6 <= ExtendedNat(5)
        assert INFINITY >= 7
        assert 7 <= INFINITY
        for other in ("3", True, 3.0):
            for op in (operator.lt, operator.le, operator.gt, operator.ge):
                with pytest.raises(TypeError):
                    op(ExtendedNat(3), other)
                with pytest.raises(TypeError):
                    op(other, ExtendedNat(3))

    def test_int_equality(self):
        assert ExtendedNat(3) == 3
        assert 3 == ExtendedNat(3)
        assert ExtendedNat(3) != 4
        assert INFINITY != 3

    def test_bools_are_not_numbers(self):
        assert ExtendedNat(1) != True  # noqa: E712
        with pytest.raises(TypeError):
            ExtendedNat(True)

    def test_validation(self):
        with pytest.raises(ValueError):
            ExtendedNat(-1)
        with pytest.raises(TypeError):
            ExtendedNat(1.5)

    def test_value_access(self):
        assert ExtendedNat(7).value == 7
        assert not INFINITY.is_finite
        with pytest.raises(ValueError):
            INFINITY.value

    def test_json_round_trip(self):
        assert ExtendedNat(4).to_json() == 4
        assert INFINITY.to_json() == "infinity"
        assert ExtendedNat.from_json(4) == ExtendedNat(4)
        assert ExtendedNat.from_json("infinity") == INFINITY
        with pytest.raises(ValueError):
            ExtendedNat.from_json("nope")

    def test_str(self):
        assert str(ExtendedNat(4)) == "4"
        assert str(INFINITY) == "infinity"


class TestGraph:
    def test_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 3)])
        with pytest.raises(ValueError):
            Graph(3, [(1, 1)])
        with pytest.raises(ValueError):
            Graph(-1)

    def test_duplicate_edges_collapse(self):
        g = Graph(3, [(0, 1), (1, 0), (0, 1)])
        assert g.num_edges == 1

    @given(graphs())
    def test_adjacency_invariants(self, g):
        for v in range(g.n):
            assert v not in g.neighbors(v)
            for w in g.neighbors(v):
                assert 0 <= w < g.n
                assert v in g.neighbors(w)

    def test_equality_and_hash(self):
        assert path_graph(3) == Graph(3, [(1, 2), (0, 1)])
        assert hash(path_graph(3)) == hash(Graph(3, [(1, 2), (0, 1)]))
        assert path_graph(3) != cycle_graph(3)

    def test_edges_sorted(self):
        assert cycle_graph(3).edges() == [(0, 1), (0, 2), (1, 2)]

    @given(
        st.integers(2, 9).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])),
            )
        )
    )
    def test_accessors_agree_with_edge_list(self, case):
        n, edge_list = case
        g = Graph(n, edge_list)
        normalized = sorted({(min(u, v), max(u, v)) for u, v in edge_list})
        assert g.edges() == normalized
        assert g.num_edges == len(normalized)
        for v in range(n):
            expected = frozenset(w for e in normalized if v in e for w in e if w != v)
            assert g.neighbors(v) == expected
            assert g.degree(v) == len(expected)
            for w in range(n):
                assert g.has_edge(v, w) == ((min(v, w), max(v, w)) in normalized)
        same = Graph(n, [(v, u) for u, v in reversed(normalized)])
        assert g == same and hash(g) == hash(same)
        assert g != Graph(n + 1, normalized)
        if normalized:
            assert g != Graph(n, normalized[1:])

    def test_accessors_on_ids_out_of_range(self):
        g = Graph(3, [(2, 0)])
        for u, v in ((-1, 0), (0, -1), (3, 0), (0, 3), (-1, -1), (3, 3)):
            assert not g.has_edge(u, v)
        for v in (-1, -3, 3):
            with pytest.raises(ValueError):
                g.degree(v)
            with pytest.raises(ValueError):
                g.neighbors(v)


def test_vertex_set_normalizes():
    assert vertex_set([3, 1, 1, 2]) == (1, 2, 3)
    assert vertex_set([], n=5) == ()
    with pytest.raises(ValueError):
        vertex_set([5], n=5)
    with pytest.raises(TypeError):
        vertex_set([True])


def test_vertex_set_checks_every_id():
    for ids in ([0, 1.5], [0, True], [0, "a"], [2, 1, 3.0]):
        with pytest.raises(TypeError, match="vertex ids must be ints"):
            vertex_set(ids)
    with pytest.raises(TypeError, match="vertex ids must be ints"):
        lift_min_cut([0, 1.5], 2)
    with pytest.raises(TypeError, match="vertex ids must be ints"):
        is_vertex_cut(path_graph(3), [0, 1.5])


def test_lift_min_cut_rejects_negative_ids():
    for ids in ([-1], [0, -3], [2, 1, -1]):
        with pytest.raises(ValueError, match="negative"):
            lift_min_cut(ids, 3)


def test_isolated_vertices_examples():
    assert isolated_vertices(disjoint_union(complete_graph(2), empty_graph(1))) == (2,)
    assert isolated_vertices(cycle_graph(4)) == ()
    assert isolated_vertices(empty_graph(3)) == (0, 1, 2)


def test_min_degree_examples():
    assert min_degree(cycle_graph(4)) == 2
    assert min_degree(star_graph(3)) == 1
    assert min_degree(complete_graph(4)) == 3
    with pytest.raises(ValueError):
        min_degree(empty_graph(0))


def test_components_and_classification():
    p3 = path_graph(3)
    assert is_connected(p3) and not is_complete(p3)
    k4 = complete_graph(4)
    assert is_connected(k4) and is_complete(k4)
    assert connected_components(disjoint_union(complete_graph(2), empty_graph(1))) == [(0, 1), (2,)]
    with pytest.raises(ValueError):
        connected_components(empty_graph(0))
    with pytest.raises(ValueError):
        is_complete(empty_graph(0))


def test_components_match_reachability_on_every_small_labeled_graph():
    for n in range(1, 7):
        for g in enumerate_labeled_graphs(n):
            expected = [tuple(sorted(c)) for c in components_without(adjacency(g), set())]
            assert connected_components(g) == expected, g.edges()


@given(graphs())
def test_isolated_iff_min_degree_zero(g):
    assert (isolated_vertices(g) == ()) == (min_degree(g) >= 1)


class TestVertexConnectivity:
    def test_disconnected_is_zero(self):
        assert vertex_connectivity(disjoint_union(complete_graph(2), empty_graph(1))) == 0

    def test_complete_convention(self):
        assert vertex_connectivity(complete_graph(4)) == 3
        assert vertex_connectivity(complete_graph(1)) == 0

    def test_bowtie_is_one(self):
        from lexiconn import bowtie_graph

        g = bowtie_graph()
        assert vertex_connectivity(g) == 1
        assert vertex_connectivity_oracle(g) == 1

    def test_cycle(self):
        assert vertex_connectivity(cycle_graph(4)) == 2
        assert vertex_connectivity_oracle(cycle_graph(4)) == 2

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            vertex_connectivity(empty_graph(0))

    @given(graphs())
    def test_at_most_min_degree(self, g):
        assert vertex_connectivity(g) <= min_degree(g)

    @given(graphs())
    def test_zero_iff_disconnected_or_trivial(self, g):
        assert (vertex_connectivity(g) == 0) == (g.n == 1 or not is_connected(g))

    @settings(max_examples=60, deadline=None)
    @given(graphs(max_n=7))
    def test_matches_enumeration_oracle(self, g):
        assert vertex_connectivity(g) == vertex_connectivity_oracle(g)

    @settings(max_examples=40, deadline=None)
    @given(graphs(max_n=6))
    def test_matches_independent_brute_force(self, g):
        assert vertex_connectivity(g) == brute_kappa(g)

    def test_matches_enumeration_oracle_on_every_small_labeled_graph(self):
        for n in range(1, 7):
            for g in enumerate_labeled_graphs(n):
                assert vertex_connectivity(g) == vertex_connectivity_oracle(g), g.edges()
