import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from builders import add_edges, complete_minus_matching, cycle_graph, disjoint_union, path_graph

from treepack.graphs import (
    Graph,
    VertexPartition,
    complete_graph,
    crossing_edges,
    make_graph,
    parse_edge_list,
    partition,
    petersen_graph,
    singleton_partition,
    to_edge_list,
)


def test_make_graph_rejects_duplicates():
    with pytest.raises(ValueError, match=r"duplicate edge \(0, 1\)"):
        make_graph(3, [(0, 1), (0, 1)])
    with pytest.raises(ValueError, match=r"duplicate edge \(1, 0\)"):
        make_graph(3, [(0, 1), (1, 2), (1, 0)])


def test_make_graph_rejects_self_loop():
    with pytest.raises(ValueError, match="self-loop"):
        make_graph(3, [(1, 1)])


def test_make_graph_rejects_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        make_graph(3, [(0, 3)])


def test_degrees_and_regularity():
    assert complete_graph(4).degree_if_regular() == 3
    assert petersen_graph().degree_if_regular() == 3
    assert path_graph(4).degree_if_regular() is None
    assert path_graph(4).degrees == (1, 2, 2, 1)


def test_complete_minus_matching():
    g = complete_minus_matching(6, 2)
    assert g.m == 15 - 2
    assert (0, 1) not in g.edges and (2, 3) not in g.edges
    assert (4, 5) in g.edges
    with pytest.raises(ValueError):
        complete_minus_matching(3, 2)


def test_add_edges_rejects_duplicate():
    g = cycle_graph(4)
    with pytest.raises(ValueError, match=r"duplicate edge \(1, 0\)"):
        add_edges(g, [(1, 0)])
    with pytest.raises(ValueError, match=r"duplicate edge \(0, 2\)"):
        add_edges(g, [(0, 2), (0, 2)])
    with pytest.raises(ValueError, match="self-loop"):
        add_edges(g, [(2, 2)])
    g2 = add_edges(g, [(0, 2)])
    assert g2.m == 5 and g.m == 4


def test_components():
    g = disjoint_union(complete_graph(3), path_graph(2))
    assert g.components == (frozenset({0, 1, 2}), frozenset({3, 4}))
    assert g.components is g.components    # computed once per graph
    assert cycle_graph(6).components == (frozenset(range(6)),)


class TestVertexPartition:
    def test_valid(self):
        p = partition(4, [[0, 1], [2], [3]])
        assert p.t == 3
        assert p.block_of == (0, 0, 1, 2)

    def test_rejects_overlap(self):
        with pytest.raises(ValueError):
            partition(3, [[0, 1], [1, 2]])

    def test_rejects_uncovered(self):
        with pytest.raises(ValueError):
            partition(4, [[0, 1], [2]])

    def test_rejects_empty_block(self):
        with pytest.raises(ValueError):
            VertexPartition(2, (frozenset({0, 1}), frozenset()))


def test_crossing_edges_counts():
    g = cycle_graph(6)
    p = partition(6, [[0, 1, 2], [3, 4, 5]])
    assert crossing_edges(g, p) == 2
    # every edge crosses under singletons, none under one block
    assert crossing_edges(g, singleton_partition(6)) == g.m
    assert crossing_edges(g, partition(6, [range(6)])) == 0
    cases = [
        (petersen_graph(), partition(10, [range(5), range(5, 10)])),
        (petersen_graph(), partition(10, [[0, 2, 4], [1, 3], [5, 6, 7, 8, 9]])),
        (complete_graph(7), partition(7, [[0], [1, 2], [3, 4, 5, 6]])),
        (path_graph(5), partition(5, [[0, 4], [1, 3], [2]])),
    ]
    for g, p in cases:
        brute = sum(1 for u, v in g.edges if not any(u in b and v in b for b in p.blocks))
        assert crossing_edges(g, p) == brute
    with pytest.raises(ValueError, match="partition does not match graph"):
        crossing_edges(g, singleton_partition(g.n + 1))


def test_edge_list_round_trip():
    g = petersen_graph()
    assert parse_edge_list(to_edge_list(g)) == g


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ValueError, match="line 1"):
        parse_edge_list("")
    with pytest.raises(ValueError, match="line 3"):
        parse_edge_list("3 2\n0 1\n1 x\n")
    with pytest.raises(ValueError, match="declares"):
        parse_edge_list("3 5\n0 1\n")


@pytest.mark.parametrize("text,message", [
    ("3 3\n0 1\n0 1\n1 2\n", r"line 3: duplicate edge \(0, 1\)"),
    ("3 2\n0 1\n1 0\n", r"line 3: duplicate edge \(1, 0\)"),
    ("4 3\n2 3\n\n0 1\n\n3 2\n", r"line 6: duplicate edge \(3, 2\)"),
])
def test_parse_rejects_duplicate_edges(text, message):
    with pytest.raises(ValueError, match=message):
        parse_edge_list(text)


@pytest.mark.parametrize("text,message", [
    ("3 1\n1 1\n", "line 2: self-loop at vertex 1"),
    ("3 2\n0 1\n\n2 3\n", "line 4: edge (2, 3) out of range for n=3"),
    ("3 1\n-1 2\n", "line 2: edge (-1, 2) out of range for n=3"),
    ("3 2\n2 0\n0 2\n", "line 3: duplicate edge (0, 2)"),
    ("-1 0\n", "line 1: vertex count must be nonnegative"),
    ("-2 1\n0 1\n", "line 1: vertex count must be nonnegative"),
])
def test_parse_edge_messages(text, message):
    with pytest.raises(ValueError) as info:
        parse_edge_list(text)
    assert str(info.value) == message


@st.composite
def graphs(draw, max_n=9):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return make_graph(n, edges)


@settings(max_examples=150, deadline=None)
@given(graphs())
def test_handshake_lemma(g: Graph):
    assert sum(g.degrees) == 2 * g.m


@settings(max_examples=100, deadline=None)
@given(graphs())
def test_text_format_round_trips(g: Graph):
    assert parse_edge_list(to_edge_list(g)) == g


def adjacency_by_loop(g: Graph) -> np.ndarray:
    """The adjacency matrix filled one edge at a time."""
    a = np.zeros((g.n, g.n))
    for u, v in g.edges:
        a[u, v] = a[v, u] = 1.0
    return a


def laplacian_by_loop(g: Graph) -> np.ndarray:
    """The Laplacian as -A (off-diagonal zeros are -0.0) with the degrees
    written in one vertex at a time."""
    lap = -adjacency_by_loop(g)
    for v in range(g.n):
        lap[v, v] = g.degrees[v]
    return lap


@settings(max_examples=150, deadline=None)
@given(graphs(max_n=12))
@example(make_graph(0, []))
@example(make_graph(1, []))
@example(make_graph(4, [(0, 3)]))      # isolated vertices: +0.0 on the diagonal
def test_dense_matrices_match_the_edge_loop(g: Graph):
    # bit for bit, so the sign of every zero counts too
    for got, want in ((g.adjacency_matrix(), adjacency_by_loop(g)),
                      (g.laplacian_matrix(), laplacian_by_loop(g))):
        assert got.dtype == want.dtype and got.shape == want.shape == (g.n, g.n)
        assert got.tobytes() == want.tobytes()
    assert sorted(map(tuple, g.edge_index.tolist())) == sorted(g.edges)


def test_edge_index_is_cached_and_read_only():
    g = petersen_graph()
    assert g.edge_index is g.edge_index
    assert g.edge_index.shape == (15, 2)
    with pytest.raises(ValueError):
        g.edge_index[0, 0] = 0
