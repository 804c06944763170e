"""Small graph constructors the tests build their inputs with.

The package's own constructors are `make_graph` and `petersen_graph`;
these are built on `make_graph`, so its edge checks apply to them as
well.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from treepack.graphs import Graph, make_graph


def complete_graph(n: int) -> Graph:
    return make_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def complete_minus_matching(n: int, k: int) -> Graph:
    """K_n with the k matching edges {0,1}, {2,3}, ..., {2k-2,2k-1} removed."""
    if 2 * k > n:
        raise ValueError(f"matching of size {k} does not fit in {n} vertices")
    removed = {(2 * i, 2 * i + 1) for i in range(k)}
    return make_graph(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in removed]
    )


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return make_graph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return make_graph(n, [(i, i + 1) for i in range(n - 1)])


def complete_bipartite(a: int, b: int) -> Graph:
    return make_graph(a + b, [(u, a + v) for u in range(a) for v in range(b)])


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    shifted = [(u + g1.n, v + g1.n) for u, v in g2.edges]
    return make_graph(g1.n + g2.n, list(g1.edges) + shifted)


def add_edges(g: Graph, pairs: Iterable[Sequence[int]]) -> Graph:
    """Return g plus the given edges; duplicates and loops are errors."""
    return make_graph(g.n, [*g.edges, *pairs])
