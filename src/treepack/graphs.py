"""Undirected simple graphs, vertex partitions, and the edge-list file format.

Vertices are dense integer indices 0..n-1.  Everything here is immutable
after construction, so graphs and partitions can be shared freely.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

Edge = tuple[int, int]


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph: vertex count plus a frozenset of (u, v) pairs with u < v."""

    n: int
    edges: frozenset[Edge]

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def neighbors(self) -> tuple[frozenset[int], ...]:
        nbr: list[set[int]] = [set() for _ in range(self.n)]
        for u, v in self.edges:
            nbr[u].add(v)
            nbr[v].add(u)
        return tuple(frozenset(s) for s in nbr)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(len(s) for s in self.neighbors)

    def degree_if_regular(self) -> int | None:
        """The common degree when the graph is regular, else None.

        K1 is 0-regular.  The empty graph has no degree to share and gets
        None (``analyze`` reports it as "irregular"), although it is
        vacuously regular.
        """
        degs = set(self.degrees)
        if len(degs) == 1:
            return next(iter(degs))
        return None

    @cached_property
    def edge_index(self) -> np.ndarray:
        """The edges as a read-only (m, 2) intp array, one (u, v) row each,
        from which the dense matrices fill without a Python loop."""
        idx = np.fromiter(chain.from_iterable(self.edges), dtype=np.intp,
                          count=2 * self.m).reshape(self.m, 2)
        idx.flags.writeable = False
        return idx

    def adjacency_matrix(self) -> np.ndarray:
        a = np.zeros((self.n, self.n))
        us, vs = self.edge_index.T
        a[us, vs] = a[vs, us] = 1.0
        return a

    def laplacian_matrix(self) -> np.ndarray:
        a = self.adjacency_matrix()
        lap = -a
        np.fill_diagonal(lap, a.sum(axis=1))
        return lap

    @cached_property
    def components(self) -> tuple[frozenset[int], ...]:
        """Connected components as vertex sets, ordered by smallest member."""
        seen = [False] * self.n
        comps = []
        for s in range(self.n):
            if seen[s]:
                continue
            stack, comp = [s], {s}
            seen[s] = True
            while stack:
                u = stack.pop()
                for w in self.neighbors[u]:
                    if not seen[w]:
                        seen[w] = True
                        comp.add(w)
                        stack.append(w)
            comps.append(frozenset(comp))
        return tuple(comps)


def _check_edge(n: int, u: int, v: int, seen: set[Edge], where: str = "") -> None:
    """Add edge {u, v} to seen; a self-loop, an end outside 0..n-1 or a
    repeat (in either orientation) is an error, prefixed with `where`."""
    if u == v:
        raise ValueError(f"{where}self-loop at vertex {u}")
    if not (0 <= u < n and 0 <= v < n):
        raise ValueError(f"{where}edge ({u}, {v}) out of range for n={n}")
    e = (u, v) if u < v else (v, u)
    if e in seen:
        raise ValueError(f"{where}duplicate edge ({u}, {v})")
    seen.add(e)


def make_graph(n: int, edge_list: Iterable[Sequence[int]]) -> Graph:
    """Build a graph from vertex count and edge pairs.

    Self-loops, out-of-range indices and repeated edges (in either
    orientation) are construction errors.
    """
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    edges: set[Edge] = set()
    for u, v in edge_list:
        _check_edge(n, u, v, edges)
    return Graph(n, frozenset(edges))


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return make_graph(10, outer + spokes + inner)


@dataclass(frozen=True)
class VertexPartition:
    """Ordered partition of 0..n-1 into nonempty disjoint blocks."""

    n: int
    blocks: tuple[frozenset[int], ...]

    def __post_init__(self):
        seen: set[int] = set()
        for b in self.blocks:
            if not b:
                raise ValueError("empty block")
            if seen & b:
                raise ValueError("overlapping blocks")
            seen |= b
        if seen != set(range(self.n)):
            raise ValueError("blocks do not cover the vertex set")

    @property
    def t(self) -> int:
        return len(self.blocks)

    @cached_property
    def block_of(self) -> tuple[int, ...]:
        owner = [0] * self.n
        for i, b in enumerate(self.blocks):
            for v in b:
                owner[v] = i
        return tuple(owner)

    def sizes(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.blocks)


def partition(n: int, blocks: Iterable[Iterable[int]]) -> VertexPartition:
    return VertexPartition(n, tuple(frozenset(b) for b in blocks))


def singleton_partition(n: int) -> VertexPartition:
    return partition(n, [[v] for v in range(n)])


def crossing_edges(g: Graph, p: VertexPartition) -> int:
    """The number of edges whose ends lie in different blocks of p."""
    if p.n != g.n:
        raise ValueError("partition does not match graph")
    owner = p.block_of
    total = 0
    for u, v in g.edges:
        if owner[u] != owner[v]:
            total += 1
    return total


# ---------------------------------------------------------------------------
# Edge-list text format: first line "n m", then m lines "u v" (0-indexed).
# This is the canonical on-disk graph format for the whole toolkit.
# ---------------------------------------------------------------------------

def to_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in sorted(g.edges))
    return "\n".join(lines) + "\n"


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list format; errors carry 1-based line numbers.

    A repeated edge (in either orientation) is an error, as in
    ``make_graph``, so the graph always has the m edges the header declares.
    """
    lines = text.splitlines()
    rows = [(i + 1, ln) for i, ln in enumerate(lines) if ln.strip()]
    if not rows:
        raise ValueError("line 1: empty input, expected 'n m' header")
    lineno, header = rows[0]
    parts = header.split()
    if len(parts) != 2:
        raise ValueError(f"line {lineno}: expected 'n m' header")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(f"line {lineno}: expected integers in 'n m' header") from None
    if n < 0:
        raise ValueError(f"line {lineno}: vertex count must be nonnegative")
    body = rows[1:]
    if len(body) != m:
        raise ValueError(f"line {lineno}: header declares {m} edges, found {len(body)}")
    pairs: set[Edge] = set()
    for lineno, ln in body:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'u v'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"line {lineno}: expected integer endpoints") from None
        _check_edge(n, u, v, pairs, f"line {lineno}: ")
    return Graph(n, frozenset(pairs))
