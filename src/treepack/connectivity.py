"""Global edge connectivity by Stoer-Wagner."""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush

from .graphs import Graph


@dataclass(frozen=True)
class CutResult:
    """Minimum cut value together with one side achieving it."""

    value: int
    side: frozenset[int]


def edge_connectivity(g: Graph) -> CutResult:
    """Exact global minimum edge cut via Stoer-Wagner with unit weights.

    The contracted graph is kept as one weight dict per vertex, and each
    maximum-adjacency phase pops a heap ordered by (-attachment, vertex)
    with lazy deletion, so a phase costs O(m log n).  Vertex selection is
    deterministic (maximum attachment weight, ties to the smallest index)
    so repeated runs return the same side.
    """
    if g.n < 2:
        raise ValueError("edge connectivity needs at least 2 vertices")
    comps = g.components()
    if len(comps) > 1:
        return CutResult(0, min(comps, key=min))

    n = g.n
    adj: list[dict[int, int]] = [dict.fromkeys(nbrs, 1) for nbrs in g.neighbors]
    merged = [frozenset((v,)) for v in range(n)]
    best_value: int | None = None
    best_side: frozenset[int] = frozenset()

    for size in range(n, 1, -1):
        # Every phase starts at vertex 0, the smallest index; it is never
        # the last vertex of a phase, so it is never contracted away.
        # Heap keys are v - attach * n: smallest key means largest
        # attachment, then smallest index, and key % n recovers v.
        # Attachments only grow, so a vertex's freshest key pops first and
        # its older keys are skipped.  The contracted graph stays
        # connected, so all `size` vertices are reached.
        attach = [0] * n
        done = [False] * n
        heap = [0]
        s = t = 0
        for _ in range(size):
            v = heappop(heap) % n
            while done[v]:
                v = heappop(heap) % n
            done[v] = True
            s, t = t, v
            for u, w in adj[v].items():
                if not done[u]:
                    attach[u] += w
                    heappush(heap, u - attach[u] * n)
        phase_weight = attach[t]
        if best_value is None or phase_weight < best_value:
            best_value = phase_weight
            best_side = merged[t]
        # contract t into s
        for u, w in adj[t].items():
            del adj[u][t]
            if u != s:
                adj[s][u] = adj[s].get(u, 0) + w
                adj[u][s] = adj[s][u]
        adj[t] = {}
        merged[s] |= merged[t]

    assert best_value is not None
    return CutResult(best_value, best_side)
