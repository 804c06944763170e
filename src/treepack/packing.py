"""Spanning-tree packing: exact sigma with constructive certificates.

The packing routine is matroid-union augmentation over k forests
(Roskind-Tarjan style).  Edges are scanned once in lexicographic order;
an edge that cannot augment the current k forests is rejected for good
(greedy is optimal in a matroid).  An edge first takes the first forest
with its ends apart, a plain insert; only when every forest has them
together does it enter the labeling search.  The search tests each edge
it labels the same way, as it labels it, and the first with its ends
apart in some forest ends the search with its chain of labels.  On
overall failure the labeled closures of the rejected edges collapse into
a partition witnessing the Nash-Williams/Tutte violation; the witness is
re-validated by ``verify_certificate`` rather than trusted.

Clumps are vertex sets that every one of the k forests spans; they are
held as one flat array of clump ids, where each id is a vertex of its own
clump, so "are u and v in one clump?" is two list reads.  A rejection
relabels every clump its labeled edges touch to one id in one O(n) pass.
An edge with both ends in a clump is rejected at entry, and inside the
labeling search such an edge is labeled but not enqueued.  Skipping it
changes nothing: each forest spans the clump, so every forest path
between its ends, and so everything it could label, lies inside the
clump, where no edge can augment.  Every other edge keeps its first
labeler and its place in the queue, so the search finds the same chain,
and a rejection merges the same vertex set.  The trees and witnesses are
those of a search that enqueues every labeled edge.

Each forest keeps a component id per vertex, with the size of each id,
so "are u and v apart?" is two list reads, and a rooted form (parent and
depth per vertex) for path queries, kept current by every edge move.  A
link joins two trees: the smaller is re-hung below its end of the new
edge, taking the other's id in the same traversal of that tree alone.  A
swap drops a tree edge and takes an edge whose path runs through it: the
components stay, and only the subtree below the dropped edge is re-hung,
at its end of the new edge.  A chain applies its moves one by one, each
on the forest as the moves before it left it; the labeling is
breadth-first, so each swap's dropped edge is still on its new edge's
path when the swap is made (``_Packer._apply_chain``).  A path query
climbs from both ends to their lowest common ancestor in O(path length)
instead of searching a whole component.  A forest has one u-v path, and
the climb lists its edges in the same order a breadth-first search from u
would (from v back to u) under any rooting: the search visits edges in
the same order, so the trees, witnesses and certificate digests are
byte-identical to those of a search-based packer.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from math import isfinite, prod

import numpy as np

from .connectivity import CutResult, edge_connectivity
from .exact import det_exact
from .graphs import Edge, Graph, VertexPartition, crossing_edges, partition, singleton_partition
from .spectra import eig_symmetric

_FLOAT_EXACT = 2 ** 53   # beyond this, rounded float products are meaningless


@dataclass(frozen=True)
class PackResult:
    """Either k edge-disjoint spanning trees or a violating partition."""

    k: int
    success: bool
    trees: tuple[frozenset[Edge], ...] | None
    witness: VertexPartition | None


class _Packer:
    """State for one pack_trees run: k forests over the same vertex set."""

    def __init__(self, g: Graph, k: int):
        self.k = k
        self.forest_adj: list[list[set[int]]] = [[set() for _ in range(g.n)] for _ in range(k)]
        self.total = 0
        # component id per vertex, and the size of each id, per forest: a
        # link gives the smaller of the two trees it joins the other's id
        self.comp: list[list[int]] = [list(range(g.n)) for _ in range(k)]
        self.size: list[list[int]] = [[1] * g.n for _ in range(k)]
        # rooted form of each forest, for path queries: parent and depth
        # per vertex (a root is its own parent), kept current by every link
        # and swap
        self.parent: list[list[int]] = [list(range(g.n)) for _ in range(k)]
        self.depth: list[list[int]] = [[0] * g.n for _ in range(k)]
        # clump id per vertex.  A clump is a vertex set spanned by all k
        # forests, and its id is one of its vertices.  An edge inside a
        # clump can never augment: it is rejected without a labeling
        # search, and a search labels it but does not enqueue it.
        self.clump = list(range(g.n))

    def _hang(self, i: int, s: int, p: int):
        """Hang s below p in forest i, and re-root the part of its tree that
        s reaches without passing p, with p's component id, in one
        traversal."""
        adj, parent, depth, comp = self.forest_adj[i], self.parent[i], self.depth[i], self.comp[i]
        c = comp[p]
        parent[s], depth[s], comp[s] = p, depth[p] + 1, c
        stack = [s]
        while stack:
            x = stack.pop()
            px, dy = parent[x], depth[x] + 1
            for y in adj[x]:
                if y != px:
                    parent[y], depth[y], comp[y] = x, dy, c
                    stack.append(y)

    def _link(self, i: int, e: Edge):
        """Add e, whose ends are apart in forest i.  The smaller of the two
        trees is re-hung below its end of e and takes the other's id."""
        u, v = e
        adj = self.forest_adj[i]
        adj[u].add(v)
        adj[v].add(u)
        comp, size = self.comp[i], self.size[i]
        if size[comp[u]] < size[comp[v]]:
            u, v = v, u
        size[comp[u]] += size[comp[v]]
        self._hang(i, v, u)

    def _swap(self, i: int, out: Edge, e: Edge):
        """Drop the edge out of forest i and add e, whose forest path runs
        through out.  The components stay; the subtree below out is re-hung
        at its end of e."""
        a, b = out
        adj = self.forest_adj[i]
        adj[a].discard(b)
        adj[b].discard(a)
        x, y = e
        adj[x].add(y)
        adj[y].add(x)
        parent, depth = self.parent[i], self.depth[i]
        below = b if parent[b] == a else a
        # exactly one end of e lies below out: climb from x to find out which
        z = x
        while depth[z] > depth[below]:
            z = parent[z]
        if z != below:
            x, y = y, x
        self._hang(i, x, y)

    def _tree_path(self, i: int, u: int, v: int) -> list[Edge]:
        """Edges on the unique u-v path in forest i (same component assumed).

        The edges run from v to u: v's side climbs to the lowest common
        ancestor, then u's side follows in reverse.  The order fixes the
        order of the labeling search, and so the trees the packer builds.
        """
        parent, depth = self.parent[i], self.depth[i]
        from_v: list[Edge] = []
        from_u: list[Edge] = []
        while depth[v] > depth[u]:
            p = parent[v]
            from_v.append((p, v) if p < v else (v, p))
            v = p
        while depth[u] > depth[v]:
            p = parent[u]
            from_u.append((p, u) if p < u else (u, p))
            u = p
        while u != v:
            p = parent[v]
            from_v.append((p, v) if p < v else (v, p))
            v = p
            p = parent[u]
            from_u.append((p, u) if p < u else (u, p))
            u = p
        from_u.reverse()
        return from_v + from_u

    def try_insert(self, e: Edge) -> bool:
        """Insert e into the packing if possible; False means rejected.

        Rejection merges the vertices of the labeled closure, and every
        clump they touch, into one clump: that vertex set is spanned by
        every one of the k forests, so edges inside it stay rejected.
        """
        u, v = e
        clump = self.clump
        if clump[u] == clump[v]:
            return False
        comps = self.comp
        for i, comp in enumerate(comps):
            if comp[u] != comp[v]:
                self._link(i, e)
                self.total += 1
                return True
        # breadth-first labeling over the exchange structure.  label[h] =
        # edge on whose fundamental cycle h was first reached; label[e] =
        # None marks the root.  An edge outside a clump takes the first
        # forest that has its ends apart as soon as it is labeled, and is
        # enqueued only if there is none; an edge inside a clump has its
        # ends together in every forest and is labeled but not enqueued.
        # This finds the chain a search testing each edge when it is
        # dequeued would find: the queue is FIFO, so dequeue order is label
        # order, and nothing changes while the search runs, so the first
        # labeled edge with its ends apart, its first such forest and every
        # label on its chain (each set before it) are the same; it only
        # stops before querying the paths of the edges queued ahead of it.
        label: dict[Edge, Edge | None] = {e: None}
        queue = deque([e])
        while queue:
            f = queue.popleft()
            fu, fv = f
            for i in range(self.k):
                for h in self._tree_path(i, fu, fv):
                    if h not in label:
                        label[h] = f
                        hu, hv = h
                        if clump[hu] != clump[hv]:
                            for j, comp in enumerate(comps):
                                if comp[hu] != comp[hv]:
                                    self._apply_chain(h, j, label)
                                    return True
                            queue.append(h)

        # rejected: each labeled edge lies on a forest path between the ends
        # of an edge labeled before it, so the labeled edges form one
        # connected vertex set through e; it and the clumps it touches
        # become one clump, with u as its id
        merged = {clump[x] for h in label for x in h}
        self.clump = [u if c in merged else c for c in clump]
        return False

    def _apply_chain(self, edge: Edge, forest: int, label: dict[Edge, Edge | None]):
        """Cascade of swaps: move `edge` into `forest`, its predecessor into
        the forest `edge` vacated, and so on back to the new edge.

        `edge` links two trees of `forest`; every forest it or a later edge
        vacates swaps that edge for its predecessor.  The moves run from the
        new edge outward, each re-hanging only what moved, and each is valid
        on the forest as the moves before it left it.  Number the chain from
        the new edge g_0, so that g_{j-1} labeled g_j.  The labeling is
        breadth-first, so g_0, ..., g_{j-2} were dequeued before g_{j-1},
        and g_j lies on no forest path of an edge dequeued before g_{j-1}:
        that edge would have labeled g_j first.  Each earlier move in g_j's
        forest adds one of g_0, ..., g_{j-2} and changes g_{j-1}'s path only
        by that edge's cycle, so g_j is still on g_{j-1}'s path when it is
        swapped out; and the ends of `edge` stay apart in `forest`, because
        a swap keeps a forest's components.
        """
        swaps: list[tuple[int, Edge, Edge]] = []
        cur = edge
        # each chain edge's forest, read before any edge moves
        while label[cur] is not None:
            u, v = cur
            i = next(j for j, adj in enumerate(self.forest_adj) if v in adj[u])
            swaps.append((i, cur, label[cur]))
            cur = label[cur]
        # from the new edge outward, so that each edge leaves its old forest
        # before it joins its new one
        for i, out, e in reversed(swaps):
            self._swap(i, out, e)
        self._link(forest, edge)
        self.total += 1

    def forests_as_edge_sets(self) -> list[frozenset[Edge]]:
        return [frozenset((u, v) for u, nbrs in enumerate(adj) for v in nbrs if u < v)
                for adj in self.forest_adj]


def pack_trees(g: Graph, k: int) -> PackResult:
    """k edge-disjoint spanning trees of g, or a Nash-Williams/Tutte witness.

    A witness is a vertex partition whose crossing-edge total is at most
    k(t-1) - 1, certifying that no k-packing exists.  With fewer than
    k(n-1) edges the edge count settles it: the witness is the n singletons,
    and nothing is packed.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if g.n <= 1:
        return PackResult(k, True, tuple(frozenset() for _ in range(k)), None)

    comps = g.components
    if len(comps) > 1:
        witness = partition(g.n, sorted(comps, key=min))
        return PackResult(k, False, None, witness)

    target = k * (g.n - 1)
    if g.m < target:
        return PackResult(k, False, None, singleton_partition(g.n))
    packer = _Packer(g, k)
    for e in sorted(g.edges):
        if packer.try_insert(e) and packer.total == target:
            trees = tuple(packer.forests_as_edge_sets())
            return PackResult(k, True, trees, None)

    # maximal packing is short of k spanning trees: the merged clumps
    # (plus leftover singletons) form the violating partition
    groups: dict[int, set[int]] = {}
    for x, c in enumerate(packer.clump):
        groups.setdefault(c, set()).add(x)
    blocks = sorted(groups.values(), key=min)
    witness = partition(g.n, blocks)
    return PackResult(k, False, None, witness)


@dataclass(frozen=True)
class TreePackingResult:
    """sigma, the packed trees, (when available) the sigma+1 witness, and
    the minimum cut whose kappa' started the search (None for n <= 1)."""

    sigma: int
    trees: tuple[frozenset[Edge], ...]
    witness_partition: VertexPartition | None
    cut: CutResult | None = None


def sigma(g: Graph, witness: VertexPartition | None = None) -> TreePackingResult:
    """Spanning-tree packing number with certificates for both directions.

    kappa' comes from `edge_connectivity`: Stoer-Wagner, cut short after
    its first phase when a Cholesky certificate proves
    lambda2 < d - 2(d-1)/(d+1) for a d-regular g, which forces kappa' = d.
    The search starts at k = max(floor(kappa'/2), 1): Nash-Williams/Tutte,
    in the form Kundu uses ("Bounds on the number of disjoint spanning
    trees", JCTB 1974), gives sigma >= floor(kappa'/2).  While packs
    succeed it climbs, up to floor(m / (n-1)), the trivial edge bound.
    Every pack is a fresh pack_trees(g, k) and the packer is exact, so the
    trees come from pack_trees(g, sigma) and the witness from
    pack_trees(g, sigma+1).  The witness is None when sigma+1 exceeds the
    edge bound (the edge count certifies).  A failed first pack means
    k = 1 and a disconnected graph: sigma is 0 with that pack's witness.
    At a larger k only a packer bug gets there, and the result lacks its
    sigma trees, which ``verify_certificate`` rejects.

    `witness` is a partition the caller expects to violate the count at
    sigma+1 (a family's copies, a failed pack's witness).  Before each pack
    at k+1, if its crossing count is at most (k+1)(t-1) - 1 the climb
    stops: sigma is k, and that partition is the witness instead of the
    one a failing pack at k+1 would find.  Before the first pack only a
    disconnected graph's partition can violate (at k+1 = 1; above 1 it
    would contradict Kundu's bound), and sigma is then 0 with no trees.
    A partition that does not violate changes nothing.  One of another
    vertex count is refused with ValueError before any work.
    """
    if witness is not None and witness.n != g.n:
        raise ValueError("witness partition does not match graph")
    if g.n <= 1:
        return TreePackingResult(0, (), None)
    cut = edge_connectivity(g)
    kmax = g.m // (g.n - 1)
    crossing = None if witness is None else crossing_edges(g, witness)
    # the first pack is at k + 1.  floor(kappa'/2) <= m/n never exceeds
    # kmax, and kmax = 0 (m < n-1, so kappa' = 0) packs nothing and leaves
    # the edge count as the only certificate
    k = max(cut.value // 2, 1) - 1
    trees, found = (), None
    while k < kmax:
        if witness is not None and crossing <= (k + 1) * (witness.t - 1) - 1:
            found = witness
            break
        res = pack_trees(g, k + 1)
        if not res.success:
            found = res.witness
            break
        k, trees = k + 1, res.trees
    return TreePackingResult(k, trees, found, cut)


@dataclass(frozen=True)
class TreeCount:
    """Spanning-tree count, with the float route as a cross-check.

    exact: determinant of the reduced Laplacian, or 0 without one when
        the graph is disconnected.
    agree: whether the rounded product of the nonzero Laplacian
        eigenvalues over n equals exact; None when the count is too large
        for the float route to round exactly (>= 2^53), and then the
        Laplacian eigensolve is skipped, or when the product is not
        finite.  A small count does not bound the product: a disconnected
        graph has count 0 and mu_2 is rounding noise near 0, but the
        other eigenvalues can still overflow (two disjoint K100 give
        about 1e-14 * 100^198).
    """

    exact: int
    agree: bool | None


def count_spanning_trees(g: Graph) -> TreeCount:
    if g.n == 0:
        raise ValueError("empty graph")
    # a connected graph's reduced Laplacian is positive definite, as
    # det_exact requires; any other graph has no spanning tree
    connected = len(g.components) == 1
    exact = det_exact(g.laplacian_matrix()[1:, 1:].astype(np.int64)) if connected else 0
    if exact >= _FLOAT_EXACT:
        return TreeCount(exact, None)
    # every Laplacian eigenvalue but the least (mu_1 = 0), ascending
    product = prod(eig_symmetric(g.laplacian_matrix())[-2::-1]) / g.n
    if not isfinite(product):
        return TreeCount(exact, None)
    return TreeCount(exact, round(product) == exact)


@dataclass(frozen=True)
class CertificateCheck:
    ok: bool
    reason: str | None = None


def _is_spanning_tree(g: Graph, edges: frozenset[Edge]) -> bool:
    if len(edges) != g.n - 1:
        return False
    # n - 1 edges that close no cycle; union-find with path halving
    parent = list(range(g.n))
    for u, v in edges:
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        if u == v:
            return False
        parent[v] = u
    return True


def verify_certificate(g: Graph, result: TreePackingResult) -> CertificateCheck:
    """Re-validate a TreePackingResult from scratch.

    The trees are checked as a successful pack at k = sigma and the
    witness as a failed pack at sigma+1 (``verify_pack_result``).  When
    the witness is absent, the trivial edge-count bound must certify.
    """
    k = result.sigma
    w = result.witness_partition
    if g.n <= 1:
        if k != 0 or result.trees or w is not None:
            return CertificateCheck(False, "trivial graph must certify sigma 0 trivially")
        return CertificateCheck(True)
    check = verify_pack_result(g, PackResult(k, True, result.trees, None))
    if not check.ok:
        return check
    if w is None:
        if g.m >= (k + 1) * (g.n - 1):
            return CertificateCheck(False, "missing witness: edge bound does not certify")
        return CertificateCheck(True)
    return verify_pack_result(g, PackResult(k + 1, False, None, w))


def verify_pack_result(g: Graph, result: PackResult) -> CertificateCheck:
    """Re-validate a single pack_trees outcome for its stated k."""
    if result.success:
        trees = result.trees or ()
        if len(trees) != result.k:
            return CertificateCheck(False, "tree count does not match k")
        if g.n <= 1:
            if any(trees):
                return CertificateCheck(False, "trivial graph packs empty trees")
            return CertificateCheck(True)
        seen: set[Edge] = set()
        for tree in trees:
            if not tree <= g.edges:
                return CertificateCheck(False, "tree uses an edge not in the graph")
            if not _is_spanning_tree(g, tree):
                return CertificateCheck(False, "edge set is not a spanning tree")
            if seen & tree:
                return CertificateCheck(False, "trees share an edge")
            seen |= tree
        return CertificateCheck(True)
    w = result.witness
    if w is None or w.n != g.n or w.t < 2:
        return CertificateCheck(False, "failure needs a proper witness partition")
    if crossing_edges(g, w) > result.k * (w.t - 1) - 1:
        return CertificateCheck(False, "witness crossing count is not violating")
    return CertificateCheck(True)
