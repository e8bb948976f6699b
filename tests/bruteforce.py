"""Independent pattern counters by exhaustive subset enumeration.

Deliberately naive: enumerate candidate node tuples and test the pattern
definition edge by edge.  Shares the k-star convention of the library (a
copy is a (center, size-k neighbor subset) pair), so for undirected graphs
with k=1 every edge is counted once per orientation.  `capped_digraphs`
is the full-grid reference for the oracle's digraph enumeration.
"""
import itertools

import numpy as np


def _und_adj(nodes, edges):
    adj = {v: set() for v in nodes}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def _dir_adj(nodes, edges):
    out = {v: set() for v in nodes}
    for u, v in edges:
        out[u].add(v)
    return out


def count_undirected(pattern, nodes, edges, k=None):
    adj = _und_adj(nodes, edges)
    if pattern == "edge":
        return len(set(tuple(sorted(e)) for e in edges))
    if pattern == "triangle":
        return sum(
            1
            for a, b, c in itertools.combinations(sorted(nodes), 3)
            if b in adj[a] and c in adj[a] and c in adj[b]
        )
    if pattern == "k_star":
        total = 0
        for center in nodes:
            for subset in itertools.combinations(sorted(adj[center]), k):
                total += 1
        return total
    raise ValueError(pattern)


def count_directed(pattern, nodes, edges, k=None):
    out = _dir_adj(nodes, edges)
    if pattern == "edge":
        return len(set(edges))
    if pattern == "triangle_i":
        # Directed 3-cycles, one per unordered node triple.
        total = 0
        for a, b, c in itertools.combinations(sorted(nodes), 3):
            for x, y, z in ((a, b, c), (a, c, b)):
                if y in out[x] and z in out[y] and x in out[z]:
                    total += 1
        return total
    if pattern == "triangle_ii":
        # Transitive triangles: source -> middle -> sink plus source -> sink.
        total = 0
        for src, mid, sink in itertools.permutations(sorted(nodes), 3):
            if mid in out[src] and sink in out[src] and sink in out[mid]:
                total += 1
        return total
    if pattern == "out_k_star":
        return sum(
            1
            for center in nodes
            for _ in itertools.combinations(sorted(out[center]), k)
        )
    if pattern == "in_k_star":
        inc = {v: set() for v in nodes}
        for u, v in edges:
            inc[v].add(u)
        return sum(
            1
            for center in nodes
            for _ in itertools.combinations(sorted(inc[center]), k)
        )
    raise ValueError(pattern)


def capped_digraphs(n, cap_in, cap_out):
    """(out-mask, in-mask) rows of every capped digraph on n nodes.

    Meshgrid over every node's allowed out-masks (node 0 slowest), then keep
    the rows whose in-degrees are all within cap_in.
    """
    choices = [
        [m for m in range(1 << n) if not m >> v & 1 and bin(m).count("1") <= cap_out]
        for v in range(n)
    ]
    grids = np.meshgrid(*[np.array(c, dtype=np.int64) for c in choices], indexing="ij")
    out = np.stack([g.ravel() for g in grids], axis=-1)
    inmask = np.zeros_like(out)
    indeg = np.zeros_like(out)
    for v in range(n):
        for u in range(n):
            bit = (out[:, u] >> v) & 1
            inmask[:, v] |= bit << u
            indeg[:, v] += bit
    keep = (indeg <= cap_in).all(axis=1)
    return out[keep], inmask[keep]
