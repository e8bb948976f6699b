"""Independent pattern counters by exhaustive subset enumeration.

Deliberately naive: enumerate candidate node tuples and test the pattern
definition edge by edge.  Shares the k-star convention of the library (a
copy is a (center, size-k neighbor subset) pair), so for undirected graphs
with k=1 every edge is counted once per orientation.  `capped_digraphs`
is the full-grid reference for the oracle's digraph enumeration, and
`triangle_maxima` scores every labelled pair of attach sets where the
oracle scores one pair per orbit.
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


_POP = np.array([bin(i).count("1") for i in range(256)], dtype=np.int64)


def capped_graphs(n, cap):
    """Neighbor-mask rows of every degree-capped undirected graph on n nodes."""
    pairs = list(itertools.combinations(range(n), 2))
    rows = []
    for chosen in itertools.product((0, 1), repeat=len(pairs)):
        adj = [0] * n
        for on, (a, b) in zip(chosen, pairs):
            if on:
                adj[a] |= 1 << b
                adj[b] |= 1 << a
        if all(bin(m).count("1") <= cap for m in adj):
            rows.append(adj)
    return np.array(rows, dtype=np.int64).reshape(len(rows), n)


def _masks_up_to(n, size):
    return [m for m in range(1 << n) if bin(m).count("1") <= size]


def triangle_maxima(n, cap_in, cap_out=None):
    """Most triangle copies one added node creates, over every capped graph.

    Loops over every labelled (in-set, out-set) pair of attach masks; with
    cap_out None the graphs are undirected with degree cap cap_in.
    """
    if cap_out is None:
        adj = capped_graphs(n, cap_in)
        cap_mask = np.zeros(len(adj), dtype=np.int64)
        for v in range(n):
            cap_mask |= (_POP[adj[:, v]] < cap_in).astype(np.int64) << v
        best = 0
        for s in _masks_up_to(n, cap_in):
            elig = (cap_mask & s) == s
            score = np.zeros(len(adj), dtype=np.int64)
            for v in range(n):
                if s >> v & 1:
                    score += _POP[adj[:, v] & s]
            best = max(best, int((score // 2)[elig].max(initial=0)))
        return {("triangle",): best}

    out, inmask = capped_digraphs(n, cap_in, cap_out)
    out_ok = np.zeros(len(out), dtype=np.int64)
    in_ok = np.zeros(len(out), dtype=np.int64)
    for v in range(n):
        out_ok |= (_POP[out[:, v]] < cap_out).astype(np.int64) << v
        in_ok |= (_POP[inmask[:, v]] < cap_in).astype(np.int64) << v
    best_i = best_ii = 0
    for si in _masks_up_to(n, cap_in):
        si_nodes = [v for v in range(n) if si >> v & 1]
        for so in _masks_up_to(n, cap_out):
            elig = ((out_ok & si) == si) & ((in_ok & so) == so)
            so_nodes = [v for v in range(n) if so >> v & 1]
            # triangle I: in-edge u->v*, out-edge v*->w, base edge w->u
            score_i = np.zeros(len(out), dtype=np.int64)
            for u in si_nodes:
                score_i += _POP[inmask[:, u] & so]
            # triangle II: every base edge inside the attached sets
            score_ii = np.zeros(len(out), dtype=np.int64)
            for b in si_nodes:
                score_ii += _POP[inmask[:, b] & si]
            for b in so_nodes:
                score_ii += _POP[inmask[:, b] & si] + _POP[inmask[:, b] & so]
            best_i = max(best_i, int(score_i[elig].max(initial=0)))
            best_ii = max(best_ii, int(score_ii[elig].max(initial=0)))
    return {("triangle_i",): best_i, ("triangle_ii",): best_ii}
