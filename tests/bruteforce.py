"""Independent pattern counters by exhaustive subset enumeration.

Deliberately naive: enumerate candidate node tuples and test the pattern
definition edge by edge.  Shares the k-star convention of the library (a
copy is a (center, size-k neighbor subset) pair), so for undirected graphs
with k=1 every edge is counted once per orientation.  `capped_digraphs`
is the full-grid reference for the oracle's digraph enumeration,
`signature_rows` builds and deduplicates signature rows one arrival tuple
at a time where the oracle builds many tuples' rows at once from
deduplicated graphs, `triangle_maxima` scores every labelled pair of
attach sets where the oracle scores one pair per orbit, and
`degree_maxima` walks every sub-multiset of every signature row and every
role assignment where the oracle expands rows against a table of role
patterns in array passes.  `naive_diff_sensitivity` is the end-to-end
reference for the oracle: it enumerates every labelled base sequence and
every single-node addition and evaluates each snapshot's statistic.
"""
import itertools
from collections import Counter

import numpy as np

from dpgraphseq import build_view, evaluate, oracle


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


def signature_rows(bounds, n, t_max, layout):
    """The oracle's signature rows, built one arrival tuple at a time.

    Every node's code is its arrival, its out-degree trajectory if it can
    send, and its flags, or zero if saturated; each tuple's sorted rows are
    deduplicated with a lexsort of all columns, and so is their union.
    """
    arrival_bits, step_bits, flag_shift = layout
    cap_in, cap_out = oracle._cap_limits(bounds)
    if bounds.is_directed:
        out, inmask = oracle._directed_graphs(n, cap_in, cap_out)
        can_send = _POP[out] < cap_out
        can_recv = _POP[inmask] < cap_in
    else:
        out = oracle._undirected_graphs(n, bounds.d)
        can_send = can_recv = _POP[out] < bounds.d
    flags = (can_send + 2 * can_recv).astype(np.int64) << flag_shift
    chunks = []
    for times in itertools.combinations_with_replacement(range(1, t_max + 1), n):
        present = [
            sum(1 << v for v in range(n) if times[v] <= t)
            for t in range(1, t_max + 1)
        ]
        arrived = np.array(times)[None, :]
        traj_part = np.zeros(out.shape, dtype=np.int64)
        for t in range(1, t_max + 1):
            deg = np.where(arrived <= t, _POP[out & present[t - 1]], 0)
            traj_part |= deg.astype(np.int64) << (arrival_bits + step_bits * (t - 1))
        sig = np.where(
            can_send | can_recv,
            arrived + traj_part * can_send + flags,
            0,
        )
        sig.sort(axis=1)
        chunks.append(oracle._unique_rows(sig))
    return oracle._unique_rows(np.concatenate(chunks, axis=0))


def _sub_multiset_closure(rows):
    """Every sub-multiset of every signature row, deduplicated.

    Dropping one element at a time (zero it out, re-sort, unique) once per
    row position reaches all sizes; zeros pad short rows.
    """
    levels = [rows]
    cur = rows
    for _ in range(rows.shape[1]):
        drops = []
        for i in range(cur.shape[1]):
            d = cur.copy()
            d[:, i] = 0
            drops.append(d)
        cur = np.concatenate(drops)
        cur.sort(axis=1)
        cur = oracle._unique_rows(cur)
        levels.append(cur)
    return oracle._unique_rows(np.concatenate(levels))


def _role_assignments(classes, budget_in, budget_out):
    """Assign every node of the multiset a role within the degree budgets.

    Roles: sender (edge to the new node, needs spare out-degree), receiver
    (edge from it, needs spare in-degree), or both.  Senders plus both-role
    nodes occupy the new node's in-degree budget, receivers plus both its
    out-degree budget.  Nodes of one class are interchangeable, so only
    per-class counts are enumerated.
    """

    def rec(i, left_in, left_out, acc):
        if i == len(classes):
            yield tuple(acc)
            return
        code, m, can_send, can_recv = classes[i]
        for ns in range(m + 1):
            for nr in range(m - ns + 1):
                nb = m - ns - nr
                if (ns or nb) and not can_send:
                    continue
                if (nr or nb) and not can_recv:
                    continue
                ci, co = ns + nb, nr + nb
                if ci > left_in or co > left_out:
                    continue
                acc.append((code, ci, co))
                yield from rec(i + 1, left_in - ci, left_out - co, acc)
                acc.pop()

    yield from rec(0, budget_in, budget_out, [])


def _decode_profile(code, t_max, layout):
    """Unpack one node's code: arrival, trajectory, spare-capacity flags."""
    arrival_bits, step_bits, flag_shift = layout
    code = int(code)
    t_v = code & ((1 << arrival_bits) - 1)
    traj = tuple(
        (code >> (arrival_bits + step_bits * t)) & ((1 << step_bits) - 1)
        for t in range(t_max)
    )
    return t_v, traj, bool(code >> flag_shift & 1), bool(code >> flag_shift & 2)


def eval_side(affected, peer_arrivals, t_max, tables):
    """Per-column distances of one out-side configuration, a row per t*.

    Row t* - 1 scores the new node arriving at step t*.  `affected` lists
    (arrival, trajectory) of existing nodes gaining one incident edge at
    max(t*, arrival); the new node's own out-edges reach peers of the given
    arrivals at max(t*, arrival), which fully determines its trajectory.
    """
    steps = np.arange(1, t_max + 1)
    tstar = steps[:, None]  # rows: t*, columns: t
    own = np.zeros(t_max, dtype=np.int64)
    for tv in peer_arrivals:
        own += steps >= tv
    change = np.where((steps >= tstar)[..., None], tables[own], 0)
    for tv, traj in affected:
        before = np.array(traj)
        change += tables[before + (steps >= np.maximum(tstar, tv))] - tables[before]
    return np.abs(np.diff(change, axis=1, prepend=0)).sum(axis=1)


def degree_maxima(bounds, n_max, t_max, max_k):
    """The oracle's out-side degree maxima, one configuration at a time.

    Walks every sub-multiset of every signature row, every role assignment
    of its nodes within the new node's degree budgets, and scores each
    distinct (affected profiles, peer arrivals) configuration on its own.
    """
    directed = bounds.is_directed
    cap_in, cap_out = oracle._cap_limits(bounds)
    budget_out = cap_out if directed else 0
    keys, tables = oracle._degree_tables(
        cap_out,
        range(1, cap_out + 1),
        range(1, max_k + 1),
        "out_k_star" if directed else "k_star",
    )
    starts = np.arange(len(keys))
    best = np.zeros(len(keys), dtype=np.int64)
    best_edges = 0
    layout = oracle._profile_layout(bounds, n_max, t_max)
    rows = _sub_multiset_closure(oracle._signature_rows(bounds, n_max, t_max, layout))
    rows = rows[np.count_nonzero(rows, axis=1) <= cap_in + budget_out]
    decoded = {}
    seen = set()
    for row in rows:
        classes = []
        for code, m in Counter(int(c) for c in row if c).items():
            if code not in decoded:
                decoded[code] = _decode_profile(code, t_max, layout)
            _, _, can_send, can_recv = decoded[code]
            classes.append((code, m, can_send, can_recv))
        for picked in _role_assignments(classes, cap_in, budget_out):
            best_edges = max(best_edges, sum(ci + co for _, ci, co in picked))
            affected = []
            peer_arrivals = []
            for code, ci, co in picked:
                t_v, traj, _, _ = decoded[code]
                affected.extend(((t_v, traj),) * ci)
                peer_arrivals.extend((t_v,) * co)
            # Undirected: one attached edge is both the node's extra degree
            # and one unit of the new node's own degree.
            if not directed:
                peer_arrivals = [t_v for t_v, _ in affected]
            config = (tuple(sorted(affected)), tuple(sorted(peer_arrivals)))
            if config in seen:
                continue
            seen.add(config)
            dist = eval_side(*config, t_max, tables)
            score = np.add.reduceat(dist, starts, axis=1).max(axis=0)
            np.maximum(best, score, out=best)
    maxima = {key: int(v) for key, v in zip(keys, best)}
    maxima[("edge",)] = best_edges
    return maxima


def _histogram_l1(a, b):
    """Coordinate-wise L1 distance of two sparse histograms."""
    return sum(abs(a.get(d, 0) - b.get(d, 0)) for d in set(a) | set(b))


def _naive_diff_distance(query, directed, times_a, edges_a, times_b, edges_b, t_max):
    """L1 distance between the two exact difference sequences."""

    def diffs(node_time, edges):
        out = []
        prev = 0 if query.is_scalar else {}
        for t in range(1, t_max + 1):
            present = {n: tt for n, tt in node_time.items() if tt <= t}
            live = [e for e in edges if max(node_time[e[0]], node_time[e[1]]) <= t]
            val = evaluate(query, build_view(directed, present, live))
            if query.is_scalar:
                out.append(val - prev)
            else:
                out.append(
                    {
                        d: val.get(d, 0) - prev.get(d, 0)
                        for d in set(val) | set(prev)
                    }
                )
            prev = val
        return out

    da, db = diffs(times_a, edges_a), diffs(times_b, edges_b)
    if query.is_scalar:
        return sum(abs(x - y) for x, y in zip(da, db))
    return sum(_histogram_l1(x, y) for x, y in zip(da, db))


def _naive_bases(directed, bounds, n, t_max):
    """All bound-respecting sequences on exactly n labeled nodes."""
    cap_in, cap_out = oracle._cap_limits(bounds)
    nodes = [f"v{i}" for i in range(n)]
    if directed:
        candidates = [(a, b) for a in nodes for b in nodes if a != b]
    else:
        candidates = [(a, b) for a, b in itertools.combinations(nodes, 2)]
    for times in itertools.combinations_with_replacement(range(1, t_max + 1), n):
        node_time = dict(zip(nodes, times))
        for edges in itertools.chain.from_iterable(
            itertools.combinations(candidates, m) for m in range(len(candidates) + 1)
        ):
            if directed:
                outdeg = Counter(u for u, _ in edges)
                indeg = Counter(v for _, v in edges)
                if any(outdeg[v] > cap_out or indeg[v] > cap_in for v in nodes):
                    continue
            else:
                deg = Counter(itertools.chain.from_iterable(edges))
                if any(deg[v] > bounds.d for v in nodes):
                    continue
            yield node_time, list(edges)


def naive_diff_sensitivity(query, bounds, n_max, t_max) -> int:
    """Max difference-sequence L1 distance, by literal enumeration.

    Every bound-respecting sequence on up to n_max labelled nodes over steps
    1..t_max, every arrival step of the added node and every legal choice of
    its in- and out-neighbours; each statistic is evaluated snapshot by
    snapshot.  Only viable for tiny budgets.
    """
    directed = bounds.is_directed
    cap_in, cap_out = oracle._cap_limits(bounds)
    best = 0
    for n in range(1, n_max + 1):
        for node_time, edges in _naive_bases(directed, bounds, n, t_max):
            if directed:
                outdeg = Counter(u for u, _ in edges)
                indeg = Counter(v for _, v in edges)
                in_candidates = [v for v in node_time if outdeg[v] < cap_out]
                out_candidates = [v for v in node_time if indeg[v] < cap_in]
            else:
                deg = Counter(itertools.chain.from_iterable(edges))
                in_candidates = [v for v in node_time if deg[v] < bounds.d]
                out_candidates = []
            for tstar in range(1, t_max + 1):
                times_b = dict(node_time, **{"v*": tstar})
                if directed:
                    choices = (
                        (s_in, s_out)
                        for m in range(min(cap_in, len(in_candidates)) + 1)
                        for s_in in itertools.combinations(in_candidates, m)
                        for mo in range(min(cap_out, len(out_candidates)) + 1)
                        for s_out in itertools.combinations(out_candidates, mo)
                    )
                else:
                    choices = (
                        (s, ())
                        for m in range(min(bounds.d, len(in_candidates)) + 1)
                        for s in itertools.combinations(in_candidates, m)
                    )
                for s_in, s_out in choices:
                    extra = [(u, "v*") for u in s_in] + [("v*", w) for w in s_out]
                    dist = _naive_diff_distance(
                        query,
                        directed,
                        node_time,
                        edges,
                        times_b,
                        edges + extra,
                        t_max,
                    )
                    if dist > best:
                        best = dist
    return best
