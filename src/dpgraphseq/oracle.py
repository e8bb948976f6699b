"""Brute-force certification of the difference-sequence sensitivities.

The oracle maximizes, over every bound-respecting base sequence within a
small node/step budget and every legal single-node addition, the L1 distance
between the two exact difference sequences.  Its value never exceeding the
closed-form catalog entry is the certified relationship.

Two search engines are provided:

* ``naive`` — literal enumeration of sequences and additions, evaluating
  statistics snapshot by snapshot.  Transparent but only viable for tiny
  budgets; it is the reference the pruned engine is validated against.
* ``pruned`` — the default.  Degree-determined statistics (threshold counts,
  histograms, edge counts, stars) depend only on per-node degree
  trajectories, so base sequences are deduplicated by their sorted
  trajectory signature (lossless for these statistics) and additions are
  evaluated once per distinct local configuration.  All of them but the
  edge count are f(G_t) = sum_v g(deg_t(v)) for a table g on degrees
  0..cap (one table per bin for the histogram), so one scorer sums
  g(after) - g(before) over the nodes an addition touches.  Triangle
  patterns need real structure: every capped graph is enumerated, and
  since relabelling nodes maps those graphs onto themselves, only one pair
  of attach sets per orbit, fixed by (|in-set|, |out-set|, overlap), is
  scored with vectorized bit arithmetic.  Triangle scoring fixes all
  arrivals at t=1: shifting arrival times only redistributes a copy's
  appearance step, which the naive cross-check confirms at small budgets.

The pruned degree sweep scores out-degrees only (for undirected bounds, the
degree).  Transposing a digraph maps (d_in, d_out)-capped sequences and
additions one-to-one onto (d_out, d_in)-capped ones and in-stars onto
out-stars, so the in-star answers of a directed bound are the out-star
answers of the transposed bound's sweep.  Transposition also preserves
directed 3-cycle and transitive-triangle counts, so each directed triangle
sweep runs in its d_out <= d_in orientation, which enumerates fewer masks.
Capped digraphs are built one node at a time, and a partial graph is
dropped as soon as some node's in-degree exceeds d_in, so the full grid of
out-mask tuples is never held.  Signature rows are deduplicated by a
``np.lexsort`` of their columns and a comparison of adjacent rows, which
returns what ``np.unique(rows, axis=0)`` does without its row-as-record
sort.

A node profile is packed into one int64 code, low bits first: the arrival
step (``t_max.bit_length()`` bits), then one field per step of the
out-degree trajectory (``min(cap, n_max - 1).bit_length()`` bits each, cap
being d_out or D), then the spare out-degree and spare in-degree flags.
Budgets whose code would need more than 63 bits raise
``BudgetTooLargeError`` before any enumeration.
"""
from __future__ import annotations

import functools
import itertools
from collections import Counter
from math import comb

import numpy as np

from .errors import BudgetTooLargeError, UnsupportedQueryError
from .graph_core import DegreeBounds, build_view
from .statistics import (
    DIRECTED_PATTERNS,
    UNDIRECTED_PATTERNS,
    StatisticQuery,
    evaluate,
    histogram_distance,
)

_POP = np.array([bin(i).count("1") for i in range(256)], dtype=np.int64)


def _query_key(query: StatisticQuery):
    if query.kind == "high_degree":
        return ("high_degree", query.tau)
    if query.kind == "degree_histogram":
        return ("degree_histogram",)
    if query.pattern in ("k_star", "out_k_star", "in_k_star"):
        return (query.pattern, query.k)
    return (query.pattern,)


def oracle_diff_sensitivity(
    query: StatisticQuery,
    bounds: DegreeBounds,
    n_max: int,
    t_max: int,
    method: str = "pruned",
) -> int:
    """Max difference-sequence L1 distance over the budgeted search space."""
    if n_max > 7:
        raise BudgetTooLargeError(f"n_max={n_max} exceeds the search budget cap")
    if n_max < 1 or t_max < 1:
        raise ValueError("budgets must be >= 1")
    if method == "naive":
        return _naive_oracle(query, bounds, n_max, t_max)
    if method != "pruned":
        raise ValueError(f"unknown oracle method {method!r}")
    patterns = DIRECTED_PATTERNS if bounds.is_directed else UNDIRECTED_PATTERNS
    if query.kind == "subgraph" and query.pattern not in patterns:
        raise UnsupportedQueryError(f"oracle does not cover {query.label()}")
    key = _query_key(query)
    if key[0] in ("triangle", "triangle_i", "triangle_ii"):
        return _triangle_sweep(bounds, n_max)[key]
    if key[0] == "in_k_star" and bounds.is_directed:
        # In-stars of a digraph are the out-stars of its transpose.
        bounds = DegreeBounds.directed(bounds.d_out, bounds.d_in)
        key = ("out_k_star", key[1])
    results = _degree_sweep(bounds, n_max, t_max, max_k=max(3, query.k or 0))
    if key not in results:
        raise UnsupportedQueryError(f"oracle does not cover {query.label()}")
    return results[key]


# --- naive engine --------------------------------------------------------


def _cap_limits(bounds: DegreeBounds):
    if bounds.is_directed:
        return bounds.d_in, bounds.d_out
    return bounds.d, bounds.d


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
    return sum(histogram_distance(x, y) for x, y in zip(da, db))


def _naive_bases(directed, bounds, n, t_max):
    """All bound-respecting sequences on exactly n labeled nodes."""
    cap_in, cap_out = _cap_limits(bounds)
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


def _naive_oracle(query, bounds, n_max, t_max) -> int:
    directed = bounds.is_directed
    cap_in, cap_out = _cap_limits(bounds)
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


# --- capped graph enumeration (vectorized) -------------------------------


def _directed_graphs(n, cap_in, cap_out):
    """Out-neighbor bitmask matrix of every capped digraph on n nodes.

    Built one node at a time: node v's allowed out-masks are appended to
    every surviving prefix, and a prefix is dropped as soon as one of its
    partial in-neighbor masks holds more than cap_in nodes.  Rows come out
    in the order of a full meshgrid over all nodes' masks (node 0 slowest),
    filtered.
    """
    masks = np.arange(1 << n, dtype=np.int64)
    bits = (masks[:, None] >> np.arange(n)) & 1  # bits[m, w]: m has w
    out = np.zeros((1, 0), dtype=np.int64)
    inmask = np.zeros((1, n), dtype=np.int64)
    for v in range(n):
        allowed = masks[(_POP[masks] <= cap_out) & (bits[:, v] == 0)]
        prefix = np.repeat(np.arange(len(out)), len(allowed))
        mask = np.tile(allowed, len(out))
        grown = inmask[prefix] | (bits[mask] << v)
        keep = (_POP[grown] <= cap_in).all(axis=1)
        out = np.column_stack([out[prefix[keep]], mask[keep]])
        inmask = grown[keep]
    return out, inmask


def _undirected_graphs(n, cap):
    """Neighbor bitmask matrix of every degree-capped graph on n nodes."""
    pairs = list(itertools.combinations(range(n), 2))
    count = 1 << len(pairs)
    sel = np.arange(count, dtype=np.int64)
    adj = np.zeros((count, n), dtype=np.int64)
    for i, (a, b) in enumerate(pairs):
        present = (sel >> i) & 1
        adj[:, a] |= present << b
        adj[:, b] |= present << a
    keep = (_POP[adj] <= cap).all(axis=1)
    return adj[keep]


# --- pruned engine: degree-determined statistics -------------------------


def _unique_rows(rows):
    """Distinct rows in lexicographic order, as ``np.unique(rows, axis=0)``."""
    rows = rows[np.lexsort(rows.T[::-1])]
    keep = np.ones(len(rows), dtype=bool)
    keep[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    return rows[keep]


def _profile_layout(bounds, n_max, t_max):
    """Bit layout of a profile code: (arrival bits, step bits, flag shift).

    Raises BudgetTooLargeError when the fields do not fit in an int64.
    """
    _, cap = _cap_limits(bounds)
    arrival_bits = t_max.bit_length()
    step_bits = min(cap, n_max - 1).bit_length()
    flag_shift = arrival_bits + t_max * step_bits
    if flag_shift + 2 > 63:
        raise BudgetTooLargeError(
            f"t_max={t_max} at n_max={n_max} needs a {flag_shift + 2}-bit "
            "profile code, above 63 bits"
        )
    return arrival_bits, step_bits, flag_shift


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


def _signature_rows(bounds, n, t_max, layout):
    """Unique attachment-relevant signatures over all capped sequences.

    Senders keep their out-degree trajectories; every potential receiver is
    reduced to its arrival time.  Only nodes with spare capacity can touch
    the added node, so saturated nodes are dropped.  Both reductions are
    lossless for the out-side maxima.
    """
    arrival_bits, step_bits, flag_shift = layout
    cap_in, cap_out = _cap_limits(bounds)
    if bounds.is_directed:
        out, inmask = _directed_graphs(n, cap_in, cap_out)
        can_send = _POP[out] < cap_out       # spare out-degree
        can_recv = _POP[inmask] < cap_in     # spare in-degree
    else:
        out = _undirected_graphs(n, bounds.d)
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
        chunks.append(_unique_rows(sig))
    return _unique_rows(np.concatenate(chunks, axis=0))


def _sub_multiset_closure(rows):
    """Every sub-multiset of every signature row, deduplicated.

    Dropping one element at a time (vectorized: zero it out, re-sort, unique)
    once per row position reaches all sizes; zeros pad short rows.
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
        cur = _unique_rows(cur)
        levels.append(cur)
    return _unique_rows(np.concatenate(levels))


def _role_assignments(classes, budget_in, budget_out):
    """Assign every node of the multiset a role within the degree budgets.

    Roles: sender (edge to the new node, needs spare out-degree), receiver
    (edge from it, needs spare in-degree), or both.  Senders plus both-role
    nodes occupy the new node's in-degree budget, receivers plus both its
    out-degree budget.  Nodes of one class are interchangeable, so only
    per-class counts are enumerated.
    """
    items = classes  # list of (code, count, can_send, can_recv)

    def rec(i, left_in, left_out, acc):
        if i == len(items):
            yield tuple(acc)
            return
        code, m, can_send, can_recv = items[i]
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


def _degree_tables(cap, taus, ks, star):
    """Query keys and the table g(d), d = 0..cap, of each of their columns.

    Every degree-determined query is f(G_t) = sum over present nodes of
    g(deg_t(v)): [d >= tau] for a threshold count, C(d, k) for a star count,
    and one column [d = b] per bin b of the histogram, which is the last key
    and owns the last cap + 1 columns.
    """
    d = range(cap + 1)
    columns = [[int(x >= tau) for x in d] for tau in taus]
    columns += [[comb(x, k) for x in d] for k in ks]
    columns += [[int(x == b) for x in d] for b in d]
    keys = [("high_degree", tau) for tau in taus] + [(star, k) for k in ks]
    keys.append(("degree_histogram",))
    return keys, np.array(columns, dtype=np.int64).T


def _eval_side(affected, peer_arrivals, t_max, tables):
    """Per-column distances of one out-side configuration, a row per t*.

    Row t* - 1 scores the new node arriving at step t*.  `affected` lists
    (arrival, trajectory) of existing nodes gaining one incident edge at
    max(t*, arrival); the new node's own out-edges reach peers of the given
    arrivals at max(t*, arrival), which fully determines its trajectory.
    Only those nodes change degree, so the change of each column's f at
    step t is the sum of g(after) - g(before) over them, plus g of the new
    node's degree once it is present; the distance is the L1 norm of that
    change's step differences.
    """
    steps = np.arange(1, t_max + 1)
    tstar = steps[:, None]  # rows: t*, columns: t
    # Once the new node is present (t >= t*), max(t*, arrival) <= t is
    # arrival <= t.
    own = np.zeros(t_max, dtype=np.int64)
    for tv in peer_arrivals:
        own += steps >= tv
    change = np.where((steps >= tstar)[..., None], tables[own], 0)
    for tv, traj in affected:
        before = np.array(traj)
        change += tables[before + (steps >= np.maximum(tstar, tv))] - tables[before]
    return np.abs(np.diff(change, axis=1, prepend=0)).sum(axis=1)


@functools.lru_cache(maxsize=None)
def _degree_sweep(bounds, n_max, t_max, max_k=3):
    """Max distances for every out-side degree-determined query.

    An attachment configuration is fully described by the multiset of
    affected-node (arrival, out-trajectory) profiles plus the arrival times
    of the new node's own out-edges' endpoints; anything finer never changes
    a score, so configurations are deduplicated at that level before the
    (cheap but repeated) per-step evaluation.  In-stars of a directed bound
    are read from its transpose's sweep.
    """
    directed = bounds.is_directed
    cap_in, cap_out = _cap_limits(bounds)
    budget_out = cap_out if directed else 0
    keys, tables = _degree_tables(
        cap_out,
        range(1, cap_out + 1),
        range(1, max_k + 1),
        "out_k_star" if directed else "k_star",
    )
    # The histogram's bins are the last columns, so each reduceat segment
    # starting at these offsets is one key.
    starts = np.arange(len(keys))
    best = np.zeros(len(keys), dtype=np.int64)
    best_edges = 0
    layout = _profile_layout(bounds, n_max, t_max)
    rows = _sub_multiset_closure(_signature_rows(bounds, n_max, t_max, layout))
    # Every role spends at least one unit of the new node's degree budget,
    # so a row with more nodes than the budget has no role assignment.
    rows = rows[np.count_nonzero(rows, axis=1) <= cap_in + budget_out]
    decoded: dict = {}
    seen: set = set()
    for row in rows:
        counts = Counter(int(c) for c in row if c)
        classes = []
        for code, m in counts.items():
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
                if ci:
                    affected.extend(((t_v, traj),) * ci)
                if co:
                    peer_arrivals.extend((t_v,) * co)
            # Undirected: one attached edge is both the node's extra degree
            # and one unit of the new node's own degree.
            if not directed:
                peer_arrivals = [t_v for t_v, _ in affected]
            config = (tuple(sorted(affected)), tuple(sorted(peer_arrivals)))
            if config in seen:
                continue
            seen.add(config)
            dist = _eval_side(*config, t_max, tables)
            score = np.add.reduceat(dist, starts, axis=1).max(axis=0)
            np.maximum(best, score, out=best)
    maxima = {key: int(v) for key, v in zip(keys, best)}
    maxima[("edge",)] = best_edges
    return maxima


# --- pruned engine: triangle patterns ------------------------------------


def _orbit_pairs(n, cap_in, cap_out):
    """One (in-set, out-set) mask pair per orbit under node relabelling.

    An orbit is fixed by (|si|, |so|, |si & so|); the representative takes
    si = {0..a-1} and lets so = {a-c..a-c+b-1} overlap its last c nodes.
    """
    for a in range(cap_in + 1):
        for b in range(cap_out + 1):
            for c in range(max(0, a + b - n), min(a, b) + 1):
                yield (1 << a) - 1, ((1 << b) - 1) << (a - c)


@functools.lru_cache(maxsize=None)
def _triangle_sweep(bounds, n_max):
    """Max new-copy counts for triangle patterns over capped graphs.

    Scored on single-batch sequences: every copy a new node creates appears
    in some step's difference entry exactly once, so the distance equals the
    number of new copies regardless of arrival times.  Relabelling nodes
    maps the capped graphs onto themselves, so attach sets score like every
    other pair in their orbit and one representative per orbit is scored.
    """
    if bounds.is_directed and bounds.d_out > bounds.d_in:
        mirrored = DegreeBounds.directed(bounds.d_out, bounds.d_in)
        return _triangle_sweep(mirrored, n_max)
    n = n_max
    if bounds.is_directed:
        cap_in, cap_out = bounds.d_in, bounds.d_out
        out, inmask = _directed_graphs(n, cap_in, cap_out)
        out_ok = np.zeros(len(out), dtype=np.int64)
        in_ok = np.zeros(len(out), dtype=np.int64)
        for v in range(n):
            out_ok |= (_POP[out[:, v]] < cap_out).astype(np.int64) << v
            in_ok |= (_POP[inmask[:, v]] < cap_in).astype(np.int64) << v
        best_i = 0
        best_ii = 0
        for si, so in _orbit_pairs(n, cap_in, cap_out):
            elig = ((out_ok & si) == si) & ((in_ok & so) == so)
            if not elig.any():
                continue
            si_nodes = [v for v in range(n) if si >> v & 1]
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

    adj = _undirected_graphs(n, bounds.d)
    cap_mask = np.zeros(len(adj), dtype=np.int64)
    for v in range(n):
        cap_mask |= (_POP[adj[:, v]] < bounds.d).astype(np.int64) << v
    best = 0
    for m in range(min(bounds.d, n) + 1):
        s = (1 << m) - 1
        elig = (cap_mask & s) == s
        if not elig.any():
            continue
        score = np.zeros(len(adj), dtype=np.int64)
        for v in range(m):
            score += _POP[adj[:, v] & s]
        score //= 2  # each inside edge seen from both endpoints
        best = max(best, int(score[elig].max(initial=0)))
    return {("triangle",): best}
