"""Brute-force certification of the difference-sequence sensitivities.

The oracle maximizes, over every bound-respecting base sequence within a
small node/step budget and every legal single-node addition, the L1 distance
between the two exact difference sequences.  Its value never exceeding the
closed-form catalog entry is the certified relationship.

Degree-determined statistics (threshold counts, histograms, edge counts,
stars) depend only on per-node degree trajectories, so base sequences are
deduplicated by their sorted trajectory signature (lossless for these
statistics).  Each signature row meets one fixed table of role patterns:
every node takes none, send, recv or both within the new node's degree
budgets, as its flag bits allow.  Each configuration so reached, its sorted
affected profiles plus sorted peer arrivals, is packed into one int64 key,
and the keys are deduplicated.  Threshold counts, stars and the histogram
are f(G_t) = sum_v g(deg_t(v)) for a table g on degrees 0..cap, so the
distinct configurations are scored in batches from per-profile tables of
g(after) - g(before) plus the new node's own-degree term.  The edge count
needs no sweep of its own: it is the sum of out-degrees (the 1-out-star
count) of every digraph and half the sum of degrees (the 1-star count) of
every undirected graph, so its distance is the 1-star distance, halved when
undirected.  Triangle patterns need real structure: every capped graph is
enumerated, and since relabelling nodes maps those graphs onto themselves,
only one pair of attach sets per orbit, fixed by (|in-set|, |out-set|,
overlap), is scored with vectorized bit arithmetic.  Triangle scoring fixes
all arrivals at t=1: shifting arrival times only redistributes a copy's
appearance step, which the literal enumeration in the tests confirms at
small budgets.

The degree sweep scores out-degrees only (for undirected bounds, the
degree).  Transposing a digraph maps (d_in, d_out)-capped sequences and
additions one-to-one onto (d_out, d_in)-capped ones and in-stars onto
out-stars, so the in-star answers of a directed bound are the out-star
answers of the transposed bound's sweep.  Transposition also preserves
directed 3-cycle and transitive-triangle counts, so each directed triangle
sweep runs in its d_out <= d_in orientation.  The capped digraphs of a
(d_in, d_out) pair and of its mirror are each other's transposes, so each
pair is enumerated once, in that d_out <= d_in orientation (fewer out-masks
per node), and kept read-only in a small cache; the mirror swaps the out-
and in-mask matrices.  A bound's degree sweep, its in-star sweep and both
triangle sweeps read the same arrays, and an undirected bound's degree and
triangle sweeps share one cached enumeration of its capped graphs.  Capped
digraphs are built one node at a time, and a partial graph is dropped as
soon as some node's in-degree exceeds d_in, so the full grid of out-mask
tuples is never held.  A
signature row sees a node only through its spare-capacity flags and, if it
can send, its out-mask, so each capped graph reduces to one int64 (the
senders' out-masks and the spare-out and spare-in node bitmasks) and equal
graphs are merged first.  Arrival tuples are non-decreasing, so the nodes
present at a step are the first k of them; tables of every node's
out-degree into nodes 0..k-1, one per k, give the codes of many (tuple,
graph) rows per array pass.  Each row is sorted and
packed into int64 words, first column in the high bits, so deduplicating
the words with a sort deduplicates the rows in lexicographic order.  Every
deduplication here (graphs, rows, profile codes, configuration keys) is
that one sort followed by an adjacent compare, `_unique_rows`.

A node profile is packed into one int64 code, low bits first: the arrival
step (``t_max.bit_length()`` bits), then one field per step of the
out-degree trajectory (``min(cap, n_max - 1).bit_length()`` bits each, cap
being d_out or D), then the spare out-degree and spare in-degree flags.
Budgets whose code would need more than 63 bits raise
``BudgetTooLargeError`` before any enumeration, and so do those whose
configuration key would.  A key is the product of a row's values with a
0/1 shift pattern, each chosen value landing in its own field, so every
product and partial sum is an integer below 2**(key bits).  Up to 53 key
bits that product runs in float64, which holds such integers exactly in any
summation order, and is cast back; wider keys stay in int64.  Budgets must
be ints (not bools or floats), or ``TypeError`` is raised.
"""
from __future__ import annotations

import functools
import itertools

import numpy as np

from .errors import BudgetTooLargeError, UnsupportedQueryError
from .graph_core import DegreeBounds, _check_int
from .statistics import (
    DIRECTED_PATTERNS,
    UNDIRECTED_PATTERNS,
    StatisticQuery,
    _degree_table,
)

_POP = np.array([bin(i).count("1") for i in range(256)], dtype=np.int64)
# Most (arrival tuple, graph) rows _signature_rows builds in one array pass.
_GROUP_ROWS = 1 << 15
# Widest configuration key _degree_sweep computes in float64 (the mantissa).
_FLOAT_KEY_BITS = 53


def _query_key(query: StatisticQuery):
    """The statistic's name, then the fields it reads (a query sets no others)."""
    fields = (query.pattern or query.kind, query.tau, query.k)
    return tuple(field for field in fields if field is not None)


def oracle_diff_sensitivity(
    query: StatisticQuery,
    bounds: DegreeBounds,
    n_max: int,
    t_max: int,
) -> int:
    """Max difference-sequence L1 distance over the budgeted search space."""
    _check_int("n_max", n_max)
    _check_int("t_max", t_max)
    if n_max > 7:
        raise BudgetTooLargeError(f"n_max={n_max} exceeds the search budget cap")
    if n_max < 1 or t_max < 1:
        raise ValueError("budgets must be >= 1")
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


@functools.lru_cache(maxsize=4)
def _oriented_digraphs(n, cap_in, cap_out):
    """`_directed_graphs`, kept read-only for every sweep that reads it."""
    out, inmask = _directed_graphs(n, cap_in, cap_out)
    out.flags.writeable = inmask.flags.writeable = False
    return out, inmask


def _capped_digraphs(n, cap_in, cap_out):
    """Read-only (out-mask, in-mask) matrices of every capped digraph.

    Only the cap_out <= cap_in orientation is enumerated, which allows fewer
    out-masks per node; the other is its transpose, whose out-masks are the
    in-masks.  Rows are in no particular order.
    """
    if cap_out > cap_in:
        inmask, out = _oriented_digraphs(n, cap_out, cap_in)
        return out, inmask
    return _oriented_digraphs(n, cap_in, cap_out)


def _spare(masks, cap):
    """Per graph, the bitmask of nodes whose neighbor mask holds < cap nodes.

    With out-masks and cap d_out these are the nodes that can still send an
    edge, with in-masks and cap d_in those that can still receive one.
    """
    return (_POP[masks] < cap) @ (1 << np.arange(masks.shape[1]))


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


@functools.lru_cache(maxsize=4)
def _capped_graphs(n, cap):
    """`_undirected_graphs`, kept read-only for both sweeps that read it."""
    adj = _undirected_graphs(n, cap)
    adj.flags.writeable = False
    return adj


# --- degree-determined statistics ----------------------------------------


def _unique_rows(rows):
    """Distinct rows in lexicographic order; a 1-D array's distinct values.

    Sorts, then keeps each row that differs from its predecessor.
    """
    if rows.ndim == 1 or rows.shape[1] == 1:
        rows = np.sort(rows, axis=0)
    else:
        rows = rows[np.lexsort(rows.T[::-1])]
    differs = rows[1:] != rows[:-1]
    keep = np.ones(len(rows), dtype=bool)
    keep[1:] = differs if rows.ndim == 1 else differs.any(axis=1)
    return rows[keep]


def _profile_layout(bounds, n_max, t_max):
    """Bit layout of a profile code: (arrival bits, step bits, flag shift).

    Raises BudgetTooLargeError when the fields do not fit in an int64.
    """
    _, cap = bounds.caps
    arrival_bits = t_max.bit_length()
    step_bits = min(cap, n_max - 1).bit_length()
    flag_shift = arrival_bits + t_max * step_bits
    if flag_shift + 2 > 63:
        raise BudgetTooLargeError(
            f"t_max={t_max} at n_max={n_max} needs a {flag_shift + 2}-bit "
            "profile code, above 63 bits"
        )
    return arrival_bits, step_bits, flag_shift


def _signature_rows(bounds, n, t_max, layout):
    """Unique attachment-relevant signatures over all capped sequences.

    Senders keep their out-degree trajectories; every potential receiver is
    reduced to its arrival time.  Only nodes with spare capacity can touch
    the added node, so saturated nodes are dropped.  Both reductions are
    lossless for the out-side maxima.
    """
    arrival_bits, step_bits, flag_shift = layout
    cap_in, cap_out = bounds.caps
    if bounds.is_directed:
        out, inmask = _capped_digraphs(n, cap_in, cap_out)
    else:
        out = inmask = _capped_graphs(n, bounds.d)
    # A row sees a node only through its flags and, if it can send, its
    # out-mask: the senders' n-bit out-masks, node 0 lowest, then the
    # spare-out and spare-in bitmasks pack a graph into n * (n + 2) bits.
    node = np.arange(n)
    out_ok, in_ok = _spare(out, cap_out), _spare(inmask, cap_in)
    sends = np.where(out_ok[:, None] >> node & 1, out, 0)
    graphs = (sends << n * node).sum(axis=1) | out_ok << n * n | in_ok << n * n + n
    del out, inmask, sends
    graphs = _unique_rows(graphs)
    # sends[v, g], flags[v, g]: node v's unpacked fields in graph g.
    v = node[:, None]
    sends = graphs >> n * v & (1 << n) - 1
    flags = (graphs >> n * n + v & 1) + 2 * (graphs >> n * n + n + v & 1)
    # prefix[j][v, g]: node v's out-degree into nodes 0..j-1, if v < j.
    prefix = np.zeros((n + 1,) + sends.shape, dtype=np.int8)
    for j in range(1, n + 1):
        prefix[j, :j] = _POP[sends[:j] & (1 << j) - 1]
    # Arrival tuples are non-decreasing, so the nodes present at step t
    # are the first present[:, t - 1] of them.
    times = itertools.combinations_with_replacement(range(1, t_max + 1), n)
    times = np.array(list(times), dtype=np.int64)
    present = (times[:, :, None] <= np.arange(1, t_max + 1)).sum(axis=1)
    step_at = arrival_bits + step_bits * np.arange(t_max)
    # A sorted row packs into int64 words of 63 // width codes each, first
    # column in the high bits, so the words order like the rows.
    width = flag_shift + 2
    per_word = 63 // width
    column_at = width * (per_word - 1 - np.arange(n) % per_word)
    column_word = np.arange(n) // per_word
    to_words = (column_word == np.arange(column_word[-1] + 1)[:, None]) << column_at
    # Groups of whole tuples against all graphs, or of one tuple against a
    # slice of them, hold at most _GROUP_ROWS rows.
    tuple_step = max(1, _GROUP_ROWS // graphs.size)
    graph_step = min(graphs.size, _GROUP_ROWS)
    found = []
    for lo in range(0, len(times), tuple_step):
        group = slice(lo, lo + tuple_step)
        for g in range(0, graphs.size, graph_step):
            part = slice(g, g + graph_step)
            # codes[v, tuple, graph], as in _profile_layout; zero if saturated.
            codes = (flags[:, None, part] > 0) * times.T[:, group, None]
            codes += flags[:, None, part] << flag_shift
            for t in range(t_max):
                deg = prefix[present[group, t], :, part].swapaxes(0, 1)
                codes += deg.astype(np.int64) << step_at[t]
            # Sort each row with a bubble-sort network over the n columns:
            # whole-column minima and maxima beat np.sort along a short axis.
            cols = codes.reshape(n, -1)
            for end in range(n - 1, 0, -1):
                for j in range(end):
                    low = np.minimum(cols[j], cols[j + 1])
                    np.maximum(cols[j], cols[j + 1], out=cols[j + 1])
                    cols[j] = low
            found.append(_unique_rows((to_words @ cols).T))
    words = _unique_rows(np.concatenate(found))
    return words[:, column_word] >> column_at & (1 << width) - 1


def _role_patterns(n, cap_in, budget_out):
    """Send and recv indicators, shape (patterns, n), of every role pattern.

    Each row position takes one role: none, send (edge to the new node),
    recv (edge from it) or both.  Send-or-both positions spend the new
    node's in-degree budget, recv-or-both positions its out-degree budget.
    """
    # Row i holds the base-4 digits of i, first position most significant.
    digit_at = 2 * np.arange(n - 1, -1, -1)
    roles = np.arange(4**n, dtype=np.int64)[:, None] >> digit_at & 3
    send, recv = roles & 1, roles >> 1
    keep = (send.sum(axis=1) <= cap_in) & (recv.sum(axis=1) <= budget_out)
    return send[keep], recv[keep]


def _degree_tables(cap, taus, ks, star):
    """Query keys and the table g(d), d = 0..cap, of each of their columns.

    Every degree-determined query is f(G_t) = sum over present nodes of
    g(deg_t(v)): the engine's `_degree_table` for a threshold or star count,
    and one column [d = b] per bin b of the histogram, which is the last key
    and owns the last cap + 1 columns.
    """
    queries = [StatisticQuery.high_degree(tau) for tau in taus]
    queries += [StatisticQuery.subgraph(star, k) for k in ks]
    columns = [_degree_table(query, cap) for query in queries]
    columns += np.eye(cap + 1, dtype=np.int64).tolist()
    keys = [_query_key(query) for query in queries] + [("degree_histogram",)]
    return keys, np.array(columns, dtype=np.int64).T


def _profile_deltas(arrivals, trajs, tables):
    """g(after) - g(before) of each profile gaining one edge.

    Shape (profiles + 1, t*, t, column): row 0 is the empty slot, row p + 1
    the node of arrival arrivals[p] and out-trajectory trajs[p] gaining its
    edge at max(t*, arrival).
    """
    steps = np.arange(1, trajs.shape[1] + 1)
    gain = steps >= np.maximum(steps[:, None], arrivals[:, None, None])
    before = trajs[:, None, :]
    deltas = tables[before + gain] - tables[before]
    return np.concatenate([np.zeros((1,) + deltas.shape[1:], np.int64), deltas])


def _eval_configs(affected, peers, deltas, tables):
    """Per-column distances of a batch of configurations, shape (K, t*, column).

    `affected` (K, slots) holds the `deltas` rows of the existing nodes
    gaining an incident edge, `peers` (K, slots) the arrivals of the new
    node's out-edge endpoints, which it reaches at max(t*, arrival); 0 is an
    empty slot.  Each column's f changes at step t by the affected nodes'
    g(after) - g(before) plus g of the new node's degree once present, and
    the distance is the L1 norm of that change's step differences.
    """
    steps = np.arange(1, deltas.shape[1] + 1)
    own = ((peers[:, None, :] > 0) & (peers[:, None, :] <= steps[:, None])).sum(2)
    present = (steps >= steps[:, None])[None, :, :, None]  # t >= t*
    change = np.where(present, tables[own][:, None], 0)
    change += deltas[affected].sum(axis=1)
    return np.abs(np.diff(change, axis=2, prepend=0)).sum(axis=2)


@functools.lru_cache(maxsize=None)
def _degree_sweep(bounds, n_max, t_max, max_k=3):
    """Max distances for every out-side degree-determined query.

    A configuration, the multiset of affected-node (arrival, out-trajectory)
    profiles plus the arrivals of the new node's out-edge endpoints, fully
    determines every score.  In-stars of a directed bound are read from its
    transpose's sweep.
    """
    directed = bounds.is_directed
    cap_in, cap_out = bounds.caps
    budget_out = cap_out if directed else 0
    keys, tables = _degree_tables(
        cap_out,
        range(1, cap_out + 1),
        range(1, max_k + 1),
        "out_k_star" if directed else "k_star",
    )
    arrival_bits, step_bits, flag_shift = layout = _profile_layout(
        bounds, n_max, t_max
    )
    rows = _signature_rows(bounds, n_max, t_max, layout)
    flags = np.concatenate([rows >> flag_shift & 1, rows >> flag_shift + 1 & 1], 1)
    arrival = rows & (1 << arrival_bits) - 1
    # A sender's profile is its code without the flags.  Profiles are
    # numbered from 1 in (arrival, code) order and each row's positions are
    # sorted by (arrival, profile), so any pattern's senders come in
    # ascending profile order and its receivers in ascending arrival order:
    # packed in position order, they give a canonical key.
    sent = flags[:, :n_max] == 1
    unflagged = rows[sent] & (1 << flag_shift) - 1
    codes = _unique_rows(unflagged)
    by_arrival = np.argsort(codes & (1 << arrival_bits) - 1, kind="stable")
    number = np.empty(len(codes), dtype=np.int64)
    number[by_arrival] = np.arange(1, len(codes) + 1)
    profile = np.zeros_like(rows)
    profile[sent] = number[np.searchsorted(codes, unflagged)]
    codes = codes[by_arrival]
    perm = np.argsort(arrival * (len(codes) + 1) + profile, axis=1, kind="stable")
    perm = np.concatenate([perm, perm + n_max], axis=1)
    values = np.take_along_axis(np.concatenate([profile, arrival], 1), perm, axis=1)
    bit = 1 << np.arange(2 * n_max)
    offers = np.take_along_axis(flags, perm, axis=1) @ bit

    profile_bits = len(codes).bit_length()
    n_affected, n_peers = min(cap_in, n_max), min(budget_out, n_max)
    peer_shift = n_affected * profile_bits
    key_bits = peer_shift + n_peers * arrival_bits
    if key_bits > 63:
        raise BudgetTooLargeError(
            f"{n_affected} profiles of {profile_bits} bits and {n_peers} "
            f"arrivals of {arrival_bits} bits do not fit an int64 key"
        )
    send, recv = _role_patterns(n_max, cap_in, budget_out)
    roles = np.concatenate([send, recv], axis=1)
    # A chosen position's value goes to the next free field of its half.
    send_at = (np.cumsum(send, axis=1) - 1).clip(0) * profile_bits
    recv_at = peer_shift + (np.cumsum(recv, axis=1) - 1).clip(0) * arrival_bits
    weights = (roles << np.concatenate([send_at, recv_at], axis=1)).T
    needs = roles @ bit
    # Each product and partial sum of a key fills disjoint fields below
    # 2**key_bits, so a float64 product is exact up to 53 bits whatever the
    # summation order, and runs through BLAS instead of numpy's int loop.
    dtype = np.float64 if key_bits <= _FLOAT_KEY_BITS else np.int64
    weights = weights.astype(dtype, copy=False)
    found = []
    # Row chunks keep the (rows x patterns) expansion small.
    for lo in range(0, len(rows), 512):
        valid = (needs & ~offers[lo:lo + 512, None]) == 0
        packed = values[lo:lo + 512].astype(dtype, copy=False) @ weights
        found.append(_unique_rows(packed[valid].astype(np.int64)))
    # The per-row arrays are spent: free them before sorting the union.
    del rows, flags, arrival, profile, perm, values, offers
    configs = _unique_rows(np.concatenate(found))

    trajs = codes[:, None] >> arrival_bits + step_bits * np.arange(t_max)
    arrivals = codes & (1 << arrival_bits) - 1
    deltas = _profile_deltas(arrivals, trajs & (1 << step_bits) - 1, tables)
    affected = configs[:, None] >> profile_bits * np.arange(n_affected)
    affected &= (1 << profile_bits) - 1
    if directed:
        shifts = peer_shift + arrival_bits * np.arange(n_peers)
        peers = configs[:, None] >> shifts & (1 << arrival_bits) - 1
    else:
        # Undirected: one attached edge is both the node's extra degree and
        # one unit of the new node's own degree.
        peers = np.concatenate([[0], arrivals])[affected]
    # The histogram's bins are the last columns, so each reduceat segment
    # starting at these offsets is one key.
    starts = np.arange(len(keys))
    best = np.zeros(len(keys), dtype=np.int64)
    for lo in range(0, len(configs), 4096):
        chunk = slice(lo, lo + 4096)
        dist = _eval_configs(affected[chunk], peers[chunk], deltas, tables)
        score = np.add.reduceat(dist, starts, axis=2).max(axis=(0, 1))
        np.maximum(best, score, out=best)
    maxima = {key: int(v) for key, v in zip(keys, best)}
    # The edge count is the sum of out-degrees, or half the sum of degrees.
    if directed:
        maxima[("edge",)] = maxima[("out_k_star", 1)]
    else:
        maxima[("edge",)] = maxima[("k_star", 1)] // 2
    return maxima


# --- triangle patterns ---------------------------------------------------


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
        cap_in, cap_out = bounds.caps
        out, inmask = _capped_digraphs(n, cap_in, cap_out)
        out_ok, in_ok = _spare(out, cap_out), _spare(inmask, cap_in)
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

    adj = _capped_graphs(n, bounds.d)
    cap_mask = _spare(adj, bounds.d)
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
