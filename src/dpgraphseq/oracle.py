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
triangle sweeps share one cached enumeration of its capped graphs.  Both
kinds of capped graph are built one node at a time, and a partial graph is
dropped as soon as some node's in-degree exceeds d_in (its degree exceeds
D), so neither the full grid of out-mask tuples nor that of edge subsets
is ever held.  A signature row sees a node only through its spare-capacity
flags and, if it can send, its out-mask, so each capped graph reduces to
one int64 (the senders' out-masks and the spare-out and spare-in node
bitmasks) and equal graphs are merged first.  Arrival tuples are
non-decreasing, so the nodes present at a step are the first k of them;
tables of every node's out-degree into nodes 0..k-1, one per k, give the
codes of many (tuple, graph) rows per array pass.  Each row is sorted and
packed into int64 words, first column in the high bits, so deduplicating
the words with a sort deduplicates the rows in lexicographic order.  Every
deduplication here (graphs, rows, profile codes, configuration keys) is
that one sort followed by an adjacent compare, `_unique_rows`, and each
pass's distinct rows are merged into the union as they accumulate
(`_union`).

A node profile is packed into one code, low bits first: the arrival step
(``t_max.bit_length()`` bits), then one field per step of the out-degree
trajectory (``min(cap, n_max - 1).bit_length()`` bits each, cap being
d_out or D), then the spare out-degree and spare in-degree flags.  Budgets
whose code would need more than 63 bits raise ``BudgetTooLargeError``
before any enumeration, and so do those whose configuration key would.  A
key is the product of a row's values with a 0/1 shift pattern, each chosen
value landing in its own field, so every product and partial sum is an
integer below 2**(key bits).  Up to 53 key bits that product runs in
float64, which holds such integers exactly in any summation order, and is
cast back; wider keys stay in int64.  Budgets must be ints (not bools or
floats), or ``TypeError`` is raised.

Every array holds the narrowest integer type its bound allows, so the
working set stays small:

- neighbor masks and spare-capacity bitmasks are uint8, since n_max <= 7;
- per-node degrees are int8, at most n_max - 1;
- profile codes are built in the narrowest signed type holding their
  width (int16 up to 15 bits, int32 up to 31, else int64; int8 up to 7),
  since a code is below 2**width, and `_signature_rows` widens the
  distinct rows to int64 only when it returns them;
- graph keys, row words and configuration keys are int64, since they
  pack up to 63 bits;
- arrival steps are of the type holding t_max, and profile numbers of
  the type holding the profile count; the sort key arrival * (profiles +
  1) + profile is widened first, to the type holding t_max * (profiles +
  1) + profiles;
- table values, changes and distances are of the type holding
  2 * t_max * (n_max + 1) * max g, which bounds each of them, and a
  histogram's sum over its bins is taken in int64.

Shifts and products take Python ints or operands widened beforehand, so
each step gives the same values under numpy's value-based casting (before
2.0) and under NEP 50.  Signature rows are built at most `_GROUP_ROWS` per
array pass, and `_degree_sweep` decodes and expands them `_ROW_CHUNK` at a
time and scores configurations `_CONFIG_CHUNK` at a time, so the
signature rows are the only per-row array held whole.
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

_POP = np.array([bin(i).count("1") for i in range(256)], dtype=np.int8)
# Most (arrival tuple, graph) rows _signature_rows builds in one array pass.
_GROUP_ROWS = 1 << 14
# Signature rows _degree_sweep decodes and expands in one array pass.
_ROW_CHUNK = 512
# Configurations _degree_sweep scores in one array pass.
_CONFIG_CHUNK = 1024
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
    # The degree sweep has a threshold column for each tau up to the out-cap.
    too_high = query.tau is not None and query.tau > bounds.caps[1]
    if too_high or query.kind == "subgraph" and query.pattern not in patterns:
        raise UnsupportedQueryError(f"oracle does not cover {query.label()}")
    key = _query_key(query)
    if key[0] in ("triangle", "triangle_i", "triangle_ii"):
        return _triangle_sweep(bounds, n_max)[key]
    if key[0] == "in_k_star" and bounds.is_directed:
        # In-stars of a digraph are the out-stars of its transpose.
        bounds = DegreeBounds.directed(bounds.d_out, bounds.d_in)
        key = ("out_k_star", key[1])
    return _degree_sweep(bounds, n_max, t_max, max_k=max(3, query.k or 0))[key]


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


@functools.lru_cache(maxsize=8)
def _capped_digraphs(n, cap_in, cap_out):
    """Read-only (out-mask, in-mask) matrices of every capped digraph.

    Only the cap_out <= cap_in orientation is enumerated, which allows fewer
    out-masks per node; the other is its transpose, whose out-masks are the
    in-masks.  Rows are in no particular order; masks of n <= 7 nodes are
    kept in uint8, like the undirected ones.
    """
    if cap_out > cap_in:
        inmask, out = _capped_digraphs(n, cap_out, cap_in)
        return out, inmask
    out, inmask = (m.astype(np.uint8) for m in _directed_graphs(n, cap_in, cap_out))
    out.flags.writeable = inmask.flags.writeable = False
    return out, inmask


def _spare(masks, cap):
    """Per graph, the uint8 bitmask of nodes whose neighbor mask holds < cap nodes.

    With out-masks and cap d_out these are the nodes that can still send an
    edge, with in-masks and cap d_in those that can still receive one.
    """
    return np.packbits(_POP[masks] < cap, axis=1, bitorder="little")[:, 0]


def _undirected_graphs(n, cap):
    """Neighbor bitmask matrix, uint8, of every degree-capped graph on n nodes.

    Built one node at a time: node v joins every surviving graph on nodes
    0..v-1 through each allowed mask of earlier neighbors, and a graph is
    dropped as soon as some node's degree exceeds cap, so the grid of all
    2**C(n, 2) edge subsets is never held.
    """
    masks = np.arange(1 << n, dtype=np.uint8)
    bits = masks[:, None] >> np.arange(n, dtype=np.uint8) & 1  # m has w
    adj = np.zeros((1, n), dtype=np.uint8)
    for v in range(n):
        allowed = masks[(masks >> v == 0) & (_POP[masks] <= cap)]
        prefix = np.repeat(np.arange(len(adj)), len(allowed))
        mask = np.tile(allowed, len(adj))
        grown = adj[prefix] | bits[mask] << v
        grown[:, v] = mask
        adj = grown[(_POP[grown] <= cap).all(axis=1)]
    return adj


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


def _union(parts):
    """`_unique_rows` of the concatenation of the arrays `parts` yields.

    Pending parts are merged into the distinct rows found so far as soon
    as they hold more rows than those do, so unmerged rows never outnumber
    the union's.
    """
    parts = iter(parts)
    merged, pending, size = _unique_rows(next(parts)), [], 0
    for part in parts:
        pending.append(part)
        size += len(part)
        if size > len(merged):
            merged = _unique_rows(np.concatenate([merged, *pending]))
            pending, size = [], 0
    return _unique_rows(np.concatenate([merged, *pending]))


def _int_type(top):
    """The narrowest signed integer type that holds 0..top."""
    types = (np.int8, np.int16, np.int32, np.int64)
    return next(t for t in types if top <= np.iinfo(t).max)


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
    out_ok, in_ok = _spare(out, cap_out), _spare(inmask, cap_in)
    graphs = out_ok.astype(np.int64) << n * n | in_ok.astype(np.int64) << n * n + n
    for v in range(n):
        graphs |= (out[:, v] * (out_ok >> v & 1)).astype(np.int64) << n * v
    del out, inmask
    graphs = _unique_rows(graphs)
    # sends[v, g], flags[v, g]: node v's unpacked fields in graph g; the
    # flags in the code type, placed as in _profile_layout.
    width = flag_shift + 2
    code_type = _int_type((1 << width) - 1)
    sends = np.empty((n, graphs.size), dtype=np.uint8)
    flags = np.empty((n, graphs.size), dtype=code_type)
    for v in range(n):
        sends[v] = graphs >> n * v & (1 << n) - 1
        flags[v] = (graphs >> n * n + v & 1) + 2 * (graphs >> n * n + n + v & 1)
    spare = flags > 0
    flags <<= flag_shift
    # prefix[j][v, g]: node v's out-degree into nodes 0..j-1, if v < j.
    prefix = np.zeros((n + 1,) + sends.shape, dtype=np.int8)
    for j in range(1, n + 1):
        prefix[j, :j] = _POP[sends[:j] & (1 << j) - 1]
    # Arrival tuples are non-decreasing, so the nodes present at step t
    # are the first present[:, t - 1] of them.
    times = itertools.combinations_with_replacement(range(1, t_max + 1), n)
    times = np.array(list(times), dtype=_int_type(t_max))
    present = (times[:, :, None] <= np.arange(1, t_max + 1)).sum(axis=1)
    step_at = [arrival_bits + step_bits * t for t in range(t_max)]
    # A sorted row packs into int64 words of 63 // width codes each, first
    # column in the high bits, so the words order like the rows.
    per_word = 63 // width
    column_word = [j // per_word for j in range(n)]
    column_at = [width * (per_word - 1 - j % per_word) for j in range(n)]

    def groups():
        # Groups of whole tuples against all graphs, or of one tuple against
        # a slice of them, hold at most _GROUP_ROWS rows.
        tuple_step = max(1, _GROUP_ROWS // graphs.size)
        graph_step = min(graphs.size, _GROUP_ROWS)
        for lo in range(0, len(times), tuple_step):
            group = slice(lo, lo + tuple_step)
            for g in range(0, graphs.size, graph_step):
                part = slice(g, g + graph_step)
                # codes[v, tuple, graph], as in _profile_layout; zero if
                # saturated.
                shape = (n, len(times[group]), len(graphs[part]))
                codes = np.empty(shape, dtype=code_type)
                np.multiply(spare[:, None, part], times.T[:, group, None], out=codes)
                codes += flags[:, None, part]
                for t, shift in enumerate(step_at):
                    deg = prefix[present[group, t], :, part].swapaxes(0, 1)
                    codes += deg.astype(code_type) << shift
                # Sort each row with a bubble-sort network over the n
                # columns: whole-column minima and maxima beat np.sort along
                # a short axis.
                cols = codes.reshape(n, -1)
                for end in range(n - 1, 0, -1):
                    for j in range(end):
                        low = np.minimum(cols[j], cols[j + 1])
                        np.maximum(cols[j], cols[j + 1], out=cols[j + 1])
                        cols[j] = low
                words = np.zeros((column_word[-1] + 1, cols.shape[1]), np.int64)
                for j, col in enumerate(cols):
                    words[column_word[j]] |= col.astype(np.int64) << column_at[j]
                yield _unique_rows(words.T)

    rows = _union(groups())[:, column_word]
    rows >>= column_at
    rows &= (1 << width) - 1
    return rows


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
    g(deg_t(v)), g the engine's `_degree_table`: one column for a threshold
    or star count, and for the histogram, the last key, one per bin b.
    """
    queries = [StatisticQuery.high_degree(tau) for tau in taus]
    queries += [StatisticQuery.subgraph(star, k) for k in ks]
    queries.append(StatisticQuery.degree_histogram())
    *columns, bins = [_degree_table(query, cap) for query in queries]
    columns += [[g.get(b, 0) for g in bins] for b in range(cap + 1)]
    keys = [_query_key(query) for query in queries]
    return keys, np.array(columns, dtype=np.int64).T


def _profile_deltas(arrivals, trajs, tables):
    """g(after) - g(before) of each profile gaining one edge, in tables' type.

    Shape (profiles + 1, t*, t, column): row 0 is the empty slot, row p + 1
    the node of arrival arrivals[p] and out-trajectory trajs[p] gaining its
    edge at max(t*, arrival).
    """
    steps = np.arange(1, trajs.shape[1] + 1)
    gain = steps >= np.maximum(steps[:, None], arrivals[:, None, None])
    before = trajs[:, None, :]
    deltas = tables[before + gain] - tables[before]
    return np.concatenate([np.zeros((1,) + deltas.shape[1:], deltas.dtype), deltas])


def _eval_configs(affected, peers, deltas, tables):
    """Per-column distances of a batch of configurations, shape (K, t*, column).

    `affected` (K, slots) holds the `deltas` rows of the existing nodes
    gaining an incident edge, `peers` (K, slots) the arrivals of the new
    node's out-edge endpoints, which it reaches at max(t*, arrival); 0 is an
    empty slot.  Each column's f changes at step t by the affected nodes'
    g(after) - g(before) plus g of the new node's degree once present, and
    the distance is the L1 norm of that change's step differences.  All of
    it runs in the type of `tables` and `deltas`.
    """
    steps = np.arange(1, deltas.shape[1] + 1)
    own = ((peers[:, None, :] > 0) & (peers[:, None, :] <= steps[:, None])).sum(2)
    present = (steps >= steps[:, None])[None, :, :, None]  # t >= t*
    change = tables[own][:, None] * present
    change += deltas[affected].sum(axis=1, dtype=change.dtype)
    step = np.diff(change, axis=2, prepend=np.zeros_like(change[:, :, :1]))
    return np.abs(step).sum(axis=2, dtype=change.dtype)


@functools.lru_cache(maxsize=None)
def _degree_sweep(bounds, n_max, t_max, max_k=3):
    """Max distances for every out-side degree-determined query.

    A configuration, the multiset of affected-node (arrival, out-trajectory)
    profiles plus the arrivals of the new node's out-edge endpoints, fully
    determines every score.  In-stars of a directed bound are read from its
    transpose's sweep.  Signature rows are decoded and expanded, and
    configurations scored, a bounded chunk at a time.
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
    # A step's change sums at most n_max + 1 table differences, each at most
    # the largest g, and a column's distance 2 * t_max such changes.
    tables = tables.astype(_int_type(2 * t_max * (n_max + 1) * int(tables.max())))
    arrival_bits, step_bits, flag_shift = layout = _profile_layout(
        bounds, n_max, t_max
    )
    rows = _signature_rows(bounds, n_max, t_max, layout)
    chunks = [rows[lo:lo + _ROW_CHUNK] for lo in range(0, len(rows), _ROW_CHUNK)]
    # A sender's profile is its code without the flags.  Profiles are
    # numbered from 1 in (arrival, code) order and each row's positions are
    # sorted by (arrival, profile), so any pattern's senders come in
    # ascending profile order and its receivers in ascending arrival order:
    # packed in position order, they give a canonical key.
    codes = _union(
        chunk[chunk >> flag_shift & 1 == 1] & (1 << flag_shift) - 1 for chunk in chunks
    )
    by_arrival = np.argsort(codes & (1 << arrival_bits) - 1, kind="stable")
    number = np.empty(len(codes), dtype=_int_type(len(codes)))
    number[by_arrival] = np.arange(1, len(codes) + 1)

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
    bit = 1 << np.arange(2 * n_max)
    needs = roles @ bit
    # Each product and partial sum of a key fills disjoint fields below
    # 2**key_bits, so a float64 product is exact up to 53 bits whatever the
    # summation order, and runs through BLAS instead of numpy's int loop.
    dtype = np.float64 if key_bits <= _FLOAT_KEY_BITS else np.int64
    weights = weights.astype(dtype, copy=False)
    arrival_type = _int_type(t_max)
    # Arrival-major position order; the product is widened first, since
    # t_max * (profiles + 1) + profiles need not fit the profile type.
    order_type = _int_type(t_max * (len(codes) + 1) + len(codes))

    def expand(chunk):
        """Distinct configuration keys of one chunk of rows."""
        flags = (chunk >> flag_shift).astype(np.int8)
        flags = np.concatenate([flags & 1, flags >> 1], axis=1)
        arrival = (chunk & (1 << arrival_bits) - 1).astype(arrival_type)
        sent = flags[:, :n_max] == 1
        profile = np.zeros(chunk.shape, dtype=number.dtype)
        unflagged = chunk[sent] & (1 << flag_shift) - 1
        profile[sent] = number[np.searchsorted(codes, unflagged)]
        order = arrival.astype(order_type) * (len(codes) + 1) + profile
        perm = np.argsort(order, axis=1, kind="stable")
        perm = np.concatenate([perm, perm + n_max], axis=1)
        values = np.take_along_axis(np.concatenate([profile, arrival], 1), perm, axis=1)
        offers = np.take_along_axis(flags, perm, axis=1) @ bit
        valid = (needs & ~offers[:, None]) == 0
        packed = values.astype(dtype) @ weights
        return _unique_rows(packed[valid].astype(np.int64))

    configs = _union(map(expand, chunks))
    del rows, chunks

    codes = codes[by_arrival]
    trajs = codes[:, None] >> arrival_bits + step_bits * np.arange(t_max)
    arrivals = codes & (1 << arrival_bits) - 1
    deltas = _profile_deltas(arrivals, trajs & (1 << step_bits) - 1, tables)
    # The histogram's bins are the last columns, so each reduceat segment
    # starting at these offsets is one key; its sum is taken in int64.
    starts = np.arange(len(keys))
    best = np.zeros(len(keys), dtype=np.int64)
    for lo in range(0, len(configs), _CONFIG_CHUNK):
        chunk = configs[lo:lo + _CONFIG_CHUNK, None]
        affected = chunk >> profile_bits * np.arange(n_affected)
        affected = (affected & (1 << profile_bits) - 1).astype(number.dtype)
        if directed:
            shifts = peer_shift + arrival_bits * np.arange(n_peers)
            peers = (chunk >> shifts & (1 << arrival_bits) - 1).astype(arrival_type)
        else:
            # Undirected: one attached edge is both the node's extra degree
            # and one unit of the new node's own degree.
            peers = np.concatenate([[0], arrivals])[affected]
        dist = _eval_configs(affected, peers, deltas, tables)
        score = np.add.reduceat(dist, starts, axis=2, dtype=np.int64)
        np.maximum(best, score.max(axis=(0, 1)), out=best)
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
