"""Brute-force certification of the difference-sequence sensitivities.

The oracle maximizes, over every bound-respecting base sequence within a
small node/step budget and every legal single-node addition, the L1 distance
between the two exact difference sequences.  Its value never exceeding the
closed-form catalog entry is the certified relationship.

Degree-determined statistics (threshold counts, histograms, edge counts,
stars) depend only on per-node degree trajectories, so base sequences are
deduplicated by their sorted trajectory signature (lossless for these
statistics).  Each signature row meets every role pattern: a set of at
most d_in senders (edges to the new node) and, chosen independently, a set
of receivers (edges from it) within its out-budget, each node joining a set
only as its flag bits allow.  Each configuration so reached, its sorted
affected profiles plus sorted peer arrivals, is packed into one int64 key,
and the keys are deduplicated.  The receiver sets of a row give the same
keys as those of any row whose receivers arrive as often at each step,
each count capped at the out-budget, so rows are grouped by that count
vector and each group's receive parts are added once to its rows'
distinct send parts.  Threshold counts, stars and the histogram are
f(G_t) = sum_v g(deg_t(v)) for a table g on degrees 0..cap, so the
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
sweep runs in its d_out <= d_in orientation.  One builder makes the capped
graphs of both modes one node at a time, in uint8, and drops a partial
graph as soon as some node's in-degree exceeds d_in (its degree exceeds
D), so no full grid of out-mask tuples or edge subsets is ever held; an
undirected graph is the symmetric case, one matrix of both out- and
in-masks.  One small read-only cache hands each family to all the sweeps
that read it.  A (d_in, d_out) pair's digraphs are its mirror's transposes,
so the pair is built once, in the d_out <= d_in orientation (fewer
out-masks per node), and the mirror swaps the two matrices.  A signature
row sees a node only through its spare-capacity flags and, if it can
send, its out-mask, so each capped graph reduces to one int64 (the
senders' out-masks and the spare-out and spare-in node bitmasks) and
equal graphs are merged first.  Arrival tuples are
non-decreasing, so the nodes present at a step are the first k of them;
tables of every node's out-degree into nodes 0..k-1, one per k, give the
codes of many (tuple, graph) rows per array pass.  Each row is sorted and
packed into int64 words, first column in the high bits, so deduplicating
the words with a sort deduplicates the rows in lexicographic order.  Every
deduplication here (graphs, rows, profile codes, receive groups, send
pairs, configuration keys) is that one sort followed by an adjacent
compare, `_unique_rows`, and each pass's distinct rows are merged into
the union as they accumulate (`_union`).

A node profile is packed into one code, low bits first: the spare
out-degree and spare in-degree flags, then one field per step of the
out-degree trajectory (``min(cap, n_max - 1).bit_length()`` bits each, cap
being d_out or D), then the arrival step (``t_max.bit_length()`` bits) on
top.  Budgets whose code would need more than 63 bits raise
``BudgetTooLargeError`` before any enumeration, and so do those whose
configuration key or send pair would.  A sorted row is therefore
arrival-major, its senders in (arrival, trajectory) order, and a sender's
profile number is the rank of its unflagged code among all of them, so any
set of a row's senders, taken in position order, comes in ascending profile
order and any set of its receivers in ascending arrival order.  A key is a
send part, the senders' profile numbers packed first-lowest, plus a receive
part, the receivers' arrivals packed above them: each part is a row's
values times a small int64 table of subset weights, and a pattern is valid
where the senders' and the receivers' flags both allow it.  A row's receive
group is its receivers' arrivals, each kept at most out-budget times,
ascending (none for an undirected bound, whose rows form one group),
numbered by rank; a send pair packs that group number above a valid send
part, at ``peer_shift``, the receive part's offset.  The distinct send
pairs of all rows, each plus its group's receive parts, are the
configuration keys.  Budgets must be ints (not bools or floats), or
``TypeError`` is raised.

Every array holds the narrowest integer type its bound allows, so the
working set stays small:

- neighbor masks, as built and as cached, and spare-capacity bitmasks
  are uint8, since n_max <= 7;
- per-node degrees are int8, at most n_max - 1;
- profile codes are built in the narrowest signed type holding their
  width (int16 up to 15 bits, int32 up to 31, else int64; int8 up to 7),
  since a code is below 2**width, and widened to int64 only as it is
  packed into its row's words;
- graph keys, row words, receive groups, send pairs and configuration
  keys are int64, since they pack up to 63 bits;
- arrival steps are of the type holding t_max, and profile numbers of
  the type holding the profile count;
- table values, changes and distances are of the type holding
  2 * t_max * (n_max + 1) * max g, which bounds each of them, and a
  histogram's sum over its bins is taken in int64.

Shifts and products take Python ints or operands widened beforehand (the
arrivals, for one, as ``times.astype(code_type) << arrival_shift``), so
each step gives the same values under numpy's value-based casting (before
2.0) and under NEP 50.  Signature rows are built at most `_GROUP_ROWS` per
array pass and kept as their packed words; `_degree_sweep` unpacks and
expands them, and the send pairs, `_ROW_CHUNK` at a time and scores
configurations `_CONFIG_CHUNK` at a time, so the packed words are the only
per-row array held whole.
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
# Signature rows, or send pairs, _degree_sweep decodes and expands in one
# array pass.  A row expands only to its send parts (64 sets of senders at
# n_max=7 and d_in=3), so a chunk's arrays stay near 1 MB.
_ROW_CHUNK = 2048
# Configurations _degree_sweep scores in one array pass.
_CONFIG_CHUNK = 1024


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


def _build_graphs(n, cap_in, cap_out, directed):
    """Out-mask and in-mask matrices, uint8, of every capped graph on n nodes.

    Built one node at a time: node v's allowed masks are added to every
    surviving prefix, and a prefix is dropped as soon as one of its partial
    in-masks holds more than cap_in nodes, so no full grid is ever held.
    Rows come out in the order of a full meshgrid over all nodes' masks
    (node 0 slowest), filtered.  An undirected node v links only to earlier
    nodes, so each mask is both v's column and, spread bit by bit, its
    neighbors' in-masks: the one symmetric matrix is both outputs.
    """
    masks = np.arange(1 << n, dtype=np.uint8)
    bits = masks[:, None] >> np.arange(n, dtype=np.uint8) & 1  # m has w
    out = np.zeros((1, 0), dtype=np.uint8)
    inmask = np.zeros((1, n), dtype=np.uint8)
    for v in range(n):
        linked = bits[:, v] == 0 if directed else masks >> v == 0
        allowed = masks[linked & (_POP[masks] <= cap_out)]
        # grown[p, a]: prefix p with node v's mask allowed[a].
        grown = inmask[:, None] | bits[allowed] << v
        if not directed:
            grown[:, :, v] = allowed
        keep = (_POP[grown] <= cap_in).all(axis=2)
        inmask = grown[keep]
        if directed:
            # Each prefix is repeated once per mask kept after it.
            kept = np.broadcast_to(allowed, keep.shape)[keep]
            out = np.column_stack([np.repeat(out, keep.sum(axis=1), axis=0), kept])
        else:
            out = inmask
    return out, inmask


# Criterion 1's twelve bounds, mirrors included, at one n_max.
@functools.lru_cache(maxsize=12)
def _capped_graphs(n, bounds):
    """`_build_graphs` of a bound, kept read-only for every sweep that reads it.

    A digraph family is built only in its cap_out <= cap_in orientation,
    which allows fewer out-masks per node; its mirror is its transpose,
    whose out-masks are the in-masks.
    """
    cap_in, cap_out = bounds.caps
    if cap_out > cap_in:
        inmask, out = _capped_graphs(n, DegreeBounds.directed(cap_out, cap_in))
        return out, inmask
    out, inmask = _build_graphs(n, cap_in, cap_out, bounds.is_directed)
    out.flags.writeable = inmask.flags.writeable = False
    return out, inmask


def _spare(masks, cap):
    """Per graph, the uint8 bitmask of nodes whose neighbor mask holds < cap nodes.

    With out-masks and cap d_out these are the nodes that can still send an
    edge, with in-masks and cap d_in those that can still receive one.
    """
    return np.packbits(_POP[masks] < cap, axis=1, bitorder="little")[:, 0]


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
    """Bit layout of a profile code: (arrival bits, step bits, arrival shift).

    The two flags take the low bits, step t's out-degree the step bits from
    2 + t * step bits, and the arrival the top bits from the arrival shift.
    Raises BudgetTooLargeError when the fields do not fit in an int64.
    """
    _, cap = bounds.caps
    arrival_bits = t_max.bit_length()
    step_bits = min(cap, n_max - 1).bit_length()
    arrival_shift = 2 + t_max * step_bits
    if arrival_shift + arrival_bits > 63:
        raise BudgetTooLargeError(
            f"t_max={t_max} at n_max={n_max} needs a "
            f"{arrival_shift + arrival_bits}-bit profile code, above 63 bits"
        )
    return arrival_bits, step_bits, arrival_shift


def _signature_rows(bounds, n, t_max, layout):
    """Unique attachment-relevant signatures over all capped sequences.

    Senders keep their out-degree trajectories; every potential receiver is
    reduced to its arrival time.  Only nodes with spare capacity can touch
    the added node, so saturated nodes are dropped.  Both reductions are
    lossless for the out-side maxima.  Each distinct row, sorted, is
    returned packed into int64 words as `_word_fields` places its codes,
    rows in lexicographic order; `_unpack_rows` decodes them.
    """
    arrival_bits, step_bits, arrival_shift = layout
    cap_in, cap_out = bounds.caps
    out, inmask = _capped_graphs(n, bounds)
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
    # flags in the code type, in its low bits as in _profile_layout.
    width = arrival_shift + arrival_bits
    code_type = _int_type((1 << width) - 1)
    sends = np.empty((n, graphs.size), dtype=np.uint8)
    flags = np.empty((n, graphs.size), dtype=code_type)
    for v in range(n):
        sends[v] = graphs >> n * v & (1 << n) - 1
        flags[v] = (graphs >> n * n + v & 1) + 2 * (graphs >> n * n + n + v & 1)
    spare = flags > 0
    # Arrival tuples are non-decreasing, so the nodes present at step t
    # are the first present[:, t - 1] of them.
    times = itertools.combinations_with_replacement(range(1, t_max + 1), n)
    times = np.array(list(times), dtype=_int_type(t_max))
    present = (times[:, :, None] <= np.arange(1, t_max + 1)).sum(axis=1)
    arrived = times.T.astype(code_type) << arrival_shift
    step_at = [2 + step_bits * t for t in range(t_max)]
    column_word, column_at = _word_fields(n, layout)

    def groups():
        # Groups of whole tuples against all graphs, or of one tuple against
        # a slice of them, hold at most _GROUP_ROWS rows.
        graph_step = min(graphs.size, _GROUP_ROWS)
        tuple_step = max(1, _GROUP_ROWS // graph_step)
        for g in range(0, graphs.size, graph_step):
            part = slice(g, g + graph_step)
            # prefix[j][v, g]: node v's out-degree into nodes 0..j-1, if
            # v < j, for the slice's graphs only.
            prefix = np.zeros((n + 1, n, len(graphs[part])), dtype=np.int8)
            for j in range(1, n + 1):
                prefix[j, :j] = _POP[sends[:j, part] & (1 << j) - 1]
            for lo in range(0, len(times), tuple_step):
                group = slice(lo, lo + tuple_step)
                # codes[v, tuple, graph], as in _profile_layout; zero if
                # saturated.
                shape = (n, len(times[group]), len(graphs[part]))
                codes = np.empty(shape, dtype=code_type)
                np.multiply(spare[:, None, part], arrived[:, group, None], out=codes)
                codes += flags[:, None, part]
                for t, shift in enumerate(step_at):
                    deg = prefix[present[group, t]].swapaxes(0, 1)
                    codes += deg.astype(code_type) << shift
                # Sort each row with a bubble-sort network over the n
                # columns: whole-column minima and maxima beat np.sort along
                # a short axis.  A sorted row is arrival-major.
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

    return _union(groups())


def _word_fields(n, layout):
    """Word and shift of each of a row's n profile codes packed into int64 words.

    A word holds 63 // width codes, first column in the high bits, so the
    words of sorted rows order like the rows.
    """
    arrival_bits, _, arrival_shift = layout
    width = arrival_shift + arrival_bits
    per_word = 63 // width
    shifts = [width * (per_word - 1 - j % per_word) for j in range(n)]
    return [j // per_word for j in range(n)], shifts


def _unpack_rows(words, n, layout):
    """The int64 profile codes, shape (rows, n), of packed signature rows."""
    arrival_bits, _, arrival_shift = layout
    column_word, column_at = _word_fields(n, layout)
    codes = words[:, column_word] >> column_at
    return codes & (1 << arrival_shift + arrival_bits) - 1


def _subsets(n, size, field_bits, shift):
    """Bitmasks and packing weights of every set of at most `size` of n positions.

    The weights have shape (n, sets): a chosen position's value goes to the
    next free field of `field_bits` bits from `shift`, in position order,
    so a row of values times the weights packs each set's values.
    """
    masks = np.arange(1 << n)
    masks = masks[_POP[masks] <= size]
    chosen = masks[:, None] >> np.arange(n) & 1
    at = shift + (np.cumsum(chosen, axis=1) - 1).clip(0) * field_bits
    return masks, (chosen << at).T


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
    transpose's sweep.  Signature rows are unpacked a bounded chunk at a
    time, numbered by receive group, and reduced to distinct (group, send
    part) pairs; each pair plus its group's receive parts gives the
    configuration keys, scored a bounded chunk at a time.
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
    arrival_bits, step_bits, arrival_shift = layout = _profile_layout(
        bounds, n_max, t_max
    )
    words = _signature_rows(bounds, n_max, t_max, layout)

    def rows():
        for lo in range(0, len(words), _ROW_CHUNK):
            yield _unpack_rows(words[lo:lo + _ROW_CHUNK], n_max, layout)

    # A sender's profile is its code without the flags, numbered from 1 by
    # its rank among all of them, which is (arrival, trajectory) order.
    codes = _union(chunk[chunk & 1 == 1] & ~3 for chunk in rows())

    profile_bits = len(codes).bit_length()
    n_affected, n_peers = min(cap_in, n_max), min(budget_out, n_max)
    peer_shift = n_affected * profile_bits
    key_bits = peer_shift + n_peers * arrival_bits
    if key_bits > 63:
        raise BudgetTooLargeError(
            f"{n_affected} profiles of {profile_bits} bits and {n_peers} "
            f"arrivals of {arrival_bits} bits do not fit an int64 key"
        )

    # A receive part packs at most n_peers of a row's receivers' arrivals,
    # so rows group by these: a row's receivers (none if n_peers is 0) with
    # their arrivals at their positions are one int64 key, and the key's
    # group is its arrivals ascending, each kept at most n_peers times.
    spots = 1 << arrival_bits * np.arange(n_max)

    def receivers(chunk):
        return (chunk >> 1 & min(n_peers, 1)) * (chunk >> arrival_shift) @ spots

    keyed = _union(map(receivers, rows()))
    fields = keyed[:, None] >> arrival_bits * np.arange(n_max)
    fields &= (1 << arrival_bits) - 1
    fields.sort(axis=1)
    # Ascending, an arrival equal to the one n_peers places before is extra.
    fields[:, n_peers:] *= fields[:, n_peers:] != fields[:, :n_max - n_peers]
    fields.sort(axis=1)
    grouped = fields @ spots
    groups = _unique_rows(grouped)
    group_of = np.searchsorted(groups, grouped)
    group_bits = (len(groups) - 1).bit_length()
    if peer_shift + group_bits > 63:
        raise BudgetTooLargeError(
            f"{len(groups)} receive groups above {peer_shift} bits of "
            f"profiles do not fit an int64 key"
        )
    # A role pattern is a set of senders and an independent set of
    # receivers: a key is a send part plus a receive part.
    send_masks, send_weights = _subsets(n_max, cap_in, profile_bits, 0)
    recv_masks, recv_weights = _subsets(n_max, budget_out, arrival_bits, peer_shift)
    bit = 1 << np.arange(n_max)

    def send_pairs(chunk):
        """Distinct (receive group, valid send part) pairs of one chunk of rows.

        Each pair is packed as group index << peer_shift plus the send part.
        """
        send = (np.searchsorted(codes, chunk & ~3) + 1) @ send_weights
        send_ok = (send_masks & ~((chunk & 1) @ bit)[:, None]) == 0
        group = group_of[np.searchsorted(keyed, receivers(chunk))].astype(send.dtype)
        return _unique_rows((send + (group << peer_shift)[:, None])[send_ok])

    pairs = _union(map(send_pairs, rows()))
    del words
    # Each group's receive parts; a set that takes an empty field gets the
    # empty set's part, 0.
    fields = groups[:, None] >> arrival_bits * np.arange(n_max)
    fields &= (1 << arrival_bits) - 1
    recv_ok = (recv_masks & ~((fields > 0) @ bit)[:, None]) == 0
    recv = np.where(recv_ok, fields @ recv_weights, 0)

    def expand(lo):
        """Distinct configuration keys of one chunk of pairs."""
        part = pairs[lo:lo + _ROW_CHUNK]
        group = (part >> peer_shift).astype(np.intp)
        send = part & (1 << peer_shift) - 1
        return _unique_rows((send[:, None] + recv[group]).ravel())

    configs = _union(map(expand, range(0, len(pairs), _ROW_CHUNK)))

    trajs = codes[:, None] >> 2 + step_bits * np.arange(t_max)
    arrivals = codes >> arrival_shift
    deltas = _profile_deltas(arrivals, trajs & (1 << step_bits) - 1, tables)
    number_type = _int_type(len(codes))
    arrival_type = _int_type(t_max)
    # The histogram's bins are the last columns, so each reduceat segment
    # starting at these offsets is one key; its sum is taken in int64.
    starts = np.arange(len(keys))
    best = np.zeros(len(keys), dtype=np.int64)
    for lo in range(0, len(configs), _CONFIG_CHUNK):
        chunk = configs[lo:lo + _CONFIG_CHUNK, None]
        affected = chunk >> profile_bits * np.arange(n_affected)
        affected = (affected & (1 << profile_bits) - 1).astype(number_type)
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
        out, inmask = _capped_graphs(n, bounds)
        out_ok, in_ok = _spare(out, cap_out), _spare(inmask, cap_in)
        best_i = 0
        best_ii = 0
        for si, so in _orbit_pairs(n, cap_in, cap_out):
            elig = ((out_ok & si) == si) & ((in_ok & so) == so)
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

    adj, _ = _capped_graphs(n, bounds)
    cap_mask = _spare(adj, bounds.d)
    best = 0
    for m in range(min(bounds.d, n) + 1):
        s = (1 << m) - 1
        elig = (cap_mask & s) == s
        score = np.zeros(len(adj), dtype=np.int64)
        for v in range(m):
            score += _POP[adj[:, v] & s]
        score //= 2  # each inside edge seen from both endpoints
        best = max(best, int(score[elig].max(initial=0)))
    return {("triangle",): best}
