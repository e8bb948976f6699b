"""Seeded input generators owned by the benchmark.

Each generator takes the workload seed, builds its arrival batches with the
standard library's `random` (so nothing in `dpgraphseq` can move a
workload), checks the public degree bound it promises, and tracks the exact
value of every released statistic at every step by incremental counting.
Those reference counts are independent of the program's snapshot-based
statistics and are what the benchmark checks the program's outputs against.

The program only ever sees `Inputs.text` (the edge-list format) or the
batches it encodes.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

# growth-release: T steps, 10 arrivals per step, each attaching to at most
# 3 of the 30 most recent nodes that still have spare degree; public D = 8.
GROWTH_STEPS = 300
GROWTH_PER_STEP = 10
GROWTH_ATTACH = 3
GROWTH_WINDOW = 30
GROWTH_BOUND = 8
GROWTH_TAU = 4

# pa-sweep: the criterion-5 preferential-attachment transmission shape
# (m0 = 50 seed cases, 20 arrivals a year for 20 years, one infector per
# infected case, weight out-degree * (age + 1)^-1).  Exactly PA_INFECTED
# arrivals are infected, the count the program's own generator draws at
# seed 0, so every seed keeps the default projection grid at 44 candidates.
# They are spread evenly over the years, so the edge count per step, which
# sets the cost of every release, is the same for every seed; the seed
# picks which arrivals are infected and by whom.
PA_M0 = 50
PA_ARRIVALS = 20
PA_YEARS = 20
PA_INFECTED = 217
PA_BOUND_IN = 5
PA_BOUND_OUT = 220


@dataclass
class Inputs:
    """One workload input: batches, their edge-list text and the reference.

    `reference[q][t-1]` is the exact value of statistic q on the graph after
    step t (release steps 1..horizon); histograms are dense lists over
    degrees 0..bound.
    """

    directed: bool
    batches: list  # (time, nodes, edges)
    text: str
    reference: dict
    bound: tuple  # (D,) or (D_in, D_out)
    max_degree: tuple  # measured (D,) or (max in, max out)
    nodes: int = 0
    edges: int = 0


def _edge_list_text(directed, batches):
    lines = ["H " + ("directed" if directed else "undirected")]
    for t, nodes, edges in batches:
        lines.extend(f"N {n} {t}" for n in nodes)
        lines.extend(f"E {u} {v}" for u, v in edges)
    return "\n".join(lines) + "\n"


def growth_family(seed: int, steps: int = GROWTH_STEPS) -> Inputs:
    """Undirected growth sequence with the five growth statistics tracked.

    Node names are zero-padded so that sorting them keeps arrival order,
    which makes the parsed sequence identical to the streamed one.
    """
    rng = random.Random(seed)
    order: list[str] = []
    adj: dict[str, set] = {}
    hist = [0] * (GROWTH_BOUND + 1)
    edges_total = triangles = two_stars = high = 0
    ref = {q: [] for q in ("edge", "triangle", "k_star2", "high_degree4",
                           "degree_histogram")}
    batches = []
    for t in range(1, steps + 1):
        new_nodes, new_edges = [], []
        for _ in range(GROWTH_PER_STEP):
            v = f"v{len(order):06d}"
            spare = [u for u in order[-GROWTH_WINDOW:] if len(adj[u]) < GROWTH_BOUND]
            targets = rng.sample(spare, min(rng.randint(1, GROWTH_ATTACH), len(spare)))
            order.append(v)
            adj[v] = set()
            hist[0] += 1
            new_nodes.append(v)
            for u in sorted(targets):
                triangles += len(adj[u] & adj[v])
                for w in (u, v):
                    d = len(adj[w])
                    two_stars += d
                    hist[d] -= 1
                    hist[d + 1] += 1
                    if d + 1 == GROWTH_TAU:
                        high += 1
                adj[u].add(v)
                adj[v].add(u)
                edges_total += 1
                new_edges.append((u, v))
        batches.append((t, new_nodes, new_edges))
        ref["edge"].append(edges_total)
        ref["triangle"].append(triangles)
        ref["k_star2"].append(two_stars)
        ref["high_degree4"].append(high)
        ref["degree_histogram"].append(list(hist))
    max_deg = max(len(s) for s in adj.values())
    if max_deg > GROWTH_BOUND:
        raise AssertionError(f"growth family broke its bound: degree {max_deg}")
    return Inputs(
        directed=False,
        batches=batches,
        text=_edge_list_text(False, batches),
        reference=ref,
        bound=(GROWTH_BOUND,),
        max_degree=(max_deg,),
        nodes=len(order),
        edges=edges_total,
    )


def pa_transmission(seed: int) -> Inputs:
    """Directed PA transmission fixture with the per-year edge count tracked."""
    rng = random.Random(seed)
    infected = set()
    for year in range(PA_YEARS):
        count = (PA_INFECTED * (year + 1)) // PA_YEARS - (PA_INFECTED * year) // PA_YEARS
        first = year * PA_ARRIVALS
        infected.update(rng.sample(range(first, first + PA_ARRIVALS), count))
    seeds = [f"s{i:03d}" for i in range(PA_M0)]
    node_time = {v: 0 for v in seeds}
    out_deg = {v: 0 for v in seeds}
    in_deg = {v: 0 for v in seeds}
    batches = [(0, seeds, [])]
    edge_counts = []
    edges_total = 0
    arrival = 0
    for year in range(1, PA_YEARS + 1):
        # Cases arriving this year are not yet eligible infectors.
        pool = list(node_time)
        new_nodes, new_edges = [], []
        for _ in range(PA_ARRIVALS):
            v = f"c{arrival:04d}"
            if arrival in infected:
                weights = [out_deg[u] / (year - node_time[u] + 1) for u in pool]
                if any(weights):
                    src = rng.choices(pool, weights=weights)[0]
                else:
                    src = rng.choice(pool)
                new_edges.append((src, v))
                out_deg[src] += 1
                in_deg[v] = 1
                edges_total += 1
            else:
                in_deg[v] = 0
            out_deg[v] = 0
            new_nodes.append(v)
            arrival += 1
        for v in new_nodes:
            node_time[v] = year
        batches.append((year, new_nodes, new_edges))
        edge_counts.append(edges_total)
    max_in, max_out = max(in_deg.values()), max(out_deg.values())
    if max_in > PA_BOUND_IN or max_out > PA_BOUND_OUT:
        raise AssertionError(f"PA fixture broke its bound: ({max_in}, {max_out})")
    return Inputs(
        directed=True,
        batches=batches,
        text=_edge_list_text(True, batches),
        reference={"edge": edge_counts},
        bound=(PA_BOUND_IN, PA_BOUND_OUT),
        max_degree=(max_in, max_out),
        nodes=len(node_time),
        edges=edges_total,
    )


# oracle-certify: criterion 1's catalog at these bounds, n_max = 5, t_max = 3.
# Mirrored directed pairs are both present so that reusing one side's sweep
# for its transpose shows in the per-bound timings.
ORACLE_BOUNDS = (
    ("D1", (1,)), ("D2", (2,)), ("D3", (3,)),
    ("in1out1", (1, 1)), ("in1out2", (1, 2)), ("in2out1", (2, 1)),
    ("in1out3", (1, 3)), ("in3out1", (3, 1)),
)
ORACLE_N_MAX = 5
ORACLE_T_MAX = 3


def catalog_queries(bound: tuple) -> list[tuple]:
    """Criterion 1's query catalog for one bound, as (kind, arg, k) specs."""
    d_out = bound[-1]
    queries = [("high_degree", tau, None) for tau in range(1, d_out + 1)]
    queries.append(("degree_histogram", None, None))
    if len(bound) == 2:
        patterns, stars = ("edge", "triangle_i", "triangle_ii"), ("out_k_star", "in_k_star")
    else:
        patterns, stars = ("edge", "triangle"), ("k_star",)
    queries += [("subgraph", p, None) for p in patterns]
    queries += [("subgraph", p, k) for p in stars for k in (1, 2, 3)]
    return queries


def oracle_order(seed: int) -> list[str]:
    """The seed fixes the order in which the bounds are certified."""
    names = [name for name, _ in ORACLE_BOUNDS]
    random.Random(seed).shuffle(names)
    return names


def make_inputs(workload: str, seed: int):
    if workload == "growth-release":
        return growth_family(seed)
    if workload == "pa-sweep":
        return pa_transmission(seed)
    if workload == "oracle-certify":
        return oracle_order(seed)
    raise ValueError(f"unknown workload {workload!r}")
