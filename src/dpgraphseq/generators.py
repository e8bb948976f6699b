"""Synthetic transmission-network sequence generators.

Both generators model an infection spreading through a population: nodes
are infected people stamped with their infection time, and a directed edge
points from infector to infectee.  Arrival batches are yearly (preferential
attachment) or per simulation step (epidemic), so the sequences slot
straight into the release mechanisms.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .graph_core import GraphSequence, ingest_step


@dataclass(frozen=True)
class PaTransmissionParams:
    """Preferential-attachment transmission network.

    `m0` seed cases exist before the window; each of the `years` steps adds
    `arrivals` new cases one at a time.  A new case is an isolated
    introduction with probability `p_isolated`; otherwise it is infected by
    `k` distinct earlier cases drawn with weight
    out-degree * (age + 1)^(-decay), favoring recent active spreaders.
    """

    m0: int = 500
    arrivals: int = 70
    years: int = 20
    k: int = 1
    p_isolated: float = 0.5
    decay: float = 1.0

    def __post_init__(self):
        if self.m0 < 1 or self.arrivals < 0 or self.years < 1 or self.k < 1:
            raise ValueError("population parameters must be positive")
        if not 0 <= self.p_isolated <= 1:
            raise ValueError("p_isolated must be a probability")


def _weighted_pick_without_replacement(rng, candidates, weights, k):
    """Pick k infectors by weight, without replacement.

    Fewer than k candidates with positive weight: all of them are picked.
    No positive weight at all (the bootstrap case, nobody has spread yet):
    k uniform picks, as in plain preferential attachment's cold start.
    """
    pool = [v for v, w in zip(candidates, weights) if w > 0]
    w = [x for x in weights if x > 0]
    if not pool:
        pool = list(candidates)
        idx = rng.choice(len(pool), size=min(k, len(pool)), replace=False)
        return [pool[i] for i in idx]
    if len(pool) <= k:
        return pool
    chosen = []
    for _ in range(k):
        probs = np.array(w) / sum(w)
        idx = rng.choice(len(pool), p=probs)
        chosen.append(pool.pop(idx))
        w.pop(idx)
    return chosen


def generate_pa_transmission(
    params: PaTransmissionParams, seed: int = 0
) -> GraphSequence:
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    seq = GraphSequence.empty(directed=True)
    seed_nodes = [f"s{i}" for i in range(params.m0)]
    seq = ingest_step(seq, 0, seed_nodes, [])
    node_time = {v: 0 for v in seed_nodes}
    out_deg = {v: 0 for v in seed_nodes}
    counter = 0
    for year in range(1, params.years + 1):
        new_nodes = []
        new_edges = []
        # Earlier same-year cases are not yet eligible infectors.
        pool = list(node_time)
        for _ in range(params.arrivals):
            name = f"c{counter}"
            counter += 1
            new_nodes.append(name)
            if rng.random() >= params.p_isolated:
                weights = [
                    out_deg[v] * (year - node_time[v] + 1) ** -params.decay
                    for v in pool
                ]
                for src in _weighted_pick_without_replacement(
                    rng, pool, weights, params.k
                ):
                    new_edges.append((src, name))
                    out_deg[src] += 1
            out_deg[name] = 0
        seq = ingest_step(seq, year, new_nodes, new_edges)
        for v in new_nodes:
            node_time[v] = year
    return seq


@dataclass(frozen=True)
class SirParams:
    """SIR epidemic over a static contact network.

    The contact network is a Barabasi-Albert graph on `population` people
    with attachment parameter `contacts`.  Per step every infectious person
    recovers with probability `p_recover` (recoveries happen first); each
    still-infectious person v then infects each susceptible contact u
    independently with probability `p_infect / degree(u)`, and u picks one
    successful infector uniformly.  Only infected people ever enter the
    released sequence.
    """

    population: int = 10000
    contacts: int = 2
    p_recover: float = 0.1
    p_infect: float = 0.18
    initial_infected: int = 1
    max_steps: int = 200

    def __post_init__(self):
        if self.population < 3 or self.contacts < 1:
            raise ValueError("population parameters must be positive")
        if self.contacts >= self.population:
            raise ValueError("contacts must be below population")
        if not (0 <= self.p_recover <= 1 and 0 <= self.p_infect <= 1):
            raise ValueError("rates must be probabilities")
        if not 1 <= self.initial_infected <= self.population:
            raise ValueError("initial_infected out of range")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")


def barabasi_albert_graph(n: int, m: int, seed: int) -> list[list[int]]:
    """Barabasi-Albert contact graph on nodes 0..n-1, as adjacency lists.

    The same graph as networkx's `barabasi_albert_graph(n, m, seed)`, with
    the same neighbour order: a star on nodes 0..m (hub 0), then each new
    node joins m distinct targets drawn from the list of existing nodes
    repeated once per incident edge, a draw of `random.Random(seed).choice`
    at a time, and adds its edges in the order of the target set.
    """
    if not 1 <= m < n:
        raise ValueError(f"need 1 <= m < n, got m = {m}, n = {n}")
    rng = random.Random(seed)
    adjacency: list[list[int]] = [list(range(1, m + 1))] + [[0] for _ in range(m)]
    repeated = [0] * m + list(range(1, m + 1))
    for source in range(m + 1, n):
        targets: set[int] = set()
        while len(targets) < m:
            targets.add(rng.choice(repeated))
        adjacency.append(list(targets))
        for t in targets:
            adjacency[t].append(source)
        repeated.extend(targets)
        repeated.extend([source] * m)
    return adjacency


def generate_sir_transmission(params: SirParams, seed: int = 0) -> GraphSequence:
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    contact = barabasi_albert_graph(
        params.population, params.contacts, seed=int(rng.integers(2**31))
    )
    name = {i: f"p{i}" for i in range(params.population)}
    seeds = rng.choice(params.population, size=params.initial_infected, replace=False)
    infectious = set(int(s) for s in seeds)
    susceptible = set(range(params.population)) - infectious
    seq = GraphSequence.empty(directed=True)
    seq = ingest_step(seq, 0, sorted(name[v] for v in infectious), [])
    step = 0
    while infectious and step < params.max_steps:
        step += 1
        recovered = {v for v in infectious if rng.random() < params.p_recover}
        infectious -= recovered
        newly = {}
        for v in sorted(infectious):
            for u in contact[v]:
                if u in susceptible and rng.random() < params.p_infect / len(contact[u]):
                    newly.setdefault(u, []).append(v)
        new_nodes = sorted(newly)
        new_edges = []
        for u in new_nodes:
            infectors = newly[u]
            src = infectors[rng.integers(len(infectors))]
            new_edges.append((name[src], name[u]))
        seq = ingest_step(
            seq, step, [name[u] for u in new_nodes], new_edges
        )
        susceptible -= set(new_nodes)
        infectious |= set(new_nodes)
    return seq
