"""Synthetic transmission generators: shape, edge budgets, determinism."""
import pytest

from dpgraphseq import snapshot, verify_bounds
from dpgraphseq.generators import (
    PaTransmissionParams,
    SirParams,
    barabasi_albert_graph,
    generate_pa_transmission,
    generate_sir_transmission,
)
from dpgraphseq.graph_core import DegreeBounds

from bruteforce import degrees


def total_edges(seq):
    return sum(len(b.edges) for b in seq.batches)


def test_pa_shape_and_node_budget():
    params = PaTransmissionParams(m0=10, arrivals=5, years=4)
    seq = generate_pa_transmission(params, seed=0)
    assert seq.directed
    assert seq.start_time == 0
    assert seq.horizon == 4
    assert len(seq.batches[0].nodes) == 10
    for t in range(1, 5):
        assert len(seq.batches[t].nodes) == 5
    # Infector edges always point from an earlier case to the new one.
    for batch in seq.batches:
        for u, v in batch.edges:
            assert seq.node_time[u] < seq.node_time[v] or (
                seq.node_time[u] == seq.node_time[v] == batch.time
            )


def test_pa_all_isolated_means_no_edges():
    params = PaTransmissionParams(m0=5, arrivals=6, years=3, p_isolated=1.0)
    assert total_edges(generate_pa_transmission(params, seed=1)) == 0


def test_pa_no_isolated_single_infector_is_one_edge_per_case():
    # Every arrival picks exactly one infector: arrivals * years edges total.
    params = PaTransmissionParams(
        m0=10, arrivals=7, years=20, k=1, p_isolated=0.0, decay=0.0
    )
    seq = generate_pa_transmission(params, seed=2)
    assert total_edges(seq) == 7 * 20
    g = snapshot(seq, seq.horizon)
    assert all(d <= 1 for d in degrees(g)[1].values())


def test_pa_expected_edge_volume():
    # With p_isolated = 1/2 and k = 1 roughly half the arrivals bring an edge.
    params = PaTransmissionParams(m0=50, arrivals=7, years=20)
    counts = [
        total_edges(generate_pa_transmission(params, seed=s)) for s in range(30)
    ]
    mean = sum(counts) / len(counts)
    assert 55 <= mean <= 85  # expectation 70


def test_pa_multi_infector_draws_distinct_sources():
    params = PaTransmissionParams(m0=6, arrivals=4, years=5, k=3, p_isolated=0.0)
    seq = generate_pa_transmission(params, seed=3)
    g = snapshot(seq, seq.horizon)
    assert all(d <= 3 for d in degrees(g)[1].values())
    # No case names the same infector twice.
    assert len(set(g.edges)) == len(g.edges)


def test_pa_determinism():
    params = PaTransmissionParams(m0=10, arrivals=5, years=3)
    assert generate_pa_transmission(params, seed=9) == generate_pa_transmission(
        params, seed=9
    )
    assert generate_pa_transmission(params, seed=9) != generate_pa_transmission(
        params, seed=10
    )


def test_pa_params_validation():
    with pytest.raises(ValueError):
        PaTransmissionParams(m0=0)
    with pytest.raises(ValueError):
        PaTransmissionParams(p_isolated=1.5)
    with pytest.raises(ValueError):
        PaTransmissionParams(k=0)


def test_sir_shape_and_in_degree():
    params = SirParams(population=300, initial_infected=3, max_steps=40)
    seq = generate_sir_transmission(params, seed=0)
    assert seq.directed
    assert seq.start_time == 0
    assert len(seq.batches[0].nodes) == 3
    g = snapshot(seq, seq.horizon)
    # Every case names exactly one infector (seeds have none).
    assert all(d <= 1 for d in degrees(g)[1].values())
    assert verify_bounds(seq, DegreeBounds.directed(1, params.population)) is None


def test_sir_no_transmission_keeps_only_seeds():
    params = SirParams(population=100, p_infect=0.0, initial_infected=2, max_steps=20)
    seq = generate_sir_transmission(params, seed=1)
    assert set(seq.node_time.values()) == {0}
    assert total_edges(seq) == 0


def test_sir_halts_on_extinction_or_step_cap():
    params = SirParams(population=200, p_recover=1.0, initial_infected=1, max_steps=50)
    seq = generate_sir_transmission(params, seed=2)
    assert seq.horizon <= 2  # everyone recovers after the first step


def test_sir_determinism():
    params = SirParams(population=150, initial_infected=2, max_steps=15)
    assert generate_sir_transmission(params, seed=4) == generate_sir_transmission(
        params, seed=4
    )


def test_sir_params_validation():
    with pytest.raises(ValueError):
        SirParams(population=2)
    with pytest.raises(ValueError):
        SirParams(p_recover=1.2)
    with pytest.raises(ValueError):
        SirParams(initial_infected=0)
    with pytest.raises(ValueError, match="max_steps"):
        SirParams(max_steps=0)
    with pytest.raises(ValueError, match="contacts must be below population"):
        SirParams(population=5, contacts=5)


@pytest.mark.parametrize("n", [2, 3, 10, 60])
@pytest.mark.parametrize("m", [1, 2, 4])
@pytest.mark.parametrize("seed", [0, 1, 2**31 - 1])
def test_barabasi_albert_port_matches_networkx(n, m, seed):
    import networkx as nx
    if m >= n:
        with pytest.raises(ValueError):
            barabasi_albert_graph(n, m, seed)
        return
    reference = nx.barabasi_albert_graph(n, m, seed=seed)
    adjacency = barabasi_albert_graph(n, m, seed)
    assert list(reference.nodes) == list(range(n))
    # Same edges, and each node lists its neighbours in the same order.
    assert adjacency == [list(reference.adj[v]) for v in range(n)]
