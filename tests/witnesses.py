"""Neighboring sequence pairs that realize the worst-case sensitivities."""
from dpgraphseq import build_sequence


def undirected_high_degree_pair(d, tau):
    """Neighbors whose threshold-count difference sequences are
    (tau-1, d+1) and (d+tau, 1); L1 distance 2d+1.  Needs tau < d.

    Step 1 brings tau-1 anchor nodes and d spokes, each spoke linked to
    every anchor; step 2 brings one more anchor linked to every spoke.  The
    extra node joins at step 1, linked to every spoke, pushing each spoke
    over the threshold a step early.
    """
    assert 1 <= tau < d
    anchors = [f"u{j}" for j in range(1, tau + 1)]
    spokes = [f"v{i}" for i in range(1, d + 1)]
    step1_edges = [(v, u) for v in spokes for u in anchors[:-1]]
    step2_edges = [(v, anchors[-1]) for v in spokes]
    base = [
        (1, anchors[:-1] + spokes, step1_edges),
        (2, [anchors[-1]], step2_edges),
    ]
    extra = [
        (1, anchors[:-1] + spokes + ["vstar"], step1_edges + [(v, "vstar") for v in spokes]),
        (2, [anchors[-1]], step2_edges),
    ]
    return build_sequence(False, base), build_sequence(False, extra)


def directed_high_degree_pair(d_in, tau=1):
    """Directed neighbors with out-degree threshold-count difference
    sequences (0, d_in, 0) and (d_in, 0, 1); L1 distance 2*d_in + 1.

    Spokes point at tau-1 anchors in step 1 and one more anchor in step 2;
    step 3 brings tau isolated sinks.  The extra node arrives at step 1
    receiving an edge from every spoke (tipping them over the threshold
    early) and points at the sinks in step 3.  Out-degree bound must be at
    least tau + 1 for the spokes.
    """
    assert tau >= 1 and d_in >= 1
    anchors = [f"u{j}" for j in range(1, tau + 1)]
    spokes = [f"v{i}" for i in range(1, d_in + 1)]
    sinks = [f"w{j}" for j in range(1, tau + 1)]
    step1_edges = [(v, u) for v in spokes for u in anchors[:-1]]
    step2_edges = [(v, anchors[-1]) for v in spokes]
    base = [
        (1, anchors[:-1] + spokes, step1_edges),
        (2, [anchors[-1]], step2_edges),
        (3, sinks, []),
    ]
    extra = [
        (1, anchors[:-1] + spokes + ["vstar"], step1_edges + [(v, "vstar") for v in spokes]),
        (2, [anchors[-1]], step2_edges),
        (3, sinks, [("vstar", w) for w in sinks]),
    ]
    return build_sequence(True, base), build_sequence(True, extra)


def chained_star_pair(releases=6, d_tilde=3):
    """Neighbors showing the projected threshold count is unstable.

    Each step adds one (d_tilde - 1)-star; consecutive star centers are
    chained.  The extra node exists from time 0 and links to the first
    center, which saturates it under greedy projection and flips which
    chain edges survive: every center's crossing step shifts by one.
    Names sort star edges before chain edges inside each step, which the
    instability argument relies on.
    """
    leaves_per_star = d_tilde - 1

    def steps(with_extra):
        out = []
        if with_extra:
            out.append((0, ["vstar"], []))
        for t in range(1, releases + 1):
            nodes = [f"z{t}"] + [f"a{t}{j}" for j in range(leaves_per_star)]
            edges = [(f"z{t}", f"a{t}{j}") for j in range(leaves_per_star)]
            if t > 1:
                edges.append((f"z{t-1}", f"z{t}"))
            if t == 1 and with_extra:
                edges.append(("vstar", "z1"))
            out.append((t, nodes, edges))
        return out

    return build_sequence(False, steps(False)), build_sequence(False, steps(True))


def undirected_histogram_pair(d):
    """Neighbors whose degree-histogram difference sequences lie 5 apart at
    d = 1, the sensitivity rule's value, and 4d^2 - 1 apart for d >= 2, two
    below the rule's 4d^2 + 1.

    In G' the node v arrives alone at step 1 and its neighbours w_1..w_d at
    steps 2..d+1, each linked to v; then each w_i in turn gains d - 1 edges
    to fresh nodes, one fresh node per step.  G is G' without v, so every
    w_i sits one degree lower there at every step.  G' respects D = d.
    """
    assert d >= 1
    steps = [(1, ["v"], [])]
    steps += [(1 + i, [f"w{i}"], [(f"w{i}", "v")]) for i in range(1, d + 1)]
    fresh = [(f"w{i}", f"f{i}_{j}") for i in range(1, d + 1) for j in range(1, d)]
    steps += [(d + 2 + k, [f], [(w, f)]) for k, (w, f) in enumerate(fresh)]
    base = [(t, [n for n in nodes if n != "v"], [e for e in edges if "v" not in e])
            for t, nodes, edges in steps]
    return build_sequence(False, base), build_sequence(False, steps)
