"""Property-based tests for the hypergraph fault-tolerance results (Appendix A)."""

import itertools

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.net.hypergraph import HyperEdge, Hypergraph
from repro.net.topology import ring_kcast_topology


@st.composite
def ring_parameters(draw):
    n = draw(st.integers(min_value=3, max_value=12))
    k = draw(st.integers(min_value=1, max_value=n - 1))
    return n, k


@st.composite
def random_hypergraphs(draw):
    n = draw(st.integers(min_value=3, max_value=8))
    nodes = list(range(n))
    edges = []
    for node in nodes:
        others = [x for x in nodes if x != node]
        edge_count = draw(st.integers(min_value=1, max_value=2))
        for _ in range(edge_count):
            size = draw(st.integers(min_value=1, max_value=len(others)))
            receivers = draw(
                st.lists(st.sampled_from(others), min_size=size, max_size=size, unique=True)
            )
            edges.append(HyperEdge.make(node, receivers))
    return Hypergraph(nodes=nodes, edges=edges)


@given(ring_parameters())
@settings(max_examples=50, deadline=None)
def test_ring_kcast_degree_equals_k(params):
    n, k = params
    graph = ring_kcast_topology(n, k)
    for node in graph.nodes:
        assert graph.d_out(node) == k
        assert graph.d_in(node) == k
    assert graph.max_faults_necessary_condition() == k - 1


@given(ring_parameters())
@settings(max_examples=30, deadline=None)
def test_ring_kcast_is_partition_resistant_below_fault_bound(params):
    n, k = params
    graph = ring_kcast_topology(n, k)
    f = graph.max_faults_necessary_condition()
    f = min(f, n - 2)  # keep at least two nodes alive
    if f >= 1:
        # Exhaustive check is expensive; sample a handful of subsets.
        for removed in itertools.islice(itertools.combinations(graph.nodes, f), 30):
            assert graph.is_strongly_connected(exclude=removed)


@given(random_hypergraphs())
@settings(max_examples=50, deadline=None)
def test_degree_bounded_by_k_times_edges(graph):
    """Lemma A.6's counting step: d_out(p) <= k_max * number of outgoing edges."""
    for node in graph.nodes:
        out_edges = graph.out_edges(node)
        if not out_edges:
            continue
        k_max = max(edge.degree for edge in out_edges)
        assert graph.d_out(node) <= k_max * len(out_edges)


@given(random_hypergraphs())
@settings(max_examples=50, deadline=None)
def test_fault_bound_never_exceeds_smallest_degree(graph):
    bound = graph.max_faults_necessary_condition()
    for node in graph.nodes:
        assert bound <= graph.d_out(node)
        assert bound <= graph.d_in(node)


@given(random_hypergraphs())
@settings(max_examples=50, deadline=None)
def test_in_out_neighbor_duality(graph):
    """p is an out-neighbour of q exactly when q is an in-neighbour of p."""
    for p in graph.nodes:
        for q in graph.out_neighbors(p):
            assert p in graph.in_neighbors(q)


@given(random_hypergraphs(), st.integers(min_value=1, max_value=3))
@settings(max_examples=40, deadline=None)
def test_partition_resistance_implies_lemma_a5_bound(graph, f):
    """Lemma A.5 as a property: surviving any f removals needs f < min degree."""
    f = min(f, len(graph.nodes) - 2)
    if f >= 1 and graph.is_partition_resistant(f):
        assert f <= graph.max_faults_necessary_condition()


# ------------------------------------------- diameter / connectivity vs networkx
def reference_strongly_connected(graph, exclude=()):
    digraph = graph.to_digraph(exclude=exclude)
    return digraph.number_of_nodes() <= 1 or nx.is_strongly_connected(digraph)


@st.composite
def circulant_hypergraphs(draw):
    """Graphs where every node k-casts to the same offsets (rotation-invariant)."""
    n = draw(st.integers(min_value=2, max_value=14))
    offsets = draw(
        st.lists(
            st.lists(st.integers(min_value=1, max_value=n - 1), min_size=1, max_size=3, unique=True),
            min_size=1,
            max_size=2,
        )
    )
    edges = [
        HyperEdge.make(node, [(node + offset) % n for offset in group])
        for node in range(n)
        for group in offsets
    ]
    return Hypergraph(nodes=list(range(n)), edges=edges)


def assert_diameter_matches_networkx(graph):
    if reference_strongly_connected(graph):
        assert graph.diameter() == nx.diameter(graph.to_digraph())
    else:
        with pytest.raises(ValueError):
            graph.diameter()


@given(random_hypergraphs())
@settings(max_examples=80, deadline=None)
def test_diameter_matches_networkx_on_random_hypergraphs(graph):
    assert_diameter_matches_networkx(graph)


@given(circulant_hypergraphs())
@settings(max_examples=80, deadline=None)
def test_diameter_matches_networkx_on_circulant_hypergraphs(graph):
    assert graph._is_rotation_invariant()
    assert_diameter_matches_networkx(graph)


@given(st.one_of(random_hypergraphs(), circulant_hypergraphs()), st.data())
@settings(max_examples=80, deadline=None)
def test_strong_connectivity_with_exclusions_matches_networkx(graph, data):
    exclude = data.draw(st.lists(st.sampled_from(graph.nodes), unique=True))
    assert graph.is_strongly_connected(exclude=exclude) == reference_strongly_connected(
        graph, exclude
    )
