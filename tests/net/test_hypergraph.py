"""Unit tests for the hypergraph model (Appendix A)."""

import math
import os
import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest

from repro.eval.runner import TOPOLOGIES, DeploymentSpec
from repro.net.hypergraph import HyperEdge, Hypergraph
from repro.net.topology import (
    fully_connected_topology,
    random_kcast_topology,
    ring_kcast_topology,
    star_topology,
    unicast_ring_topology,
)
from repro.session.builder import build_topology, compute_delta
from repro.sim.rng import SeededRNG, derive_seed


def make_triangle():
    """Three nodes, each multicasting to the other two."""
    nodes = [0, 1, 2]
    edges = [HyperEdge.make(i, [j for j in nodes if j != i]) for i in nodes]
    return Hypergraph(nodes=nodes, edges=edges)


def test_hyperedge_rejects_self_loop():
    with pytest.raises(ValueError):
        HyperEdge.make(0, [0, 1])


def test_hyperedge_rejects_empty_receivers():
    with pytest.raises(ValueError):
        HyperEdge.make(0, [])


def test_hypergraph_rejects_unknown_endpoints():
    with pytest.raises(ValueError):
        Hypergraph(nodes=[0, 1], edges=[HyperEdge.make(0, [2])])
    with pytest.raises(ValueError):
        Hypergraph(nodes=[0, 1], edges=[HyperEdge.make(5, [1])])


def test_hypergraph_rejects_duplicate_nodes():
    with pytest.raises(ValueError):
        Hypergraph(nodes=[0, 0, 1])


def test_degrees_on_triangle():
    graph = make_triangle()
    for node in graph.nodes:
        assert graph.d_out(node) == 2
        assert graph.d_in(node) == 2
    assert graph.k == 2
    assert graph.capital_d_in == 2
    assert graph.capital_d_out == 1


def test_ring_kcast_degrees():
    graph = ring_kcast_topology(7, 3)
    for node in graph.nodes:
        assert graph.d_out(node) == 3
        assert graph.d_in(node) == 3
        assert len(graph.out_edges(node)) == 1
        assert len(graph.in_edges(node)) == 3
    assert graph.capital_d_out == 1
    assert graph.capital_d_in == 3
    assert graph.k == 3


def test_out_and_in_neighbors_ring():
    graph = ring_kcast_topology(5, 2)
    assert graph.out_neighbors(0) == {1, 2}
    assert graph.in_neighbors(0) == {3, 4}


def test_strong_connectivity_of_ring():
    graph = ring_kcast_topology(6, 2)
    assert graph.is_strongly_connected()
    assert graph.diameter() == 3


def test_connectivity_after_node_removal():
    graph = ring_kcast_topology(6, 2)
    # Removing one node (f = 1 < k = 2) cannot partition the ring.
    assert graph.is_strongly_connected(exclude=[0])
    # Removing two adjacent nodes (f = 2 = k) can: node 5 loses both of its
    # receivers, which is exactly the Lemma A.5 boundary.
    assert not graph.is_strongly_connected(exclude=[0, 1])
    # A k = 3 ring of 7 survives two adjacent removals (f = 2 < k = 3).
    wider = ring_kcast_topology(7, 3)
    assert wider.is_strongly_connected(exclude=[0, 1])


def test_fault_bound_lemma_a5():
    graph = ring_kcast_topology(7, 3)
    # f < min(d_in, d_out) = 3, so the largest tolerable f is 2.
    assert graph.max_faults_necessary_condition() == 2
    assert graph.satisfies_fault_bound(2)
    assert not graph.satisfies_fault_bound(3)


def test_fault_bound_lemma_a6():
    graph = ring_kcast_topology(7, 3)
    # f < k * min(D_in, D_out) = 3 * 1.
    assert graph.max_faults_kcast_condition() == 2


def test_partition_resistance_exhaustive():
    graph = ring_kcast_topology(7, 3)
    assert graph.is_partition_resistant(2)
    # Removing 3 specific consecutive nodes disconnects a k=3 ring of 7.
    assert not graph.is_partition_resistant(3)


def test_independent_edges_detects_redundant_cover():
    nodes = [0, 1, 2, 3]
    edges = [
        HyperEdge.make(0, [1, 2]),
        HyperEdge.make(0, [2, 3]),
        HyperEdge.make(0, [1, 3]),  # covered by the union of the other two
        HyperEdge.make(1, [0]),
        HyperEdge.make(2, [0]),
        HyperEdge.make(3, [0]),
    ]
    graph = Hypergraph(nodes=nodes, edges=edges)
    assert not graph.has_independent_edges()


def test_independent_edges_accepts_ring():
    assert ring_kcast_topology(7, 3).has_independent_edges()


def test_add_edge_validates():
    graph = ring_kcast_topology(4, 1)
    with pytest.raises(ValueError):
        graph.add_edge(HyperEdge.make(0, [9]))
    graph.add_edge(HyperEdge.make(0, [2]))
    assert graph.d_out(0) == 2


def test_diameter_requires_strong_connectivity():
    nodes = [0, 1, 2]
    edges = [HyperEdge.make(0, [1]), HyperEdge.make(1, [2])]
    graph = Hypergraph(nodes=nodes, edges=edges)
    with pytest.raises(ValueError):
        graph.diameter()


def test_partition_resistance_f_zero_is_connectivity():
    graph = ring_kcast_topology(5, 1)
    assert graph.is_partition_resistant(0)
    assert not graph.is_partition_resistant(1)


# ------------------------------------------- diameter / connectivity vs networkx
# networkx is the reference here: the library computes both answers with its
# own BFS on index lists and must agree with networkx exactly.


def reference_diameter(graph):
    return nx.diameter(graph.to_digraph())


def reference_strongly_connected(graph, exclude=None):
    digraph = graph.to_digraph(exclude=exclude)
    return digraph.number_of_nodes() <= 1 or nx.is_strongly_connected(digraph)


def relabelled(graph, mapping):
    """``graph`` with every node id ``v`` renamed to ``mapping[v]``."""
    return Hypergraph(
        nodes=[mapping[node] for node in graph.nodes],
        edges=[
            HyperEdge.make(mapping[edge.sender], [mapping[r] for r in edge.receivers])
            for edge in graph.edges
        ],
    )


def ring_listed_out_of_order(n, k):
    """A ring k-cast whose node list is a permutation of ``range(n)``."""
    ring = ring_kcast_topology(n, k)
    return Hypergraph(nodes=list(reversed(ring.nodes)), edges=list(ring.edges))


ROTATION_INVARIANT_GRAPHS = {
    "ring-kcast-7-3": lambda: ring_kcast_topology(7, 3),
    "ring-kcast-40-1": lambda: ring_kcast_topology(40, 1),
    "ring-kcast-101-4": lambda: ring_kcast_topology(101, 4),
    "unicast-ring-30-2": lambda: unicast_ring_topology(30, 2),
    "unicast-ring-9-8": lambda: unicast_ring_topology(9, 8),
    "fully-connected-2": lambda: fully_connected_topology(2),
    "fully-connected-25": lambda: fully_connected_topology(25),
    "ring-nodes-permuted": lambda: ring_listed_out_of_order(15, 2),
}


def ring_with_extra_edge():
    graph = ring_kcast_topology(20, 2)
    graph.add_edge(HyperEdge.make(0, [10]))
    return graph


ALL_PAIRS_GRAPHS = {
    "star-9": lambda: star_topology(9),
    "star-centre-last": lambda: star_topology(31, center=30),
    "random-kcast-seed-3": lambda: random_kcast_topology(30, 3, rng=SeededRNG(3)),
    "random-kcast-seed-11-two-edges": lambda: random_kcast_topology(
        60, 2, edges_per_node=2, rng=SeededRNG(11)
    ),
    "ring-with-extra-edge": ring_with_extra_edge,
    "ring-relabelled": lambda: relabelled(
        ring_kcast_topology(12, 2), {i: 100 + 3 * i for i in range(12)}
    ),
}


@pytest.mark.parametrize("name", sorted(ROTATION_INVARIANT_GRAPHS))
def test_rotation_invariant_builders_take_one_bfs_and_match_networkx(name):
    graph = ROTATION_INVARIANT_GRAPHS[name]()
    assert graph._is_rotation_invariant()
    assert graph.diameter() == reference_diameter(graph)
    assert graph.is_strongly_connected() == reference_strongly_connected(graph)


@pytest.mark.parametrize("name", sorted(ALL_PAIRS_GRAPHS))
def test_other_graphs_take_all_pairs_and_match_networkx(name):
    graph = ALL_PAIRS_GRAPHS[name]()
    assert not graph._is_rotation_invariant()
    assert graph.diameter() == reference_diameter(graph)
    assert graph.is_strongly_connected() == reference_strongly_connected(graph)


def test_ring_with_extra_edge_shortens_the_diameter():
    # The chord 0 -> 10 lowers node 0's eccentricity but not node 1's, so
    # an answer read off node 0 alone would be wrong here.
    graph = ring_with_extra_edge()
    assert graph.diameter() == reference_diameter(graph) == 10


@pytest.mark.parametrize("name", sorted({**ROTATION_INVARIANT_GRAPHS, **ALL_PAIRS_GRAPHS}))
def test_strong_connectivity_with_random_exclusions_matches_networkx(name):
    graph = {**ROTATION_INVARIANT_GRAPHS, **ALL_PAIRS_GRAPHS}[name]()
    rng = SeededRNG(derive_seed(5, "exclude", name))
    n = len(graph.nodes)
    for size in sorted({size for size in (1, 2, 3, n // 2, n - 1) if size < n}):
        exclude = rng.sample(graph.nodes, size)
        assert graph.is_strongly_connected(exclude=exclude) == reference_strongly_connected(
            graph, exclude
        ), (name, exclude)


def test_rotation_invariant_but_disconnected_raises():
    # Every node sends to the node two ahead: the offsets agree, but the
    # even and odd nodes form two separate cycles.
    nodes = list(range(6))
    graph = Hypergraph(nodes=nodes, edges=[HyperEdge.make(i, [(i + 2) % 6]) for i in nodes])
    assert graph._is_rotation_invariant()
    assert not graph.is_strongly_connected()
    assert not reference_strongly_connected(graph)
    with pytest.raises(ValueError):
        graph.diameter()


def test_all_pairs_graph_that_is_not_strongly_connected_raises():
    # Node 0 reaches everyone, but nobody reaches node 0 back.
    nodes = list(range(5))
    edges = [HyperEdge.make(0, [1])] + [HyperEdge.make(i, [1 + i % 4]) for i in range(1, 5)]
    graph = Hypergraph(nodes=nodes, edges=edges)
    assert not graph._is_rotation_invariant()
    assert not graph.is_strongly_connected()
    assert not reference_strongly_connected(graph)
    with pytest.raises(ValueError):
        graph.diameter()


def test_tiny_graphs():
    assert Hypergraph(nodes=[]).diameter() == 0
    assert Hypergraph(nodes=[4]).diameter() == 0
    assert Hypergraph(nodes=[4]).is_strongly_connected()
    assert ring_kcast_topology(5, 1).is_strongly_connected(exclude=[0, 1, 2, 3])


@pytest.mark.parametrize("n", [100, 500, 1000, 2000])
@pytest.mark.parametrize("k", [1, 3, 7])
def test_ring_kcast_diameter_closed_form(n, k):
    assert ring_kcast_topology(n, k).diameter() == math.ceil((n - 1) / k)


@pytest.mark.parametrize("topology", TOPOLOGIES)
@pytest.mark.parametrize("n,k", [(7, 2), (16, 3)])
def test_compute_delta_unchanged_for_every_topology(topology, n, k):
    spec = DeploymentSpec(n=n, f=1, k=k, topology=topology, hop_delay=0.75, seed=9)
    graph = build_topology(spec)
    expected = (max(1, reference_diameter(graph)) + 2) * spec.hop_delay
    assert compute_delta(spec, graph) == expected


def test_importing_the_package_leaves_networkx_unloaded():
    src = Path(__file__).resolve().parents[2] / "src"
    code = (
        "import sys, repro, repro.session, repro.cli\n"
        "assert 'networkx' not in sys.modules, 'networkx was imported'\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=False,
    )
    assert result.returncode == 0, result.stderr
