"""Hypergraph network model (Appendix A of the paper).

A CPS deployment where nodes can reach several neighbours with a single
wireless multicast is modelled as a hypergraph ``H = (N, E)`` whose
hyper-edges are ``(sender, receiver-set)`` pairs (Definition A.1).  This
module implements the paper's definitions and fault-tolerance results:

* in-degree / out-degree of a node as *distinct reachable nodes*
  (Definitions A.3 and A.4);
* ``D_in`` / ``D_out`` as the minimum number of incoming / outgoing
  hyper-edges over all nodes;
* independence of edges (Definition A.2);
* the necessary fault-tolerance conditions
  ``f < min_p (d_out(p), d_in(p))`` (Lemma A.5) and
  ``f < k * min(D_in, D_out)`` (Lemma A.6);
* partition resistance: the graph stays strongly connected after removing
  any ``f`` nodes (the assumption the protocol section relies on).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

if TYPE_CHECKING:
    import networkx as nx


@dataclass(frozen=True)
class HyperEdge:
    """A directed multicast edge: one sender, a set of receivers.

    Self-loops are excluded by construction, matching Definition A.1
    (``S(e) not in R(e)``).
    """

    sender: int
    receivers: FrozenSet[int]

    def __post_init__(self) -> None:
        if not self.receivers:
            raise ValueError("a hyper-edge must have at least one receiver")
        if self.sender in self.receivers:
            raise ValueError(
                f"self-loops are not allowed: sender {self.sender} in receivers"
            )

    @property
    def degree(self) -> int:
        """Number of receivers (the edge's k)."""
        return len(self.receivers)

    @cached_property
    def receivers_sorted(self) -> tuple:
        """Receivers in ascending order, computed once per edge.

        The network transmits to receivers in sorted order for determinism;
        precomputing the order here keeps an O(k log k) sort out of the
        per-transmission hot path.  (``cached_property`` writes straight
        into the instance ``__dict__``, which frozen dataclasses allow.)
        """
        return tuple(sorted(self.receivers))

    @staticmethod
    def make(sender: int, receivers: Iterable[int]) -> "HyperEdge":
        """Convenience constructor from any iterable of receivers."""
        return HyperEdge(sender=sender, receivers=frozenset(receivers))


@dataclass
class Hypergraph:
    """A directed communication hypergraph (Definition A.1)."""

    #: Class-wide switch for the adjacency index (perf legacy mode sets it
    #: to ``False`` to measure the seed's linear edge scans).
    cache_topology = True

    nodes: List[int]
    edges: List[HyperEdge] = field(default_factory=list)

    def __post_init__(self) -> None:
        node_set = set(self.nodes)
        if len(node_set) != len(self.nodes):
            raise ValueError("duplicate node ids")
        for edge in self.edges:
            self._validate_edge(edge, node_set)

    @staticmethod
    def _validate_edge(edge: HyperEdge, node_set: Set[int]) -> None:
        if edge.sender not in node_set:
            raise ValueError(f"edge sender {edge.sender} is not a node")
        missing = edge.receivers - node_set
        if missing:
            raise ValueError(f"edge receivers {sorted(missing)} are not nodes")

    # -------------------------------------------------------------- mutation
    def add_edge(self, edge: HyperEdge) -> None:
        """Add a hyper-edge after validating its endpoints."""
        self._validate_edge(edge, set(self.nodes))
        self.edges.append(edge)
        self.invalidate_topology_cache()

    def invalidate_topology_cache(self) -> None:
        """Drop the adjacency index (call after mutating ``edges`` directly).

        Also bumps :attr:`topology_version`, which consumers holding
        structures compiled from the adjacency (the network's dissemination
        plans) compare to detect mutation.
        """
        self.__dict__.pop("_out_index", None)
        self.__dict__["_topology_version"] = self.topology_version + 1

    @property
    def topology_version(self) -> int:
        """Monotonic counter bumped on every edge mutation."""
        return self.__dict__.get("_topology_version", 0)

    # ------------------------------------------------------------- topology
    def out_edges(self, node: int) -> Sequence[HyperEdge]:
        """Hyper-edges on which ``node`` is the sender.

        Backed by a lazily built sender index: flooding queries the same
        adjacency once per relay per flood, so a linear scan of ``edges``
        here would make every broadcast O(n·|E|).  The cached path returns
        an immutable tuple — mutating the result was never supported, and
        handing out the index's internal lists would let a caller corrupt
        the adjacency silently.
        """
        if not self.cache_topology:
            return [edge for edge in self.edges if edge.sender == node]
        index = self.__dict__.get("_out_index")
        if index is None:
            grouped: Dict[int, List[HyperEdge]] = {}
            for edge in self.edges:
                grouped.setdefault(edge.sender, []).append(edge)
            index = {sender: tuple(edges) for sender, edges in grouped.items()}
            self.__dict__["_out_index"] = index
        return index.get(node, ())

    def in_edges(self, node: int) -> List[HyperEdge]:
        """Hyper-edges on which ``node`` is a receiver."""
        return [edge for edge in self.edges if node in edge.receivers]

    def out_neighbors(self, node: int) -> Set[int]:
        """Distinct nodes reachable from ``node`` in one hop."""
        neighbors: Set[int] = set()
        for edge in self.out_edges(node):
            neighbors |= edge.receivers
        return neighbors

    def in_neighbors(self, node: int) -> Set[int]:
        """Distinct nodes that can reach ``node`` in one hop."""
        return {edge.sender for edge in self.in_edges(node)}

    def d_out(self, node: int) -> int:
        """Out-degree: number of distinct reachable nodes (Definition A.4)."""
        return len(self.out_neighbors(node))

    def d_in(self, node: int) -> int:
        """In-degree: number of distinct nodes that can reach ``node`` (Definition A.3)."""
        return len(self.in_neighbors(node))

    @property
    def min_d_out(self) -> int:
        """Minimum out-degree over all nodes."""
        return min((self.d_out(p) for p in self.nodes), default=0)

    @property
    def min_d_in(self) -> int:
        """Minimum in-degree over all nodes."""
        return min((self.d_in(p) for p in self.nodes), default=0)

    @property
    def capital_d_out(self) -> int:
        """``D_out``: minimum number of outgoing hyper-edges over all nodes."""
        return min((len(self.out_edges(p)) for p in self.nodes), default=0)

    @property
    def capital_d_in(self) -> int:
        """``D_in``: minimum number of incoming hyper-edges over all nodes."""
        return min((len(self.in_edges(p)) for p in self.nodes), default=0)

    @property
    def k(self) -> int:
        """The k of the k-casts: the minimum receiver count over all edges."""
        return min((edge.degree for edge in self.edges), default=0)

    # ----------------------------------------------------------- properties
    def has_independent_edges(self) -> bool:
        """Check Definition A.2: no sender has two distinct edge subsets covering the same receivers.

        A sufficient and practical check (the one the paper's "modified
        spanning tree algorithm" would enforce) is that no edge of a sender
        is fully covered by the union of that sender's other edges.  This
        rejects exactly the redundant-edge situation of the paper's example.
        """
        for node in self.nodes:
            edges = self.out_edges(node)
            for i, edge in enumerate(edges):
                others: Set[int] = set()
                for j, other in enumerate(edges):
                    if i != j:
                        others |= other.receivers
                if edge.receivers <= others:
                    return False
        return True

    def to_digraph(self, exclude: Optional[Iterable[int]] = None) -> nx.DiGraph:
        """Flatten to a networkx directed graph (hyper-edges become stars).

        networkx is imported here rather than at module level: the
        connectivity and diameter queries below run on plain index lists,
        so a deployment never pays for loading it.
        """
        import networkx as nx

        skip = set(exclude or ())
        graph = nx.DiGraph()
        graph.add_nodes_from(n for n in self.nodes if n not in skip)
        for edge in self.edges:
            if edge.sender in skip:
                continue
            for receiver in edge.receivers:
                if receiver not in skip:
                    graph.add_edge(edge.sender, receiver)
        return graph

    def _adjacency(
        self, exclude: Optional[Iterable[int]] = None
    ) -> Tuple[List[int], List[List[int]]]:
        """The surviving nodes and their distinct out-neighbours by position.

        Hyper-edges flatten to stars: ``adjacency[i]`` lists the positions
        in ``nodes`` of every surviving receiver of the surviving node at
        position ``i``.
        """
        skip = set(exclude or ())
        nodes = [node for node in self.nodes if node not in skip]
        position = {node: i for i, node in enumerate(nodes)}
        rows: List[Dict[int, None]] = [{} for _ in nodes]
        for edge in self.edges:
            i = position.get(edge.sender)
            if i is None:
                continue
            row = rows[i]
            for receiver in edge.receivers_sorted:
                j = position.get(receiver)
                if j is not None:
                    row[j] = None
        return nodes, [list(row) for row in rows]

    def is_strongly_connected(self, exclude: Optional[Iterable[int]] = None) -> bool:
        """Whether the surviving nodes form a strongly connected digraph.

        One forward and one reverse BFS from the first surviving node: the
        digraph is strongly connected iff that node reaches every node and
        every node reaches it.
        """
        _, adjacency = self._adjacency(exclude)
        if len(adjacency) <= 1:
            return True
        if _eccentricity(adjacency, 0) is None:
            return False
        reverse: List[List[int]] = [[] for _ in adjacency]
        for i, row in enumerate(adjacency):
            for j in row:
                reverse[j].append(i)
        return _eccentricity(reverse, 0) is not None

    def _is_rotation_invariant(self) -> bool:
        """Whether ``i -> i+1 mod n`` is an automorphism of the flattened digraph.

        True iff the node ids are exactly ``range(n)`` and every node has
        the same set of receiver offsets ``(receiver - sender) mod n`` over
        its out-edges — the ring k-cast, unicast ring and fully connected
        builders, but not the star or random k-casts.
        """
        n = len(self.nodes)
        if n == 0 or sorted(self.nodes) != list(range(n)):
            return False
        offsets: Dict[int, Set[int]] = {node: set() for node in self.nodes}
        for edge in self.edges:
            sender = edge.sender
            offsets[sender].update((receiver - sender) % n for receiver in edge.receivers)
        reference = offsets[0]
        return all(row == reference for row in offsets.values())

    def diameter(self) -> int:
        """Longest shortest-path length between any two nodes (hop count).

        The diameter is the largest BFS eccentricity over all sources.  When
        :meth:`_is_rotation_invariant` holds — node ids are ``range(n)`` and
        every node has the same set of ``(receiver - sender) mod n``
        offsets — the rotation ``i -> i+1 mod n`` maps the flattened digraph
        onto itself.  An automorphism preserves hop distances, so node
        ``v``'s eccentricity equals node 0's (rotate by ``v``), and if node
        0 reaches every node so does every other node.  One BFS from node 0
        then yields both strong connectivity and the exact diameter; every
        other graph takes the BFS from every source.

        Raises:
            ValueError: if the hypergraph is not strongly connected.
        """
        nodes, adjacency = self._adjacency()
        if len(nodes) <= 1:
            return 0
        if self._is_rotation_invariant():
            sources: Iterable[int] = (nodes.index(0),)
        else:
            sources = range(len(nodes))
        diameter = 0
        for source in sources:
            eccentricity = _eccentricity(adjacency, source)
            if eccentricity is None:
                raise ValueError("diameter undefined: hypergraph is not strongly connected")
            diameter = max(diameter, eccentricity)
        return diameter

    # ------------------------------------------------------- fault tolerance
    def max_faults_necessary_condition(self) -> int:
        """Largest f satisfying Lemma A.5: f < min_p(d_out(p), d_in(p))."""
        if not self.nodes:
            return 0
        bound = min(min(self.d_out(p), self.d_in(p)) for p in self.nodes)
        return max(0, bound - 1)

    def max_faults_kcast_condition(self) -> int:
        """Largest f satisfying Lemma A.6: f < k * min(D_in, D_out)."""
        bound = self.k * min(self.capital_d_in, self.capital_d_out)
        return max(0, bound - 1)

    def satisfies_fault_bound(self, f: int) -> bool:
        """Whether ``f`` faults satisfy the necessary condition of Lemma A.5."""
        if f < 0:
            raise ValueError("f cannot be negative")
        return f <= self.max_faults_necessary_condition()

    def is_partition_resistant(self, f: int, exhaustive_limit: int = 200_000) -> bool:
        """Whether removing any ``f`` nodes leaves the rest strongly connected.

        For small systems (the paper's experiments use n <= 15) this is an
        exhaustive check over all subsets of size ``f``; for larger systems
        it falls back to the directed node-connectivity bound
        ``kappa(G) > f``, which is a sufficient condition.
        """
        if f < 0:
            raise ValueError("f cannot be negative")
        if f == 0:
            return self.is_strongly_connected()
        if f >= len(self.nodes):
            return False
        from math import comb

        if comb(len(self.nodes), f) <= exhaustive_limit:
            for removed in itertools.combinations(self.nodes, f):
                if not self.is_strongly_connected(exclude=removed):
                    return False
            return True
        import networkx as nx

        return nx.node_connectivity(self.to_digraph()) > f


def _eccentricity(adjacency: List[List[int]], source: int) -> Optional[int]:
    """Hop distance from ``source`` to its farthest node, by level-order BFS.

    Stops as soon as every node has been reached; ``None`` if some node is
    unreachable from ``source``.
    """
    total = len(adjacency)
    seen = bytearray(total)
    seen[source] = 1
    reached = 1
    frontier = [source]
    depth = 0
    while frontier and reached < total:
        depth += 1
        next_frontier = []
        for node in frontier:
            for neighbour in adjacency[node]:
                if not seen[neighbour]:
                    seen[neighbour] = 1
                    next_frontier.append(neighbour)
        reached += len(next_frontier)
        frontier = next_frontier
    return depth if reached == total else None
