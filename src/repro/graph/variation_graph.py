"""Variation graph data model.

A variation graph ``G = (P, V, E)`` (paper Sec. II-A) is a directed graph in
which every *node* carries a nucleotide sequence, every *edge* connects an
ordered, oriented pair of nodes, and every *path* is a walk over oriented
nodes that spells out one of the input genomes. Nodes shared by many paths
represent homologous sequence; nodes private to a few paths are the variants
the layout is meant to reveal.

This module provides the mutable, dictionary-backed "full" representation
analogous to ODGI's graph class: handy for construction, editing and I/O, but
deliberately richer than the layout algorithm needs. The layout engines never
consume it directly — they consume the flat, array-based
:class:`repro.graph.lean.LeanGraph` extracted from it (paper Sec. V-A, the
"lean data structure").
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

__all__ = ["Node", "Edge", "Step", "Path", "VariationGraph"]


@dataclass(frozen=True)
class Node:
    """A node holds a nucleotide sequence (or just its length).

    The layout algorithm only ever uses ``len(sequence)``; storing the raw
    string mirrors ODGI, and dropping it is exactly the "lean data structure"
    optimisation the paper describes.
    """

    node_id: int
    sequence: str

    @property
    def length(self) -> int:
        """Number of nucleotides in this node."""
        return len(self.sequence)


@dataclass(frozen=True)
class Edge:
    """A directed edge between two oriented node ends.

    ``from_rev`` / ``to_rev`` express whether the edge leaves/enters the
    reverse complement of the node (GFA orientation signs).
    """

    from_id: int
    to_id: int
    from_rev: bool = False
    to_rev: bool = False

    def key(self) -> Tuple[int, bool, int, bool]:
        """Canonical dictionary key for this edge."""
        return (self.from_id, self.from_rev, self.to_id, self.to_rev)


@dataclass(frozen=True)
class Step:
    """One step of a path: an oriented visit to a node."""

    node_id: int
    is_reverse: bool = False


@dataclass
class Path:
    """A named walk through the graph representing one input genome."""

    name: str
    steps: List[Step] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.steps)

    def node_ids(self) -> List[int]:
        """The node identifiers visited, in order."""
        return [s.node_id for s in self.steps]

    def append(self, node_id: int, is_reverse: bool = False) -> None:
        """Append a step to the walk."""
        self.steps.append(Step(node_id, is_reverse))


class VariationGraph:
    """Mutable variation graph (ODGI-style full representation).

    The class enforces referential integrity: edges and path steps may only
    reference existing nodes, and removing a node removes its incident edges
    and is refused while any path still visits it.
    """

    def __init__(self) -> None:
        self._nodes: Dict[int, Node] = {}
        self._edges: Dict[Tuple[int, bool, int, bool], Edge] = {}
        self._paths: Dict[str, Path] = {}
        self._adjacency: Dict[int, set] = {}

    # ------------------------------------------------------------------ nodes
    @property
    def node_count(self) -> int:
        """Number of nodes."""
        return len(self._nodes)

    @property
    def edge_count(self) -> int:
        """Number of edges."""
        return len(self._edges)

    @property
    def path_count(self) -> int:
        """Number of paths."""
        return len(self._paths)

    def has_node(self, node_id: int) -> bool:
        """Whether ``node_id`` exists."""
        return node_id in self._nodes

    def add_node(self, node_id: int, sequence: str) -> Node:
        """Add a node; duplicate ids are rejected, empty sequences allowed."""
        if node_id in self._nodes:
            raise ValueError(f"node {node_id} already exists")
        if node_id < 0:
            raise ValueError("node ids must be non-negative")
        node = Node(node_id, sequence)
        self._nodes[node_id] = node
        self._adjacency[node_id] = set()
        return node

    def node_length(self, node_id: int) -> int:
        """Sequence length of a node."""
        return self._nodes[node_id].length

    def nodes(self) -> Iterator[Node]:
        """Iterate over nodes in insertion order."""
        return iter(self._nodes.values())

    def node_ids(self) -> List[int]:
        """All node ids in insertion order."""
        return list(self._nodes.keys())

    def remove_node(self, node_id: int) -> None:
        """Remove an isolated-from-paths node and its incident edges."""
        if node_id not in self._nodes:
            raise KeyError(node_id)
        for path in self._paths.values():
            if any(s.node_id == node_id for s in path.steps):
                raise ValueError(
                    f"node {node_id} is still referenced by path '{path.name}'"
                )
        doomed = [k for k in self._edges if k[0] == node_id or k[2] == node_id]
        for k in doomed:
            del self._edges[k]
        for neigh in self._adjacency.pop(node_id, set()):
            self._adjacency.get(neigh, set()).discard(node_id)
        del self._nodes[node_id]

    # ------------------------------------------------------------------ edges
    def has_edge(
        self, from_id: int, to_id: int, from_rev: bool = False, to_rev: bool = False
    ) -> bool:
        """Whether the oriented edge exists."""
        return (from_id, from_rev, to_id, to_rev) in self._edges

    def add_edge(
        self, from_id: int, to_id: int, from_rev: bool = False, to_rev: bool = False
    ) -> Edge:
        """Add an edge between existing nodes; duplicates are idempotent."""
        if from_id not in self._nodes:
            raise KeyError(f"edge references missing node {from_id}")
        if to_id not in self._nodes:
            raise KeyError(f"edge references missing node {to_id}")
        edge = Edge(from_id, to_id, from_rev, to_rev)
        key = edge.key()
        if key not in self._edges:
            self._edges[key] = edge
            self._adjacency[from_id].add(to_id)
            self._adjacency[to_id].add(from_id)
        return self._edges[key]

    def edges(self) -> Iterator[Edge]:
        """Iterate over edges in insertion order."""
        return iter(self._edges.values())

    def neighbors(self, node_id: int) -> set:
        """Undirected neighbourhood of a node."""
        return set(self._adjacency[node_id])

    def degree(self, node_id: int) -> int:
        """Undirected degree of a node."""
        return len(self._adjacency[node_id])

    # ------------------------------------------------------------------ paths
    def add_path(self, name: str, steps: Optional[Iterable[Tuple[int, bool]]] = None) -> Path:
        """Create a path; ``steps`` is an iterable of (node_id, is_reverse)."""
        if name in self._paths:
            raise ValueError(f"path '{name}' already exists")
        path = Path(name)
        if steps is not None:
            for node_id, is_reverse in steps:
                self.append_step(path, node_id, is_reverse)
        self._paths[name] = path
        return path

    def append_step(self, path: Path, node_id: int, is_reverse: bool = False) -> None:
        """Append an oriented node visit to a path."""
        if node_id not in self._nodes:
            raise KeyError(f"path step references missing node {node_id}")
        path.append(node_id, is_reverse)

    def get_path(self, name: str) -> Path:
        """Return the path with this name (KeyError if absent)."""
        return self._paths[name]

    def paths(self) -> Iterator[Path]:
        """Iterate over paths in insertion order."""
        return iter(self._paths.values())

    def path_names(self) -> List[str]:
        """All path names in insertion order."""
        return list(self._paths.keys())

    # ------------------------------------------------------------- aggregates
    def total_sequence_length(self) -> int:
        """Total number of nucleotides stored across all nodes (# Nuc.)."""
        return sum(n.length for n in self._nodes.values())

    def total_path_steps(self) -> int:
        """Sum over paths of the number of steps (the paper's Σ|p|)."""
        return sum(len(p) for p in self._paths.values())

    def path_length_nucleotides(self, name: str) -> int:
        """Nucleotide length of one path."""
        path = self._paths[name]
        return sum(self._nodes[s.node_id].length for s in path.steps)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"VariationGraph(nodes={self.node_count}, edges={self.edge_count}, "
            f"paths={self.path_count})"
        )
