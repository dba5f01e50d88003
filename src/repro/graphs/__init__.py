"""Directed-acyclic-graph substrate used by the whole WOLVES reproduction.

The workflow specification, the workflow view quotient and the provenance
graph are all directed graphs; this package provides the shared machinery:

* :class:`~repro.graphs.dag.Digraph` — a small, explicit directed graph.
* :mod:`~repro.graphs.topo` — topological sorts, layering, cycle finding.
* :mod:`~repro.graphs.reachability` — bitset transitive closure and the
  :class:`~repro.graphs.reachability.ReachabilityIndex` used by every
  soundness check.
* :mod:`~repro.graphs.kernels` — the pluggable bitset kernel backends the
  closure sweeps run on (pure big-int reference, vectorized numpy
  packed-uint64).
* :mod:`~repro.graphs.convexity` — convex sets and interval closures.
* :mod:`~repro.graphs.generators` — random DAGs (layered, series-parallel,
  scientific-workflow motifs) for the synthetic repository.
* :mod:`~repro.graphs.dot` — Graphviz DOT export for the displayer.
"""

from repro.graphs.dag import Digraph
from repro.graphs.topo import (
    topological_sort,
    is_acyclic,
    find_cycle,
    layers,
    longest_path_length,
)
from repro.graphs.kernels import (
    BitsetKernel,
    active_kernel,
    available_backends,
    get_kernel,
)
from repro.graphs.reachability import (
    ReachabilityIndex,
    bit_indices,
    closure_masks,
    popcount,
    restrict_index,
    transitive_closure,
)
from repro.graphs.convexity import is_convex, convex_closure, between

__all__ = [
    "Digraph",
    "topological_sort",
    "is_acyclic",
    "find_cycle",
    "layers",
    "longest_path_length",
    "BitsetKernel",
    "ReachabilityIndex",
    "active_kernel",
    "available_backends",
    "bit_indices",
    "closure_masks",
    "get_kernel",
    "popcount",
    "restrict_index",
    "transitive_closure",
    "is_convex",
    "convex_closure",
    "between",
]
