"""Persistable reachability labels: spanning-forest intervals + spill.

The XPath-accelerator observation (pre/post-order numbers turn
ancestor/descendant tests into range predicates) extends from trees to
DAGs by splitting the edge set:

* a **spanning forest** — every node keeps one *tree parent* (its first
  recorded predecessor), so forest ancestorship is exactly interval
  containment of DFS entry/exit numbers: ``u`` is a forest ancestor of
  ``v`` iff ``pre(u) < pre(v)`` and ``post(u) > post(v)``.  This is the
  part a database can answer as an **indexed range scan** without
  touching the graph;
* **spill bitsets** — reachability contributed by the non-tree edges.
  For every node the full strict ancestor/descendant sets are computed
  with the pluggable bitset kernels (:mod:`repro.graphs.kernels`, the
  same closure the in-memory :class:`~repro.provenance.index.ProvenanceIndex`
  uses), and whatever the forest intervals do not already imply is kept
  as a per-node bitset over topological positions, stored as a compact
  little-endian blob.

``answers(labels) = range-scan(tree part) ∪ decode(spill part)`` is
*exact* — the spill is defined as the closure minus the forest closure,
so nothing is approximated and nothing needs a confirming traversal
(unlike GRAIL-style probabilistic refutation labels).  Long thin
workflow DAGs make the forest cover most of the closure, so the spill
blobs stay small; the worst case is bounded by the closure itself.

The module is deliberately graph-flavoured and storage-agnostic: it
takes a topological node order plus adjacency callables and returns
plain :class:`NodeLabel` rows.  :mod:`repro.persistence` owns turning
them into SQL.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.graphs.kernels import get_kernel
from repro.graphs.reachability import KernelLike, closure_masks


@dataclass(frozen=True)
class NodeLabel:
    """Interval + spill labels of one node.

    ``position`` is the node's topological index (bit index in the spill
    bitsets of every other node); ``pre``/``post`` are DFS entry/exit
    numbers on the spanning forest; ``anc_spill``/``desc_spill`` are
    bitsets (big ints) of strict ancestors/descendants **not** implied by
    forest interval containment.
    """

    node: object
    position: int
    pre: int
    post: int
    parent: Optional[int]  #: tree parent's position, None for roots
    anc_spill: int
    desc_spill: int


@dataclass(frozen=True)
class Labeling:
    """The full labeling of one DAG, plus summary facts for reporting."""

    labels: List[NodeLabel]
    tree_edges: int
    spill_bits: int

    def label_of(self, position: int) -> NodeLabel:
        return self.labels[position]


def spill_to_blob(mask: int) -> Optional[bytes]:
    """Compact little-endian bytes of a spill bitset; ``None`` when empty
    (the common case for chain-like graphs — a NULL column, not a blob)."""
    if not mask:
        return None
    return mask.to_bytes((mask.bit_length() + 7) // 8, "little")


def blob_to_positions(blob: Optional[bytes]) -> List[int]:
    """Bit positions set in a stored spill blob, ascending."""
    if not blob:
        return []
    mask = int.from_bytes(blob, "little")
    positions = []
    while mask:
        low = mask & -mask
        positions.append(low.bit_length() - 1)
        mask ^= low
    return positions


def label_dag(order: Sequence[object],
              successors: Callable[[object], Sequence[object]],
              predecessors: Callable[[object], Sequence[object]],
              kernel: KernelLike = None) -> Labeling:
    """Label a topologically ordered DAG for range-predicate reachability.

    ``order`` must list every node once with every edge pointing forward;
    ``successors``/``predecessors`` give the adjacency.  The tree parent
    of a node is its first listed predecessor (deterministic, and for
    recorded provenance graphs the producing invocation / first used
    artifact — the edge most likely to carry deep lineage).
    """
    kernel = get_kernel(kernel)
    position, desc, anc = closure_masks(order, successors, kernel=kernel)
    n = len(order)
    parent: List[Optional[int]] = [None] * n
    children: List[List[int]] = [[] for _ in range(n)]
    tree_edges = 0
    for node in order:
        pos = position[node]
        preds = list(predecessors(node))
        if preds:
            parent_pos = position[preds[0]]
            parent[pos] = parent_pos
            children[parent_pos].append(pos)
            tree_edges += 1

    # one DFS over the forest: entry/exit counters give the interval
    # labels; roots are visited in topological order so the numbering is
    # deterministic
    pre = [0] * n
    post = [0] * n
    counter = 0
    for root in range(n):
        if parent[root] is not None:
            continue
        # iterative DFS: (position, next-child-index) frames
        stack: List[Tuple[int, int]] = [(root, 0)]
        pre[root] = counter
        counter += 1
        while stack:
            pos, child_index = stack[-1]
            if child_index < len(children[pos]):
                stack[-1] = (pos, child_index + 1)
                child = children[pos][child_index]
                pre[child] = counter
                counter += 1
                stack.append((child, 0))
            else:
                post[pos] = counter
                counter += 1
                stack.pop()

    # forest closures by one pass each way (positions increase along
    # tree edges because predecessors precede their nodes in ``order``)
    tree_anc = [0] * n
    for pos in range(n):
        parent_pos = parent[pos]
        if parent_pos is not None:
            tree_anc[pos] = tree_anc[parent_pos] | (1 << parent_pos)
    tree_desc = [0] * n
    for pos in range(n - 1, -1, -1):
        mask = 0
        for child in children[pos]:
            mask |= tree_desc[child] | (1 << child)
        tree_desc[pos] = mask

    labels = []
    spill_bits = 0
    for node in order:
        pos = position[node]
        anc_spill = anc[pos] & ~tree_anc[pos]
        desc_spill = desc[pos] & ~tree_desc[pos]
        spill_bits += anc_spill.bit_count() + desc_spill.bit_count()
        labels.append(NodeLabel(node=node, position=pos, pre=pre[pos],
                                post=post[pos], parent=parent[pos],
                                anc_spill=anc_spill,
                                desc_spill=desc_spill))
    return Labeling(labels=labels, tree_edges=tree_edges,
                    spill_bits=spill_bits)


def label_provenance(provenance, kernel: KernelLike = None) -> Labeling:
    """Label one run's bipartite OPM graph.

    The recording order is already topological; the tree parent of an
    artifact is its producing invocation and the tree parent of an
    invocation its first used artifact — the same adjacency the
    in-memory :class:`~repro.provenance.index.ProvenanceIndex` closes
    over, so positions here equal that index's bit positions and the
    decoded answers line up bit for bit.
    """
    order = provenance.topological_order()
    outputs = provenance.outputs_of
    consumers = provenance.consumers
    used = provenance.used
    generated_by = provenance.generated_by

    def successors(node):
        kind, node_id = node
        if kind == "invocation":
            return [("artifact", a) for a in outputs(node_id)]
        return [("invocation", i) for i in consumers(node_id)]

    def predecessors(node):
        kind, node_id = node
        if kind == "invocation":
            return [("artifact", a) for a in used(node_id)]
        return [("invocation", generated_by(node_id))]

    return label_dag(order, successors, predecessors, kernel=kernel)


def forest_reaches(labeling: Labeling, source: int, target: int) -> bool:
    """Reference strict-reachability check over the labels (tests and
    sanity probes; the production path is SQL range predicates)."""
    a = labeling.labels[source]
    b = labeling.labels[target]
    if a.pre < b.pre and a.post > b.post:
        return True
    return bool(b.anc_spill & (1 << source))


def positions_to_mask(positions: Sequence[int]) -> int:
    mask = 0
    for pos in positions:
        mask |= 1 << pos
    return mask
