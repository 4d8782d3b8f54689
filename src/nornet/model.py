"""Network data model and leaky noisy-OR local semantics.

A :class:`Network` is a leveled DAG of binary nodes: disease roots with
priors, hidden intermediate (IPS) nodes, and observable finding leaves.
Every non-root node combines its parents through a leaky noisy-OR: each
incoming edge carries an activation probability, and the node's leak is
the probability it turns on with every modeled parent absent.

Networks and assignments are immutable after construction, so they can be
shared freely across threads and worker processes.
"""

from __future__ import annotations

import enum
import heapq
import re
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .errors import DomainError, IncompleteAssignmentError, ValidationError


class NodeKind(enum.Enum):
    DISEASE = "disease"
    IPS = "ips"
    FINDING = "finding"


# Legal edge directions: diseases feed intermediates and findings,
# intermediates feed intermediates and findings, findings feed nothing.
_LEGAL_ARCS = {
    (NodeKind.DISEASE, NodeKind.IPS),
    (NodeKind.DISEASE, NodeKind.FINDING),
    (NodeKind.IPS, NodeKind.IPS),
    (NodeKind.IPS, NodeKind.FINDING),
}

PHASES = (1, 2, 3, 4, 5)


@dataclass(frozen=True)
class Node:
    """One binary variable.

    ``prior`` is set exactly for diseases, ``phase`` exactly for findings.
    Diseases are roots: their leak is fixed at 0 and their prior is the
    marginal probability of being present.
    """

    id: str
    kind: NodeKind
    leak: float = 0.0
    prior: float | None = None
    phase: int | None = None


def disease(node_id: str, prior: float) -> Node:
    return Node(node_id, NodeKind.DISEASE, leak=0.0, prior=prior)


def ips(node_id: str, leak: float = 0.0) -> Node:
    return Node(node_id, NodeKind.IPS, leak=leak)


def finding(node_id: str, leak: float = 0.0, phase: int = 1) -> Node:
    return Node(node_id, NodeKind.FINDING, leak=leak, phase=phase)


@dataclass(frozen=True)
class Edge:
    """Directed causal arc with activation probability ``eta``."""

    src: str
    dst: str
    eta: float


class Assignment(Mapping):
    """Immutable partial map of node ids to present (True) / absent (False).

    Iteration is in ascending id order so that any derived output is
    deterministic.
    """

    __slots__ = ("_values",)

    def __init__(self, values: Mapping[str, bool] | Iterable[tuple[str, bool]] = ()):
        items = values.items() if isinstance(values, Mapping) else values
        self._values = {k: bool(v) for k, v in items}

    def __getitem__(self, key: str) -> bool:
        return self._values[key]

    def __iter__(self):
        return iter(sorted(self._values))

    def __len__(self) -> int:
        return len(self._values)

    def __eq__(self, other) -> bool:
        if isinstance(other, Assignment):
            return self._values == other._values
        if isinstance(other, Mapping):
            return self._values == dict(other)
        return NotImplemented

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={'1' if self._values[k] else '0'}" for k in self)
        return f"Assignment({inner})"

    def union(self, *others: "Assignment") -> "Assignment":
        """Merge disjoint assignments; conflicting duplicate keys are an error."""
        merged = dict(self._values)
        for other in others:
            for k, v in other._values.items():
                if k in merged and merged[k] != v:
                    raise DomainError(f"conflicting value for {k!r} in assignment union")
                merged[k] = v
        return Assignment(merged)

    # Plain-dict state keeps instances picklable despite __slots__.
    def __getstate__(self):
        return self._values

    def __setstate__(self, state):
        self._values = state


@dataclass(frozen=True)
class Violation:
    """One violated invariant, tied to the node or edge that breaks it."""

    code: str
    subject: str
    message: str

    def __str__(self) -> str:
        return f"{self.code} [{self.subject}]: {self.message}"


class Network:
    """Immutable leveled DAG with leaky noisy-OR semantics.

    The constructor rejects structures it cannot even index (duplicate
    ids, duplicate edges, edges naming unknown nodes). Everything else —
    ranges, level ordering, acyclicity — is reported by :func:`validate`
    rather than raised, so invalid networks can be inspected.
    """

    def __init__(self, name: str, nodes: Iterable[Node], edges: Iterable[Edge]):
        self.name = name
        node_map: dict[str, Node] = {}
        for node in nodes:
            if node.id in node_map:
                raise DomainError(f"duplicate node id {node.id!r}")
            node_map[node.id] = node
        edge_map: dict[tuple[str, str], Edge] = {}
        for edge in edges:
            key = (edge.src, edge.dst)
            if key in edge_map:
                raise DomainError(f"duplicate edge {edge.src}->{edge.dst}")
            if edge.src not in node_map:
                raise DomainError(f"edge source {edge.src!r} is not a node")
            if edge.dst not in node_map:
                raise DomainError(f"edge target {edge.dst!r} is not a node")
            edge_map[key] = edge
        self._nodes = node_map
        self._edges = edge_map
        parents: dict[str, list[tuple[str, float]]] = {nid: [] for nid in node_map}
        children: dict[str, list[str]] = {nid: [] for nid in node_map}
        for (src, dst), edge in edge_map.items():
            parents[dst].append((src, edge.eta))
            children[src].append(dst)
        for nid in node_map:
            parents[nid].sort()
            children[nid].sort()
        self._parents = parents
        self._children = children

    # -- structure accessors -------------------------------------------------
    # Sorted on first access and kept, since the network never changes.

    @cached_property
    def node_ids(self) -> tuple[str, ...]:
        return tuple(sorted(self._nodes))

    @cached_property
    def nodes(self) -> tuple[Node, ...]:
        return tuple(self._nodes[nid] for nid in self.node_ids)

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        return tuple(self._edges[key] for key in sorted(self._edges))

    def node(self, node_id: str) -> Node:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise DomainError(f"unknown node {node_id!r}") from None

    def edge(self, src: str, dst: str) -> Edge | None:
        return self._edges.get((src, dst))

    def parents_of(self, node_id: str) -> tuple[tuple[str, float], ...]:
        """(parent id, eta) pairs in ascending parent-id order."""
        return tuple(self._parents[node_id])

    def children_of(self, node_id: str) -> tuple[str, ...]:
        return tuple(self._children[node_id])

    def nodes_of_kind(self, kind: NodeKind) -> tuple[Node, ...]:
        return tuple(n for n in self.nodes if n.kind is kind)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Network):
            return NotImplemented
        return (
            self.name == other.name
            and self._nodes == other._nodes
            and self._edges == other._edges
        )

    def __repr__(self) -> str:
        return (
            f"Network({self.name!r}, {len(self._nodes)} nodes, "
            f"{len(self._edges)} edges)"
        )

    # -- derived structure ----------------------------------------------------

    def topological_order(self) -> tuple[str, ...]:
        """Node ids sorted topologically, ties broken by ascending id.

        Raises ValidationError if the edge relation has a cycle.
        """
        if self._topo is None:
            raise ValidationError("network contains a cycle", self.violations())
        return self._topo

    @cached_property
    def compiled(self) -> "CompiledNetwork":
        """The network's noisy-OR semantics as flat rows, built once.

        Only valid networks compile: callers check :meth:`require_valid`
        first. Raises ValidationError if the edge relation has a cycle.
        """
        order = self.topological_order()
        index = {nid: i for i, nid in enumerate(order)}
        rows = []
        for nid in order:
            node = self._nodes[nid]
            if node.kind is NodeKind.DISEASE:
                rows.append((True, float(node.prior), ()))
            else:
                parents = tuple((index[pid], 1.0 - eta) for pid, eta in self._parents[nid])
                rows.append((False, 1.0 - node.leak, parents))
        return CompiledNetwork(order, index, tuple(rows))

    @cached_property
    def _topo(self) -> tuple[str, ...] | None:
        """The topological order, or None if the edge relation has a cycle."""
        indegree = {nid: len(self._parents[nid]) for nid in self._nodes}
        ready = [nid for nid, deg in indegree.items() if deg == 0]
        heapq.heapify(ready)
        order: list[str] = []
        while ready:
            nid = heapq.heappop(ready)
            order.append(nid)
            for child in self._children[nid]:
                indegree[child] -= 1
                if indegree[child] == 0:
                    heapq.heappush(ready, child)
        if len(order) != len(self._nodes):
            return None
        return tuple(order)

    def require_valid(self) -> "Network":
        """Raise ValidationError unless the network is structurally valid."""
        violations = self.violations()
        if violations:
            raise ValidationError(
                f"network {self.name!r} has {len(violations)} violation(s): "
                + "; ".join(str(v) for v in violations[:3]),
                violations,
            )
        return self

    def violations(self) -> tuple[Violation, ...]:
        return self._violations

    @cached_property
    def _violations(self) -> tuple[Violation, ...]:
        return tuple(validate(self))


class CompiledNetwork(NamedTuple):
    """A network's leaky noisy-OR semantics, flattened for evaluation.

    ``order`` holds the node ids in topological order (ascending-id tie
    break) and ``index`` maps each id to its position there, its row.
    ``rows[i]`` is ``(is_disease, base, parents)`` for node ``order[i]``:
    ``base`` is the prior of a disease and ``1 - leak`` of any other node,
    and ``parents`` holds ``(row, 1 - eta)`` pairs in ascending parent-id
    order, every parent row before its child's. Sampling, ``joint_prob``,
    enumeration and factor building all evaluate rows through
    :func:`row_prob`, so they multiply the same doubles in the same order
    and agree bit for bit.
    """

    order: tuple[str, ...]
    index: dict[str, int]
    rows: tuple[tuple[bool, float, tuple[tuple[int, float], ...]], ...]


def row_prob(row: tuple, state: Sequence) -> float:
    """P(node present) for one :class:`CompiledNetwork` row, given
    ``state`` indexed by row, whose entries for the row's parents are set
    (truthy means present). A disease returns its prior as is."""
    is_disease, base, parents = row
    if is_disease:
        return base
    for j, one_minus_eta in parents:
        if state[j]:
            base *= one_minus_eta
    return 1.0 - base


def validate(net: Network) -> list[Violation]:
    """Check every structural invariant; an empty list means valid.

    Violations are data, not exceptions: each names the offending node or
    edge and the rule it breaks. The :func:`local_violations` of every node
    come first, then each edge's and its level ordering, then ``dag``.
    """
    out: list[Violation] = []
    for node in net.nodes:
        out.extend(local_violations(node))
    for edge in net.edges:
        out.extend(local_violations(edge))
        src_kind = net.node(edge.src).kind
        dst_kind = net.node(edge.dst).kind
        if (src_kind, dst_kind) not in _LEGAL_ARCS:
            out.append(
                Violation(
                    "level-ordering",
                    f"{edge.src}->{edge.dst}",
                    f"{src_kind.value} may not feed {dst_kind.value}",
                )
            )
    if net._topo is None:
        out.append(Violation("dag", net.name, "edge relation contains a cycle"))
    return out


# Characters an id may not hold: the file format splits on whitespace, the
# CSV outputs on ',', --evidence on '=' and provenance paths on '>'.
_BAD_ID_CHAR = re.compile(r"[\s,=>]")


def local_violations(item: Node | Edge) -> list[Violation]:
    """The rules that one node or edge must meet on its own, in order.

    :func:`validate` applies them over a whole network, and the network
    file parser to each line, where the first one broken is the error.
    """
    if isinstance(item, Edge):
        if 0.0 < item.eta <= 1.0:
            return []
        message = f"eta out of range: {item.eta} outside (0, 1]"
        return [Violation("eta-range", f"{item.src}->{item.dst}", message)]
    nid, kind, leak, prior, phase = item.id, item.kind, item.leak, item.prior, item.phase
    out: list[Violation] = []
    if not nid or _BAD_ID_CHAR.search(nid):
        message = f"node id {nid!r} must be nonempty without whitespace, ',', '=' or '>'"
        out.append(Violation("node-id", repr(nid), message))
    if not 0.0 <= leak <= 1.0:
        out.append(Violation("leak-range", nid, f"leak out of range: {leak} outside [0, 1]"))
    if kind is NodeKind.DISEASE:
        if leak != 0.0:
            out.append(Violation("disease-leak", nid, f"disease leak must be 0, not {leak}"))
        if prior is None:
            out.append(Violation("prior-missing", nid, "disease node missing prior"))
        elif not 0.0 <= prior <= 1.0:
            message = f"prior out of range: {prior} outside [0, 1]"
            out.append(Violation("prior-range", nid, message))
    elif prior is not None:
        out.append(Violation("prior-unexpected", nid, f"{kind.value} node takes no prior"))
    if kind is NodeKind.FINDING:
        if phase is None:
            out.append(Violation("phase-missing", nid, "finding node missing phase"))
        elif phase not in PHASES:
            out.append(Violation("phase-range", nid, f"phase out of range: {phase} outside 1..5"))
    elif phase is not None:
        out.append(Violation("phase-unexpected", nid, f"{kind.value} node takes no phase"))
    return out


def check_prob(name: str, value: float) -> None:
    """Raise ``DomainError`` unless ``value`` is a probability in [0, 1]."""
    if not 0.0 <= value <= 1.0:
        raise DomainError(f"{name} {value} outside [0, 1]")


def noisy_or_prob(leak: float, present_etas: Iterable[float]) -> float:
    """Probability the effect is present given leak and the etas of its
    present causes: 1 - (1 - leak) * prod(1 - eta).

    With no present causes this is just the leak.
    """
    check_prob("leak", leak)
    all_fail = 1.0
    for eta in present_etas:
        check_prob("eta", eta)
        all_fail *= 1.0 - eta
    if all_fail == 1.0:
        return leak
    return 1.0 - (1.0 - leak) * all_fail


def local_cpd(net: Network, node_id: str, parent_assignment: Mapping) -> float:
    """P(node present | parent values).

    Diseases are roots, so they simply return their prior; other nodes
    apply the leaky noisy-OR over the parents marked present. Every
    parent must be assigned; absent parents contribute nothing.
    """
    node = net.node(node_id)
    if node.kind is NodeKind.DISEASE:
        return float(node.prior)
    present = []
    for pid, eta in net.parents_of(node_id):
        if pid not in parent_assignment:
            raise IncompleteAssignmentError(
                f"parent {pid!r} of {node_id!r} has no assigned value"
            )
        if parent_assignment[pid]:
            present.append(eta)
    return noisy_or_prob(node.leak, present)
