"""Network data model and leaky noisy-OR local semantics.

A :class:`Network` is a leveled DAG of binary nodes: disease roots with
priors, hidden intermediate (IPS) nodes, and observable finding leaves.
Every non-root node combines its parents through a leaky noisy-OR: each
incoming edge carries an activation probability, and the node's leak is
the probability it turns on with every modeled parent absent.

Networks are immutable after construction, so they can be shared freely
across threads and worker processes. Worlds and evidence are plain
``dict[str, bool]`` maps of node id to present (True) / absent (False);
every function that returns one builds a new dict per call.
"""

from __future__ import annotations

import enum
import heapq
import math
import re
from collections.abc import Iterable, KeysView, Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
from typing import NamedTuple

from .errors import DomainError, IncompleteAssignmentError, ValidationError
from .rng import SplitMix64


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


# Characters an id may not hold: the file format splits on whitespace, the
# CSV outputs on ',', --evidence on '=' and provenance paths on '>'.
_BAD_ID_CHAR = re.compile(r"[\s,=>]")


@dataclass(frozen=True)
class Violation:
    """One violated invariant, tied to the node or edge that breaks it."""

    code: str
    subject: str
    message: str

    def __str__(self) -> str:
        return f"{self.code} [{self.subject}]: {self.message}"


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
    # the rules this node breaks on its own, in order, found once as it is made
    violations: tuple[Violation, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        nid, kind, leak, prior, phase = self.id, self.kind, self.leak, self.prior, self.phase
        if not isinstance(nid, str):
            raise DomainError(f"node id {nid!r} is not a str")
        if not isinstance(kind, NodeKind):
            raise DomainError(f"node {nid!r}: kind {kind!r} is not a NodeKind")
        out: list[Violation] = []
        if not nid or _BAD_ID_CHAR.search(nid):
            message = f"node id {nid!r} must be nonempty without whitespace, ',', '=' or '>'"
            out.append(Violation("node-id", repr(nid), message))
        try:
            if not 0.0 <= leak <= 1.0:
                message = f"leak out of range: {leak} outside [0, 1]"
                out.append(Violation("leak-range", nid, message))
        except TypeError:
            raise DomainError(f"node {nid!r}: leak {leak!r} is not a number") from None
        if kind is NodeKind.DISEASE:
            if leak != 0.0:
                out.append(Violation("disease-leak", nid, f"disease leak must be 0, not {leak}"))
            try:
                if prior is None:
                    out.append(Violation("prior-missing", nid, "disease node missing prior"))
                elif not 0.0 <= prior <= 1.0:
                    message = f"prior out of range: {prior} outside [0, 1]"
                    out.append(Violation("prior-range", nid, message))
            except TypeError:
                raise DomainError(f"node {nid!r}: prior {prior!r} is not a number") from None
        elif prior is not None:
            out.append(Violation("prior-unexpected", nid, f"{kind.value} node takes no prior"))
        if kind is NodeKind.FINDING:
            if phase is None:
                out.append(Violation("phase-missing", nid, "finding node missing phase"))
            elif phase not in PHASES:
                message = f"phase out of range: {phase!r} outside 1..5"
                out.append(Violation("phase-range", nid, message))
        elif phase is not None:
            out.append(Violation("phase-unexpected", nid, f"{kind.value} node takes no phase"))
        object.__setattr__(self, "violations", tuple(out))


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
    # the one rule an edge can break on its own, eta in (0, 1], found the same way
    violations: tuple[Violation, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        broken = ()
        try:
            if not 0.0 < self.eta <= 1.0:
                message = f"eta out of range: {self.eta} outside (0, 1]"
                broken = (Violation("eta-range", f"{self.src}->{self.dst}", message),)
        except TypeError:
            message = f"edge {self.src}->{self.dst}: eta {self.eta!r} is not a number"
            raise DomainError(message) from None
        object.__setattr__(self, "violations", broken)


class Network:
    """Immutable leveled DAG with leaky noisy-OR semantics.

    The constructor rejects structures it cannot even index (duplicate
    ids, duplicate edges, edges naming unknown nodes). Everything else —
    ranges, level ordering, acyclicity — is reported by :func:`validate`
    rather than raised, so invalid networks can be inspected; the
    evaluators refuse them through :attr:`compiled`, which they all read.
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
        self._parents = {nid: tuple(sorted(ps)) for nid, ps in parents.items()}
        self._children = {nid: tuple(sorted(cs)) for nid, cs in children.items()}

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
        return self._parents[node_id]

    def children_of(self, node_id: str) -> tuple[str, ...]:
        return self._children[node_id]

    def nodes_of_kind(self, kind: NodeKind) -> tuple[Node, ...]:
        return tuple(self._kinds[kind].values())

    def ids_of_kind(self, kind: NodeKind) -> KeysView[str]:
        """The ids of ``kind``'s nodes, ascending, as a set-like view."""
        return self._kinds[kind].keys()

    @cached_property
    def _kinds(self) -> dict[NodeKind, dict[str, Node]]:
        """Per kind, its nodes by id in ascending id order."""
        return {kind: {n.id: n for n in self.nodes if n.kind is kind} for kind in NodeKind}

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

        It is the evaluators' one validity gate and one topological order.
        Only valid networks compile: this runs :meth:`require_valid` first,
        so it raises its ValidationError on an invalid network.
        """
        order = self.require_valid()._topo
        index = {nid: i for i, nid in enumerate(order)}
        rows = []
        for nid in order:
            node = self._nodes[nid]
            if node.kind is NodeKind.DISEASE:
                rows.append((True, float(node.prior), ()))
            else:
                parents = tuple([(index[pid], 1.0 - eta) for pid, eta in self._parents[nid]])
                base = 1.0 - node.leak
                # a leak or an eta x > 0 with 1 - x == 1.0; every eta is positive
                tiny = (base == 1.0 and node.leak > 0.0) or 1.0 in map(itemgetter(1), parents)
                head = (node.leak, *[eta for _, eta in self._parents[nid]]) if tiny else False
                rows.append((head, base, parents))
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
    ``rows[i]`` is ``(head, base, parents)`` for node ``order[i]``:
    ``base`` is the prior of a disease and ``1 - leak`` of any other node,
    and ``parents`` holds ``(row, 1 - eta)`` pairs in ascending parent-id
    order, every parent row before its child's. ``head`` is True for a
    disease and False for any other node, unless its leak or an eta is an
    x > 0 with ``1 - x == 1.0``: then it holds ``(leak, *etas)``, in the
    order of ``parents``, for :func:`row_prob`'s accurate present side.
    Only :func:`row_prob`, one node in one state, and :meth:`table`, all of
    a node's cells, read a row, so every evaluator agrees bit for bit.
    """

    order: tuple[str, ...]
    index: dict[str, int]
    rows: tuple[tuple[bool | tuple[float, ...], float, tuple[tuple[int, float], ...]], ...]

    def table(self, nid: str, scope: Sequence[str], held: Mapping) -> list[float]:
        """P(nid | parents) over ``scope``, the unfixed part of its family
        (its parents in row order, then itself), the rest held at their
        values in ``held``, which may map other ids too. One pass over the
        parents forms :func:`row_prob`'s product for every cell, nid's bit
        on top. Where either side of a cell is 0.0, both come from
        :func:`row_prob`, whose accurate p moves the absent side too."""
        head, base, parents = row = self.rows[self.index[nid]]
        cells = [base]
        for j, one_minus_eta in parents:
            pid = self.order[j]
            if pid in scope:
                cells += [c * one_minus_eta for c in cells]
            elif held.get(pid, False):
                cells = [c * one_minus_eta for c in cells]
        present = cells if head is True else [1.0 - c for c in cells]
        absent = [1.0 - p for p in present]
        if (head and 0.0 in present) or 0.0 in absent:
            state = {j: held.get(self.order[j], False) for j, _ in parents}
            free = [j for j, _ in parents if self.order[j] in scope]
            for k in [k for k, (p, q) in enumerate(zip(present, absent)) if p == 0.0 or q == 0.0]:
                for bit, j in enumerate(free):
                    state[j] = (k >> bit) & 1
                present[k] = row_prob(row, state)
                absent[k] = row_prob(row, state, False)
        if nid in scope:
            return absent + present
        return present if held.get(nid, False) else absent


def row_prob(row: tuple, state: Sequence | Mapping, value=True) -> float:
    """P(node = ``value``) for one :class:`CompiledNetwork` row, given
    ``state`` indexed by row, whose entries for the row's parents are set
    (truthy means present). A disease returns its prior or 1 - prior. Any
    other node forms c = (1 - leak) * prod(1 - eta) over its present
    parents and is present with p = 1 - c, except where p cancels to 0.0
    while a present parent or the leak makes the exact value positive:
    only a row whose ``head`` holds its leak and etas can, and p is then
    :func:`one_minus_prod` of those. It is absent with 1 - p, or with c
    where that cancels to 0.0. This is the one place that decides it."""
    head, base, parents = row
    if head is True:
        return base if value else 1.0 - base
    for j, one_minus_eta in parents:
        if state[j]:
            base *= one_minus_eta
    p = 1.0 - base
    if head and p == 0.0:
        # a comprehension here would make ``state`` a cell, slowing every call
        xs = [head[0]]
        for (j, _), eta in zip(parents, head[1:]):
            if state[j]:
                xs.append(eta)
        p = one_minus_prod(xs)
    return p if value else 1.0 - p or base


def joint_prob(net: Network, full_assignment: Mapping) -> float:
    """Probability of one complete world (every node assigned)."""
    compiled = net.compiled
    missing = [nid for nid in net.node_ids if nid not in full_assignment]
    if missing:
        raise IncompleteAssignmentError(
            f"assignment misses {len(missing)} node(s), e.g. {missing[0]!r}"
        )
    for nid in full_assignment:
        net.node(nid)
    state = [full_assignment[nid] for nid in compiled.order]
    return math.prod([row_prob(row, state, v) for row, v in zip(compiled.rows, state)], start=1.0)


def sample_world(net: Network, seed: int) -> dict[str, bool]:
    """One complete world by ancestral sampling: each node, in canonical
    topological order, takes exactly one draw from a ``SplitMix64(seed)``
    stream and is present if it falls below :func:`row_prob`, so a
    (network, seed) pair always gives the same new dict of node states."""
    compiled = net.compiled
    next_float = SplitMix64(seed).next_float
    states = [False] * len(compiled.rows)
    for i, row in enumerate(compiled.rows):
        states[i] = next_float() < row_prob(row, states)
    return dict(zip(compiled.order, states))


def validate(net: Network) -> list[Violation]:
    """Check every structural invariant; an empty list means valid.

    Violations are data, not exceptions: each names the offending node or
    edge and the rule it breaks. The ``violations`` of every node come
    first, then each edge's and its level ordering, then ``dag``.
    """
    out: list[Violation] = []
    for node in net.nodes:
        out.extend(node.violations)
    for edge in net.edges:
        out.extend(edge.violations)
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


def check_prob(name: str, value: float) -> None:
    """Raise ``DomainError`` unless ``value`` is a probability in [0, 1]."""
    try:
        if not 0.0 <= value <= 1.0:
            raise DomainError(f"{name} {value} outside [0, 1]")
    except TypeError:
        raise DomainError(f"{name} {value!r} is not a number") from None


def one_minus_prod(xs: Iterable[float]) -> float:
    """1 - prod(1 - x) as -expm1(sum(log1p(-x))), which keeps the digits
    that the plain form cancels away when every x is small. The leading
    ``0.0 -`` keeps an all-zero result positive."""
    logs = sum(math.log1p(-x) if x < 1.0 else -math.inf for x in xs)
    return 0.0 - math.expm1(logs)
