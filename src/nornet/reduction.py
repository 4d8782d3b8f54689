"""Approximate elimination of intermediate nodes.

Removing an intermediate node rewires each predecessor to each successor
with the product of the two activation probabilities on the path, merges
parallel routes between the same pair with an OR-combination, and folds
the eliminated node's leak into every successor's leak. Applied to every
intermediate node this collapses a layered network onto diseases and
findings only. The transform ignores the correlations introduced when one
original edge fans out into several composed edges, which is exactly the
approximation the analysis module quantifies.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import DomainError
from .model import Edge, Network, NodeKind, check_prob, one_minus_prod


def compose_serial(p: float, q: float) -> float:
    """Activation probability of a two-edge path collapsed to one edge."""
    check_prob("p", p)
    check_prob("q", q)
    return p * q


def merge_parallel(composed: list[float]) -> float:
    """OR-combination of already-composed parallel path probabilities.
    Where the plain 1 - prod(1 - x) cancels to 0.0, :func:`one_minus_prod`
    keeps the tiny sum, so positive paths never merge to eta 0."""
    if not composed:
        raise DomainError("merge_parallel needs at least one path probability")
    acc = 1.0
    for value in composed:
        check_prob("path probability", value)
        acc *= 1.0 - value
    return 1.0 - acc if acc != 1.0 else one_minus_prod(composed)


def absorb_leak(rho_b: float, q: float, rho_c: float) -> float:
    """Fold an eliminated node's leak through its outgoing edge into the
    successor's leak: the upstream leak first attenuates by q, then
    OR-combines with the successor's own leak, as :func:`merge_parallel`."""
    check_prob("rho_b", rho_b)
    check_prob("q", q)
    check_prob("rho_c", rho_c)
    return merge_parallel([rho_b * q, rho_c])


def eliminate_ips(net: Network, b: str) -> Network:
    """Remove one intermediate node, rewiring predecessors to successors.

    For every predecessor P (edge eta p) and successor S (edge eta q) a
    composed edge P->S with eta p*q is added, OR-merged into any existing
    P->S edge; a new edge whose p*q underflows to 0 is left out, since
    its factor is exactly 1. Each successor's leak absorbs the eliminated
    node's leak exactly once. Nodes with no predecessors or no successors
    are simply removed (leak absorption still applies to any successors).
    """
    node = net.node(b)
    if node.kind is not NodeKind.IPS:
        raise DomainError(f"{b!r} is a {node.kind.value} node, not an intermediate")
    if net.edge(b, b) is not None:
        raise DomainError(f"{b!r} feeds itself, so it cannot be eliminated")
    state = _Rewiring(net)
    state.eliminate(b)
    return state.network(net.name)


class _Rewiring:
    """A network's nodes and edges, open to in-place elimination.

    ``edges`` maps ``(src, dst)`` to ``(eta, paths)``, where ``paths``
    lists the ``(original path, composed eta)`` pairs the edge stands for;
    ``parents`` and ``children`` index the same edges by node.
    """

    def __init__(self, net: Network):
        self.nodes = {n.id: n for n in net.nodes}
        self.edges = {(e.src, e.dst): (e.eta, [((e.src, e.dst), e.eta)]) for e in net.edges}
        self.parents = {nid: {pid for pid, _ in net.parents_of(nid)} for nid in self.nodes}
        self.children = {nid: set(net.children_of(nid)) for nid in self.nodes}

    def eliminate(self, b: str) -> None:
        """Remove intermediate ``b``: absorb its current leak into every
        successor, then rewire every predecessor to every successor, both
        in ascending id order."""
        rho_b = self.nodes.pop(b).leak
        ins = [(pid, self.edges.pop((pid, b))) for pid in sorted(self.parents.pop(b))]
        outs = [(sid, self.edges.pop((b, sid))) for sid in sorted(self.children.pop(b))]
        for sid, (q, _) in outs:
            self.parents[sid].remove(b)
            node = self.nodes[sid]
            self.nodes[sid] = replace(node, leak=absorb_leak(rho_b, q, node.leak))
        for pid, (p, in_paths) in ins:
            self.children[pid].remove(b)
            for sid, (q, out_paths) in outs:
                composed = compose_serial(p, q)
                paths = [(pp + sp[1:], pe * se) for pp, pe in in_paths for sp, se in out_paths]
                if (pid, sid) in self.edges:
                    eta, merged_paths = self.edges[(pid, sid)]
                    composed, paths = merge_parallel([eta, composed]), merged_paths + paths
                elif composed == 0.0:
                    # p * q underflowed: the edge's factor 1 - 0 is exactly
                    # 1.0, so leaving it out is exact, and eta 0 is invalid
                    continue
                self.edges[(pid, sid)] = (composed, paths)
                self.parents[sid].add(pid)
                self.children[pid].add(sid)

    def network(self, name: str) -> Network:
        edges = [Edge(src, dst, eta) for (src, dst), (eta, _) in sorted(self.edges.items())]
        return Network(name, self.nodes.values(), edges)


@dataclass(frozen=True)
class PathProvenance:
    """Which original paths a reduced edge stands for.

    ``composed_etas[i]`` is the product of activation probabilities along
    ``source_paths[i]``. For an edge untouched by the reduction this is the
    single one-hop path with its original eta.
    """

    reduced_edge: tuple[str, str]
    source_paths: tuple[tuple[str, ...], ...]
    composed_etas: tuple[float, ...]


@dataclass(frozen=True)
class ReductionReport:
    """Outcome of a full reduction: the collapsed network, per-edge
    provenance, activation-parameter counts for both networks, and the
    deterministic order in which intermediates were eliminated."""

    reduced: Network
    provenance: tuple[PathProvenance, ...]
    param_count_original: int
    param_count_reduced: int
    eliminated_ips_order: tuple[str, ...]


def _param_count(net: Network) -> int:
    return len(net.edges) + sum(1 for n in net.nodes if n.leak > 0.0)


def level_reduce(net: Network) -> ReductionReport:
    """Eliminate every intermediate node.

    Intermediates are processed in topological order with ascending-id tie
    break; the order is frozen because parallel-path merging is
    approximate, so different orders can give (slightly) different
    networks. The reduced network keeps the disease and finding nodes,
    priors, and phases of the input untouched; only finding leaks change,
    through leak absorption.
    """
    ips_order = [nid for nid in net.compiled.order if net.node(nid).kind is NodeKind.IPS]
    state = _Rewiring(net)
    for b in ips_order:
        state.eliminate(b)
    reduced = state.network(net.name)
    provenance = []
    for reduced_edge, (_, paths) in sorted(state.edges.items()):
        source_paths, composed_etas = zip(*sorted(paths))
        provenance.append(PathProvenance(reduced_edge, source_paths, composed_etas))
    return ReductionReport(
        reduced=reduced,
        provenance=tuple(provenance),
        param_count_original=_param_count(net),
        param_count_reduced=_param_count(reduced),
        eliminated_ips_order=tuple(ips_order),
    )
