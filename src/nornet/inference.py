"""Exact posterior computation.

Two independent engines answer every query:

* ``enumeration`` — depth-first summation over all unobserved-node states,
  sharing prefix products along the topological order. This is the
  reference implementation everything else is checked against.
* ``elimination`` — variable elimination over dense binary factors with a
  min-degree ordering, for networks whose unobserved core is too large to
  enumerate.

Both engines first drop barren leaves (nodes with no observed or queried
descendants); marginalizing such a node multiplies the joint by exactly 1,
so the answers are unchanged while partial-evidence queries stay feasible.
The ``auto`` method enumerates whenever the pruned unobserved count is at
most ``DEFAULT_ENUMERATION_THRESHOLD`` and eliminates otherwise. Elimination
builds full tables only for nodes with at most ``DEFAULT_MAX_FACTOR_PARENTS``
parents.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass

from .errors import DomainError, EvidenceError, IncompleteAssignmentError
from .factors import Factor, min_degree_order, sum_product
from .model import Network, NodeKind, row_prob

DEFAULT_ENUMERATION_THRESHOLD = 20
DEFAULT_MAX_FACTOR_PARENTS = 12


@dataclass(frozen=True)
class PosteriorResult:
    """Per-disease posteriors plus the evidence probability they were
    normalized by. ``conjunction`` is filled only when a joint all-present
    query was requested."""

    posteriors: dict[str, float]
    evidence_likelihood: float
    conjunction: float | None = None


def joint_prob(net: Network, full_assignment: Mapping) -> float:
    """Probability of one complete world (every node assigned)."""
    net.require_valid()
    missing = [nid for nid in net.node_ids if nid not in full_assignment]
    if missing:
        raise IncompleteAssignmentError(
            f"assignment misses {len(missing)} node(s), e.g. {missing[0]!r}"
        )
    for nid in full_assignment:
        net.node(nid)
    compiled = net.compiled
    state = [full_assignment[nid] for nid in compiled.order]
    prob = 1.0
    for row, value in zip(compiled.rows, state):
        p = row_prob(row, state)
        prob *= p if value else 1.0 - p
    return prob


def _normalize_assignment(net: Network, assignment: Mapping) -> dict[str, bool]:
    fixed = {}
    for nid, value in dict(assignment).items():
        net.node(nid)
        fixed[nid] = bool(value)
    return fixed


def _prune_barren(net: Network, needed: set[str]) -> list[str]:
    """Kept node ids in topological order: a node survives iff it is needed
    or some child of it survives."""
    order = net.topological_order()
    kept: set[str] = set()
    for nid in reversed(order):
        if nid in needed or any(c in kept for c in net.children_of(nid)):
            kept.add(nid)
    return [nid for nid in order if nid in kept]


# -- enumeration engine -------------------------------------------------------


def _enum_query(net, kept_order, fixed, track):
    """Depth-first over the kept rows only. The state spans every row, but
    rows outside ``kept_order`` are never read: barren pruning keeps every
    ancestor of a kept node."""
    index, rows = net.compiled.index, net.compiled.rows
    steps = [(index[nid], fixed.get(nid)) for nid in kept_order]
    n = len(steps)
    track_rows = [index[t] for t in track]
    state = [False] * len(rows)
    total = 0.0
    masses = [0.0] * len(track_rows)

    def rec(k: int, w: float):
        nonlocal total
        if k == n:
            total += w
            for m, i in enumerate(track_rows):
                if state[i]:
                    masses[m] += w
            return
        i, fval = steps[k]
        p = row_prob(rows[i], state)
        if fval is None:
            if p > 0.0:
                state[i] = True
                rec(k + 1, w * p)
            if p < 1.0:
                state[i] = False
                rec(k + 1, w * (1.0 - p))
        else:
            state[i] = fval
            nw = w * (p if fval else 1.0 - p)
            if nw != 0.0:
                rec(k + 1, nw)

    rec(0, 1.0)
    return total, dict(zip(track, masses))


# -- variable elimination engine ----------------------------------------------


def _node_factor(compiled, nid, fixed, state):
    """The table of P(nid | parents) over its unfixed family. ``state`` is
    indexed by row and already holds every fixed value; the scope rows are
    overwritten cell by cell."""
    i = compiled.index[nid]
    row = compiled.rows[i]
    parents = row[2]
    if len(parents) > DEFAULT_MAX_FACTOR_PARENTS:
        raise DomainError(
            f"node {nid!r} has {len(parents)} parents; elimination materializes "
            f"full tables only up to {DEFAULT_MAX_FACTOR_PARENTS} parents"
        )
    family = [nid] + [compiled.order[j] for j, _ in parents]
    scope = tuple(sorted(v for v in family if v not in fixed))
    scope_rows = [compiled.index[v] for v in scope]
    values = [0.0] * (1 << len(scope))
    for idx in range(len(values)):
        for bit, j in enumerate(scope_rows):
            state[j] = (idx >> bit) & 1
        p = row_prob(row, state)
        values[idx] = p if state[i] else 1.0 - p
    return Factor(scope, values)


def _ve_likelihood(net, kept_order, fixed):
    compiled = net.compiled
    state = [False] * len(compiled.rows)
    for nid, value in fixed.items():
        state[compiled.index[nid]] = value
    factors = [_node_factor(compiled, nid, fixed, state) for nid in kept_order]
    hidden = sorted(nid for nid in kept_order if nid not in fixed)
    for var in min_degree_order(hidden, [f.scope for f in factors]):
        related = [f for f in factors if var in f.scope]
        factors = [f for f in factors if var not in f.scope]
        factors.append(sum_product(related, var))
    result = 1.0
    for f in factors:
        result *= f.values[0]
    return result


# -- shared dispatch ------------------------------------------------------------


def _query(net, fixed, track, method):
    """P(fixed assignment) and, per tracked node, P(node present AND fixed).
    No tracked node is fixed: posteriors fix findings and track diseases."""
    net.require_valid()
    kept = _prune_barren(net, set(fixed) | set(track))
    unobserved = len(kept) - len(fixed)
    if method == "auto":
        method = "enumeration" if unobserved <= DEFAULT_ENUMERATION_THRESHOLD else "elimination"
    if method == "enumeration":
        return _enum_query(net, kept, fixed, track)
    if method == "elimination":
        total = _ve_likelihood(net, kept, fixed)
        masses = {t: _ve_likelihood(net, kept, {**fixed, t: True}) for t in track}
        return total, masses
    raise DomainError(f"unknown inference method {method!r}")


def event_prob(net: Network, assignment: Mapping, *, method: str = "auto") -> float:
    """Probability of a partial assignment over any subset of nodes."""
    fixed = _normalize_assignment(net, assignment)
    total, _ = _query(net, fixed, (), method)
    return total


def marginal(net: Network, node_id: str, *, method: str = "auto") -> float:
    """Exact P(node present) with no evidence."""
    net.node(node_id)
    total, masses = _query(net, {}, (node_id,), method)
    return _clamp01(masses[node_id] / total)


def posterior(
    net: Network,
    evidence: Mapping,
    *,
    conjunction: Iterable[str] | None = None,
    method: str = "auto",
) -> PosteriorResult:
    """Exact P(disease present | evidence) for every disease.

    Evidence may assign finding nodes only. With ``conjunction`` set, the
    result also carries P(all listed nodes present | evidence).
    """
    fixed = _normalize_assignment(net, evidence)
    for nid in fixed:
        if net.node(nid).kind is not NodeKind.FINDING:
            raise DomainError(f"evidence node {nid!r} is not a finding")
    diseases = tuple(n.id for n in net.nodes_of_kind(NodeKind.DISEASE))
    total, masses = _query(net, fixed, diseases, method)
    if total <= 0.0:
        raise EvidenceError("evidence has zero probability under this network")
    posteriors = {d: _clamp01(masses[d] / total) for d in diseases}
    conj_value = None
    if conjunction is not None:
        conj = sorted(set(conjunction))
        for nid in conj:
            net.node(nid)
            if nid in fixed and not fixed[nid]:
                raise DomainError(f"conjunction node {nid!r} is observed absent")
        conj_fixed = dict(fixed)
        conj_fixed.update({nid: True for nid in conj})
        conj_total, _ = _query(net, conj_fixed, (), method)
        conj_value = _clamp01(conj_total / total)
    return PosteriorResult(posteriors, total, conj_value)


def _clamp01(x: float) -> float:
    return 0.0 if x < 0.0 else 1.0 if x > 1.0 else x
