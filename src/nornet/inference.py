"""Exact posterior computation.

Two independent engines answer every query:

* ``enumeration`` — depth-first summation over all unobserved-node states,
  sharing prefix products along the topological order, the faster engine
  for few unobserved nodes.
* ``elimination`` — variable elimination over dense binary factors with a
  min-degree ordering, the faster engine once more than about nine nodes
  are unobserved.

Neither is the other's reference: the tests check both against a
brute-force oracle that sums every complete world and shares no
inference code with the package.

Both engines first drop barren leaves (nodes with no observed or queried
descendants); marginalizing such a node multiplies the joint by exactly 1,
so the answers are unchanged while partial-evidence queries stay feasible.
The ``auto`` method enumerates whenever the pruned unobserved count is at
most ``DEFAULT_ENUMERATION_THRESHOLD`` (9, about where the two engines
cost the same) and eliminates otherwise. Elimination builds full tables
only for nodes with at most ``DEFAULT_MAX_FACTOR_PARENTS`` parents, so when
a kept node has more, ``auto`` enumerates up to 20 unobserved nodes and
above that eliminates, which raises the cap's :class:`DomainError`.

An elimination pass is a symbolic plan, keyed by the kept nodes and the
fixed ids (factor scopes, min-degree order, index maps), run numerically
over node tables keyed by the node and its fixed family values. Both live
in an :class:`_Elimination` cache that one call owns: a standalone
posterior shares it across its 1 + |diseases| passes, and
``run_experiment`` shares one per network across its cases. Nothing
outlives the call that made it.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass

from .errors import DomainError, EvidenceError, IncompleteAssignmentError
from .factors import min_degree_order, sum_product_maps, sum_product_values
from .model import Network, NodeKind, row_prob

DEFAULT_ENUMERATION_THRESHOLD = 9
DEFAULT_MAX_FACTOR_PARENTS = 12
# How far ``auto`` enumerates when a kept node is past the parent cap, which
# elimination cannot take. It goes when factorized noisy-OR deletes the cap.
_WIDE_ENUMERATION_LIMIT = 20


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


def _normalize_assignment(
    net: Network, assignment: Mapping, findings_only: bool = False
) -> dict[str, bool]:
    fixed = {}
    for nid, value in dict(assignment).items():
        node = net.node(nid)
        if findings_only and node.kind is not NodeKind.FINDING:
            raise DomainError(f"evidence node {nid!r} is not a finding")
        fixed[nid] = bool(value)
    return fixed


def _prune_barren(net: Network, needed: set[str]) -> tuple[str, ...]:
    """Kept node ids in topological order: a node survives iff it is needed
    or some child of it survives."""
    order = net.topological_order()
    kept: set[str] = set()
    for nid in reversed(order):
        if nid in needed or not kept.isdisjoint(net.children_of(nid)):
            kept.add(nid)
    return tuple(nid for nid in order if nid in kept)


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


class _Elimination:
    """Reusable elimination work for one network, held by whoever makes it
    and dropped with it; nothing is stored on the network or the module.

    ``plans`` maps (kept order, fixed-id set) to the symbolic part of a
    pass: per kept node its fixed family ids and table scope, and per
    elimination step the factor slots it sums and their index maps.
    ``tables`` maps (node, fixed family ids, their values) to that node's
    table: under noisy-OR it depends on nothing else, so every query that
    fixes the same family members to the same values shares it. The ids
    belong in the key: a finding with parents ``d1`` and ``d2`` fixes
    (``d1``, itself) in one disease pass and (``d2``, itself) in another."""

    def __init__(self):
        self.plans = {}
        self.tables = {}


def _node_factor(compiled, nid, scope, held):
    """The table of P(nid | parents) over ``scope``, its unfixed family,
    with the rest of the family held at the ``(id, value)`` pairs of
    ``held``."""
    state = [False] * len(compiled.rows)
    for v, value in held:
        state[compiled.index[v]] = value
    i = compiled.index[nid]
    row = compiled.rows[i]
    scope_rows = [compiled.index[v] for v in scope]
    values = [0.0] * (1 << len(scope))
    for idx in range(len(values)):
        for bit, j in enumerate(scope_rows):
            state[j] = (idx >> bit) & 1
        p = row_prob(row, state)
        values[idx] = p if state[i] else 1.0 - p
    return values


def _plan(compiled, kept_order, fixed):
    """The symbolic part of one elimination pass: ``(nodes, steps, final)``.
    Factor slots number the node tables in kept order, then each step's
    output. A step sums the slots that mention its variable, in factor-list
    order, and its output joins the end of the list; ``final`` holds the
    slots left, whose single entries multiply to the likelihood."""
    nodes, scopes = [], []
    for nid in kept_order:
        parents = compiled.rows[compiled.index[nid]][2]
        if len(parents) > DEFAULT_MAX_FACTOR_PARENTS:
            raise DomainError(
                f"node {nid!r} has {len(parents)} parents; elimination materializes "
                f"full tables only up to {DEFAULT_MAX_FACTOR_PARENTS} parents"
            )
        family = [nid] + [compiled.order[j] for j, _ in parents]
        scope = tuple(sorted(v for v in family if v not in fixed))
        nodes.append((nid, tuple(v for v in family if v in fixed), scope))
        scopes.append(scope)
    hidden = sorted(nid for nid in kept_order if nid not in fixed)
    live = list(range(len(scopes)))
    steps = []
    for var in min_degree_order(hidden, scopes):
        related = [k for k in live if var in scopes[k]]
        live = [k for k in live if var not in scopes[k]]
        scope, maps = sum_product_maps([scopes[k] for k in related], var)
        live.append(len(scopes))
        scopes.append(scope)
        steps.append((related, maps))
    return nodes, steps, live


def _ve_likelihood(net, kept_order, fixed, cache):
    compiled = net.compiled
    key = (kept_order, frozenset(fixed))
    plan = cache.plans.get(key)
    if plan is None:
        plan = cache.plans[key] = _plan(compiled, kept_order, fixed)
    nodes, steps, final = plan
    tables = []
    for nid, ids, scope in nodes:
        held = tuple([fixed[v] for v in ids])
        table = cache.tables.get((nid, ids, held))
        if table is None:
            table = _node_factor(compiled, nid, scope, zip(ids, held))
            cache.tables[nid, ids, held] = table
        tables.append(table)
    for related, maps in steps:
        tables.append(sum_product_values(maps, [tables[k] for k in related]))
    result = 1.0
    for k in final:
        result *= tables[k][0]
    return result


# -- shared dispatch ------------------------------------------------------------


def _query(net, fixed, track, method, cache):
    """P(fixed assignment) and, per tracked node, P(node present AND fixed).
    No tracked node is fixed: posteriors fix findings and track diseases.
    Elimination passes reuse and fill ``cache``, an :class:`_Elimination`
    for ``net``."""
    net.require_valid()
    kept = _prune_barren(net, set(fixed) | set(track))
    unobserved = len(kept) - len(fixed)
    if method == "auto":
        # the parent counts matter only where elimination would run
        rows, index = net.compiled.rows, net.compiled.index
        limit = DEFAULT_ENUMERATION_THRESHOLD
        if limit < unobserved <= _WIDE_ENUMERATION_LIMIT and any(
            len(rows[index[nid]][2]) > DEFAULT_MAX_FACTOR_PARENTS for nid in kept
        ):
            limit = _WIDE_ENUMERATION_LIMIT
        method = "enumeration" if unobserved <= limit else "elimination"
    if method == "enumeration":
        return _enum_query(net, kept, fixed, track)
    if method == "elimination":
        total = _ve_likelihood(net, kept, fixed, cache)
        masses = {t: _ve_likelihood(net, kept, {**fixed, t: True}, cache) for t in track}
        return total, masses
    raise DomainError(f"unknown inference method {method!r}")


def event_prob(net: Network, assignment: Mapping, *, method: str = "auto") -> float:
    """Probability of a partial assignment over any subset of nodes."""
    fixed = _normalize_assignment(net, assignment)
    total, _ = _query(net, fixed, (), method, _Elimination())
    return total


def marginal(net: Network, node_id: str, *, method: str = "auto") -> float:
    """Exact P(node present) with no evidence."""
    return _clamp01(event_prob(net, {node_id: True}, method=method))


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
    return _posterior(net, evidence, conjunction, method, _Elimination())


def _posterior(net, evidence, conjunction, method, cache):
    """:func:`posterior`, with elimination passes reusing ``cache``, an
    :class:`_Elimination` for ``net``."""
    fixed = _normalize_assignment(net, evidence, findings_only=True)
    diseases = tuple(n.id for n in net.nodes_of_kind(NodeKind.DISEASE))
    total, masses = _query(net, fixed, diseases, method, cache)
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
        conj_fixed = {**fixed, **dict.fromkeys(conj, True)}
        conj_total, _ = _query(net, conj_fixed, (), method, cache)
        conj_value = _clamp01(conj_total / total)
    return PosteriorResult(posteriors, total, conj_value)


def _clamp01(x: float) -> float:
    return 0.0 if x < 0.0 else 1.0 if x > 1.0 else x
