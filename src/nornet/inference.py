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

An elimination pass is a symbolic plan run numerically. The plan is
keyed by the needed ids and the fixed ids: per kept node its entry for
the ids it fixes, by whose values the pass looks up its table, and per
step, in min-degree order, its slots and getters. A query's
1 + |diseases| plans come from one skeleton of its evidence pass; a
disease's pass swaps the entries of the disease and its kept children.
All of this lives in an :class:`_Elimination`, one network's query
engine that one call owns: it holds the network and its disease ids, and
three stores: per needed id set the kept order, plans and answers, so a
repeated query runs no pass; per node its family and entries, shared by
the plans; and per step its getters, shared among the plans that repeat
the step. The answers grow with the distinct queries of the call. A
standalone posterior makes one engine for its 1 + |diseases| passes, and
``run_experiment`` makes one per network for all its cases. Nothing
outlives the call that made it.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from math import prod
from operator import itemgetter

from .errors import DomainError, EvidenceError
from .factors import getter, interaction_graph, min_degree_elimination
from .factors import sum_product_maps, sum_product_values
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


def _normalize_assignment(
    net: Network, assignment: Mapping, findings_only: bool = False
) -> dict[str, bool]:
    """``assignment`` as a new dict of bools. Finding evidence needs one
    check of its ids; otherwise the first bad id in the caller's order raises."""
    assignment = dict(assignment)
    if not (findings_only and assignment.keys() <= net.ids_of_kind(NodeKind.FINDING)):
        for nid, value in assignment.items():
            node = net.node(nid)
            if findings_only and node.kind is not NodeKind.FINDING:
                raise DomainError(f"evidence node {nid!r} is not a finding")
            bool(value)  # a value whose bool() raises before a bad id raises first
    return {nid: bool(value) for nid, value in assignment.items()}


def _prune_barren(net: Network, needed: set[str]) -> tuple[str, ...]:
    """Kept node ids in topological order: a node survives iff it is needed
    or some child of it survives."""
    order = net.compiled.order
    if needed.issuperset(order):
        return order
    kept: set[str] = set()
    add, disjoint, children_of = kept.add, kept.isdisjoint, net.children_of
    for nid in reversed(order):
        if nid in needed or not disjoint(children_of(nid)):
            add(nid)
    return tuple([nid for nid in order if nid in kept])


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
        if fval is None:
            p = row_prob(rows[i], state)
            if p > 0.0:
                state[i] = True
                rec(k + 1, w * p)
            q = row_prob(rows[i], state, False)
            if q > 0.0:
                state[i] = False
                rec(k + 1, w * q)
        else:
            state[i] = fval
            nw = w * row_prob(rows[i], state, fval)
            if nw != 0.0:
                rec(k + 1, nw)

    rec(0, 1.0)
    return total, dict(zip(track, masses))


# -- variable elimination engine ----------------------------------------------


class _Elimination:
    """One network's query engine: ``net``, its disease ids ``diseases``,
    and the elimination work its queries can reuse, held by whoever makes
    it and dropped with it; nothing is stored on the network or the
    module. Its three stores are each keyed by what their work depends on.

    ``shapes`` maps a needed id set to its kept order, its plans keyed by
    fixed-id set (see :func:`_plans`), and the answers given for it so far.
    An answer's key is the fixed values over the kept order, ``None`` where
    a node is not fixed, so it copies neither the evidence nor the id set.

    ``nodes`` maps a node to its family (its parents in row order, then
    itself) and its plan entries ``(read, tables, nid, scope)`` keyed by
    fixed family ids: the getter of the fixed values (a bare value for one
    id, ``()`` for none), the tables keyed by those values, and the unfixed
    family in order, the node's bit on top. Under noisy-OR a table depends
    on nothing else, so every query that fixes the same family members to
    the same values shares it. The ids belong in the key: a finding with
    parents ``d1`` and ``d2`` fixes (``d1``, itself) in one disease pass
    and (``d2``, itself) in another.

    ``steps`` maps a step's (input scopes, variable) to its output scope
    and one getter per input: the 1 + |diseases| plans of one evidence id
    set often repeat a step."""

    def __init__(self, net: Network):
        self.net = net
        self.diseases = tuple(net.ids_of_kind(NodeKind.DISEASE))
        self.shapes = {}
        self.nodes = {}
        self.steps = {}


def _no_ids(_):
    """The fixed values of a node that fixes none of its family."""
    return ()


def _entry(cache, nid, fixed):
    """The plan entry of kept node ``nid`` for the ``fixed`` ids of its
    family, its parents in row order and then itself, made in
    ``cache.nodes`` on first use."""
    node = cache.nodes.get(nid)
    if node is None:
        parents = cache.net.parents_of(nid)
        if len(parents) > DEFAULT_MAX_FACTOR_PARENTS:
            raise DomainError(
                f"node {nid!r} has {len(parents)} parents; elimination materializes "
                f"full tables only up to {DEFAULT_MAX_FACTOR_PARENTS} parents"
            )
        node = cache.nodes[nid] = (*[pid for pid, _ in parents], nid), {}
    family, entries = node
    ids = tuple([v for v in family if v in fixed])
    entry = entries.get(ids)
    if entry is None:
        scope = tuple([v for v in family if v not in fixed])
        entry = entries[ids] = itemgetter(*ids) if ids else _no_ids, {}, nid, scope
    return entry


def _plans(cache, kept_order, fixed, track):
    """The plans of one query's passes, keyed by fixed-id set: the pass
    over the ``fixed`` ids and, per ``track`` node t, the pass that also
    fixes t. All come from one skeleton: per kept node its entry, per
    hidden node the slots that mention it, ascending, and the hidden
    nodes' :func:`interaction_graph`. t's plan swaps the entries in the
    slots that mention t, those of t and its kept children."""
    nodes = [_entry(cache, nid, fixed) for nid in kept_order]
    mentions = {nid: [] for nid in kept_order if nid not in fixed}
    for k, (_, _, _, scope) in enumerate(nodes):
        for v in scope:
            mentions[v].append(k)
    graph = interaction_graph(mentions, [entry[3] for entry in nodes])
    key = frozenset(fixed)
    plans = {key: _plan(cache, nodes, mentions, graph, None)}
    for t in track:
        swapped, ids = nodes[:], {*fixed, t}
        for k in mentions[t]:
            swapped[k] = _entry(cache, kept_order[k], ids)
        plans[key | {t}] = _plan(cache, swapped, mentions, graph, t)
    return plans


def _plan(cache, nodes, mentions, graph, t):
    """The symbolic part of one elimination pass over the entries
    ``nodes``, with hidden node ``t`` (or None) dropped from a skeleton's
    ``mentions`` and ``graph``: ``(nodes, steps, final)``. Factor slots
    number the node tables in kept order, then each step's output. A step
    sums the slots that mention its variable and that no earlier step
    summed, in factor-list order, and its output joins the end of the
    list; ``final`` holds the slots left, whose single entries multiply to
    the likelihood."""
    mentions = {v: slots[:] for v, slots in mentions.items() if v != t}
    graph = {v: nbrs - {t} for v, nbrs in graph.items() if v != t}
    scopes = [entry[3] for entry in nodes]
    summed = set()
    steps = []
    for var in min_degree_elimination(graph):
        related = [k for k in mentions.pop(var) if k not in summed]
        summed.update(related)
        inputs = tuple([scopes[k] for k in related])
        step = cache.steps.get((inputs, var))
        if step is None:
            step = cache.steps[inputs, var] = sum_product_maps(inputs, var)
        for v in step[0]:
            mentions[v].append(len(scopes))
        scopes.append(step[0])
        steps.append((getter(related), step[1]))
    final = [k for k in range(len(scopes)) if k not in summed]
    return nodes, steps, final


def _ve_likelihood(net, plan, fixed):
    """P(fixed assignment) in ``net`` by one elimination pass over
    ``plan``, made for the fixed ids."""
    nodes, steps, final = plan
    tables = [known.get(read(fixed)) for read, known, _, _ in nodes]
    if None in tables:
        for k, (read, known, nid, scope) in enumerate(nodes):
            if tables[k] is None:
                tables[k] = known[read(fixed)] = net.compiled.table(nid, scope, fixed)
    for related, reads in steps:
        tables.append(sum_product_values(reads, related(tables)))
    return prod([tables[k][0] for k in final], start=1.0)


# -- shared dispatch ------------------------------------------------------------


def _query(cache, fixed, track, method):
    """P(fixed assignment) and, per tracked node, P(node present AND fixed)
    in ``cache.net``. No tracked node is fixed: posteriors fix findings and
    track diseases. Pruning and elimination reuse and fill the stores of
    ``cache``, an :class:`_Elimination`; an elimination answer it already
    holds is returned as stored."""
    net = cache.net
    needed = frozenset(fixed).union(track)
    shape = cache.shapes.get(needed)
    if shape is None:
        # pruning reads net.compiled, the validity gate; a stored shape means
        # an earlier query on this immutable network passed it
        shape = cache.shapes[needed] = _prune_barren(net, needed), {}, {}
    kept, plans, answers = shape
    unobserved = len(kept) - len(fixed)
    if method == "auto":
        # the parent counts matter only where elimination would run
        limit = DEFAULT_ENUMERATION_THRESHOLD
        if limit < unobserved <= _WIDE_ENUMERATION_LIMIT and any(
            len(net.parents_of(nid)) > DEFAULT_MAX_FACTOR_PARENTS for nid in kept
        ):
            limit = _WIDE_ENUMERATION_LIMIT
        method = "enumeration" if unobserved <= limit else "elimination"
    if method == "enumeration":
        return _enum_query(net, kept, fixed, track)
    if method == "elimination":
        # every fixed id is kept, so the values over the kept order name the
        # fixed assignment whatever its dict order
        values = tuple(map(fixed.get, kept))
        answer = answers.get(values)
        if answer is None:
            key = frozenset(fixed)
            if key not in plans:
                # a fixed-id set's track is the needed ids it leaves unfixed
                plans.update(_plans(cache, kept, fixed, track))
            total = _ve_likelihood(net, plans[key], fixed)
            masses = {t: _ve_likelihood(net, plans[key | {t}], {**fixed, t: True}) for t in track}
            answer = answers[values] = total, masses
        return answer
    raise DomainError(f"unknown inference method {method!r}")


def event_prob(net: Network, assignment: Mapping, *, method: str = "auto") -> float:
    """Probability of a partial assignment over any subset of nodes."""
    fixed = _normalize_assignment(net, assignment)
    total, _ = _query(_Elimination(net), fixed, (), method)
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
    return _posterior(_Elimination(net), evidence, conjunction, method)


def _posterior(cache, evidence, conjunction, method):
    """:func:`posterior` in ``cache.net``, with elimination passes reusing
    ``cache``, an :class:`_Elimination`."""
    net = cache.net
    fixed = _normalize_assignment(net, evidence, findings_only=True)
    total, masses = _query(cache, fixed, cache.diseases, method)
    if total <= 0.0:
        raise EvidenceError("evidence has zero probability under this network")
    posteriors = {d: _clamp01(masses[d] / total) for d in cache.diseases}
    conj_value = None
    if conjunction is not None:
        conj = sorted(set(conjunction))
        for nid in conj:
            net.node(nid)
            if nid in fixed and not fixed[nid]:
                raise DomainError(f"conjunction node {nid!r} is observed absent")
        conj_fixed = {**fixed, **dict.fromkeys(conj, True)}
        conj_total, _ = _query(cache, conj_fixed, (), method)
        conj_value = _clamp01(conj_total / total)
    return PosteriorResult(posteriors, total, conj_value)


def _clamp01(x: float) -> float:
    return 0.0 if x < 0.0 else 1.0 if x > 1.0 else x
