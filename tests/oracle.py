"""Independent brute-force probability oracle for the tests.

Deliberately naive: enumerate every complete world with itertools.product,
score each by a direct per-node probability product, and sum, in doubles
or exactly in ``fractions.Fraction``. Shares no code with the package's
inference engines beyond the network data model, so agreement is
meaningful.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from nornet import Network, NodeKind


def world_prob(net: Network, state: dict[str, bool], num=float):
    """The probability of one complete world, in the number type ``num``."""
    prob = num(1)
    for node in net.nodes:
        if node.kind is NodeKind.DISEASE:
            p = num(node.prior)
        else:
            fail = 1 - num(node.leak)
            for pid, eta in net.parents_of(node.id):
                if state[pid]:
                    fail *= 1 - num(eta)
            p = 1 - fail
        prob *= p if state[node.id] else 1 - p
    return prob


def enumerate_worlds(net: Network):
    ids = net.node_ids
    for bits in itertools.product((False, True), repeat=len(ids)):
        yield dict(zip(ids, bits))


def event_prob(net: Network, event: dict[str, bool], num=float):
    total = num(0)
    for state in enumerate_worlds(net):
        if all(state[k] == v for k, v in event.items()):
            total += world_prob(net, state, num)
    return total


def exact_event_prob(net: Network, event: dict[str, bool]) -> Fraction:
    """:func:`event_prob` in exact rational arithmetic: every double
    parameter is taken at its exact value, and nothing rounds or underflows."""
    return event_prob(net, event, Fraction)


def posterior(net: Network, disease_id: str, evidence: dict[str, bool]) -> float:
    z = event_prob(net, evidence)
    joint = event_prob(net, {**evidence, disease_id: True})
    return joint / z


def all_marginals(net: Network) -> dict[str, float]:
    totals = {nid: 0.0 for nid in net.node_ids}
    for state in enumerate_worlds(net):
        w = world_prob(net, state)
        for nid, value in state.items():
            if value:
                totals[nid] += w
    return totals


def conditional(net: Network, event: dict[str, bool], given: dict[str, bool]) -> float:
    return event_prob(net, {**given, **event}) / event_prob(net, given)


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values)


def binomial_3sigma(p: float, n: int) -> float:
    return 3.0 * math.sqrt(max(p * (1.0 - p), 1e-12) / n)
