"""Closed-form predictors of reduction error.

For a star subnetwork (m diseases -> one intermediate -> n findings) the
ratio of layered-network to collapsed-network likelihood has a closed
form in two tractable cases: fan-out 1 (the overestimate ratio) and
fan-in 1 (the underestimate ratio, approximately 1/p**(n-1) when leaks
are small). These ratios, fan statistics, and the qualitative bias labels
derived from them live here; ground truth for all of them is the
inference module run on the concrete star networks.

The closed forms equal the star networks' likelihood ratio only when
every leak is 0. With leaks they can fall on the other side of 1: for
p = (0.5, 0.5), q = 0.5, rho_f = 0.1, ``fan_in_ratio`` is 1.01587 and the
networks' ratio 0.88608. ``fan_out_ratio`` has no rho_i term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Mapping

from .errors import DomainError
from .model import Edge, Network, NodeKind, check_prob, disease, finding, ips, one_minus_prod
from .reduction import ReductionReport


@dataclass(frozen=True)
class FanStats:
    """Fan-in/fan-out per intermediate node with network-level aggregates."""

    per_node: Mapping[str, tuple[int, int]]
    max_fan_in: int
    max_fan_out: int
    mean_fan_in: float
    mean_fan_out: float


def fan_stats(net: Network) -> FanStats:
    net.require_valid()
    per_node = {}
    for node in net.nodes_of_kind(NodeKind.IPS):
        per_node[node.id] = (
            len(net.parents_of(node.id)),
            len(net.children_of(node.id)),
        )
    if per_node:
        fan_ins = [m for m, _ in per_node.values()]
        fan_outs = [n for _, n in per_node.values()]
        return FanStats(
            per_node,
            max(fan_ins),
            max(fan_outs),
            sum(fan_ins) / len(fan_ins),
            sum(fan_outs) / len(fan_outs),
        )
    return FanStats({}, 0, 0, 0.0, 0.0)


def ips_path_stats(report: ReductionReport) -> dict[str, tuple[float, int]]:
    """Per-disease (mean, max) count of intermediates on the original paths
    behind that disease's reduced edges.

    Diseases whose evidence flows through longer intermediate chains tend
    to diverge more between the full and reduced networks; this gives the
    per-disease numbers needed to probe that connection.
    """
    lengths: dict[str, list[int]] = {}
    for entry in report.provenance:
        src = entry.reduced_edge[0]
        for path in entry.source_paths:
            lengths.setdefault(src, []).append(len(path) - 2)
    return {
        src: (sum(vals) / len(vals), max(vals))
        for src, vals in sorted(lengths.items())
    }


BIAS_EXACT = "exact"
BIAS_OVERESTIMATE = "overestimate"
BIAS_UNDERESTIMATE = "underestimate"
BIAS_MIXED = "mixed"


def predict_bias(stats: FanStats) -> dict[str, str]:
    """Qualitative direction of the collapsed network's likelihood error
    contributed by each intermediate node, from its (fan-in, fan-out)
    alone. The exact label assumes the node's leak is zero."""
    out = {}
    for nid in sorted(stats.per_node):
        m, n = stats.per_node[nid]
        if m == 1 and n == 1:
            out[nid] = BIAS_EXACT
        elif m > 1 and n == 1:
            out[nid] = BIAS_OVERESTIMATE
        elif m == 1 and n > 1:
            out[nid] = BIAS_UNDERESTIMATE
        else:
            out[nid] = BIAS_MIXED
    return out


@dataclass(frozen=True)
class StarConfig:
    """Parameters of a single-intermediate star subnetwork.

    ``p`` are the disease->intermediate etas, ``q`` the
    intermediate->finding etas, ``rho_i`` the intermediate leak, ``rho_f``
    the finding leaks (one per q), ``priors`` the disease priors. The
    closed forms cover the two analyzable shapes: fan-out 1 (len(q) == 1)
    or fan-in 1 (len(p) == 1).
    """

    p: tuple[float, ...]
    q: tuple[float, ...]
    rho_i: float = 0.0
    rho_f: tuple[float, ...] = (0.0,)
    priors: tuple[float, ...] = ()

    def __post_init__(self):
        if not self.p or not self.q:
            raise DomainError("star needs at least one disease and one finding")
        if len(self.p) > 1 and len(self.q) > 1:
            raise DomainError("star must have fan-in 1 or fan-out 1")
        if len(self.rho_f) != len(self.q):
            raise DomainError("need one finding leak per finding eta")
        priors = self.priors or tuple(0.5 for _ in self.p)
        if len(priors) != len(self.p):
            raise DomainError("need one prior per disease eta")
        object.__setattr__(self, "priors", priors)
        for name, values in (
            ("p", self.p),
            ("q", self.q),
            ("rho_f", self.rho_f),
            ("priors", priors),
            ("rho_i", (self.rho_i,)),
        ):
            for v in values:
                check_prob(name, v)

    @property
    def fan_in(self) -> int:
        return len(self.p)

    @property
    def fan_out(self) -> int:
        return len(self.q)


def star_network(cfg: StarConfig) -> Network:
    """Materialize the star as a concrete three-level network (diseases
    d01.., hub i01, findings f01..) for cross-checks against inference."""
    nodes = [disease(f"d{k + 1:02d}", cfg.priors[k]) for k in range(cfg.fan_in)]
    nodes.append(ips("i01", cfg.rho_i))
    nodes.extend(
        finding(f"f{j + 1:02d}", cfg.rho_f[j], phase=1) for j in range(cfg.fan_out)
    )
    edges = [Edge(f"d{k + 1:02d}", "i01", cfg.p[k]) for k in range(cfg.fan_in)]
    edges.extend(Edge("i01", f"f{j + 1:02d}", cfg.q[j]) for j in range(cfg.fan_out))
    return Network("star", nodes, edges)


def star_config_from_network(net: Network) -> StarConfig | None:
    """Recover a StarConfig when the network is a pure single-intermediate
    star (every edge incident to the one intermediate node and the shape is
    analyzable); otherwise None."""
    hubs = net.nodes_of_kind(NodeKind.IPS)
    if len(hubs) != 1:
        return None
    hub = hubs[0]
    for edge in net.edges:
        if hub.id not in (edge.src, edge.dst):
            return None
    preds = net.parents_of(hub.id)
    succs = net.children_of(hub.id)
    if not preds or not succs:
        return None
    if len(preds) > 1 and len(succs) > 1:
        return None
    return StarConfig(
        p=tuple(eta for _, eta in preds),
        q=tuple(net.edge(hub.id, sid).eta for sid in succs),
        rho_i=hub.leak,
        rho_f=tuple(net.node(sid).leak for sid in succs),
        priors=tuple(net.node(pid).prior for pid, _ in preds),
    )


def fan_in_ratio(cfg: StarConfig) -> float:
    """Layered-over-collapsed likelihood ratio for fan-out 1, with the
    common prior/normalizer factor cancelled:

        {q (1 - rho_i) [1 - prod(1 - p_k)] + rho_f prod(1 - p_k)}
        ---------------------------------------------------------
                 [1 - prod(1 - p_k q)] (1 - rho_f)

    This is exact only when every leak is 0 (see the module docstring).
    Where every p_k q is below 2**-969, 1 - prod(1 - p_k q) is q sum(p_k)
    to double precision, so q is cancelled from both terms before they
    can turn subnormal and lose their digits. That covers every star whose
    denominator falls below the smallest normal double, since 1 - rho_f is
    at least 2**-53 there. Both terms are then also multiplied by the
    exact power of two that brings max(p) up to at least 2**-61, so that
    (1 - rho_i)(1 - prod(1 - p_k)) cannot turn subnormal either.

    Raises DomainError when the denominator is zero (q or every p_k is 0,
    or rho_f is 1) or when the ratio overflows a double.
    """
    if cfg.fan_out != 1:
        raise DomainError("fan_in_ratio needs fan-out 1")
    q, rho_f = cfg.q[0], cfg.rho_f[0]
    if q == 0.0 or not any(cfg.p) or rho_f == 1.0:
        raise DomainError("collapsed-network likelihood is zero for this star")
    none_on = math.prod(1.0 - pk for pk in cfg.p)
    layered = q * (1.0 - cfg.rho_i) * one_minus_prod(cfg.p) + rho_f * none_on
    collapsed = one_minus_prod([pk * q for pk in cfg.p]) * (1.0 - rho_f)
    if max(cfg.p) * q < 2.0**-969:
        k = max(0, -60 - math.frexp(max(cfg.p))[1])
        p = [math.ldexp(pk, k) for pk in cfg.p]
        try:
            leaked = math.ldexp(rho_f * none_on / q, k)
        except OverflowError:
            leaked = math.inf
        layered = (1.0 - cfg.rho_i) * one_minus_prod(p) + leaked
        collapsed = sum(p) * (1.0 - rho_f)
    ratio = layered / collapsed if collapsed else math.inf
    if ratio == math.inf:
        raise DomainError("fan-in ratio overflows a double")
    return ratio


def fan_out_ratio(cfg: StarConfig) -> tuple[float, float]:
    """Fan-in-1 ratio for n findings, all present, as (exact, approximate):

        exact  = [p prod(q_j) + (1 - p) prod(rho_f_j)] / prod(p q_j)
        approx = 1 / p**(n-1)

    The approximation assumes leaks are small against activation
    probabilities. ``exact`` is exact only when every leak is 0: it has no
    rho_i term (see the module docstring). It is divided through term by
    term, as approx + (1 - p) prod(rho_f_j / (p q_j)) with that product
    taken in logs, so no product of many p q_j underflows. Raises
    DomainError when p or some q_j is 0, or when a ratio overflows a double.
    """
    if cfg.fan_in != 1:
        raise DomainError("fan_out_ratio needs fan-in 1")
    p, q, rho_f = cfg.p[0], cfg.q, cfg.rho_f
    if p == 0.0 or 0.0 in q:
        raise DomainError("collapsed-network likelihood is zero (p or some q is 0)")
    n = len(q)
    try:
        exact = approx = p ** (1 - n)
        if p < 1.0 and 0.0 not in rho_f:
            logs = sum(math.log(r) - math.log(qj) for r, qj in zip(rho_f, q))
            exact += (1.0 - p) * math.exp(logs - n * math.log(p))
    except OverflowError:
        exact = math.inf
    if exact == math.inf:
        raise DomainError("fan-out ratio overflows a double")
    return exact, approx
