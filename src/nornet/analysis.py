"""Closed-form predictors of reduction error.

For a star subnetwork (m diseases -> one intermediate -> n findings) the
ratio of layered-network to collapsed-network likelihood has a closed
form in two tractable cases: fan-out 1 (the overestimate ratio) and
fan-in 1 (the underestimate ratio, approximately 1/p**(n-1) when leaks
are small). These ratios, fan statistics, and the qualitative bias labels
derived from them live here; ground truth for all of them is the
inference module run on the concrete star networks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Mapping

from .errors import DomainError
from .model import Edge, Network, NodeKind, check_prob, disease, finding, ips
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
    """
    if cfg.fan_out != 1:
        raise DomainError("fan_in_ratio needs fan-out 1")
    numerator, denominator = _fan_in_terms(cfg)
    if denominator == 0.0:
        raise DomainError("collapsed-network likelihood is zero for this star")
    return numerator / denominator


def fan_in_ratio_two_disease(
    p1: float, p2: float, q: float, rho_i: float = 0.0, rho_f: float = 0.0
) -> float:
    """Two-disease special case of the fan-out-1 ratio:
    (1 - rho_i)(p1 + p2 - p1 p2) / [(1 - rho_f)(p1 + p2 - q p1 p2)]."""
    for name, v in (("p1", p1), ("p2", p2), ("q", q), ("rho_i", rho_i), ("rho_f", rho_f)):
        check_prob(name, v)
    denominator = (1.0 - rho_f) * (p1 + p2 - q * p1 * p2)
    if denominator == 0.0:
        raise DomainError("zero denominator in two-disease ratio")
    return (1.0 - rho_i) * (p1 + p2 - p1 * p2) / denominator


def fan_out_ratio(p: float, q: list[float], rho_f: list[float]) -> tuple[float, float]:
    """Fan-in-1 ratio for n findings, all present, as (exact, approximate):

        exact  = [p prod(q_j) + (1 - p) prod(rho_f_j)] / prod(p q_j)
        approx = 1 / p**(n-1)

    The approximation assumes leaks are small against activation
    probabilities.
    """
    if not q:
        raise DomainError("fan_out_ratio needs at least one finding")
    if len(rho_f) != len(q):
        raise DomainError("need one finding leak per finding eta")
    for name, values in (("p", (p,)), ("q", q), ("rho_f", rho_f)):
        for v in values:
            check_prob(name, v)
    denominator = math.prod(p * qj for qj in q)
    if denominator == 0.0:
        raise DomainError("collapsed-network likelihood is zero (p or some q is 0)")
    exact = (p * math.prod(q) + (1.0 - p) * math.prod(rho_f)) / denominator
    approx = 1.0 / p ** (len(q) - 1)
    return exact, approx


def closed_form_posteriors(
    cfg: StarConfig, prior_over_d: float, p_f: float
) -> tuple[float, float]:
    """The two fan-out-1 posterior expressions with the shared
    prior/normalizer factor prior_over_d / p_f applied; used to
    cross-validate the ratio against inference on zero-leak stars."""
    if cfg.fan_out != 1:
        raise DomainError("closed_form_posteriors needs fan-out 1")
    if not 0.0 < prior_over_d <= 1.0 or not 0.0 < p_f <= 1.0:
        raise DomainError("prior and normalizer must be in (0, 1]")
    three, two = _fan_in_terms(cfg)
    factor = prior_over_d / p_f
    return three * factor, two * factor


def _fan_in_terms(cfg: StarConfig) -> tuple[float, float]:
    """Layered and collapsed fan-out-1 terms, before the prior/normalizer factor."""
    q = cfg.q[0]
    rho_f = cfg.rho_f[0]
    none_on = math.prod(1.0 - pk for pk in cfg.p)
    layered = q * (1.0 - cfg.rho_i) * (1.0 - none_on) + rho_f * none_on
    collapsed = (1.0 - math.prod(1.0 - pk * q for pk in cfg.p)) * (1.0 - rho_f)
    return layered, collapsed
