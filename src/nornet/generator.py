"""Seeded synthetic network generation.

The generator builds layered diagnostic networks of configurable size and
connectivity: disease roots with priors, intermediate nodes whose fan-in
is drawn from ``fan_in_range`` (parents picked among diseases and, with
probability ``ips_chain_prob`` per slot, among earlier intermediates) and
whose fan-out is drawn from ``fan_out_range`` over the findings. Findings
left without a parent get one repair parent so every finding is reachable.
With ``n_ips == 0`` the generator produces a two-level network whose
findings draw their parent counts from ``fan_in_range`` directly.

All drawing comes from one SplitMix64 stream seeded by ``seed``; the same
config always yields the byte-identical network.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError
from .model import Edge, Network, disease, finding, ips
from .rng import SplitMix64


@dataclass(frozen=True)
class GeneratorConfig:
    n_diseases: int
    n_ips: int
    n_findings: int
    fan_in_range: tuple[int, int] = (1, 2)
    fan_out_range: tuple[int, int] = (1, 2)
    ips_chain_prob: float = 0.0
    eta_range: tuple[float, float] = (0.2, 0.9)
    leak_range: tuple[float, float] = (0.0, 0.05)
    prior_range: tuple[float, float] = (0.05, 0.5)
    phase_weights: tuple[float, float, float, float, float] = (1, 1, 1, 1, 1)
    seed: int = 0

    def __post_init__(self):
        if self.n_diseases < 1:
            raise ConfigError("need at least one disease")
        if self.n_findings < 1:
            raise ConfigError("need at least one finding")
        if self.n_ips < 0:
            raise ConfigError("negative intermediate count")
        for name, (lo, hi) in (
            ("fan_in_range", self.fan_in_range),
            ("fan_out_range", self.fan_out_range),
        ):
            if lo < 1 or hi < lo:
                raise ConfigError(f"{name} ({lo}, {hi}) must satisfy 1 <= lo <= hi")
        lo, hi = self.eta_range
        if not (0.0 < lo <= hi <= 1.0):
            raise ConfigError(f"eta_range ({lo}, {hi}) must lie inside (0, 1]")
        lo, hi = self.leak_range
        if not (0.0 <= lo <= hi < 1.0):
            raise ConfigError(f"leak_range ({lo}, {hi}) must lie inside [0, 1)")
        lo, hi = self.prior_range
        if not (0.0 < lo <= hi < 1.0):
            raise ConfigError(f"prior_range ({lo}, {hi}) must lie inside (0, 1)")
        if not 0.0 <= self.ips_chain_prob <= 1.0:
            raise ConfigError(f"ips_chain_prob {self.ips_chain_prob} outside [0, 1]")
        if len(self.phase_weights) != 5 or any(w < 0 for w in self.phase_weights):
            raise ConfigError("phase_weights must be five nonnegative values")
        if sum(self.phase_weights) <= 0:
            raise ConfigError("phase_weights must not all be zero")
        if self.n_ips > 0 and self.fan_in_range[0] > self.n_diseases + self.n_ips - 1:
            raise ConfigError(
                "fan_in_range lower bound exceeds every possible predecessor pool"
            )
        if self.n_ips == 0 and self.fan_in_range[0] > self.n_diseases:
            raise ConfigError("fan_in_range lower bound exceeds the disease pool")


def generate_network(cfg: GeneratorConfig) -> Network:
    rng = SplitMix64(cfg.seed)
    d_ids = [f"d{k:03d}" for k in range(1, cfg.n_diseases + 1)]
    i_ids = [f"i{k:03d}" for k in range(1, cfg.n_ips + 1)]
    f_ids = [f"f{k:03d}" for k in range(1, cfg.n_findings + 1)]

    nodes = [disease(did, rng.uniform(*cfg.prior_range)) for did in d_ids]
    nodes.extend(ips(iid, rng.uniform(*cfg.leak_range)) for iid in i_ids)
    nodes.extend(
        finding(fid, rng.uniform(*cfg.leak_range), 1 + rng.weighted_index(cfg.phase_weights))
        for fid in f_ids
    )

    edges: dict[tuple[str, str], float] = {}

    def add_edge(src: str, dst: str) -> None:
        edges[(src, dst)] = rng.uniform(*cfg.eta_range)

    if cfg.n_ips > 0:
        for j, iid in enumerate(i_ids):
            disease_pool = list(d_ids)
            chain_pool = list(i_ids[:j])
            want = rng.randint(*cfg.fan_in_range)
            want = min(want, len(disease_pool) + len(chain_pool))
            for _ in range(want):
                use_chain = chain_pool and (
                    not disease_pool or rng.next_float() < cfg.ips_chain_prob
                )
                pool = chain_pool if use_chain else disease_pool
                src = pool.pop(rng.randint(0, len(pool) - 1))
                add_edge(src, iid)
        for iid in i_ids:
            pool = list(f_ids)
            want = min(rng.randint(*cfg.fan_out_range), len(pool))
            for _ in range(want):
                dst = pool.pop(rng.randint(0, len(pool) - 1))
                add_edge(iid, dst)
        has_parent = {dst for _, dst in edges}
        for fid in f_ids:
            if fid not in has_parent:
                add_edge(i_ids[rng.randint(0, len(i_ids) - 1)], fid)
    else:
        for fid in f_ids:
            pool = list(d_ids)
            want = min(rng.randint(*cfg.fan_in_range), len(pool))
            for _ in range(want):
                src = pool.pop(rng.randint(0, len(pool) - 1))
                add_edge(src, fid)

    name = (
        f"synth-d{cfg.n_diseases}-i{cfg.n_ips}-f{cfg.n_findings}-s{cfg.seed}"
    )
    net = Network(name, nodes, [Edge(s, d, e) for (s, d), e in sorted(edges.items())])
    return net.require_valid()
