import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from nornet import (
    Edge,
    GeneratorConfig,
    Network,
    SplitMix64,
    disease,
    finding,
    generate_network,
    ips,
)


def chain_net(prior=0.3, p=0.8, q=0.9, rho_b=0.0, rho_c=0.1, name="chain"):
    """a -> b -> c single path."""
    return Network(
        name,
        [disease("a", prior), ips("b", rho_b), finding("c", rho_c, 1)],
        [Edge("a", "b", p), Edge("b", "c", q)],
    )


def fork_net(p=(0.3, 0.5, 0.7), q=(0.4, 0.6), rho_i=0.0, rho_f=(0.0, 0.0), priors=None):
    """Three diseases feeding one intermediate feeding two findings."""
    priors = priors or tuple(0.2 for _ in p)
    nodes = [disease(f"d{k}", priors[k]) for k in range(len(p))]
    nodes.append(ips("i0", rho_i))
    nodes.extend(finding(f"f{j}", rho_f[j], 1) for j in range(len(q)))
    edges = [Edge(f"d{k}", "i0", p[k]) for k in range(len(p))]
    edges.extend(Edge("i0", f"f{j}", q[j]) for j in range(len(q)))
    return Network("fork", nodes, edges)


def diamond_net(p1=0.3, q1=0.5, p2=0.6, q2=0.7, prior=0.25):
    """a -> {b1, b2} -> c parallel paths."""
    return Network(
        "diamond",
        [disease("a", prior), ips("b1"), ips("b2"), finding("c", 0.0, 1)],
        [
            Edge("a", "b1", p1),
            Edge("a", "b2", p2),
            Edge("b1", "c", q1),
            Edge("b2", "c", q2),
        ],
    )


def random_unit_fan_net(seed: int) -> Network:
    """Random leak-free network whose every intermediate has fan-in 1 and
    fan-out 1: chains disease -> [ips] -> finding, some findings direct."""
    rng = SplitMix64(seed)
    n_d = rng.randint(1, 3)
    n_f = rng.randint(2, 5)
    nodes = [disease(f"d{k}", rng.uniform(0.05, 0.6)) for k in range(n_d)]
    edges = []
    n_ips = 0
    for j in range(n_f):
        nodes.append(finding(f"f{j}", 0.0, 1 + (j % 5)))
        src = f"d{rng.randint(0, n_d - 1)}"
        if rng.next_float() < 0.6:
            hub = f"i{n_ips}"
            n_ips += 1
            nodes.append(ips(hub, 0.0))
            edges.append(Edge(src, hub, rng.uniform(0.1, 0.95)))
            edges.append(Edge(hub, f"f{j}", rng.uniform(0.1, 0.95)))
        else:
            edges.append(Edge(src, f"f{j}", rng.uniform(0.1, 0.95)))
    return Network(f"unitfan-{seed}", nodes, edges)


def criterion_8_net(fan) -> Network:
    """An acceptance criterion-8 network (3 diseases, 10 intermediates, 30
    findings) with fan-in and fan-out drawn from ``fan``."""
    return generate_network(
        GeneratorConfig(
            3, 10, 30, fan_in_range=fan, fan_out_range=fan, ips_chain_prob=0.2,
            eta_range=(0.2, 0.9), leak_range=(0.0, 0.05), prior_range=(0.05, 0.4), seed=7,
        )
    )
