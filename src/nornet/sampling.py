"""Forward (ancestral) sampling of complete worlds.

Nodes are visited in the network's canonical topological order (ascending
id tie-break) and each consumes exactly one uniform draw from a
:class:`~nornet.rng.SplitMix64` stream seeded by the caller. The sampled
world for a given (network, seed) pair is therefore bit-for-bit stable.
"""

from __future__ import annotations

from .model import Network, row_prob
from .rng import SplitMix64


def sample_world(net: Network, seed: int) -> dict[str, bool]:
    """Draw one complete world: diseases from their priors, every other
    node from its leaky noisy-OR given the already-sampled parents. The
    world is a new dict of every node id to its state."""
    compiled = net.compiled
    next_float = SplitMix64(seed).next_float
    states = [False] * len(compiled.rows)
    for i, row in enumerate(compiled.rows):
        states[i] = next_float() < row_prob(row, states)
    return dict(zip(compiled.order, states))
