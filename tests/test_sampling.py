import pytest

import oracle
from conftest import chain_net, fork_net
from nornet import (
    Edge,
    Network,
    SplitMix64,
    ValidationError,
    disease,
    finding,
    marginal,
    sample_world,
)


class TestSplitMix64:
    def test_stream_is_reproducible(self):
        a = SplitMix64(1234)
        b = SplitMix64(1234)
        assert [a.next_u64() for _ in range(5)] == [b.next_u64() for _ in range(5)]

    def test_known_first_output_for_seed_zero(self):
        # frozen reference value for the standard mix constants
        assert SplitMix64(0).next_u64() == 0xE220A8397B1DCDAF

    def test_floats_in_unit_interval(self):
        rng = SplitMix64(7)
        values = [rng.next_float() for _ in range(1000)]
        assert all(0.0 <= v < 1.0 for v in values)
        assert 0.4 < sum(values) / len(values) < 0.6

    def test_randint_bounds_and_coverage(self):
        rng = SplitMix64(8)
        seen = {rng.randint(2, 5) for _ in range(200)}
        assert seen == {2, 3, 4, 5}
        with pytest.raises(ValueError):
            rng.randint(5, 2)


class TestSampleWorld:
    def test_all_zero_probabilities_gives_all_absent(self):
        net = chain_net(prior=0.0, p=0.5, q=0.5, rho_b=0.0, rho_c=0.0)
        world = sample_world(net, 1)
        assert not any(world.values())

    def test_all_certain_gives_all_present(self):
        net = chain_net(prior=1.0, p=1.0, q=1.0, rho_b=0.0, rho_c=0.0)
        world = sample_world(net, 1)
        assert all(world.values())

    def test_same_seed_same_world(self):
        net = fork_net()
        assert sample_world(net, 77) == sample_world(net, 77)

    def test_covers_every_node(self):
        net = fork_net()
        world = sample_world(net, 3)
        assert set(world) == set(net.node_ids)

    def test_invalid_network_rejected(self):
        net = Network(
            "bad", [disease("d", 2.0), finding("f", 0.0, 1)], [Edge("d", "f", 0.5)]
        )
        with pytest.raises(ValidationError):
            sample_world(net, 0)

    def test_deterministic_chain_frequency(self):
        # prior 0.5, eta 1.0, leak 0: finding tracks the disease exactly,
        # so the empirical frequency must sit inside the binomial band
        # (3 sigma at n=100k is just under 0.005)
        net = chain_net(prior=0.5, p=1.0, q=1.0, rho_b=0.0, rho_c=0.0)
        n = 100_000
        hits = sum(sample_world(net, seed)["c"] for seed in range(n))
        assert abs(hits / n - 0.5) < 0.005
        assert abs(hits / n - 0.5) < oracle.binomial_3sigma(0.5, n)

    def test_empirical_marginals_match_inference(self):
        net = fork_net(p=(0.4, 0.6, 0.5), q=(0.7, 0.3), rho_i=0.05, rho_f=(0.02, 0.1))
        n = 20_000
        counts = {nid: 0 for nid in net.node_ids}
        for seed in range(n):
            world = sample_world(net, seed)
            for nid in counts:
                if world[nid]:
                    counts[nid] += 1
        for nid in net.node_ids:
            expected = marginal(net, nid)
            band = oracle.binomial_3sigma(expected, n)
            assert abs(counts[nid] / n - expected) <= band, nid
