from fractions import Fraction

import pytest

from conftest import chain_net, fork_net
from nornet import (
    DomainError,
    SplitMix64,
    StarConfig,
    event_prob,
    fan_stats,
    level_reduce,
    predict_bias,
    fan_in_ratio,
    fan_out_ratio,
    star_config_from_network,
    star_network,
)


class TestFanStats:
    def test_fork_counts(self):
        stats = fan_stats(fork_net(p=(0.3, 0.5, 0.7), q=(0.4, 0.6)))
        assert stats.per_node == {"i0": (3, 2)}
        assert stats.max_fan_in == 3
        assert stats.max_fan_out == 2

    def test_two_level_network_has_no_entries(self):
        net = level_reduce(fork_net()).reduced
        stats = fan_stats(net)
        assert stats.per_node == {}
        assert stats.max_fan_in == 0
        assert stats.mean_fan_out == 0.0

    def test_chain_is_unit_fan(self):
        assert fan_stats(chain_net()).per_node == {"b": (1, 1)}


class TestIpsPathStats:
    def test_chain_lengths_per_disease(self):
        from nornet import Edge, Network, disease, finding, ips
        from nornet.analysis import ips_path_stats

        net = Network(
            "mixed-depth",
            [
                disease("d1", 0.1),
                disease("d2", 0.1),
                ips("b1"),
                ips("b2"),
                finding("f1", 0.0, 1),
                finding("f2", 0.0, 1),
            ],
            [
                Edge("d1", "b1", 0.5),
                Edge("b1", "b2", 0.5),
                Edge("b2", "f1", 0.5),
                Edge("d2", "f2", 0.5),
            ],
        )
        stats = ips_path_stats(level_reduce(net))
        assert stats["d1"] == (2.0, 2)   # one path with two intermediates
        assert stats["d2"] == (0.0, 0)   # direct edge


class TestPredictBias:
    @pytest.mark.parametrize(
        "m,n,label",
        [
            (1, 1, "exact"),
            (3, 1, "overestimate"),
            (1, 3, "underestimate"),
            (2, 2, "mixed"),
            (3, 2, "mixed"),
        ],
    )
    def test_labels(self, m, n, label):
        from nornet.analysis import FanStats

        stats = FanStats({"i": (m, n)}, m, n, float(m), float(n))
        assert predict_bias(stats) == {"i": label}


class TestRatioR1:
    def test_unit_fan_is_exact(self):
        rng = SplitMix64(41)
        for _ in range(20):
            cfg = StarConfig(
                p=(rng.uniform(0.05, 1.0),), q=(rng.uniform(0.05, 1.0),)
            )
            assert fan_in_ratio(cfg) == pytest.approx(1.0, abs=1e-14)

    def test_spot_value_two_diseases(self):
        cfg = StarConfig(p=(0.5, 0.5), q=(0.5,))
        assert fan_in_ratio(cfg) == pytest.approx(0.857142857, abs=1e-9)

    def test_spot_value_with_finding_leak(self):
        cfg = StarConfig(p=(0.5, 0.5), q=(0.5,), rho_f=(0.1,))
        assert fan_in_ratio(cfg) == pytest.approx(0.4 / 0.39375, abs=1e-12)

    def test_zero_denominator_rejected(self):
        with pytest.raises(DomainError):
            fan_in_ratio(StarConfig(p=(0.0,), q=(0.5,)))

    @pytest.mark.parametrize(
        "cfg,message",
        [
            (StarConfig(p=(0.0, 0.0), q=(0.5,)), "is zero for this star"),
            (StarConfig(p=(0.5,), q=(0.0,)), "is zero for this star"),
            (StarConfig(p=(0.5,), q=(0.5,), rho_f=(1.0,)), "is zero for this star"),
            # p subnormal: the ratio is about 2e310
            (StarConfig(p=(1e-310,), q=(0.5,), rho_f=(0.5,)), "overflows a double"),
            # the denominator is below the smallest normal double, though
            # not 0, and the ratio is about 1e310
            (StarConfig(p=(1e-300,), q=(1e-10,), rho_f=(0.5,)), "overflows a double"),
            (StarConfig(p=(0.5,), q=(0.5, 0.5), rho_f=(0.0, 0.0)), "needs fan-out 1"),
        ],
    )
    def test_errors_say_which(self, cfg, message):
        with pytest.raises(DomainError, match=message):
            fan_in_ratio(cfg)

    @pytest.mark.parametrize(
        "p,q",
        [
            ((1e-20,), 0.5),
            ((1.0,), 1e-20),
            ((1e-20, 3e-20), 0.5),
            ((1.5e-16,), 0.5),
            ((1e-12,), 0.5),
            # the denominator, about sum(p) q, is below the smallest normal
            # double
            ((1e-300,), 1e-300),
            ((1e-300,), 1e-10),
            ((1e-300, 3e-300), 1e-10),
            ((1e-310,), 0.5),
        ],
    )
    def test_survives_one_minus_product_cancelling(self, p, q):
        # 1 - (1 - x) loses most or all of x's digits in doubles for these
        # x; the ratio is 1 leak-free
        cfg = StarConfig(p=p, q=(q,))
        assert fan_in_ratio(cfg) == pytest.approx(1.0, rel=1e-15)

    def test_small_q_keeps_the_digits_of_a_subnormal_numerator(self):
        # the layered term q (1 - rho_i) p is about 4.5e-313, subnormal,
        # while the denominator is normal; cancelling q first keeps every
        # digit, so the leak-free ratio is exactly 1 - rho_i
        rho_i = 1.0 - 2.0**-40
        cfg = StarConfig(p=(0.5,), q=(1e-300,), rho_i=rho_i)
        assert fan_in_ratio(cfg) == 1.0 - rho_i == 9.094947017729282e-13

    @pytest.mark.parametrize(
        "p,q,rho_i,expected",
        [
            # (1 - rho_i) p is subnormal; the unscaled form gave 4.699999752948307e-10
            (3.7e-308, 0.5, 1.0 - 4.7e-10, 4.700000388879744e-10),
            # (1 - rho_i) p underflows to 0.0, which the unscaled form returned
            (1.1254e-319, 1.7e-135, 1.0 - 1.02e-7, 1.0200000000182285e-07),
        ],
    )
    def test_tiny_p_keeps_the_digits_of_a_subnormal_numerator(self, p, q, rho_i, expected):
        # leak-free with one disease, the exact ratio is 1 - rho_i
        ratio = fan_in_ratio(StarConfig(p=(p,), q=(q,), rho_i=rho_i))
        assert ratio == expected
        assert abs(Fraction(ratio) / (1 - Fraction(rho_i)) - 1) < 1e-15

    def test_symmetric_in_disease_order(self):
        rng = SplitMix64(43)
        for _ in range(50):
            p1, p2, q = (rng.uniform(0.05, 0.95) for _ in range(3))
            rho_f = rng.uniform(0.0, 0.3)
            forward = fan_in_ratio(StarConfig(p=(p1, p2), q=(q,), rho_f=(rho_f,)))
            backward = fan_in_ratio(StarConfig(p=(p2, p1), q=(q,), rho_f=(rho_f,)))
            assert forward == pytest.approx(backward, rel=1e-14)

    def test_leak_free_ratio_never_exceeds_one(self):
        rng = SplitMix64(47)
        for _ in range(100):
            m = rng.randint(1, 4)
            p = tuple(rng.uniform(0.05, 1.0) for _ in range(m))
            q = rng.uniform(0.05, 1.0)
            ratio = fan_in_ratio(StarConfig(p=p, q=(q,)))
            assert ratio <= 1.0 + 1e-12
            if m >= 2 and q < 1.0:
                assert ratio < 1.0
        # equality cases: m == 1, q == 1, or at most one positive eta
        assert fan_in_ratio(StarConfig(p=(0.4, 0.7), q=(1.0,))) == pytest.approx(1.0)

    def test_agrees_with_inference_likelihood_ratio(self):
        rng = SplitMix64(53)
        for _ in range(10):
            m = rng.randint(1, 3)
            cfg = StarConfig(
                p=tuple(rng.uniform(0.1, 0.9) for _ in range(m)),
                q=(rng.uniform(0.1, 0.9),),
                priors=tuple(rng.uniform(0.1, 0.5) for _ in range(m)),
            )
            three = star_network(cfg)
            two = level_reduce(three).reduced
            cond = {f"d{k + 1:02d}": True for k in range(m)}
            lik3 = event_prob(three, {**cond, "f01": True}) / event_prob(three, cond)
            lik2 = event_prob(two, {**cond, "f01": True}) / event_prob(two, cond)
            assert fan_in_ratio(cfg) == pytest.approx(lik3 / lik2, abs=1e-10)


class TestRatioR2:
    def test_single_finding_chain_is_exact(self):
        exact, approx = fan_out_ratio(StarConfig(p=(0.7,), q=(0.4,), rho_f=(0.0,)))
        assert exact == pytest.approx(1.0)
        assert approx == pytest.approx(1.0)

    def test_spot_value_transparent_edges(self):
        exact, approx = fan_out_ratio(
            StarConfig(p=(0.5,), q=(1.0, 1.0, 1.0), rho_f=(0.0, 0.0, 0.0))
        )
        assert exact == pytest.approx(4.0)
        assert approx == pytest.approx(4.0)

    def test_spot_value_small_leaks(self):
        exact, approx = fan_out_ratio(
            StarConfig(p=(0.5,), q=(0.8, 0.9), rho_f=(0.01, 0.01))
        )
        assert exact == pytest.approx(2.000277778, abs=1e-6)
        assert approx == pytest.approx(2.0)

    def test_zero_denominator_rejected(self):
        with pytest.raises(DomainError):
            fan_out_ratio(StarConfig(p=(0.0,), q=(0.5,), rho_f=(0.0,)))

    def test_fan_in_required(self):
        with pytest.raises(DomainError, match="fan_out_ratio needs fan-in 1"):
            fan_out_ratio(StarConfig(p=(0.5, 0.5), q=(0.5,)))

    @pytest.mark.parametrize(
        "p,q,rho_f,message",
        [
            (0.5, [0.5, 0.0], [0.0, 0.0], r"is zero \(p or some q is 0\)"),
            (0.01, [0.5] * 200, [0.0] * 200, "ratio overflows a double"),
            (0.5, [1e-300] * 3, [0.5] * 3, "ratio overflows a double"),
            (0.5, [], [], "star needs at least one disease and one finding"),
            (0.5, [0.5, 0.5], [0.0], "one finding leak per finding eta"),
        ],
    )
    def test_errors_say_which(self, p, q, rho_f, message):
        with pytest.raises(DomainError, match=message):
            fan_out_ratio(StarConfig(p=(p,), q=tuple(q), rho_f=tuple(rho_f)))

    @pytest.mark.parametrize("n", [1060, 1100])
    @pytest.mark.parametrize("leak", [0.0, 0.01])
    def test_survives_the_product_underflowing(self, n, leak):
        # prod(p q_j) = 0.495**n is subnormal at 1060 and 0 at 1100
        exact, approx = fan_out_ratio(
            StarConfig(p=(0.99,), q=(0.5,) * n, rho_f=(leak,) * n)
        )
        assert exact == pytest.approx(0.99 ** (1 - n), rel=1e-12)
        assert approx == pytest.approx(0.99 ** (1 - n), rel=1e-12)
        assert fan_out_ratio(StarConfig(p=(1.0,), q=(1e-200,) * 3, rho_f=(0.1,) * 3)) == (1.0, 1.0)

    def test_exact_at_least_one_when_leak_free(self):
        rng = SplitMix64(59)
        for _ in range(100):
            n = rng.randint(1, 4)
            p = rng.uniform(0.05, 1.0)
            q = [rng.uniform(0.05, 1.0) for _ in range(n)]
            exact, _ = fan_out_ratio(StarConfig(p=(p,), q=tuple(q), rho_f=(0.0,) * n))
            assert exact >= 1.0 - 1e-12

    def test_leak_free_exact_equals_approx_for_any_q(self):
        # with zero leaks the q terms cancel: exact is 1 / p**(n-1) exactly
        rng = SplitMix64(67)
        for _ in range(20):
            n = rng.randint(1, 4)
            p = rng.uniform(0.1, 0.9)
            q = [rng.uniform(0.1, 1.0) for _ in range(n)]
            exact, approx = fan_out_ratio(StarConfig(p=(p,), q=tuple(q), rho_f=(0.0,) * n))
            assert exact == pytest.approx(approx, rel=1e-12)

    def test_approx_error_shrinks_as_leaks_shrink(self):
        p = 0.4

        def gap(q, rho_f):
            return abs(fan_out_ratio(StarConfig(p=(p,), q=q, rho_f=rho_f))[0] - 1 / p)

        gap_big_leak = gap((0.6, 0.6), (0.05, 0.05))
        gap_small_leak = gap((0.6, 0.6), (1e-4, 1e-4))
        assert gap_small_leak < gap_big_leak
        # and a higher q damps the leak-driven error too
        gap_high_q = gap((0.99, 0.99), (0.05, 0.05))
        assert gap_high_q < gap_big_leak

    def test_agrees_with_inference_likelihood_ratio(self):
        rng = SplitMix64(61)
        for _ in range(10):
            n = rng.randint(2, 4)
            cfg = StarConfig(
                p=(rng.uniform(0.2, 0.9),),
                q=tuple(rng.uniform(0.2, 0.9) for _ in range(n)),
                rho_f=tuple(0.0 for _ in range(n)),
            )
            three = star_network(cfg)
            two = level_reduce(three).reduced
            cond = {"d01": True}
            event = {f"f{j + 1:02d}": True for j in range(n)}
            lik3 = event_prob(three, {**cond, **event}) / event_prob(three, cond)
            lik2 = event_prob(two, {**cond, **event}) / event_prob(two, cond)
            exact, _ = fan_out_ratio(cfg)
            assert exact == pytest.approx(lik3 / lik2, rel=1e-10)


class TestStarConfig:
    def test_mixed_fan_rejected(self):
        with pytest.raises(DomainError):
            StarConfig(p=(0.5, 0.5), q=(0.5, 0.5), rho_f=(0.0, 0.0))

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            ({"p": (), "q": (0.5,)}, "at least one disease and one finding"),
            ({"p": (0.5,), "q": ()}, "at least one disease and one finding"),
            ({"p": (0.5,), "q": (0.5, 0.5)}, "one finding leak per finding eta"),
            ({"p": (0.5, 0.5), "q": (0.5,), "priors": (0.1,)}, "one prior per disease eta"),
        ],
    )
    def test_count_mismatches_rejected(self, kwargs, message):
        with pytest.raises(DomainError, match=message):
            StarConfig(**kwargs)

    def test_network_round_trip(self):
        cfg = StarConfig(
            p=(0.3, 0.8), q=(0.6,), rho_i=0.05, rho_f=(0.02,), priors=(0.1, 0.4)
        )
        back = star_config_from_network(star_network(cfg))
        assert back == cfg

    def test_chain_recovers_as_unit_star(self):
        cfg = star_config_from_network(chain_net(prior=0.3, p=0.8, q=0.9, rho_c=0.1))
        assert cfg is not None
        assert (cfg.fan_in, cfg.fan_out) == (1, 1)
        assert cfg.p == (0.8,)
        assert cfg.q == (0.9,)

    def test_unanalyzable_shapes_return_none(self):
        from nornet import Edge, Network, disease, finding, ips

        # mixed fan-in and fan-out has no closed form
        assert star_config_from_network(fork_net(p=(0.3, 0.5), q=(0.4, 0.6))) is None
        # more than one hub is not a star
        two_hub = Network(
            "two-hub",
            [disease("d", 0.1), ips("b1"), ips("b2"), finding("f", 0.0, 1)],
            [Edge("d", "b1", 0.5), Edge("d", "b2", 0.5), Edge("b1", "f", 0.5),
             Edge("b2", "f", 0.5)],
        )
        assert star_config_from_network(two_hub) is None
        # a direct disease->finding edge bypassing the hub disqualifies it
        bypass = Network(
            "bypass",
            [disease("d", 0.1), ips("b"), finding("f", 0.0, 1)],
            [Edge("d", "b", 0.5), Edge("b", "f", 0.5), Edge("d", "f", 0.5)],
        )
        assert star_config_from_network(bypass) is None
        # a hub without parents has no fan-in to analyze
        orphan_hub = Network(
            "orphan-hub",
            [disease("d", 0.1), ips("b"), finding("f", 0.0, 1)],
            [Edge("b", "f", 0.5)],
        )
        assert star_config_from_network(orphan_hub) is None
