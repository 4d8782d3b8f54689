import functools
import hashlib
import math
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from conftest import chain_net, criterion_8_net, diamond_net, fork_net, random_unit_fan_net
from nornet import (
    DomainError,
    Edge,
    GeneratorConfig,
    Network,
    NodeKind,
    SplitMix64,
    ValidationError,
    absorb_leak,
    compose_serial,
    disease,
    eliminate_ips,
    event_prob,
    finding,
    generate_network,
    ips,
    level_reduce,
    merge_parallel,
    posterior,
    provenance_csv,
    serialize_network,
)
from nornet import reduction


def chained_net(seed):
    """Generated network with chained intermediates, fan 1..4 and leaks up
    to 0.3, so eliminations compose paths, merge parallel routes and
    absorb leaks that earlier eliminations already changed."""
    return generate_network(
        GeneratorConfig(
            3 + seed % 3,
            6 + seed % 7,
            12 + seed % 9,
            fan_in_range=(1, 4),
            fan_out_range=(1, 4),
            ips_chain_prob=0.5,
            leak_range=(0.0, 0.3),
            seed=seed,
        )
    )


class TestPrimitives:
    def test_compose_serial(self):
        assert compose_serial(0.4, 0.5) == pytest.approx(0.2)
        assert compose_serial(1.0, 0.7) == 0.7
        assert compose_serial(0.0, 0.7) == 0.0
        with pytest.raises(DomainError):
            compose_serial(1.2, 0.5)

    def test_merge_parallel(self):
        assert merge_parallel([0.2, 0.3]) == pytest.approx(0.44)
        assert merge_parallel([0.37]) == pytest.approx(0.37)
        assert merge_parallel([1.0, 0.9]) == 1.0
        with pytest.raises(DomainError):
            merge_parallel([])

    def test_tiny_etas_merge_to_their_sum(self):
        # 1 - (1 - 1e-20)**2 cancels to 0.0 in the plain form
        assert absorb_leak(1e-20, 1.0, 1e-20) == merge_parallel([1e-20, 1e-20]) == 2e-20

    def test_absorb_leak(self):
        assert absorb_leak(0.1, 0.5, 0.2) == pytest.approx(0.24)
        assert absorb_leak(0.0, 0.5, 0.2) == pytest.approx(0.2)
        assert absorb_leak(0.3, 1.0, 0.0) == pytest.approx(0.3)


class TestEliminateIps:
    def test_chain_compose_and_absorb(self):
        net = chain_net(prior=0.3, p=0.4, q=0.5, rho_b=0.1, rho_c=0.2)
        out = eliminate_ips(net, "b")
        assert out.edge("a", "c").eta == pytest.approx(0.2)
        assert out.node("c").leak == pytest.approx(0.24)
        assert "b" not in out.node_ids
        assert out.violations() == ()

    def test_fork_creates_all_pairs(self):
        net = fork_net(p=(0.3, 0.5, 0.7), q=(0.4, 0.6))
        out = eliminate_ips(net, "i0")
        assert len(out.edges) == 6
        for k, pk in enumerate((0.3, 0.5, 0.7)):
            for j, qj in enumerate((0.4, 0.6)):
                assert out.edge(f"d{k}", f"f{j}").eta == pytest.approx(pk * qj)

    def test_diamond_merges_parallel_paths(self):
        net = diamond_net(p1=0.3, q1=0.5, p2=0.6, q2=0.7)
        out = eliminate_ips(eliminate_ips(net, "b1"), "b2")
        assert len(out.edges) == 1
        expected = 1 - (1 - 0.3 * 0.5) * (1 - 0.6 * 0.7)
        assert out.edge("a", "c").eta == pytest.approx(expected)

    def test_composed_edge_merges_with_existing_direct_edge(self):
        net = Network(
            "mixed",
            [disease("a", 0.2), ips("b"), finding("c", 0.0, 1)],
            [Edge("a", "b", 0.4), Edge("b", "c", 0.5), Edge("a", "c", 0.3)],
        )
        out = eliminate_ips(net, "b")
        assert out.edge("a", "c").eta == pytest.approx(1 - 0.7 * 0.8)

    def test_underflowed_composed_edge_is_left_out(self):
        # 1e-200 * 1e-200 is 0.0: an eta-0 edge would be invalid, and its
        # factor 1 - 0 multiplies by exactly 1.0, so it is not added
        net = Network(
            "tiny",
            [disease("d", 0.3), ips("i"), finding("f", 0.1, 1)],
            [Edge("d", "i", 1e-200), Edge("i", "f", 1e-200)],
        )
        report = level_reduce(net)
        assert report.reduced.edges == ()
        assert report.provenance == ()
        assert report.reduced.violations() == ()
        assert eliminate_ips(net, "i") == report.reduced
        assert posterior(report.reduced, {"f": True}) == posterior(net, {"f": True})

    def test_merged_tiny_etas_stay_a_valid_edge(self):
        # the composed 1e-20 merges into the direct 1e-20 edge; the plain
        # OR-combination would give the invalid eta 0.0
        net = Network(
            "tiny",
            [disease("d", 0.3), ips("i"), finding("f", 0.1, 1)],
            [Edge("d", "f", 1e-20), Edge("d", "i", 1e-20), Edge("i", "f", 1.0)],
        )
        reduced = level_reduce(net).reduced
        assert reduced.edges == (Edge("d", "f", 2e-20),)
        assert reduced.violations() == ()
        assert eliminate_ips(net, "i") == reduced

    def test_non_ips_rejected(self):
        net = chain_net()
        with pytest.raises(DomainError):
            eliminate_ips(net, "a")
        with pytest.raises(DomainError):
            eliminate_ips(net, "c")

    def test_no_successor_ips_vanishes_without_leak_effect(self):
        net = Network(
            "deadend",
            [disease("a", 0.2), ips("b", 0.4), finding("c", 0.15, 1)],
            [Edge("a", "b", 0.5), Edge("a", "c", 0.6)],
        )
        out = eliminate_ips(net, "b")
        assert out.node("c").leak == pytest.approx(0.15)
        assert len(out.edges) == 1

    def test_no_predecessor_ips_leak_absorbed_exactly(self):
        # a root intermediate is pure leak; absorbing it must preserve the
        # successor's marginal exactly (single successor case)
        net = Network(
            "rootips",
            [disease("a", 0.2), ips("b", 0.3), finding("c", 0.2, 1)],
            [Edge("b", "c", 0.5)],
        )
        before = oracle.all_marginals(net)["c"]
        out = eliminate_ips(net, "b")
        assert out.node("c").leak == pytest.approx(1 - (1 - 0.15) * (1 - 0.2))
        assert oracle.all_marginals(out)["c"] == pytest.approx(before, abs=1e-15)

    def test_invalid_networks(self):
        # a cycle through b, a self-loop on b and a leak out of range all
        # fail the validity gate before any rewiring
        net = Network(
            "cycle",
            [disease("a", 0.2), ips("b", 0.1), ips("c", 0.2)],
            [Edge("a", "b", 0.5), Edge("c", "b", 0.5), Edge("b", "c", 0.4)],
        )
        loop = Network(
            "loop",
            [disease("a", 0.2), ips("b"), finding("c", 0.0, 1)],
            [Edge("a", "b", 0.5), Edge("b", "b", 0.5), Edge("b", "c", 0.4)],
        )
        leak = Network("leak", [disease("a", 0.2), ips("b", 2.0)], [Edge("a", "b", 0.5)])
        for invalid, code in ((net, "dag"), (loop, "dag"), (leak, "leak-range")):
            with pytest.raises(ValidationError, match=code):
                eliminate_ips(invalid, "b")


class TestLevelReduce:
    def test_zero_ips_network_is_fixed_point(self):
        net = Network(
            "flat",
            [disease("d", 0.1), finding("f", 0.05, 2)],
            [Edge("d", "f", 0.5)],
        )
        report = level_reduce(net)
        assert report.reduced == net
        assert report.eliminated_ips_order == ()
        assert report.param_count_original == report.param_count_reduced

    def test_star_parameter_counts(self):
        net = fork_net(p=(0.3, 0.5, 0.7), q=(0.4, 0.6))
        report = level_reduce(net)
        assert report.param_count_original == 5
        assert report.param_count_reduced == 6

    @pytest.mark.parametrize("fan,counts", [((1, 2), (89, 86)), ((3, 4), (116, 120))])
    def test_criterion_8_parameter_counts(self, fan, counts):
        # the reduction is smaller at fan 1..2 but larger at fan 3..4
        report = level_reduce(criterion_8_net(fan))
        assert (report.param_count_original, report.param_count_reduced) == counts

    def test_ips_chain_composes_through(self):
        net = Network(
            "ipschain",
            [disease("a", 0.2), ips("b1"), ips("b2"), finding("c", 0.0, 1)],
            [Edge("a", "b1", 0.6), Edge("b1", "b2", 0.5), Edge("b2", "c", 0.4)],
        )
        report = level_reduce(net)
        assert report.eliminated_ips_order == ("b1", "b2")
        assert len(report.reduced.edges) == 1
        assert report.reduced.edge("a", "c").eta == pytest.approx(0.6 * 0.5 * 0.4)
        # enumeration oracle: the single-path compose is exact when leak-free
        want = oracle.conditional(net, {"c": True}, {"a": True})
        got = oracle.conditional(report.reduced, {"c": True}, {"a": True})
        assert got == pytest.approx(want, abs=1e-14)

    def test_reduced_has_only_diseases_and_findings(self):
        report = level_reduce(fork_net())
        kinds = {n.kind for n in report.reduced.nodes}
        assert NodeKind.IPS not in kinds
        assert report.reduced.violations() == ()

    def test_preserves_priors_phases_and_ids(self):
        net = fork_net(priors=(0.11, 0.22, 0.33))
        report = level_reduce(net)
        for node in net.nodes:
            if node.kind is NodeKind.IPS:
                continue
            kept = report.reduced.node(node.id)
            assert kept.prior == node.prior
            assert kept.phase == node.phase

    def test_idempotent(self):
        for seed in (0, 1, 2):
            net = random_unit_fan_net(seed)
            once = level_reduce(net).reduced
            twice = level_reduce(once).reduced
            assert twice == once

    def test_provenance_paths_and_etas(self):
        net = diamond_net(p1=0.3, q1=0.5, p2=0.6, q2=0.7)
        report = level_reduce(net)
        (entry,) = report.provenance
        assert entry.reduced_edge == ("a", "c")
        assert entry.source_paths == (("a", "b1", "c"), ("a", "b2", "c"))
        assert entry.composed_etas == pytest.approx((0.15, 0.42))
        # every provenance path starts and ends at the reduced edge
        for prov in report.provenance:
            for path in prov.source_paths:
                assert path[0] == prov.reduced_edge[0]
                assert path[-1] == prov.reduced_edge[1]

    def test_provenance_covers_direct_edges(self):
        net = Network(
            "mixed",
            [disease("a", 0.2), ips("b"), finding("c", 0.0, 1)],
            [Edge("a", "b", 0.4), Edge("b", "c", 0.5), Edge("a", "c", 0.3)],
        )
        report = level_reduce(net)
        (entry,) = report.provenance
        assert entry.source_paths == (("a", "b", "c"), ("a", "c"))
        assert entry.composed_etas == pytest.approx((0.2, 0.3))

    def test_equals_successive_eliminations(self):
        for seed in range(20):
            net = chained_net(seed)
            report = level_reduce(net)
            assert report.reduced == functools.reduce(
                eliminate_ips, report.eliminated_ips_order, net
            )

    def test_reversed_order_gives_another_network(self):
        # composing and merging do not commute once paths through chained
        # intermediates merge, which is why level_reduce freezes its order
        def reduce_both_ways(fan):
            net = criterion_8_net(fan)
            report = level_reduce(net)
            backward = functools.reduce(
                eliminate_ips, reversed(report.eliminated_ips_order), net
            )
            etas = {(e.src, e.dst): e.eta for e in report.reduced.edges}
            other = {(e.src, e.dst): e.eta for e in backward.edges}
            assert other.keys() == etas.keys()
            return [(etas[k], other[k]) for k in etas if etas[k] != other[k]]

        differ = reduce_both_ways((3, 4))
        assert len(differ) == 66
        assert max(abs(a - b) for a, b in differ) == pytest.approx(0.2267, abs=1e-4)
        differ = reduce_both_ways((1, 2))
        assert len(differ) == 5
        assert all(abs(a - b) == math.ulp(max(a, b)) for a, b in differ)

    def test_reduced_file_and_provenance_are_pinned(self):
        # recorded when level_reduce still built a network per intermediate
        report = level_reduce(chained_net(11))
        text = serialize_network(report.reduced) + provenance_csv(report)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "9a856e846cb884a067fcc63bd3372b88da8bf342b8e41e7dff62b3fae96d33d6"
        )

    def test_builds_one_network(self, monkeypatch):
        built = []

        class CountingNetwork(Network):
            def __init__(self, *args):
                built.append(args[0])
                super().__init__(*args)

        monkeypatch.setattr(reduction, "Network", CountingNetwork)
        for seed in (0, 11):
            net = chained_net(seed)
            built.clear()
            report = level_reduce(net)
            assert len(report.eliminated_ips_order) > 1
            assert built == [net.name]

    def test_invalid_network_rejected(self):
        from nornet import ValidationError

        bad = Network(
            "bad", [disease("d", 3.0), finding("f", 0.0, 1)], [Edge("d", "f", 0.5)]
        )
        with pytest.raises(ValidationError):
            level_reduce(bad)


class TestExactnessProperties:
    def test_unit_fan_leak_free_posteriors_identical(self):
        for seed in range(6):
            net = random_unit_fan_net(seed)
            reduced = level_reduce(net).reduced
            findings = [n.id for n in net.nodes if n.kind is NodeKind.FINDING]
            diseases = [n.id for n in net.nodes if n.kind is NodeKind.DISEASE]
            for fid in findings:
                for value in (True, False):
                    full_post = posterior(net, {fid: value}).posteriors
                    red_post = posterior(reduced, {fid: value}).posteriors
                    for did in diseases:
                        assert full_post[did] == pytest.approx(
                            red_post[did], abs=1e-12
                        )

    def test_chain_conditional_on_absent_disease_exact_with_leaks(self):
        rng = SplitMix64(17)
        for _ in range(10):
            net = chain_net(
                prior=rng.uniform(0.05, 0.9),
                p=rng.uniform(0.1, 1.0),
                q=rng.uniform(0.1, 1.0),
                rho_b=rng.uniform(0.0, 0.5),
                rho_c=rng.uniform(0.0, 0.5),
            )
            reduced = level_reduce(net).reduced
            full = event_prob(net, {"c": True, "a": False})
            full /= event_prob(net, {"a": False})
            red = event_prob(reduced, {"c": True, "a": False})
            red /= event_prob(reduced, {"a": False})
            assert red == pytest.approx(full, abs=1e-12)

    def test_fan_in_overestimate_direction(self):
        # zero leaks, all diseases present, fan-in m >= 2, fan-out 1:
        # the reduced network's finding likelihood can only be higher
        rng = SplitMix64(23)
        for _ in range(20):
            m = rng.randint(2, 4)
            p = tuple(rng.uniform(0.05, 0.95) for _ in range(m))
            q = rng.uniform(0.05, 0.95)
            net = fork_net(p=p, q=(q,), rho_i=0.0, rho_f=(0.0,))
            reduced = level_reduce(net).reduced
            cond = {f"d{k}": True for k in range(m)}
            lik_full = event_prob(net, {**cond, "f0": True}) / event_prob(net, cond)
            lik_red = event_prob(reduced, {**cond, "f0": True}) / event_prob(
                reduced, cond
            )
            assert lik_red > lik_full  # strict: q < 1 and >= 2 positive etas

    def test_fan_out_underestimate_ratio_is_power_of_p(self):
        # zero leaks, fan-in 1, fan-out n >= 2, all findings present:
        # reduced likelihood / full likelihood == p**(n-1), an underestimate
        rng = SplitMix64(31)
        for _ in range(20):
            n = rng.randint(2, 4)
            p = rng.uniform(0.1, 0.9)
            q = tuple(rng.uniform(0.1, 0.95) for _ in range(n))
            net = fork_net(p=(p,), q=q, rho_i=0.0, rho_f=tuple(0.0 for _ in q))
            reduced = level_reduce(net).reduced
            cond = {"d0": True}
            event = {f"f{j}": True for j in range(n)}
            lik_full = event_prob(net, {**cond, **event}) / event_prob(net, cond)
            lik_red = event_prob(reduced, {**cond, **event}) / event_prob(
                reduced, cond
            )
            assert lik_red < lik_full
            assert lik_red / lik_full == pytest.approx(p ** (n - 1), rel=1e-10)


# Seeded and derandomized, so every run checks the same examples.
PROPERTY = settings(database=None, derandomize=True, max_examples=200, deadline=None)
TINY = [0.0, 5e-324, 1e-300, 1e-200, 1e-20, 1e-17, 2.0**-53]
probabilities = st.sampled_from(TINY + [0.5, 1.0]) | st.floats(0.0, 1.0)


@PROPERTY
@given(st.lists(probabilities, min_size=1, max_size=6))
def test_merge_parallel_is_the_plain_form_unless_it_cancels(xs):
    plain = 1.0 - math.prod(1.0 - x for x in xs)
    merged = merge_parallel(xs)
    if plain != 0.0:
        assert merged == plain
    if any(xs):
        assert merged > 0.0


@PROPERTY
@given(
    seed=st.integers(0, 2**16),
    etas=st.lists(st.sampled_from(TINY[1:] + [1.0]), min_size=1, max_size=8),
    leaks=st.lists(st.sampled_from(TINY + [1.0]), min_size=1, max_size=8),
)
def test_reduction_with_degenerate_parameters_validates(seed, etas, leaks):
    net = generate_network(
        GeneratorConfig(2, 4, 5, fan_in_range=(1, 3), fan_out_range=(1, 3),
                        ips_chain_prob=0.5, seed=seed)
    )
    nodes = [
        n if n.kind is NodeKind.DISEASE else replace(n, leak=leaks[k % len(leaks)])
        for k, n in enumerate(net.nodes)
    ]
    edges = [Edge(e.src, e.dst, etas[k % len(etas)]) for k, e in enumerate(net.edges)]
    degenerate = Network(net.name, nodes, edges)
    assert degenerate.violations() == ()
    assert level_reduce(degenerate).reduced.violations() == ()


FAILING_PROPERTY = """\
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(x):
    assert x < 0
"""


def test_a_failing_property_is_reported_as_a_failure(tmp_path):
    # under the repository's pytest settings, where warnings are errors
    (tmp_path / "test_fails.py").write_text(FAILING_PROPERTY)
    config = Path(__file__).resolve().parent.parent / "pyproject.toml"
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(config),
         "--rootdir", str(tmp_path), "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed" in run.stdout
    assert "INTERNALERROR" not in run.stdout + run.stderr
