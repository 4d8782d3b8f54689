import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from nornet import inference
from conftest import chain_net, criterion_8_net, fork_net
from nornet import (
    DomainError,
    Edge,
    EvidenceError,
    IncompleteAssignmentError,
    Network,
    NodeKind,
    PosteriorResult,
    SplitMix64,
    ValidationError,
    disease,
    event_prob,
    finding,
    generate_cases,
    generate_network,
    GeneratorConfig,
    ips,
    joint_prob,
    marginal,
    posterior,
)
from nornet.model import row_prob


def _shared_finding_net(priors, eta=0.3):
    """One leak-free finding ``f`` caused by one disease per prior."""
    nodes = [disease(f"d{k:02d}", prior) for k, prior in enumerate(priors)]
    nodes.append(finding("f", 0.0, 1))
    edges = [Edge(f"d{k:02d}", "f", eta) for k in range(len(priors))]
    return Network("wide", nodes, edges)


def _unobserved(net, evidence):
    """How many nodes a posterior leaves unobserved once barren nodes are
    pruned: the diseases and every ancestor of the evidence, less the
    evidence."""
    kept = {n.id for n in net.nodes_of_kind(NodeKind.DISEASE)}
    stack = list(evidence)
    while stack:
        nid = stack.pop()
        if nid not in kept:
            kept.add(nid)
            stack.extend(pid for pid, _ in net.parents_of(nid))
    return len(kept) - len(evidence)


class TestJointProb:
    def test_deterministic_chain_all_present(self):
        net = chain_net(prior=0.5, p=1.0, q=1.0, rho_b=0.0, rho_c=0.0)
        assert joint_prob(net, {"a": True, "b": True, "c": True}) == pytest.approx(0.5)

    def test_forced_node_absent_gives_zero(self):
        net = chain_net(prior=0.5, p=1.0, q=1.0, rho_b=0.0, rho_c=0.0)
        assert joint_prob(net, {"a": True, "b": False, "c": False}) == 0.0

    def test_two_disease_one_finding_product(self):
        net = Network(
            "pair",
            [disease("d1", 0.1), disease("d2", 0.2), finding("f", 0.05, 1)],
            [Edge("d1", "f", 0.4), Edge("d2", "f", 0.5)],
        )
        value = joint_prob(net, {"d1": True, "d2": True, "f": True})
        assert value == pytest.approx(0.1 * 0.2 * (1 - 0.95 * 0.6 * 0.5))
        assert value == pytest.approx(0.0143)

    def test_partial_assignment_rejected(self):
        net = chain_net()
        with pytest.raises(IncompleteAssignmentError):
            joint_prob(net, {"a": True})

    def test_matches_oracle_on_random_worlds(self):
        net = fork_net()
        rng = SplitMix64(3)
        for _ in range(20):
            state = {nid: rng.next_float() < 0.5 for nid in net.node_ids}
            assert joint_prob(net, state) == pytest.approx(
                oracle.world_prob(net, state), abs=1e-15
            )


class TestPosterior:
    def test_empty_evidence_returns_priors(self):
        net = fork_net(priors=(0.1, 0.2, 0.3))
        result = posterior(net, {})
        assert result.posteriors["d0"] == pytest.approx(0.1, abs=1e-12)
        assert result.posteriors["d1"] == pytest.approx(0.2, abs=1e-12)
        assert result.posteriors["d2"] == pytest.approx(0.3, abs=1e-12)
        assert result.evidence_likelihood == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_diseases_get_equal_posteriors(self):
        net = Network(
            "sym",
            [disease("d1", 0.15), disease("d2", 0.15), finding("f", 0.01, 1)],
            [Edge("d1", "f", 0.6), Edge("d2", "f", 0.6)],
        )
        result = posterior(net, {"f": True})
        assert result.posteriors["d1"] == pytest.approx(result.posteriors["d2"], abs=1e-14)

    def test_chain_posterior_frozen_oracle_value(self):
        # brute force over the 4 hidden (a, b) worlds with c present:
        #   P(c) = 0.3*0.8*0.91 + 0.3*0.2*0.1 + 0.7*0.1 = 0.2944
        #   P(a and c) = 0.2244, so P(a | c) = 561/736
        net = chain_net(prior=0.3, p=0.8, q=0.9, rho_b=0.0, rho_c=0.1)
        result = posterior(net, {"c": True})
        assert result.posteriors["a"] == pytest.approx(0.7622282608695652, abs=1e-12)
        assert result.evidence_likelihood == pytest.approx(0.2944, abs=1e-12)
        assert result.posteriors["a"] == pytest.approx(
            oracle.posterior(net, "a", {"c": True}), abs=1e-12
        )

    def test_two_disease_star_likelihood_ratio_matches_closed_form(self):
        # fan-in 2 star, both diseases conditioned present, zero leaks:
        # P3(f|d)/P2(f|d) = (p1+p2-p1p2) / (p1+p2-q p1p2) = 0.75/0.875
        three = fork_net(p=(0.5, 0.5), q=(0.5,), rho_i=0.0, rho_f=(0.0,))
        cond = {"d0": True, "d1": True}
        p3 = oracle.conditional(three, {"f0": True}, cond)
        p3_pkg = event_prob(three, {**cond, "f0": True}) / event_prob(three, cond)
        assert p3_pkg == pytest.approx(p3, abs=1e-14)
        two = Network(
            "two",
            [disease("d0", 0.2), disease("d1", 0.2), finding("f0", 0.0, 1)],
            [Edge("d0", "f0", 0.25), Edge("d1", "f0", 0.25)],
        )
        p2 = event_prob(two, {**cond, "f0": True}) / event_prob(two, cond)
        assert p3_pkg / p2 == pytest.approx(0.857142857, abs=1e-9)

    def test_conjunction_posterior(self):
        net = fork_net(p=(0.5, 0.5), q=(0.5,), priors=(0.3, 0.3))
        result = posterior(net, {"f0": True}, conjunction=["d0", "d1"])
        expected = oracle.event_prob(net, {"d0": True, "d1": True, "f0": True})
        expected /= oracle.event_prob(net, {"f0": True})
        assert result.conjunction == pytest.approx(expected, abs=1e-12)

    def test_a_str_conjunction_is_one_id(self):
        net = fork_net(p=(0.5, 0.5), q=(0.5,), priors=(0.3, 0.3))
        result = posterior(net, {"f0": True}, conjunction="d0")
        assert result.conjunction == posterior(net, {"f0": True}, conjunction=["d0"]).conjunction
        assert result.conjunction == pytest.approx(result.posteriors["d0"], abs=1e-15)

    def test_evidence_on_non_finding_rejected(self):
        # a disease and an intermediate, each beside a finding
        net = chain_net()
        for nid in ("a", "b"):
            with pytest.raises(DomainError) as err:
                posterior(net, {"c": True, nid: True})
            assert str(err.value) == f"evidence node {nid!r} is not a finding"

    def test_unknown_method_rejected(self):
        with pytest.raises(DomainError, match="unknown inference method 'bogus'"):
            posterior(chain_net(), {"c": True}, method="bogus")

    def test_impossible_evidence_is_error(self):
        # leak-free finding with absent-only cause cannot be present
        net = Network(
            "impossible",
            [disease("d", 0.0), finding("f", 0.0, 1)],
            [Edge("d", "f", 0.9)],
        )
        with pytest.raises(EvidenceError):
            posterior(net, {"f": True})

    def test_evidence_errors_come_before_validity(self):
        # evidence ids are checked before the network: an unknown id or a
        # non-finding is a DomainError even on a cyclic network
        cyclic = Network(
            "cyc",
            [disease("d", 0.1), ips("b1"), ips("b2"), finding("f", 0.0, 1)],
            [Edge("d", "b1", 0.5), Edge("b1", "b2", 0.5), Edge("b2", "b1", 0.5),
             Edge("b2", "f", 0.5)],
        )
        with pytest.raises(DomainError, match="unknown node 'ghost'"):
            posterior(cyclic, {"f": True, "ghost": True})
        with pytest.raises(DomainError, match="'d' is not a finding"):
            posterior(cyclic, {"d": True})
        with pytest.raises(ValidationError, match="dag"):
            posterior(cyclic, {"f": True})

    @pytest.mark.parametrize(
        "ids, named",
        [
            (("f0", "i0", "ghost", "d0"), "evidence node 'i0' is not a finding"),
            (("ghost", "f1", "d0"), "unknown node 'ghost'"),
            (("f1", "d2", "i0"), "evidence node 'd2' is not a finding"),
            (("f0", "f1", "nope", "ghost"), "unknown node 'nope'"),
        ],
    )
    def test_the_first_bad_id_in_the_callers_order_is_named(self, ids, named):
        with pytest.raises(DomainError) as err:
            posterior(fork_net(), dict.fromkeys(ids, True))
        assert str(err.value) == named

    def test_a_value_is_read_in_the_callers_order_too(self):
        class Unreadable:
            def __bool__(self):
                raise ZeroDivisionError("unreadable")

        with pytest.raises(ZeroDivisionError):
            posterior(fork_net(), {"f0": Unreadable(), "ghost": True})
        with pytest.raises(DomainError, match="unknown node 'ghost'"):
            posterior(fork_net(), {"ghost": True, "f0": Unreadable()})

    def test_event_prob_accepts_any_node(self):
        net = fork_net()
        assignment = {"f1": True, "i0": True, "d0": False}
        assert event_prob(net, assignment) == pytest.approx(
            oracle.event_prob(net, assignment), abs=1e-12
        )
        with pytest.raises(DomainError, match="unknown node 'ghost'"):
            event_prob(net, {"d0": True, "ghost": True})

    def test_positive_descendant_never_decreases_single_parent_posterior(self):
        rng = SplitMix64(29)
        for _ in range(25):
            net = chain_net(
                prior=rng.uniform(0.05, 0.9),
                p=rng.uniform(0.1, 1.0),
                q=rng.uniform(0.1, 1.0),
                rho_b=0.0,
                rho_c=0.0,
            )
            base = posterior(net, {}).posteriors["a"]
            bumped = posterior(net, {"c": True}).posteriors["a"]
            assert bumped >= base - 1e-12


class TestMarginal:
    def test_disease_marginal_is_prior(self):
        net = chain_net(prior=0.3)
        assert marginal(net, "a") == pytest.approx(0.3, abs=1e-12)

    def test_orphan_finding_marginal_is_leak(self):
        net = Network("orphan", [disease("d", 0.5), finding("f", 0.25, 1)], [])
        assert marginal(net, "f") == pytest.approx(0.25, abs=1e-12)

    def test_deterministic_chain_propagates(self):
        net = chain_net(prior=0.5, p=1.0, q=1.0, rho_b=0.0, rho_c=0.0)
        assert marginal(net, "c") == pytest.approx(0.5, abs=1e-12)

    def test_unknown_node_rejected(self):
        with pytest.raises(DomainError):
            marginal(chain_net(), "ghost")

    def test_matches_oracle_everywhere(self):
        net = fork_net(rho_i=0.02, rho_f=(0.01, 0.03))
        exact = oracle.all_marginals(net)
        for nid in net.node_ids:
            assert marginal(net, nid) == pytest.approx(exact[nid], abs=1e-12)

    @pytest.mark.parametrize("method", ["auto", "enumeration", "elimination"])
    @pytest.mark.parametrize("fan", [(1, 2), (3, 4)])
    def test_is_one_event_prob_pass(self, fan, method):
        net = criterion_8_net(fan)
        for nid in net.node_ids:
            expected = inference._clamp01(event_prob(net, {nid: True}, method=method))
            assert marginal(net, nid, method=method) == expected


class TestEngineAgreement:
    def _random_net(self, seed):
        return generate_network(
            GeneratorConfig(
                n_diseases=2,
                n_ips=3,
                n_findings=6,
                fan_in_range=(1, 2),
                fan_out_range=(1, 3),
                ips_chain_prob=0.3,
                leak_range=(0.0, 0.1),
                seed=seed,
            )
        )

    def test_enumeration_and_elimination_agree(self):
        for seed in range(8):
            net = self._random_net(seed)
            rng = SplitMix64(seed + 1000)
            findings = [n.id for n in net.nodes if n.phase is not None]
            evidence = {
                fid: rng.next_float() < 0.5
                for fid in findings
                if rng.next_float() < 0.5
            }
            try:
                enum_result = posterior(net, evidence, method="enumeration")
            except EvidenceError:
                continue
            elim_result = posterior(net, evidence, method="elimination")
            assert enum_result.evidence_likelihood == pytest.approx(
                elim_result.evidence_likelihood, rel=1e-10
            )
            for did in enum_result.posteriors:
                assert enum_result.posteriors[did] == pytest.approx(
                    elim_result.posteriors[did], abs=1e-10
                )

    def test_both_engines_match_oracle(self):
        net = self._random_net(99)
        evidence = {"f001": True, "f003": False}
        expected = {
            did: oracle.posterior(net, did, evidence)
            for did in ("d001", "d002")
        }
        for method in ("enumeration", "elimination"):
            result = posterior(net, evidence, method=method)
            for did, want in expected.items():
                assert result.posteriors[did] == pytest.approx(want, abs=1e-11)

    def test_normalization_split_over_unobserved_finding(self):
        net = self._random_net(5)
        base = {"f001": True}
        with_f2 = event_prob(net, {**base, "f002": True})
        without_f2 = event_prob(net, {**base, "f002": False})
        assert with_f2 + without_f2 == pytest.approx(
            event_prob(net, base), abs=1e-12
        )

    def test_max_parent_cap_is_clear_error(self):
        net = _shared_finding_net([0.1] * 13)
        with pytest.raises(DomainError, match="parents"):
            posterior(net, {"f": True}, method="elimination")
        # enumeration has no such cap
        result = posterior(net, {"f": True}, method="enumeration")
        assert 0.0 < result.evidence_likelihood < 1.0

    @pytest.mark.parametrize("method", ["enumeration", "auto"])
    def test_enumeration_past_the_recursion_limit_is_a_domain_error(self, method):
        # 2 diseases and 1,200 findings, every third present: auto enumerates
        # its 2 unobserved nodes, one recursion level per kept node
        nodes = [disease("d1", 0.1), disease("d2", 0.2)]
        nodes += [finding(f"f{k}", 0.01, 1) for k in range(1200)]
        edges = [Edge(d, f"f{k}", 0.5) for k in range(1200) for d in ("d1", "d2")]
        net = Network("star", nodes, edges)
        evidence = {f"f{k}": k % 3 == 0 for k in range(1200)}
        with pytest.raises(DomainError, match="cannot take 1202 kept nodes"):
            posterior(net, evidence, method=method)

    def test_auto_dispatch_crosses_threshold(self, monkeypatch):
        # the two engines differ in the last bits here, so exact equality
        # shows which one auto picked
        net = self._random_net(7)
        r_enum = posterior(net, {"f001": True}, method="enumeration")
        r_elim = posterior(net, {"f001": True}, method="elimination")
        assert r_enum != r_elim
        assert posterior(net, {"f001": True}) == r_enum
        monkeypatch.setattr("nornet.inference.DEFAULT_ENUMERATION_THRESHOLD", 0)
        assert posterior(net, {"f001": True}) == r_elim

    @pytest.mark.parametrize("n, method", [(9, "enumeration"), (10, "elimination")])
    def test_auto_enumerates_at_most_nine_unobserved(self, n, method):
        # n diseases stay unobserved; the engines differ in the last bits
        net = _shared_finding_net([0.1] * n)
        results = {m: posterior(net, {"f": True}, method=m) for m in ("enumeration", "elimination")}
        assert results["enumeration"] != results["elimination"]
        assert posterior(net, {"f": True}) == results[method]

    @pytest.mark.parametrize("fan", [(1, 2), (3, 4)])
    def test_auto_follows_the_rule_on_criterion_8_networks(self, fan):
        net = generate_network(
            GeneratorConfig(
                3, 10, 30, fan_in_range=fan, fan_out_range=fan, ips_chain_prob=0.2,
                eta_range=(0.2, 0.9), leak_range=(0.0, 0.05), prior_range=(0.05, 0.4), seed=7,
            )
        )
        case = generate_cases(net, 1, seed=7)[0]
        for phase in range(1, 6):
            evidence = dict(case.cumulative_evidence(phase))
            named = "enumeration" if _unobserved(net, evidence) <= 9 else "elimination"
            other = {"enumeration": "elimination", "elimination": "enumeration"}[named]
            result = posterior(net, evidence)
            assert result == posterior(net, evidence, method=named)
            assert result != posterior(net, evidence, method=other)

    @pytest.mark.parametrize("fan", [(1, 2), (3, 4)])
    def test_evidence_order_does_not_change_the_posterior(self, fan):
        # one shared cache, as in run_experiment: a plan cached for one
        # order serves the other
        net = criterion_8_net(fan)
        case = generate_cases(net, 1, seed=7)[0]
        shared = inference._Elimination(net)
        for phase in range(1, 6):
            evidence = case.cumulative_evidence(phase)
            reverse = dict(reversed(evidence.items()))
            assert len(evidence) > 1
            methods = ("enumeration", "elimination", "auto")
            results = {m: posterior(net, evidence, method=m) for m in methods}
            for method, expected in results.items():
                assert posterior(net, reverse, method=method) == expected
            for ev in (evidence, reverse):
                result = inference._posterior(shared, ev, None, "elimination")
                assert result == results["elimination"]

    @pytest.mark.parametrize("n", [13, 20, 21])
    def test_auto_enumerates_past_the_parent_cap_up_to_twenty_unobserved(self, n):
        # priors of 0 keep enumeration to 2^4 leaves, while auto still
        # counts all n diseases as unobserved
        net = _shared_finding_net((0.1, 0.2, 0.3, 0.4) + (0.0,) * (n - 4))
        if n <= 20:
            assert posterior(net, {"f": True}) == posterior(net, {"f": True}, method="enumeration")
        else:
            with pytest.raises(DomainError, match=r"node 'f' has 21 parents; .* up to 12 parents"):
                posterior(net, {"f": True})


class TestEventProb:
    def test_total_event_is_joint(self):
        net = chain_net()
        state = {"a": True, "b": False, "c": True}
        assert event_prob(net, state) == pytest.approx(
            joint_prob(net, state), abs=1e-15
        )

    def test_empty_event_is_one(self):
        assert event_prob(chain_net(), {}) == pytest.approx(1.0, abs=1e-12)

    def test_accepts_assignment_objects(self):
        net = chain_net()
        assert event_prob(net, {"c": True}) == pytest.approx(
            oracle.event_prob(net, {"c": True}), abs=1e-14
        )

    def test_elimination_with_full_assignment_equals_joint(self):
        # nothing hidden: the elimination engine degenerates to a product
        net = chain_net()
        state = {"a": True, "b": True, "c": False}
        assert event_prob(net, state, method="elimination") == pytest.approx(
            joint_prob(net, state), abs=1e-15
        )

    def test_engines_agree_on_partial_events(self):
        net = fork_net(rho_i=0.03, rho_f=(0.02, 0.05))
        for event in ({"f0": True}, {"d1": True, "f1": False}, {"i0": True}):
            enum = event_prob(net, event, method="enumeration")
            elim = event_prob(net, event, method="elimination")
            assert elim == pytest.approx(enum, rel=1e-12)


class TestDegenerateParameterSweep:
    """Both engines and joint_prob against the oracle on small random
    networks whose parameters include the edge values 0 and 1."""

    ETAS = (0.5, 0.9, 1.0)
    LEAKS = (0.0, 0.1, 1.0)
    PRIORS = (0.0, 0.3, 1.0)
    ENGINES = ("enumeration", "elimination")

    def _net(self, rng, k):
        diseases = [disease(f"d{i}", rng.choice(self.PRIORS)) for i in range(rng.randint(1, 2))]
        hidden = [ips(f"i{i}", rng.choice(self.LEAKS)) for i in range(rng.randint(0, 2))]
        findings = [
            finding(f"f{i}", rng.choice(self.LEAKS), rng.randint(1, 5))
            for i in range(rng.randint(1, 3))
        ]
        sources = [n.id for n in diseases]
        edges = []
        for node in hidden + findings:
            for src in rng.sample(sources, min(len(sources), rng.randint(0, 2))):
                edges.append(Edge(src, node.id, rng.choice(self.ETAS)))
            if node.kind is NodeKind.IPS:
                sources.append(node.id)
        return Network(f"sweep{k}", diseases + hidden + findings, edges)

    def test_engines_and_joint_match_oracle(self):
        rng = random.Random(2013)
        wrong = []
        for k in range(200):
            net = self._net(rng, k)
            ids = net.node_ids
            world = {nid: rng.random() < 0.5 for nid in ids}
            if abs(joint_prob(net, world) - oracle.world_prob(net, world)) > 1e-10:
                wrong.append((k, "joint_prob"))
            event = {nid: rng.random() < 0.5 for nid in ids if rng.random() < 0.5}
            want = oracle.event_prob(net, event)
            findings = [n.id for n in net.nodes_of_kind(NodeKind.FINDING)]
            evidence = {fid: rng.random() < 0.5 for fid in findings if rng.random() < 0.7}
            z = oracle.event_prob(net, evidence)
            for method in self.ENGINES:
                if abs(event_prob(net, event, method=method) - want) > 1e-10:
                    wrong.append((k, method, "event_prob"))
                try:
                    result = posterior(net, evidence, method=method)
                except EvidenceError:
                    if z != 0.0:
                        wrong.append((k, method, "false EvidenceError"))
                    continue
                if z == 0.0 or abs(result.evidence_likelihood - z) > 1e-10:
                    wrong.append((k, method, "evidence likelihood"))
                    continue
                for did, value in result.posteriors.items():
                    if abs(value - oracle.posterior(net, did, evidence)) > 1e-10:
                        wrong.append((k, method, did))
        assert wrong == []


# Seeded and derandomized, so every run checks the same examples.
@settings(database=None, derandomize=True, max_examples=100, deadline=None)
@given(
    sizes=st.tuples(st.integers(1, 3), st.integers(0, 3), st.integers(1, 4)),
    chain=st.sampled_from([0.0, 0.5]),
    seed=st.integers(0, 2**16),
    observed=st.lists(st.sampled_from([None, False, True]), min_size=4, max_size=4),
)
def test_engines_match_the_exact_oracle(sizes, chain, seed, observed):
    # at most 10 nodes with ordinary parameters; the oracle sums the worlds
    # in exact rational arithmetic
    net = generate_network(
        GeneratorConfig(*sizes, fan_in_range=(1, 3), ips_chain_prob=chain,
                        eta_range=(0.05, 0.95), leak_range=(0.0, 0.1),
                        prior_range=(0.05, 0.95), seed=seed)
    )
    findings = [n.id for n in net.nodes_of_kind(NodeKind.FINDING)]
    evidence = {fid: v for fid, v in zip(findings, observed) if v is not None}
    z = oracle.exact_event_prob(net, evidence)
    if z == 0:
        for method in ("enumeration", "elimination"):
            with pytest.raises(EvidenceError):
                posterior(net, evidence, method=method)
        return
    exact = {
        n.id: oracle.exact_event_prob(net, {**evidence, n.id: True}) / z
        for n in net.nodes_of_kind(NodeKind.DISEASE)
    }
    for method in ("enumeration", "elimination"):
        result = posterior(net, evidence, method=method)
        assert result.posteriors.keys() == exact.keys()
        for did, value in result.posteriors.items():
            assert abs(Fraction(value) - exact[did]) <= 1e-12


class TestTinyParameters:
    """An eta or leak x > 0 whose 1 - x rounds to 1.0 keeps its finding
    possible, and so does a product (1 - leak) * prod(1 - eta) below 2**-53
    keep it possibly absent: the evidence is not reported impossible."""

    def test_tiny_eta(self):
        net = Network("c1", [disease("d", 0.5), finding("f", 0.0, 1)], [Edge("d", "f", 1e-20)])
        for method in ("enumeration", "elimination", "auto"):
            result = posterior(net, {"f": True}, method=method)
            assert result == PosteriorResult({"d": 1.0}, 5e-21)

    def test_tiny_leak(self):
        net = Network("c2", [disease("d", 0.5), finding("f", 1e-20, 1)], [])
        for method in ("enumeration", "elimination", "auto"):
            result = posterior(net, {"f": True}, conjunction=["d"], method=method)
            assert result == PosteriorResult({"d": 0.5}, 1e-20, 0.5)

    def test_near_certain_finding_observed_absent(self):
        # P(f absent | d) is 2**-54, whose 1 - x rounds to 1.0
        net = Network(
            "c3", [disease("d", 1.0), finding("f", 1.0 - 2.0**-53, 1)], [Edge("d", "f", 0.5)]
        )
        assert joint_prob(net, {"d": True, "f": False}) == 2.0**-54
        for method in ("enumeration", "elimination", "auto"):
            result = posterior(net, {"f": False}, method=method)
            assert result == PosteriorResult({"d": 1.0}, 2.0**-54)

    def test_hidden_node_absent_below_2_to_the_minus_53(self):
        # f is absent only where i is, with 2**-54 or 2**-53: enumeration's
        # unfixed absent side and the table of hidden i decide it is possible
        net = Network(
            "c5",
            [disease("d", 0.5), ips("i", 1.0 - 2.0**-53), finding("f", 0.0, 1)],
            [Edge("d", "i", 0.5), Edge("i", "f", 1.0)],
        )
        assert joint_prob(net, {"d": True, "i": False, "f": False}) == 2.0**-55
        for method in ("enumeration", "elimination", "auto"):
            result = posterior(net, {"f": False}, method=method)
            assert result == PosteriorResult({"d": 1 / 3}, 3 * 2.0**-55)

    def test_ordinary_etas_observed_absent(self):
        # three present parents at eta 0.999999 leave f absent with about
        # 1e-18, below 2**-53
        net = Network(
            "c4",
            [*[disease(f"d{k}", 0.5) for k in range(3)], finding("f", 0.0, 1)],
            [Edge(f"d{k}", "f", 0.999999) for k in range(3)],
        )
        z = oracle.exact_event_prob(net, {"f": False})
        for method in ("enumeration", "elimination"):
            result = posterior(net, {"f": False}, method=method)
            assert abs(Fraction(result.evidence_likelihood) / z - 1) < 1e-12
            for did, value in result.posteriors.items():
                exact = oracle.exact_event_prob(net, {"f": False, did: True}) / z
                assert abs(Fraction(value) - exact) <= 1e-12


# x with 1 - x == 1.0, ordinary values and the certain 1.0
TINY_OR_ORDINARY = st.sampled_from([1e-20, 1e-200, 5e-324, 0.3, 0.9, 1.0])


# Seeded and derandomized, so every run checks the same examples.
@settings(database=None, derandomize=True, max_examples=100, deadline=None)
@given(
    sizes=st.tuples(st.integers(1, 3), st.integers(0, 3), st.integers(1, 4)),
    seed=st.integers(0, 2**16),
    etas=st.lists(TINY_OR_ORDINARY, min_size=1, max_size=6),
    leaks=st.lists(TINY_OR_ORDINARY | st.just(0.0), min_size=1, max_size=6),
    priors=st.lists(st.sampled_from([0.0, 0.2, 0.7, 1.0]), min_size=1, max_size=3),
    observed=st.lists(st.sampled_from([None, False, True]), min_size=4, max_size=4),
)
def test_evidence_error_iff_the_exact_likelihood_is_zero(
    sizes, seed, etas, leaks, priors, observed
):
    # at most 10 nodes; where the exact likelihood is positive but below the
    # normal range, elimination may still underflow to 0 (scaled numbers
    # are another change), so those examples check nothing; elsewhere the
    # posteriors also match the exact ones
    net = generate_network(
        GeneratorConfig(*sizes, fan_in_range=(1, 3), ips_chain_prob=0.5, seed=seed)
    )
    nodes = [
        replace(n, prior=priors[k % len(priors)]) if n.kind is NodeKind.DISEASE
        else replace(n, leak=leaks[k % len(leaks)])
        for k, n in enumerate(net.nodes)
    ]
    edges = [Edge(e.src, e.dst, etas[k % len(etas)]) for k, e in enumerate(net.edges)]
    net = Network(net.name, nodes, edges)
    findings = [n.id for n in net.nodes_of_kind(NodeKind.FINDING)]
    evidence = {fid: v for fid, v in zip(findings, observed) if v is not None}
    z = oracle.exact_event_prob(net, evidence)
    if 0 < z < Fraction(2) ** -1022:
        return
    for method in ("enumeration", "elimination"):
        if z == 0:
            with pytest.raises(EvidenceError):
                posterior(net, evidence, method=method)
            continue
        result = posterior(net, evidence, method=method)
        assert result.evidence_likelihood > 0.0
        for did, value in result.posteriors.items():
            exact = oracle.exact_event_prob(net, {**evidence, did: True}) / z
            assert abs(Fraction(value) - exact) <= 1e-12


def _per_cell_table(net, nid, scope, held):
    """P(nid | parents) over ``scope`` with one ``row_prob`` call per cell,
    every state bit set afresh."""
    compiled = net.compiled
    i = compiled.index[nid]
    row = compiled.rows[i]
    want = []
    for idx in range(1 << len(scope)):
        state = [False] * len(compiled.rows)
        for v, value in [*held.items(), *[(v, (idx >> b) & 1) for b, v in enumerate(scope)]]:
            state[compiled.index[v]] = value
        want.append(row_prob(row, state, state[i]))
    return want


def test_node_tables_equal_a_per_cell_row_prob_loop():
    # node tables come from one product pass over the parents; the
    # reference calls row_prob once per cell. The finding f sorts between
    # its disease parents d.. and its intermediate parents i.., so its scope
    # is not sorted: its family order puts f's own bit on top. Etas and
    # leaks of 1e-20, 5e-324 and 5e-17 give rows whose plain value cancels
    # to 0.0, and two of 5e-17 an accurate p with 1 - p below 1.0, so the
    # absent side departs from the product too; leaks and etas of
    # 1 - 2**-53 give absent cells that cancel to 0.0. Nodes outside f's
    # family may be held too: a second finding g under the same parents,
    # and a disease h with no children, whose row comes after the d rows
    # and before the i rows. The tables read only f's parents' rows
    rng = random.Random(1996)
    tiny = (1e-20, 5e-324, 5e-17, 1.0 - 2.0**-53)
    cancelled = 0
    for k in range(300):
        diseases = [f"d{j:02d}" for j in range(rng.randint(0, 7))]
        hidden = [f"i{j:02d}" for j in range(rng.randint(not diseases, 5))]
        parents = diseases + hidden
        net = Network(
            "row",
            [
                *[disease(d, rng.choice((0.0, 0.5, 1.0))) for d in [*diseases, "h"]],
                *[ips(i, rng.choice((0.0, 0.3))) for i in hidden],
                finding("f", rng.choice((0.0, 0.05, *tiny)), 1),
                finding("g", rng.choice((0.0, 0.05)), 1),
            ],
            [
                Edge(v, w, rng.choice((1.0, rng.random() or 1.0, *tiny)))
                for v in parents
                for w in ("f", "g")
            ],
        )
        held = {v: rng.random() < 0.5 for v in ["f", "g", "h", *parents] if rng.random() < 0.4}
        tables = [("f", held)]
        # the node itself held at both values
        tables += [("f", {**held, "f": value}) for value in (False, True)]
        # disease rows, unfixed and held at both values
        tables += [(d, {}) for d in diseases[:1]]
        tables += [(d, {d: value}) for d in diseases[:1] for value in (False, True)]
        _, base, row_parents = net.compiled.rows[net.compiled.index["f"]]
        for nid, fixed in tables:
            family = [*parents, nid] if nid == "f" else [nid]
            scope = tuple([v for v in family if v not in fixed])
            got = net.compiled.table(nid, scope, dict(fixed))
            want = _per_cell_table(net, nid, scope, fixed)
            assert list(map(float.hex, got)) == list(map(float.hex, want)), (k, nid, fixed)
            if nid == "f" and "f" not in fixed:
                # f's own bit is the top one: f held absent, then held present
                absent, present = [
                    net.compiled.table(nid, scope[:-1], {**fixed, nid: value})
                    for value in (False, True)
                ]
                assert list(map(float.hex, got)) == list(map(float.hex, absent + present)), k
            if nid == "f":
                # the plain form: p = 1 - c, absent with 1 - p or else c
                for idx, accurate in enumerate(want):
                    state = {**fixed, **{v: (idx >> b) & 1 for b, v in enumerate(scope)}}
                    c = base
                    for j, one_minus_eta in row_parents:
                        if state.get(net.compiled.order[j], False):
                            c *= one_minus_eta
                    p = 1.0 - c
                    cancelled += accurate != (p if state["f"] else 1.0 - p or c)
    # the accurate forms took over in some cells
    assert cancelled > 100


def _plan_view(plan):
    """A plan's entries, step getters and final slots, by value."""
    nodes, steps, final = plan
    return (
        [(repr(read), nid, scope) for read, _, nid, scope in nodes],
        [(repr(related), [repr(r) for r in reads]) for related, reads in steps],
        final,
    )


def _planned(cache, kept, fixed, track):
    """``inference._plans`` and, per fixed-id set, its plan by value with
    the graph and the min-degree order it was planned from."""
    seen = []
    eliminate = inference.min_degree_elimination

    def recorded(graph):
        view = [(v, sorted(n)) for v, n in graph.items()]
        seen.append((view, eliminate(graph)))
        return seen[-1][1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(inference, "min_degree_elimination", recorded)
        plans = inference._plans(cache, kept, fixed, track)
    assert len(seen) == len(plans) == 1 + len(track)
    views = {key: (_plan_view(plan), *s) for (key, plan), s in zip(plans.items(), seen)}
    return plans, views


class TestDerivedPlans:
    """A tracked node's plan, derived from the skeleton of the evidence
    pass, equals the plan made from a skeleton of its own fixed ids."""

    def _check_derivations(self, net, evidence):
        cache = inference._Elimination(net)
        kept = inference._prune_barren(net, frozenset(evidence).union(cache.diseases))
        plans, derived = _planned(cache, kept, evidence, cache.diseases)
        for t in cache.diseases:
            key = frozenset(evidence) | {t}
            direct, views = _planned(cache, kept, {**evidence, t: True}, ())
            assert derived[key] == views[key], (net.name, t)
            # entries are shared with the direct plan's, not copied
            assert all(a is b for a, b in zip(plans[key][0], direct[key][0]))

    def _check_stored_plans(self, cache):
        # every plan a query stored equals one made afresh for its fixed ids
        fresh = inference._Elimination(cache.net)
        for kept, plans, _ in cache.shapes.values():
            for key, plan in plans.items():
                want = inference._plans(fresh, kept, key, ())[key]
                assert _plan_view(plan) == _plan_view(want), (cache.net.name, sorted(key))

    def _posterior(self, cache, evidence, conj):
        try:
            inference._posterior(cache, evidence, conj, "elimination")
        except EvidenceError:
            pass

    @pytest.mark.parametrize("fan", [(1, 2), (3, 4)])
    def test_criterion_8_networks(self, fan):
        net = criterion_8_net(fan)
        cache = inference._Elimination(net)
        conj = list(cache.diseases[:2])
        for case in generate_cases(net, 20, seed=11):
            for phase in range(1, 6):
                evidence = case.cumulative_evidence(phase)
                self._posterior(cache, evidence, conj)
                if case.case_id < 2:
                    self._check_derivations(net, evidence)
        self._check_stored_plans(cache)

    def test_degenerate_parameter_sweep_networks(self):
        rng = random.Random(2013)
        sweep = TestDegenerateParameterSweep()
        for k in range(200):
            net = sweep._net(rng, k)
            findings = [n.id for n in net.nodes_of_kind(NodeKind.FINDING)]
            diseases = [n.id for n in net.nodes_of_kind(NodeKind.DISEASE)]
            cache = inference._Elimination(net)
            for _ in range(3):
                evidence = {fid: rng.random() < 0.5 for fid in findings if rng.random() < 0.7}
                self._check_derivations(net, evidence)
                self._posterior(cache, evidence, diseases[:1] if rng.random() < 0.5 else None)
            self._check_stored_plans(cache)

    def test_one_graph_per_evidence_id_set(self, monkeypatch):
        graphs = []
        build = inference.interaction_graph

        def counted(variables, scopes):
            graphs.append(variables)
            return build(variables, scopes)

        monkeypatch.setattr(inference, "interaction_graph", counted)
        net = criterion_8_net((3, 4))
        cache = inference._Elimination(net)
        id_sets = set()
        for case in generate_cases(net, 10, seed=11):
            for phase in range(1, 6):
                evidence = case.cumulative_evidence(phase)
                id_sets.add(frozenset(evidence))
                inference._posterior(cache, evidence, None, "elimination")
        plans = sum(len(plans) for _, plans, _ in cache.shapes.values())
        assert len(graphs) == len(id_sets) == 5
        assert plans == len(id_sets) * (1 + len(cache.diseases))


class TestEliminationReuse:
    """Elimination posteriors that share one cache of plans and node tables
    equal fresh calls bit for bit: the same finding ids with other values,
    other id sets and repeats, interleaved."""

    def _pitfall_net(self):
        # f1 has two disease parents, so the d1 pass and the d2 pass both
        # fix two of its family members: (d1, f1) and (d2, f1)
        return Network(
            "two-parent finding",
            [disease("d1", 0.2), disease("d2", 0.35), ips("i1", 0.05),
             finding("f1", 0.02, 1), finding("f2", 0.1, 2)],
            [Edge("d1", "f1", 0.4), Edge("d2", "f1", 0.7),
             Edge("d2", "i1", 0.6), Edge("i1", "f2", 0.8)],
        )

    def _networks(self):
        rng = random.Random(77)
        sweep = TestDegenerateParameterSweep()
        yield self._pitfall_net()
        for seed in range(6):
            yield TestEngineAgreement()._random_net(seed)
        for k in range(60):
            yield sweep._net(rng, k)

    def _queries(self, net, rng):
        findings = [n.id for n in net.nodes_of_kind(NodeKind.FINDING)]
        id_sets = [rng.sample(findings, rng.randint(0, len(findings))) for _ in range(3)]
        queries = [{fid: rng.random() < 0.5 for fid in ids} for ids in id_sets for _ in range(3)]
        queries += queries[:4]
        rng.shuffle(queries)
        return queries

    def _answer(self, call):
        try:
            return call()
        except EvidenceError:
            return EvidenceError

    def test_shared_cache_equals_fresh_calls(self):
        rng = random.Random(2026)
        for net in self._networks():
            cache = inference._Elimination(net)
            diseases = [n.id for n in net.nodes_of_kind(NodeKind.DISEASE)]
            for k, evidence in enumerate(self._queries(net, rng)):
                conj = diseases[:2] if k % 2 else None
                shared = self._answer(
                    lambda: inference._posterior(cache, evidence, conj, "elimination")
                )
                fresh = self._answer(
                    lambda: posterior(net, evidence, conjunction=conj, method="elimination")
                )
                assert shared == fresh, (net.name, evidence)
                # a table shared between passes with other fixed ids would
                # be wrong in the fresh call too: check against enumeration
                enum = self._answer(
                    lambda: posterior(net, evidence, method="enumeration")
                )
                if enum is EvidenceError:
                    assert shared is EvidenceError
                    continue
                for did, value in enum.posteriors.items():
                    assert shared.posteriors[did] == pytest.approx(value, abs=1e-10)

    def _phase_evidence(self):
        # phase 3 of one case on the fan 3..4 criterion-8 network: every
        # pass has elimination steps
        net = criterion_8_net((3, 4))
        case = generate_cases(net, 1, seed=7)[0]
        return net, case.cumulative_evidence(3)

    def _count_kernel_calls(self, monkeypatch):
        calls = []
        kernel = inference.sum_product_values

        def counted(getters, tables):
            calls.append(len(tables))
            return kernel(getters, tables)

        monkeypatch.setattr(inference, "sum_product_values", counted)
        return calls

    def test_repeated_query_runs_no_second_pass(self, monkeypatch):
        net, evidence = self._phase_evidence()
        fresh = posterior(net, evidence, method="elimination")
        calls = self._count_kernel_calls(monkeypatch)
        cache = inference._Elimination(net)
        first = inference._posterior(cache, evidence, None, "elimination")
        assert calls
        calls.clear()
        again = inference._posterior(cache, dict(evidence), None, "elimination")
        assert calls == []
        assert again == first == fresh

    def test_reversed_evidence_hits_the_same_entry(self, monkeypatch):
        net, evidence = self._phase_evidence()
        cache = inference._Elimination(net)
        first = inference._posterior(cache, evidence, None, "elimination")
        reverse = dict(reversed(evidence.items()))
        assert list(reverse) != list(evidence)
        calls = self._count_kernel_calls(monkeypatch)
        assert inference._posterior(cache, reverse, None, "elimination") == first
        assert calls == []
        ((_, _, answers),) = cache.shapes.values()
        assert len(answers) == 1

    def test_plans_share_step_maps_and_other_values_plan_nothing(self, monkeypatch):
        net = criterion_8_net((3, 4))
        evidence = generate_cases(net, 1, seed=7)[0].cumulative_evidence(1)
        calls = []
        for name in ("sum_product_maps", "min_degree_elimination"):
            work = getattr(inference, name)

            def counted(*args, name=name, work=work):
                calls.append(name)
                return work(*args)

            monkeypatch.setattr(inference, name, counted)
        cache = inference._Elimination(net)
        inference._posterior(cache, evidence, None, "elimination")
        ((_, plans, _),) = cache.shapes.values()
        steps = sum(len(plan_steps) for _, plan_steps, _ in plans.values())
        # the 1 + |diseases| plans of one id set repeat steps, which share maps
        assert 0 < calls.count("sum_product_maps") < steps
        calls.clear()
        other = {fid: not value for fid, value in evidence.items()}
        inference._posterior(cache, other, None, "elimination")
        assert calls == []

    def test_conjunction_over_every_disease_gets_its_own_answer(self):
        # fixing both diseases needs the same ids as tracking them, so the
        # two queries of one posterior share a pruned entry but not an
        # answer; a fresh call shares it too, so check against enumeration
        net = self._pitfall_net()
        evidence = {"f1": True, "f2": False}
        cache = inference._Elimination(net)
        shared = inference._posterior(cache, evidence, ["d1", "d2"], "elimination")
        enum = posterior(net, evidence, conjunction=["d1", "d2"], method="enumeration")
        assert shared.conjunction == pytest.approx(enum.conjunction, abs=1e-12)
        assert shared.conjunction < 1.0
        ((_, _, answers),) = cache.shapes.values()
        assert len(answers) == 2

    def test_prunes_once_per_needed_id_set(self, monkeypatch):
        net = criterion_8_net((1, 2))
        cases = generate_cases(net, 4, seed=3)
        walks = []
        prune = inference._prune_barren

        def counted(net, needed):
            walks.append(needed)
            return prune(net, needed)

        monkeypatch.setattr(inference, "_prune_barren", counted)
        cache = inference._Elimination(net)
        for case in cases:
            for phase in range(1, 6):
                evidence = case.cumulative_evidence(phase)
                inference._posterior(cache, evidence, None, "elimination")
        assert len(walks) == len(set(walks)) == 5

    @pytest.mark.parametrize("fan", [(1, 2), (3, 4)])
    def test_pruning_keeps_the_needed_nodes_and_their_ancestors(self, fan):
        net = criterion_8_net(fan)
        order = net.compiled.order
        rng = random.Random(11)
        needed_sets = [frozenset(order), frozenset(order[1:]), frozenset(order[:-1])]
        needed_sets += [frozenset(rng.sample(order, k)) for k in (1, 5, 20, 40)]
        for needed in needed_sets:
            kept = set()
            stack = list(needed)
            while stack:
                nid = stack.pop()
                if nid not in kept:
                    kept.add(nid)
                    stack.extend(pid for pid, _ in net.parents_of(nid))
            want = tuple(nid for nid in order if nid in kept)
            assert inference._prune_barren(net, needed) == want, sorted(needed)
        # with every node needed, the order itself comes back
        assert inference._prune_barren(net, frozenset(order)) is order
