import pytest

from nornet import (
    Assignment,
    DomainError,
    Edge,
    IncompleteAssignmentError,
    Network,
    SplitMix64,
    ValidationError,
    disease,
    finding,
    ips,
    local_cpd,
    noisy_or_prob,
    validate,
)

from conftest import chain_net


class TestValidate:
    def test_minimal_valid_network(self):
        net = Network(
            "minimal",
            [disease("d", 0.1), finding("f", 0.05, 1)],
            [Edge("d", "f", 0.5)],
        )
        assert validate(net) == []

    def test_finding_to_disease_is_level_violation(self):
        net = Network(
            "bad",
            [disease("d", 0.1), finding("f", 0.05, 1)],
            [Edge("f", "d", 0.5)],
        )
        report = validate(net)
        assert [v.code for v in report] == ["level-ordering"]

    def test_ips_cycle_is_single_dag_violation(self):
        net = Network(
            "cycle",
            [disease("d", 0.1), ips("b1"), ips("b2"), finding("f", 0.0, 1)],
            [
                Edge("d", "b1", 0.5),
                Edge("b1", "b2", 0.5),
                Edge("b2", "b1", 0.5),
                Edge("b2", "f", 0.5),
            ],
        )
        report = validate(net)
        assert [v.code for v in report] == ["dag"]

    def test_disease_to_disease_rejected(self):
        net = Network(
            "dd",
            [disease("d1", 0.1), disease("d2", 0.1), finding("f", 0.0, 1)],
            [Edge("d1", "d2", 0.5), Edge("d2", "f", 0.5)],
        )
        assert "level-ordering" in [v.code for v in validate(net)]

    def test_eta_zero_rejected(self):
        net = Network(
            "zeta",
            [disease("d", 0.1), finding("f", 0.0, 1)],
            [Edge("d", "f", 0.0)],
        )
        assert [v.code for v in validate(net)] == ["eta-range"]

    def test_field_presence_rules(self):
        bad = Network(
            "fields",
            [
                disease("d", None),          # missing prior
                ips("b", 0.1),
                finding("f", 0.0, None),     # missing phase
            ],
            [Edge("d", "b", 0.5), Edge("b", "f", 0.5)],
        )
        codes = sorted(v.code for v in validate(bad))
        assert codes == ["phase-missing", "prior-missing"]

    def test_range_rules(self):
        bad = Network(
            "ranges",
            [disease("d", 1.5), finding("f", 1.2, 9)],
            [Edge("d", "f", 2.0)],
        )
        codes = sorted(v.code for v in validate(bad))
        assert codes == ["eta-range", "leak-range", "phase-range", "prior-range"]

    def test_whitespace_id_rejected(self):
        bad = Network("ws", [disease("d x", 0.1), finding("f", 0.0, 1)], [])
        assert "node-id" in [v.code for v in validate(bad)]

    @pytest.mark.parametrize("node_id", ["a,b", "f=1", "a>b"])
    def test_id_the_outputs_cannot_carry_rejected(self, node_id):
        bad = Network("ids", [disease("d", 0.1), ips(node_id)], [])
        assert [v.code for v in validate(bad)] == ["node-id"]

    def test_disease_leak_must_be_zero(self):
        from nornet import Node, NodeKind

        bad = Network(
            "dleak",
            [Node("d", NodeKind.DISEASE, leak=0.1, prior=0.2), finding("f", 0.0, 1)],
            [],
        )
        assert "disease-leak" in [v.code for v in validate(bad)]

    def test_duplicate_node_unrepresentable(self):
        with pytest.raises(DomainError):
            Network("dup", [disease("d", 0.1), disease("d", 0.2)], [])

    def test_duplicate_edge_unrepresentable(self):
        with pytest.raises(DomainError):
            Network(
                "dup",
                [disease("d", 0.1), finding("f", 0.0, 1)],
                [Edge("d", "f", 0.5), Edge("d", "f", 0.6)],
            )

    def test_unknown_endpoint_unrepresentable(self):
        with pytest.raises(DomainError):
            Network("miss", [disease("d", 0.1)], [Edge("d", "ghost", 0.5)])

    def test_require_valid_raises_with_violations(self):
        net = Network(
            "bad",
            [disease("d", 0.1), finding("f", 0.05, 1)],
            [Edge("f", "d", 0.5)],
        )
        with pytest.raises(ValidationError) as err:
            net.require_valid()
        assert err.value.violations[0].code == "level-ordering"


class TestNoisyOr:
    def test_no_present_parents_returns_leak(self):
        assert noisy_or_prob(0.2, []) == 0.2

    def test_single_cause_no_leak(self):
        assert noisy_or_prob(0.0, [0.3]) == pytest.approx(0.3)

    def test_two_causes_with_leak(self):
        # 1 - 0.9 * 0.5 * 0.5
        assert noisy_or_prob(0.1, [0.5, 0.5]) == pytest.approx(0.775)

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            noisy_or_prob(-0.1, [])
        with pytest.raises(DomainError):
            noisy_or_prob(0.1, [1.5])

    def test_monotone_in_leak_and_etas(self):
        rng = SplitMix64(11)
        for _ in range(200):
            leak = rng.next_float()
            etas = [rng.next_float() for _ in range(rng.randint(0, 4))]
            base = noisy_or_prob(leak, etas)
            bumped_leak = min(1.0, leak + rng.next_float() * (1.0 - leak))
            assert noisy_or_prob(bumped_leak, etas) >= base - 1e-15
            if etas:
                i = rng.randint(0, len(etas) - 1)
                bumped = list(etas)
                bumped[i] = min(1.0, etas[i] + rng.next_float() * (1.0 - etas[i]))
                assert noisy_or_prob(leak, bumped) >= base - 1e-15

    def test_permutation_invariant(self):
        rng = SplitMix64(12)
        for _ in range(100):
            leak = rng.next_float()
            etas = [rng.next_float() for _ in range(4)]
            shuffled = sorted(etas, key=lambda _: rng.next_float())
            assert noisy_or_prob(leak, etas) == pytest.approx(
                noisy_or_prob(leak, shuffled), abs=1e-15
            )

    def test_zero_eta_is_identity_one_eta_saturates(self):
        rng = SplitMix64(13)
        for _ in range(100):
            leak = rng.next_float()
            etas = [rng.next_float() for _ in range(3)]
            assert noisy_or_prob(leak, etas + [0.0]) == noisy_or_prob(leak, etas)
            assert noisy_or_prob(leak, etas + [1.0]) == 1.0


class TestLocalCpd:
    def test_absent_parents_contribute_nothing(self):
        net = Network(
            "two-parent",
            [disease("d1", 0.1), disease("d2", 0.1), ips("b1"), ips("b2"),
             finding("f", 0.0, 1)],
            [
                Edge("d1", "b1", 0.5),
                Edge("d2", "b2", 0.5),
                Edge("b1", "f", 0.4),
                Edge("b2", "f", 0.9),
            ],
        )
        value = local_cpd(net, "f", Assignment({"b1": True, "b2": False}))
        assert value == pytest.approx(0.4)

    def test_disease_returns_prior(self):
        net = chain_net(prior=0.07)
        assert local_cpd(net, "a", Assignment()) == pytest.approx(0.07)

    def test_three_present_parents_with_leak(self):
        net = Network(
            "three",
            [disease(f"d{k}", 0.1) for k in range(3)] + [finding("f", 0.1, 1)],
            [Edge("d0", "f", 0.2), Edge("d1", "f", 0.3), Edge("d2", "f", 0.5)],
        )
        value = local_cpd(net, "f", {"d0": True, "d1": True, "d2": True})
        assert value == pytest.approx(1 - 0.9 * 0.8 * 0.7 * 0.5)

    def test_missing_parent_is_error(self):
        net = chain_net()
        with pytest.raises(IncompleteAssignmentError):
            local_cpd(net, "c", Assignment())

    def test_extra_absent_parents_never_change_result(self):
        net = Network(
            "extra",
            [disease("d1", 0.1), disease("d2", 0.2), finding("f", 0.05, 1)],
            [Edge("d1", "f", 0.6), Edge("d2", "f", 0.7)],
        )
        a = local_cpd(net, "f", {"d1": True, "d2": False})
        b = local_cpd(net, "f", {"d1": True, "d2": False, "unrelated": True})
        assert a == b


class TestAssignment:
    def test_mapping_protocol_and_sorted_iteration(self):
        a = Assignment({"z": True, "a": False})
        assert list(a) == ["a", "z"]
        assert a["z"] is True
        assert len(a) == 2
        assert a.present_ids() == ("z",)

    def test_union_disjoint_and_conflict(self):
        a = Assignment({"x": True})
        b = Assignment({"y": False})
        assert dict(a.union(b)) == {"x": True, "y": False}
        with pytest.raises(DomainError):
            a.union(Assignment({"x": False}))

    def test_equality_with_plain_mapping(self):
        assert Assignment({"x": True}) == {"x": True}


class TestTopologicalOrder:
    def test_deterministic_tie_break(self):
        net = Network(
            "ties",
            [disease("d2", 0.1), disease("d1", 0.1), finding("f", 0.0, 1)],
            [Edge("d1", "f", 0.5), Edge("d2", "f", 0.5)],
        )
        assert net.topological_order() == ("d1", "d2", "f")

    def test_cycle_raises(self):
        net = Network(
            "cyc",
            [disease("d", 0.1), ips("b1"), ips("b2"), finding("f", 0.0, 1)],
            [Edge("d", "b1", 0.5), Edge("b1", "b2", 0.5), Edge("b2", "b1", 0.5),
             Edge("b2", "f", 0.5)],
        )
        with pytest.raises(ValidationError):
            net.topological_order()
