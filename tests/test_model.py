import random

import pytest

from nornet import (
    DomainError,
    Edge,
    GeneratorConfig,
    Network,
    Node,
    NodeKind,
    ParseError,
    SplitMix64,
    StarConfig,
    ValidationError,
    absorb_leak,
    compose_serial,
    disease,
    eliminate_ips,
    event_prob,
    finding,
    generate_cases,
    generate_network,
    ips,
    joint_prob,
    level_reduce,
    marginal,
    merge_parallel,
    parse_network,
    posterior,
    run_experiment,
    sample_world,
    validate,
)
from nornet import model
from nornet.model import one_minus_prod, row_prob

from conftest import chain_net, criterion_8_net


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

    @pytest.mark.parametrize(
        "field, make, args",
        [
            ("id", Node, (1, NodeKind.IPS)),
            ("kind", Node, ("a", "ips")),
            ("leak", Node, ("a", NodeKind.IPS, "0.5")),
            ("prior", Node, ("d", NodeKind.DISEASE, 0.0, "0.1")),
            ("eta", Edge, ("a", "b", None)),
        ],
    )
    def test_wrong_field_type_is_a_domain_error(self, field, make, args):
        with pytest.raises(DomainError, match=rf"\b{field}\b"):
            make(*args)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: compose_serial("0.5", 0.5), "p '0.5' is not a number"),
            (lambda: merge_parallel([0.1, "0.2"]), "path probability '0.2' is not a number"),
            (lambda: absorb_leak(0.1, None, 0.1), "q None is not a number"),
            (lambda: StarConfig(("0.3",), (0.5,)), "p '0.3' is not a number"),
        ],
        ids=["compose_serial", "merge_parallel", "absorb_leak", "StarConfig"],
    )
    def test_probability_of_a_wrong_type_is_a_domain_error(self, call, message):
        # check_prob names the argument, as Node and Edge name their field
        with pytest.raises(DomainError) as err:
            call()
        assert str(err.value) == message

    def test_phase_message_shows_a_wrong_typed_phase_as_its_repr(self):
        def phase_message(phase):
            (rule,) = finding("f", 0.0, phase).violations
            return rule.message

        assert phase_message("1") == "phase out of range: '1' outside 1..5"
        assert phase_message(9) == "phase out of range: 9 outside 1..5"
        text = "nornet 1 x\nnode d disease leak=0 prior=0.5\nnode f finding leak=0 phase=9\n"
        with pytest.raises(ParseError) as err:
            parse_network(text)
        assert str(err.value) == "line 3: phase out of range: 9 outside 1..5"

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
        with pytest.raises(DomainError, match="edge source 'ghost' is not a node"):
            Network("miss", [disease("d", 0.1)], [Edge("ghost", "d", 0.5)])

    def test_require_valid_raises_with_violations(self):
        net = Network(
            "bad",
            [disease("d", 0.1), finding("f", 0.05, 1)],
            [Edge("f", "d", 0.5)],
        )
        with pytest.raises(ValidationError) as err:
            net.require_valid()
        assert err.value.violations[0].code == "level-ordering"

    def test_only_valid_networks_compile(self):
        # an acyclic network with a prior out of range has a topological
        # order, but no noisy-OR semantics to compile
        bad = Network("bad", [disease("d", 2.0), finding("f", 0.0, 1)], [Edge("d", "f", 0.5)])
        assert bad.topological_order() == ("d", "f")
        with pytest.raises(ValidationError, match="prior-range"):
            bad.compiled
        assert "compiled" not in vars(bad)


# one acyclic network with a prior out of range and one cyclic network, by
# the violation code each reports
INVALID = {
    "prior-range": lambda: Network(
        "bad",
        [disease("d", 2.0), ips("b"), finding("f", 0.0, 1)],
        [Edge("d", "b", 0.5), Edge("b", "f", 0.5)],
    ),
    "dag": lambda: Network(
        "cyc",
        [disease("d", 0.1), ips("b1"), ips("b2"), finding("f", 0.0, 1)],
        [Edge("d", "b1", 0.5), Edge("b1", "b2", 0.5), Edge("b2", "b1", 0.5),
         Edge("b2", "f", 0.5)],
    ),
}

EVALUATORS = {
    "posterior": lambda net: posterior(net, {"f": True}),
    "event_prob": lambda net: event_prob(net, {"f": True}),
    "marginal": lambda net: marginal(net, "f"),
    "joint_prob": lambda net: joint_prob(net, dict.fromkeys(net.node_ids, False)),
    "level_reduce": level_reduce,
    "eliminate_ips": lambda net: eliminate_ips(net, min(net.ids_of_kind(NodeKind.IPS))),
    "run_experiment": lambda net: run_experiment(net, 2, seed=1),
    "generate_cases": lambda net: generate_cases(net, 2, seed=1),
    "sample_world": lambda net: sample_world(net, 1),
}


@pytest.mark.parametrize("invalid", INVALID)
@pytest.mark.parametrize("evaluator", EVALUATORS)
def test_every_evaluator_raises_the_validity_error(evaluator, invalid):
    net = INVALID[invalid]()
    with pytest.raises(ValidationError) as expected:
        net.require_valid()
    assert invalid in str(expected.value)
    with pytest.raises(ValidationError) as got:
        EVALUATORS[evaluator](net)
    assert str(got.value) == str(expected.value)
    assert got.value.violations == expected.value.violations


def _star(leak, etas):
    """Diseases d0, d1, ... each feeding finding f with the given etas."""
    return Network(
        "star",
        [disease(f"d{k}", 0.1) for k in range(len(etas))] + [finding("f", leak, 1)],
        [Edge(f"d{k}", "f", eta) for k, eta in enumerate(etas)],
    )


def _row_prob(net, node_id, present):
    """row_prob of ``node_id``'s compiled row with exactly ``present`` on."""
    compiled = net.compiled
    state = [nid in present for nid in compiled.order]
    return row_prob(compiled.rows[compiled.index[node_id]], state)


def _closed_form(leak, present_etas):
    all_fail = 1.0
    for eta in present_etas:
        all_fail *= 1.0 - eta
    return 1.0 - (1.0 - leak) * all_fail


def _all_on(leak, etas):
    return _row_prob(_star(leak, etas), "f", {f"d{k}" for k in range(len(etas))})


class TestRowProb:
    def test_no_present_parents_returns_leak(self):
        # 1 - (1 - 0.2) is 0.19999999999999996, not 0.2
        value = _row_prob(_star(0.2, [0.5]), "f", set())
        assert value == pytest.approx(0.2)
        assert value == _closed_form(0.2, [])

    def test_single_cause_no_leak(self):
        value = _row_prob(_star(0.0, [0.3]), "f", {"d0"})
        assert value == pytest.approx(0.3)
        assert value == pytest.approx(_closed_form(0.0, [0.3]))

    def test_two_causes_with_leak(self):
        # 1 - 0.9 * 0.5 * 0.5
        value = _all_on(0.1, [0.5, 0.5])
        assert value == pytest.approx(0.775)
        assert value == pytest.approx(_closed_form(0.1, [0.5, 0.5]))

    def test_three_present_parents_with_leak(self):
        value = _all_on(0.1, [0.2, 0.3, 0.5])
        assert value == pytest.approx(1 - 0.9 * 0.8 * 0.7 * 0.5)
        assert value == pytest.approx(_closed_form(0.1, [0.2, 0.3, 0.5]))

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
        for on in ({"b1"}, {"b1", "d1", "d2"}):
            value = _row_prob(net, "f", on)
            assert value == pytest.approx(0.4)
            assert value == pytest.approx(_closed_form(0.0, [0.4]))

    def test_disease_returns_prior(self):
        net = chain_net(prior=0.07)
        assert _row_prob(net, "a", set()) == 0.07
        assert _row_prob(net, "a", {"a", "b", "c"}) == 0.07

    def test_monotone_in_leak_and_etas(self):
        rng = SplitMix64(11)
        for _ in range(200):
            leak = rng.next_float()
            etas = [1.0 - rng.next_float() for _ in range(rng.randint(0, 4))]
            base = _all_on(leak, etas)
            assert base == pytest.approx(_closed_form(leak, etas), abs=1e-15)
            bumped_leak = min(1.0, leak + rng.next_float() * (1.0 - leak))
            assert _all_on(bumped_leak, etas) >= base - 1e-15
            if etas:
                i = rng.randint(0, len(etas) - 1)
                bumped = list(etas)
                bumped[i] = min(1.0, etas[i] + rng.next_float() * (1.0 - etas[i]))
                assert _all_on(leak, bumped) >= base - 1e-15

    def test_permutation_of_etas_over_parents(self):
        rng = SplitMix64(12)
        for _ in range(100):
            leak = rng.next_float()
            etas = [1.0 - rng.next_float() for _ in range(4)]
            shuffled = sorted(etas, key=lambda _: rng.next_float())
            assert _all_on(leak, etas) == pytest.approx(_all_on(leak, shuffled), abs=1e-15)

    def test_one_eta_saturates(self):
        rng = SplitMix64(13)
        for _ in range(100):
            leak = rng.next_float()
            etas = [1.0 - rng.next_float() for _ in range(3)]
            assert _all_on(leak, etas + [1.0]) == 1.0
            assert _closed_form(leak, etas + [1.0]) == 1.0

    def test_tiny_parameters_keep_a_positive_probability(self):
        # 1 - x rounds to 1.0 for these x, so the plain form cancels to 0.0
        assert _all_on(0.0, [1e-20]) == 1e-20
        assert _all_on(0.0, [1e-20, 1e-20]) == 2e-20
        assert _all_on(0.0, [5e-324]) == 5e-324
        assert _all_on(1e-20, []) == 1e-20
        assert _row_prob(_star(1e-20, [1e-200]), "f", set()) == 1e-20
        # no present parent and no leak: the exact value is 0
        assert _row_prob(_star(0.0, [1e-20, 1e-200]), "f", set()) == 0.0

    def test_absent_side_keeps_a_product_below_2_to_the_minus_53(self):
        net = _star(1.0 - 2.0**-53, [0.5])
        compiled = net.compiled
        row = compiled.rows[compiled.index["f"]]
        for on, absent in (({"d0"}, 2.0**-54), (set(), 2.0**-53)):
            state = [nid in on for nid in compiled.order]
            assert row_prob(row, state, False) == absent
        # 1 - p cancels only where p is 1.0, with d0 present
        assert row_prob(row, [nid == "d0" for nid in compiled.order]) == 1.0
        assert 1.0 - row_prob(row, [False, False]) == 2.0**-53
        # a disease is absent with 1 - prior, and a certain leak never is
        assert row_prob(compiled.rows[compiled.index["d0"]], [], False) == 0.9
        certain = _star(1.0, [0.5]).compiled
        assert row_prob(certain.rows[certain.index["f"]], [True, True], False) == 0.0

    def test_only_rows_that_can_cancel_take_the_accurate_form(self, monkeypatch):
        calls = []

        def counted(xs):
            calls.append(xs)
            return one_minus_prod(xs)

        monkeypatch.setattr(model, "one_minus_prod", counted)
        # 1 - 2**-53 is a double below 1.0, and 1 - 2**-54 rounds to 1.0
        for x, reaches in ((2.0**-53, False), (2.0**-54, True), (5e-324, True)):
            for net, on in ((_star(x, [0.5]), set()), (_star(0.0, [0.5, x]), {"d1"})):
                calls.clear()
                assert _row_prob(net, "f", on) == x
                assert bool(calls) is reaches
        # every row in every parent state, and every whole node table, of
        # both criterion-8 networks and their reductions keeps the plain form;
        # each row holds its leak and etas, or () for a disease, unmarked
        calls.clear()
        for fan in ((1, 2), (3, 4)):
            full = criterion_8_net(fan)
            for net in (full, level_reduce(full).reduced):
                compiled = net.compiled
                for nid, row in zip(compiled.order, compiled.rows):
                    node = net.node(nid)
                    etas = [eta for _, eta in net.parents_of(nid)]
                    assert row[0] == (() if node.kind is NodeKind.DISEASE else (node.leak, *etas))
                    js = [j for j, _ in row[2]]
                    for bits in range(1 << len(js)):
                        state = {j: (bits >> b) & 1 for b, j in enumerate(js)}
                        assert row_prob(row, state) + row_prob(row, state, False) == 1.0
                    compiled.table(nid, (*[compiled.order[j] for j in js], nid), {})
        assert calls == []
        rng = random.Random(11)
        for _ in range(2000):
            xs = [rng.choice((1e-20, 1e-200, 5e-324, 2.0**-54, 0.5, rng.random() or 0.5))
                  for _ in range(rng.randint(1, 5))]
            leak, etas = rng.choice((0.0, xs[0])), xs[1:]
            on = {f"d{k}" for k in range(len(etas)) if rng.random() < 0.5}
            value = _row_prob(_star(leak, etas), "f", on)
            base = 1.0 - leak
            for k, eta in enumerate(etas):
                if f"d{k}" in on:
                    base *= 1.0 - eta
            # every bit of the plain form where it does not cancel
            if base != 1.0:
                assert value == 1.0 - base
            else:
                assert (value > 0.0) is bool(on or leak)


class TestKindIndex:
    @pytest.mark.parametrize("seed", range(4))
    def test_nodes_of_kind_equals_a_full_scan(self, seed):
        cfg = GeneratorConfig(3, 12, 25, fan_in_range=(1, 3), ips_chain_prob=0.3, seed=seed)
        net = generate_network(cfg)
        for kind in NodeKind:
            scan = tuple(n for n in net.nodes if n.kind is kind)
            assert scan and net.nodes_of_kind(kind) == scan
            assert tuple(net.ids_of_kind(kind)) == tuple(n.id for n in scan)


class TestNetworkIdentity:
    def test_a_network_never_equals_another_type(self):
        net = chain_net()
        assert net.__eq__(net.edges) is NotImplemented
        assert net != net.edges and net != "chain"

    def test_repr_names_the_network_and_counts_its_parts(self):
        assert repr(chain_net()) == "Network('chain', 3 nodes, 2 edges)"


class TestTopologicalOrder:
    def test_deterministic_tie_break(self):
        net = Network(
            "ties",
            [disease("d2", 0.1), disease("d1", 0.1), finding("f", 0.0, 1)],
            [Edge("d1", "f", 0.5), Edge("d2", "f", 0.5)],
        )
        assert net.topological_order() == ("d1", "d2", "f")
        assert net.compiled.order == ("d1", "d2", "f")

    def test_cycle_raises(self):
        net = Network(
            "cyc",
            [disease("d", 0.1), ips("b1"), ips("b2"), finding("f", 0.0, 1)],
            [Edge("d", "b1", 0.5), Edge("b1", "b2", 0.5), Edge("b2", "b1", 0.5),
             Edge("b2", "f", 0.5)],
        )
        with pytest.raises(ValidationError):
            net.topological_order()
        with pytest.raises(ValidationError, match="dag"):
            net.compiled
