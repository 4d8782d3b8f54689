import hashlib

import pytest

from conftest import criterion_8_net, diamond_net, fork_net
from nornet import (
    DomainError,
    Edge,
    GeneratorConfig,
    Node,
    ParseError,
    ValidationError,
    cases_csv,
    generate_cases,
    generate_network,
    level_reduce,
    parse_network,
    provenance_csv,
    report_csv,
    run_experiment,
    serialize_network,
    validate,
)

MINIMAL = """\
nornet 1 tiny
node d1 disease leak=0 prior=0.25
node f1 finding leak=0.125 phase=2
edge d1 f1 eta=0.5
"""


class TestRoundTrip:
    def test_minimal_file_parses(self):
        net = parse_network(MINIMAL)
        assert net.name == "tiny"
        assert len(net.nodes) == 2
        assert net.edge("d1", "f1").eta == 0.5

    def test_parse_serialize_is_canonical_fixed_point(self):
        messy = (
            "# a comment\n"
            "nornet 1 tiny\n"
            "\n"
            "node f1 finding leak=0.125 phase=2\n"
            "node d1 disease leak=0 prior=0.25\n"
            "edge d1 f1 eta=0.5\n"
        )
        canonical = serialize_network(parse_network(messy))
        assert canonical == MINIMAL
        assert serialize_network(parse_network(canonical)) == canonical

    def test_non_dyadic_floats_canonicalize_with_17_digits(self):
        text = "nornet 1 x\nnode d1 disease leak=0 prior=0.1\n"
        out = serialize_network(parse_network(text))
        assert "prior=0.10000000000000001" in out
        assert parse_network(out).node("d1").prior == 0.1

    def test_round_trip_preserves_every_bit(self):
        for seed in (0, 1, 2):
            net = generate_network(
                GeneratorConfig(3, 6, 14, ips_chain_prob=0.3, seed=seed)
            )
            text = serialize_network(net)
            assert parse_network(text) == net
            assert serialize_network(parse_network(text)) == text

    def test_seventeen_digit_floats_round_trip(self):
        net = fork_net(p=(0.1, 1 / 3, 0.7000000000000001), q=(0.123456789012345678, 0.9))
        assert parse_network(serialize_network(net)) == net

    def test_name_with_whitespace_rejected_at_serialization(self):
        from nornet import Network, disease, finding, Edge

        net = Network(
            "two words",
            [disease("d", 0.1), finding("f", 0.0, 1)],
            [Edge("d", "f", 0.5)],
        )
        with pytest.raises(DomainError):
            serialize_network(net)


class TestParseErrors:
    def test_eta_out_of_range_reports_line(self):
        text = MINIMAL + "edge f1 d1 eta=1.5\n"
        with pytest.raises(ParseError, match="eta out of range") as err:
            parse_network(text)
        assert err.value.line == 5

    def test_unknown_directive(self):
        with pytest.raises(ParseError, match="unknown directive"):
            parse_network("nornet 1 x\nfrobnicate d1\n")

    @pytest.mark.parametrize(
        "char", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
    )
    def test_only_newlines_end_a_line(self, char):
        # str.splitlines also breaks at these; a file's lines do not
        body = "node a disease leak=0 prior=0.5\n"
        assert parse_network(f"nornet 1 x\n# note{char}tail\n{body}") == parse_network(
            f"nornet 1 x\n# note\n{body}"
        )
        with pytest.raises(ParseError, match="unknown directive 'bogus'") as err:
            parse_network(f"nornet 1 x\n# note{char}tail\n{body}bogus\n")
        assert err.value.line == 4

    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    def test_crlf_and_cr_end_a_line(self, newline):
        lines = ["nornet 1 x", "node a disease leak=0 prior=0.5", "bogus"]
        with pytest.raises(ParseError, match="unknown directive 'bogus'") as err:
            parse_network(newline.join(lines) + newline)
        assert err.value.line == 3

    def test_duplicate_node_id(self):
        text = (
            "nornet 1 x\n"
            "node d1 disease leak=0 prior=0.1\n"
            "node d1 disease leak=0 prior=0.2\n"
        )
        with pytest.raises(ParseError, match="duplicate node id") as err:
            parse_network(text)
        assert err.value.line == 3

    def test_malformed_float(self):
        with pytest.raises(ParseError, match="malformed prior"):
            parse_network("nornet 1 x\nnode d1 disease leak=0 prior=zap\n")

    def test_missing_required_fields(self):
        with pytest.raises(ParseError, match="missing prior"):
            parse_network("nornet 1 x\nnode d1 disease leak=0\n")
        with pytest.raises(ParseError, match="missing phase"):
            parse_network("nornet 1 x\nnode f1 finding leak=0\n")
        with pytest.raises(ParseError, match="missing leak"):
            parse_network("nornet 1 x\nnode b1 ips\n")

    def test_unexpected_fields(self):
        with pytest.raises(ParseError, match="ips node takes no prior"):
            parse_network("nornet 1 x\nnode b1 ips leak=0 prior=0.5\n")
        with pytest.raises(ParseError, match="unexpected field"):
            parse_network("nornet 1 x\nnode d1 disease leak=0 prior=0.1 color=red\n")

    @pytest.mark.parametrize("node_id", ["a,b", "f=1", "a>b"])
    def test_id_the_outputs_cannot_carry(self, node_id):
        text = MINIMAL + f"node {node_id} ips leak=0\n"
        with pytest.raises(ParseError, match=f"node id '{node_id}'") as err:
            parse_network(text)
        assert err.value.line == 5

    def test_edge_before_node_rejected(self):
        with pytest.raises(ParseError, match="nodes must precede edges"):
            parse_network("nornet 1 x\nedge d1 f1 eta=0.5\n")

    def test_bad_header(self):
        with pytest.raises(ParseError):
            parse_network("network 1 x\n")
        with pytest.raises(ParseError, match="version"):
            parse_network("nornet 9 x\n")
        with pytest.raises(ParseError, match="empty"):
            parse_network("# nothing here\n")

    @pytest.mark.parametrize(
        "line, message",
        [
            ("nornet 1", "header must be 'nornet 1 <name>'"),
            ("node d2", "node line needs 'node <id> <kind> ...'"),
            ("node i1 organ leak=0", "unknown node kind 'organ'"),
            ("edge d1 f1", "edge line needs 'edge <src> <dst> eta=<float>'"),
            ("edge d1 zz eta=0.5", "unknown node 'zz' (nodes must precede edges)"),
            ("edge d1 f1 eta=0.25", "duplicate edge d1->f1"),
            ("node i1 ips leak=0 leak=0.5", "repeated field 'leak'"),
        ],
        ids=["short-header", "short-node", "unknown-kind", "short-edge",
             "unknown-target", "repeated-edge", "repeated-field"],
    )
    def test_malformed_line_names_its_fault_and_line(self, line, message):
        # a header line stands alone; every other line follows MINIMAL's four
        lineno = 1 if line.startswith("nornet") else 5
        text = f"{line}\n" if lineno == 1 else f"{MINIMAL}{line}\n"
        with pytest.raises(ParseError) as err:
            parse_network(text)
        assert str(err.value) == f"line {lineno}: {message}"
        assert err.value.line == lineno

    @pytest.mark.parametrize(
        "third, fifth, message",
        [
            ("node b1 ips leak=2", "bogus", "leak out of range: 2.0 outside [0, 1]"),
            ("bogus", "node b1 ips leak=2", "unknown directive 'bogus'"),
            ("node b1 ips leak=2", "node f2 finding leak=0 phase=9",
             "leak out of range: 2.0 outside [0, 1]"),
        ],
        ids=["rule-then-syntax", "syntax-then-rule", "rule-then-rule"],
    )
    def test_first_bad_line_wins(self, third, fifth, message):
        # a rule is checked as its line is read, like the syntax around it
        lines = ["nornet 1 x", "node d1 disease leak=0 prior=0.5", third,
                 "node f1 finding leak=0 phase=1", fifth]
        with pytest.raises(ParseError) as err:
            parse_network("\n".join(lines) + "\n")
        assert str(err.value) == f"line 3: {message}"

    def test_each_node_and_edge_is_checked_once(self, monkeypatch):
        # the rules run as each object is made; the parser, validate and
        # compiled all read that one result
        text = serialize_network(criterion_8_net((1, 2)))
        checked = []
        for cls in (Node, Edge):

            def counted(item, rules=cls.__post_init__):
                checked.append(item)
                rules(item)

            monkeypatch.setattr(cls, "__post_init__", counted)
        net = parse_network(text)
        assert validate(net) == []
        assert net.compiled.order
        assert sorted(map(id, checked)) == sorted(map(id, (*net.nodes, *net.edges)))

    def test_whole_network_validation_failure(self):
        text = (
            "nornet 1 cyc\n"
            "node d1 disease leak=0 prior=0.1\n"
            "node b1 ips leak=0\n"
            "node b2 ips leak=0\n"
            "node f1 finding leak=0 phase=1\n"
            "edge d1 b1 eta=0.5\n"
            "edge b1 b2 eta=0.5\n"
            "edge b2 b1 eta=0.5\n"
            "edge b2 f1 eta=0.5\n"
        )
        with pytest.raises(ValidationError):
            parse_network(text)
        net = parse_network(text, require_valid=False)
        assert [v.code for v in net.violations()] == ["dag"]


class TestCsvOutputs:
    def test_cases_csv_shape(self):
        net = parse_network(MINIMAL)
        cases = generate_cases(net, 2, seed=0)
        lines = cases_csv(cases).splitlines()
        assert lines[0] == "case_id,node_id,kind,phase,value"
        assert len(lines) == 1 + 2 * 2  # two nodes per case
        assert lines[1].startswith("0,d1,disease,,")
        assert lines[2].startswith("0,f1,finding,2,")

    @pytest.mark.parametrize(
        "fan, digest",
        [
            ((1, 2), "a415d72eccfe66d387b45535f4f18eeae28094708a6e468b240482a537b06080"),
            ((3, 4), "699896cd5efc5ccf7991d2d112cc5fdde12ad2516d738c6f7b4bfb18d9cc3348"),
        ],
        ids=["criterion-8-low", "criterion-8-high"],
    )
    def test_cases_csv_bytes_are_pinned(self, fan, digest):
        # cases_csv sorts its rows, so the key order of a sampled world
        # must not show in these bytes
        text = cases_csv(generate_cases(criterion_8_net(fan), 20, seed=7))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_provenance_csv_lists_paths(self):
        report = level_reduce(diamond_net())
        lines = provenance_csv(report).splitlines()
        assert lines[0] == "src,dst,path,composed_eta"
        assert lines[1].startswith("a,c,a>b1>c,")
        assert lines[2].startswith("a,c,a>b2>c,")

    def test_report_csv_shape_and_missing_cells(self):
        net = parse_network(MINIMAL)
        summary = run_experiment(net, 6, seed=0)
        lines = report_csv(summary).splitlines()
        assert lines[0] == (
            "phase,disease_id,n_cases,mean_tp_two_level,mean_tp_three_level,"
            "mean_fp_two_level,mean_fp_three_level,t_stat,df,sig95,sig975"
        )
        assert len(lines) == 1 + 5  # five phases, one disease
        for line in lines[1:]:
            assert len(line.split(",")) == 11

    def test_report_csv_leaves_t_empty_for_constant_nonzero_differences(self):
        # d0 fans out through i0 to two findings, so reduction moves its
        # posterior. At seed 49, two of three cases have d0 present and
        # both show the same findings: their log-odds differences are one
        # nonzero value with zero variance, and no t can be formed
        net = fork_net(p=(0.9,), q=(0.5, 0.5), priors=(0.5,))
        present = [c for c in generate_cases(net, 3, seed=49) if c.true_diseases["d0"]]
        assert len(present) == 2
        assert present[0].findings_by_phase == present[1].findings_by_phase
        rows = report_csv(run_experiment(net, 3, seed=49)).splitlines()[1:]
        assert len(rows) == 5
        for row in rows:
            _, _, n_cases, *means, t_stat, df, sig95, sig975 = row.split(",")
            assert n_cases == "2"
            assert "" not in means and means[0] != means[1]
            assert (t_stat, df, sig95, sig975) == ("", "", "", "")
