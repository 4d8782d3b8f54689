import argparse
import dataclasses
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import prod
from pathlib import Path

import pytest

import nornet
import oracle
from conftest import fork_net
from nornet import (
    Edge,
    GeneratorConfig,
    Network,
    NodeKind,
    generate_network,
    parse_network,
    serialize_network,
    star_config_from_network,
)
from nornet.cli import _build_parser, main

MINIMAL = """\
nornet 1 tiny
node d1 disease leak=0 prior=0.25
node f1 finding leak=0.125 phase=2
edge d1 f1 eta=0.5
"""


def _run_in_c_locale(argv):
    """Run ``nornet`` in a child interpreter whose locale encoding is ASCII."""
    src = str(Path(nornet.__file__).resolve().parents[1])
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        "LC_ALL": "C",
        "PYTHONCOERCECLOCALE": "0",
        "PYTHONUTF8": "0",
    }
    return subprocess.run(
        [sys.executable, "-m", "nornet", *argv], env=env, capture_output=True, timeout=120
    )


@pytest.fixture
def net_file(tmp_path):
    path = tmp_path / "tiny.net"
    path.write_text(MINIMAL)
    return str(path)


class TestValidateCommand:
    def test_ok(self, net_file, capsys):
        assert main(["validate", net_file]) == 0
        assert capsys.readouterr().out.strip() == "ok"

    def test_violations_listed_with_exit_one(self, tmp_path, capsys):
        path = tmp_path / "bad.net"
        path.write_text(
            "nornet 1 bad\n"
            "node d1 disease leak=0 prior=0.1\n"
            "node f1 finding leak=0 phase=1\n"
            "edge f1 d1 eta=0.5\n"
        )
        assert main(["validate", str(path)]) == 1
        assert "level-ordering" in capsys.readouterr().out

    def test_parse_error_class_prefix(self, tmp_path, capsys):
        path = tmp_path / "broken.net"
        path.write_text("nornet 1 x\nedge a b eta=0.5\n")
        assert main(["validate", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error:parse:")

    @pytest.mark.parametrize("node_id", ["a,b", "f=1", "a>b"])
    def test_id_the_outputs_cannot_carry(self, tmp_path, capsys, node_id):
        path = tmp_path / "ids.net"
        path.write_text(MINIMAL + f"node {node_id} ips leak=0\n")
        assert main(["validate", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error:parse: line 5: node id")

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "nope.net")]) == 1
        assert capsys.readouterr().err.startswith("error:io:")


class TestGenCommand:
    def test_writes_valid_deterministic_network(self, tmp_path, capsys):
        out1 = tmp_path / "a.net"
        out2 = tmp_path / "b.net"
        args = [
            "gen", "--diseases", "2", "--ips", "3", "--findings", "8",
            "--fan-in", "1..2", "--fan-out", "1..2", "--eta", "0.2..0.8",
            "--leak", "0..0.05", "--prior", "0.05..0.3", "--seed", "42",
        ]
        assert main(args + ["-o", str(out1)]) == 0
        assert main(args + ["-o", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        net = parse_network(out1.read_text())
        assert len(net.nodes) == 13

    def test_required_flags_only_take_the_config_defaults(self, tmp_path, capsys):
        out = tmp_path / "a.net"
        assert main([
            "gen", "--diseases", "3", "--ips", "10", "--findings", "30", "--seed", "1",
            "-o", str(out),
        ]) == 0
        cfg = GeneratorConfig(n_diseases=3, n_ips=10, n_findings=30, seed=1)
        assert out.read_text(encoding="utf-8") == serialize_network(generate_network(cfg))

    def test_every_option_sets_its_config_field(self, tmp_path, capsys):
        out = tmp_path / "a.net"
        assert main([
            "gen", "--diseases", "3", "--ips", "10", "--findings", "30",
            "--fan-in", "3..4", "--fan-out", "2..3", "--eta", "0.3..0.7",
            "--leak", "0.01..0.02", "--prior", "0.1..0.2", "--ips-chain", "0.2",
            "--seed", "5", "-o", str(out),
        ]) == 0
        cfg = GeneratorConfig(
            n_diseases=3, n_ips=10, n_findings=30, fan_in_range=(3, 4),
            fan_out_range=(2, 3), ips_chain_prob=0.2, eta_range=(0.3, 0.7),
            leak_range=(0.01, 0.02), prior_range=(0.1, 0.2), seed=5,
        )
        # every defaulted field differs from its default here
        assert all(getattr(cfg, f.name) != f.default for f in dataclasses.fields(cfg))
        assert out.read_text(encoding="utf-8") == serialize_network(generate_network(cfg))

    def test_infeasible_config_error_class(self, tmp_path, capsys):
        assert main([
            "gen", "--diseases", "2", "--ips", "1", "--findings", "4",
            "--fan-in", "7..9", "--seed", "1", "-o", str(tmp_path / "x.net"),
        ]) == 1
        assert capsys.readouterr().err.startswith("error:config:")

    @pytest.mark.parametrize(
        "flag,value,message",
        [
            ("--fan-in", "3", "expected a..b, got '3'"),
            ("--eta", "0.5", "expected lo..hi, got '0.5'"),
            # a bound that does not parse gets the same message
            ("--fan-in", "1..x", "expected a..b, got '1..x'"),
            ("--eta", "0.5..", "expected lo..hi, got '0.5..'"),
        ],
    )
    def test_range_without_dots_is_usage_error(self, tmp_path, capsys, flag, value, message):
        with pytest.raises(SystemExit) as exc:
            main([
                "gen", "--diseases", "2", "--ips", "1", "--findings", "4", "--seed", "1",
                flag, value, "-o", str(tmp_path / "x.net"),
            ])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


class TestReduceCommand:
    def test_zero_ips_reduction_is_byte_identical(self, net_file, tmp_path, capsys):
        out = tmp_path / "reduced.net"
        assert main(["reduce", net_file, "-o", str(out)]) == 0
        assert out.read_text() == MINIMAL
        printed = capsys.readouterr().out
        assert "param_count_original=2" in printed  # 1 edge + 1 leaky finding
        assert "param_count_reduced=2" in printed

    def test_provenance_csv_written(self, tmp_path, capsys):
        path = tmp_path / "fork.net"
        path.write_text(serialize_network(fork_net()))
        out = tmp_path / "red.net"
        prov = tmp_path / "prov.csv"
        assert main(["reduce", str(path), "-o", str(out), "--provenance", str(prov)]) == 0
        lines = prov.read_text().splitlines()
        assert lines[0] == "src,dst,path,composed_eta"
        assert len(lines) == 1 + 6  # 3 diseases x 2 findings, one path each
        reduced = parse_network(out.read_text())
        assert len(reduced.edges) == 6

    def test_underflowed_edge_gives_a_valid_file(self, tmp_path, capsys):
        # both etas are valid, but their product underflows to 0.0
        path = tmp_path / "tiny.net"
        path.write_text(
            "nornet 1 tiny\n"
            "node d disease leak=0 prior=0.3\n"
            "node i ips leak=0\n"
            "node f finding leak=0.1 phase=1\n"
            "edge d i eta=1e-200\n"
            "edge i f eta=1e-200\n"
        )
        out = tmp_path / "red.net"
        assert main(["reduce", str(path), "-o", str(out)]) == 0
        assert "edge" not in out.read_text()
        assert main(["validate", str(out)]) == 0
        report = tmp_path / "report.csv"
        argv = ["experiment", str(path), "--cases", "3", "--seed", "1", "-o", str(report)]
        assert main(argv) == 0
        assert "error:" not in capsys.readouterr().err

    def test_merged_tiny_etas_give_a_valid_file(self, tmp_path, capsys):
        # the composed 1e-20 merges into the direct 1e-20 edge, where the
        # plain OR-combination cancels to the invalid eta 0
        path = tmp_path / "tiny.net"
        path.write_text(
            "nornet 1 tiny\n"
            "node d disease leak=0 prior=0.3\n"
            "node i ips leak=0\n"
            "node f finding leak=0.1 phase=1\n"
            "edge d f eta=1e-20\n"
            "edge d i eta=1e-20\n"
            "edge i f eta=1\n"
        )
        out = tmp_path / "red.net"
        assert main(["reduce", str(path), "-o", str(out)]) == 0
        assert parse_network(out.read_text()).edge("d", "f").eta == 2e-20
        capsys.readouterr()
        assert main(["validate", str(out)]) == 0
        assert capsys.readouterr().out.strip() == "ok"
        report = tmp_path / "report.csv"
        argv = ["experiment", str(path), "--cases", "3", "--seed", "1", "-o", str(report)]
        assert main(argv) == 0
        assert "error:" not in capsys.readouterr().err

    def test_files_are_utf8_whatever_the_locale(self, tmp_path):
        path = tmp_path / "fievre.net"
        path.write_bytes(MINIMAL.replace("d1", "fièvre").encode("utf-8"))
        in_process = tmp_path / "a.net"
        assert main(["reduce", str(path), "-o", str(in_process)]) == 0
        child = tmp_path / "b.net"
        done = _run_in_c_locale(["reduce", str(path), "-o", str(child)])
        assert done.returncode == 0, done.stderr
        assert child.read_bytes() == in_process.read_bytes()


@pytest.mark.parametrize(
    "command,text,status",
    [
        ("infer", MINIMAL.replace("d1", "fièvre"), 0),
        (
            "validate",
            "nornet 1 bad\n"
            "node fièvre disease leak=0 prior=0.1\n"
            "node f finding leak=0 phase=1\n"
            "edge f fièvre eta=0.5\n",
            1,
        ),
    ],
    ids=["infer", "validate"],
)
def test_output_is_utf8_whatever_the_locale(tmp_path, capsys, command, text, status):
    path = tmp_path / "fievre.net"
    path.write_bytes(text.encode("utf-8"))
    assert main([command, str(path)]) == status
    out = capsys.readouterr().out
    assert "fièvre" in out
    done = _run_in_c_locale([command, str(path)])
    assert done.returncode == status, done.stderr
    assert done.stdout == out.encode("utf-8")


class TestInferCommand:
    def test_priors_without_evidence(self, net_file, capsys):
        assert main(["infer", net_file]) == 0
        assert capsys.readouterr().out == "d1 0.25\n"
        assert main(["infer", net_file, "--evidence", ""]) == 0
        assert capsys.readouterr().out == "d1 0.25\n"

    def test_posterior_with_evidence_and_conjunction(self, net_file, capsys):
        assert main([
            "infer", net_file, "--evidence", "f1=1", "--conjunction", "d1",
        ]) == 0
        lines = capsys.readouterr().out.splitlines()
        # P(f|d) = 1 - 0.875*0.5 = 0.5625; P(f) = 0.25*0.5625 + 0.75*0.125
        # so P(d|f) = 0.140625 / 0.234375, exactly 0.6
        assert lines[0] == "d1 0.6"
        assert lines[1] == "conjunction 0.6"

    def test_inconsistent_evidence_error_class(self, tmp_path, capsys):
        path = tmp_path / "det.net"
        path.write_text(
            "nornet 1 det\n"
            "node d1 disease leak=0 prior=0\n"
            "node f1 finding leak=0 phase=1\n"
            "edge d1 f1 eta=1\n"
        )
        assert main(["infer", str(path), "--evidence", "f1=1"]) == 1
        assert capsys.readouterr().err.startswith("error:evidence:")

    def test_tiny_eta_or_leak_is_no_evidence_error(self, tmp_path, capsys):
        # 1 - 1e-20 rounds to 1.0; the exact likelihoods are 5e-21 and 1e-20
        files = {
            "eta": ("node f finding leak=0 phase=1\nedge d f eta=1e-20\n", "d 1\n"),
            "leak": ("node f finding leak=1e-20 phase=1\n", "d 0.5\n"),
        }
        for name, (lines, want) in files.items():
            path = tmp_path / f"{name}.net"
            path.write_text(f"nornet 1 {name}\nnode d disease leak=0 prior=0.5\n{lines}")
            assert main(["infer", str(path), "--evidence", "f=1"]) == 0
            assert capsys.readouterr().out == want

    def test_evidence_on_disease_rejected(self, net_file, capsys):
        assert main(["infer", net_file, "--evidence", "d1=1"]) == 1
        assert capsys.readouterr() == ("", "error:domain: evidence node 'd1' is not a finding\n")

    def test_conflicting_repeated_evidence_is_usage_error(self, net_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["infer", net_file, "--evidence", "f1=1,f1=0"])
        assert exc.value.code == 2
        assert "conflicting values for 'f1'" in capsys.readouterr().err
        # a repeat with the same value is not a conflict
        assert main(["infer", net_file, "--evidence", "f1=1,f1=1"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "d1 0.6"

    def test_evidence_without_a_value_is_usage_error(self, net_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["infer", net_file, "--evidence", "f1"])
        assert exc.value.code == 2
        assert "expected id=0|1, got 'f1'" in capsys.readouterr().err


class TestSampleCommand:
    def test_csv_deterministic(self, net_file, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out in (a, b):
            assert main([
                "sample", net_file, "--cases", "5", "--seed", "3", "-o", str(out),
            ]) == 0
        assert a.read_bytes() == b.read_bytes()
        lines = a.read_text().splitlines()
        assert lines[0] == "case_id,node_id,kind,phase,value"
        assert len(lines) == 1 + 5 * 2

    def test_zero_cases_is_domain_error(self, net_file, tmp_path, capsys):
        out = tmp_path / "cases.csv"
        assert main([
            "sample", net_file, "--cases", "0", "--seed", "3", "-o", str(out),
        ]) == 1
        assert capsys.readouterr().err.startswith("error:domain:")
        assert not out.exists()


class TestAnalyzeCommand:
    def test_fork_fan_and_bias_line(self, tmp_path, capsys):
        path = tmp_path / "fork.net"
        path.write_text(serialize_network(fork_net(p=(0.3, 0.5, 0.7), q=(0.4, 0.6))))
        assert main(["analyze", str(path)]) == 0
        out = capsys.readouterr().out
        assert "fan_in=3 fan_out=2 bias=mixed" in out

    def test_star_r1_prediction(self, tmp_path, capsys):
        path = tmp_path / "star.net"
        path.write_text(serialize_network(fork_net(p=(0.5, 0.5), q=(0.5,))))
        assert main(["analyze", str(path)]) == 0
        out = capsys.readouterr().out
        assert "star fan_in=2 fan_out=1" in out
        assert "fan_in_ratio=0.857142857" in out

    def test_subnormal_q_and_finding_leak(self, tmp_path, capsys):
        # both subnormal: the exact ratio is 1.0999999985, no overflow
        path = tmp_path / "star.net"
        path.write_text(serialize_network(fork_net(p=(0.5,), q=(1e-315,), rho_f=(1e-316,))))
        assert main(["analyze", str(path)]) == 0
        out, err = capsys.readouterr()
        assert "fan_in_ratio=1.1\n" in out and err == ""

    def test_star_r2_prediction(self, tmp_path, capsys):
        path = tmp_path / "star.net"
        path.write_text(
            serialize_network(fork_net(p=(0.5,), q=(1.0, 1.0, 1.0), rho_f=(0, 0, 0)))
        )
        assert main(["analyze", str(path)]) == 0
        out = capsys.readouterr().out
        assert "star fan_in=1 fan_out=3" in out
        assert "fan_out_ratio_exact=4 fan_out_ratio_approx=4" in out


class TestExperimentCommand:
    def test_repeat_runs_byte_identical(self, tmp_path):
        net_path = tmp_path / "gen.net"
        assert main([
            "gen", "--diseases", "2", "--ips", "2", "--findings", "6",
            "--seed", "5", "-o", str(net_path),
        ]) == 0
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out in (a, b):
            assert main([
                "experiment", str(net_path), "--cases", "8", "--seed", "1",
                "--jobs", "1", "-o", str(out),
            ]) == 0
        assert a.read_bytes() == b.read_bytes()
        header = a.read_text().splitlines()[0]
        assert header.startswith("phase,disease_id,n_cases,")

    def test_zero_cases_is_domain_error(self, net_file, tmp_path, capsys):
        out = tmp_path / "report.csv"
        assert main([
            "experiment", net_file, "--cases", "0", "--seed", "1", "--jobs", "1", "-o", str(out),
        ]) == 1
        assert capsys.readouterr().err.startswith("error:domain:")
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_domain_error(self, net_file, tmp_path, capsys, jobs):
        out = tmp_path / "report.csv"
        assert main([
            "experiment", net_file, "--cases", "4", "--seed", "1", "--jobs", jobs, "-o", str(out),
        ]) == 1
        assert capsys.readouterr().err.startswith("error:domain: jobs must be at least 1")
        assert not out.exists()


class TestCliDegenerateSweep:
    """Every command on valid networks with degenerate parameters exits 0,
    or 1 with one ``error:<class>:`` line whose class the input explains:
    ``evidence`` only where the exact likelihood is 0 or below the normal
    range, and ``domain`` from ``analyze`` only where the exact star ratio
    has a zero denominator or overflows a double."""

    ETAS = (1.0, 1e-20, 1e-200, 1e-300, 1e-308, 5e-324, 1.0 - 1e-16, 0.999999, 0.5)
    PARAMETERS = (0.0, 1.0, 1e-300, 1.0 - 1e-16)

    def _net(self, k):
        # half the etas, and 40% of the priors and leaks, take a degenerate
        # or an ordinary value
        rng = random.Random(k)
        sizes = rng.randint(1, 3), rng.randint(1, 4), rng.randint(1, 8)
        net = generate_network(
            GeneratorConfig(*sizes, fan_in_range=(1, 3), ips_chain_prob=0.3, seed=k)
        )
        nodes = []
        for node in net.nodes:
            if rng.random() < 0.4:
                value = rng.choice((*self.PARAMETERS, rng.random()))
                field = "prior" if node.kind is NodeKind.DISEASE else "leak"
                node = dataclasses.replace(node, **{field: value})
            nodes.append(node)
        edges = [
            Edge(e.src, e.dst, rng.choice(self.ETAS)) if rng.random() < 0.5 else e
            for e in net.edges
        ]
        return Network(f"degenerate{k}", nodes, edges), rng

    def _exact_star_ratio(self, cfg):
        """The ratio ``analyze`` prints for a star, in exact arithmetic, or
        None where its denominator is 0."""
        if cfg.fan_out == 1:
            q, rho_f = Fraction(cfg.q[0]), Fraction(cfg.rho_f[0])
            none_on = prod(1 - Fraction(p) for p in cfg.p)
            num = q * (1 - Fraction(cfg.rho_i)) * (1 - none_on) + rho_f * none_on
            den = (1 - prod(1 - Fraction(p) * q for p in cfg.p)) * (1 - rho_f)
        else:
            p = Fraction(cfg.p[0])
            num = p * prod(map(Fraction, cfg.q)) + (1 - p) * prod(map(Fraction, cfg.rho_f))
            den = prod(p * Fraction(q) for q in cfg.q)
        return num / den if den else None

    def _error(self, argv, capsys):
        """The error line of one run, or None where it exits 0."""
        code = main(argv)
        out, err = capsys.readouterr()
        assert "Traceback" not in out + err
        if code == 0:
            assert err == ""
            return None
        assert code == 1 and err.count("\n") == 1 and err.startswith("error:"), (argv, err)
        return err

    def test_every_command_exits_0_or_with_the_class_the_input_explains(
        self, tmp_path, capsys
    ):
        errors = []
        for k in range(50):
            net, rng = self._net(k)
            path = tmp_path / f"degenerate{k}.net"
            path.write_text(serialize_network(net), encoding="utf-8")
            findings = [n.id for n in net.nodes_of_kind(NodeKind.FINDING)]
            evidence = {f: rng.random() < 0.5 for f in findings if rng.random() < 0.7}
            out = str(tmp_path / "out")
            # the network is valid and its cases are sampled from it
            for argv in (
                ["validate", str(path)],
                ["reduce", str(path), "-o", out],
                ["validate", out],
                ["sample", str(path), "--cases", "3", "--seed", "1", "-o", out],
                ["experiment", str(path), "--cases", "3", "--seed", "1", "--jobs", "1",
                 "-o", out],
            ):
                assert self._error(argv, capsys) is None, (k, argv)
            argv = ["infer", str(path), "--evidence", ",".join(
                f"{f}={int(v)}" for f, v in evidence.items()
            )]
            err = self._error(argv, capsys)
            z = oracle.exact_event_prob(net, evidence)
            if err is None:
                assert z > 0, k
            else:
                assert err.startswith("error:evidence:") and z < Fraction(2) ** -1022, (k, err)
                errors.append("evidence")
            err = self._error(["analyze", str(path)], capsys)
            cfg = star_config_from_network(net)
            ratio = None if cfg is None else self._exact_star_ratio(cfg)
            if err is None:
                assert cfg is None or ratio is not None and ratio <= sys.float_info.max, k
            elif "is zero" in err:
                assert err.startswith("error:domain:") and cfg and ratio is None, (k, err)
                errors.append("zero ratio")
            else:
                assert err.startswith("error:domain:") and "overflows a double" in err, (k, err)
                assert ratio > sys.float_info.max, k
                errors.append("overflow")
        # the sweep reaches each explained error
        assert set(errors) == {"evidence", "zero ratio", "overflow"}


CONTRACT_FILES = {
    "tiny": MINIMAL,
    "malformed": "nornet 1 x\nedge a b eta=0.5\n",
    "cyclic": (
        "nornet 1 cyc\n"
        "node d1 disease leak=0 prior=0.5\n"
        "node i1 ips leak=0\n"
        "node i2 ips leak=0\n"
        "node f1 finding leak=0 phase=1\n"
        "edge d1 i1 eta=0.5\n"
        "edge i1 i2 eta=0.5\n"
        "edge i2 i1 eta=0.5\n"
        "edge i2 f1 eta=0.5\n"
    ),
    "undecodable": b"nornet 1 x\nnode d\xff disease leak=0 prior=0.5\n",
    # neither disease is ever present, so f1, with leak 0, never is either
    "no_disease": (
        "nornet 1 none\n"
        "node d1 disease leak=0 prior=0\n"
        "node d2 disease leak=0 prior=0\n"
        "node f1 finding leak=0 phase=1\n"
        "edge d1 f1 eta=1\n"
        "edge d2 f1 eta=0.5\n"
    ),
}
GEN = ["gen", "--diseases", "2", "--ips", "1", "--findings", "4", "--seed", "1"]
SAMPLE = ["--cases", "4", "--seed", "1"]
RUN = SAMPLE + ["--jobs", "1"]
# (argv, error class). In argv, {name} is a file of CONTRACT_FILES, {missing}
# a path that does not exist, {out} a writable path and {unwritable} a path
# in a directory that does not exist. ``validate`` on an invalid network
# lists its violations instead (TestValidateCommand).
ERROR_CONTRACT = [
    (["validate", "{missing}"], "io"),
    (["validate", "{undecodable}"], "io"),
    (["validate", "{malformed}"], "parse"),
    (GEN + ["-o", "{unwritable}"], "io"),
    (GEN + ["--fan-in", "7..9", "-o", "{out}"], "config"),
    (["reduce", "{missing}", "-o", "{out}"], "io"),
    (["reduce", "{undecodable}", "-o", "{out}"], "io"),
    (["reduce", "{tiny}", "-o", "{unwritable}"], "io"),
    (["reduce", "{tiny}", "-o", "{out}", "--provenance", "{unwritable}"], "io"),
    (["reduce", "{malformed}", "-o", "{out}"], "parse"),
    (["reduce", "{cyclic}", "-o", "{out}"], "validation"),
    (["infer", "{missing}"], "io"),
    (["infer", "{undecodable}"], "io"),
    (["infer", "{malformed}"], "parse"),
    (["infer", "{cyclic}"], "validation"),
    (["infer", "{tiny}", "--evidence", "d1=1"], "domain"),
    (["infer", "{tiny}", "--evidence", "x9=1"], "domain"),
    (["infer", "{tiny}", "--conjunction", "x9"], "domain"),
    (["infer", "{tiny}", "--evidence", "f1=0", "--conjunction", "f1"], "domain"),
    (["infer", "{no_disease}", "--evidence", "f1=1"], "evidence"),
    (["sample", "{missing}", *SAMPLE, "-o", "{out}"], "io"),
    (["sample", "{undecodable}", *SAMPLE, "-o", "{out}"], "io"),
    (["sample", "{malformed}", *SAMPLE, "-o", "{out}"], "parse"),
    (["sample", "{cyclic}", *SAMPLE, "-o", "{out}"], "validation"),
    (["sample", "{tiny}", "--cases", "0", "--seed", "1", "-o", "{out}"], "domain"),
    (["sample", "{no_disease}", *SAMPLE, "--require-positive", "-o", "{out}"], "exhaustion"),
    (["sample", "{tiny}", *SAMPLE, "-o", "{unwritable}"], "io"),
    (["analyze", "{missing}"], "io"),
    (["analyze", "{undecodable}"], "io"),
    (["analyze", "{malformed}"], "parse"),
    (["analyze", "{cyclic}"], "validation"),
    (["experiment", "{missing}", *RUN, "-o", "{out}"], "io"),
    (["experiment", "{undecodable}", *RUN, "-o", "{out}"], "io"),
    (["experiment", "{malformed}", *RUN, "-o", "{out}"], "parse"),
    (["experiment", "{cyclic}", *RUN, "-o", "{out}"], "validation"),
    (["experiment", "{tiny}", "--cases", "0", "--seed", "1", "--jobs", "1", "-o", "{out}"],
     "domain"),
    (["experiment", "{tiny}", "--cases", "4", "--seed", "1", "--jobs", "0", "-o", "{out}"],
     "domain"),
    (["experiment", "{tiny}", *RUN, "-o", "{unwritable}"], "io"),
]


def test_error_contract_covers_every_subcommand():
    (commands,) = [
        action.choices
        for action in _build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    assert {argv[0] for argv, _ in ERROR_CONTRACT} == set(commands)


@pytest.mark.parametrize(
    "argv,error_class", ERROR_CONTRACT, ids=[" ".join(a) for a, _ in ERROR_CONTRACT]
)
def test_error_contract(argv, error_class, tmp_path, capfd):
    paths = {
        "missing": tmp_path / "nope.net",
        "out": tmp_path / "out",
        "unwritable": tmp_path / "no-such-dir" / "out",
    }
    for name, text in CONTRACT_FILES.items():
        paths[name] = tmp_path / f"{name}.net"
        paths[name].write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    assert main([arg.format(**paths) for arg in argv]) == 1
    err = capfd.readouterr().err
    assert err.startswith(f"error:{error_class}: ")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert "Traceback" not in err
