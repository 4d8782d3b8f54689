import hashlib
import json
import os
import pickle
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

import oracle
from conftest import chain_net, criterion_8_net, random_unit_fan_net
import nornet
from nornet import experiment, inference
from nornet.experiment import _eval_case, _fork_join
from nornet.model import CompiledNetwork
from nornet import (
    DomainError,
    Edge,
    EvidenceError,
    ExhaustionError,
    GeneratorConfig,
    Network,
    NodeKind,
    NornetError,
    ParseError,
    ValidationError,
    Violation,
    disease,
    finding,
    generate_cases,
    generate_network,
    ips,
    level_reduce,
    posterior,
    report_csv,
    run_experiment,
)


class TestGenerateCases:
    def test_certain_priors_force_presence(self):
        net = chain_net(prior=1.0, p=0.5, q=0.5)
        cases = generate_cases(net, 20, seed=0)
        assert all(case.true_diseases["a"] for case in cases)

    def test_deterministic_given_seed(self):
        net = random_unit_fan_net(4)
        a = generate_cases(net, 50, seed=9)
        b = generate_cases(net, 50, seed=9)
        assert a == b

    def test_presence_fraction_tracks_prior(self):
        net = chain_net(prior=0.5)
        n = 10_000
        cases = generate_cases(net, n, seed=1)
        frac = sum(case.true_diseases["a"] for case in cases) / n
        assert abs(frac - 0.5) < oracle.binomial_3sigma(0.5, n)

    def test_every_finding_in_exactly_one_phase(self):
        net = generate_network(GeneratorConfig(2, 3, 15, seed=3))
        (case,) = generate_cases(net, 1, seed=0)
        seen = []
        for phase in range(1, 6):
            seen.extend(case.findings_by_phase[phase])
        finding_ids = sorted(n.id for n in net.nodes if n.phase is not None)
        assert sorted(seen) == finding_ids

    def test_cumulative_evidence_grows_monotonically(self):
        net = generate_network(GeneratorConfig(2, 3, 15, seed=3))
        (case,) = generate_cases(net, 1, seed=0)
        previous: set = set()
        for phase in range(1, 6):
            current = set(case.cumulative_evidence(phase))
            assert previous <= current
            previous = current
        assert len(previous) == 15

    def test_cumulative_evidence_is_a_new_dict_per_call(self):
        net = generate_network(GeneratorConfig(2, 3, 15, seed=3))
        (case,) = generate_cases(net, 1, seed=0)
        buckets = {k: dict(v) for k, v in case.findings_by_phase.items()}
        for phase in range(1, 6):
            before = case.cumulative_evidence(phase)
            mutated = case.cumulative_evidence(phase)
            mutated.clear()
            mutated["extra"] = True
            assert case.cumulative_evidence(phase) == before
            assert case.findings_by_phase == buckets

    def test_require_positive_rejects_negative_worlds(self):
        net = chain_net(prior=0.05)
        cases = generate_cases(net, 60, seed=2, require_positive=True)
        assert all(case.true_diseases["a"] for case in cases)

    def test_fewer_than_one_case_is_domain_error(self):
        for n_cases in (0, -1):
            with pytest.raises(DomainError, match="n_cases"):
                generate_cases(chain_net(), n_cases, seed=0)

    def test_require_positive_with_zero_priors_exhausts(self):
        net = chain_net(prior=0.0)
        with pytest.raises(ExhaustionError):
            generate_cases(net, 3, seed=0, require_positive=True)

    def test_require_positive_gives_up_after_the_retry_limit(self):
        net = chain_net(prior=1e-300)
        with pytest.raises(ExhaustionError, match="after 10000 retries"):
            generate_cases(net, 1, seed=0, require_positive=True)

    def test_rejection_does_not_disturb_accepted_cases(self):
        # cases already positive must be identical with and without the flag
        net = chain_net(prior=0.6)
        plain = generate_cases(net, 40, seed=5)
        forced = generate_cases(net, 40, seed=5, require_positive=True)
        for a, b in zip(plain, forced):
            if a.true_diseases["a"]:
                assert a == b


def _toy_two_phase_chain() -> Network:
    """Leak-free unit-fan network with findings in two phases."""
    return Network(
        "toy2",
        [
            disease("d1", 0.3),
            ips("b1"),
            ips("b2"),
            finding("f1", 0.0, 1),
            finding("f2", 0.0, 2),
        ],
        [
            Edge("d1", "b1", 0.8),
            Edge("d1", "b2", 0.6),
            Edge("b1", "f1", 0.7),
            Edge("b2", "f2", 0.9),
        ],
    )


def _run_python(code):
    """Run ``code`` in a child interpreter that imports this nornet, with
    stdout block-buffered into a pipe."""
    src = str(Path(nornet.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = path
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=env, capture_output=True, text=True, timeout=120,
    )


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _hex_line(result) -> str:
    """Every posterior and the likelihood of ``result`` as ``float.hex``."""
    posts = " ".join(f"{d}={v.hex()}" for d, v in sorted(result.posteriors.items()))
    return f"{posts} L={result.evidence_likelihood.hex()}\n"


class TestRunExperiment:
    def test_zero_ips_network_gives_identical_columns_and_zero_t(self):
        net = Network(
            "flat",
            [disease("d1", 0.2), disease("d2", 0.4),
             finding("f1", 0.05, 1), finding("f2", 0.02, 3)],
            [Edge("d1", "f1", 0.7), Edge("d2", "f2", 0.6), Edge("d1", "f2", 0.3)],
        )
        summary = run_experiment(net, 40, seed=11)
        for cell in summary.cells:
            assert cell.mean_tp_two == cell.mean_tp_three
            assert cell.mean_fp_two == cell.mean_fp_three
            if cell.t_stat is not None:
                assert cell.t_stat == 0.0
                assert cell.sig95 is False

    def test_unit_fan_leak_free_phases_match_to_tolerance(self):
        summary = run_experiment(_toy_two_phase_chain(), 60, seed=4)
        for cell in summary.cells:
            if cell.mean_tp_two is not None:
                assert cell.mean_tp_two == pytest.approx(
                    cell.mean_tp_three, abs=1e-12
                )
            if cell.t_stat is not None:
                assert abs(cell.t_stat) < 1e-6

    def test_output_shape_five_phases_by_disease(self):
        net = generate_network(GeneratorConfig(2, 3, 10, seed=8))
        summary = run_experiment(net, 25, seed=8)
        assert [c.phase for c in summary.cells] == [
            p for p in range(1, 6) for _ in range(2)
        ]
        assert [c.disease for c in summary.cells[:2]] == ["d001", "d002"]
        assert len(summary.phases) == 5
        assert summary.param_count_original > 0

    def test_means_within_unit_interval_and_counts_consistent(self):
        net = generate_network(GeneratorConfig(3, 4, 12, seed=2))
        n_cases = 30
        summary = run_experiment(net, n_cases, seed=2)
        for cell in summary.cells:
            assert cell.n_present + cell.n_absent == n_cases
            for value in (cell.mean_tp_two, cell.mean_tp_three,
                          cell.mean_fp_two, cell.mean_fp_three):
                if value is not None:
                    assert 0.0 <= value <= 1.0

    def test_network_name_with_spaces_still_runs(self):
        base = _toy_two_phase_chain()
        spacey = Network("two words", base.nodes, base.edges)
        serial = run_experiment(spacey, 5, seed=0, jobs=1)
        parallel = run_experiment(spacey, 5, seed=0, jobs=2)
        for summary in (serial, parallel):
            assert summary.network_name == "two words"
            assert len(summary.cells) == 5
        assert report_csv(serial) == report_csv(parallel)

    def test_network_with_cached_compiled_form_survives_pickle(self):
        # run_experiment's forked children inherit networks; a caller that
        # ships one to another process pickles it, caches included
        net = generate_network(GeneratorConfig(2, 3, 10, seed=6))
        evidence = dict(generate_cases(net, 1, seed=6)[0].cumulative_evidence(3))
        methods = ("enumeration", "elimination")
        results = {m: posterior(net, evidence, method=m) for m in methods}
        assert "compiled" in vars(net)
        copy = pickle.loads(pickle.dumps(net))
        assert copy == net
        for m in methods:
            assert posterior(copy, evidence, method=m) == results[m]

    def test_criterion_8_reports_are_pinned(self):
        # recorded when elimination still multiplied its factors pairwise
        # before summing a variable out
        expected = {
            (1, 2): "d6f765fd6430f759f65241fa36dc21f7102077483be3a9e969261881ac936722",
            (3, 4): "13fcc96f9c241fd1420a7a7b3203bd0b8b803d9ee1bc8ca834c9d95f63ff9ecb",
        }
        for fan, digest in expected.items():
            net = generate_network(
                GeneratorConfig(
                    3, 10, 30,
                    fan_in_range=fan,
                    fan_out_range=fan,
                    ips_chain_prob=0.2,
                    eta_range=(0.2, 0.9),
                    leak_range=(0.0, 0.05),
                    prior_range=(0.05, 0.4),
                    seed=7,
                )
            )
            for jobs in (1, 2):
                text = report_csv(run_experiment(net, 40, seed=7, jobs=jobs))
                assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_posteriors_are_pinned_bit_for_bit(self):
        # the reports keep 9 significant digits; this pins every bit of the
        # posteriors and likelihoods behind them, so a speed-up that moves
        # one multiplication shows here
        digest = hashlib.sha256()
        for fan in ((1, 2), (3, 4)):
            full = criterion_8_net(fan)
            reduced = level_reduce(full).reduced
            engines = (inference._Elimination(full), inference._Elimination(reduced))
            for case in generate_cases(full, 20, seed=11):
                evidence = [case.cumulative_evidence(phase) for phase in range(1, 6)]
                for phase, posts in zip(evidence, _eval_case(evidence, engines)):
                    for engine, post in zip(engines, posts):
                        # the engine's stored answer: no second pass
                        result = inference._posterior(engine, phase, None, "elimination")
                        assert result.posteriors == post
                        digest.update(_hex_line(result).encode())
        for seed in range(5):
            net = generate_network(GeneratorConfig(2, 3, 6, fan_in_range=(1, 3), seed=seed))
            for case in generate_cases(net, 2, seed=seed):
                for phase in range(1, 6):
                    for method in ("enumeration", "elimination"):
                        result = posterior(net, case.cumulative_evidence(phase), method=method)
                        digest.update(_hex_line(result).encode())
        want = "1d678aa7efca188ebe178497b98f16ce2b820c437d9bf8619d6ce4ea5015cf58"
        assert digest.hexdigest() == want

    def test_serial_and_parallel_runs_agree_byte_for_byte(self):
        net = generate_network(GeneratorConfig(2, 3, 10, seed=6))
        serial = report_csv(run_experiment(net, 12, seed=6, jobs=1))
        parallel = report_csv(run_experiment(net, 12, seed=6, jobs=2))
        assert serial == parallel

    def test_jobs_below_one_is_domain_error_before_any_work(self):
        # an invalid network would raise ValidationError if any work started
        invalid = Network("bad", [disease("a", 0.3), finding("c", 0.1, 1)], [Edge("c", "a", 0.5)])
        with pytest.raises(ValidationError):
            run_experiment(invalid, 5, seed=0)
        for net in (chain_net(), invalid):
            with pytest.raises(DomainError, match="jobs must be at least 1, got 0"):
                run_experiment(net, 5, seed=0, jobs=0)

    @pytest.mark.parametrize(
        "jobs, n_cases, chunks, forks",
        [(8, 5, [1] * 5, 4), (2, 5, [3, 2], 1), (2, 1, [1], 0)],
    )
    def test_chunks_and_forks(self, monkeypatch, jobs, n_cases, chunks, forks):
        # the caller runs the first chunk, and one forked child each other
        sizes, pids = [], []
        real_fork, real_fork_join = os.fork, experiment._fork_join

        def counted_fork():
            pid = real_fork()
            if pid:
                pids.append(pid)
            return pid

        def recorded_fork_join(fn, chunked):
            sizes.extend(len(chunk) for chunk in chunked)
            return real_fork_join(fn, chunked)

        net = generate_network(GeneratorConfig(2, 3, 10, seed=6))
        serial = report_csv(run_experiment(net, n_cases, seed=6))
        monkeypatch.setattr(os, "fork", counted_fork)
        monkeypatch.setattr(experiment, "_fork_join", recorded_fork_join)
        forked = report_csv(run_experiment(net, n_cases, seed=6, jobs=jobs))
        assert (sizes, len(pids)) == (chunks, forks)
        assert forked == serial
        _assert_no_child_left()

    def test_elimination_work_does_not_grow_with_cases(self, monkeypatch):
        # node tables are counted on CompiledNetwork, orderings where
        # nornet.inference calls them; a call's caches die with it, so a
        # repeat call counts again
        calls = {"tables": 0, "orders": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(
            "nornet.model.CompiledNetwork.table", counted("tables", CompiledNetwork.table)
        )
        monkeypatch.setattr(
            "nornet.inference.min_degree_elimination",
            counted("orders", inference.min_degree_elimination),
        )
        net = generate_network(GeneratorConfig(2, 3, 8, leak_range=(0.3, 0.6), seed=7))
        # a node table depends on the finding values, so the first 5 cases
        # must already show every finding both present and absent
        cases = generate_cases(net, 5, seed=7)
        for node in net.nodes_of_kind(NodeKind.FINDING):
            assert {case.cumulative_evidence(5)[node.id] for case in cases} == {False, True}
        counts = []
        for n_cases in (5, 20, 20):
            run_experiment(net, n_cases, seed=7, jobs=1)
            counts.append(dict(calls))
            calls.update(tables=0, orders=0)
        assert counts[0] == counts[1] == counts[2]
        # at most one ordering per network, phase and pass (evidence, then
        # each of the two diseases fixed present)
        assert 0 < counts[0]["orders"] <= 2 * 5 * 3

    def test_case_core_takes_any_tuple_of_engines(self):
        # a third network rides along without a second run_experiment: the
        # full and reduced networks share every id, so an engine answering
        # for the wrong one would give the full network's 0.187 for d002
        full = criterion_8_net((3, 4))
        reduced = level_reduce(full).reduced
        case = generate_cases(full, 1, seed=7)[0]
        evidence = [case.cumulative_evidence(phase) for phase in range(1, 6)]
        engines = tuple(inference._Elimination(n) for n in (full, reduced, full))
        rows = _eval_case(evidence, engines)
        assert len(rows) == 5
        for ev, (first, second, third) in zip(evidence, rows):
            assert third == first == posterior(full, ev, method="elimination").posteriors
            assert second == posterior(reduced, ev, method="elimination").posteriors
        assert rows[4][0]["d002"] == pytest.approx(0.1872, abs=1e-4)
        assert rows[4][1]["d002"] == pytest.approx(0.5139, abs=1e-4)

    def test_without_fork_every_chunk_runs_in_process(self):
        # where os has no fork (Windows), jobs changes nothing but speed;
        # an audit hook sees any process start in the child interpreter
        done = _run_python(
            """
            import json, os, sys
            del os.fork
            started = []
            kinds = ("os.fork", "os.posix_spawn", "os.spawn", "os.system", "os.exec",
                     "subprocess.Popen")
            sys.addaudithook(lambda event, args: event.startswith(kinds) and started.append(event))
            from nornet import GeneratorConfig, generate_network, report_csv, run_experiment
            net = generate_network(GeneratorConfig(2, 3, 10, seed=6))
            reports = [report_csv(run_experiment(net, 12, seed=6, jobs=j)) for j in (1, 2)]
            print(json.dumps([started, *reports]))
            """
        )
        assert done.returncode == 0, done.stderr
        started, serial, unforked = json.loads(done.stdout)
        assert started == []
        assert serial.startswith("phase,")
        assert unforked == serial

    def test_children_leave_buffered_stdout_unflushed(self):
        # a child that left through sys.exit would flush its copy of the
        # caller's unflushed "before"
        done = _run_python(
            """
            from nornet import GeneratorConfig, generate_network, run_experiment
            net = generate_network(GeneratorConfig(2, 3, 10, seed=6))
            print("before")
            run_experiment(net, 12, 6, jobs=3)
            print("after")
            """
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "before\nafter\n"

    def test_unit_fan_networks_give_exactly_zero_t(self):
        for seed in (1, 3, 5):
            net = random_unit_fan_net(seed)
            summary = run_experiment(net, 30, seed=seed)
            for cell in summary.cells:
                if cell.t_stat is not None:
                    assert cell.t_stat == 0.0
                    assert cell.sig95 is False
                    assert cell.sig975 is False

    def test_single_disease_chain_mean_posterior_rises_with_phase(self):
        # one present disease, one leak-free chain finding per phase: more
        # revealed evidence can only sharpen the true diagnosis on average
        nodes = [disease("d1", 0.3)]
        edges = []
        for k in range(1, 6):
            nodes.append(ips(f"b{k}"))
            nodes.append(finding(f"f{k}", 0.0, k))
            edges.append(Edge("d1", f"b{k}", 0.6 + 0.05 * k))
            edges.append(Edge(f"b{k}", f"f{k}", 0.5 + 0.08 * k))
        net = Network("phased-chain", nodes, edges)
        summary = run_experiment(net, 400, seed=13)
        means = [row.mean_tp_three for row in summary.phases]
        assert all(b >= a - 1e-9 for a, b in zip(means, means[1:]))

    def test_experiment_matches_direct_posterior_means(self):
        # recompute one cell by hand from the library primitives
        from nornet import level_reduce, posterior

        net = _toy_two_phase_chain()
        n_cases = 30
        summary = run_experiment(net, n_cases, seed=9)
        reduced = level_reduce(net).reduced
        cases = generate_cases(net, n_cases, seed=9)
        phase = 2
        tp_three = [
            posterior(net, case.cumulative_evidence(phase)).posteriors["d1"]
            for case in cases
            if case.true_diseases["d1"]
        ]
        tp_two = [
            posterior(reduced, case.cumulative_evidence(phase)).posteriors["d1"]
            for case in cases
            if case.true_diseases["d1"]
        ]
        cell = next(
            c for c in summary.cells if c.phase == phase and c.disease == "d1"
        )
        assert cell.n_present == len(tp_three)
        assert cell.mean_tp_three == pytest.approx(oracle.mean(tp_three), abs=1e-12)
        assert cell.mean_tp_two == pytest.approx(oracle.mean(tp_two), abs=1e-12)


def _subclasses(cls):
    """Every class below ``cls``, at any depth."""
    return {sub for direct in cls.__subclasses__() for sub in (direct, *_subclasses(direct))}


def _fail_on(bad, exc):
    """A task function that raises ``exc`` on task ``bad`` and sleeps a
    minute on every task above it."""

    def fn(task):
        if task == bad:
            raise exc
        if task > bad:
            time.sleep(60)
        return task

    return fn


class TestForkJoin:
    def test_results_keep_chunk_order(self):
        # a lambda cannot be pickled: the children inherit it
        assert _fork_join(lambda task: task * task, [[1, 2], [3, 4], [5]]) == [1, 4, 9, 16, 25]
        _assert_no_child_left()

    def test_without_fork_every_chunk_runs_here(self, monkeypatch):
        # the Windows path, in this process
        monkeypatch.delattr(os, "fork")
        assert _fork_join(lambda task: task * task, [[1, 2], [3, 4], [5]]) == [1, 4, 9, 16, 25]
        _assert_no_child_left()
        net = generate_network(GeneratorConfig(2, 3, 10, seed=6))
        serial = report_csv(run_experiment(net, 12, seed=6))
        assert report_csv(run_experiment(net, 12, seed=6, jobs=3)) == serial

    def test_a_childs_exception_reaches_the_caller(self):
        for exc, text in (
            (DomainError("task 2 is out of range"), "task 2 is out of range"),
            (ParseError(3, "bad"), "line 3: bad"),
        ):
            with pytest.raises(type(exc)) as raised:
                _fork_join(_fail_on(2, exc), [[1], [2]])
            assert raised.type is type(exc)
            assert str(raised.value) == text
            assert getattr(raised.value, "line", None) == getattr(exc, "line", None)
            _assert_no_child_left()

    def test_every_error_survives_pickle(self):
        # a child sends its exception back pickled
        violation = Violation("dag", "n", "edge relation contains a cycle")
        errors = [NornetError("x"), ParseError(3, "bad"), ValidationError("v", [violation])]
        errors += [cls("x") for cls in _subclasses(NornetError) - {ParseError, ValidationError}]
        for exc in errors:
            back = pickle.loads(pickle.dumps(exc))
            assert type(back) is type(exc)
            assert (str(back), back.code) == (str(exc), exc.code)
            assert getattr(back, "line", None) == getattr(exc, "line", None)
            assert getattr(back, "violations", None) == getattr(exc, "violations", None)

    def test_a_failure_in_the_callers_chunk_reaps_every_child(self):
        # the children would sleep a minute each; they are killed instead
        start = time.monotonic()
        with pytest.raises(EvidenceError, match="^caller$"):
            _fork_join(_fail_on(1, EvidenceError("caller")), [[1], [2], [3]])
        assert time.monotonic() - start < 30
        _assert_no_child_left()

    def test_a_child_that_sends_nothing_names_its_wait_status(self):
        def fn(task):
            if task == 2:
                os._exit(3)
            return task

        with pytest.raises(RuntimeError, match=r"wait status 768\b"):
            _fork_join(fn, [[1], [2]])
        _assert_no_child_left()
