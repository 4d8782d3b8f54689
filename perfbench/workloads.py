"""The four workloads: what one round does, untraced and traced.

Every workload is a closed loop with one client in one process. A round
is a fixed list of operations on the slot's inputs; the harness in
``run.py`` repeats rounds until the run's time is up, so every run ends on
a round boundary and measures the same mix of operations.

Untraced rounds time each operation with ``perf_counter``; the harness
times its reference loop between operations (see calibration.py). Traced
rounds run the same operations under spans and then replay
the steps of the user-facing call (``run_experiment`` or ``nornet infer``)
through public functions, so each layer gets its own spans; the replay's
cost is part of the tracing overhead the harness reports.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

from nornet import (
    DegenerateVarianceError,
    NodeKind,
    cases_csv,
    fan_stats,
    generate_cases,
    generate_network,
    ips_path_stats,
    level_reduce,
    log_odds,
    paired_t,
    parse_network,
    posterior,
    predict_bias,
    provenance_csv,
    report_csv,
    run_experiment,
    serialize_network,
)
from nornet.cli import main as cli_main
from nornet.factors import min_degree_order
from nornet.inference import DEFAULT_ENUMERATION_THRESHOLD

import inputs as I

TOLERANCE = 1e-10


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Op(NamedTuple):
    """One timed operation."""

    kind: str
    seconds: float
    units: int  # work finished: test cases, queries or passes
    error: str | None  # exception class, or the CLI's error class
    expected: bool  # the failure is a recorded baseline failure
    position: int  # in its round: the same input in every round
    reference: float | None  # reference-loop seconds around it


class Log:
    """Operations of the measured rounds, and every correctness violation.

    With ``calibrate``, the reference loop is timed after every operation,
    and an operation's reference time is the mean of the loop's times just
    before and after it."""

    def __init__(self, calibrate=None):
        self.ops: list[Op] = []
        self.wrong: list[str] = []
        self._position = 0
        self._calibrate = calibrate
        self._last = calibrate() if calibrate else None

    def start_round(self):
        self._position = 0

    def op(self, kind, seconds, units=1, error=None, expected=False):
        reference = None
        if self._calibrate:
            now = self._calibrate()
            reference, self._last = (self._last + now) / 2, now
        self.ops.append(Op(kind, seconds, units, error, expected, self._position, reference))
        self._position += 1
        if error is not None and not expected:
            self.wrong.append(f"{kind} failed with unexpected {error}")

    def mismatch(self, what: str):
        self.wrong.append(what)


class Mismatch(Exception):
    """An output differs from its reference during set-up."""


def _span(tr, name, **attrs):
    return contextlib.nullcontext() if tr is None else tr.span(name, **attrs)


def _call(fn, *args, **kwargs):
    """Time one call; any exception is the operation's failure, by class."""
    start = perf_counter()
    try:
        out, error = fn(*args, **kwargs), None
    except Exception as exc:
        out, error = None, type(exc).__name__
    return out, perf_counter() - start, error


def _close(got: float | None, want: float | None) -> bool:
    if got is None or want is None:
        return got is None and want is None
    return abs(got - want) <= TOLERANCE


def _generate(cfg, tr):
    with _span(tr, "generator.generate_network"):
        return generate_network(cfg)


def _sample(net, n, seed, tr):
    with _span(tr, "sampling.generate_cases", worlds=n):
        return generate_cases(net, n, seed)


# -- inference cost, from public structure ----------------------------------------


def _prune(net, needed):
    """Kept node ids in topological order, as the engines prune barren nodes."""
    kept = set()
    for nid in reversed(net.topological_order()):
        if nid in needed or any(c in kept for c in net.children_of(nid)):
            kept.add(nid)
    return [nid for nid in net.topological_order() if nid in kept]


def _ve_cost(tr, net, kept, fixed):
    """Cells of every table one elimination pass builds along
    min_degree_order, and the widest of them."""
    scopes = []
    for nid in kept:
        family = [nid] + [pid for pid, _ in net.parents_of(nid)]
        scopes.append(frozenset(v for v in family if v not in fixed))
    hidden = sorted(nid for nid in kept if nid not in fixed)
    with tr.span("factors.min_degree_order"):
        order = min_degree_order(hidden, [tuple(sorted(s)) for s in scopes])
    cells = sum(1 << len(s) for s in scopes)
    width = max((len(s) for s in scopes), default=0)
    for var in order:
        related = [s for s in scopes if var in s]
        scopes = [s for s in scopes if var not in s]
        union = frozenset().union(*related)
        cells += 1 << len(union)
        width = max(width, len(union))
        scopes.append(union - {var})
    return cells, width


def _count_query(tr, net, fixed, track, method):
    """Counters for one engine query, following the dispatch rule of
    nornet.inference: prune, then enumerate when at most
    DEFAULT_ENUMERATION_THRESHOLD unobserved nodes remain under ``auto``.
    Every query's first elimination pass is costed, so the counters also
    show what elimination would have cost an enumerated query."""
    c = tr.counts
    kept = _prune(net, set(fixed) | set(track))
    unobserved = len(kept) - len(fixed)
    first = _ve_cost(tr, net, kept, fixed)
    if method == "auto":
        c["inference.auto_dispatches"] += 1
        method = "enumeration" if unobserved <= DEFAULT_ENUMERATION_THRESHOLD else "elimination"
        if method == "enumeration":
            c["inference.auto_enum"] += 1
    if method == "enumeration":
        c["inference.enum_leaves"] += 1 << unobserved
        return
    passes = [fixed] + [{**fixed, t: True} for t in track if t not in fixed]
    c["inference.ve_passes"] += len(passes)
    for i, pass_fixed in enumerate(passes):
        cells, width = first if i == 0 else _ve_cost(tr, net, kept, pass_fixed)
        c["factors.cells"] += cells
        c["factors.max_width"] = max(c["factors.max_width"], width)


def _traced_posterior(tr, net, evidence, network, phase, method, conjunction=None, op=None):
    """posterior under a span, then its counters; returns (result,
    seconds, error)."""
    with tr.span("inference.posterior", op=op, network=network, phase=phase) as span:
        result, _, error = _call(
            posterior, net, evidence, conjunction=conjunction, method=method
        )
    tr.counts["inference.queries"] += 1
    diseases = tuple(n.id for n in net.nodes_of_kind(NodeKind.DISEASE))
    fixed = {nid: bool(v) for nid, v in evidence.items()}
    _count_query(tr, net, fixed, diseases, method)
    if conjunction is not None:
        _count_query(tr, net, {**fixed, **{d: True for d in conjunction}}, (), method)
    return result, span.ns / 1e9, error


# -- experiment ---------------------------------------------------------------------


class Experiment:
    """Pairs of run_experiment calls, one per criterion-8 network, with
    EXPERIMENT_CASES cases each. One operation is a pair: its latency is
    the two calls' wall time and it finishes 2 * EXPERIMENT_CASES cases."""

    kind = "pair"

    def __init__(self, refs, jobs):
        self.refs = refs["experiment"]
        self.jobs = jobs

    def setup(self, slot, work: Path, tr=None):
        self.nets = {label: _generate(cfg, tr) for label, cfg in I.CRIT8.items()}
        self.seeds = I.experiment_seeds(slot)
        self.ref = self.refs[str(slot)]

    def _check(self, log, label, k, text):
        if sha256(text) != self.ref[label][k]:
            log.mismatch(f"experiment report CSV differs on the {label}-fan network, pair {k}")

    def round(self, log: Log):
        for k, seed in enumerate(self.seeds):
            seconds, error, summaries = 0.0, None, {}
            for label, net in self.nets.items():
                summaries[label], secs, err = _call(
                    run_experiment, net, I.EXPERIMENT_CASES, seed, jobs=self.jobs
                )
                seconds += secs
                error = error or err
            log.op("pair", seconds, units=2 * I.EXPERIMENT_CASES, error=error)
            for label, summary in summaries.items():
                if summary is not None:
                    self._check(log, label, k, report_csv(summary))

    def traced_round(self, tr, log: Log):
        for k, seed in enumerate(self.seeds):
            seconds, error = 0.0, None
            for label, net in self.nets.items():
                op = (k, label)
                with tr.span("experiment.run_experiment", op=op) as top:
                    summary, secs, err = _call(
                        run_experiment, net, I.EXPERIMENT_CASES, seed, jobs=self.jobs
                    )
                seconds += secs
                error = error or err
                if summary is not None:
                    with tr.span("fileformat.report_csv", op=op):
                        text = report_csv(summary)
                    self._check(log, label, k, text)
                with tr.span("replay", op=op) as replay:
                    self._replay(tr, net, seed)
                top.attrs["replay"] = replay.index
            log.op("pair", seconds, units=2 * I.EXPERIMENT_CASES, error=error)

    def _replay(self, tr, full, seed):
        """run_experiment's steps through public calls: reduce, sample,
        ship both networks as text (as the worker transport does), query
        both networks at every phase, then the paired statistics."""
        with tr.span("reduction.level_reduce"):
            report = level_reduce(full)
        tr.counts["reduction.ips_eliminated"] += len(report.eliminated_ips_order)
        tr.counts["reduction.edges_out"] += len(report.reduced.edges)
        cases = _sample(full, I.EXPERIMENT_CASES, seed, tr)
        tr.counts["sampling.worlds"] += I.EXPERIMENT_CASES
        shipped = {}
        for network, net in (("full", full), ("reduced", report.reduced)):
            with tr.span("fileformat.serialize_network"):
                text = serialize_network(net)
            with tr.span("fileformat.parse_network"):
                parsed = parse_network(text, require_valid=False)
            with tr.span("model.validate"):
                parsed.require_valid()
            shipped[network] = parsed
        answers = {}
        for case in cases:
            for phase in I.PHASES:
                evidence = dict(case.cumulative_evidence(phase))
                for network, net in shipped.items():
                    result, _, _ = _traced_posterior(
                        tr, net, evidence, network, phase, "elimination"
                    )
                    answers[case.case_id, phase, network] = result
        with tr.span("stats.aggregate"):
            for phase in I.PHASES:
                for did in sorted(answers[cases[0].case_id, phase, "full"].posteriors):
                    present = [c for c in cases if c.true_diseases[did]]
                    two = [log_odds(answers[c.case_id, phase, "reduced"].posteriors[did]) for c in present]
                    three = [log_odds(answers[c.case_id, phase, "full"].posteriors[did]) for c in present]
                    if len(two) >= 2:
                        try:
                            paired_t(two, three)
                        except DegenerateVarianceError:
                            pass


# -- infer --------------------------------------------------------------------------


def _cli_error_class(stderr: str) -> str:
    line = stderr.strip().splitlines()[-1] if stderr.strip() else ""
    return line.split(":", 2)[1] if line.startswith("error:") else "exit-1"


class Infer:
    """`nornet infer` in-process through nornet.cli.main, stdout captured."""

    kind = "query"

    def __init__(self, refs):
        self.refs = refs["infer"]

    def setup(self, slot, work: Path, tr=None):
        ref = self.refs[str(slot)]
        nets = {label: _generate(cfg, tr) for label, cfg in I.CRIT8.items()}
        self.paths, cases = {}, {}
        for label, net in nets.items():
            with _span(tr, "fileformat.serialize_network"):
                text = serialize_network(net)
            path = work / f"crit8-{label}.net"
            path.write_text(text)
            self.paths[label] = str(path)
            cases[label] = _sample(net, I.INFER_CASES, I.infer_case_seed(slot), tr)
            with _span(tr, "fileformat.cases_csv"):
                text = cases_csv(cases[label])
            if sha256(text) != ref["cases"][label]:
                raise Mismatch(f"sampled infer cases differ on the {label}-fan network")
            (work / f"cases-{label}.csv").write_text(text)
        self.queries = I.infer_queries(cases)
        self.argvs = []
        for q in self.queries:
            argv = ["infer", self.paths[q["network"]], "--evidence", I.evidence_arg(q["evidence"])]
            if q["conjunction"]:
                argv += ["--conjunction", ",".join(q["conjunction"])]
            self.argvs.append(argv)
        self.answers = ref["answers"]

    def _run_cli(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = perf_counter()
            try:
                code, error = cli_main(argv), None
            except (Exception, SystemExit) as exc:
                code, error = None, type(exc).__name__
            seconds = perf_counter() - start
        if error is None and code != 0:
            error = _cli_error_class(err.getvalue())
        return out.getvalue(), seconds, error

    def _check(self, log, i, stdout):
        got = {}
        for line in stdout.splitlines():
            key, _, value = line.partition(" ")
            try:
                got[key] = float(value)
            except ValueError:
                got[key] = None
        want = self.answers[i]
        conj = got.pop("conjunction", None)
        ok = sorted(got) == ["d001", "d002", "d003"] and all(
            _close(got[d], w) for d, w in zip(("d001", "d002", "d003"), want[:3])
        ) and _close(conj, want[3])
        if not ok:
            log.mismatch(f"infer query {i} printed {stdout!r}, reference {want}")

    def round(self, log: Log):
        for i, argv in enumerate(self.argvs):
            stdout, seconds, error = self._run_cli(argv)
            log.op("query", seconds, error=error)
            if error is None:
                self._check(log, i, stdout)

    def traced_round(self, tr, log: Log):
        for i, (argv, q) in enumerate(zip(self.argvs, self.queries)):
            with tr.span("cli.main", op=i) as top:
                stdout, seconds, error = self._run_cli(argv)
            log.op("query", seconds, error=error)
            if error is None:
                self._check(log, i, stdout)
            with tr.span("replay", op=i) as replay:
                text = Path(self.paths[q["network"]]).read_text()
                with tr.span("fileformat.parse_network"):
                    net = parse_network(text, require_valid=False)
                with tr.span("model.validate"):
                    net.require_valid()
                _traced_posterior(
                    tr, net, q["evidence"], "full", q["phase"], "auto", q["conjunction"]
                )
            top.attrs["replay"] = replay.index


# -- pipeline -----------------------------------------------------------------------


class Pipeline:
    """Structural pass over the large network, then auto posteriors on its
    reduction for every sampled case at phases 1..5."""

    kind = "query"

    def __init__(self, refs):
        self.refs = refs["pipeline"]

    def setup(self, slot, work: Path, tr=None):
        net = _generate(I.LARGE, tr)
        with _span(tr, "fileformat.serialize_network"):
            text = serialize_network(net)
        self.work = work
        self.path = work / "large.net"
        self.path.write_text(text)
        self.seed = I.pipeline_case_seed(slot)
        with _span(tr, "reduction.level_reduce"):
            self.reduced = level_reduce(net).reduced
        cases = _sample(net, I.PIPELINE_CASES, self.seed, tr)
        self.queries = I.pipeline_queries(cases)
        self.answers = self.refs["answers"][str(slot)]
        self.expected_failures = {int(i) for i in self.refs["baseline_failures"][str(slot)]}
        self.cases_ref = self.refs["cases"][str(slot)]

    def structural_pass(self, tr=None):
        """parse+validate -> level_reduce -> reduced network file and
        provenance CSV -> sampled cases CSV -> fan statistics."""
        with _span(tr, "fileformat.parse_network"):
            net = parse_network(self.path.read_text(), require_valid=False)
        with _span(tr, "model.validate"):
            net.require_valid()
        with _span(tr, "reduction.level_reduce"):
            report = level_reduce(net)
        if tr is not None:
            tr.counts["reduction.ips_eliminated"] += len(report.eliminated_ips_order)
            tr.counts["reduction.edges_out"] += len(report.reduced.edges)
        with _span(tr, "fileformat.serialize_network"):
            reduced_text = serialize_network(report.reduced)
        with _span(tr, "fileformat.provenance_csv"):
            provenance = provenance_csv(report)
        cases = _sample(net, I.PIPELINE_CASES, self.seed, tr)
        if tr is not None:
            tr.counts["sampling.worlds"] += I.PIPELINE_CASES
        with _span(tr, "fileformat.cases_csv"):
            cases_text = cases_csv(cases)
        with _span(tr, "analysis.fan"):
            stats = fan_stats(net)
            predict_bias(stats)
            ips_path_stats(report)
        (self.work / "reduced.net").write_text(reduced_text)
        (self.work / "provenance.csv").write_text(provenance)
        (self.work / "cases.csv").write_text(cases_text)
        return {
            "reduced network file": (reduced_text, self.refs["reduced"]),
            "provenance CSV": (provenance, self.refs["provenance"]),
            "cases CSV": (cases_text, self.cases_ref),
        }

    def _pass_op(self, log: Log, tr=None):
        outputs, seconds, error = _call(self.structural_pass, tr)
        log.op("pass", seconds, error=error)
        for what, (text, want) in (outputs or {}).items():
            if sha256(text) != want:
                log.mismatch(f"pipeline {what} differs from the reference")

    def _check(self, log, i, result):
        got = [result.posteriors.get(d) for d in ("d001", "d002", "d003")]
        if not all(_close(g, w) for g, w in zip(got, self.answers[i])):
            log.mismatch(f"pipeline query {i} gave {got}, reference {self.answers[i]}")

    def round(self, log: Log):
        self._pass_op(log)
        for i, q in enumerate(self.queries):
            result, seconds, error = _call(posterior, self.reduced, q["evidence"])
            log.op("query", seconds, error=error, expected=i in self.expected_failures)
            if error is None:
                self._check(log, i, result)

    def traced_round(self, tr, log: Log):
        with tr.span("pipeline.pass", op="pass"):
            self._pass_op(log, tr)
        for i, q in enumerate(self.queries):
            result, seconds, error = _traced_posterior(
                tr, self.reduced, q["evidence"], "reduced", q["phase"], "auto", op=i
            )
            log.op("query", seconds, error=error, expected=i in self.expected_failures)
            if error is None:
                self._check(log, i, result)


def make(name: str, refs: dict):
    if name == "experiment":
        return Experiment(refs, jobs=1)
    if name == "experiment-j2":
        return Experiment(refs, jobs=2)
    if name == "infer":
        return Infer(refs)
    if name == "pipeline":
        return Pipeline(refs)
    raise ValueError(name)
