"""Diagnostic-accuracy comparison of a full network against its reduction.

The pipeline: reduce the network once, sample complete test cases from the
FULL network, reveal each case's findings cumulatively over five phases,
compute every disease's posterior in both networks at every phase, then
aggregate true-positive means (posterior of a disease over the cases where
it is truly present), false-positive means (cases where it is absent), and
a paired t statistic on the log-odds differences.

Everything is deterministic given the seed: case k is sampled with seed
``seed + k``, and per-case work is order-independent, so results are
byte-identical for any worker count.
"""

from __future__ import annotations

import os
import pickle
import signal
from dataclasses import dataclass
from functools import partial
from math import ceil

from .errors import DegenerateVarianceError, DomainError, ExhaustionError
from .inference import _Elimination, _posterior
from .model import Network, NodeKind, PHASES, sample_world
from .reduction import level_reduce
from .rng import SplitMix64
from .stats import log_odds, paired_t, two_sided_p

_RETRY_LIMIT = 10_000
_RETRY_SALT = 0xD1B54A32D192ED03


@dataclass(frozen=True)
class TestCase:
    """One sampled world: the true disease states and every finding value,
    bucketed by the phase in which the finding is revealed. The buckets
    are disjoint: each finding has one phase."""

    case_id: int
    true_diseases: dict[str, bool]
    findings_by_phase: dict[int, dict[str, bool]]

    def cumulative_evidence(self, phase: int) -> dict[str, bool]:
        """The finding buckets for phases 1..phase, merged into a new dict."""
        evidence = {}
        for k in PHASES[:phase]:
            evidence.update(self.findings_by_phase[k])
        return evidence


def generate_cases(
    net: Network, n_cases: int, seed: int, require_positive: bool = False
) -> list[TestCase]:
    """Sample test cases by forward sampling the network.

    Case k uses seed ``seed + k``. With ``require_positive``, worlds with no
    present disease are rejected and redrawn from a per-case retry stream
    (bounded; exhaustion is an error), so accepted cases never depend on
    other cases' draws.
    """
    net.require_valid()
    if n_cases < 1:
        raise DomainError(f"n_cases must be at least 1, got {n_cases}")
    diseases = [n.id for n in net.nodes_of_kind(NodeKind.DISEASE)]
    findings = net.nodes_of_kind(NodeKind.FINDING)
    if require_positive and all(n.prior == 0.0 for n in net.nodes_of_kind(NodeKind.DISEASE)):
        raise ExhaustionError("require_positive with all-zero disease priors")
    cases = []
    for case_id in range(n_cases):
        world = sample_world(net, seed + case_id)
        if require_positive:
            retry = SplitMix64((seed + case_id) ^ _RETRY_SALT)
            attempts = 0
            while not any(world[d] for d in diseases):
                attempts += 1
                if attempts > _RETRY_LIMIT:
                    raise ExhaustionError(
                        f"no world with a present disease after {_RETRY_LIMIT} retries"
                    )
                world = sample_world(net, retry.next_u64())
        buckets = {k: {} for k in PHASES}
        for node in findings:
            buckets[node.phase][node.id] = world[node.id]
        cases.append(TestCase(case_id, {d: world[d] for d in diseases}, buckets))
    return cases


@dataclass(frozen=True)
class CellStats:
    """Aggregates for one (phase, disease) cell.

    ``two`` columns come from the reduced network, ``three`` from the full
    one. The t statistic is over log-odds differences two - three across
    the present cases; it is None when fewer than two present cases exist
    or the differences are constant and nonzero.
    """

    phase: int
    disease: str
    n_present: int
    n_absent: int
    mean_tp_two: float | None
    mean_tp_three: float | None
    mean_fp_two: float | None
    mean_fp_three: float | None
    t_stat: float | None
    df: int | None
    sig95: bool | None
    sig975: bool | None


@dataclass(frozen=True)
class PhaseStats:
    """Pooled per-phase aggregates over all present (disease, case) pairs."""

    phase: int
    n_pairs: int
    mean_tp_two: float | None
    mean_tp_three: float | None
    mean_abs_diff: float | None
    t_stat: float | None
    df: int | None
    sig95: bool | None
    sig975: bool | None


@dataclass(frozen=True)
class ExperimentSummary:
    network_name: str
    n_cases: int
    seed: int
    cells: tuple[CellStats, ...]
    phases: tuple[PhaseStats, ...]
    param_count_original: int
    param_count_reduced: int


def _eval_case(evidence_by_phase, engines):
    """Per phase, one posterior dict per :class:`_Elimination` of
    ``engines``, in their order."""
    return [
        [_posterior(engine, evidence, None, "elimination").posteriors for engine in engines]
        for evidence in evidence_by_phase
    ]


def run_experiment(
    full: Network,
    n_cases: int,
    seed: int,
    *,
    jobs: int = 1,
) -> ExperimentSummary:
    """Run the full comparison protocol on one network.

    Inference uses variable elimination: the experiment evaluates
    thousands of queries, and the engines agree to within 1e-10 anyway
    (enforced by the test suite). The cases split into at most
    ``min(jobs, n_cases)`` chunks: the calling process runs the first and
    a child forked from it runs each other one (see :func:`_fork_join`),
    so ``jobs=1`` never forks. ``jobs`` below 1 is a DomainError.
    """
    if jobs < 1:
        raise DomainError(f"jobs must be at least 1, got {jobs}")
    report = level_reduce(full)
    reduced = report.reduced
    cases = generate_cases(full, n_cases, seed)
    diseases = sorted(n.id for n in full.nodes_of_kind(NodeKind.DISEASE))

    tasks = [[case.cumulative_evidence(phase) for phase in PHASES] for case in cases]
    # One query engine per network for this call; each holds its network,
    # so neither can answer for the other, though they share every id.
    # Every case fixes the same finding ids at a phase, so pruning, plans
    # and node tables repeat, and an engine answers a repeated query once.
    # It dies with this call; a forked child inherits both engines with
    # their stores still empty, and its chunk's cases share them.
    evaluate = partial(_eval_case, engines=(_Elimination(full), _Elimination(reduced)))
    # Every case runs the same five phases over the same finding ids, so
    # every case costs the same elimination work: one chunk per process
    # balances the load.
    size = ceil(n_cases / min(jobs, n_cases))
    results = _fork_join(evaluate, [tasks[i : i + size] for i in range(0, n_cases, size)])

    cells = []
    phase_rows = []
    for phase in PHASES:
        pooled_two: list[float] = []
        pooled_three: list[float] = []
        for did in diseases:
            tp_two, tp_three, fp_two, fp_three = [], [], [], []
            for case, per_phase in zip(cases, results):
                full_post, reduced_post = per_phase[phase - 1]
                if case.true_diseases[did]:
                    tp_three.append(full_post[did])
                    tp_two.append(reduced_post[did])
                else:
                    fp_three.append(full_post[did])
                    fp_two.append(reduced_post[did])
            pooled_two.extend(tp_two)
            pooled_three.extend(tp_three)
            t, df, s95, s975 = _paired_log_odds_t(tp_two, tp_three)
            cells.append(
                CellStats(
                    phase=phase,
                    disease=did,
                    n_present=len(tp_two),
                    n_absent=len(fp_two),
                    mean_tp_two=_mean(tp_two),
                    mean_tp_three=_mean(tp_three),
                    mean_fp_two=_mean(fp_two),
                    mean_fp_three=_mean(fp_three),
                    t_stat=t,
                    df=df,
                    sig95=s95,
                    sig975=s975,
                )
            )
        t, df, s95, s975 = _paired_log_odds_t(pooled_two, pooled_three)
        abs_diffs = [abs(x - y) for x, y in zip(pooled_two, pooled_three)]
        phase_rows.append(
            PhaseStats(
                phase=phase,
                n_pairs=len(pooled_two),
                mean_tp_two=_mean(pooled_two),
                mean_tp_three=_mean(pooled_three),
                mean_abs_diff=_mean(abs_diffs),
                t_stat=t,
                df=df,
                sig95=s95,
                sig975=s975,
            )
        )

    return ExperimentSummary(
        network_name=full.name,
        n_cases=n_cases,
        seed=seed,
        cells=tuple(cells),
        phases=tuple(phase_rows),
        param_count_original=report.param_count_original,
        param_count_reduced=report.param_count_reduced,
    )


def _fork_join(fn, chunks):
    """``fn`` of every task of ``chunks``, in order.

    The calling process maps the first chunk itself; each other chunk
    runs in a child made by ``os.fork``, which inherits ``fn`` and its
    state, so nothing is pickled on the way in. A child pickles its
    results, or the exception it raised, into a pipe and always leaves
    through ``os._exit``, so it neither runs the caller's cleanup nor
    flushes a copy of its buffered output. The caller re-raises a child's
    exception, raises RuntimeError naming the wait status of a child that
    sent nothing, and reaps every child, killing those left when it fails.
    Without ``os.fork`` (Windows) every chunk runs in the calling process.
    """
    if not hasattr(os, "fork"):
        return [fn(task) for chunk in chunks for task in chunk]
    children = {}
    try:
        for chunk in chunks[1:]:
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    os.close(read)
                    try:
                        data = pickle.dumps((True, [fn(task) for task in chunk]))
                    except BaseException as exc:
                        data = pickle.dumps((False, exc))
                    with os.fdopen(write, "wb") as out:
                        out.write(data)
                    code = 0
                finally:
                    os._exit(code)
            os.close(write)
            children[pid] = read
        results = [fn(task) for task in chunks[0]]
        for pid in list(children):
            with os.fdopen(children.pop(pid), "rb") as pipe:
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
            if not data:
                raise RuntimeError(f"forked child sent no result (wait status {status})")
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            results.extend(value)
        return results
    finally:
        for pid, read in children.items():
            os.close(read)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _mean(values: list[float]) -> float | None:
    return sum(values) / len(values) if values else None


# Log-odds differences below this are floating-point noise (the transform
# itself clamps at 1e-9); without the floor, two arithmetically equivalent
# networks could show a sizable t built entirely from last-ulp wobble.
_LOG_ODDS_NOISE_FLOOR = 1e-9


def _paired_log_odds_t(two: list[float], three: list[float]):
    if len(two) < 2:
        return None, None, None, None
    lo_two = [log_odds(p) for p in two]
    lo_three = [log_odds(p) for p in three]
    if max(abs(a - b) for a, b in zip(lo_two, lo_three)) < _LOG_ODDS_NOISE_FLOOR:
        return 0.0, len(two) - 1, False, False
    try:
        t, df = paired_t(lo_two, lo_three)
    except DegenerateVarianceError:
        return None, None, None, None
    p = two_sided_p(t, df)
    return t, df, p < 0.05, p < 0.025
