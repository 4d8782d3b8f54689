#!/usr/bin/env python3
"""Record the reference outputs that every benchmark run is checked against.

    python3 perfbench/record_refs.py

Writes ``perfbench/refs.json`` for every input slot: the digests of the
experiment report CSVs, the sampled-cases CSVs, the reduced network file
and the provenance CSV, and the posteriors of every infer and pipeline
query. Run it only on a commit whose outputs are known good; a later run
of ``run.py`` then fails on any output that differs.

Pipeline posteriors come from an independent log-space evaluation of the
reduced (two-level) network, and the program's own answers must agree
with it to 1e-10. Pipeline queries the program fails on are recorded as
baseline failures, with their exception class, so that runs count them as
expected; a later fix is then checked against the independent answer.
Infer posteriors are the program's auto-method answers, which must agree
with variable elimination to 1e-10.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from nornet import (  # noqa: E402
    NodeKind,
    cases_csv,
    generate_cases,
    generate_network,
    level_reduce,
    posterior,
    provenance_csv,
    report_csv,
    run_experiment,
    serialize_network,
)

import inputs as I  # noqa: E402
from run import _commit  # noqa: E402
from workloads import TOLERANCE, sha256  # noqa: E402


def two_level_posteriors(net, evidence) -> list[float]:
    """P(disease | evidence) on a network whose findings hang directly off
    the diseases, summing the 2^|diseases| disease states in log space."""
    diseases = sorted(n.id for n in net.nodes_of_kind(NodeKind.DISEASE))
    priors = [net.node(d).prior for d in diseases]
    log_w = []
    for state in itertools.product((False, True), repeat=len(diseases)):
        present = {d for d, s in zip(diseases, state) if s}
        lw = sum(
            _log(p if s else 1.0 - p) for p, s in zip(priors, state)
        )
        for fid, value in evidence.items():
            parents = net.parents_of(fid)
            if any(net.node(p).kind is not NodeKind.DISEASE for p, _ in parents):
                raise ValueError(f"{fid} has a parent that is not a disease")
            absent = 1.0 - net.node(fid).leak
            for pid, eta in parents:
                if pid in present:
                    absent *= 1.0 - eta
            lw += _log(1.0 - absent) if value else _log(absent)
        log_w.append((state, lw))
    top = max(lw for _, lw in log_w)
    weights = [(state, math.exp(lw - top)) for state, lw in log_w]
    total = sum(w for _, w in weights)
    return [
        sum(w for state, w in weights if state[k]) / total
        for k in range(len(diseases))
    ]


def _log(x: float) -> float:
    return math.log(x) if x > 0.0 else -math.inf


def _require(cond: bool, what: str):
    if not cond:
        raise SystemExit(f"record_refs: {what}")


def main() -> int:
    crit8 = {label: generate_network(cfg) for label, cfg in I.CRIT8.items()}
    large = generate_network(I.LARGE)
    report = level_reduce(large)
    reduced = report.reduced
    refs = {
        "recorded_at": _commit(),
        "slots": I.SLOTS,
        "experiment": {},
        "infer": {},
        "pipeline": {
            "reduced": sha256(serialize_network(reduced)),
            "provenance": sha256(provenance_csv(report)),
            "cases": {},
            "answers": {},
            "baseline_failures": {},
        },
    }
    for slot in range(I.SLOTS):
        key = str(slot)
        exp = {label: [] for label in crit8}
        for seed in I.experiment_seeds(slot):
            for label, net in crit8.items():
                texts = {
                    jobs: report_csv(run_experiment(net, I.EXPERIMENT_CASES, seed, jobs=jobs))
                    for jobs in (1, 2)
                }
                _require(texts[1] == texts[2], f"experiment report depends on jobs (seed {seed})")
                exp[label].append(sha256(texts[1]))
        refs["experiment"][key] = exp

        cases = {
            label: generate_cases(net, I.INFER_CASES, I.infer_case_seed(slot))
            for label, net in crit8.items()
        }
        answers = []
        for q in I.infer_queries(cases):
            net = crit8[q["network"]]
            got = posterior(net, q["evidence"], conjunction=q["conjunction"])
            check = posterior(net, q["evidence"], conjunction=q["conjunction"], method="elimination")
            row = [got.posteriors[d] for d in ("d001", "d002", "d003")] + [got.conjunction]
            alt = [check.posteriors[d] for d in ("d001", "d002", "d003")] + [check.conjunction]
            _require(
                all((a is None and b is None) or abs(a - b) <= TOLERANCE for a, b in zip(row, alt)),
                f"engines disagree on an infer query (slot {slot})",
            )
            answers.append(row)
        refs["infer"][key] = {
            "cases": {label: sha256(cases_csv(c)) for label, c in cases.items()},
            "answers": answers,
        }

        pcases = generate_cases(large, I.PIPELINE_CASES, I.pipeline_case_seed(slot))
        refs["pipeline"]["cases"][key] = sha256(cases_csv(pcases))
        answers, failures = [], {}
        for i, q in enumerate(I.pipeline_queries(pcases)):
            want = two_level_posteriors(reduced, q["evidence"])
            answers.append(want)
            try:
                got = posterior(reduced, q["evidence"]).posteriors
            except Exception as exc:
                failures[str(i)] = type(exc).__name__
                continue
            _require(
                all(abs(got[d] - w) <= TOLERANCE for d, w in zip(("d001", "d002", "d003"), want)),
                f"pipeline query {i} disagrees with the two-level evaluation (slot {slot})",
            )
        refs["pipeline"]["answers"][key] = answers
        refs["pipeline"]["baseline_failures"][key] = failures
        print(f"slot {slot}: {len(failures)} baseline pipeline failures "
              f"{sorted(set(failures.values()))}", file=sys.stderr)
    (HERE / "refs.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
