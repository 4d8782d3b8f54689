#!/usr/bin/env python3
"""Benchmark of the nornet toolkit: seeded workloads, end-to-end and per-layer.

Run one workload, from the root of a checkout:

    python3 perfbench/run.py --workload infer --seed 1 --seconds 20 --trace 0

Run every workload, each in its own process, and print a table of its
end-to-end metrics by name, unit and sample count:

    python3 perfbench/run.py --workload all --seconds 20

Workloads: experiment, experiment-j2, infer, pipeline (see README.md).
``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1`` runs
the same rounds under in-memory spans and reports per-layer metrics, with
counters that must repeat exactly from round to round. Every run checks
its outputs against ``refs.json``; a run whose outputs differ prints
``"correct": false`` with no metrics and exits 1. The last line of
standard output is the result object; the line before it, starting with
``record``, is the run record (machine, load, commit, failures by class,
each end-to-end metric under its workload-specific name with its sample
count, the per-layer table and tracing overhead of traced runs).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path
from typing import NamedTuple

from calibration import REFERENCE_MS, reference_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("experiment", "experiment-j2", "infer", "pipeline")
# set-up is repeated and its median reported, so one slow set-up does not
# decide setup_s
SETUPS = 5
# every operation of a round is timed at least this often, and the median
# of its timings is its latency (see _per_operation)
MIN_ROUNDS = 5
# counters are compared between traced rounds
MIN_TRACED_ROUNDS = 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    src = ROOT / "src"
    if not (src / "nornet" / "__init__.py").is_file():
        print(f"perfbench: no nornet package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import inputs
    import workloads
    from spans import Tracer

    if args.seed is None:
        args.seed = inputs.DEFAULT_SEED
    refs = json.loads((HERE / "refs.json").read_text())
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=work_root))
    try:
        run = Run(args, inputs, workloads, Tracer, refs, work)
        return run.execute()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass


class Run:
    def __init__(self, args, inputs, workloads, tracer_cls, refs, work):
        self.args = args
        self.W = workloads
        self.tr = tracer_cls() if args.trace else None
        self.work = work
        self.slot = inputs.slot_of(args.seed)
        self.seeds = {
            "default": inputs.DEFAULT_SEED, "held_out": inputs.HELD_OUT_SEED, "slots": inputs.SLOTS,
        }
        self.wl = workloads.make(args.workload, refs)
        self.log = workloads.Log(calibrate=None if args.trace else reference_seconds)
        self.wrong: list[str] = []
        self.record: dict = {}

    def execute(self) -> int:
        self.record.update(
            workload=self.args.workload,
            seed=self.args.seed,
            slot=self.slot,
            seeds=self.seeds,
            trace=self.args.trace,
            seconds=self.args.seconds,
            why=_why(self.args.workload),
            machine=_machine(),
            commit=_commit(),
            loadavg_start=_loadavg(),
        )
        try:
            setup_s = self._setup()
            if self.args.trace:
                metrics = self._traced()
            else:
                metrics = self._untraced(setup_s)
        except self.W.Mismatch as exc:
            self.wrong.append(str(exc))
            metrics = {}
        self.wrong.extend(self.log.wrong)
        attempted = len(self.log.ops)
        failed = sum(1 for op in self.log.ops if op.error is not None)
        self.record.update(
            loadavg_end=_loadavg(),
            attempted=attempted,
            failed=failed,
            failures=dict(Counter(op.error for op in self.log.ops if op.error is not None)),
            expected_failures=sum(1 for op in self.log.ops if op.error is not None and op.expected),
            wrong=self.wrong[:20],
        )
        correct = not self.wrong
        print("record " + json.dumps(self.record, sort_keys=True))
        print(json.dumps({
            "correct": correct,
            "attempted": max(attempted, 1),
            "failed": failed,
            "metrics": metrics if correct else {},
        }))
        return 0 if correct else 1

    def _setup(self) -> float:
        """Time from process start to the first timed operation: the median
        of SETUPS starts of a fresh interpreter that imports nornet, plus the
        median of SETUPS set-ups of the workload in this process. Every
        time is scaled to reference speed (see calibration.py)."""
        starts = [self._timed(_start_and_import) for _ in range(SETUPS)]
        setups = [
            self._timed(self.wl.setup, self.slot, self.work, self.tr) for _ in range(SETUPS)
        ]
        self.record["setup_raw_s"] = {
            "start_and_import": [raw for raw, _ in starts],
            "setups": [raw for raw, _ in setups],
        }
        return statistics.median(t for _, t in starts) + statistics.median(t for _, t in setups)

    @staticmethod
    def _timed(fn, *args):
        """(raw seconds, seconds at reference speed) of one call."""
        before = reference_seconds()
        start = time.perf_counter()
        fn(*args)
        raw = time.perf_counter() - start
        return raw, _at_reference(raw, (before + reference_seconds()) / 2)

    def _warm_up(self):
        """One untimed round, so lazy set-up and caches are done before timing;
        its outputs are checked like any other round's."""
        warm = self.W.Log()
        self.wl.round(warm)
        self.wrong.extend(warm.wrong)
        gc.collect()

    def _untraced(self, setup_s: float) -> dict:
        self._warm_up()
        wl, log = self.wl, self.log
        deadline = time.perf_counter() + self.args.seconds
        rounds = 0
        while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
            log.start_round()
            wl.round(log)
            rounds += 1
        throughput, p50, p90, per_op = self._summary(at_reference=True)
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "throughput_per_s": {"value": throughput, "unit": "1/s"},
            "latency_ms.p50": {"value": p50 * 1e3, "unit": "ms"},
            "latency_ms.p90": {"value": p90 * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": _peak_rss_mb(getattr(wl, "jobs", 1)), "unit": "MB"},
        }
        raw = self._summary(at_reference=False)
        references = [op.reference for op in log.ops]
        self.record["rounds"] = rounds
        self.record["metrics"] = self._named_metrics(metrics, per_op, rounds)
        self.record["raw"] = {
            "throughput_per_s": raw[0],
            "latency_ms.p50": raw[1] * 1e3,
            "latency_ms.p90": raw[2] * 1e3,
            "reference_ms": {
                "median": statistics.median(references) * 1e3,
                "min": min(references) * 1e3,
                "max": max(references) * 1e3,
            },
        }
        return metrics

    def _summary(self, at_reference: bool):
        """(throughput, p50 s, p90 s, per-operation medians)."""
        wl = self.wl
        per_op = _per_operation(self.log.ops, at_reference)
        timed = [op for op in per_op if op.kind == wl.kind]
        # a failed operation ranks after every successful one
        ranked = sorted(op.seconds for op in timed if not op.failed) + sorted(
            op.seconds for op in timed if op.failed
        )
        throughput = sum(op.units for op in timed if not op.failed) / sum(
            op.seconds for op in timed
        )
        return throughput, _nearest_rank(ranked, 0.50), _nearest_rank(ranked, 0.90), per_op

    def _named_metrics(self, metrics, per_op, rounds) -> dict:
        """The end-to-end metrics under workload-specific names (cases_per_s,
        query_ms.p50, pipeline_s, ...), plus error_rate.
        ``samples`` counts distinct operations; each was timed ``rounds``
        times and is represented by its median at reference speed."""
        name = self.args.workload
        latency = [op for op in per_op if op.kind == self.wl.kind]
        attempted = len(self.log.ops)
        failed = sum(1 for op in self.log.ops if op.error is not None)

        def entry(value, unit, samples):
            return {"value": value, "unit": unit, "samples": samples, "rounds": rounds}

        out = {
            "setup_s": entry(metrics["setup_s"]["value"], "s", SETUPS),
            "error_rate": entry(failed / attempted, "share", attempted),
            "peak_rss_mb": entry(metrics["peak_rss_mb"]["value"], "MB", 1),
        }
        if name.startswith("experiment"):
            out["cases_per_s"] = entry(
                metrics["throughput_per_s"]["value"], "1/s", sum(op.units for op in latency)
            )
            for q in ("p50", "p90"):
                out[f"pair_ms.{q}"] = entry(metrics[f"latency_ms.{q}"]["value"], "ms", len(latency))
        else:
            for q in ("p50", "p90"):
                out[f"query_ms.{q}"] = entry(metrics[f"latency_ms.{q}"]["value"], "ms", len(latency))
            out["queries_per_s"] = entry(
                metrics["throughput_per_s"]["value"], "1/s", len(latency)
            )
        passes = [op for op in per_op if op.kind == "pass"]
        if passes:
            out["pipeline_s"] = entry(passes[0].seconds, "s", len(passes))
        return out

    def _traced(self) -> dict:
        tr, wl = self.tr, self.wl
        self._warm_up()
        start = time.perf_counter()
        wl.round(self.W.Log())
        untraced_round_s = time.perf_counter() - start
        first_span = len(tr.spans)
        deadline = time.perf_counter() + self.args.seconds
        rounds, round_s = [], []
        while len(rounds) < MIN_TRACED_ROUNDS or time.perf_counter() < deadline:
            tr.counts.clear()
            self.log.start_round()
            start = time.perf_counter()
            wl.traced_round(tr, self.log)
            round_s.append(time.perf_counter() - start)
            rounds.append(dict(tr.counts))
        if any(r != rounds[0] for r in rounds):
            diff = sorted({k for r in rounds for k in r if r.get(k) != rounds[0].get(k)})
            self.wrong.append(f"exact counters differ between traced rounds: {diff}")
        counts = rounds[0]
        layers = _layer_table(tr, counts, first_span, len(rounds))
        self.record["rounds"] = len(rounds)
        self.record["layers"] = layers
        self.record["tracing_overhead"] = {
            "untraced_round_s": untraced_round_s,
            "traced_round_s": statistics.median(round_s),
            "overhead_s": statistics.median(round_s) - untraced_round_s,
        }
        return _per_layer(tr, layers)

# -- all workloads ----------------------------------------------------------------------


def run_all(args) -> int:
    """Each workload in its own process, so no peak memory or warm cache
    carries over; prints every metric by name with unit and sample count."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        record = next((json.loads(l[7:]) for l in lines if l.startswith("record ")), {})
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
        ok = proc.returncode == 0 and result.get("correct") is True
        status = status or (0 if ok else 1)
        print(f"== {name}  correct={result.get('correct')}  attempted={result.get('attempted')}"
              f"  failed={result.get('failed')}  failures={record.get('failures')}")
        if not ok:
            print(proc.stderr.strip()[-2000:] or "\n".join(record.get("wrong", [])))
            continue
        table = record.get("metrics") or {}
        if args.trace:
            table = {k: {"value": v} for k, v in record.get("layers", {}).items()}
        for metric, m in sorted(table.items()):
            print(f"  {metric:40s} {_fmt(m['value']):>14s} {m.get('unit', ''):6s}"
                  f" samples={m.get('samples', '-')} rounds={m.get('rounds', '-')}")
    return status


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


# -- traced metrics -----------------------------------------------------------------------


def _median_ms(spans) -> float:
    return statistics.median(s.ns for s in spans) / 1e6 if spans else 0.0


def _mean_ms(spans) -> float:
    return statistics.fmean(s.ns for s in spans) / 1e6 if spans else 0.0


def _world_us(tr) -> float:
    spans = tr.named("sampling.generate_cases")
    worlds = sum(s.attrs["worlds"] for s in spans)
    return sum(s.ns for s in spans) / worlds / 1e3 if worlds else 0.0


def _csv_spans(tr):
    return [s for s in tr.spans if s.name.startswith("fileformat.") and s.name.endswith("_csv")]


def _counters(counts) -> dict:
    dispatches = counts.get("inference.auto_dispatches", 0)
    return {
        "inference.queries": counts.get("inference.queries", 0),
        "inference.ve_passes": counts.get("inference.ve_passes", 0),
        "inference.auto_enum_share": (
            counts.get("inference.auto_enum", 0) / dispatches if dispatches else 0.0
        ),
        "inference.enum_leaves": counts.get("inference.enum_leaves", 0),
        "factors.cells": counts.get("factors.cells", 0),
        "factors.max_width": counts.get("factors.max_width", 0),
        "reduction.ips_eliminated": counts.get("reduction.ips_eliminated", 0),
        "reduction.edges_out": counts.get("reduction.edges_out", 0),
        "sampling.worlds": counts.get("sampling.worlds", 0),
    }


# spans that group the benchmark's own steps rather than wrap a nornet call
_GLUE_SPANS = ("replay", "pipeline.pass")
# the per-layer metrics every workload exercises (BENCHMARK.json per_layer,
# besides inference.posterior_ms.p1..p5), with their units
_SHARED_LAYER_UNITS = {
    "inference.queries": "count",
    "inference.ve_passes": "count",
    "inference.auto_enum_share": "share",
    "inference.enum_leaves": "count",
    "factors.cells": "count",
    "factors.max_width": "count",
    "factors.order_ms": "ms",
    "reduction.ips_eliminated": "count",
    "reduction.edges_out": "count",
    "fileformat.parse_ms": "ms",
    "fileformat.serialize_ms": "ms",
    "fileformat.csv_ms": "ms",
    "model.validate_ms": "ms",
    "sampling.world_us": "us",
    "sampling.worlds": "count",
    "generator.gen_ms": "ms",
}


def _per_layer(tr, table) -> dict:
    """The result object's per-layer metrics: mean posterior time per phase
    over all networks, and the entries of the layer table that every
    workload has; the workload-specific ones stay in the record."""
    out = {
        f"inference.posterior_ms.p{phase}": {
            "value": _mean_ms(tr.named("inference.posterior", phase=phase)), "unit": "ms",
        }
        for phase in (1, 2, 3, 4, 5)
    }
    for name, unit in _SHARED_LAYER_UNITS.items():
        out[name] = {"value": table[name], "unit": unit}
    return out


def _layer_table(tr, counts, first_span, n_rounds) -> dict:
    """Every per-layer metric the workload exercises, by network and phase
    where that applies: medians per call unless the name says otherwise."""
    out = {}
    for network in ("full", "reduced"):
        for phase in (1, 2, 3, 4, 5):
            spans = tr.named("inference.posterior", network=network, phase=phase)
            if spans:
                out[f"inference.posterior_ms.{network}.p{phase}"] = _median_ms(spans)
    out.update(_counters(counts))
    out["factors.order_ms"] = _median_ms(tr.named("factors.min_degree_order"))
    if tr.named("reduction.level_reduce"):
        out["reduction.level_reduce_s"] = _median_ms(tr.named("reduction.level_reduce")) / 1e3
    out["fileformat.parse_ms"] = _median_ms(tr.named("fileformat.parse_network"))
    out["fileformat.serialize_ms"] = _median_ms(tr.named("fileformat.serialize_network"))
    out["fileformat.csv_ms"] = _median_ms(_csv_spans(tr))
    out["model.validate_ms"] = _median_ms(tr.named("model.validate"))
    out["sampling.world_us"] = _world_us(tr)
    out["generator.gen_ms"] = _median_ms(tr.named("generator.generate_network"))
    if tr.named("stats.aggregate"):
        out["stats.aggregate_ms"] = _median_ms(tr.named("stats.aggregate"))
    if tr.named("analysis.fan"):
        out["analysis.fan_ms"] = _median_ms(tr.named("analysis.fan"))
    if tr.named("pipeline.pass"):
        out["pipeline_s"] = _median_ms(tr.named("pipeline.pass")) / 1e3
    # The self time of a user-facing call is its wall time minus the spans
    # that replayed its steps (the benchmark's own costing calls left out).
    self_ns = tr.self_ns()
    replayed = tr.child_ns(skip="factors.min_degree_order")
    for top, name, scale in (
        ("experiment.run_experiment", "experiment.self_s", 1e9),
        ("cli.main", "cli.self_ms", 1e6),
    ):
        spans = tr.named(top)
        for s in spans:
            self_ns[s.index] = s.ns - replayed.get(s.attrs["replay"], 0)
        if spans:
            out[name] = statistics.median(self_ns[s.index] for s in spans) / scale
    by_layer = Counter()
    for span in tr.spans[first_span:]:
        if span.name not in _GLUE_SPANS:
            by_layer[span.layer] += self_ns[span.index]
    for layer, ns in sorted(by_layer.items()):
        out[f"self_s_per_round.{layer}"] = ns / n_rounds / 1e9
    return out


# -- run record -----------------------------------------------------------------------------


def _start_and_import():
    subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import nornet"],
        check=True,
    )


def _at_reference(seconds: float, reference: float) -> float:
    return seconds * (REFERENCE_MS / 1e3) / reference


class PerOp(NamedTuple):
    kind: str
    seconds: float  # median over the rounds
    units: int
    failed: bool  # in any round


def _per_operation(ops, at_reference: bool) -> list[PerOp]:
    """One PerOp per position in the round.

    An operation gets the same input in every round and its work is
    deterministic, so its timings differ only by interference from other
    tenants of the host. Each timing is first scaled to reference speed by
    the reference loop timed around it (see calibration.py); the median
    then drops what the scaling misses."""
    by_position: dict[int, list] = {}
    for op in ops:
        by_position.setdefault(op.position, []).append(op)
    return [
        PerOp(
            rows[0].kind,
            statistics.median(
                _at_reference(op.seconds, op.reference) if at_reference else op.seconds
                for op in rows
            ),
            rows[0].units,
            any(op.error is not None for op in rows),
        )
        for _, rows in sorted(by_position.items())
    ]


def _nearest_rank(ranked: list[float], q: float) -> float:
    return ranked[max(0, math.ceil(q * len(ranked)) - 1)]


def _peak_rss_mb(jobs: int) -> float:
    """Peak resident set of this process plus, when a pool ran, the largest
    worker's peak once per worker (ru_maxrss is in KiB on Linux). The
    interpreters started to time start-up are smaller than a worker forked
    from this process, so they never set the children's peak of a pool run."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if jobs <= 1:
        return own / 1024
    return (own + jobs * resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024


def _loadavg():
    try:
        return [float(x) for x in Path("/proc/loadavg").read_text().split()[:3]]
    except OSError:
        return None


def _machine() -> dict:
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
    }


def _commit() -> dict:
    """The git commit when the checkout is a repository, and always a digest
    of the package sources, which identifies the code in a plain checkout."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "nornet").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git": _git_head(ROOT / ".git"), "src_sha256": digest.hexdigest()}


def _git_head(git: Path):
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _why(workload: str):
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError):
        return None
    return next((w["why"] for w in spec.get("workloads", []) if w["name"] == workload), None)


if __name__ == "__main__":
    sys.exit(main())
