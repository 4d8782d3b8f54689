"""Seeded inputs for every workload.

The workload seed picks one of ``SLOTS`` input slots (``seed % SLOTS``);
each slot has its own sampled cases and therefore its own reference
outputs in ``refs.json``. The networks themselves are fixed: the two
acceptance criterion-8 networks and one large generated network, all
generated with seed 7, so that every slot measures the same structure and
only the evidence values change. Inference cost here depends on which
findings are observed, never on their values, so the slot changes the
answers but not the work.
"""

from __future__ import annotations

from nornet import GeneratorConfig

SLOTS = 16
DEFAULT_SEED = 1
HELD_OUT_SEED = 13

PHASES = (1, 2, 3, 4, 5)
NETWORK_SEED = 7

# experiment: one round is EXPERIMENT_PAIRS pairs of run_experiment calls
# (one per criterion-8 network), each pair with its own case seed and
# EXPERIMENT_CASES cases per call
EXPERIMENT_PAIRS = 10
EXPERIMENT_CASES = 5
# infer: sampled cases per criterion-8 network; every case is queried at
# every phase, and every CONJUNCTION_EVERY-th case also asks for a joint
INFER_CASES = 10
CONJUNCTION_EVERY = 5
CONJUNCTION = ("d001", "d002")
# pipeline: cases sampled in each structural pass and queried at every phase
PIPELINE_CASES = 20


def crit8_config(fan: tuple[int, int]) -> GeneratorConfig:
    """Acceptance criterion-8 network: 3 diseases, 10 intermediates, 30 findings."""
    return GeneratorConfig(
        3, 10, 30,
        fan_in_range=fan,
        fan_out_range=fan,
        ips_chain_prob=0.2,
        eta_range=(0.2, 0.9),
        leak_range=(0.0, 0.05),
        prior_range=(0.05, 0.4),
        seed=NETWORK_SEED,
    )


CRIT8 = {"low": crit8_config((1, 2)), "high": crit8_config((3, 4))}

LARGE = GeneratorConfig(
    3, 150, 1500,
    fan_in_range=(1, 3),
    fan_out_range=(2, 6),
    ips_chain_prob=0.2,
    eta_range=(0.2, 0.9),
    leak_range=(0.0, 0.05),
    prior_range=(0.05, 0.4),
    seed=NETWORK_SEED,
)


def slot_of(seed: int) -> int:
    return seed % SLOTS


# Case k of a generate_cases call uses seed + k, so slots are spaced far
# apart to keep their cases disjoint.
def experiment_seeds(slot: int) -> list[int]:
    return [1000 * slot + 10 * k for k in range(EXPERIMENT_PAIRS)]


def infer_case_seed(slot: int) -> int:
    return 1000 * slot + 300


def pipeline_case_seed(slot: int) -> int:
    return 1000 * slot + 600


def infer_queries(cases: dict) -> list[dict]:
    """Query list of one infer round: per case, both networks, phases 1..5.

    ``cases`` maps each criterion-8 network label to its INFER_CASES cases."""
    queries = []
    for i in range(INFER_CASES):
        for label in cases:
            case = cases[label][i]
            for phase in PHASES:
                queries.append({
                    "network": label,
                    "phase": phase,
                    "evidence": dict(case.cumulative_evidence(phase)),
                    "conjunction": CONJUNCTION if i % CONJUNCTION_EVERY == 0 else None,
                })
    return queries


def pipeline_queries(cases) -> list[dict]:
    """Query list of one pipeline round: every sampled case at phases 1..5."""
    return [
        {"phase": phase, "evidence": dict(case.cumulative_evidence(phase))}
        for case in cases
        for phase in PHASES
    ]


def evidence_arg(evidence: dict) -> str:
    return ",".join(f"{nid}={int(v)}" for nid, v in sorted(evidence.items()))
