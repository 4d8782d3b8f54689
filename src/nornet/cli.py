"""Command-line surface.

Each subcommand is a thin binding over the library; anything it prints or
writes can be reproduced through the API. All randomness flows through
``--seed`` flags, so identical invocations produce identical bytes.
Failures exit nonzero with a single ``error:<class>: <detail>`` line on
stderr. Files and console output are UTF-8 whatever the locale.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
from pathlib import Path

from . import analysis
from .errors import FileError, NornetError
from .experiment import generate_cases, run_experiment
from .fileformat import (
    cases_csv,
    format_float9,
    parse_network,
    provenance_csv,
    report_csv,
    serialize_network,
)
from .generator import GeneratorConfig, generate_network
from .inference import posterior
from .reduction import level_reduce


def main(argv=None) -> int:
    for stream in (sys.stdout, sys.stderr):
        if isinstance(stream, io.TextIOWrapper):
            stream.reconfigure(encoding="utf-8", errors=stream.errors)
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except NornetError as exc:
        print(f"error:{exc.code}: {exc}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nornet",
        description="Leaky noisy-OR diagnostic network toolkit",
    )
    sub = parser.add_subparsers(required=True, metavar="command")

    p = sub.add_parser("validate", help="check a network file's invariants")
    p.add_argument("net_file")
    p.set_defaults(func=_cmd_validate)

    # each option's dest is a GeneratorConfig field and carries no default:
    # an option left out takes the config's own default
    p = sub.add_parser(
        "gen", help="generate a synthetic network", argument_default=argparse.SUPPRESS
    )
    p.add_argument("--diseases", dest="n_diseases", type=int, required=True, metavar="DISEASES")
    p.add_argument("--ips", dest="n_ips", type=int, required=True, metavar="IPS")
    p.add_argument("--findings", dest="n_findings", type=int, required=True, metavar="FINDINGS")
    p.add_argument("--fan-in", dest="fan_in_range", type=_int_range, metavar="a..b")
    p.add_argument("--fan-out", dest="fan_out_range", type=_int_range, metavar="a..b")
    p.add_argument("--eta", dest="eta_range", type=_float_range, metavar="lo..hi")
    p.add_argument("--leak", dest="leak_range", type=_float_range, metavar="lo..hi")
    p.add_argument("--prior", dest="prior_range", type=_float_range, metavar="lo..hi")
    p.add_argument("--ips-chain", dest="ips_chain_prob", type=float, metavar="p")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("reduce", help="collapse intermediates onto disease->finding edges")
    p.add_argument("net_file")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--provenance", metavar="CSV")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("infer", help="exact per-disease posteriors given evidence")
    p.add_argument("net_file")
    p.add_argument("--evidence", type=_evidence, default="", metavar="id=0|1,...")
    p.add_argument("--conjunction", type=_id_list, default=None, metavar="id,id,...")
    p.set_defaults(func=_cmd_infer)

    p = sub.add_parser("sample", help="draw test cases by forward sampling")
    p.add_argument("net_file")
    p.add_argument("--cases", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--require-positive", action="store_true")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("analyze", help="fan statistics and reduction-error predictors")
    p.add_argument("net_file")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("experiment", help="full vs reduced diagnostic comparison")
    p.add_argument("net_file")
    p.add_argument("--cases", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_experiment)

    return parser


def _cmd_validate(args) -> int:
    net = parse_network(_read(args.net_file), require_valid=False)
    violations = net.violations()
    if not violations:
        print("ok")
        return 0
    for violation in violations:
        print(str(violation))
    return 1


def _cmd_gen(args) -> int:
    fields = {k: v for k, v in vars(args).items() if k not in ("func", "output")}
    cfg = GeneratorConfig(**fields)
    net = generate_network(cfg)
    _write(args.output, serialize_network(net))
    print(f"wrote {args.output} ({len(net.nodes)} nodes, {len(net.edges)} edges)")
    return 0


def _cmd_reduce(args) -> int:
    net = parse_network(_read(args.net_file))
    report = level_reduce(net)
    _write(args.output, serialize_network(report.reduced))
    if args.provenance:
        _write(args.provenance, provenance_csv(report))
    print(f"param_count_original={report.param_count_original}")
    print(f"param_count_reduced={report.param_count_reduced}")
    return 0


def _cmd_infer(args) -> int:
    net = parse_network(_read(args.net_file))
    result = posterior(net, args.evidence, conjunction=args.conjunction)
    for disease_id in sorted(result.posteriors):
        print(f"{disease_id} {'%.12g' % result.posteriors[disease_id]}")
    if result.conjunction is not None:
        print(f"conjunction {'%.12g' % result.conjunction}")
    return 0


def _cmd_sample(args) -> int:
    net = parse_network(_read(args.net_file))
    cases = generate_cases(net, args.cases, args.seed, require_positive=args.require_positive)
    _write(args.output, cases_csv(cases))
    print(f"wrote {args.output} ({len(cases)} cases)")
    return 0


def _cmd_analyze(args) -> int:
    net = parse_network(_read(args.net_file))
    stats = analysis.fan_stats(net)
    bias = analysis.predict_bias(stats)
    for nid in sorted(stats.per_node):
        m, n = stats.per_node[nid]
        print(f"{nid} fan_in={m} fan_out={n} bias={bias[nid]}")
    print(
        f"aggregate ips={len(stats.per_node)}"
        f" max_fan_in={stats.max_fan_in} mean_fan_in={format_float9(stats.mean_fan_in)}"
        f" max_fan_out={stats.max_fan_out} mean_fan_out={format_float9(stats.mean_fan_out)}"
    )
    cfg = analysis.star_config_from_network(net)
    if cfg is not None:
        print(f"star fan_in={cfg.fan_in} fan_out={cfg.fan_out}")
        if cfg.fan_out == 1:
            print(f"fan_in_ratio={format_float9(analysis.fan_in_ratio(cfg))}")
        else:
            exact, approx = map(format_float9, analysis.fan_out_ratio(cfg))
            print(f"fan_out_ratio_exact={exact} fan_out_ratio_approx={approx}")
    return 0


def _cmd_experiment(args) -> int:
    net = parse_network(_read(args.net_file))
    summary = run_experiment(net, args.cases, args.seed, jobs=args.jobs)
    _write(args.output, report_csv(summary))
    print(
        f"wrote {args.output}"
        f" (cases={summary.n_cases}"
        f" params={summary.param_count_original}->{summary.param_count_reduced})"
    )
    return 0


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise FileError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise FileError(f"cannot read {path}: not UTF-8 text at byte {exc.start}") from exc


def _write(path: str, content: str) -> None:
    try:
        Path(path).write_text(content, encoding="utf-8")
    except OSError as exc:
        raise FileError(f"cannot write {path}: {exc.strerror}") from exc


def _int_range(token: str) -> tuple[int, int]:
    try:
        lo, hi = token.split("..")
        return int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a..b, got {token!r}") from None


def _float_range(token: str) -> tuple[float, float]:
    try:
        lo, hi = token.split("..")
        return float(lo), float(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected lo..hi, got {token!r}") from None


def _evidence(token: str) -> dict[str, bool]:
    out = {}
    if not token:
        return out
    for item in token.split(","):
        nid, sep, value = item.partition("=")
        if not sep or value not in ("0", "1"):
            raise argparse.ArgumentTypeError(f"expected id=0|1, got {item!r}")
        present = value == "1"
        if out.setdefault(nid, present) != present:
            raise argparse.ArgumentTypeError(f"conflicting values for {nid!r}")
    return out


def _id_list(token: str) -> list[str]:
    return [item for item in token.split(",") if item]


# Built once per process. Parsing leaves it unchanged: every default is
# immutable or, like --evidence's "", converted afresh by its type per call.
_PARSER = _build_parser()


if __name__ == "__main__":
    sys.exit(main())
