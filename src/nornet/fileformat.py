"""Text formats: the network file, and the CSV reports.

Network file, version 1 (line-oriented, ``#`` comments and blank lines
ignored)::

    nornet 1 <name>
    node <id> <disease|ips|finding> leak=<float> [prior=<float>] [phase=<int>]
    edge <src> <dst> eta=<float>

Serialization is canonical and byte-deterministic: nodes sorted by id,
then edges by (src, dst); floats printed with up to 17 significant digits,
which round-trips IEEE doubles exactly. Node lines must precede the edge
lines that use them so every problem can be reported with its line number.
"""

from __future__ import annotations

import io
from collections.abc import Iterable

from .errors import DomainError, ParseError
from .experiment import ExperimentSummary, TestCase
from .model import PHASES, Edge, Network, Node, NodeKind
from .reduction import ReductionReport

FORMAT_NAME = "nornet"
FORMAT_VERSION = "1"

_KINDS = {kind.value: kind for kind in NodeKind}
_NODE_FIELDS = {"leak": float, "prior": float, "phase": int}
_EDGE_FIELDS = {"eta": float}


def format_float(x: float) -> str:
    """%.17g: 17 significant digits, which parse back to the identical double."""
    return "%.17g" % x


def serialize_network(net: Network) -> str:
    if not net.name or any(c.isspace() for c in net.name):
        raise DomainError(
            f"network name {net.name!r} must be nonempty without whitespace"
        )
    out = io.StringIO()
    out.write(f"{FORMAT_NAME} {FORMAT_VERSION} {net.name}\n")
    for node in net.nodes:
        parts = [f"node {node.id} {node.kind.value} leak={format_float(node.leak)}"]
        if node.prior is not None:
            parts.append(f"prior={format_float(node.prior)}")
        if node.phase is not None:
            parts.append(f"phase={node.phase}")
        out.write(" ".join(parts) + "\n")
    for edge in net.edges:
        out.write(f"edge {edge.src} {edge.dst} eta={format_float(edge.eta)}\n")
    return out.getvalue()


def parse_network(text: str, require_valid: bool = True) -> Network:
    """Parse a network file; problems carry line numbers.

    With ``require_valid`` (the default), whole-network invariant
    violations raise ValidationError; pass False to obtain the parsed
    network for inspection regardless.
    """
    name = None
    nodes: dict[str, Node] = {}
    edges: dict[tuple[str, str], Edge] = {}
    # Lines end only at universal newlines, as ``Path.read_text`` and editors
    # count them: ``str.splitlines`` would also break at \x0c, \x85, \u2028...
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if name is None:
            if tokens[0] != FORMAT_NAME:
                raise ParseError(lineno, f"expected '{FORMAT_NAME}' header, got {tokens[0]!r}")
            if len(tokens) != 3:
                raise ParseError(lineno, "header must be 'nornet 1 <name>'")
            if tokens[1] != FORMAT_VERSION:
                raise ParseError(lineno, f"unsupported format version {tokens[1]!r}")
            name = tokens[2]
            continue
        if tokens[0] == "node":
            _parse_node(lineno, tokens, nodes)
        elif tokens[0] == "edge":
            _parse_edge(lineno, tokens, nodes, edges)
        else:
            raise ParseError(lineno, f"unknown directive {tokens[0]!r}")
    if name is None:
        raise ParseError(1, "empty file: missing header")
    net = Network(name, nodes.values(), edges.values())
    return net.require_valid() if require_valid else net


def _parse_node(lineno, tokens, nodes):
    if len(tokens) < 3:
        raise ParseError(lineno, "node line needs 'node <id> <kind> ...'")
    _, node_id, kind_token, *fields = tokens
    if node_id in nodes:
        raise ParseError(lineno, f"duplicate node id {node_id!r}")
    kind = _KINDS.get(kind_token)
    if kind is None:
        raise ParseError(lineno, f"unknown node kind {kind_token!r}")
    values = _parse_fields(lineno, fields, _NODE_FIELDS)
    if "leak" not in values:
        raise ParseError(lineno, "node line missing leak=")
    nodes[node_id] = _checked(lineno, Node(node_id, kind, **values))


def _parse_edge(lineno, tokens, nodes, edges):
    if len(tokens) != 4:
        raise ParseError(lineno, "edge line needs 'edge <src> <dst> eta=<float>'")
    _, src, dst, eta_field = tokens
    if src not in nodes:
        raise ParseError(lineno, f"unknown node {src!r} (nodes must precede edges)")
    if dst not in nodes:
        raise ParseError(lineno, f"unknown node {dst!r} (nodes must precede edges)")
    if (src, dst) in edges:
        raise ParseError(lineno, f"duplicate edge {src}->{dst}")
    eta = _parse_fields(lineno, [eta_field], _EDGE_FIELDS)["eta"]
    edges[(src, dst)] = _checked(lineno, Edge(src, dst, eta))


def _parse_fields(lineno, fields, types):
    """Numbers from ``key=value`` fields; ``types`` maps each allowed key to its type."""
    values = {}
    for field in fields:
        key, sep, token = field.partition("=")
        if not sep or key not in types:
            raise ParseError(lineno, f"unexpected field {field!r}")
        if key in values:
            raise ParseError(lineno, f"repeated field {key!r}")
        try:
            values[key] = types[key](token)
        except ValueError:
            raise ParseError(lineno, f"malformed {key} value {token!r}") from None
    return values


def _checked(lineno, item):
    """``item``, or a ParseError with the first of its ``violations``."""
    if item.violations:
        raise ParseError(lineno, item.violations[0].message)
    return item


# -- CSV reports ----------------------------------------------------------------


def format_float9(x: float) -> str:
    return "%.9g" % x


def cases_csv(cases: Iterable[TestCase]) -> str:
    """One row per sampled node value: case_id, node_id, kind, phase, value.
    The phase column is empty for diseases."""
    out = io.StringIO()
    out.write("case_id,node_id,kind,phase,value\n")
    for case in cases:
        rows = []
        for nid in case.true_diseases:
            rows.append((nid, "disease", "", case.true_diseases[nid]))
        for phase in PHASES:
            bucket = case.findings_by_phase[phase]
            for nid in bucket:
                rows.append((nid, "finding", str(phase), bucket[nid]))
        rows.sort(key=lambda r: r[0])
        for nid, kind, phase, value in rows:
            out.write(f"{case.case_id},{nid},{kind},{phase},{1 if value else 0}\n")
    return out.getvalue()


def provenance_csv(report: ReductionReport) -> str:
    """One row per (reduced edge, source path)."""
    out = io.StringIO()
    out.write("src,dst,path,composed_eta\n")
    for entry in report.provenance:
        src, dst = entry.reduced_edge
        for path, eta in zip(entry.source_paths, entry.composed_etas):
            out.write(f"{src},{dst},{'>'.join(path)},{format_float(eta)}\n")
    return out.getvalue()


def report_csv(summary: ExperimentSummary) -> str:
    """Per (phase, disease) comparison table; missing cells are empty."""
    out = io.StringIO()
    out.write(
        "phase,disease_id,n_cases,mean_tp_two_level,mean_tp_three_level,"
        "mean_fp_two_level,mean_fp_three_level,t_stat,df,sig95,sig975\n"
    )
    for cell in summary.cells:
        row = [
            str(cell.phase),
            cell.disease,
            str(cell.n_present),
            _opt_float(cell.mean_tp_two),
            _opt_float(cell.mean_tp_three),
            _opt_float(cell.mean_fp_two),
            _opt_float(cell.mean_fp_three),
            _opt_float(cell.t_stat),
            "" if cell.df is None else str(cell.df),
            _opt_flag(cell.sig95),
            _opt_flag(cell.sig975),
        ]
        out.write(",".join(row) + "\n")
    return out.getvalue()


def _opt_float(x: float | None) -> str:
    return "" if x is None else format_float9(x)


def _opt_flag(x: bool | None) -> str:
    return "" if x is None else ("1" if x else "0")
