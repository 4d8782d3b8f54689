"""The network-file parser applies the model's node and edge rules.

A node or edge line either parses to the object built directly from its
fields, which then breaks no rule, or fails with a ParseError on its line
whose message is that of the first rule the object breaks.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from nornet import Edge, Node, NodeKind, ParseError, parse_network
from nornet.fileformat import format_float

EDGES_AFTER = "nornet 1 x\nnode a disease leak=0 prior=0.5\nnode b finding leak=0 phase=1\n"

ids = st.text(alphabet="ab1,=>é", min_size=1, max_size=4)
edge_cases = [0.0, -0.0, 1.0, math.nextafter(1.0, 2.0), math.inf, -math.inf, math.nan]
numbers = st.sampled_from(edge_cases) | st.floats()
phases = st.integers(min_value=-1, max_value=7)
RULES = settings(database=None, derandomize=True, max_examples=200, deadline=None)


def _expect(text, line, built, parsed_as):
    """Assert the parse of ``text`` against the directly built object."""
    broken = built.violations
    try:
        net = parse_network(text, require_valid=False)
    except ParseError as exc:
        assert broken, str(exc)
        assert exc.line == line
        assert str(exc) == f"line {line}: {broken[0].message}"
    else:
        assert broken == ()
        assert parsed_as(net) == built


@RULES
@given(
    node_id=ids,
    kind=st.sampled_from(list(NodeKind)),
    leak=numbers,
    prior=st.none() | numbers,
    phase=st.none() | phases,
)
def test_node_line(node_id, kind, leak, prior, phase):
    fields = [f"leak={format_float(leak)}"]
    if prior is not None:
        fields.append(f"prior={format_float(prior)}")
    if phase is not None:
        fields.append(f"phase={phase}")
    text = f"nornet 1 x\nnode {node_id} {kind.value} {' '.join(fields)}\n"
    built = Node(node_id, kind, leak=leak, prior=prior, phase=phase)
    _expect(text, 2, built, lambda net: net.node(node_id))


@RULES
@given(eta=numbers)
def test_edge_line(eta):
    text = EDGES_AFTER + f"edge a b eta={format_float(eta)}\n"
    _expect(text, 4, Edge("a", "b", eta), lambda net: net.edge("a", "b"))
