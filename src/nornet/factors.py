"""Dense factors over binary variables: the sum-product step of variable
elimination, plus min-degree elimination ordering.

A factor stores its scope as a sorted tuple of node ids and its table as a
flat list of 2**k floats; bit i of a table index is the state of scope
variable i. Everything here is deterministic: scopes are kept sorted and
ordering ties break on ascending id.
"""

from __future__ import annotations


class Factor:
    __slots__ = ("scope", "values")

    def __init__(self, scope: tuple[str, ...], values: list[float]):
        self.scope = scope
        self.values = values

    def __repr__(self) -> str:
        return f"Factor({self.scope}, {len(self.values)} entries)"


def sum_product(factors: list[Factor], var: str) -> Factor:
    """Multiply ``factors``, every one of which mentions ``var``, and sum
    ``var`` out in one pass. Each output cell is ``p0 + p1``: the products of
    the factors' entries in list order with ``var`` absent and present."""
    scope = tuple(sorted({v for f in factors for v in f.scope} - {var}))
    maps = [
        (
            [(bit, scope.index(v)) for bit, v in enumerate(f.scope) if v != var],
            1 << f.scope.index(var),
            f.values,
        )
        for f in factors
    ]
    out = []
    for idx in range(1 << len(scope)):
        p0 = p1 = 1.0
        for bits, var_bit, values in maps:
            i = 0
            for bit, pos in bits:
                i |= ((idx >> pos) & 1) << bit
            p0 *= values[i]
            p1 *= values[i | var_bit]
        out.append(p0 + p1)
    return Factor(scope, out)


def min_degree_order(variables, scopes) -> list[str]:
    """Elimination order by repeated minimum degree over the interaction
    graph induced by the factor scopes, ids ascending on ties. Neighbors of
    an eliminated variable are connected (fill-in) before it is removed."""
    neighbors: dict[str, set[str]] = {v: set() for v in variables}
    var_set = set(variables)
    for scope in scopes:
        present = [v for v in scope if v in var_set]
        for i, a in enumerate(present):
            for b in present[i + 1 :]:
                neighbors[a].add(b)
                neighbors[b].add(a)
    order: list[str] = []
    remaining = set(variables)
    while remaining:
        best = min(remaining, key=lambda v: (len(neighbors[v] & remaining), v))
        order.append(best)
        nbrs = [v for v in neighbors[best] if v in remaining and v != best]
        for i, a in enumerate(nbrs):
            for b in nbrs[i + 1 :]:
                neighbors[a].add(b)
                neighbors[b].add(a)
        remaining.discard(best)
    return order
