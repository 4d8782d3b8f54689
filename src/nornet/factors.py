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
    graph induced by the factor scopes, ids ascending on ties. Neighbor sets
    hold live variables only: eliminating a variable removes it from its
    neighbors' sets and connects those neighbors to each other (fill-in)."""
    neighbors: dict[str, set[str]] = {v: set() for v in variables}
    for scope in scopes:
        live = [v for v in scope if v in neighbors]
        for v in live:
            neighbors[v].update(live)
            neighbors[v].discard(v)
    order: list[str] = []
    while neighbors:
        best = min(neighbors, key=lambda v: (len(neighbors[v]), v))
        order.append(best)
        nbrs = neighbors.pop(best)
        for v in nbrs:
            neighbors[v] |= nbrs
            neighbors[v] -= {v, best}
    return order
