"""Dense factors over binary variables: the sum-product step of variable
elimination, plus min-degree elimination ordering.

The sum-product step comes in two halves, so that an elimination plan can
build the symbolic one once and run the numeric one per query:
:func:`sum_product_maps` depends on scopes only, :func:`sum_product_values`
on the tables.

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


def sum_product_maps(scopes, var):
    """The symbolic half of :func:`sum_product` over factors with ``scopes``:
    the output scope, and per factor the table index of every output cell
    with ``var`` absent and with it present. The index lists grow by
    doubling, one output variable at a time: the upper half of each copy
    sets that variable's bit in the factor (or nothing, outside its scope).
    Factors with equal scopes share one pair of lists."""
    scope = tuple(sorted({v for s in scopes for v in s} - {var}))
    maps = {}
    for s in scopes:
        if s not in maps:
            absent = [0]
            for v in scope:
                bit = 1 << s.index(v) if v in s else 0
                absent += [i | bit for i in absent]
            var_bit = 1 << s.index(var)
            maps[s] = (absent, [i | var_bit for i in absent])
    return scope, [maps[s] for s in scopes]


def sum_product_values(maps, tables):
    """The numeric half of :func:`sum_product`: per output cell, the
    products of the tables' entries in list order with ``var`` absent and
    present, then their sum. Starting each product from the first table's
    entry instead of 1.0 changes no bit."""
    pairs = iter(zip(maps, tables))
    (absent, present), values = next(pairs)
    p0 = [values[i] for i in absent]
    p1 = [values[i] for i in present]
    for (absent, present), values in pairs:
        p0 = [p * values[i] for p, i in zip(p0, absent)]
        p1 = [p * values[i] for p, i in zip(p1, present)]
    return [a + b for a, b in zip(p0, p1)]


def sum_product(factors: list[Factor], var: str) -> Factor:
    """Multiply ``factors``, every one of which mentions ``var``, and sum
    ``var`` out in one pass. Each output cell is ``p0 + p1``: the products of
    the factors' entries in list order with ``var`` absent and present."""
    scope, maps = sum_product_maps([f.scope for f in factors], var)
    return Factor(scope, sum_product_values(maps, [f.values for f in factors]))


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
