"""Dense factors over binary variables: the sum-product step of variable
elimination, plus min-degree elimination ordering.

The sum-product step multiplies the factors that mention a variable and
sums it out in one pass. It comes in two halves, so that an elimination
plan can build the symbolic one once and run the numeric one per query:
:func:`sum_product_maps` depends on scopes only and gives the
``operator.itemgetter`` pairs that :func:`sum_product_values` reads the
tables with.

A factor is a scope, a sorted tuple of node ids, and a table, a flat list
of 2**k floats; bit i of a table index is the state of scope variable i.
Everything here is deterministic: scopes are kept sorted and ordering ties
break on ascending id.
"""

from __future__ import annotations

from operator import add, itemgetter, mul


def sum_product_maps(scopes, var):
    """The symbolic half of the sum-product step over factors with
    ``scopes``, each of which mentions ``var``: the output scope, and per
    factor the pair of getters (see :func:`getter`) that read its table at
    every output cell with ``var`` absent and with it present. Their index
    lists grow by doubling, one output variable at a time: the upper half
    of each copy sets that variable's bit in the factor, or repeats the
    lower half outside its scope. Factors with equal scopes share one
    pair."""
    scope = tuple(sorted({v for s in scopes for v in s} - {var}))
    pairs = {}
    for s in scopes:
        if s not in pairs:
            absent, present = [0], [1 << s.index(var)]
            for v in scope:
                if v in s:
                    bit = 1 << s.index(v)
                    absent += [i | bit for i in absent]
                    present += [i | bit for i in present]
                else:
                    absent *= 2
                    present *= 2
            pairs[s] = getter(absent), getter(present)
    return scope, [pairs[s] for s in scopes]


def getter(indices):
    """``operator.itemgetter`` over ``indices`` that returns a sequence even
    for a single index, which it reads as a one-entry slice."""
    if len(indices) == 1:
        return itemgetter(slice(indices[0], indices[0] + 1))
    return itemgetter(*indices)


def sum_product_values(getters, tables):
    """The numeric half of the sum-product step: per output cell, the
    products of the tables' entries in list order with the eliminated
    variable absent and present, then their sum, read through the getter
    pairs of :func:`sum_product_maps`. Starting each product from the first
    table's entry instead of 1.0 changes no bit, and neither does
    ``map(mul, ...)``: it forms the same products in the same order."""
    pairs = iter(zip(getters, tables))
    (absent, present), values = next(pairs)
    p0 = absent(values)
    p1 = present(values)
    for (absent, present), values in pairs:
        p0 = list(map(mul, p0, absent(values)))
        p1 = list(map(mul, p1, present(values)))
    return list(map(add, p0, p1))


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
