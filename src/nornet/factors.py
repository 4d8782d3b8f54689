"""Dense factors over binary variables: the sum-product step of variable
elimination, plus min-degree elimination ordering.

The sum-product step multiplies the factors that mention a variable and
sums it out in one pass. It comes in two halves, so that an elimination
plan can build the symbolic one once and run the numeric one per query:
:func:`sum_product_maps` depends on scopes only and gives per factor the
``operator.itemgetter`` that :func:`sum_product_values` reads it with.

A factor is a scope, a tuple of distinct node ids in any order, and a
table, a flat list of 2**k floats; bit i of a table index is the state of
scope variable i. Everything here is deterministic: a step's output scope
is sorted and ordering ties break on ascending id.
"""

from __future__ import annotations

from operator import add, itemgetter, mul


def sum_product_maps(scopes, var):
    """The symbolic half of the sum-product step over factors with
    ``scopes``, each of which mentions ``var``: the output scope, and per
    factor the getter that reads its table at every output cell with
    ``var`` absent and then present, cell by cell. The index list grows by
    doubling, one output variable at a time: the upper half of each copy
    sets that variable's bit in the factor, or repeats the lower half
    outside its scope. Factors with equal scopes share one getter."""
    scope = tuple(sorted({v for s in scopes for v in s} - {var}))
    reads = {}
    for s in scopes:
        if s not in reads:
            read = [0, 1 << s.index(var)]
            for v in scope:
                if v in s:
                    bit = 1 << s.index(v)
                    read += [i | bit for i in read]
                else:
                    read *= 2
            reads[s] = itemgetter(*read)
    return scope, [reads[s] for s in scopes]


def getter(indices):
    """``operator.itemgetter`` over ``indices`` that returns a sequence even
    for a single index, which it reads as a one-entry slice."""
    if len(indices) == 1:
        return itemgetter(slice(indices[0], indices[0] + 1))
    return itemgetter(*indices)


def sum_product_values(reads, tables):
    """The numeric half of the sum-product step: per output cell, the
    products of the tables' entries in list order with the eliminated
    variable absent and present, then their sum. Each table is read once,
    by its getter from :func:`sum_product_maps`, which puts the two side
    by side. Starting each product from the first table's entry instead of
    1.0 changes no bit, and neither do chained ``map(mul, ...)`` calls,
    listed every second product so that few reads are held and maps never
    nest deep: they form the same products in the same order."""
    cells = reads[0](tables[0])
    for k in range(1, len(tables)):
        cells = map(mul, cells, reads[k](tables[k]))
        cells = cells if k & 1 else list(cells)
    cells = iter(cells)
    return list(map(add, cells, cells))


def min_degree_order(variables, scopes) -> list[str]:
    """Elimination order by repeated minimum degree over the interaction
    graph of the factor scopes, ids ascending on ties."""
    return min_degree_elimination(interaction_graph(variables, scopes))


def interaction_graph(variables, scopes) -> dict[str, set[str]]:
    """Per variable, in ascending-id order, the set of the other
    ``variables`` it shares a scope with."""
    neighbors: dict[str, set[str]] = {v: set() for v in sorted(variables)}
    for scope in scopes:
        live = [v for v in scope if v in neighbors]
        if len(live) > 1:
            for v in live:
                neighbors[v].update(live)
                neighbors[v].discard(v)
    return neighbors


def min_degree_elimination(neighbors) -> list[str]:
    """The min-degree order of an :func:`interaction_graph`, which it uses
    up, ties to the first key: eliminating a variable removes it from its
    neighbors' sets and connects those (fill-in)."""
    order: list[str] = []
    while neighbors:
        best = min(neighbors, key=lambda v: len(neighbors[v]))
        order.append(best)
        nbrs = neighbors.pop(best)
        for v in nbrs:
            neighbors[v] |= nbrs
            neighbors[v] -= {v, best}
    return order
