"""The sum-product step of variable elimination, bit for bit against a
pairwise multiply-then-sum-out reference, its one read per factor against
a per-cell bit loop, and min-degree ordering against its original
formulation."""

import random

from nornet.factors import min_degree_order, sum_product_maps, sum_product_values

VARIABLES = ("a", "b", "c", "d", "e", "f")


def _sum_product(factors, var):
    """The sum-product step over (scope, table) factors, as elimination runs it."""
    scope, getters = sum_product_maps([s for s, _ in factors], var)
    return scope, sum_product_values(getters, [t for _, t in factors])


def _entry(f, states):
    scope, values = f
    return values[sum(states[v] << bit for bit, v in enumerate(scope))]


def _table(scope, cell):
    """A factor over ``scope`` whose entry at each assignment is ``cell(states)``."""
    values = []
    for idx in range(1 << len(scope)):
        values.append(cell({v: (idx >> bit) & 1 for bit, v in enumerate(scope)}))
    return scope, values


def _multiply(f, g):
    scope = tuple(sorted(set(f[0]) | set(g[0])))
    return _table(scope, lambda s: _entry(f, s) * _entry(g, s))


def _sum_out(f, var):
    scope = tuple(v for v in f[0] if v != var)
    return _table(scope, lambda s: _entry(f, {**s, var: 0}) + _entry(f, {**s, var: 1}))


def _reference(factors, var):
    prod = factors[0]
    for f in factors[1:]:
        prod = _multiply(prod, f)
    return _sum_out(prod, var)


def _random_factors(rng):
    variables = VARIABLES[: rng.randint(1, len(VARIABLES))]
    var = rng.choice(variables)
    others = [v for v in variables if v != var]
    factors = []
    for _ in range(rng.randint(1, 4)):
        scope = tuple(sorted({var, *rng.sample(others, rng.randint(0, len(others)))}))
        values = [rng.choice((0.0, 1.0, rng.random())) for _ in range(1 << len(scope))]
        factors.append((scope, values))
    return factors, var


def _wide_factors(rng, width):
    """Random factors whose output has exactly ``width`` variables: the
    last factor spans them all."""
    var, *others = [f"x{i:02d}" for i in range(width + 1)]
    scopes = [{var, *rng.sample(others, rng.randint(0, width))} for _ in range(rng.randint(1, 3))]
    scopes[-1].update(others)
    factors = []
    for scope in map(tuple, map(sorted, scopes)):
        values = [rng.choice((0.0, 1.0, rng.random())) for _ in range(1 << len(scope))]
        factors.append((scope, values))
    return factors, var


def test_matches_pairwise_reference_bit_for_bit():
    rng = random.Random(20260)
    rows = [_random_factors(rng) for _ in range(300)]
    # one-cell outputs, where every getter reads a one-entry slice, and
    # outputs up to 12 variables wide
    wide = random.Random(1213)
    rows += [_wide_factors(wide, width) for width in range(13) for _ in range(2)]
    widths = set()
    for factors, var in rows:
        got_scope, got_values = _sum_product(factors, var)
        want_scope, want_values = _reference(factors, var)
        assert got_scope == want_scope
        assert got_values == want_values
        widths.add(len(got_scope))
    assert widths == set(range(13))


def _reference_maps(scopes, var):
    """Index maps as first written: every output cell gathers each factor's
    table index bit by bit, with the eliminated variable absent and then
    present, cell by cell."""
    scope = tuple(sorted({v for s in scopes for v in s} - {var}))
    maps = []
    for s in scopes:
        bits = [(bit, scope.index(v)) for bit, v in enumerate(s) if v != var]
        var_bit = 1 << s.index(var)
        absent = []
        for idx in range(1 << len(scope)):
            i = 0
            for bit, pos in bits:
                i |= ((idx >> pos) & 1) << bit
            absent.append(i)
        maps.append([i for a in absent for i in (a, a | var_bit)])
    return scope, maps


def test_index_maps_match_per_cell_bit_loop():
    rng = random.Random(4096)
    names = [f"x{i}" for i in range(9)]
    widths = set()
    for _ in range(400):
        var, *others = rng.sample(names, 1 + rng.randint(0, 8))
        scopes = [
            tuple(sorted({var, *rng.sample(others, rng.randint(0, len(others)))}))
            for _ in range(rng.randint(1, 4))
        ]
        scope, reads = sum_product_maps(scopes, var)
        # each getter applied to a table's own indices reads its index list:
        # one read per factor, absent and then present at each output cell
        maps = [list(read(range(1 << len(s)))) for s, read in zip(scopes, reads)]
        assert (scope, maps) == _reference_maps(scopes, var)
        widths.add(len(scope))
    assert widths == set(range(9))


def test_hand_computed_cells():
    f = (("a",), [0.25, 0.5])
    g = (("a", "b"), [0.5, 0.25, 1.0, 0.0])
    scope, values = _sum_product([f, g], "a")
    assert scope == ("b",)
    assert values == [0.25 * 0.5 + 0.5 * 0.25, 0.25 * 1.0 + 0.5 * 0.0]
    scope, values = _sum_product([f], "a")
    assert scope == ()
    assert values == [0.75]


def _reference_min_degree_order(variables, scopes):
    """Min-degree ordering as first written: every step intersects each
    neighbor set with the variables still remaining."""
    neighbors = {v: set() for v in variables}
    var_set = set(variables)
    for scope in scopes:
        present = [v for v in scope if v in var_set]
        for i, a in enumerate(present):
            for b in present[i + 1 :]:
                neighbors[a].add(b)
                neighbors[b].add(a)
    order = []
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


def test_min_degree_order_matches_reference():
    # scopes may name ids outside ``variables`` (observed nodes), may be
    # empty and may hold one live variable; each must be ignored exactly as
    # the reference ignores it
    rng = random.Random(61)
    ids = [f"v{i:02d}" for i in range(30)]
    for _ in range(1000):
        variables = rng.sample(ids[:25], rng.randint(0, 25))
        scopes = [
            tuple(sorted(rng.sample(ids, rng.randint(0, 5))))
            for _ in range(rng.randint(0, 30))
        ]
        want = _reference_min_degree_order(variables, scopes)
        # the tie-break is on ids, whatever order the variables come in
        for given in (variables, sorted(variables), sorted(variables, reverse=True)):
            assert min_degree_order(given, scopes) == want
