import itertools
import math
import operator
import time

import pytest

from qwebs.howe import tableau_to_index
from qwebs.tableaux import (
    MAX_TABLEAUX,
    NotSemistandardError,
    Shape,
    Tableau,
    _count_bound,
    check_request,
    enumerate_tableaux,
    highest_tableau,
    peel,
    peel_word,
    tableau_type,
)
from qwebs.webalg import bounded_weights

from helpers import idx, index_to_tableau


def brute_force(shape, ktype=None, semistandard=False):
    """Oracle: filter all grids with entries in 1..m."""
    out = []
    m = shape.m
    for values in itertools.product(range(1, m + 1), repeat=m):
        rows = tuple(values[i * shape.N : (i + 1) * shape.N] for i in range(shape.l))
        ok = all(
            rows[i][j] < rows[i + 1][j] for j in range(shape.N) for i in range(shape.l - 1)
        )
        if not ok:
            continue
        t = Tableau(shape, rows)
        if ktype is not None and tableau_type(t) != tuple(ktype):
            continue
        if semistandard and not t.is_semistandard():
            continue
        out.append(t)
    return out


@pytest.mark.parametrize("N,l", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_enumeration_matches_brute_force(N, l):
    shape = Shape(N, l)
    expected = sorted(brute_force(shape), key=Tableau.sort_key)
    assert enumerate_tableaux(shape) == expected
    expected_ss = sorted(brute_force(shape, semistandard=True), key=Tableau.sort_key)
    assert enumerate_tableaux(shape, semistandard_only=True) == expected_ss


def test_enumeration_with_type():
    s21 = Shape(2, 1)
    assert [t.rows for t in enumerate_tableaux(s21, (1, 1), semistandard_only=True)] == [((1, 2),)]
    assert [t.rows for t in enumerate_tableaux(s21, (1, 1))] == [((1, 2),), ((2, 1),)]
    s22 = Shape(2, 2)
    std = enumerate_tableaux(s22, (1, 1, 1, 1), semistandard_only=True)
    assert {t.rows for t in std} == {((1, 2), (3, 4)), ((1, 3), (2, 4))}
    assert len(std) == 2
    # no tableau of an unreachable type
    assert enumerate_tableaux(s21, (2, 0)) == [Tableau(s21, ((1, 1),))]


def bounded_types(shape):
    """Every m-vector with entries in 0..N summing to m."""
    return [
        k for k in itertools.product(range(shape.N + 1), repeat=shape.m) if sum(k) == shape.m
    ]


def semistandard_column_build(shape):
    """Oracle past m = 6: N l-subset columns, each entrywise >= the one before."""
    columns = list(itertools.combinations(range(1, shape.m + 1), shape.l))
    fillings = [[c] for c in columns]
    for _ in range(shape.N - 1):
        fillings = [f + [c] for f in fillings for c in columns if all(map(operator.le, f[-1], c))]
    return [Tableau(shape, tuple(zip(*f))) for f in fillings]


def by_type(tableaux):
    """The tableaux grouped by type, each group strictly descending."""
    groups = {}
    for t in sorted(tableaux, key=Tableau.sort_key):
        groups.setdefault(tableau_type(t), []).append(t)
    return groups


@pytest.mark.parametrize(
    "N,l,semistandard",
    [(2, 3, False), (2, 3, True), (3, 2, False), (3, 2, True), (4, 2, True)],
)
def test_typed_enumeration_is_the_filtered_untyped_one(N, l, semistandard):
    # (4,2) without the semistandard filter is left out: its reference
    # would hold all 28^4 = 614,656 column-strict tableaux
    shape = Shape(N, l)
    if shape.m <= 6:
        reference = brute_force(shape, semistandard=semistandard)
    else:
        reference = semistandard_column_build(shape)
    everything = enumerate_tableaux(shape, semistandard_only=semistandard)
    assert everything == sorted(reference, key=Tableau.sort_key)
    expected = by_type(reference)
    for k in bounded_types(shape):
        assert enumerate_tableaux(shape, k, semistandard_only=semistandard) == expected.get(k, []), k


@pytest.mark.parametrize("semistandard", [False, True])
def test_long_one_row_typed_request_needs_no_deep_recursion(semistandard):
    # one frame per column and entry would pass the default recursion limit
    shape = Shape(400, 1)
    k = (400,) + (0,) * 399
    assert enumerate_tableaux(shape, k, semistandard_only=semistandard) == [
        Tableau(shape, ((1,) * 400,))
    ]


def compositions(m):
    """Every m-vector of nonnegative entries summing to m, entries above N included."""
    for cuts in itertools.combinations(range(2 * m - 1), m - 1):
        bounds = (-1, *cuts, 2 * m - 1)
        yield tuple(b - a - 1 for a, b in zip(bounds, bounds[1:]))


SHAPES_UP_TO_8 = [(N, l) for N in range(2, 9) for l in range(1, 5) if N * l <= 8]


@pytest.mark.parametrize("N,l", SHAPES_UP_TO_8)
def test_semistandard_strips_match_the_column_build(N, l):
    # every type of every shape with m <= 8.  The brute force is the
    # reference up to m = 6; past it (m^m grids) it is the one sorted row for
    # one-row shapes and the semistandard column build for the others.
    shape = Shape(N, l)
    if shape.m <= 6:
        groups = by_type(brute_force(shape, semistandard=True))
    elif l > 1:
        groups = by_type(semistandard_column_build(shape))
    else:
        groups = {
            k: [Tableau(shape, (tuple(x for x, c in enumerate(k, 1) for _ in range(c)),))]
            for k in compositions(shape.m)
        }
    for k in compositions(shape.m):
        assert enumerate_tableaux(shape, k, semistandard_only=True) == groups.get(k, []), k


@pytest.mark.parametrize("N,l", [s for s in SHAPES_UP_TO_8 if s != (8, 1)])
def test_every_bounded_weight_is_a_semistandard_type(N, l):
    # `qwebs lt-basis` and `dual-canonical` sweep a whole shape over these weights
    shape = Shape(N, l)
    types = {tableau_type(t) for t in enumerate_tableaux(shape, semistandard_only=True)}
    assert bounded_weights(N, N * l) == sorted(types)


def test_enumeration_strictly_descending():
    for N, l in ((2, 2), (3, 1)):
        ts = enumerate_tableaux(Shape(N, l))
        for a, b in zip(ts, ts[1:]):
            assert a.sort_key() < b.sort_key()


def test_compare():
    # a greater tableau has the smaller sort key
    s21 = Shape(2, 1)
    t1 = Tableau(s21, ((1, 2),))
    t2 = Tableau(s21, ((2, 1),))
    assert t1.sort_key() < t2.sort_key()
    top = highest_tableau(Shape(2, 2))
    for t in enumerate_tableaux(Shape(2, 2)):
        assert top.sort_key() <= t.sort_key()


def test_highest_tableau():
    assert highest_tableau(Shape(2, 1)).rows == ((1, 1),)
    assert highest_tableau(Shape(2, 2)).rows == ((1, 1), (2, 2))
    assert highest_tableau(Shape(3, 4)).rows == tuple((r, r, r) for r in range(1, 5))


def test_type_examples():
    assert tableau_type(highest_tableau(Shape(3, 2))) == (3, 3, 0, 0, 0, 0)
    assert tableau_type(Tableau(Shape(2, 1), ((1, 2),))) == (1, 1)
    big = Tableau(Shape(3, 4), ((1, 1, 2), (2, 3, 4), (4, 5, 6), (6, 6, 7)))
    assert tableau_type(big) == (2, 2, 1, 2, 1, 3, 1, 0, 0, 0, 0, 0)


# The nu and mu correspondences in set form: nu^i, the set of columns that
# contain i, is slot i of the tensor index (`howe.tableau_to_index`); mu^j,
# the set of entries of column j, is column j of `Tableau.sort_key`.


def test_nu_mu_on_reference_tableau():
    big = Tableau(Shape(3, 4), ((1, 1, 2), (2, 3, 4), (4, 5, 6), (6, 6, 7)))
    nu = tableau_to_index(big)
    assert nu[:7] == idx({1, 2}, {1, 3}, {2}, {1, 3}, {2}, {1, 2, 3}, {3})
    assert all(not s for s in nu[7:])
    assert big.sort_key() == ((1, 2, 4, 6), (1, 3, 5, 6), (2, 4, 6, 7))


def test_nu_mu_of_highest_and_small():
    top = highest_tableau(Shape(2, 2))
    assert index_to_tableau(Shape(2, 2), idx({1, 2}, {1, 2}, (), ())) == top
    assert top.sort_key() == ((1, 2), (1, 2))
    t = Tableau(Shape(2, 1), ((1, 2),))
    assert index_to_tableau(Shape(2, 1), idx({1}, {2})) == t
    assert t.sort_key() == ((1,), (2,))
    with pytest.raises(ValueError, match="indicator vectors do not fill the shape"):
        index_to_tableau(Shape(2, 1), idx({1, 2}, {1}))


@pytest.mark.parametrize("N,l", [(2, 2), (3, 1), (3, 2)])
def test_nu_mu_roundtrip(N, l):
    shape = Shape(N, l)
    seen_nu, seen_mu = set(), set()
    for t in enumerate_tableaux(shape):
        nu, mu = tableau_to_index(t), t.sort_key()
        assert index_to_tableau(shape, nu) == t
        assert Tableau.from_columns(shape, mu) == t
        seen_nu.add(nu)
        seen_mu.add(mu)
        # each column is named in l slots of nu, and holds l entries
        assert all(sum(S >> (j - 1) & 1 for S in nu) == l for j in range(1, N + 1))
        assert all(len(col) == l for col in mu)
    count = len(enumerate_tableaux(shape))
    assert len(seen_nu) == count and len(seen_mu) == count


def test_peel_examples():
    assert peel_word(highest_tableau(Shape(2, 2))) == []
    assert peel_word(Tableau(Shape(2, 1), ((1, 2),))) == [(1, 1)]
    assert peel_word(Tableau(Shape(3, 1), ((1, 2, 3),))) == [(1, 1), (2, 1), (1, 1)]
    # needs the search bound beyond the row count
    assert peel_word(Tableau(Shape(2, 2), ((1, 1), (2, 4)))) == [(3, 1), (2, 1)]


def test_peel_rejects_non_semistandard():
    with pytest.raises(NotSemistandardError):
        peel_word(Tableau(Shape(2, 1), ((2, 1),)))


@pytest.mark.parametrize("N,l", [(2, 2), (2, 3), (3, 2)])
def test_peel_multiplicities_and_termination(N, l):
    shape = Shape(N, l)
    for t in enumerate_tableaux(shape, semistandard_only=True):
        word = peel_word(t)
        excess = sum(x - (ri + 1) for ri, row in enumerate(t.rows) for x in row)
        assert sum(r for _, r in word) == excess
        for i, r in word:
            assert 1 <= i <= shape.m - 1 and r >= 1


def test_peel_intermediates_increase():
    # applying one peel step yields a strictly greater semistandard tableau
    shape = Shape(2, 2)
    for t in enumerate_tableaux(shape, semistandard_only=True):
        word = peel_word(t)
        cur = t
        for i, r in word:
            grid = [list(row) for row in cur.rows]
            changed = 0
            for ri in range(min(i, shape.l)):
                for ci in range(shape.N):
                    if grid[ri][ci] == i + 1:
                        grid[ri][ci] = i
                        changed += 1
            assert changed == r
            nxt = Tableau(shape, tuple(tuple(row) for row in grid))
            assert nxt.is_semistandard()
            assert nxt.sort_key() < cur.sort_key()
            cur = nxt
        assert cur == highest_tableau(shape)


# -- peel and peel_word against the tableau-by-tableau peeling ----------


def reference_peel_steps(t):
    """Independent oracle: build and validate a Tableau at every peeling step.

    Returns the steps in order, each as (i, r, the tableau it reaches).
    """
    if not t.is_semistandard():
        raise NotSemistandardError(f"not semistandard: {t}")
    shape = t.shape
    top = highest_tableau(shape)
    steps = []
    cur = t
    while cur != top:
        for i in range(1, shape.m):
            hits = [
                (ri, ci)
                for ri in range(min(i, shape.l))
                for ci in range(shape.N)
                if cur.rows[ri][ci] == i + 1
            ]
            if hits:
                grid = [list(r) for r in cur.rows]
                for ri, ci in hits:
                    grid[ri][ci] = i
                try:
                    cur = Tableau(shape, tuple(tuple(r) for r in grid))
                except ValueError as exc:
                    raise NotSemistandardError(f"peeling broke column strictness: {exc}")
                if not cur.is_semistandard():
                    raise NotSemistandardError(f"peeling left the semistandard set at {cur}")
                steps.append((i, len(hits), cur))
                break
        else:
            raise NotSemistandardError(f"peeling stuck at {cur}")
    return steps


def reference_peel_word(t):
    return [(i, r) for i, r, _ in reference_peel_steps(t)]


@pytest.mark.parametrize("N,l", [(2, 4), (3, 2), (4, 2), (3, 3), (2, 5)])
def test_grid_peel_word_matches_tableau_oracle(N, l):
    # every tableau up to m = 8; a fixed tenth of the 41,580 of (3,3) and a
    # fifth of the 19,404 of (2,5) keep the slow oracle to a few seconds
    every = {(3, 3): 10, (2, 5): 5}.get((N, l), 1)
    for t in enumerate_tableaux(Shape(N, l), semistandard_only=True)[::every]:
        assert peel_word(t) == reference_peel_word(t), str(t)


@pytest.mark.parametrize("N,l", [(2, 4), (3, 2), (4, 2), (3, 3)])
def test_peel_steps_match_tableau_oracle(N, l):
    # each step of every tableau up to m = 8, and of a fixed tenth of (3,3),
    # reaches the oracle's rows with its (i, r); the top has no step
    shape = Shape(N, l)
    top = highest_tableau(shape).rows
    every = 10 if (N, l) == (3, 3) else 1
    for t in enumerate_tableaux(shape, semistandard_only=True)[::every]:
        rows = t.rows
        for i, r, cur in reference_peel_steps(t):
            assert peel(rows) == (i, r, cur.rows), (str(t), i, r)
            rows = cur.rows
    assert peel(top) is None


def test_peel_word_refuses_what_the_oracle_refuses():
    for t in enumerate_tableaux(Shape(2, 3)):
        if not t.is_semistandard():
            with pytest.raises(NotSemistandardError) as ours:
                peel_word(t)
            with pytest.raises(NotSemistandardError) as theirs:
                reference_peel_word(t)
            assert str(ours.value) == str(theirs.value)


# -- the size guard -------------------------------------------------------


@pytest.mark.parametrize("N,l", [(2, 2), (2, 3), (3, 2), (4, 1)])
def test_count_bound_covers_every_enumeration(N, l):
    shape = Shape(N, l)
    everything = enumerate_tableaux(shape)
    assert len(everything) == _count_bound(shape, None)  # every column is an l-subset
    for k in {tableau_type(t) for t in everything}:
        assert len(enumerate_tableaux(shape, k)) <= _count_bound(shape, k)
    distinct = (1,) * shape.m  # with no repeated entry the bound is the count
    assert len(enumerate_tableaux(shape, distinct)) == _count_bound(shape, distinct)


def test_semistandard_counts_match_the_hook_content_formula():
    # the hook-content formula (`hook_content`) shares no code with the
    # enumerator.  Every shape with m <= 9 is under the semistandard limit,
    # also (8, 1) and (9, 1), whose column-strict bounds 8^8 and 9^9 are over it.
    counts = {}
    for N, l in [(N, l) for N in range(2, 10) for l in range(1, 5) if N * l <= 9]:
        formula = hook_content(N, l)
        assert _count_bound(Shape(N, l), None, semistandard_only=True) == formula, (N, l)
        counts[N, l] = len(enumerate_tableaux(Shape(N, l), semistandard_only=True))
        assert counts[N, l] == formula, (N, l)
    assert (counts[2, 4], counts[3, 2], counts[4, 2], counts[3, 3]) == (1_764, 490, 13_860, 41_580)
    assert (counts[8, 1], counts[9, 1]) == (6_435, 24_310)
    assert _count_bound(Shape(8, 1), None) > MAX_TABLEAUX


def hook_content(N, l):
    """s_(N^l)(1^m) = prod (m + c(u)) / h(u) over the cells u = (r, c) of the
    l x N rectangle, content c - r, hook (N - c) + (l - r) - 1."""
    m = N * l
    cells = [(r, c) for r in range(l) for c in range(N)]
    return math.prod(m + c - r for r, c in cells) // math.prod(N - c + l - r - 1 for r, c in cells)


def test_semistandard_bound_is_the_hook_content_count_up_to_the_limit():
    # the product stops at the first partial product over the limit, which
    # for N or l past a million is the first factor, m + N - l
    for N, l in [(N, l) for N in range(2, 40) for l in range(1, 40)]:
        bound, exact = _count_bound(Shape(N, l), None, semistandard_only=True), hook_content(N, l)
        assert bound == exact if exact <= MAX_TABLEAUX else bound > MAX_TABLEAUX, (N, l)
    assert hook_content(8, 3) > 4.8e17
    for N, l in ((10**400, 1), (2, 10**400), (10**6, 10**6)):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="than the limit"):
            check_request(Shape(N, l), semistandard_only=True)
        assert time.perf_counter() - start < 0.1


def test_oversized_enumerations_are_refused_before_any_work(monkeypatch):
    def no_work(*args):
        raise AssertionError("a tableau was built")

    monkeypatch.setattr(Tableau, "__post_init__", no_work)
    assert _count_bound(Shape(8, 3), None) > MAX_TABLEAUX
    with pytest.raises(ValueError, match="limit"):
        enumerate_tableaux(Shape(8, 3), semistandard_only=True)
    with pytest.raises(ValueError, match="of this type"):
        enumerate_tableaux(Shape(4, 4), (1,) * 16)
    with pytest.raises(ValueError, match="nonnegative"):
        enumerate_tableaux(Shape(2, 1), (-1, 3))


def test_huge_requests_are_refused_from_the_estimate():
    # the exact bounds have 300,000 digits or more
    shape = Shape(2, 1_000_000)
    for ktype in (None, (1,) * shape.m, (2,) * shape.l + (0,) * shape.l):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"than the limit of {MAX_TABLEAUX}"):
            check_request(shape, ktype)
        assert time.perf_counter() - start < 1.0
    # a type with an entry above N has no tableau: accepted at once, and
    # empty without a search, which would meet the entry first at x = 1 in
    # the first case and only at x = 38 in the second
    for shape, ktype in ((Shape(2, 100_000), (100_000, 100_000) + (0,) * 199_998),
                         (Shape(2, 20), (1,) * 37 + (3, 0, 0))):
        start = time.perf_counter()
        assert check_request(shape, ktype) == 0
        assert enumerate_tableaux(shape, ktype) == []
        assert enumerate_tableaux(shape, ktype, semistandard_only=True) == []
        assert time.perf_counter() - start < 1.0


def exact_bound(shape, ktype=None):
    """`_count_bound`'s formula built in full: comb(m, l)^N, or m!/prod(k_i!) // (l!)^N."""
    N, l, m = shape.N, shape.l, shape.m
    if ktype is None:
        return math.comb(m, l) ** N
    fillings = math.factorial(m)
    for k in ktype:
        fillings //= math.factorial(k)
    return fillings // math.factorial(l) ** N


@pytest.mark.parametrize("N,l", [(2, 2), (2, 3), (3, 2), (4, 1), (8, 3)])
def test_count_bound_is_exact_up_to_the_limit(N, l):
    shape = Shape(N, l)
    for ktype in (None, (1,) * shape.m):
        bound, exact = _count_bound(shape, ktype), exact_bound(shape, ktype)
        if exact <= MAX_TABLEAUX:
            assert bound == exact, ktype
        else:
            assert bound > MAX_TABLEAUX, ktype


def test_count_bound_refuses_what_the_exact_formulas_refuse():
    # every shape with m <= 12: untyped, with the all-distinct type and with
    # one entry twice (refused by the lgamma gate at (6, 2) and (12, 1), by
    # the exact product at (10, 1) with one entry twice); every type of m <= 8
    refused = {}
    for N, l in [(N, l) for N in range(2, 13) for l in range(1, 7) if N * l <= 12]:
        shape = Shape(N, l)
        types = [None, (1,) * shape.m, (2,) + (1,) * (shape.m - 2) + (0,)]
        types += list(compositions(shape.m)) if shape.m <= 8 else []
        for ktype in types:
            over = exact_bound(shape, ktype) > MAX_TABLEAUX
            assert (_count_bound(shape, ktype) > MAX_TABLEAUX) == over, (N, l, ktype)
            refused[over] = refused.get(over, 0) + 1
    assert refused[True] and refused[False] > 20_000


def test_json_roundtrip():
    t = Tableau(Shape(2, 2), ((1, 2), (3, 4)))
    assert Tableau.from_json(t.to_json()) == t
