from collections import Counter

from hypothesis import given, strategies as st
import pytest

from qwebs.ring import (
    ONE,
    LaurentPoly,
    NonDivisibleError,
    add_into,
    bar,
    exact_divide,
    qbinom,
    qfactorial,
    qint,
    qnum,
    symmetrize_correction,
)


def poly(d):
    return LaurentPoly(d)


laurent = st.dictionaries(
    st.integers(min_value=-6, max_value=6), st.integers(min_value=-9, max_value=9), max_size=6
).map(LaurentPoly)


coeff_maps = st.dictionaries(st.integers(-6, 6), st.integers(-9, 9).filter(bool), max_size=6)


@given(coeff_maps, coeff_maps, st.integers(-4, 4), st.integers(-3, 3))
def test_add_into_matches_a_counter_sum(acc, c, shift, factor):
    before = dict(c)
    expected = Counter(acc)
    for e, a in c.items():
        expected[e + shift] += factor * a
    add_into(acc, c, shift, factor)
    assert acc == {e: a for e, a in expected.items() if a}
    assert 0 not in acc.values()
    # full cancellation leaves the empty map
    negated = {e + shift: -factor * a for e, a in c.items()}
    add_into(negated, c, shift, factor)
    assert negated == {}
    assert c == before


def test_qint_small():
    assert not qint(0)
    assert qint(1) == ONE
    assert qint(2) == poly({1: 1, -1: 1})
    assert qint(3) == poly({2: 1, 0: 1, -2: 1})


def test_qint_matches_polynomial_division():
    # (v^n - v^-n) / (v - v^-1) computed by the division oracle
    for n in range(1, 8):
        num = poly({n: 1, -n: -1})
        den = poly({1: 1, -1: -1})
        assert exact_divide(num, den) == qint(n)


def test_qbinom_trivial_and_small():
    for n in range(5):
        assert qbinom(n, 0) == ONE
    assert qbinom(2, 1) == qint(2)
    assert qbinom(4, 2) == poly({4: 1, 2: 1, 0: 2, -2: 1, -4: 1})
    assert not qbinom(3, 5)
    assert not qbinom(3, -1)


def test_qbinom_product_formula_oracle():
    # [n choose k] = [n]! / ([k]! [n-k]!) for 0 <= k <= n
    for n in range(7):
        for k in range(n + 1):
            expected = exact_divide(qfactorial(n), qfactorial(k) * qfactorial(n - k))
            assert qbinom(n, k) == expected


def test_qbinom_negative_top():
    # [-n choose k] = (-1)^k [k+n-1 choose k]
    for n in range(1, 5):
        for k in range(4):
            sign = -1 if k % 2 else 1
            assert qbinom(-n, k) == qbinom(k + n - 1, k) * sign


def test_bar_examples():
    assert not bar(LaurentPoly())
    assert bar(poly({1: 1, 0: 2})) == poly({-1: 1, 0: 2})
    assert bar(qbinom(4, 2)) == qbinom(4, 2)


@given(laurent)
def test_bar_is_an_involution(p):
    assert bar(bar(p)) == p


@given(laurent, laurent)
def test_bar_is_a_ring_map(p, q):
    assert bar(p + q) == bar(p) + bar(q)
    assert bar(p * q) == bar(p) * bar(q)


def test_qint_and_qbinom_bar_invariant():
    for n in range(1, 7):
        assert bar(qint(n)) == qint(n)
        for k in range(n + 1):
            assert bar(qbinom(n, k)) == qbinom(n, k)
            assert qbinom(n, k) == qbinom(n, n - k)


def test_symmetrize_examples():
    assert not symmetrize_correction(poly({-2: 3, -5: 1}))
    assert symmetrize_correction(poly({1: 1})) == poly({1: 1, -1: 1})
    g = symmetrize_correction(poly({2: 1, 0: 3}))
    assert g == poly({2: 1, 0: 3, -2: 1})
    assert (poly({2: 1, 0: 3}) - g) == poly({-2: -1})


@given(laurent)
def test_symmetrize_properties(p):
    g = symmetrize_correction(p)
    assert bar(g) == g
    assert all(e < 0 for e, _ in (p - g).items())


def test_exact_divide_examples():
    two = qint(2)
    assert exact_divide(two, two) == ONE
    assert exact_divide(qint(3) * two, two) == qint(3)
    with pytest.raises(NonDivisibleError):
        exact_divide(poly({1: 1, 0: 1}), poly({1: 1, 0: -1}))
    with pytest.raises(ZeroDivisionError):
        exact_divide(poly({0: 1}), LaurentPoly())


@given(laurent, laurent)
def test_exact_divide_roundtrip(q, r):
    if not q:
        return
    assert exact_divide(q * r, q) == r


def test_qnum_signs():
    assert qnum(-3) == -qint(3)
    assert not qnum(0)
    # zero has no negative coefficient: nonnegative_coeffs holds on it
    assert qint(3).nonnegative_coeffs() and qnum(0).nonnegative_coeffs()
    assert not qnum(-3).nonnegative_coeffs() and not (qint(2) - qint(3)).nonnegative_coeffs()


def test_json_roundtrip():
    p = poly({3: 2, -1: -5})
    assert LaurentPoly.from_json(p.to_json()) == p
    assert LaurentPoly().to_json() == []
    assert p.to_json() == [[-1, -5], [3, 2]]


# the last two repeat an exponent, which to_json never writes: refused, not summed
@pytest.mark.parametrize(
    "data",
    [[[0, 1.5]], [[0.5, 1]], [["1", 1]], [[0, True]], [[0, 1], [0, 1]], [[0, 1], [0, -1]]],
)
def test_from_json_rejects_non_integer_terms(data):
    with pytest.raises(ValueError):
        LaurentPoly.from_json(data)
