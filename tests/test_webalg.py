import pytest

from qwebs.bases import lt_block, lt_web
from qwebs.ring import ONE, LaurentPoly, bar
from qwebs.webalg import (
    bounded_weights,
    cartan_matrix,
    frobenius_check,
    gorenstein_parameter,
)
from qwebs.verify import web_gram_mismatch
from qwebs.webs import d_norm, web_form, web_gram



def test_cartan_trivial_block():
    c = cartan_matrix(2, (2, 0))
    assert len(c.labels) == 1 and c.entries[0][0] == ONE
    c = cartan_matrix(3, (3, 3, 0, 0, 0, 0))
    assert len(c.labels) == 1 and c.entries[0][0] == ONE


def test_cartan_rank_one_block():
    c = cartan_matrix(2, (1, 1))
    assert c.entries[0][0] == LaurentPoly({2: 1, 0: 1})


def test_cartan_two_by_two_golden():
    c = cartan_matrix(2, (1, 1, 1, 1))
    diag = LaurentPoly({4: 1, 2: 2, 0: 1})
    off = LaurentPoly({3: 1, 1: 1})
    assert c.entries[0][0] == diag and c.entries[1][1] == diag
    assert c.entries[0][1] == off and c.entries[1][0] == off
    # diagonal entries normalize to 1 + v N[v]
    for i in range(2):
        e = c.entries[i][i] - ONE
        assert e.is_zero() or (e.valuation() >= 1 and e.nonnegative_coeffs())


def test_gorenstein_parameter():
    assert gorenstein_parameter(2, (2, 0)) == 0
    assert gorenstein_parameter(2, (1, 1)) == 2
    assert gorenstein_parameter(3, (1, 1, 1)) == 6
    for N, k in ((2, (1, 1, 1, 1)), (3, (2, 1, 1, 1, 1, 0))):
        l = len(k) // N
        assert gorenstein_parameter(N, k) == 2 * d_norm(N, l, k)


def test_frobenius_examples():
    rep = frobenius_check(2, (2, 0), cartan_matrix(2, (2, 0)))
    assert rep.passed and rep.total_dimension == ONE and rep.gorenstein == 0
    rep = frobenius_check(2, (1, 1), cartan_matrix(2, (1, 1)))
    assert rep.passed
    assert rep.total_dimension == LaurentPoly({2: 1, 0: 1})
    # direct substitution: 1 + v^-2 = v^-2 (v^2 + 1)
    assert bar(rep.total_dimension) == rep.total_dimension.shift(-2)


def test_bounded_weights():
    ws = bounded_weights(2, 2)
    assert ws == [(0, 2), (1, 1), (2, 0)]
    for k in bounded_weights(3, 6):
        assert sum(k) == 6 and all(0 <= c <= 3 for c in k)
    assert len(set(bounded_weights(3, 6))) == len(bounded_weights(3, 6))


@pytest.mark.parametrize("N,k", [(2, (1, 1)), (2, (1, 1, 1, 1)), (3, (2, 1, 0))])
def test_cartan_symmetry_and_graded_duality(N, k):
    c = cartan_matrix(N, k)
    g = gorenstein_parameter(N, k)
    n = len(c.labels)
    for i in range(n):
        for j in range(n):
            assert c.entries[i][j] == c.entries[j][i]
            assert bar(c.entries[i][j]) == c.entries[j][i].shift(-g)


@pytest.mark.xfail(
    strict=True,
    reason="bar(C_ST) = C_TS without the v^(-2d) twist contradicts the derived "
    "rank-one value v^2 + 1; the graded duality holds with the twist",
)
def test_cartan_literal_bar_symmetry():
    c = cartan_matrix(2, (1, 1))
    assert bar(c.entries[0][0]) == c.entries[0][0]


@pytest.mark.parametrize(
    "N,k",
    [(4, (3, 1, 1, 1, 1, 1, 0, 0)), (3, (3, 2, 2, 1, 1, 0, 0, 0, 0)), (2, (2, 2, 2, 1, 1, 1, 1, 0, 0, 0))],
)
def test_web_and_tensor_gram_routes_agree(N, k):
    # blocks beyond the shapes that `verify --form` sweeps
    c = cartan_matrix(N, k)
    assert len(c.labels) >= 2
    assert web_gram_mismatch(c, lt_block(N, len(k) // N, k)) is None


@pytest.mark.parametrize(
    "N,l,k,n",
    [(2, 2, (1, 1, 1, 1), 2), (3, 2, (0, 1, 1, 1, 1, 2), 3), (3, 2, (1, 1, 1, 1, 1, 1), 5)],
)
def test_web_gram_is_web_form_entry_by_entry(N, l, k, n):
    # the shared-pass matrix that `verify --form` uses against the pairwise
    # web form that `qwebs form` prints
    webs = [lt_web(elem) for elem in lt_block(N, l, k).values()]
    assert len(webs) == n
    gram = web_gram(webs)
    assert [len(row) for row in gram] == [n] * n
    for i, u in enumerate(webs):
        for j, w in enumerate(webs):
            assert gram[i][j] == web_form(u, w)
