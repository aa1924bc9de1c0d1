import random

import pytest

from qwebs import bases
from qwebs.bases import (
    InvariantViolationError,
    dual_block,
    gram_matrix,
    lt_block,
    lt_vector,
    pairing,
)
from qwebs.cli import main
from qwebs.howe import act_divided, tableau_key
from qwebs.ring import ONE, LaurentPoly, bar
from qwebs.tableaux import (
    NotSemistandardError,
    Shape,
    Tableau,
    enumerate_tableaux,
    highest_tableau,
    peel,
    peel_word,
    tableau_type,
)
from qwebs.tensor import Boundary, Factor, _subset, apply_merge, apply_split, apply_tag, ell
from qwebs.webalg import bounded_weights
from qwebs.webs import d_norm, evaluate_dense, validate

from helpers import (basis_vector, combine, expansion, fresh_lt_block, fresh_lt_memo, highest_vector, idx, lt_web,
                     polys, reference_gram, tensor_product, to_tensor)

fs = frozenset


def mono(e):
    return LaurentPoly({e: 1})


def test_lt_vector_highest():
    top = highest_tableau(Shape(2, 2))
    elem = lt_vector(top.shape, [top])[top]
    assert elem.word == ()
    assert polys(expansion(elem)) == {top: ONE}


def test_lt_vector_two_strands():
    s21 = Shape(2, 1)
    t = Tableau(s21, ((1, 2),))
    elem = lt_vector(s21, [t])[t]
    assert elem.word == ((1, 1),)
    assert polys(expansion(elem)) == {
        t: ONE,
        Tableau(s21, ((2, 1),)): mono(-1),
    }


def test_lt_vector_three_strands():
    s31 = Shape(3, 1)
    t = Tableau(s31, ((1, 2, 3),))
    elem = lt_vector(s31, [t])[t]
    assert elem.word == ((1, 1), (2, 1), (1, 1))
    assert LaurentPoly(elem.terms.get(tableau_key(t))) == ONE
    # all six column-strict rearrangements appear with nonnegative coefficients
    assert len(expansion(elem).coords) == 6
    for tau, c in polys(expansion(elem)).items():
        assert c.nonnegative_coeffs()
        if tau != t:
            assert tau.sort_key() > t.sort_key()


def test_lt_vector_rejects_non_semistandard():
    with pytest.raises(NotSemistandardError):
        lt_vector(Shape(2, 1), [Tableau(Shape(2, 1), ((2, 1),))])


def block_types(N, l, every=1):
    """Every `every`-th semistandard type of the shape, in sorted order."""
    shape = Shape(N, l)
    return sorted({tableau_type(t) for t in enumerate_tableaux(shape, semistandard_only=True)})[::every]


@pytest.mark.parametrize("N,l,every", [(2, 4, 1), (3, 2, 1), (3, 3, 150), (4, 2, 150)])
def test_lt_block_tree_walk_matches_whole_word_replay(monkeypatch, N, l, every):
    shape = Shape(N, l)
    top = {tableau_key(highest_tableau(shape)): {0: 1}}
    calls, peeled = [], []
    monkeypatch.setattr(bases, "act_divided", lambda *args: calls.append(args) or act_divided(*args))
    monkeypatch.setattr("qwebs.tableaux.peel", lambda rows: peeled.append(rows) or peel(rows))
    for k in block_types(N, l, every):
        calls.clear()
        peeled.clear()
        block = fresh_lt_block(N, l, k)  # a fresh walk: no cached block, an empty shape memo
        # one divided power per distinct non-empty prefix of the reversed peel words
        prefixes = {tuple(elem.word[::-1][:d]) for elem in block.values() for d in range(1, len(elem.word) + 1)}
        assert len(calls) == len(prefixes), k
        # and one peel step on each distinct ancestor below the top, the labels included
        ancestors = set()
        for t in block:
            rows = t.rows
            while step := peel(rows):
                ancestors.add(rows)
                rows = step[2]
        assert sorted(peeled) == sorted(ancestors) and len(ancestors) == len(calls), k
        for t, elem in block.items():
            word = peel_word(t)
            assert elem.tableau is t and elem.word == tuple(word)
            terms = top
            for i, r in reversed(word):
                terms = act_divided(shape, -1, i, r, terms)
            assert elem.terms == terms, (k, str(t))
        # the memo serves any label order: a shuffle builds the same elements
        shuffled = list(block)
        random.Random(sum(k)).shuffle(shuffled)
        bases.lt_memo.cache_clear()
        again = lt_vector(shape, shuffled)
        assert list(again) == shuffled and again == block, k


@pytest.mark.parametrize("N,l,below_top", [(2, 2, 19), (2, 3, 174), (3, 2, 489), (2, 4, 1_763)])
def test_shape_memo_acts_once_per_tableau_of_the_shape(monkeypatch, N, l, below_top):
    # every block of the shape in turn: one divided power and one peel step
    # per semistandard tableau below the top, over all the blocks
    shape = Shape(N, l)
    calls, peeled = [], []
    monkeypatch.setattr(bases, "act_divided", lambda *args: calls.append(args) or act_divided(*args))
    monkeypatch.setattr("qwebs.tableaux.peel", lambda rows: peeled.append(rows) or peel(rows))
    bases.lt_memo.cache_clear()
    for k in bounded_weights(N, shape.m):
        lt_block.__wrapped__(N, l, k)
    below = sorted(t.rows for t in enumerate_tableaux(shape, semistandard_only=True)[1:])
    assert sorted(peeled) == below and len(calls) == len(below) == below_top


@pytest.mark.parametrize("N,l", [(2, 4), (3, 2)])
def test_blocks_build_no_tableau_for_their_terms(monkeypatch, N, l):
    # a block is held as maps of packed keys: only its labels are `Tableau`s
    built = []
    real = Tableau.__post_init__
    monkeypatch.setattr(Tableau, "__post_init__", lambda t: built.append(t) or real(t))
    bases.lt_memo.cache_clear()
    for n, k in enumerate(block_types(N, l)):
        labels = enumerate_tableaux(Shape(N, l), k, semistandard_only=True)
        built.clear()
        lt_block.__wrapped__(N, l, k)
        assert len(built) == len(labels) + (n == 0)  # the enumerated labels, and the top once per shape


@pytest.mark.parametrize(
    "inject, message",
    [
        (lambda out: out.update({min(out): {0: -1}}), "negative coefficient -1 at 21"),
        (lambda out: out.update({0b1010: {0: 1}}), "non-triangular term 11 in the vector of 12"),
        (lambda out: out.pop(max(out)), "leading coefficient at 12 is 0"),
        (lambda out: out.update({0b0100: {0: 1}}), r"\(\) is not a column of shape \(2, 1\)"),
        (lambda out: out.update({0b0111: {0: 1}}), r"\(1, 2\) is not a column of shape"),
        (lambda out: out.update({0b0011: {0: 1}}), r"term 0x3 of the vector of 12: \(\) is not a column"),
        # one bit short: clearing the lowest bit of every field at once borrows
        # across the empty field, so the key reads as done unless that is seen
        (lambda out: out.update({0b1000: {0: 1}}), r"term 0x8 of the vector of 12: \(\) is not a column"),
        (lambda out: out.update({0b10110: {0: 1}}), r"term 0x16 of the vector of 12 has more than 2 columns"),
    ],
)
def test_walker_checks_every_vector_it_builds(monkeypatch, inject, message):
    import qwebs.bases

    real = qwebs.bases.act_divided

    def corrupted(shape, sign, i, r, terms):
        out = real(shape, sign, i, r, terms)
        inject(out)
        return out

    monkeypatch.setattr(qwebs.bases, "act_divided", corrupted)
    fresh_lt_memo(monkeypatch)
    with pytest.raises(InvariantViolationError, match=message):
        lt_vector(Shape(2, 1), [Tableau(Shape(2, 1), ((1, 2),))])


def test_dual_canonical_names_the_tableaux_that_break_the_negative_exponent_property(
        monkeypatch, capsys):
    # with every correction dropped, the first element that needs one keeps
    # the coefficient at the first tableau it would have corrected
    k = (0, 0, 1, 2, 1, 2)
    t, elem = next((t, e) for t, e in dual_block(lt_block(3, 2, k)).items() if e.beta)
    s = elem.beta[0][0]
    c = lt_block(3, 2, k)[t].terms[tableau_key(s)]
    assert max(c) >= 0
    monkeypatch.setattr(bases, "symmetrize_correction", lambda _: LaurentPoly())
    with pytest.raises(InvariantViolationError) as exc:
        dual_block(lt_block(3, 2, k))
    message = str(exc.value)
    assert message.startswith(f"negative exponent property fails for {t}: ((")
    assert f"({s!r}, {LaurentPoly(c)!r})" in message
    assert main(["dual-canonical", "--N", "3", "--l", "2", "--type", "0,0,1,2,1,2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"invariant violation: {message}\n"


def test_dual_canonical_small_elements():
    # two strands of color one
    s21 = Shape(2, 1)
    t = Tableau(s21, ((1, 2),))
    d = dual_block(lt_block(2, 1, tableau_type(t)))[t]
    assert d.beta == ()
    assert polys(expansion(d)) == {t: ONE, Tableau(s21, ((2, 1),)): mono(-1)}
    # one strand of color one and one of color two
    s31 = Shape(3, 1)
    t2 = Tableau(s31, ((1, 1, 2),))
    d2 = dual_block(lt_block(3, 1, tableau_type(t2)))[t2]
    assert d2.beta == ()
    assert {tt.rows[0]: c for tt, c in polys(expansion(d2)).items()} == {
        (1, 1, 2): ONE,
        (1, 2, 1): mono(-1),
        (2, 1, 1): mono(-2),
    }
    # trivial at the top
    top = highest_tableau(s21)
    dt = dual_block(lt_block(2, 1, tableau_type(top)))[top]
    assert polys(expansion(dt)) == {top: ONE} and dt.beta == ()


def test_dual_canonical_nontrivial_correction():
    # a block where the intermediate basis is not yet dual canonical
    shape = Shape(3, 2)
    k = (0, 0, 1, 2, 1, 2)
    lt = lt_block(3, 2, k)
    blk = dual_block(lt)
    corrected = [t for t, e in blk.items() if e.beta]
    assert corrected, "expected a nontrivial correction in this block"
    for t, elem in blk.items():
        key = tableau_key(t)
        assert elem.terms[key] == {0: 1}
        assert all(max(c) < 0 for tau, c in elem.terms.items() if tau != key)
        for s, g in elem.beta:
            assert bar(g) == g
            assert s.sort_key() > t.sort_key()
        # the recorded identity b = A^T + sum beta A^S holds
        recon = combine((ONE, expansion(lt[t])), *((g, expansion(lt[s])) for s, g in elem.beta))
        assert recon == expansion(elem)


def test_dual_canonical_deterministic():
    shape = Shape(3, 2)
    k = (0, 0, 1, 2, 1, 2)
    t = [t for t in enumerate_tableaux(shape, k, semistandard_only=True)][-1]
    a = dual_block(lt_block(3, 2, k))[t]
    b = dual_block(lt_block(3, 2, k))[t]
    assert a is not b
    assert expansion(a) == expansion(b) and a.beta == b.beta


@pytest.mark.parametrize("N,l", [(2, 3), (3, 2)])
def test_dual_block_labels_follow_lt_block(N, l):
    shape = Shape(N, l)
    types = {tableau_type(t) for t in enumerate_tableaux(shape, semistandard_only=True)}
    for k in sorted(types):
        block = lt_block(N, l, k)
        labels = list(block)
        assert list(dual_block(block)) == labels
        assert labels == enumerate_tableaux(shape, k, semistandard_only=True)


def test_almost_orthogonality_block():
    duals = dual_block(lt_block(2, 2, (1, 1, 1, 1)))
    labels = list(duals)
    for s in labels:
        for t in labels:
            val = pairing(duals[s].terms, duals[t].terms)
            target = val - ONE if s == t else val
            assert not target or target.valuation() >= 1


def test_gram_matrix_examples():
    g = gram_matrix(lt_block(2, 1, (2, 0)))
    assert len(g.labels) == 1 and g.entries[0][0] == ONE
    g = gram_matrix(lt_block(2, 1, (1, 1)))
    assert g.entries[0][0] == LaurentPoly({2: 1, 0: 1})
    g = gram_matrix(lt_block(2, 2, (1, 1, 1, 1)))
    d = d_norm(2, 2, (1, 1, 1, 1))
    for i in range(2):
        for j in range(2):
            assert g.entries[i][j] == g.entries[j][i]
            assert bar(g.entries[i][j]) == g.entries[j][i].shift(-2 * d)
            assert g.entries[i][j].nonnegative_coeffs()


GRAM_BLOCKS = [*((3, 2, k) for k in bounded_weights(3, 6)), *((2, 4, k) for k in bounded_weights(2, 8)),
               (4, 2, (1,) * 8)]


@pytest.mark.parametrize("basis", ["lt", "dual"])
def test_gram_matrix_pairs_each_unordered_pair_once(monkeypatch, basis):
    # every entry equals the ordered-pair reference, from n(n+1)/2 pairings
    calls = []
    form = bases.pairing
    monkeypatch.setattr(bases, "pairing", lambda x, y: calls.append(1) or form(x, y))
    for N, l, k in GRAM_BLOCKS:
        block = dual_block(lt_block(N, l, k)) if basis == "dual" else lt_block(N, l, k)
        calls.clear()
        g = gram_matrix(block)
        n = len(g.labels)
        assert len(calls) == n * (n + 1) // 2, (N, l, k)
        assert g.entries == reference_gram(block), (N, l, k)


def test_gram_dual_vs_transition():
    # conjugating the LT Gram by the correction matrix gives the dual Gram
    N, l, k = 3, 2, (0, 0, 1, 2, 1, 2)
    lt = lt_block(N, l, k)
    duals = dual_block(lt)
    labels = list(lt)
    glt = gram_matrix(lt)
    gd = gram_matrix(duals)
    coef = {
        (t, s): g for t, e in duals.items() for s, g in e.beta
    }
    for t in labels:
        coef[(t, t)] = ONE
    for i, s in enumerate(labels):
        for j, t in enumerate(labels):
            total = LaurentPoly()
            for a, sa in enumerate(labels):
                ca = coef.get((s, sa))
                if ca is None:
                    continue
                for b, tb in enumerate(labels):
                    cb = coef.get((t, tb))
                    if cb is None:
                        continue
                    total = total + bar(ca) * cb * glt.entries[a][b]
            assert total == gd.entries[i][j]


def test_lt_web_matches_expansion():
    # the ladder web of a basis vector has the vector as its image
    for N, l, rows in ((2, 1, ((1, 2),)), (3, 1, ((1, 2, 3),)), (2, 2, ((1, 2), (3, 4)))):
        t = Tableau(Shape(N, l), rows)
        web = lt_web(lt_vector(t.shape, [t])[t])
        validate(web)
        image = evaluate_dense(web, to_tensor(highest_vector(Shape(N, l))).coords)
        assert image == to_tensor(expansion(lt_vector(t.shape, [t])[t])).coords


# -- known dual canonical families across duality tags ------------------


def full_split(N, a, b):
    space = Boundary(N, (Factor(N),))
    top = basis_vector(space, idx(range(1, N + 1)))
    return apply_split(top, a, b, 1)


def transported(vec):
    """Dual coordinates rewritten in the duality-transported basis."""
    N = vec.space.N
    full = fs(range(1, N + 1))
    out = {}
    for index, c in polys(vec).items():
        key, coeff = [], c
        for s, f in zip(map(_subset, index), vec.space.factors):
            if f.dual:
                key.append(full - s)
                coeff = coeff.shift(-ell(s, full - s))
            else:
                key.append(s)
        out[tuple(key)] = out.get(tuple(key), LaurentPoly()) + coeff
    return {k: v for k, v in out.items() if v}


def assert_top_and_negexp(vec, top):
    tr = transported(vec)
    assert tr.get(top) == ONE, tr.get(top)
    for key, c in tr.items():
        if key != top:
            assert all(e < 0 for e, _ in c.items()), (key, str(c))


def rng(hi, lo):
    return fs(range(lo, hi + 1))


@pytest.mark.parametrize("N", [2, 3, 4])
def test_two_factor_invariants_are_dual_canonical(N):
    for a in range(1, N + 1):
        b = N - a
        assert_top_and_negexp(full_split(N, a, b), (rng(b, 1), rng(N, b + 1)))
        # tagged on the left factor
        assert_top_and_negexp(
            apply_tag(full_split(N, b, a), 2), (rng(a, 1), rng(N, a + 1))
        )
        # tagged on the right factor
        assert_top_and_negexp(
            apply_tag(full_split(N, a, b), 1), (rng(b, 1), rng(N, b + 1))
        )


@pytest.mark.parametrize("N", [3, 4])
def test_three_factor_plain_invariants(N):
    for a in range(1, N - 1):
        for b in range(1, N - a):
            c = N - a - b
            if c < 1:
                continue
            vec = apply_split(full_split(N, a + b, c), a, b, 2)
            assert_top_and_negexp(vec, (rng(c, 1), rng(b + c, c + 1), rng(N, b + c + 1)))


@pytest.mark.parametrize("N", [2, 3, 4])
def test_three_factor_dual_invariants(N):
    for a in range(1, N + 1):
        for c in range(1, N + 1 - a):
            b = N - a - c
            left = apply_tag(full_split(N, N - a, a), 2)
            right = apply_tag(full_split(N, c, N - c), 1)
            vec = tensor_product(left, right)
            vec = apply_merge(vec, a, c, 2)
            vec = apply_tag(vec, 2)
            middle = fs(range(N, a + b, -1)) | fs(range(a, 0, -1))
            assert_top_and_negexp(vec, (rng(a + b, 1), middle, rng(N, a + 1)))
