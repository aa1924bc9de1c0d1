import copy
import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwebs.bases import dual_block, lt_block, lt_memo, lt_vector
from qwebs.cli import main
from qwebs.howe import (
    act_E,
    act_divided,
    check_generator,
    read_tableau_vector,
    tableau_key,
    tableau_to_index,
    terms_texts,
    weight_of_type,
)
from qwebs.ring import ONE, LaurentPoly, exact_divide, qfactorial, qint, qnum
from qwebs.tableaux import Shape, Tableau, enumerate_tableaux, highest_tableau, tableau_type
from qwebs.tensor import Vector
from qwebs.webs import evaluate_dense, ladder_from_word

from helpers import (combine, highest_vector, idx, index_to_tableau, key_tableau, polys, tableau_vector, terms_json,
                     to_tensor, vector)



def test_weight_of():
    s22 = Shape(2, 2)
    assert weight_of_type(tableau_type(highest_tableau(s22))) == (0, 2, 0)
    assert weight_of_type(tableau_type(Tableau(Shape(2, 1), ((1, 2),)))) == (0,)
    big = Tableau(Shape(3, 4), ((1, 1, 2), (2, 3, 4), (4, 5, 6), (6, 6, 7)))
    k = tableau_type(big)
    assert weight_of_type(k) == tuple(k[i] - k[i + 1] for i in range(11))


def test_raising_kills_highest():
    for N, l in ((2, 1), (2, 2), (3, 1), (3, 2)):
        top = highest_vector(Shape(N, l))
        for i in range(1, N * l):
            assert not act_E(+1, i, top).coords


def test_lowering_highest_n2():
    s21 = Shape(2, 1)
    out = act_E(-1, 1, highest_vector(s21))
    assert polys(out) == {
        Tableau(s21, ((1, 2),)): ONE,
        Tableau(s21, ((2, 1),)): LaurentPoly({-1: 1}),
    }


def test_commutator_on_highest():
    s21 = Shape(2, 1)
    top = highest_vector(s21)
    lowered = act_E(-1, 1, top)
    back = act_E(+1, 1, lowered)
    assert back == combine((qint(2), top))
    assert not act_E(-1, 1, act_E(+1, 1, top)).coords


@pytest.mark.parametrize("N,l", [(2, 2), (3, 1)])
def test_commutator_is_weight_scalar(N, l):
    shape = Shape(N, l)
    for t in enumerate_tableaux(shape):
        lam = weight_of_type(tableau_type(t))
        x = tableau_vector(t)
        for i in range(1, shape.m):
            comm = combine((ONE, act_E(+1, i, act_E(-1, i, x))), (-ONE, act_E(-1, i, act_E(+1, i, x))))
            assert comm == combine((qnum(lam[i - 1]), x)), (t, i)


def test_divided_power_examples():
    s22 = Shape(2, 2)
    top = highest_vector(s22)
    assert act_divided(s22, -1, 1, 0, top.coords) == top.coords
    assert act_divided(s22, -1, 1, 1, top.coords) == act_E(-1, 1, top).coords
    # index 1 cannot lower the top (every column already contains a 2);
    # index 2 lowers both 2s, and the square carries the full [2] factor
    assert not act_E(-1, 1, top).coords
    raw = act_E(-1, 2, act_E(-1, 2, top))
    assert len(raw.coords) == 1
    (t2, c2), = polys(raw).items()
    assert t2 == Tableau(s22, ((1, 1), (3, 3)))
    assert c2 == qint(2)
    assert polys(Vector(s22, act_divided(s22, -1, 2, 2, top.coords))) == {t2: ONE}


def test_divided_power_integrality():
    # E^(2) on every basis tableau in small shapes is the square divided exactly by [2]!
    for N, l in ((2, 2), (3, 1)):
        shape = Shape(N, l)
        for t in enumerate_tableaux(shape):
            x = tableau_vector(t)
            for i in range(1, shape.m):
                for sign in (+1, -1):
                    want = reference_act_divided(sign, i, 2, x).coords
                    assert act_divided(shape, sign, i, 2, x.coords) == want


def test_action_matches_ladders_small():
    # coefficient-exact agreement of the two routes on one block
    shape = Shape(2, 2)
    for t in enumerate_tableaux(shape):
        k = tableau_type(t)
        x = tableau_vector(t)
        for sign, i, a in ((-1, 1, 1), (+1, 2, 1), (-1, 3, 2)):
            try:
                web = ladder_from_word(2, k, [(sign, i, a)])
            except Exception:
                continue
            image = evaluate_dense(web, to_tensor(x).coords)
            by_web = {index_to_tableau(shape, key): LaurentPoly(c) for key, c in image.items()}
            assert by_web == polys(Vector(shape, act_divided(shape, sign, i, a, x.coords)))


def test_tensor_dictionary_roundtrip():
    shape = Shape(3, 2)
    for t in enumerate_tableaux(shape)[:20]:
        x = tableau_vector(t, LaurentPoly({1: 2}))
        (key, c), = polys(to_tensor(x)).items()
        assert (index_to_tableau(shape, key), c) == (t, LaurentPoly({1: 2}))


def test_tableau_to_index_is_column_support():
    t = Tableau(Shape(2, 1), ((1, 2),))
    assert tableau_to_index(t) == idx({1}, {2})
    top = highest_tableau(Shape(2, 2))
    assert tableau_to_index(top) == idx({1, 2}, {1, 2}, (), ())


def test_weight_of_type_matches():
    assert weight_of_type((1, 1)) == (0,)
    assert weight_of_type((3, 1, 0, 2)) == (2, 1, -2)


def test_json_roundtrip(capsys, tmp_path):
    s21 = Shape(2, 1)
    one_two, two_one = (tableau_key(Tableau(s21, (row,))) for row in ((1, 2), (2, 1)))
    x = vector(s21, {one_two: ONE, two_one: LaurentPoly({-1: 1})})
    data = terms_json(s21, x.coords)
    # a term whose coefficient is zero is read as no term
    zero = {**data, "terms": data["terms"] + [{"rows": [[1, 1]], "coeff": []}]}
    # the output of `act`, read back, is the action on the vector it read
    s22 = Shape(2, 2)
    y = vector(s22, {tableau_key(t): LaurentPoly({n: n + 1, -1: -1})
                     for n, t in enumerate(enumerate_tableaux(s22)[:12])})
    (tmp_path / "y.json").write_text(json.dumps(terms_json(s22, y.coords)))
    assert main(["act", "--sign", "-", "--i", "2", "--vector", str(tmp_path / "y.json")]) == 0
    image = (s22, act_divided(s22, -1, 2, 1, y.coords))
    assert len(image[1]) > 1
    for payload, want in ((data, x), (zero, x), (json.loads(capsys.readouterr().out), image)):
        assert read_tableau_vector(payload) == want


# -- the column-map kernel against the per-term grid swap ----------------


def reference_act_E(sign, i, x):
    """Independent oracle: move one entry in a copy of the row grid per term."""
    shape = x.space
    out = {}
    src, dst = (i, i + 1) if sign < 0 else (i + 1, i)
    for t, c in polys(x).items():
        columns = [set(col) for col in zip(*t.rows)]
        for ci in range(shape.N):
            col = columns[ci]
            if src not in col or dst in col:
                continue
            grid = [list(r) for r in t.rows]
            for ri in range(shape.l):
                if grid[ri][ci] == src:
                    grid[ri][ci] = dst
            t2 = Tableau(shape, tuple(tuple(r) for r in grid))
            cols = range(ci + 1, shape.N) if sign < 0 else range(ci)
            ni = sum(1 for cj in cols if i in columns[cj])
            nip = sum(1 for cj in cols if i + 1 in columns[cj])
            key = tableau_key(t2)
            out[key] = out.get(key, LaurentPoly()) + c.shift(sign * (ni - nip))
    return vector(shape, out)


def reference_act_divided(sign, i, r, x):
    for _ in range(r):
        x = reference_act_E(sign, i, x)
    if r >= 2:
        x = Vector(x.space, {k: dict(exact_divide(LaurentPoly(c), qfactorial(r)).items())
                             for k, c in x.coords.items()})
    return x


KERNEL_SHAPES = [(N, l) for N in (2, 3, 4) for l in (1, 2, 3, 4) if N * l <= 8]


@st.composite
def tableau_vectors(draw):
    """Vectors on any column-strict tableaux, semistandard or not, with signed coefficients."""
    N, l = draw(st.sampled_from(KERNEL_SHAPES))
    shape = Shape(N, l)
    columns = list(itertools.combinations(range(1, shape.m + 1), l))
    terms = {}
    for _ in range(draw(st.integers(1, 6))):
        cols = draw(st.lists(st.sampled_from(columns), min_size=N, max_size=N))
        coeff = draw(st.dictionaries(st.integers(-3, 3), st.integers(-4, 4), min_size=1, max_size=3))
        key = tableau_key(Tableau.from_columns(shape, cols))
        terms[key] = terms.get(key, LaurentPoly()) + LaurentPoly(coeff)
    return vector(shape, terms)


@settings(deadline=None)
@given(tableau_vectors())
def test_kernel_matches_grid_swap_oracle(x):
    for sign in (-1, +1):
        for i in range(1, x.space.m):
            assert act_E(sign, i, x) == reference_act_E(sign, i, x), (sign, i)
            for r in range(4):
                assert act_divided(x.space, sign, i, r, x.coords) == reference_act_divided(sign, i, r, x).coords, (
                    sign, i, r)


@settings(deadline=None)
@given(tableau_vectors(), st.data())
def test_one_pass_divided_power_is_the_divided_r_fold_action(x, data):
    # every r up to N + 1, past the N columns a single pass can move
    sign = data.draw(st.sampled_from((-1, +1)))
    i = data.draw(st.integers(1, x.space.m - 1))
    r = data.draw(st.integers(0, x.space.N + 1))
    assert act_divided(x.space, sign, i, r, x.coords) == reference_act_divided(sign, i, r, x).coords, (sign, i, r)


@settings(max_examples=50, deadline=None)
@given(tableau_vectors(), st.data())
def test_word_matches_step_by_step(x, data):
    m = x.space.m
    sign = data.draw(st.sampled_from((-1, +1)))
    word = data.draw(st.lists(st.tuples(st.integers(1, m - 1), st.integers(0, 3)), max_size=4))
    y, terms = x, x.coords
    for i, r in word:
        y = reference_act_divided(sign, i, r, y)
        terms = act_divided(x.space, sign, i, r, terms)
    assert terms == y.coords


SEEDED_SHAPES = [(2, 1), (2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (2, 4)]


def _random_map(rng, shape):
    """A map on up to 6 column-strict tableaux, any types, with signed coefficients."""
    columns = list(itertools.combinations(range(1, shape.m + 1), shape.l))
    terms = {}
    for _ in range(rng.randint(1, 6)):
        t = Tableau.from_columns(shape, [rng.choice(columns) for _ in range(shape.N)])
        exponents = rng.sample(range(-3, 4), rng.randint(1, 3))
        terms[tableau_key(t)] = {e: rng.choice((-3, -1, 1, 2)) for e in exponents}
    return terms


@pytest.mark.parametrize("N,l", SEEDED_SHAPES)
def test_kernel_matches_the_reference_on_seeded_maps(N, l):
    # every generator of both signs and every r = 1..N, on 5 seeded maps each
    shape = Shape(N, l)
    rng = random.Random(N * 10 + l)
    cases = 0
    for sign, i, r in itertools.product((-1, 1), range(1, shape.m), range(1, N + 1)):
        for _ in range(5):
            x = Vector(shape, _random_map(rng, shape))
            assert act_divided(shape, sign, i, r, x.coords) == reference_act_divided(sign, i, r, x).coords, (
                sign, i, r, x)
            cases += 1
    assert cases == 5 * 2 * (shape.m - 1) * N


@pytest.mark.parametrize("N,l", [(3, 2), (2, 4)])
def test_packed_keys_round_trip_and_order_tableaux(N, l):
    # enumerate_tableaux lists every column-strict tableau in strictly descending
    # order, ascending in sort_key: their keys must strictly descend
    shape = Shape(N, l)
    tableaux = enumerate_tableaux(shape)
    keys = [tableau_key(t) for t in tableaux]
    assert [key_tableau(shape, k) for k in keys] == tableaux
    assert all(a > b for a, b in zip(keys, keys[1:]))
    assert all(k >> (N * shape.m) == 0 for k in keys)


def _meeting_moves(shape, sign, i, r):
    """(K, [(key, shift), ...]) for each key K that moves from two or more
    column tuples reach, one of them with shift 0, from the reference action."""
    reached = {}
    for t in enumerate_tableaux(shape):
        out = reference_act_divided(sign, i, r, tableau_vector(t))
        for K, c in out.coords.items():
            [(shift, _)] = c.items()  # one subset moves a tuple to K
            reached.setdefault(K, []).append((tableau_key(t), shift))
    return [(K, sorted(src, key=lambda ks: ks[1] != 0)) for K, src in reached.items()
            if len(src) > 1 and any(shift == 0 for _, shift in src)]


@pytest.mark.parametrize("N,l,r", [(2, 2, 1), (2, 3, 1), (3, 1, 2), (4, 1, 2)])
def test_kernel_hands_on_unshifted_maps_and_changes_no_input(N, l, r):
    # two moves meet at K, the first with shift 0, whose map the kernel hands
    # on: the second must add into a copy, also when the two cancel at K
    shape = Shape(N, l)
    cases = 0
    for sign, i in itertools.product((-1, 1), range(1, shape.m)):
        for K, [(k1, _), (k2, s2), *_] in _meeting_moves(shape, sign, i, r):
            a = {0: 2, 3: -1}
            for b in ({5: 1}, {e - s2: -x for e, x in a.items()}):  # the second cancels a at K
                for terms in ({k1: a, k2: b}, {k2: b, k1: a}):
                    before = copy.deepcopy(terms)
                    out = act_divided(shape, sign, i, r, terms)
                    assert out == reference_act_divided(sign, i, r, Vector(shape, terms)).coords
                    assert terms == before and (K in out) == (b == {5: 1})
                    cases += 1
    assert cases
    c = {0: 1}  # moving the right column of 1/1 has shift 0, and meets no other move
    s21 = Shape(2, 1)
    [one_one, one_two] = (tableau_key(Tableau(s21, (row,))) for row in ((1, 1), (1, 2)))
    assert act_divided(s21, -1, 1, 1, {one_one: c})[one_two] is c


def test_dual_block_leaves_the_cached_lt_maps_as_computed():
    k = (1,) * 8
    lt_block.cache_clear()
    dual_block.cache_clear()
    block = lt_block(4, 2, k)
    assert any(e.beta for e in dual_block(4, 2, k).values())
    lt_memo.cache_clear()  # else the memo hands back the block's own maps
    fresh = lt_vector(Shape(4, 2), list(block))
    assert {t: e.terms for t, e in lt_block(4, 2, k).items()} == {t: e.terms for t, e in fresh.items()}


@pytest.mark.parametrize("r", [0, 1, 3])
def test_generator_index_is_checked_for_every_r(r):
    # the kernel checks nothing; `act_E` and the `act` command check here
    shape = Shape(2, 2)
    top = highest_vector(shape)
    check_generator(shape, -1, 3, r)
    for i in (0, 4, 99):
        with pytest.raises(ValueError, match=f"generator index {i} outside 1..3"):
            check_generator(shape, -1, i, r)
        with pytest.raises(ValueError, match=f"generator index {i} outside 1..3"):
            act_E(-1, i, top)
    with pytest.raises(ValueError, match="multiplicity must be nonnegative"):
        check_generator(shape, -1, 1, -1)
    for sign in (0, 2, -2):
        with pytest.raises(ValueError, match="sign must be -1 or \\+1"):
            check_generator(shape, sign, 1, r)
        with pytest.raises(ValueError, match="sign must be -1 or \\+1"):
            act_E(sign, 1, top)


def test_terms_texts_write_the_json_of_terms_json():
    shape = Shape(2, 2)
    x = highest_vector(shape).coords
    for i in (2, 1, 3):
        x = act_divided(shape, -1, i, 1, x)
    y = act_divided(shape, -1, 2, 1, x)
    # shares its keys with x and y; one coefficient has two exponents
    mixed = {**x, max(y): {-2: 3, 1: -1}}
    # two-digit entries (m = 10 and 12), one row (l = 1), coefficients past
    # 64 bits, negative exponents, and empty maps
    wide, row = Shape(5, 2), Shape(12, 1)
    a = tableau_key(Tableau(wide, ((1, 2, 3, 5, 7), (10, 9, 4, 6, 8))))
    b = tableau_key(highest_tableau(wide))
    c = tableau_key(Tableau(wide, ((1, 1, 2, 3, 9), (10, 10, 4, 6, 10))))
    p = tableau_key(Tableau(row, (tuple(range(1, 13)),)))
    q = tableau_key(Tableau(row, ((12, 11, 10, 9, 1, 1, 2, 2, 3, 4, 5, 12),)))
    cases = [
        (shape, [x, {}, y, mixed]),
        (wide, [{a: {-3: 2**64 + 1, 5: -(2**70)}, b: {0: 1}}, {c: {-1: -(2**64)}, a: {2: 7}}, {}]),
        (row, [{p: {-2: 1, -1: 2}, q: {-5: -3}}, {q: {0: 2**80}}]),
        (wide, [{}]),
    ]
    for shape, maps in cases:
        assert terms_texts(shape, maps) == [json.dumps(terms_json(shape, m), sort_keys=True) for m in maps]
