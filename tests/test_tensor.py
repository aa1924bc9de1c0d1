import copy
import json

import pytest
from hypothesis import given, strategies as st

from qwebs.bases import dual_block, lt_block
from qwebs.cli import main
from qwebs.howe import act_divided, act_E, read_tableau_vector, tableau_key
from qwebs.ring import ONE, LaurentPoly, qbinom
from qwebs.tensor import (
    Boundary,
    Factor,
    ShapeMismatchError,
    Vector,
    _ell_table,
    _mask,
    _subset,
    apply_cap,
    apply_cup,
    apply_merge,
    apply_split,
    apply_tag,
    basis_indices,
    cap_kernel,
    cup_kernel,
    ell,
    merge_kernel,
    read_tensor_vector,
    split_kernel,
    tag_kernel,
    tensor_vector_json,
    weight_boundary,
)
from qwebs.tableaux import Shape, Tableau
from qwebs.webs import (
    IllFormedWebError,
    Web,
    cup,
    evaluate_dense,
    evaluate_statesum,
    ladder_from_word,
    merge,
    split,
    tag,
    web_matrix,
)

from helpers import (basis_vector, combine, expansion, highest_vector, idx, polys, tensor_product, terms_json,
                     vector)

fs = frozenset


def mono(e):
    return LaurentPoly({e: 1})


subsets = st.sets(st.integers(min_value=1, max_value=6), max_size=4).map(frozenset)


def test_ell_examples():
    assert ell(fs(), fs({1, 3})) == 0
    assert ell(fs({2}), fs({1, 3})) == 1
    assert ell(fs({1}), fs({2, 3})) == 2


@given(subsets, subsets)
def test_ell_complement_sum(S, T):
    T = T - S
    assert ell(S, T) + ell(T, S) == len(S) * len(T)


@pytest.mark.parametrize("N", range(1, 6))
def test_kernel_ell_table_equals_ell_on_every_pair(N):
    tab = _ell_table(N)
    for S in range(1 << N):
        assert _mask(_subset(S)) == S
        for T in range(1 << N):
            assert tab[S << N | T] == ell(_subset(S), _subset(T)), (S, T)


def test_merge_examples():
    space = Boundary(2, (Factor(1), Factor(1)))
    # left slot 2 = {2}, right slot 1 = {1}
    x = basis_vector(space, idx({1}, {2}))
    assert polys(apply_merge(x, 1, 1, 1)) == {idx({1, 2}): mono(1)}
    x = basis_vector(space, idx({1}, {1}))
    assert not apply_merge(x, 1, 1, 1).coords
    x = basis_vector(space, idx({2}, {1}))
    assert polys(apply_merge(x, 1, 1, 1)) == {idx({1, 2}): ONE}


def test_split_examples():
    w2 = Boundary(2, (Factor(2),))
    z = apply_split(basis_vector(w2, idx({1, 2})), 1, 1, 1)
    assert polys(z) == {
        idx({1}, {2}): ONE,
        idx({2}, {1}): mono(-1),
    }
    w3 = Boundary(3, (Factor(3),))
    z = apply_split(basis_vector(w3, idx({1, 2, 3})), 1, 2, 1)
    assert polys(z) == {
        idx({1, 2}, {3}): ONE,
        idx({1, 3}, {2}): mono(-1),
        idx({2, 3}, {1}): mono(-2),
    }
    z = apply_split(basis_vector(w2, idx({1, 2})), 2, 0, 1)
    assert polys(z) == {idx((), {1, 2}): ONE}


def test_shape_mismatch():
    space = Boundary(2, (Factor(1), Factor(1)))
    x = basis_vector(space, idx({1}, {2}))
    with pytest.raises(ShapeMismatchError):
        apply_merge(x, 2, 1, 1)
    with pytest.raises(ShapeMismatchError):
        apply_split(x, 1, 1, 1)
    with pytest.raises(ShapeMismatchError):
        apply_merge(x, 1, 1, 2)


def test_weight_boundaries_share_one_factor_per_color():
    a, b = weight_boundary(3, (1, 2, 0)), weight_boundary(4, (0, 2, 2, 1))
    assert a.factors == (Factor(1), Factor(2), Factor(0))
    assert a.factors[0] is b.factors[3] and a.factors[1] is b.factors[1] is b.factors[2]


def test_a_step_checks_the_factors_it_splices_in():
    space = Boundary(3, (Factor(2), Factor(1)))
    for bad in (Factor(4), Factor(-1, True)):
        with pytest.raises(ValueError, match=f"factor color {bad.color} outside 0..3"):
            space.replace(1, 1, (bad,))
    with pytest.raises(IllFormedWebError, match="cup color 4"):
        Web(space, (cup(4, 1),))
    assert space.replace(2, 1, (Factor(3),)).factors == (Factor(2), Factor(3))


def test_boundaries_from_json_check_every_factor():
    for at in range(3):
        data = [{"color": 1, "dual": False}] * 3
        data[at] = {"color": 4, "dual": at == 1}
        with pytest.raises(ValueError, match="factor color 4 outside 0..3"):
            Boundary.from_json(3, data)


def test_boundaries_reached_by_steps_equal_and_hash_like_checked_ones():
    lad = ladder_from_word(3, (3, 3, 0, 0), [(-1, 2, 2), (-1, 1, 1), (-1, 3, 1)])
    web = Web(lad.domain, lad.slices + (cup(2, 1), tag(1, 1), tag(2, 3, "right"), merge(1, 2, 4)))
    spaces = [space for _, space, _ in web.walk] + [web.codomain]
    assert any(f.dual for f in web.codomain.factors)
    for space in spaces:
        checked = Boundary(space.N, tuple(Factor(f.color, f.dual) for f in space.factors))
        assert space == checked and hash(space) == hash(checked)
        assert {checked: 1}[space] == 1
        assert Boundary.from_json(space.N, space.to_json()) == space


def test_tag_examples():
    v1 = Boundary(2, (Factor(1),))
    t = apply_tag(basis_vector(v1, idx({1})), 1)
    assert t.space.factors == (Factor(1, dual=True),)
    assert polys(t) == {idx({2}): ONE}
    t = apply_tag(basis_vector(v1, idx({2})), 1)
    assert polys(t) == {idx({1}): mono(1)}
    vN = Boundary(3, (Factor(3),))
    full = fs({1, 2, 3})
    for side in ("left", "right"):
        t = apply_tag(basis_vector(vN, idx(full)), 1, side=side)
        assert polys(t) == {idx(()): ONE}  # (-1)^(N*0) = 1


@pytest.mark.parametrize("N", [2, 3, 4])
def test_tag_invertibility_and_sign(N):
    for a in range(N + 1):
        space = Boundary(N, (Factor(a),))
        sign = -1 if (a * (N - a)) % 2 else 1
        for idx in basis_indices(space):
            x = basis_vector(space, idx)
            left = apply_tag(x, 1, "left")
            right = apply_tag(x, 1, "right")
            assert left == combine((LaurentPoly({0: sign}), right))
            assert apply_tag(left, 1, "left") == x
            assert apply_tag(right, 1, "right") == x
            assert apply_tag(left, 1, "right") == combine((LaurentPoly({0: sign}), x))


@pytest.mark.parametrize("N", [2, 3, 4])
def test_digon_identity(N):
    for a in range(N + 1):
        for b in range(N + 1 - a):
            space = Boundary(N, (Factor(a + b),))
            expected = qbinom(a + b, a)
            for idx in basis_indices(space):
                x = basis_vector(space, idx)
                assert apply_merge(apply_split(x, a, b, 1), a, b, 1) == combine((expected, x))


def test_cup_cap_examples():
    v1 = Boundary(2, (Factor(1),))
    x = basis_vector(v1, idx({1}))
    # zig-zag: cup to the left, cap underneath
    assert apply_cap(apply_cup(x, 1, 2), 1, 1) == x
    # the other zig-zag, on a dual strand
    v1d = Boundary(2, (Factor(1, True),))
    f = basis_vector(v1d, idx({2}))
    assert apply_cap(apply_cup(f, 1, 1), 1, 2) == f
    # direct closure counts subsets
    for N, a in ((2, 1), (3, 2), (4, 2)):
        scalar = Boundary(N, ())
        unit = basis_vector(scalar, ())
        closed = apply_cap(apply_cup(unit, a, 1), a, 1)
        from math import comb

        assert polys(closed) == {(): LaurentPoly({0: comb(N, a)})}
    # delta mismatch
    pair = Boundary(2, (Factor(1), Factor(1, True)))
    bad = basis_vector(pair, idx({2}, {1}))
    assert not apply_cap(bad, 1, 1).coords


def test_operations_are_linear():
    space = Boundary(2, (Factor(2),))
    x = basis_vector(space, idx({1, 2}), LaurentPoly({2: 3, -1: 1}))
    split_then = apply_split(x, 1, 1, 1)
    base = apply_split(basis_vector(space, idx({1, 2})), 1, 1, 1)
    assert split_then == combine((LaurentPoly({2: 3, -1: 1}), base))


def test_tensor_product_slots():
    a = Boundary(2, (Factor(1),))
    x = basis_vector(a, idx({1}), mono(1))
    y = basis_vector(a, idx({2}), mono(2))
    xy = tensor_product(x, y)  # x to the left, y keeps slot 1
    assert xy.space.factors == (Factor(1), Factor(1))
    assert polys(xy) == {idx({2}, {1}): mono(3)}


def test_json_roundtrip(capsys, tmp_path):
    space = Boundary(3, (Factor(2), Factor(1, True)))
    x = vector(space, {idx({1, 3}, {2}): LaurentPoly({-1: 2}), idx({2, 3}, {1}): ONE})
    data = tensor_vector_json(*x)
    assert data["terms"][0]["subsets"][0] == [3, 1]  # descending inside subsets
    # a term whose coefficient is zero is read as no term
    zero = {**data, "terms": data["terms"] + [{"subsets": [[2, 1], [3]], "coeff": []}]}
    # the output of `eval`, read back, is the web's image of the vector it read
    web = ladder_from_word(3, (2, 1, 0), [(-1, 1, 1), (-1, 2, 1)])
    y = vector(web.domain, {key: LaurentPoly({n: n + 1, -1: -1}) for n, key in enumerate(basis_indices(web.domain))})
    (tmp_path / "web.json").write_text(json.dumps(web.to_json()))
    (tmp_path / "y.json").write_text(json.dumps(tensor_vector_json(*y)))
    assert main(["eval", "--web", str(tmp_path / "web.json"), "--vector", str(tmp_path / "y.json")]) == 0
    image = (web.codomain, evaluate_dense(web, y.coords))
    assert len(image[1]) > 1
    for payload, want in ((data, x), (zero, x), (tensor_vector_json(*y), y),
                          (json.loads(capsys.readouterr().out), image)):
        assert read_tensor_vector(payload) == want


@pytest.mark.parametrize(
    "subsets",
    [
        [[7, 2, 1], []],  # three entries in a color-1 slot, 7 outside 1..N
        [[3], []],  # outside 1..N
        [[0], []],
        [[1, 1], []],  # repeated entry
        [[2], [1]],  # color-0 slot holds a nonempty subset
        [[2]],  # one subset for two factors
    ],
)
def test_from_json_rejects_malformed_subsets(subsets):
    data = {
        "N": 2,
        "space": [{"color": 1, "dual": False}, {"color": 0, "dual": False}],
        "terms": [{"subsets": subsets, "coeff": [[0, 1]]}],
    }
    with pytest.raises(ShapeMismatchError):
        read_tensor_vector(data)


def test_no_kernel_changes_a_map_it_is_given():
    # Kernels may hand an input's inner map on as their own (split does), so
    # adding into an input map would corrupt the caller's vector.  Each input
    # has keys that collide, some cancelling in part and some in full; the
    # key that comes first in each collision is the one moved with shift 0.
    merge_in = {(2, 1, 1): {1: -1, 5: 1}, (1, 2, 1): {0: 1, 3: 2}, (2, 1, 2): {1: -1}, (1, 2, 2): {0: 1}}
    cap_in = {(1, 1, 1): {0: 1, 2: 3}, (2, 2, 1): {0: -1}, (1, 1, 2): {4: 1}, (2, 2, 2): {4: -1}}
    s41 = Shape(4, 1)
    [k21, k12, k2x, k1x, k22] = (tableau_key(Tableau(s41, (row,))) for row in (
        (2, 1, 3, 3), (1, 2, 3, 3), (2, 1, 4, 4), (1, 2, 4, 4), (2, 2, 3, 3)))
    howe_in = {k21: {1: -1}, k12: {0: 1, 2: 3}, k2x: {1: -1}, k1x: {0: 1}}
    split_in = {(3, 1): {0: 1, 2: -1}, (3, 2): {1: 2}}
    runs = [
        (lambda x: merge_kernel(2, x, 1), merge_in, {(3, 1): {4: 2, 5: 1}}),
        (lambda x: cap_kernel(x, 1), cap_in, {(1,): {2: 3}}),
        (lambda x: act_divided(s41, -1, 1, 1, x), howe_in, {k22: {3: 3}}),
        (lambda x: split_kernel(2, x, 1, 1), split_in, None),
        (lambda x: merge_kernel(2, split_kernel(2, x, 1, 1), 1), split_in,
         {(3, 1): {-1: 1, 3: -1}, (3, 2): {2: 2, 0: 2}}),  # [2](1 - v^2) = v^-1 - v^3
        (lambda x: tag_kernel(2, x, 1, False, "right"), split_in, None),
        (lambda x: cup_kernel(2, x, 1, 2), split_in, None),
    ]
    for kernel, terms, expected in runs:
        before = copy.deepcopy(terms)
        out = kernel(terms)
        assert terms == before
        assert all(c and 0 not in c.values() for c in out.values())
        if expected is not None:
            assert out == expected

    # the dual corrections replace, never change, the LT block's inner maps
    k = (0, 0, 1, 2, 1, 2)
    lt = {t: copy.deepcopy(e.terms) for t, e in lt_block(3, 2, k).items()}
    assert any(e.beta for e in dual_block(lt_block(3, 2, k)).values())
    assert {t: e.terms for t, e in lt_block(3, 2, k).items()} == lt


def _is_int_map(c) -> bool:
    return type(c) is dict and bool(c) and all(type(e) is int and type(a) is int and a for e, a in c.items())


def test_every_vector_holds_int_maps_and_shares_none_it_may_change():
    space = Boundary(3, (Factor(3),))
    x = basis_vector(space, idx({1, 2, 3}), LaurentPoly({1: 2, -1: -1}))
    web = Web(space, (split(1, 2, 1), tag(1, 2), tag(1, 2), merge(1, 2, 1)))
    parts = apply_split(x, 1, 2, 1)
    cupped = apply_cup(parts, 1, 1)
    tensors = [parts, apply_merge(parts, 1, 2, 1), apply_tag(parts, 2, "right"), cupped,
               apply_cap(cupped, 1, 1), Vector(web.codomain, evaluate_dense(web, x.coords)),
               Vector(web.codomain, evaluate_statesum(web, x.coords)),
               *(Vector(web.codomain, image) for image in web_matrix(web).values()),
               Vector(*read_tensor_vector(tensor_vector_json(*parts)))]
    top = highest_vector(Shape(2, 2))
    k = (0, 0, 1, 2, 1, 2)
    s22 = top.space
    tableaux = [Vector(s22, act_divided(s22, -1, 1, 1, act_divided(s22, -1, 2, 1, top.coords))),
                act_E(-1, 2, top),
                *(expansion(e) for e in lt_block(3, 2, k).values()),
                *(expansion(e) for e in dual_block(lt_block(3, 2, k)).values())]
    tableaux.append(Vector(*read_tableau_vector(terms_json(top.space, tableaux[0].coords))))
    for v in tensors + tableaux:
        assert v.coords and all(_is_int_map(c) for c in v.coords.values()), v
    assert evaluate_dense(web, x.coords) == combine((qbinom(3, 1), x)).coords
