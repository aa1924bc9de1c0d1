import random
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qwebs.ring import ONE, LaurentPoly, bar, qbinom
from qwebs.tensor import Boundary, Factor, ShapeMismatchError, basis_indices, cup_kernel, tag_kernel
import qwebs.webs as qwebs_webs
from qwebs.bases import lt_block
from qwebs.webalg import bounded_weights
from qwebs.webs import (
    MAX_TERMS,
    MAX_WALK_FACTORS,
    AnnihilatedError,
    IllFormedWebError,
    Slice,
    Web,
    cap,
    check_work,
    cup,
    d_norm,
    ev_closed,
    evaluate_dense,
    evaluate_statesum,
    ladder_from_word,
    merge,
    rung,
    split,
    tag,
    validate,
    web_form,
    web_matrix,
    weight_boundary,
)

from helpers import basis_vector, combine, compose, idx, lt_web, mirror_pass_form, reflect


def test_validate():
    dom = Boundary(2, (Factor(2),))
    assert validate(Web(dom)) == dom
    w = Web(dom, (split(1, 1, 1),))
    assert validate(w) == Boundary(2, (Factor(1), Factor(1)))
    with pytest.raises(IllFormedWebError) as exc:
        validate(Web(Boundary(2, (Factor(1),)), (merge(1, 1, 1),)))
    assert exc.value.slice_index == 0


def test_ladder_construction():
    lad = ladder_from_word(2, (2, 0), [(-1, 1, 1)])
    assert validate(lad) == Boundary(2, (Factor(1), Factor(1)))
    assert validate(ladder_from_word(2, (2, 0), [])) == weight_boundary(2, (2, 0))
    with pytest.raises(AnnihilatedError):
        ladder_from_word(2, (2, 0), [(-1, 1, 3)])
    with pytest.raises(AnnihilatedError):
        ladder_from_word(2, (0, 2), [(-1, 1, 1)])
    # the command line's rung tokens cannot write a negative width
    with pytest.raises(ValueError, match="rung width must be nonnegative"):
        ladder_from_word(2, (2, 0), [(-1, 1, -1)])


def test_evaluate_dense_examples():
    hv = basis_vector(weight_boundary(2, (2, 0)), idx({1, 2}, ()))
    assert evaluate_dense(Web(hv.space), hv.coords) == hv.coords
    lad = ladder_from_word(2, (2, 0), [(-1, 1, 1)])
    img = evaluate_dense(lad, hv.coords)
    assert img == {
        idx({1}, {2}): {0: 1},
        idx({2}, {1}): {-1: 1},
    }
    dom = Boundary(2, (Factor(2),))
    digon = Web(dom, (split(1, 1, 1), merge(1, 1, 1)))
    x = basis_vector(dom, idx({1, 2}))
    assert evaluate_dense(digon, x.coords) == combine((qbinom(2, 1), x)).coords


def test_enumerate_states():
    # one state per boundary pair here, so each coefficient is one state's monomial
    idw = Web(Boundary(2, (Factor(1),)))
    assert evaluate_statesum(idw, {idx({1}): {0: 1}}) == {idx({1}): {0: 1}}
    dom = Boundary(2, (Factor(2),))
    sp = Web(dom, (split(1, 1, 1),))
    assert evaluate_statesum(sp, {idx({1, 2}): {0: 1}}) == {idx({1}, {2}): {0: 1}, idx({2}, {1}): {-1: 1}}


def test_state_weight_matches_dense():
    dom = Boundary(3, (Factor(3),))
    sp = Web(dom, (split(1, 2, 1),))
    x = {idx({1, 2, 3}): {0: 1}}
    # the one state that ends at ({2,3}, {1}) weighs v^-2
    assert evaluate_statesum(sp, x)[idx({2, 3}, {1})] == {-2: 1}
    assert evaluate_statesum(sp, x) == evaluate_dense(sp, x)


_TAG_AND_CUP_DOMAIN = Boundary(3, (Factor(2),))
_TAG_AND_CUP_WEBS = [
    Web(_TAG_AND_CUP_DOMAIN, (tag(2, 1, "left"),)),
    Web(_TAG_AND_CUP_DOMAIN, (tag(2, 1, "right"),)),
    Web(_TAG_AND_CUP_DOMAIN, (cup(2, 2), tag(2, 3), tag(1, 2), merge(1, 2, 1), split(1, 2, 1), cap(1, 2))),
    Web(_TAG_AND_CUP_DOMAIN, (split(1, 1, 1), merge(1, 1, 1))),
]


def test_statesum_equals_dense_on_tag_and_cup_webs():
    dom = _TAG_AND_CUP_DOMAIN
    for w in _TAG_AND_CUP_WEBS:
        for idx in basis_indices(dom):
            x = {idx: {0: 1}}
            assert evaluate_statesum(w, x) == evaluate_dense(w, x)


def test_statesum_calls_no_dense_kernel(monkeypatch):
    import qwebs.webs

    dom, webs = _TAG_AND_CUP_DOMAIN, _TAG_AND_CUP_WEBS
    cases = [(w, {idx: {0: 1}}) for w in webs for idx in basis_indices(dom)]
    dense = [evaluate_dense(w, x) for w, x in cases]

    def refuse(*args, **kwargs):
        raise AssertionError("the state sum called a dense kernel")

    for name in ("merge_kernel", "split_kernel", "tag_kernel", "cup_kernel", "cap_kernel"):
        monkeypatch.setattr(qwebs.webs, name, refuse)
    assert [evaluate_statesum(w, x) for w, x in cases] == dense


@st.composite
def composable_webs(draw, max_factors=4, max_slices=5, closed=False, tags=True):
    """A web whose every slice fits: plain and dual factors, both tag sides, cups and caps.

    A `closed` web starts on a highest-weight boundary: plain factors of color N or 0.
    Without `tags` it has no tag slice.
    """
    N = draw(st.integers(2, 3))
    if closed:
        factor = st.builds(Factor, st.sampled_from((0, N)))
    else:
        factor = st.builds(Factor, st.integers(0, N), st.booleans())
    domain = space = Boundary(N, tuple(draw(st.lists(factor, min_size=1, max_size=3))))
    slices = []
    for _ in range(draw(st.integers(1, max_slices))):
        factors, n = space.factors, len(space.factors)
        pairs = list(enumerate(zip(factors, factors[1:]), start=1))  # (pos, (slot pos, slot pos+1))
        by_kind = [
            [tag(N - f.color if f.dual else f.color, pos, side)
             for pos, f in enumerate(factors, start=1) for side in ("left", "right") if tags],
            [merge(hi.color, lo.color, pos) for pos, (lo, hi) in pairs
             if not lo.dual and not hi.dual and lo.color + hi.color <= N],
            [cap(lo.color, pos) for pos, (lo, hi) in pairs
             if lo.color == hi.color and lo.dual != hi.dual],
            [split(a, f.color - a, pos) for pos, f in enumerate(factors, start=1)
             if not f.dual and n < max_factors for a in range(f.color + 1)],
            [cup(a, pos) for pos in range(1, n + 2) for a in range(N + 1) if n + 2 <= max_factors],
        ]
        kinds = [opts for opts in by_kind if opts]
        if not kinds:  # with no tags, a boundary may take no slice: e.g. three dual factors
            break
        s = draw(st.sampled_from(draw(st.sampled_from(kinds))))
        space = validate(Web(space, (s,)))
        slices.append(s)
    return Web(domain, tuple(slices))


@settings(deadline=None)
@given(composable_webs(), st.data())
def test_statesum_equals_dense_on_random_webs(web, data):
    indices = basis_indices(web.domain)
    for idx in indices:
        x = {idx: {1: 2, -1: -1}}
        assert evaluate_statesum(web, x) == evaluate_dense(web, x), idx
    # zero goes to zero
    assert evaluate_statesum(web, {}) == evaluate_dense(web, {}) == {}
    # one tagged walk gives the image of each index, of the whole basis or of
    # some of it in any order, as one walk per index does
    some = data.draw(st.permutations(indices))[: data.draw(st.integers(0, len(indices)))]
    for chosen, matrix in ((indices, web_matrix(web)), (some, web_matrix(web, some))):
        assert list(matrix) == chosen
        for idx, image in matrix.items():
            assert image == evaluate_dense(web, {idx: {0: 1}}), idx


def test_wrong_color_tag_is_refused_by_both_evaluators():
    dom = Boundary(3, (Factor(2),))
    x = {idx({1, 2}): {0: 1}}
    # a tag names the color of the plain factor it flips; on a dual factor
    # of color c it names N - c, the color the factor's first tag was given.
    # A web with a wrong tag cannot be made, so no evaluator ever gets one.
    for slices in ((tag(1, 1),), (tag(2, 1), tag(1, 1))):
        with pytest.raises(ShapeMismatchError) as exc:
            Web(dom, slices)
        assert exc.value.slice_index == len(slices) - 1
    twice = Web(dom, (tag(2, 1), tag(2, 1)))
    assert evaluate_statesum(twice, x) == evaluate_dense(twice, x) == x


@st.composite
def any_slices(draw, N):
    """A slice of any kind, whose fields may or may not fit a boundary."""
    return Slice(draw(st.sampled_from(["merge", "split", "cup", "cap", "tag", "id"])),
                 draw(st.integers(0, 4)), draw(st.integers(-1, N + 1)), draw(st.integers(-1, N + 1)),
                 draw(st.sampled_from(["", "left", "right", "up"])))


@settings(deadline=None)
@given(composable_webs(), st.data())
def test_evaluate_dense_raises_exactly_when_validate_does(web, data):
    # making the web is the one check: it fails at the first slice that does
    # not fit, or both evaluators run and agree
    domain, slices, i = web.domain, web.slices, len(web.slices)
    if data.draw(st.booleans()):  # put one slice anywhere in the web, fitting or not
        i = data.draw(st.integers(0, len(slices)))
        slices = slices[:i] + (data.draw(any_slices(domain.N)),) + slices[i + 1 :]
    try:
        web = Web(domain, slices)
    except IllFormedWebError as exc:
        assert exc.slice_index >= i
        assert len(Web(domain, slices[: exc.slice_index]).walk) == exc.slice_index
    else:
        x = {basis_indices(domain)[0]: {0: 1}}
        assert evaluate_dense(web, x) == evaluate_statesum(web, x)


def test_statesum_steps_each_slice_once_and_skips_validate(monkeypatch):
    import qwebs.webs

    steps, validated = [], []
    real_step = qwebs.webs._step
    monkeypatch.setattr(qwebs.webs, "_step", lambda i, sp, s: steps.append(i) or real_step(i, sp, s))
    monkeypatch.setattr(qwebs.webs, "validate", lambda web: validated.append(web))
    dom = Boundary(3, (Factor(2),))
    w = Web(dom, (cup(2, 2), tag(2, 3), tag(1, 2), merge(1, 2, 1), split(1, 2, 1), cap(1, 2)))
    assert steps == list(range(len(w.slices)))  # each slice once, when the web is made
    steps.clear()
    for idx in basis_indices(dom):
        assert evaluate_statesum(w, {idx: {0: 1}}) == evaluate_dense(w, {idx: {0: 1}})
    assert steps == [] and validated == []
    with pytest.raises(IllFormedWebError) as exc:
        Web(dom, (split(1, 1, 1), merge(2, 1, 1)))
    assert exc.value.slice_index == 1


def test_associativity_both_evaluators():
    dom = Boundary(3, (Factor(3),))
    lhs = Web(dom, (split(2, 1, 1), split(1, 1, 2)))
    rhs = Web(dom, (split(1, 2, 1), split(1, 1, 1)))
    x = {idx({1, 2, 3}): {0: 1}}
    assert evaluate_dense(lhs, x) == evaluate_dense(rhs, x)
    assert evaluate_statesum(lhs, x) == evaluate_statesum(rhs, x)


def test_identity_slice_is_noop():
    dom = Boundary(2, (Factor(1), Factor(1)))
    w = Web(dom, (Slice("id", 2),))
    assert validate(w) == dom
    x = {idx({1}, {2}): {0: 1}}
    assert evaluate_dense(w, x) == evaluate_statesum(w, x) == x
    assert reflect(w).slices == w.slices


def test_reflect():
    lad = ladder_from_word(2, (2, 0), [(-1, 1, 1)])
    assert reflect(Web(lad.domain)).slices == ()
    assert reflect(reflect(lad)).slices == lad.slices
    assert reflect(reflect(lad)).domain == lad.domain
    dom = Boundary(2, (Factor(2),))
    assert reflect(Web(dom, (split(1, 1, 1),))).slices == (merge(1, 1, 1),)
    tagged = Web(Boundary(2, (Factor(1),)), (tag(1, 1, "left"),))
    assert reflect(tagged).slices == (tag(1, 1, "right"),)


def test_ev_closed():
    m2 = weight_boundary(2, (2, 0))
    assert ev_closed(Web(m2)) == ONE
    lad = ladder_from_word(2, (2, 0), [(-1, 1, 1)])
    assert ev_closed(compose(lad, reflect(lad))) == qbinom(2, 1)
    with pytest.raises(ShapeMismatchError):
        ev_closed(lad)


def test_ev_closed_column_ladder_golden():
    # the column word ladder on one strand of color 3
    lad = ladder_from_word(3, (3, 0, 0), [(-1, 1, 1), (-1, 2, 1), (-1, 1, 1)])
    closed = compose(lad, reflect(lad))
    value = ev_closed(closed)
    assert bar(value) == value
    assert value.nonnegative_coeffs()
    # frozen after cross-checking against the state-sum route
    golden = LaurentPoly({3: 1, 1: 2, -1: 2, -3: 1})
    assert value == golden
    key = idx(*({1, 2, 3} if f.color == 3 else () for f in closed.domain.factors))
    assert LaurentPoly(evaluate_statesum(closed, {key: {0: 1}})[key]) == golden


def test_d_norm():
    assert d_norm(2, 1, (2, 0)) == 0
    assert d_norm(2, 1, (1, 1)) == 1
    assert d_norm(3, 1, (1, 1, 1)) == 3
    assert d_norm(3, 2, (3, 3, 0, 0, 0, 0)) == 0


def test_web_form_examples():
    w_top = Web(weight_boundary(2, (2, 0)))
    assert web_form(w_top, w_top) == ONE
    lad = ladder_from_word(2, (2, 0), [(-1, 1, 1)])
    assert web_form(lad, lad) == LaurentPoly({2: 1, 0: 1})
    with pytest.raises(ShapeMismatchError):
        web_form(w_top, lad)


def test_web_form_refuses_what_it_cannot_pair():
    # web_form checks a shared domain, a shared codomain, a highest-weight
    # domain and a plain codomain, in this order: where two faults meet, the
    # first is named
    w_top = Web(weight_boundary(2, (2, 0)))
    lad = ladder_from_word(2, (2, 0), [(-1, 1, 1)])
    with pytest.raises(ShapeMismatchError, match="share their codomain"):
        web_form(w_top, lad)
    with pytest.raises(ShapeMismatchError, match="share their domain"):
        web_form(w_top, Web(weight_boundary(2, (0, 2))))  # and their codomains differ
    open_id = Web(weight_boundary(2, (1, 1)))
    with pytest.raises(ShapeMismatchError, match="share their codomain"):
        web_form(open_id, ladder_from_word(2, (1, 1), [(+1, 1, 1)]))
    with pytest.raises(ShapeMismatchError, match="closed evaluation"):
        web_form(open_id, open_id)
    open_tagged = Web(open_id.domain, (tag(1, 1),))
    with pytest.raises(ShapeMismatchError, match="closed evaluation"):
        web_form(open_tagged, open_tagged)  # and its codomain is dual
    tagged = Web(w_top.domain, (tag(2, 1),))
    assert tagged.codomain.factors[0].dual
    with pytest.raises(ShapeMismatchError, match="plain boundaries"):
        web_form(tagged, tagged)
    with pytest.raises(IllFormedWebError):
        web_form(w_top, Web(w_top.domain, (merge(1, 1, 1),)))


def test_web_form_steps_no_slice(monkeypatch):
    # the webs were stepped when they were made; the form runs on their
    # stored walks and makes no web, mirrored or other
    import qwebs.webs

    w1 = ladder_from_word(2, (2, 2, 0, 0), [(-1, 2, 1), (-1, 3, 1), (-1, 1, 1), (-1, 2, 1)])
    w2 = ladder_from_word(2, (2, 2, 0, 0), [(-1, 2, 2), (-1, 1, 1), (-1, 3, 1)])
    seen = []
    real = qwebs.webs._step
    monkeypatch.setattr(qwebs.webs, "_step", lambda i, sp, s: seen.append((i, s)) or real(i, sp, s))
    assert web_form(w1, w2) == LaurentPoly({3: 1, 1: 1})
    assert web_form(w1, w1) == LaurentPoly({4: 1, 2: 2, 0: 1})
    assert seen == []


def _transpose(matrix: dict) -> dict:
    """{column: {row: c}} to {row: {column: c}}."""
    out: dict = {}
    for col, image in matrix.items():
        for row, c in image.items():
            out.setdefault(row, {})[col] = c
    return out


def _co_matrix(web: Web) -> dict:
    """The co-image matrix, {domain index: co-image on the codomain}, without zero rows:
    the co-walk of each index times v^(sum of `_co_degree` over the slices)."""
    degree = sum(map(qwebs_webs._co_degree, web.slices))
    rows = {i: qwebs_webs._co_walk(web, {i: {0: 1}}) for i in basis_indices(web.domain)}
    return {i: {k: {e + degree: a for e, a in c.items()} for k, c in row.items()}
            for i, row in rows.items() if row}


def _one_slice_webs(N: int) -> list[Web]:
    """One web per slice kind and fitting colors: merges, splits, tags of both sides on plain
    and dual factors, cups at either end, caps of both layouts and identities."""
    webs = []
    for a in range(N + 1):
        for b in range(N + 1 - a):
            webs.append(Web(Boundary(N, (Factor(b), Factor(a))), (merge(a, b, 1),)))
            webs.append(Web(Boundary(N, (Factor(a + b),)), (split(a, b, 1),)))
        for side in ("left", "right"):
            webs.append(Web(Boundary(N, (Factor(a),)), (tag(a, 1, side),)))
            webs.append(Web(Boundary(N, (Factor(a, True),)), (tag(N - a, 1, side),)))
        for pos in (1, 2):
            webs.append(Web(Boundary(N, (Factor(1),)), (cup(a, pos),)))
        webs.append(Web(Boundary(N, (Factor(a, True), Factor(a))), (cap(a, 1),)))
        webs.append(Web(Boundary(N, (Factor(a), Factor(a, True))), (cap(a, 1),)))
        webs.append(Web(Boundary(N, (Factor(1), Factor(a))), (Slice("id", 2),)))
    return webs


@pytest.mark.parametrize("N", [2, 3, 4])
def test_each_co_kernel_is_the_transpose_of_the_mirrored_slice(N):
    webs = _one_slice_webs(N)
    assert {w.slices[0].kind for w in webs} == set(qwebs_webs._SLICE_KINDS)
    for w in webs:
        assert _co_matrix(w) == _transpose(web_matrix(reflect(w))), w.slices


@settings(deadline=None)
@given(composable_webs())
def test_co_walk_is_the_transpose_of_the_reflected_web(web):
    try:
        mirrored = reflect(web)
    except IllFormedWebError:  # a cap of the other layout mirrors to a cup of the usual one
        assume(False)
    # which at color N/2 fits, and lays the slices above it on other factors
    # than the web's own: then `mirrored` is no reflection of the web
    assume(mirrored.codomain == web.domain)
    assert _co_matrix(web) == _transpose(web_matrix(mirrored))


@settings(deadline=None)
@given(composable_webs(tags=False))
def test_co_walk_of_a_web_with_no_tag_is_its_walk(web):
    for i in basis_indices(web.domain):
        assert qwebs_webs._co_walk(web, {i: {0: 1}}) == evaluate_dense(web, {i: {0: 1}}), i


@settings(deadline=None)
@given(composable_webs(closed=True))
def test_web_form_is_the_mirror_pass_form_on_random_webs(web):
    try:
        mirrored = reflect(web)
    except IllFormedWebError:  # as in test_co_walk_is_the_transpose_of_the_reflected_web
        assume(False)
    assume(mirrored.codomain == web.domain)
    cod = web.codomain
    assume(all(not f.dual for f in cod.factors))
    ends = [(), (cup(1, 1), cap(1, 1))]  # each keeps the codomain
    if cod.factors:
        a = cod.factors[0].color
        ends += [(tag(a, 1), tag(a, 1, "right")), (tag(a, 1, "right"), tag(a, 1, "right"))]
        if a:
            ends.append((split(1, a - 1, 1), merge(1, a - 1, 1)))
    # each end's mirror steps the same boundaries as the end, so each web reflects as `web` does
    webs = [Web(web.domain, web.slices + e) for e in ends]
    for u in webs:
        for w in webs:
            assert web_form(u, w) == mirror_pass_form(u, w), (u.slices, w.slices)


def test_co_walk_past_a_cap_of_the_other_layout_is_the_transpose():
    # a left tag on slot 2 of (1, 1), then a cap of the plain-below-dual
    # layout; the reflection is that layout's cup, then the right tag on the
    # dual factor of slot 2, which no mirrored `Web` can lay
    web = Web(Boundary(2, (Factor(1), Factor(1))), (tag(1, 2), cap(1, 1)))
    reflection = tag_kernel(2, cup_kernel(2, {(): {0: 1}}, 1, 1), 2, True, "right")
    assert _co_matrix(web) == _transpose({(): reflection})


def _random_ladders(rng: random.Random, N: int, k: tuple[int, ...], count: int) -> list[Web]:
    """Ladders of random lowering words from the highest weight k."""
    webs = []
    while len(webs) < count:
        word = [(-1, rng.randint(1, len(k) - 1), rng.randint(1, N)) for _ in range(rng.randint(1, 5))]
        try:
            webs.append(ladder_from_word(N, k, word))
        except AnnihilatedError:
            pass
    return webs


@pytest.mark.parametrize("N, k, seed", [(2, (2, 2, 0, 0), 1), (3, (3, 3, 0, 0), 2), (3, (3, 0, 0, 0), 3),
                                        (4, (4, 0, 0), 4)])
def test_web_form_is_the_mirror_pass_form_on_random_ladders(N, k, seed):
    by_codomain: dict = {}
    for w in _random_ladders(random.Random(seed), N, k, 24):
        by_codomain.setdefault(w.codomain, []).append(w)
    assert any(len(ws) > 1 for ws in by_codomain.values())
    for ws in by_codomain.values():
        for u in ws:
            for w in ws:
                assert web_form(u, w) == mirror_pass_form(u, w), (u.slices, w.slices)


def test_web_form_is_the_mirror_pass_form_on_webs_with_tags_cups_and_caps():
    for N, k, word in ((2, (2, 2, 0, 0), [(-1, 2, 1), (-1, 3, 1), (-1, 1, 1)]),
                       (3, (3, 0, 0), [(-1, 1, 2), (-1, 2, 1)])):
        lad = ladder_from_word(N, k, word)
        a, b = (f.color for f in lad.codomain.factors[:2])  # slots 1 and 2
        extras = [
            (),
            (tag(a, 1), tag(a, 1, "right")),
            (tag(b, 2, "right"), tag(b, 2, "right")),
            (cup(1, 1), cap(1, 1)),
            (cup(N - 1, 2), tag(1, 2), tag(1, 2, "right"), cap(N - 1, 2)),
            (cup(N - a, 1), merge(a, N - a, 2), split(a, N - a, 2), cap(N - a, 1)),
            (split(0, a, 1), cup(2, 1), merge(0, a, 3), Slice("id", 1), cap(2, 1)),
        ]
        webs = [Web(lad.domain, lad.slices + e) for e in extras]
        assert {w.codomain for w in webs} == {lad.codomain}
        # one tag on the dual strand of a cup: there u's co-walk is not its walk
        lone = [Web(lad.domain, lad.slices + (cup(1, 1), tag(N - 1, 1, side))) for side in ("left", "right")]
        for group in (webs, lone):
            for u in group:
                for w in group:
                    assert web_form(u, w) == mirror_pass_form(u, w), (u.slices, w.slices)


def test_web_form_symmetry_and_duality():
    # the type (1,1,1,1) block at N=2: two basis words
    w1 = ladder_from_word(2, (2, 2, 0, 0), [(-1, 2, 1), (-1, 3, 1), (-1, 1, 1), (-1, 2, 1)])
    w2 = ladder_from_word(2, (2, 2, 0, 0), [(-1, 2, 2), (-1, 1, 1), (-1, 3, 1)])
    d = d_norm(2, 2, (1, 1, 1, 1))
    for u in (w1, w2):
        for w in (w1, w2):
            val = web_form(u, w)
            assert val.nonnegative_coeffs()
            assert val == web_form(w, u)
            assert bar(val) == val.shift(-2 * d)


def test_web_matrix_identity():
    dom = Boundary(2, (Factor(1), Factor(1)))
    web = Web(dom)
    assert web.codomain == dom
    for idx, image in web_matrix(web).items():
        assert image == basis_vector(dom, idx).coords


def test_web_json_roundtrip():
    lad = ladder_from_word(3, (3, 0, 0), [(-1, 1, 2), (+1, 1, 1)])
    assert Web.from_json(lad.to_json()) == lad


def test_tag_side_must_be_left_or_right():
    dom = Boundary(3, (Factor(2),))
    x = basis_vector(dom, idx({1, 2}))
    with pytest.raises(IllFormedWebError) as exc:
        Web(dom, (Slice("tag", 1, 2, side="middle"),))
    assert exc.value.slice_index == 0
    # a missing side means left
    assert evaluate_dense(Web(dom, (Slice("tag", 1, 2),)), x.coords) == evaluate_dense(
        Web(dom, (tag(2, 1, "left"),)), x.coords
    )


@pytest.mark.parametrize("side", [{}, {"side": ""}, {"side": "left"}, {"side": "right"}],
                         ids=["missing", "empty", "left", "right"])
def test_double_reflection_of_a_tag_evaluates_like_the_tag(side):
    for N in (2, 3, 4):
        for a in range(N + 1):
            web = Web.from_json({
                "N": N,
                "domain": [{"color": a, "dual": False}],
                "slices": [{"kind": "tag", "pos": 1, "a": a, **side}],
            })
            twice = reflect(reflect(web))
            for idx in basis_indices(web.domain):
                x = basis_vector(web.domain, idx)
                assert evaluate_dense(twice, x.coords) == evaluate_dense(web, x.coords)


def test_web_form_does_not_depend_on_spelling_out_a_left_tag():
    lad = ladder_from_word(2, (2, 0), [(-1, 1, 1)])

    def tagged(side):
        return Web(lad.domain, lad.slices + (Slice("tag", 1, 1, side=side), tag(1, 1, "right")))

    assert web_form(tagged(""), lad) == web_form(tagged("left"), lad) == -web_form(lad, lad)


def test_rung_moves_color_or_annihilates():
    assert rung(2, 2, 0, -1, 1) == (1, 1)
    assert rung(2, 1, 1, +1, 1) == (2, 0)
    assert rung(3, 1, 2, +1, 0) == (1, 2)
    with pytest.raises(AnnihilatedError, match="cannot raise by 1"):
        rung(2, 2, 0, +1, 1)
    with pytest.raises(AnnihilatedError, match="cannot lower by 2"):
        rung(2, 1, 1, -1, 2)


def test_unknown_slice_kind_is_ill_formed():
    dom = Boundary(2, (Factor(1),))
    for kind in ("twist", ["merge"]):
        with pytest.raises(IllFormedWebError):
            validate(Web(dom, (Slice(kind, 1),)))


def test_a_web_steps_its_slices_once_when_made_and_its_readers_step_none(monkeypatch):
    import qwebs.webs

    lad = ladder_from_word(2, (2, 0), [(-1, 1, 1)])
    slices = compose(lad, reflect(lad)).slices
    steps = []
    real = qwebs.webs._step
    monkeypatch.setattr(qwebs.webs, "_step", lambda i, sp, s: steps.append(i) or real(i, sp, s))
    closed = Web(lad.domain, slices)
    assert steps == list(range(len(slices)))
    steps.clear()
    key = idx({1, 2}, ())
    x = {key: {0: 1}}
    assert evaluate_dense(closed, x) == evaluate_statesum(closed, x) == web_matrix(closed)[key]
    assert ev_closed(closed) == qbinom(2, 1)
    assert validate(closed) == closed.codomain == closed.domain
    assert steps == []


def test_web_from_json_refuses_an_ill_formed_web_at_its_slice():
    dom = [{"color": 2, "dual": False}]
    for slices, at in (
        ([split(1, 1, 1).to_json(), merge(2, 1, 1).to_json()], 1),
        ([{"kind": "tag", "pos": 1, "a": 2, "side": "middle"}], 0),
        ([Slice("id", 1).to_json(), Slice("id", 2).to_json()], 1),
    ):
        with pytest.raises(IllFormedWebError) as exc:
            Web.from_json({"N": 3, "domain": dom, "slices": slices})
        assert exc.value.slice_index == at


def _cups(count: int) -> dict:
    """The JSON of `count` color-0 cups at N = 2 on the empty boundary, 35 bytes a cup."""
    return {"N": 2, "domain": [], "slices": [cup(0, 1).to_json()] * count}


def test_a_web_whose_walk_would_hold_too_many_factors_is_refused_as_it_is_stepped():
    # the boundary below the i-th cup has 2i factors: 2,000 cups store 3,998,000
    # of them in their walk, and 4,000 would store 15,996,000
    assert sum(len(space) for _, space, _ in Web.from_json(_cups(2000)).walk) == 3_998_000 <= MAX_WALK_FACTORS
    with pytest.raises(ValueError, match=f"slice 2048: .* the limit of {MAX_WALK_FACTORS} factors"):
        Web.from_json(_cups(4000))


def _peak_terms(web: Web, terms: dict, co: bool = False) -> int:
    """The most terms the map holds at any boundary of the walk, or of the co-walk."""
    peak = len(terms)
    for kind, space, s in web.walk:
        terms = qwebs_webs._co_step(kind, space, s, terms) if co else kind.act(space, s, terms)
        peak = max(peak, len(terms))
    return peak


@settings(deadline=None)
@given(composable_webs())
def test_work_bound_holds_every_image_and_co_image(web):
    full = {i: {0: 1} for i in basis_indices(web.domain)}
    for terms in [full] + [{i: c} for i, c in full.items()]:
        bound = check_work(web, len(terms))
        assert _peak_terms(web, terms) <= bound
        assert _peak_terms(web, terms, co=True) <= bound


def test_work_bound_passes_every_lt_ladder_web_of_the_sweeps():
    # no real traffic is refused: every LT ladder web of (3,2) and (2,4), and
    # of the all-ones blocks of (3,3) and (4,2), with room to spare
    count = 0
    for N, l, types in ((3, 2, None), (2, 4, None), (3, 3, [(1,) * 9]), (4, 2, [(1,) * 8])):
        for k in types or bounded_weights(N, N * l):
            for t, elem in lt_block(N, l, k).items():
                w = lt_web(elem)
                closed = {qwebs_webs._closed_key(w.domain): {0: 1}}
                bound = check_work(w, 1)
                assert _peak_terms(w, closed) <= bound <= MAX_TERMS // 50, t
                count += 1
    assert count == 2_310


def test_work_bound_refuses_a_web_past_the_limit_at_its_slice():
    assert check_work(ladder_from_word(4096, (4096, 0), [(-1, 1, 1)]), 1) == 4096
    for word in ([(-1, 1, 2)], [(-1, 1, 2), (1, 1, 2)]):
        with pytest.raises(ValueError, match=f"slice 0: .* than the limit of {MAX_TERMS}"):
            check_work(ladder_from_word(4096, (4096, 0), word), 1)
    # a cup of color a makes C(N, a) terms of each one
    cupped = Web(Boundary(4096, (Factor(0),)), (cup(2, 1),))
    with pytest.raises(ValueError, match="slice 0"):
        check_work(cupped, 1)
    # the bound is capped by the dimension of the boundary above, C(4, 2)^2
    # after each split, where 20 splits would make 6^20 terms of one
    assert check_work(ladder_from_word(4, (4, 0), [(-1, 1, 2), (1, 1, 2)] * 10), 1) == 36
    # and a slice that adds no term leaves it as it is
    assert check_work(ladder_from_word(4, (2, 2), [(1, 1, 0)]), 10**7) == 10**7


def test_work_bound_is_quick_on_a_wide_boundary_of_slices_that_add_no_term():
    # cups of color 0 and splits (2048, 0) multiply the bound by 1; the cap by
    # the boundary above stops at its first color-2048 factor, 4,090 bits,
    # instead of multiplying all 1,000 of them at each slice
    wide = Boundary(4096, (Factor(2048),) * 1000)
    for slices in (
        [cup(0, 1)] * 1000,  # in front of the wide factors
        [cup(0, 1001 + 2 * i) for i in range(1000)],  # behind them
        [split(2048, 0, 1000 + i) for i in range(1000)],
    ):
        web = Web(wide, tuple(slices))
        start = time.perf_counter()
        assert check_work(web, 2) == 2
        assert time.perf_counter() - start < 1.0
