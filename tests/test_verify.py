"""Failures in the verify sweeps are still found and reported with their text."""

import pytest

from helpers import lt_web, reference_check_howe
from qwebs import bases, verify, webs
from qwebs.bases import GradedMatrix, gram_matrix, lt_block
from qwebs.cli import main
from qwebs.howe import key_columns, tableau_key
from qwebs.ring import ONE, LaurentPoly
from qwebs.tableaux import Shape, Tableau, enumerate_tableaux, highest_tableau
from qwebs.verify import Report, check_howe, web_gram_mismatch
from qwebs.webalg import bounded_weights
from qwebs.webs import AnnihilatedError, rung, web_form



class Unprintable:
    def __str__(self):
        raise AssertionError("failure text formatted for a passing check")


def test_report_formats_the_failure_text_only_on_failure():
    rep = Report("demo")
    rep.check(True, "never shown: {}", Unprintable())
    rep.check(False, "fails at N={}, k={}: {}", 2, (1, 1), LaurentPoly({1: 1}))
    rep.check(False, "literal {braces} are kept without arguments")
    assert rep.cases == 3
    assert rep.failures == [
        "fails at N=2, k=(1, 1): v",
        "literal {braces} are kept without arguments",
    ]


def _patch_kernel(monkeypatch, wrong):
    """Make the tableau route return `wrong(sign, i, a, terms, out)` in place of its map."""
    real = verify.act_divided

    def act_divided(shape, sign, i, a, terms):
        return wrong(sign, i, a, terms, real(shape, sign, i, a, terms))

    monkeypatch.setattr(verify, "act_divided", act_divided)


def _untagged(shape: Shape, terms) -> dict:
    """{tag: the map of the keys that carry it}, each key with its tag above the N*m bits cleared."""
    width = shape.N * shape.m
    out: dict = {}
    for key, c in terms.items():
        out.setdefault(key >> width, {})[key & (1 << width) - 1] = c
    return out


def _tagged(shape: Shape, parts: dict) -> dict:
    """The one map of {tag: map}, each key tagged above its N*m bits: `_untagged` undone."""
    width = shape.N * shape.m
    return {key | tag << width: c for tag, part in parts.items() for key, c in part.items()}


def _patch_per_tag(monkeypatch, wrong):
    """Make the tableau route return, for each tag of its input, `wrong(shape, sign, i, a,
    terms, out)` in place of that tag's part of the image; terms and out are that tag's
    parts of the input and the image, untagged."""
    def each_tag(shape, sign, i, a, terms):
        out = _untagged(shape, real(shape, sign, i, a, terms))
        for n, part in _untagged(shape, terms).items():
            out[n] = wrong(shape, sign, i, a, part, out.get(n, {}))
        return _tagged(shape, out)

    real = verify.act_divided
    monkeypatch.setattr(verify, "act_divided", each_tag)


def _wrong_once(monkeypatch, case, wrong) -> list:
    """Make the tableau route return `wrong(terms, out)` for one (tableau, sign, i, a).

    The route acts on every tableau of the shape at once, the n-th tagged n;
    only the part of the call's image that carries the tableau's tag is
    replaced.  Returns a list that gets (tag, keys in the call) for each call
    it changed.
    """
    t, *rung = case
    seen = []

    def maybe_wrong(sign, i, a, terms, out):
        by_tag = _untagged(t.shape, terms)
        tags = [n for n, part in by_tag.items() if list(part) == [tableau_key(t)]]
        if [sign, i, a] != rung or not tags:
            return out
        (n,) = tags
        seen.append((n, len(terms)))
        parts = _untagged(t.shape, out)
        parts[n] = wrong(by_tag[n], parts.get(n, {}))
        return _tagged(t.shape, parts)

    _patch_kernel(monkeypatch, maybe_wrong)
    return seen


def test_howe_reports_the_one_wrong_route(monkeypatch):
    pairs = ((2, 2),)
    clean = check_howe(pairs)
    assert clean.passed
    shape = Shape(2, 2)
    # the first of the shape's 36 tableaux, alone in its type, and the
    # eleventh, one of six of its type: each changed in the one call on all 36
    for t, position, message in (
        (highest_tableau(shape), (0, 36), "routes disagree at 11/22, sign=-1, i=2, a=1"),
        (Tableau(shape, ((1, 2), (3, 4))), (10, 36), "routes disagree at 12/34, sign=-1, i=2, a=1"),
    ):
        monkeypatch.undo()
        seen = _wrong_once(monkeypatch, (t, -1, 2, 1),
                           lambda terms, out: {k: {e: 2 * c for e, c in p.items()} for k, p in out.items()})
        rep = check_howe(pairs)
        assert seen == [position]
        assert rep.cases == clean.cases
        assert rep.failures == [message]


def test_howe_reports_a_nonzero_action_on_an_annihilated_ladder(monkeypatch):
    pairs = ((2, 2),)
    clean = check_howe(pairs)
    shape = Shape(2, 2)
    # the only tableau of its type, and the second of a type of two
    for t, position, message in (
        (highest_tableau(shape), (0, 36), "annihilated ladder but nonzero action at 11/22, sign=1, i=1, a=1"),
        (Tableau(shape, ((1, 1), (3, 2))), (6, 36),
         "annihilated ladder but nonzero action at 11/32, sign=1, i=1, a=1"),
    ):
        monkeypatch.undo()
        seen = _wrong_once(monkeypatch, (t, 1, 1, 1), lambda terms, out: terms)
        rep = check_howe(pairs)
        assert seen == [position]
        assert rep.cases == clean.cases
        assert rep.failures == [message]


def test_howe_catches_a_shifted_exponent_for_one_rung(monkeypatch):
    pairs = ((2, 2),)
    clean = check_howe(pairs)
    _patch_kernel(monkeypatch, lambda sign, i, a, terms, out: (
        {k: {e + 1: c for e, c in p.items()} for k, p in out.items()} if (i, sign) == (2, -1) else out))
    rep = check_howe(pairs)
    assert rep.cases == clean.cases and rep.failures
    assert all(f.startswith("routes disagree at ") and ", sign=-1, i=2, a=" in f for f in rep.failures)


def _annihilated(shape: Shape, sign: int, i: int, a: int, key: int) -> bool:
    """Whether the rung (sign, i, a) annihilates the ladder of the tableau of `key`,
    whose type's entries i and i+1 are the rung's weight."""
    left, right = (sum(col.count(x) for col in key_columns(shape, key)) for x in (i, i + 1))
    try:
        rung(shape.N, left, right, sign, a)
    except AnnihilatedError:
        return True
    return False


def test_howe_catches_a_nonzero_map_for_every_annihilated_ladder(monkeypatch):
    pairs = ((2, 2),)
    clean = check_howe(pairs)
    # each tag carries one tableau: its image is its input when its ladder is annihilated
    _patch_per_tag(monkeypatch, lambda shape, sign, i, a, terms, out: (
        terms if _annihilated(shape, sign, i, a, *terms) else out))
    rep = check_howe(pairs)
    assert rep.cases == clean.cases and rep.failures
    assert all(f.startswith("annihilated ladder but nonzero action at ") for f in rep.failures)


def test_howe_reports_a_web_image_off_the_tableaux_as_a_failed_check(monkeypatch):
    # a route bug that sends the web image to an index no tableau has is a
    # disagreement of the routes, not bad input
    pairs = ((2, 1),)
    clean = check_howe(pairs)
    real = verify.evaluate_dense  # which `check_howe` runs on keys tagged in a trailing slot
    monkeypatch.setattr(verify, "evaluate_dense", lambda web, terms: {
        (key[0], key[0]) + key[2:]: c for key, c in real(web, terms).items()})
    rep = check_howe(pairs)
    assert rep.cases == clean.cases and rep.failures
    assert all(f.startswith("routes disagree at ") for f in rep.failures)
    assert main(["verify", "--howe"]) == 3


# Faults of the tableau route that break several (type, rung) pairs, each a
# `_patch_per_tag` function of one tableau's key and image: a shifted
# exponent, an annihilated ladder's input handed back, a dropped image, and a
# key no tableau has.
_HOWE_FAULTS = {
    "shifted": lambda shape, sign, i, a, terms, out: (
        {k: {e + 1: c for e, c in p.items()} for k, p in out.items()}
        if min(terms) % 3 == 0 and (i == 1 or (sign, a) == (-1, 2)) else out),
    "handed-back": lambda shape, sign, i, a, terms, out: terms if (sign, i) == (1, 2) else out,
    "dropped": lambda shape, sign, i, a, terms, out: {} if min(terms) & 1 and a == 2 else out,
    "no-tableau": lambda shape, sign, i, a, terms, out: (
        {**out, 0: {0: 1}} if min(terms) % 5 == 1 and sign < 0 else out),
}


@pytest.mark.parametrize("fault", [*_HOWE_FAULTS, "web-off-the-tableaux"])
def test_howe_failures_match_the_per_group_reference_in_order(monkeypatch, fault):
    pairs = ((2, 2), (3, 1))
    if fault == "web-off-the-tableaux":
        real = webs.evaluate_dense

        def off(web, terms):  # the webs whose first strand has color 1 send their images off
            out = real(web, terms)
            if web.domain.factors[0].color != 1:
                return out
            return {(key[0], key[0]) + key[2:]: c for key, c in out.items()}

        for module in (verify, webs):  # `check_howe` and the reference's `web_matrix`
            monkeypatch.setattr(module, "evaluate_dense", off)
    else:
        _patch_per_tag(monkeypatch, _HOWE_FAULTS[fault])
    rep = check_howe(pairs)
    reference = reference_check_howe(pairs)
    assert rep.failures and len(rep.failures) < rep.cases
    assert (rep.cases, rep.failures) == (reference.cases, reference.failures)


def test_howe_makes_one_check_per_tableau_and_rung():
    rep = check_howe()
    assert rep.passed and rep.cases == 68164
    assert reference_check_howe(((2, 1), (2, 2), (3, 1), (3, 2))).cases == 68164


def test_dual_sweep_reports_a_negative_gram_coefficient(monkeypatch):
    # -v^2 + v has valuation 1, so only the sign test can see it
    pairs = ((2, 2),)
    clean = verify.check_dual_blocks(pairs)
    assert clean.passed
    shape = Shape(2, 2)
    gram = gram_matrix(2, 2, (1, 1, 1, 1), basis="dual")
    i = gram.labels.index(Tableau(shape, ((1, 3), (2, 4))))
    j = gram.labels.index(Tableau(shape, ((1, 2), (3, 4))))
    rows = [list(r) for r in gram.entries]
    rows[i][j] = LaurentPoly({1: 1, 2: -1})
    corrupted = GradedMatrix(gram.labels, tuple(tuple(r) for r in rows))

    def corrupt(N, l, k, basis="lt"):
        if (N, l, k, basis) == (2, 2, (1, 1, 1, 1), "dual"):
            return corrupted
        return gram_matrix(N, l, k, basis)

    monkeypatch.setattr(verify, "gram_matrix", corrupt)
    rep = verify.check_dual_blocks(pairs)
    assert rep.cases == clean.cases
    assert rep.failures == [
        "almost orthogonality fails at N=2, l=2, k=(1, 1, 1, 1), (13/24,12/34): -v^2 + v"
    ]


def test_web_gram_mismatch_names_the_corrupted_entry():
    gram = gram_matrix(3, 2, (0, 1, 1, 1, 1, 2))
    assert web_gram_mismatch(gram) is None
    rows = [list(r) for r in gram.entries]
    rows[1][2] = rows[1][2] + ONE
    corrupted = GradedMatrix(gram.labels, tuple(tuple(r) for r in rows))
    assert web_gram_mismatch(corrupted) == (
        "web and tensor Gram entries disagree at (235/466, 234/566): "
        "v^9 + 3v^7 + 4v^5 + 3v^3 + v vs v^9 + 3v^7 + 4v^5 + 3v^3 + v + 1"
    )


@pytest.mark.parametrize("N,l", [(2, 3), (3, 2)])
def test_web_route_memo_matches_the_whole_ladder_webs(N, l):
    # one memo for the shape, each image its parent's walked through one
    # rung, against each block's whole LT ladder webs walked from the closed vector
    images = verify.lt_web_images(Shape(N, l))
    for k in bounded_weights(N, N * l):
        block = lt_block(N, l, k)
        ws = [lt_web(e) for e in block.values()]
        by_webs = tuple(tuple(web_form(u, w) for w in ws) for u in ws)
        assert web_gram_mismatch(GradedMatrix(tuple(block), by_webs), images) is None, k
    assert len(images) == len(enumerate_tableaux(Shape(N, l), semistandard_only=True))


def test_web_gram_mismatch_names_the_entry_a_corrupted_image_breaks():
    gram = gram_matrix(3, 2, (0, 1, 1, 1, 1, 2))
    images = verify.lt_web_images(Shape(3, 2))
    assert web_gram_mismatch(gram, images) is None
    s, t = gram.labels[:2]
    image, shift, k = images[t.rows]
    images[t.rows] = {key: {e + 1: a for e, a in c.items()} for key, c in image.items()}, shift, k  # v * image
    assert web_gram_mismatch(gram, images) == (
        f"web and tensor Gram entries disagree at ({s}, {t}): "
        f"{gram.entries[0][1].shift(1)} vs {gram.entries[0][1]}"
    )


def test_evaluator_sweep_case_count_is_unchanged():
    # 415 cases, as counted when the state-sum route still validated every web twice
    rep = verify.check_evaluators(20, 3, 3, 6)
    assert rep.cases == 415 and not rep.failures


def test_evaluator_disagreement_names_the_input_vector(monkeypatch):
    real = verify.evaluate_statesum
    monkeypatch.setattr(verify, "evaluate_statesum", lambda web, x: {
        key: {e + 1: a for e, a in c.items()} for key, c in real(web, x).items()})
    rep = verify.check_evaluators(1, 3, 3, 6)
    assert rep.failures
    assert all(f.startswith("evaluators disagree on case 0 at index ((") for f in rep.failures)
    assert rep.failures[0] == "evaluators disagree on case 0 at index ((1,), (2, 1), (1,), (2, 1), (2, 1), ())"


def _mirrored_wrong(matrix: GradedMatrix, i: int, j: int, wrong: LaurentPoly) -> GradedMatrix:
    """`matrix` with the same wrong polynomial at (i, j) and (j, i)."""
    rows = [list(r) for r in matrix.entries]
    rows[i][j] = rows[j][i] = wrong
    return GradedMatrix(matrix.labels, tuple(map(tuple, rows)))


def test_cartan_sweep_reports_a_mirrored_wrong_entry(monkeypatch):
    # 2v^3 + 2v keeps the coefficients nonnegative, the graded duality and the
    # Frobenius check, so only the comparison with the reversed form sees it
    clean = verify.check_cartan(2, 4)
    assert clean.passed
    real = verify.cartan_matrix
    k0 = (1, 1, 1, 1)
    assert real(2, k0).entries[0][1] == LaurentPoly({3: 1, 1: 1})
    wrong = _mirrored_wrong(real(2, k0), 0, 1, LaurentPoly({3: 2, 1: 2}))
    monkeypatch.setattr(verify, "cartan_matrix", lambda N, k: wrong if (N, k) == (2, k0) else real(N, k))
    rep = verify.check_cartan(2, 4)
    assert rep.cases == clean.cases
    assert rep.failures == [
        "Cartan symmetry fails at N=2, k=(1, 1, 1, 1), (0,1)",
        "Cartan symmetry fails at N=2, k=(1, 1, 1, 1), (1,0)",
    ]


def test_form_sweep_reports_a_mirrored_wrong_gram_entry(monkeypatch):
    pairs = ((2, 2),)
    clean = verify.check_form_consistency(pairs)
    assert clean.passed
    real = verify.gram_matrix
    k0 = (1, 1, 1, 1)
    wrong = _mirrored_wrong(real(2, 2, k0), 0, 1, LaurentPoly({3: 2, 1: 2}))
    monkeypatch.setattr(verify, "gram_matrix", lambda N, l, k, basis="lt": (
        wrong if (N, l, k) == (2, 2, k0) else real(N, l, k, basis)))
    rep = verify.check_form_consistency(pairs)
    assert rep.cases == clean.cases
    assert [f for f in rep.failures if f.startswith("Gram symmetry")] == [
        "Gram symmetry fails at N=2, l=2, k=(1, 1, 1, 1), (13/24,12/34)",
        "Gram symmetry fails at N=2, l=2, k=(1, 1, 1, 1), (12/34,13/24)",
    ]



def test_cartan_sweep_sums_the_reversed_forms_apart_from_pairing(monkeypatch):
    # a pairing that leaves out the least key the two maps share is wrong the
    # same way in either order, so only a sum of its own can see it
    clean = verify.check_cartan(2, 4)
    assert clean.passed
    real = bases.pairing

    def dropping(x, y):
        common = x.keys() & y.keys()
        if not common:
            return real(x, y)
        least = min(common)
        return real({k: c for k, c in x.items() if k != least}, y)

    for module in (bases, verify):
        monkeypatch.setattr(module, "pairing", dropping)
    rep = verify.check_cartan(2, 4)
    assert rep.cases == clean.cases
    assert any(f.startswith("Cartan symmetry fails") for f in rep.failures)


def test_relation_sweep_fails_on_shifted_binomials(monkeypatch):
    clean = verify.check_relations(2)
    assert clean.passed
    real = verify.qbinom
    monkeypatch.setattr(verify, "qbinom", lambda n, k: real(n, k).shift(1))
    rep = verify.check_relations(2)
    assert rep.cases == clean.cases
    assert {f.split(" at ")[0] for f in rep.failures} == {
        "parallel digon fails", "opposite digon fails", "parallel square fails", "opposite square fails"}


def test_commutator_sweep_fails_on_shifted_quantum_numbers(monkeypatch):
    clean = verify.check_commutator()
    assert clean.passed
    real = verify.qnum
    monkeypatch.setattr(verify, "qnum", lambda z: real(z).shift(1))
    rep = verify.check_commutator()
    assert rep.cases == clean.cases and rep.failures
    assert all(f.startswith("commutator is not [") for f in rep.failures)


def _shifted(out):
    """The map times v."""
    return {k: {e + 1: c for e, c in p.items()} for k, p in out.items()}


def test_shapovalov_sweep_fails_on_a_shifted_lowering_at_one_index(monkeypatch):
    # a shift of both signs at i would cancel between the two sides
    clean = verify.check_shapovalov()
    assert clean.passed
    _patch_kernel(monkeypatch, lambda sign, i, a, terms, out: (
        _shifted(out) if (sign, i) == (-1, 1) else out))
    rep = verify.check_shapovalov()
    assert rep.cases == clean.cases and rep.failures
    assert all(f.startswith("adjointness fails at ") and ", i=1: " in f for f in rep.failures)


def test_serre_sweep_fails_on_a_shifted_sum_at_one_index(monkeypatch):
    # every term of the relation applies i twice, so a shift of every map at i
    # would cancel; this one shifts, tableau by tableau (one tag each), only the
    # images of maps with several terms
    clean = verify.check_serre()
    assert clean.passed
    _patch_per_tag(monkeypatch, lambda shape, sign, i, a, terms, out: (
        _shifted(out) if i == 1 and len(terms) > 1 else out))
    rep = verify.check_serre()
    assert rep.cases == clean.cases and rep.failures
    assert all(f.startswith("degree-2 relation fails at ") for f in rep.failures)


def test_serre_sweep_names_the_highest_tableau_when_its_sum_is_shifted(monkeypatch):
    # the sweep acts on every tableau of the shape at once, the n-th tagged n;
    # the highest tableau 11/22 is the first of (2, 2), tagged 0
    clean = verify.check_serre()
    shape = Shape(2, 2)
    real = verify.act_divided

    def act_divided(space, sign, i, a, terms):
        out = real(space, sign, i, a, terms)
        if space != shape or i != 1:
            return out
        parts = _untagged(shape, out)
        if len(_untagged(shape, terms).get(0, {})) > 1:
            parts[0] = _shifted(parts.get(0, {}))
        return _tagged(shape, parts)

    monkeypatch.setattr(verify, "act_divided", act_divided)
    rep = verify.check_serre()
    assert rep.cases == clean.cases
    assert rep.failures == [
        "degree-2 relation fails at N=2, l=2, sign=-1, i=2, j=1, 11/22",
    ]
