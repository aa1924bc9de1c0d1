"""Failures in the verify sweeps are still found and reported with their text."""

from qwebs import bases, verify
from qwebs.bases import GradedMatrix, gram_matrix, lt_block
from qwebs.cli import main
from qwebs.howe import key_columns, tableau_key
from qwebs.ring import ONE, LaurentPoly
from qwebs.tableaux import Shape, Tableau, highest_tableau
from qwebs.verify import Report, check_howe, web_gram_mismatch
from qwebs.webs import AnnihilatedError, rung



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


def _wrong_once(monkeypatch, case, wrong):
    """Make the tableau route return `wrong(terms, out)` for one (tableau, sign, i, a)."""
    t, *rung = case

    def maybe_wrong(sign, i, a, terms, out):
        return wrong(terms, out) if list(terms) == [tableau_key(t)] and [sign, i, a] == rung else out

    _patch_kernel(monkeypatch, maybe_wrong)


def test_howe_reports_the_one_wrong_route(monkeypatch):
    pairs = ((2, 2),)
    clean = check_howe(pairs)
    assert clean.passed
    t = highest_tableau(Shape(2, 2))
    _wrong_once(monkeypatch, (t, -1, 2, 1),
                lambda terms, out: {k: {e: 2 * c for e, c in p.items()} for k, p in out.items()})
    rep = check_howe(pairs)
    assert rep.cases == clean.cases
    assert rep.failures == ["routes disagree at 11/22, sign=-1, i=2, a=1"]


def test_howe_reports_a_nonzero_action_on_an_annihilated_ladder(monkeypatch):
    pairs = ((2, 2),)
    clean = check_howe(pairs)
    t = highest_tableau(Shape(2, 2))
    _wrong_once(monkeypatch, (t, 1, 1, 1), lambda terms, out: terms)
    rep = check_howe(pairs)
    assert rep.cases == clean.cases
    assert rep.failures == ["annihilated ladder but nonzero action at 11/22, sign=1, i=1, a=1"]


def test_howe_catches_a_shifted_exponent_for_one_rung(monkeypatch):
    pairs = ((2, 2),)
    clean = check_howe(pairs)
    _patch_kernel(monkeypatch, lambda sign, i, a, terms, out: (
        {k: {e + 1: c for e, c in p.items()} for k, p in out.items()} if (i, sign) == (2, -1) else out))
    rep = check_howe(pairs)
    assert rep.cases == clean.cases and rep.failures
    assert all(f.startswith("routes disagree at ") and ", sign=-1, i=2, a=" in f for f in rep.failures)


def test_howe_catches_a_nonzero_map_for_every_annihilated_ladder(monkeypatch):
    pairs = ((2, 2),)
    clean = check_howe(pairs)

    def annihilated(sign, i, a, terms):
        (key,) = terms  # one tableau: its entries i and i+1 are the rung's weight entries
        left, right = (sum(col.count(x) for col in key_columns(Shape(2, 2), key)) for x in (i, i + 1))
        try:
            rung(2, left, right, sign, a)
        except AnnihilatedError:
            return True
        return False

    _patch_kernel(monkeypatch, lambda sign, i, a, terms, out: (
        terms if annihilated(sign, i, a, terms) else out))
    rep = check_howe(pairs)
    assert rep.cases == clean.cases and rep.failures
    assert all(f.startswith("annihilated ladder but nonzero action at ") for f in rep.failures)


def test_howe_reports_a_web_image_off_the_tableaux_as_a_failed_check(monkeypatch):
    # a route bug that sends the web image to an index no tableau has is a
    # disagreement of the routes, not bad input
    pairs = ((2, 1),)
    clean = check_howe(pairs)
    real = verify.evaluate_dense
    monkeypatch.setattr(verify, "evaluate_dense", lambda web, terms: {
        (key[0], key[0]) + key[2:]: c for key, c in real(web, terms).items()})
    rep = check_howe(pairs)
    assert rep.cases == clean.cases and rep.failures
    assert all(f.startswith("routes disagree at ") for f in rep.failures)
    assert main(["verify", "--howe"]) == 3


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
    block = lt_block(3, 2, (0, 1, 1, 1, 1, 2))
    assert web_gram_mismatch(gram, block) is None
    rows = [list(r) for r in gram.entries]
    rows[1][2] = rows[1][2] + ONE
    corrupted = GradedMatrix(gram.labels, tuple(tuple(r) for r in rows))
    assert web_gram_mismatch(corrupted, block) == (
        "web and tensor Gram entries disagree at (235/466, 234/566): "
        "v^9 + 3v^7 + 4v^5 + 3v^3 + v vs v^9 + 3v^7 + 4v^5 + 3v^3 + v + 1"
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
    assert all(f.startswith("evaluators disagree on case 0 at TensorVector[(1) ((") for f in rep.failures)


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
    # would cancel; this one shifts only the images of maps with several terms
    clean = verify.check_serre()
    assert clean.passed
    _patch_kernel(monkeypatch, lambda sign, i, a, terms, out: (
        _shifted(out) if i == 1 and len(terms) > 1 else out))
    rep = verify.check_serre()
    assert rep.cases == clean.cases and rep.failures
    assert all(f.startswith("degree-2 relation fails at ") for f in rep.failures)
