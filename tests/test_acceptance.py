"""Acceptance criteria, one test per criterion.

Each test prints a single pass/fail line (visible with `pytest -s`); the
sweeps run at the full advertised scale, so this module is the slow part of
the suite.
"""

import time

from qwebs.bases import dual_block, lt_block
from qwebs.ring import ONE, LaurentPoly
from qwebs.tableaux import Shape, Tableau
from qwebs.verify import (
    check_cartan,
    check_commutator,
    check_dual_blocks,
    check_evaluators,
    check_form_consistency,
    check_howe,
    check_relations,
    check_serre,
    check_shapovalov,
)

from helpers import expansion, polys

fs = frozenset


def report(number, title, rep, t0):
    status = "PASS" if rep.passed else "FAIL"
    print(f"criterion {number} [{title}]: {status} "
          f"({rep.cases} checks, {time.time() - t0:.1f}s)")
    assert rep.passed, rep.failures[:3]


def test_criterion_1_known_vector_reproduction():
    t0 = time.time()
    ok = True
    # two strands of color 1: coefficients 1, v^-1
    d1 = dual_block(lt_block(2, 1, (1, 1)))[Tableau(Shape(2, 1), ((1, 2),))]
    got1 = {t.rows[0]: c for t, c in polys(expansion(d1)).items()}
    ok &= got1 == {(1, 2): ONE, (2, 1): LaurentPoly({-1: 1})}
    ok &= d1.beta == ()
    # strands of colors 2 and 1 at N=3: coefficients 1, v^-1, v^-2
    d2 = dual_block(lt_block(3, 1, (2, 1, 0)))[Tableau(Shape(3, 1), ((1, 1, 2),))]
    got2 = {t.rows[0]: c for t, c in polys(expansion(d2)).items()}
    ok &= got2 == {
        (1, 1, 2): ONE,
        (1, 2, 1): LaurentPoly({-1: 1}),
        (2, 1, 1): LaurentPoly({-2: 1}),
    }
    elapsed = time.time() - t0
    status = "PASS" if ok and elapsed < 1.0 else "FAIL"
    print(f"criterion 1 [known small dual canonical vectors]: {status} ({elapsed:.2f}s)")
    assert ok
    assert elapsed < 1.0


def test_criterion_2_spider_relations():
    t0 = time.time()
    rep = check_relations(N_max=4)
    report(2, "spider relations, N <= 4", rep, t0)
    assert time.time() - t0 < 120


def test_criterion_3_evaluator_equivalence():
    t0 = time.time()
    rep = check_evaluators(cases=100, seed=2024, N_max=3, m_max=6)
    report(3, "evaluator equivalence, 100 seeded ladders", rep, t0)
    assert time.time() - t0 < 120


def test_criterion_4_skew_howe_consistency():
    t0 = time.time()
    rep = check_howe(pairs=((2, 1), (2, 2), (3, 1), (3, 2)), a_max=2)
    report(4, "skew Howe consistency", rep, t0)
    assert time.time() - t0 < 180


def test_criterion_5_dual_canonical_properties():
    t0 = time.time()
    rep = check_dual_blocks(pairs=((2, 1), (2, 2), (2, 3), (3, 1), (3, 2)))
    report(5, "dual canonical properties", rep, t0)
    assert time.time() - t0 < 300


def test_criterion_6_form_consistency():
    t0 = time.time()
    rep = check_form_consistency(pairs=((2, 1), (2, 2), (2, 3), (3, 1), (3, 2)))
    report(6, "bilinear form consistency", rep, t0)


def test_criterion_7_shapovalov_adjointness():
    t0 = time.time()
    rep = check_shapovalov(cases=50, seed=7, pairs=((2, 1), (2, 2), (3, 1), (3, 2)))
    report(7, "adjointness of raising and lowering", rep, t0)


def test_criterion_8_algebra_diagnostics():
    # Cartan symmetry holds as C_ST = C_TS together with the graded duality
    # bar(C_ST) = v^(-2d) C_TS; the untwisted bar-symmetry asked for in the
    # criterion text contradicts the derived rank-one value v^2 + 1 and is
    # recorded as a strict expected failure in test_webalg.py.
    t0 = time.time()
    rep = check_cartan(N_max=3, m_max=6)
    report(8, "algebra diagnostics (graded symmetry)", rep, t0)
    assert time.time() - t0 < 120


def test_criterion_9_highest_weight_and_commutator():
    t0 = time.time()
    rep = check_commutator(cases=50, seed=11)
    report(9, "highest weight and commutator", rep, t0)


def test_serre_spot_checks_supplement():
    # not numbered in the acceptance list, but pins the empirical sign choice
    t0 = time.time()
    rep = check_serre()
    report("S", "degree-2 relation sign", rep, t0)
