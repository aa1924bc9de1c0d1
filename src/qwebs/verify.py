"""Relation and property sweeps.

Each checker returns a Report with a pass flag, a case count and the list of
failures (empty when green).  The CLI `verify` subcommand and the acceptance
test suite both drive these functions; everything is deterministic given the
seed.  A check passes its failure text as a template and arguments, so the
text is formatted only when the check fails.

Every sweep works on the kernels' one vector form, the `tensor.Terms` map: a
web's matrix is `webs.web_matrix`, {domain index: image map}, the tableau
action `howe.act_divided`, a pairing `bases.pairing`, and each linear
combination `_combine`.  A map does not name its space, so a check on webs
also compares their codomains.  A symmetry check compares a Gram or Cartan
entry with the form of its two maps summed another way, `_reversed_forms`.

The two cross-checks between routes compute each shared object once:

- `check_howe` works a shape at a time.  It enumerates the shape's tableaux
  once and tags the n-th: its packed key as key | n << N*m (the kernel reads
  and flips only bits below N*m, so the tag rides through and parts the image
  by tableau) and its tensor index as idx + (n,) (no slice kernel reads a
  trailing slot).  Each rung (sign, i, a) makes one `act_divided` call on
  every tagged key of the shape, and one ladder per type, run by
  `evaluate_dense` on the type's tagged indices; an annihilated ladder raises
  once per type and rung.  The tableau image, read to tagged indices through
  one key -> index dict, must equal the union of the web images: one map
  comparison per rung, counted as one check per tableau.  On a mismatch the
  failing tableaux are the tags on the keys of one difference map, that
  reading minus the web images, in the same space, and the failures are
  listed type by type, then by rung and tableau.  `check_serre` tags the
  shape's keys the same way, so each of its relations is one map per (shape,
  sign, i, j), and finds its failures as the tags of one difference map too.
- `web_gram_mismatch` builds the web route's Gram matrix from a memo of the
  shape, `lt_web_images`, which `check_form_consistency` holds across the
  shape's blocks for the length of the sweep.  A tableau's LT ladder web is
  its parent's under the peel step with one rung on top, so its image of the
  closed vector is its parent's image walked through that one-rung web, and
  each tableau of the shape is walked once.  As an LT web has no tag, its
  image is also its co-image up to a power of v, the sum of its rungs'
  co-degrees; each entry is one `tensor.dot` of two images, as in
  `webs.web_form`.
- The relations sweep reads each distinct web's matrix once: the same
  ladder, digon or identity recurs across its checks.  The evaluator sweep
  reads each web's matrix in one dense walk and runs the state sum once per
  basis index.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from itertools import product

from .bases import GradedMatrix, dual_block, gram_matrix, lt_block, pairing
from .howe import act_divided, tableau_key, tableau_to_index, weight_of_type
from .ring import ONE, LaurentPoly, add_into, bar, qbinom, qnum
from .tableaux import Shape, enumerate_tableaux, highest_tableau, peel_memo, tableau_type
from .tensor import Boundary, Factor, Terms, _Table, _index_key, dot, weight_boundary
from .webalg import bounded_weights, cartan_matrix, frobenius_check
from .webs import (
    AnnihilatedError,
    Web,
    _closed_key,
    _co_degree,
    cap,
    cup,
    d_norm,
    evaluate_dense,
    evaluate_statesum,
    ladder_from_word,
    merge,
    rung,
    split,
    tag,
    web_matrix,
)


@dataclass
class Report:
    name: str
    cases: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """A sweep passes when it made at least one check and none failed."""
        return self.cases > 0 and not self.failures

    def check(self, ok: bool, message: str, *args) -> None:
        """Count one check; a failure records `message.format(*args)`."""
        self.cases += 1
        if not ok:
            self.failures.append(message.format(*args) if args else message)

    def summary(self) -> str:
        status = "pass" if self.passed else "FAIL"
        line = f"{status} {self.name}: {self.cases} checks"
        if self.failures:
            line += f", {len(self.failures)} failures; first: {self.failures[0]}"
        return line


# -- linear combinations on kernel maps ------------------------------------


def _combine(parts) -> Terms:
    """The sum of c * x over the (c, x) in `parts`, c a `LaurentPoly` and x a kernel map,
    added through `ring.add_into` into maps made here; a key that cancels is dropped."""
    out: Terms = {}
    for c, x in parts:
        for key, a in x.items():
            acc = out.setdefault(key, {})
            for e, b in c.items():
                add_into(acc, a, e, b)
            if not acc:
                del out[key]
    return out


def _matrix(web: Web) -> Terms:
    """A web's matrix as one map keyed by (domain index, image index)."""
    return {(idx, key): c for idx, image in web_matrix(web).items() for key, c in image.items()}


def _vanishes(parts, codomain: Boundary, matrices: _Table) -> bool:
    """Whether each web of `parts` ends on `codomain` and the sum of c * web over
    its (c, web) is the zero map.  The webs share a domain; each web's `_matrix`
    is read from `matrices`, and `Web(space)` is the identity."""
    return all(web.codomain == codomain for _, web in parts) and not _combine(
        [(c, matrices[web]) for c, web in parts])


def _ladder(N: int, k_start: tuple[int, ...], word) -> Web | None:
    """The ladder web of a word, or None when the word is annihilated."""
    try:
        return ladder_from_word(N, k_start, list(word))
    except AnnihilatedError:
        return None


# -- diagram relations --------------------------------------------------


def check_relations(N_max: int = 4) -> Report:
    rep = Report(f"diagram relations (N <= {N_max})")
    matrices = _Table(_matrix)  # one per distinct web of the sweep
    for N in range(2, N_max + 1):
        _check_tag_relations(rep, N, matrices)
        _check_digons(rep, N, matrices)
        _check_associativity(rep, N, matrices)
        _check_squares(rep, N, matrices)
    return rep


def _check_tag_relations(rep: Report, N: int, matrices: _Table) -> None:
    for a in range(N + 1):
        space = Boundary(N, (Factor(a),))
        left = Web(space, (tag(a, 1, "left"),))
        right = Web(space, (tag(a, 1, "right"),))
        sign = LaurentPoly({0: -1 if (a * (N - a)) % 2 else 1})
        rep.check(
            _vanishes([(ONE, left), (-sign, right)], left.codomain, matrices),
            "tag flavors differ beyond the sign at N={}, a={}", N, a,
        )
        # a tag followed by a tag of the same flavor undoes itself; the second
        # tag sits on the dual factor the first leaves, whose color it names
        for side in ("left", "right"):
            again = Web(space, (tag(a, 1, side), tag(a, 1, side)))
            rep.check(
                _vanishes([(ONE, again), (-ONE, Web(space))], space, matrices),
                "double {} tag is not the identity at N={}, a={}", side, N, a,
            )


def _check_digons(rep: Report, N: int, matrices: _Table) -> None:
    for a in range(N + 1):
        for b in range(N + 1 - a):
            space = Boundary(N, (Factor(a + b),))
            digon = Web(space, (split(a, b, 1), merge(a, b, 1)))
            rep.check(
                _vanishes([(ONE, digon), (-qbinom(a + b, a), Web(space))], space, matrices),
                "parallel digon fails at N={}, a={}, b={}", N, a, b,
            )
            # opposite orientation: a bubble of color b on an a-strand
            strand = Boundary(N, (Factor(a),))
            bubble = Web(
                strand,
                (
                    cup(N - b, 2),
                    tag(N - b, 3),
                    tag(b, 2),
                    merge(b, a, 1),
                    split(b, a, 1),
                    cap(b, 2),
                ),
            )
            rep.check(
                _vanishes([(ONE, bubble), (-qbinom(N - a, b), Web(strand))], strand, matrices),
                "opposite digon fails at N={}, a={}, b={}", N, a, b,
            )


def _check_associativity(rep: Report, N: int, matrices: _Table) -> None:
    for a in range(N + 1):
        for b in range(N + 1 - a):
            for c in range(N + 1 - a - b):
                # merges: (a b) c versus a (b c), strands left to right a, b, c
                space = Boundary(N, (Factor(c), Factor(b), Factor(a)))
                lhs = Web(space, (merge(a, b, 2), merge(a + b, c, 1)))
                rhs = Web(space, (merge(b, c, 1), merge(a, b + c, 1)))
                rep.check(
                    _vanishes([(ONE, lhs), (-ONE, rhs)], lhs.codomain, matrices),
                    "merge associativity fails at N={}, ({},{},{})", N, a, b, c,
                )
                whole = Boundary(N, (Factor(a + b + c),))
                lhs = Web(whole, (split(a + b, c, 1), split(a, b, 2)))
                rhs = Web(whole, (split(a, b + c, 1), split(b, c, 1)))
                rep.check(
                    _vanishes([(ONE, lhs), (-ONE, rhs)], lhs.codomain, matrices),
                    "split coassociativity fails at N={}, ({},{},{})", N, a, b, c,
                )


def _check_squares(rep: Report, N: int, matrices: _Table) -> None:
    for a in range(N + 1):
        for b in range(N + 1):
            k0 = (b, a)  # strand a on the left (upright 2), b on the right
            for s in range(4):  # s + t <= 3
                for t in range(4 - s):
                    # two same-direction rungs stack to a quantum binomial multiple
                    for sign in (+1, -1):
                        two = _ladder(N, k0, [(sign, 1, s), (sign, 1, t)])
                        one = _ladder(N, k0, [(sign, 1, s + t)])
                        if two is None or one is None:
                            continue
                        rep.check(
                            _vanishes([(ONE, two), (-qbinom(s + t, t), one)], two.codomain, matrices),
                            "parallel square fails at N={}, a={}, b={}, s={}, t={}, sign={}",
                            N, a, b, s, t, sign,
                        )
            for s in range(3):  # s, t <= 2
                for t in range(3):
                    try:  # the words index a map only when their net move is a rung
                        end = rung(N, b, a, +1, s - t) if s >= t else rung(N, b, a, -1, t - s)
                    except AnnihilatedError:
                        continue
                    # the word minus its reordered terms; an annihilated ladder is 0
                    lhs = _ladder(N, k0, [(+1, 1, s), (-1, 1, t)])
                    parts = [(ONE, lhs)] if lhs is not None else []
                    for r in range(0, min(s, t) + 1):
                        term = _ladder(N, k0, [(-1, 1, t - r), (+1, 1, s - r)])
                        if term is not None:
                            parts.append((-qbinom(a - b + t - s, r), term))
                    rep.check(
                        _vanishes(parts, weight_boundary(N, end), matrices),
                        "opposite square fails at N={}, a={}, b={}, s={}, t={}", N, a, b, s, t,
                    )


# -- evaluator equivalence ----------------------------------------------


def random_ladder(rng: random.Random, N: int, m: int, rungs: int) -> Web:
    """A random composable ladder on a random bounded weight."""
    while True:
        k = tuple(rng.randint(0, N) for _ in range(m))
        word = []
        cur = list(k)
        for _ in range(rungs):
            for _attempt in range(20):
                sign = rng.choice((+1, -1))
                i = rng.randint(1, m - 1)
                a = rng.randint(1, 2)
                try:
                    cur[i - 1], cur[i] = rung(N, cur[i - 1], cur[i], sign, a)
                except AnnihilatedError:
                    continue
                word.append((sign, i, a))
                break
            else:
                break  # no legal rung in 20 draws: start from a new weight
        else:
            return ladder_from_word(N, k, word)


def check_evaluators(cases: int = 100, seed: int = 2024, N_max: int = 3, m_max: int = 6) -> Report:
    rep = Report(f"evaluator equivalence ({cases} random ladders)")
    rng = random.Random(seed)
    for case in range(cases):
        N = rng.randint(2, N_max)
        m = rng.randint(2, m_max)
        web = random_ladder(rng, N, m, rungs=rng.randint(1, 4))
        for idx, image in web_matrix(web).items():  # one dense walk, one state sum per index
            same = image == evaluate_statesum(web, {idx: {0: 1}})
            rep.check(same, "evaluators disagree on case {} at index {}", case, None if same else _index_key(idx))
    return rep


# -- skew Howe consistency ----------------------------------------------


def check_howe(pairs=((2, 1), (2, 2), (3, 1), (3, 2)), a_max: int = 2) -> Report:
    rep = Report("ladder action matches the tableau action")
    one = {0: 1}
    for N, l in pairs:
        shape = Shape(N, l)
        tabs = enumerate_tableaux(shape)
        width = N * shape.m  # the bits of a key; the n-th tableau of the shape is tagged n << width
        index = {tableau_key(t): tableau_to_index(t) for t in tabs}  # packed key -> tensor index
        tagged = {key | n << width: one for n, key in enumerate(index)}
        by_type: dict = {}  # type -> the tagged indices of its tableaux, idx + (n,)
        for n, (t, idx) in enumerate(zip(tabs, index.values())):
            by_type.setdefault(tableau_type(t), {})[idx + (n,)] = one
        failures = [[] for _ in by_type]  # per type, in (rung, tableau) order
        for step in product(range(1, shape.m), (+1, -1), range(1, a_max + 1)):
            _howe_rung(shape, step, tabs, index, tagged, by_type, failures)
            rep.cases += len(tabs)
        rep.failures += [text for texts in failures for text in texts]
    return rep


def _howe_rung(shape: Shape, step, tabs, index, tagged, by_type, failures) -> None:
    """Compare both routes of the rung step = (i, sign, a) on every tableau of the
    shape at once, each failure going to its type's list in `failures`.

    The tableau image is read to tagged indices in place, with no copy: equal
    sizes and each term found in the web images is equality, as `index` is
    one-to-one and a key no tableau has reads as (n,), shorter than any index.
    On a mismatch the failing tableaux are the tags on the keys of one difference
    map: that reading, kept as `by_tab`, minus the web images.  `by_tab` is
    assigned, not summed, so two keys read as (n,) cannot cancel.
    """
    i, sign, a = step
    width = shape.N * shape.m
    low = (1 << width) - 1
    out = act_divided(shape, sign, i, a, tagged)
    ladders: dict = {}
    by_web: Terms = {}
    for k, indices in by_type.items():
        ladders[k] = web = _ladder(shape.N, k, [(sign, i, a)])
        if web is not None:
            by_web.update(evaluate_dense(web, indices))
    if len(by_web) == len(out) and all(
            by_web.get(index.get(key & low, ()) + (key >> width,)) == c for key, c in out.items()):
        return
    by_tab = {index.get(key & low, ()) + (key >> width,): c for key, c in out.items()}
    failed = {key[-1] for key in _combine([(ONE, by_tab), (-ONE, by_web)])}
    for (k, indices), texts in zip(by_type.items(), failures):
        what = "annihilated ladder but nonzero action" if ladders[k] is None else "routes disagree"
        texts += [f"{what} at {tabs[idx[-1]]}, sign={sign}, i={i}, a={a}" for idx in indices if idx[-1] in failed]


# -- dual canonical properties -------------------------------------------


def check_dual_blocks(pairs=((2, 1), (2, 2), (2, 3), (3, 1), (3, 2))) -> Report:
    rep = Report("dual canonical basis properties")
    for N, l in pairs:
        m = N * l
        for k in bounded_weights(N, m):
            duals = dual_block(lt_block(N, l, k))  # dual_block re-checks the invariants
            gram = gram_matrix(duals)
            for i, s in enumerate(gram.labels):
                for j, t in enumerate(gram.labels):
                    value = gram.entries[i][j]
                    # diagonal entries in 1 + vN[v], off-diagonal ones in vN[v]
                    target = value - ONE if i == j else value
                    rep.check(
                        not target
                        or (target.valuation() >= 1 and target.nonnegative_coeffs()),
                        "almost orthogonality fails at N={}, l={}, k={}, ({},{}): {}",
                        N, l, k, s, t, value,
                    )
            for t, elem in duals.items():
                for s, g in elem.beta:
                    rep.check(
                        bar(g) == g,
                        "correction not bar-invariant at N={}, l={}, {}->{}: {}", N, l, t, s, g,
                    )
    return rep


def lt_web_images(shape: Shape) -> dict:
    """A new memo of the web route for `tableaux.peel_memo`, {rows: (image, co-degree sum,
    weight)}, seeded with the closed key of the highest-weight boundary."""
    k = (shape.N,) * shape.l + (0,) * (shape.m - shape.l)
    return {highest_tableau(shape).rows: ({_closed_key(weight_boundary(shape.N, k)): {0: 1}}, 0, k)}


def _web_rung(N: int, parent: tuple, i: int, r: int) -> tuple:
    """A tableau's (image, co-degree sum, weight) from its parent's: the parent's image
    walked through the one-rung web of the peel step (i, r)."""
    image, shift, k = parent
    web = ladder_from_word(N, k, [(-1, i, r)])
    return (evaluate_dense(web, image), shift + sum(map(_co_degree, web.slices)),
            tuple(f.color for f in web.codomain.factors))


def web_gram_mismatch(gram: GradedMatrix, images: dict | None = None) -> str | None:
    """Recompute an LT Gram matrix by the web form of the LT ladder webs of its labels.

    A label's ladder web is its parent's with the rung of its peel step on
    top, so its image of the closed vector is its parent's image walked
    through that one rung; `images`, the web route's memo of the labels'
    shape (`lt_web_images`, a new one by default), holds each image with its
    web's co-degree sum and weight.  Each entry is one `tensor.dot` of two
    images times v^(d + the row's co-degree sum), the image being its own
    co-image up to that power of v, as an LT web has no tag.

    Returns the first entry where the web route disagrees with `gram`, or
    None when every entry agrees.
    """
    if not gram.labels:
        return None
    shape = gram.labels[0].shape
    if images is None:
        images = lt_web_images(shape)
    step = partial(_web_rung, shape.N)
    rows = [(image, d_norm(shape.N, shape.l, k) + shift)
            for image, shift, k in (peel_memo(images, t.rows, step) for t in gram.labels)]
    by_web = [[LaurentPoly(dot(co, image, shift)) for image, _ in rows] for co, shift in rows]
    for i, s in enumerate(gram.labels):
        for j, t in enumerate(gram.labels):
            if by_web[i][j] != gram.entries[i][j]:
                return (
                    f"web and tensor Gram entries disagree at ({s}, {t}): "
                    f"{by_web[i][j]} vs {gram.entries[i][j]}"
                )
    return None


def _reversed_forms(maps: list[Terms]) -> list[list[LaurentPoly]]:
    """The form of maps[i] and maps[j] at (i, j) and (j, i), i <= j, summed over the longer
    map (maps[j] on a tie), where `gram_matrix` pairs over the shorter (maps[i] on a tie)."""
    n = len(maps)
    out: list[list] = [[None] * n for _ in maps]
    for i, x in enumerate(maps):
        for j in range(i, n):
            long, short = (x, maps[j]) if len(x) > len(maps[j]) else (maps[j], x)
            acc: dict[int, int] = {}
            for k, cl in long.items():
                cs = short.get(k)
                if cs is not None:
                    for e, a in cl.items():
                        add_into(acc, cs, e, a)
            out[i][j] = out[j][i] = LaurentPoly({-e: a for e, a in acc.items()})
    return out


def check_form_consistency(pairs=((2, 1), (2, 2), (2, 3), (3, 1), (3, 2))) -> Report:
    """Gram entries by web evaluation versus tensor expansions, per block."""
    rep = Report("web form consistency")
    for N, l in pairs:
        m = N * l
        images = lt_web_images(Shape(N, l))  # the web route's memo, one per shape
        for k in bounded_weights(N, m):
            block = lt_block(N, l, k)
            gram = gram_matrix(block)
            mismatch = web_gram_mismatch(gram, images)
            rep.check(mismatch is None, mismatch or "")
            labels = gram.labels
            reversed_forms = _reversed_forms([block[s].terms for s in labels])
            for idx_s, s in enumerate(labels):
                diag = LaurentPoly()
                for c in block[s].terms.values():
                    c = LaurentPoly(c)
                    diag = diag + c * c
                rep.check(
                    gram.entries[idx_s][idx_s] == bar(diag),
                    "diagonal bilinear identity fails at N={}, l={}, k={}, {}", N, l, k, s,
                )
                for idx_t, t in enumerate(labels):
                    rep.check(
                        gram.entries[idx_s][idx_t] == reversed_forms[idx_s][idx_t],
                        "Gram symmetry fails at N={}, l={}, k={}, ({},{})", N, l, k, s, t,
                    )
    return rep


# -- Shapovalov adjointness ----------------------------------------------


def check_shapovalov(cases: int = 50, seed: int = 7, pairs=((2, 1), (2, 2), (3, 1))) -> Report:
    rep = Report(f"adjointness of raising and lowering ({cases} pairs)")
    rng = random.Random(seed)
    pool = []
    for N, l in pairs:
        m = N * l
        for k in bounded_weights(N, m):
            for i in range(1, m):
                up = list(k)
                up[i - 1] += 1
                up[i] -= 1
                if 0 <= up[i - 1] <= N and 0 <= up[i] <= N:
                    pool.append((N, l, tuple(k), tuple(up), i))
    done = 0
    while done < cases:
        N, l, k, up, i = rng.choice(pool)
        w_block = lt_block(N, l, k)
        u_block = lt_block(N, l, up)
        u = u_block[rng.choice(list(u_block))].terms
        w = w_block[rng.choice(list(w_block))].terms
        lam = weight_of_type(k)
        shape = Shape(N, l)
        lhs = pairing(act_divided(shape, -1, i, 1, u), w)
        rhs = pairing(u, act_divided(shape, +1, i, 1, w)).shift(1 + lam[i - 1])
        rep.check(
            lhs == rhs,
            "adjointness fails at N={}, l={}, k={}, i={}: {} vs {}", N, l, k, i, lhs, rhs,
        )
        done += 1
    return rep


# -- highest weight and commutator ----------------------------------------


def check_commutator(cases: int = 50, seed: int = 11, pairs=((2, 1), (2, 2), (3, 1), (3, 2))) -> Report:
    rep = Report("highest weight annihilation and commutator")
    for N, l in pairs:
        shape = Shape(N, l)
        top = {tableau_key(highest_tableau(shape)): {0: 1}}
        for i in range(1, shape.m):
            rep.check(
                not act_divided(shape, +1, i, 1, top),
                "raising does not kill the highest vector at N={}, l={}, i={}", N, l, i,
            )
    weights = {(N, l): bounded_weights(N, N * l) for N, l in pairs}
    rng = random.Random(seed)
    done = 0
    while done < cases:
        N, l = rng.choice(pairs)
        shape = Shape(N, l)
        k = rng.choice(weights[N, l])
        tableaux = enumerate_tableaux(shape, k)
        x = {tableau_key(t): {rng.randint(-2, 2): rng.randint(1, 3)}
             for t in rng.sample(tableaux, min(len(tableaux), 3))}
        i = rng.randint(1, shape.m - 1)
        lam = weight_of_type(k)
        raise_lower = act_divided(shape, +1, i, 1, act_divided(shape, -1, i, 1, x))
        lower_raise = act_divided(shape, -1, i, 1, act_divided(shape, +1, i, 1, x))
        rep.check(
            not _combine([(ONE, raise_lower), (-ONE, lower_raise), (-qnum(lam[i - 1]), x)]),
            "commutator is not [{}] at N={}, l={}, k={}, i={}", lam[i - 1], N, l, k, i,
        )
        done += 1
    return rep


def check_serre(pairs=((2, 2), (3, 1))) -> Report:
    """Degree-2 relation with middle coefficient +(v + v^-1), found empirically.

    One map carries every tableau of the shape, the n-th tagged key | n << N*m,
    so each (shape, sign, i, j) runs the relation's nine kernel calls once; the
    relation holds at a tableau when no key of the sum carries its tag.
    """
    rep = Report("degree-2 relation spot checks")
    two = LaurentPoly({1: 1, -1: 1})
    for N, l in pairs:
        shape = Shape(N, l)
        tabs = enumerate_tableaux(shape)
        width = N * shape.m
        x = {tableau_key(t) | n << width: {0: 1} for n, t in enumerate(tabs)}
        for sign in (+1, -1):
            for i, j in ((1, 2), (2, 1)):
                if max(i, j) > shape.m - 1:
                    continue

                def e(idx, terms, s=sign):
                    return act_divided(shape, s, idx, 1, terms)

                failed = {key >> width for key in _combine([
                    (ONE, e(i, e(i, e(j, x)))), (ONE, e(j, e(i, e(i, x)))), (-two, e(i, e(j, e(i, x))))])}
                for n, t in enumerate(tabs):
                    rep.check(
                        n not in failed,
                        "degree-2 relation fails at N={}, l={}, sign={}, i={}, j={}, {}",
                        N, l, sign, i, j, t,
                    )
    return rep


# -- algebra diagnostics ---------------------------------------------------


def check_cartan(N_max: int = 3, m_max: int = 6) -> Report:
    rep = Report("graded Cartan data")
    shapes = [
        (N, m // N)
        for N in range(2, N_max + 1)
        for m in range(N, m_max + 1)
        if m % N == 0
    ]
    for N, l in shapes:
        m = N * l
        for k in bounded_weights(N, m):
            cartan = cartan_matrix(N, k)
            frob = frobenius_check(N, k, cartan)
            g = frob.gorenstein
            rep.check(
                g == 2 * d_norm(N, l, k),
                "Gorenstein parameter mismatch at N={}, k={}", N, k,
            )
            n = len(cartan.labels)
            block = lt_block(N, l, k)  # the maps `cartan_matrix` pairs, in label order
            reversed_forms = _reversed_forms([block[t].terms for t in cartan.labels])
            for i in range(n):
                for j in range(n):
                    c = cartan.entries[i][j]
                    rep.check(
                        c.nonnegative_coeffs(),
                        "negative Cartan coefficient at N={}, k={}, ({},{}): {}", N, k, i, j, c,
                    )
                    rep.check(
                        c == reversed_forms[i][j],
                        "Cartan symmetry fails at N={}, k={}, ({},{})", N, k, i, j,
                    )
                    rep.check(
                        bar(c) == cartan.entries[j][i].shift(-g),
                        "graded duality fails at N={}, k={}, ({},{}): {}", N, k, i, j, c,
                    )
            rep.check(frob.passed, "Frobenius check fails at N={}, k={}", N, k)
    return rep
