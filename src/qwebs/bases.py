"""Basis vectors of the invariant web spaces.

For each semistandard tableau T the intermediate basis vector A^T is the
divided-power word from the peeling procedure applied to the highest-weight
vector.  Its expansion on column-strict tableaux is unitriangular with
nonnegative-coefficient Laurent polynomials below the leading term.

One peeling step (`tableaux.peel`) takes T to its parent peel(T) and a pair
(i, r): A^T = F_i^(r) A^peel(T) and word(T) = (i, r) + word(peel(T)).
`lt_vector`, over any semistandard labels of one shape, fills and reads the
shape's memo, `lt_memo`, which holds by rows the howe kernel's map and the
word of every tableau reached so far; `lt_block` calls it once per block,
so each semistandard tableau is acted on once per shape.  The memo, a
functools cache, lives until it is cleared: `lt-basis` and
`dual-canonical` clear it once each block is walked, and the benchmark
before every op.  Every vector of a call is checked for its leading 1,
triangularity (no key above its label's key, in the int order that is the
tableau order), nonnegative coefficients and keys of N fields of l bits
each.

Each element holds its vector as the kernel's map, {packed tableau key:
{exponent: int}} (`howe.tableau_key`), the one vector form, which
`howe.terms_texts` writes and `howe.read_tableau_vector` reads; the
corrections and the Gram pairings add up on these maps through
`ring.add_into`.  `pairing` is the one form on such maps, the barred
`tensor.dot`.

The dual canonical element b^T is computed from the A-basis by triangular
elimination: scanning semistandard S below T in descending order, any
coefficient at S that fails the negative-exponent test is repaired by
subtracting the bar-symmetric part times A^S.  The recorded corrections
beta_ST are bar-invariant and the result satisfies the full negative
exponent property, also at non-semistandard tableaux; the final check in
`dual_canonical` turns that theorem into a runtime invariant, naming every
tableau that breaks it.

Everything is organized per (shape, type) block: coefficients between
different blocks vanish, so each block is computed on its own.  LT blocks
are cached (`lt_block`); a dual block (`dual_block`) or a Gram matrix
(`gram_matrix`) is made from the block handed in, and is not cached.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .howe import _column_ones, act_divided, check_key_bits, key_columns, tableau_key
from .ring import LaurentPoly, add_into, bar, symmetrize_correction
from .tableaux import (NotSemistandardError, Shape, Tableau, check_request, enumerate_tableaux,
                       highest_tableau, peel_memo)
from .tensor import Terms, dot


class InvariantViolationError(RuntimeError):
    """A structural invariant guaranteed by the theory failed at runtime."""


@dataclass(frozen=True)
class _BlockElement:
    """A vector of a block, held as the howe kernel's map."""

    tableau: Tableau
    terms: Terms


@dataclass(frozen=True)
class LTBasisElement(_BlockElement):
    word: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class DualCanonicalElement(_BlockElement):
    beta: tuple[tuple[Tableau, LaurentPoly], ...]


@cache
def lt_block(N: int, l: int, ktype: tuple[int, ...]) -> dict[Tableau, LTBasisElement]:
    """All LT vectors of one type, keyed by tableau (descending iteration order).

    The vectors range over the column-strict tableaux of the type, whose
    bound `check_key_bits` holds them to before any work; the labels are
    enumerated under the same bound.
    """
    shape = Shape(N, l)
    bound = check_request(shape, ktype)
    check_key_bits(shape, bound)
    return lt_vector(shape, enumerate_tableaux(shape, ktype, semistandard_only=True, bound=bound))


@cache
def lt_memo(shape: Shape) -> dict:
    """The shape's memo of `lt_vector`, {rows: (kernel map, peel word)}, seeded with
    the highest tableau's; it lives until `lt_memo.cache_clear()`."""
    top = highest_tableau(shape)
    return {top.rows: ({tableau_key(top): {0: 1}}, ())}


def lt_vector(shape: Shape, labels: list[Tableau]) -> dict[Tableau, LTBasisElement]:
    """The LT vectors of `labels`, keyed in their order, from the shape's memo.

    The memo, `lt_memo`, maps rows to (kernel map, peel word) and outlives
    the call, until `lt-basis` or `dual-canonical` clears it after a
    block's walk or the benchmark before an op.  `tableaux.peel_memo`
    peels a label up to its first ancestor in the memo and fills the chain
    back down, each map F_i^(r) of its parent's and each word (i, r)
    followed by its parent's, so each tableau is peeled and acted on once
    per shape, in any label order and across calls.  A move flips one set
    and one clear bit, adjacent in one field, so the kernel's keys keep
    strictly increasing columns with entries in 1..m; each distinct key of
    the call is checked once for no bits past its N fields and l bits in
    every field.
    """
    checked: set[int] = set()
    memo = lt_memo(shape)

    def step(parent, i, r):
        terms, word = parent
        return act_divided(shape, -1, i, r, terms), ((i, r),) + word

    out = {}
    for t in labels:
        if not t.is_semistandard():
            raise NotSemistandardError(f"not semistandard: {t}")
        terms, word = peel_memo(memo, t.rows, step)
        key = tableau_key(t)
        if terms.get(key) != {0: 1}:
            lead = LaurentPoly(terms.get(key, {}))
            raise InvariantViolationError(f"leading coefficient at {t} is {lead}")
        for k, c in terms.items():
            if k not in checked:
                _check_key(shape, k, t)
                checked.add(k)
            if k > key:
                tau = Tableau.from_columns(shape, key_columns(shape, k))
                raise InvariantViolationError(f"non-triangular term {tau} in the vector of {t}")
            if min(c.values()) < 0:
                tau = Tableau.from_columns(shape, key_columns(shape, k))
                raise InvariantViolationError(f"negative coefficient {LaurentPoly(c)} at {tau}")
        out[t] = LTBasisElement(t, terms, word)
    return out


def _check_key(shape: Shape, key: int, t: Tableau) -> None:
    """Refuse a term's key in the vector of t with bits past its N fields, or
    a field of other than l bits, a column of other than l entries.

    All fields are counted at once, in l rounds on the whole key: with
    `high` the top bit of each field and `low` the bits below it, a field of
    x is empty where ((x & low) + low | x) has no top bit; if none is,
    x & x - ones clears the lowest bit of every field, with no borrow.  The
    key passes if no round finds an empty field and x is then 0.
    """
    N, l, m = shape.N, shape.l, shape.m
    if key >> N * m:
        raise InvariantViolationError(f"term {key:#x} of the vector of {t} has more than {N} columns")
    ones = _column_ones(N, m)
    high = ones << m - 1
    low = high - ones
    x = key
    for _ in range(l):
        if ((x & low) + low | x) & high != high:
            break
        x &= x - ones
    else:
        if not x:
            return
    col = next(c for c in key_columns(shape, key) if len(c) != l)
    raise InvariantViolationError(f"term {key:#x} of the vector of {t}: "
                                  f"{col} is not a column of shape ({N}, {l})")


def dual_canonical(block: dict, labels: list[Tableau], keys: list, n: int) -> DualCanonicalElement:
    """b^T for T = labels[n], corrected on the block's maps (keys[n] is T's key)."""
    t, key = labels[n], keys[n]
    coords = dict(block[t].terms)  # its inner maps are replaced, never changed
    beta: list[tuple[Tableau, LaurentPoly]] = []
    for s, ks in zip(labels[n + 1 :], keys[n + 1 :]):  # s < t, descending
        c = coords.get(ks)
        if c is None or max(c) < 0:
            continue
        gamma = symmetrize_correction(LaurentPoly(c))
        g = list(gamma.items())
        for tau, ca in block[s].terms.items():
            acc = dict(coords.get(tau, ()))
            for e, a in g:
                add_into(acc, ca, e, -a)
            if acc:
                coords[tau] = acc
            else:
                del coords[tau]
        beta.append((s, -gamma))
    bad = {k: c for k, c in coords.items() if k != key and max(c) >= 0}
    if coords.get(key) != {0: 1}:  # the leading coefficient must be 1
        bad[key] = coords.get(key, {})
    if bad:
        found = tuple((Tableau.from_columns(t.shape, key_columns(t.shape, k)), LaurentPoly(bad[k]))
                      for k in sorted(bad, reverse=True))
        raise InvariantViolationError(f"negative exponent property fails for {t}: {found}")
    for s, g in beta:
        if bar(g) != g:
            raise InvariantViolationError(f"correction at {s} is not bar-invariant: {g}")
    return DualCanonicalElement(t, coords, tuple(beta))


def dual_block(block: dict[Tableau, LTBasisElement]) -> dict[Tableau, DualCanonicalElement]:
    """The dual canonical elements of an `lt_block`, labelled as it labels it; not cached."""
    labels = list(block)
    keys = [tableau_key(t) for t in labels]
    return {t: dual_canonical(block, labels, keys, n) for n, t in enumerate(labels)}


# -- the form and Gram/Cartan data -------------------------------------


def pairing(x: Terms, y: Terms) -> LaurentPoly:
    """The sesquilinear form of two vectors' maps, via their tensor coefficients.

    bar(sum_tau c^x_tau * c^y_tau) over the common keys, summed on ints over
    the shorter map, with bar taken once, at the end; valid for vectors
    fixed by the bar involution (all basis vectors here are).
    """
    return LaurentPoly({-e: a for e, a in dot(x, y).items()})


@dataclass(frozen=True)
class GradedMatrix:
    """Square array of Laurent polynomials over descending semistandard labels."""

    labels: tuple[Tableau, ...]
    entries: tuple[tuple[LaurentPoly, ...], ...]

    def to_json(self) -> dict:
        return {
            "labels": [t.to_json() for t in self.labels],
            "entries": [[p.to_json() for p in row] for row in self.entries],
        }


def gram_matrix(block: dict[Tableau, _BlockElement]) -> GradedMatrix:
    """Gram matrix of a block, an `lt_block` or a `dual_block`, from its maps.

    Each entry is `pairing` of two basis vectors, taken on their maps,
    once per unordered pair: the form is symmetric, so (j, i) holds the same
    immutable `LaurentPoly` as (i, j).  For an LT block the same entries are
    the web forms of the LT ladder webs; `qwebs verify --form` checks every
    ordered pair of that second route (`verify.web_gram_mismatch`) against
    this one.
    """
    labels = tuple(block)
    maps = [block[t].terms for t in labels]
    n = len(maps)
    entries: list[list] = [[None] * n for _ in maps]
    for i, x in enumerate(maps):
        for j in range(i, n):
            entries[i][j] = entries[j][i] = pairing(x, maps[j])
    return GradedMatrix(labels, tuple(map(tuple, entries)))
