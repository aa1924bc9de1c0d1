"""Basis vectors of the invariant web spaces.

For each semistandard tableau T the intermediate basis vector A^T is the
divided-power word from the peeling procedure applied to the highest-weight
vector.  Its expansion on column-strict tableaux is unitriangular with
nonnegative-coefficient Laurent polynomials below the leading term.

Every prefix of a reversed peel word is itself a reversed peel word, so
A^T = F_i^(r) A^peel(T) and the words of a block form a prefix tree.
`lt_block` walks that tree once, depth first, in the howe kernel's maps:
it keeps at most the maps of one root-to-leaf path, so each distinct prefix
runs its divided power once.  `lt_vector` is that walk, over any list of
semistandard labels of one shape.  Every vector is checked for its leading
1, triangularity (no key above its label's key, in the int order that is
the tableau order), nonnegative coefficients and keys of N fields of l bits
each as it is built.

Each element holds its vector as the kernel's map, {packed tableau key:
{exponent: int}} (`howe.tableau_key`), the form every `TableauVector`
holds; the corrections and the Gram pairings add up on these maps through
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
different blocks vanish, so blocks are computed and cached independently.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .howe import act_divided, check_key_bits, key_columns, tableau_key
from .ring import LaurentPoly, add_into, bar, symmetrize_correction
from .tableaux import Shape, Tableau, check_request, enumerate_tableaux, highest_tableau, peel_word
from .tensor import Terms, dot
from .webs import Web, ladder_from_word


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


def lt_vector(shape: Shape, labels: list[Tableau]) -> dict[Tableau, LTBasisElement]:
    """The LT vectors of `labels`, keyed in their order, from one walk of the peel tree.

    The reversed peel words of the labels are visited in sorted order, so
    each word shares its longest common prefix with its neighbours.  `path[d]`
    is the kernel map after the first d divided powers of the current word,
    kept only as deep as the next word shares it; only the pairs past the
    prefix shared with the previous word are applied.  Each vector keeps its
    map.  A move flips one set and one clear bit, adjacent in one field, so
    the columns of the keys the kernel makes stay strictly increasing with
    entries in 1..m; each distinct key of the walk is checked once for no
    bits past its N fields and l bits in every field.
    """
    checked: set[int] = set()
    walk = sorted((tuple(peel_word(t))[::-1], n) for n, t in enumerate(labels))
    shared = [0] + [_common_prefix(a, b) for (a, _), (b, _) in zip(walk, walk[1:])] + [0]
    path = [{tableau_key(highest_tableau(shape)): {0: 1}}]
    out: list = [None] * len(labels)
    for j, (rword, n) in enumerate(walk):
        terms = path[-1]  # path holds depths 0..shared[j]
        for d in range(shared[j], len(rword)):
            terms = act_divided(shape, -1, *rword[d], terms)
            if d < shared[j + 1]:
                path.append(terms)
        del path[shared[j + 1] + 1 :]
        t = labels[n]
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
        out[n] = LTBasisElement(t, terms, rword[::-1])
    return dict(zip(labels, out))


def _check_key(shape: Shape, key: int, t: Tableau) -> None:
    """Refuse a term's key in the vector of t with bits past its N fields, or
    a field of other than l bits, a column of other than l entries."""
    N, l, m = shape.N, shape.l, shape.m
    if key >> N * m:
        raise InvariantViolationError(f"term {key:#x} of the vector of {t} has more than {N} columns")
    field = (1 << m) - 1
    if any((key >> p & field).bit_count() != l for p in range(0, N * m, m)):
        col = next(c for c in key_columns(shape, key) if len(c) != l)
        raise InvariantViolationError(f"term {key:#x} of the vector of {t}: "
                                      f"{col} is not a column of shape ({N}, {l})")


def _common_prefix(a: tuple, b: tuple) -> int:
    """The length of the longest common prefix of two words."""
    n = 0
    for x, y in zip(a, b):
        if x != y:
            break
        n += 1
    return n


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


@cache
def dual_block(N: int, l: int, ktype: tuple[int, ...]) -> dict[Tableau, DualCanonicalElement]:
    """All dual canonical elements of one type, labelled as `lt_block` labels them."""
    block = lt_block(N, l, ktype)
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


def lt_web(elem: LTBasisElement) -> Web:
    """The ladder web of an LT vector: its peel word glued bottom-up."""
    shape = elem.tableau.shape
    k_start = (shape.N,) * shape.l + (0,) * (shape.m - shape.l)
    word = [(-1, i, r) for i, r in reversed(elem.word)]
    return ladder_from_word(shape.N, k_start, word)


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


def gram_matrix(N: int, l: int, ktype: tuple[int, ...], basis: str = "lt") -> GradedMatrix:
    """Gram matrix of a basis of one type block, from the tensor expansions.

    Each entry is `pairing` of two basis vectors, taken on their maps,
    once per unordered pair: the form is symmetric, so (j, i) holds the same
    immutable `LaurentPoly` as (i, j).  For the LT basis the same entries are
    the web forms of the ladder webs (`lt_web`); `qwebs verify --form` checks
    every ordered pair of that second route against this one.
    """
    if basis == "lt":
        block = lt_block(N, l, ktype)
    elif basis == "dual":
        block = dual_block(N, l, ktype)
    else:
        raise ValueError(f"unknown basis {basis!r}")
    labels = tuple(block)
    maps = [block[t].terms for t in labels]
    n = len(maps)
    entries: list[list] = [[None] * n for _ in maps]
    for i, x in enumerate(maps):
        for j in range(i, n):
            entries[i][j] = entries[j][i] = pairing(x, maps[j])
    return GradedMatrix(labels, tuple(map(tuple, entries)))
