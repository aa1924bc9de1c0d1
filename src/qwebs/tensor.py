"""Standard bases of tensor products of fundamental SL(N) representations.

A boundary is an ordered list of factors, each a fundamental representation
(exterior power of color 0..N) or its dual.  Slot 1 is the RIGHTMOST tensor
factor; all position arguments use this numbering, so a pair written
x_S (x) x_T in the mathematical order has S at the higher slot.

Basis vectors are indexed per factor by subsets of {1..N}: a plain factor of
color a by a-subsets (decreasing-order wedges of standard vectors), a dual
factor of color c by the c-subsets indexing the dual basis.  An index is a
tuple of bitmasks, slot 1 first, where bit j-1 of a mask stands for j.

Every vector, here and in `howe`, is one sparse map {key: {exponent: int}}
(`Terms`): no coefficient is zero and no inner map is empty.  The kernels
act on the maps directly, and linear combinations are made on them through
`ring.add_into`.  `LaurentPoly` is the scalar type: `LaurentPoly(terms[key])`
is one.  A map on a boundary meets JSON only at the command-line edge:
`read_tensor_vector` reads a vector's JSON to (boundary, map), with every
check of its subsets and indices, and `tensor_vector_json` writes it back.

The elementary intertwiners implemented here, with their local coefficients:

  merge  (a,b):  x_S (x) x_T  ->  v^len(T,S) x_{S u T}   (0 unless disjoint)
  split  (a,b):  x_S  ->  sum_T v^-len(T, S-T) x_T (x) x_{S-T},  |T| = a
  tag    (a):    x_S  ->  v^len(S^c, S) xhat_{S^c}        (left flavor)
                 the right flavor carries the extra sign (-1)^(a(N-a));
                 on a dual factor a tag applies the corresponding inverse
  cup    (a):    1 -> sum_S x_S (x) xhat_S  (plain at the left slot)
  cap    (a):    xhat_S (x) x_T -> delta_{S,T}

where len(S,T) counts pairs i in S, j in T with i < j.  The merge coefficient
attaches v^len(T,S) with S the left input; this choice is pinned down by the
known expansions of the small invariant vectors (see tests).

The kernels (`merge_kernel`, `split_kernel`, `tag_kernel`, `cup_kernel`,
`cap_kernel`) act on a vector's map.  len on masks is read from one table
per N, filled by bit operations when a pair is first read, and the (S - T,
T, exponent) list of each split from one table per (N, a), keyed by S.  A
barred tag is the one co-kernel of `webs` that is no multiple of a kernel,
and `dot` sums the products of two maps' coefficients over their common
keys.  `webs` runs a whole slice list on one map, and `apply_merge` and its
siblings run one slice on a `Vector`, the (space, map) record the
benchmark's tracer reads.  `ell` on sets and `_subsets` serve the state-sum
reference in `webs` and share no code with the kernels.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache
from typing import Callable, NamedTuple

from .ring import LaurentPoly, add_into, exact_int
from .tableaux import Shape


class ShapeMismatchError(ValueError):
    """Raised when an operation does not fit the boundary at the given slot."""


@dataclass(frozen=True)
class Factor:
    color: int
    dual: bool = False

    def to_json(self) -> dict:
        return {"color": self.color, "dual": self.dual}

    @classmethod
    def from_json(cls, data: dict) -> "Factor":
        dual = data.get("dual", False)
        if type(dual) is not bool:
            raise ValueError(f"factor dual must be a boolean, got {dual!r}")
        return cls(exact_int(data["color"], "factor color"), dual)


# The largest N of a boundary: far above the N <= 8 of any sweep, and small
# enough that the mask of 1..N takes a few hundred bytes.
MAX_N = 2**12


@dataclass(frozen=True)
class Boundary:
    """An ordered tensor boundary for 2 <= N <= MAX_N; factors[0] is slot 1 (rightmost)."""

    N: int
    factors: tuple[Factor, ...]

    def __post_init__(self):
        if not 2 <= self.N <= MAX_N:
            bound = ">= 2" if self.N < 2 else f"<= {MAX_N}"
            raise ValueError(f"invalid N={self.N}: a boundary needs N {bound}")
        _check_colors(self.N, self.factors)

    def __len__(self) -> int:
        return len(self.factors)

    def factor(self, pos: int) -> Factor:
        if not 1 <= pos <= len(self.factors):
            raise ShapeMismatchError(f"slot {pos} outside 1..{len(self.factors)}")
        return self.factors[pos - 1]

    def replace(self, pos: int, count: int, new: tuple[Factor, ...]) -> "Boundary":
        """Splice `new` over `count` factors starting at slot `pos`.

        Only `new` is checked: the factors kept were checked when this
        boundary was made.
        """
        _check_colors(self.N, new)
        fs = self.factors
        out = object.__new__(Boundary)
        object.__setattr__(out, "N", self.N)
        object.__setattr__(out, "factors", fs[: pos - 1] + new + fs[pos - 1 + count :])
        return out

    def to_json(self) -> list[dict]:
        return [f.to_json() for f in self.factors]

    @classmethod
    def from_json(cls, N: int, data: list[dict]) -> "Boundary":
        return cls(N, tuple(Factor.from_json(d) for d in data))


def _check_colors(N: int, factors: tuple[Factor, ...]) -> None:
    for f in factors:
        if not 0 <= f.color <= N:
            raise ValueError(f"factor color {f.color} outside 0..{N}")


_factor = cache(Factor)  # one shared `Factor` per (color, dual)


@cache
def weight_boundary(N: int, k: tuple[int, ...]) -> Boundary:
    """The plain boundary whose factor colors are the weight k, slot 1 first.

    Cached: a `Boundary` is immutable, and k must be a tuple.  The cached
    boundaries share their factors.
    """
    return Boundary(N, tuple(map(_factor, k)))


Index = tuple[int, ...]  # a bitmask per slot, slot 1 first

# A vector: {key: {exponent: int}}, keyed by an `Index` on a tensor boundary
# or by a packed tableau key (an int, `howe.tableau_key`) on a tableau shape.
# No coefficient is zero and no inner map is empty.  Inner maps are shared
# between vectors and kernels and never changed in place: a kernel hands an
# inner map on unchanged or adds up, through `ring.add_into`, only into maps
# it made itself, dropping a key whose map cancels to empty.  `split_kernel`
# and `howe.act_divided` hand on each unshifted map; `act_divided` adds a
# second move at one key into a copy, since the first may have been handed
# on.  A map is read from and written to JSON at the command-line edge:
# `read_tensor_vector` and `tensor_vector_json` here, `howe.read_tableau_vector`
# and `howe.terms_texts` for tableau maps.  Every kernel passes through
# untouched what lies beyond a key's own slots or bits: a slot after the
# boundary's last (a slice acts on slots 1..len(factors) of the boundary below
# it, and a cup inserts before the extra slot), and the bits of a packed key
# above its N*m (`act_divided` reads and flips only bits below them).  So one
# call can act on many inputs at once, each tagged there.  `webs.web_matrix`
# tags a web's domain indices so; `verify.check_howe` tags every tableau of a
# shape, its key and its index, and `verify.check_serre` its key.
Terms = dict[Index | int, dict[int, int]]


class Vector(NamedTuple):
    """A `Terms` map with the space its keys index, a `Boundary` or a tableau `Shape`.

    Only `apply_merge` and its siblings and `howe.act_E` take and return it:
    the benchmark's tracer wraps them by name and reads `.coords`.  It goes
    once the tracer reads counters.
    """

    space: Boundary | Shape
    coords: Terms


def ell(S, T) -> int:
    """Number of pairs (i, j) with i in S, j in T and i < j."""
    return sum(1 for i in S for j in T if i < j)


@cache
def _subsets(N: int, k: int) -> tuple[frozenset, ...]:
    return tuple(frozenset(c) for c in itertools.combinations(range(1, N + 1), k))


@cache
def _mask(S: frozenset) -> int:
    return sum(1 << (j - 1) for j in S)


@cache
def _subset(mask: int) -> frozenset:
    return frozenset(j + 1 for j in range(mask.bit_length()) if mask >> j & 1)


def _submasks(mask: int, a: int) -> list[int]:
    """The a-element subsets of a mask, in the order of `_subsets`."""
    bits = [1 << j for j in range(mask.bit_length()) if mask >> j & 1]
    return [sum(c) for c in itertools.combinations(bits, a)]


def basis_indices(space: Boundary) -> list[Index]:
    """All basis index tuples of the space, in a fixed deterministic order."""
    full = (1 << space.N) - 1
    return list(itertools.product(*(_submasks(full, f.color) for f in space.factors)))


def _index_key(idx: Index) -> tuple:
    """The members of each slot in descending order: the order of printed terms."""
    return tuple(tuple(sorted(_subset(S), reverse=True)) for S in idx)


def _check_index(space: Boundary, idx: Index) -> None:
    """Each mask of idx must be a color-sized subset of 1..N."""
    if len(idx) != len(space.factors):
        raise ShapeMismatchError(f"index has {len(idx)} subsets for {len(space.factors)} factors")
    for S, f in zip(idx, space.factors):
        if not 0 <= S < 1 << space.N or S.bit_count() != f.color:
            raise ShapeMismatchError(f"mask {S} is not a color-{f.color} subset of 1..{space.N}")


def read_tensor_vector(data: dict) -> tuple[Boundary, Terms]:
    """The boundary and map of a tensor vector's JSON, as `tensor_vector_json` writes it.

    Each subset is checked for repeated and out-of-range entries before it
    becomes a mask, and each index against the boundary; an index may appear
    once, and a term whose coefficient is zero is dropped.
    """
    space = Boundary.from_json(exact_int(data["N"], "N"), data["space"])
    terms: Terms = {}
    for term in data["terms"]:
        masks = []
        for s in term["subsets"]:
            entries = [exact_int(j, "subset entry") for j in s]
            if len(set(entries)) != len(entries) or not all(1 <= j <= space.N for j in entries):
                raise ShapeMismatchError(f"subset {sorted(entries)} is not a subset of 1..{space.N}")
            masks.append(_mask(frozenset(entries)))
        idx = tuple(masks)
        _check_index(space, idx)
        if idx in terms:
            raise ValueError(f"index {_index_key(idx)} appears twice")
        terms[idx] = dict(LaurentPoly.from_json(term["coeff"]).items())
    return space, {idx: c for idx, c in terms.items() if c}


def tensor_vector_json(space: Boundary, terms: Terms) -> dict:
    """The JSON of a map on a boundary: terms in ascending `_index_key` order, exponents ascending."""
    ordered = sorted(((_index_key(idx), c) for idx, c in terms.items()), key=lambda kc: kc[0])
    return {"N": space.N, "space": space.to_json(),
            "terms": [{"subsets": [list(s) for s in key], "coeff": sorted(c.items())} for key, c in ordered]}


def _expect(space: Boundary, pos: int, color: int, dual: bool) -> None:
    f = space.factor(pos)
    if f.color != color or f.dual != dual:
        want = f"{color}{'*' if dual else ''}"
        got = f"{f.color}{'*' if f.dual else ''}"
        raise ShapeMismatchError(f"slot {pos}: expected {want}, found {got}")


def merged_space(space: Boundary, a: int, b: int, pos: int) -> Boundary:
    _expect(space, pos, b, False)
    _expect(space, pos + 1, a, False)
    if a + b > space.N:
        raise ShapeMismatchError(f"merge color {a}+{b} exceeds N={space.N}")
    return space.replace(pos, 2, (_factor(a + b),))


def split_space(space: Boundary, a: int, b: int, pos: int) -> Boundary:
    _expect(space, pos, a + b, False)  # so a + b is a color of 0..N
    if a < 0 or b < 0:
        raise ShapeMismatchError(f"split colors ({a},{b}) invalid for N={space.N}")
    return space.replace(pos, 1, (_factor(b), _factor(a)))


def tag_space(space: Boundary, pos: int) -> Boundary:
    f = space.factor(pos)
    return space.replace(pos, 1, (_factor(space.N - f.color, not f.dual),))


def cup_space(space: Boundary, a: int, pos: int) -> Boundary:
    if not 1 <= pos <= len(space.factors) + 1:
        raise ShapeMismatchError(f"cup position {pos} outside 1..{len(space.factors)+1}")
    if not 0 <= a <= space.N:
        raise ShapeMismatchError(f"cup color {a} outside 0..{space.N}")
    return space.replace(pos, 0, (_factor(a, True), _factor(a)))


def cap_space(space: Boundary, a: int, pos: int) -> Boundary:
    lo, hi = space.factor(pos), space.factor(pos + 1)
    if lo.color != a or hi.color != a or lo.dual == hi.dual:
        raise ShapeMismatchError(
            f"cap needs a dual/plain color-{a} pair at slots {pos},{pos+1}"
        )
    return space.replace(pos, 2, ())


# -- the slice kernels ------------------------------------------------


class _Table(dict):
    """A map whose entry at a key is `fill(key)`, worked out when first read."""

    def __init__(self, fill: Callable):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


@cache
def _ell_table(N: int) -> _Table:
    """ell on the bitmask pairs of one N: the entry at S << N | T is ell(S, T)."""

    def fill(key: int) -> int:
        S, T = key >> N, key & ((1 << N) - 1)
        n = 0
        while S:
            low = S & -S  # the least element i left in S
            S ^= low
            n += (T & -(low << 1)).bit_count()  # the elements of T above i
        return n

    return _Table(fill)


@cache
def _split_table(N: int, a: int) -> _Table:
    """At a mask S: (S - T, T, -ell(T, S - T)) for each a-subset T of S."""
    tab = _ell_table(N)
    return _Table(lambda S: tuple((S ^ T, T, -tab[T << N | S ^ T]) for T in _submasks(S, a)))


def merge_kernel(N: int, terms: Terms, pos: int) -> Terms:
    """x_S (x) x_T -> v^len(T,S) x_{S u T}, S at slot pos+1 and T at slot pos."""
    tab = _ell_table(N)
    lo = pos - 1
    out: Terms = {}
    for key, c in terms.items():
        T, S = key[lo], key[pos]
        if S & T:
            continue
        shift = tab[T << N | S]
        key = key[:lo] + (S | T,) + key[pos + 1 :]
        acc = out.get(key)
        if acc is None:
            out[key] = {e + shift: x for e, x in c.items()}
        else:
            add_into(acc, c, shift)
            if not acc:
                del out[key]
    return out


def split_kernel(N: int, terms: Terms, a: int, pos: int) -> Terms:
    """x_S -> sum_T v^-len(T, S-T) x_T (x) x_{S-T}, |T| = a at slot pos+1.

    Distinct inputs give distinct outputs, so nothing is added up.
    """
    lo = pos - 1
    out: Terms = {}
    parts = _split_table(N, a)
    for key, c in terms.items():
        head, tail = key[:lo], key[pos:]
        for rest, T, shift in parts[key[lo]]:
            out[head + (rest, T) + tail] = {e + shift: x for e, x in c.items()} if shift else c
    return out


def tag_kernel(N: int, terms: Terms, pos: int, dual: bool, side: str, barred: bool = False) -> Terms:
    """x_S -> v^len(S^c, S) xhat_{S^c} on a plain factor, its inverse on a dual one.

    The right flavor multiplies by (-1)^(a(N-a)), and `barred` negates the
    exponent of each monomial the tag multiplies by.  A bijection on keys.
    """
    tab = _ell_table(N)
    full = (1 << N) - 1
    lo = pos - 1
    out: Terms = {}
    for key, c in terms.items():
        S = key[lo]
        comp = full ^ S
        shift = -tab[S << N | comp] if dual else tab[comp << N | S]
        if barred:
            shift = -shift
        sign = -1 if side == "right" and S.bit_count() * comp.bit_count() % 2 else 1
        out[key[:lo] + (comp,) + key[pos:]] = {e + shift: sign * x for e, x in c.items()}
    return out


def cup_kernel(N: int, terms: Terms, a: int, pos: int) -> Terms:
    """Insert sum_S x_S (x) xhat_S, |S| = a, with the plain factor at slot pos+1."""
    masks = _submasks((1 << N) - 1, a)
    lo = pos - 1
    return {key[:lo] + (S, S) + key[lo:]: dict(c) for key, c in terms.items() for S in masks}


def cap_kernel(terms: Terms, pos: int) -> Terms:
    """Contract the pair at slots pos, pos+1 by the delta of their indices."""
    lo = pos - 1
    out: Terms = {}
    for key, c in terms.items():
        if key[lo] == key[pos]:
            key = key[:lo] + key[pos + 1 :]
            acc = out.get(key)
            if acc is None:
                out[key] = dict(c)
            else:
                add_into(acc, c)
                if not acc:
                    del out[key]
    return out


def dot(x: Terms, y: Terms, shift: int = 0) -> dict[int, int]:
    """v^shift * sum_tau x[tau] * y[tau] over the common keys, summed over the shorter map."""
    if len(y) < len(x):
        x, y = y, x
    acc: dict[int, int] = {}
    for k, cx in x.items():
        cy = y.get(k)
        if cy is not None:
            for e, a in cx.items():
                add_into(acc, cy, e + shift, a)
    return acc


# One slice on a `Vector`: the boundary check, then the kernel.


def apply_merge(x: Vector, a: int, b: int, pos: int) -> Vector:
    """Wedge the factors at slots pos+1 (color a, left) and pos (color b)."""
    space = merged_space(x.space, a, b, pos)
    return Vector(space, merge_kernel(x.space.N, x.coords, pos))


def apply_split(x: Vector, a: int, b: int, pos: int) -> Vector:
    """Split the color-(a+b) factor at pos into a (slot pos+1) and b (slot pos)."""
    space = split_space(x.space, a, b, pos)
    return Vector(space, split_kernel(x.space.N, x.coords, a, pos))


def apply_tag(x: Vector, pos: int, side: str = "left") -> Vector:
    """Flip the factor at pos across the duality of exterior powers."""
    if side not in ("left", "right"):
        raise ValueError(f"unknown tag side {side!r}")
    space = tag_space(x.space, pos)
    return Vector(space, tag_kernel(x.space.N, x.coords, pos, x.space.factor(pos).dual, side))


def apply_cup(x: Vector, a: int, pos: int) -> Vector:
    """Insert sum_S x_S (x) xhat_S at the position (plain at slot pos+1)."""
    space = cup_space(x.space, a, pos)
    return Vector(space, cup_kernel(x.space.N, x.coords, a, pos))


def apply_cap(x: Vector, a: int, pos: int) -> Vector:
    """Contract the color-a pair at slots pos, pos+1 by delta of indices.

    The intertwiner pairing has the dual factor at the left slot; the
    opposite layout is accepted too and contracts by the same delta (the
    naive closure, whose round trip on a cup counts the a-subsets).
    """
    space = cap_space(x.space, a, pos)
    return Vector(space, cap_kernel(x.coords, pos))
