"""Web diagrams as composable slice sequences, and their two evaluators.

A web is a domain boundary plus a bottom-to-top list of elementary slices
(merge, split, cup, cap, tag, identity).  Ladders are the tagless webs built
from rungs between adjacent uprights; they realize the generators of the
quantum special linear algebra acting across skew Howe duality, with color-0
uprights kept as explicit factors so slots stay stable.

Two independent evaluators, which the tests hold to agree on everything:
`evaluate_dense` runs the tensor module's slice kernels, bottom slice first,
on a kernel map of the web's domain (`eval` checks its vector's space);
`evaluate_statesum` walks the slices depth first through the edge-labelings
(states) of the web, labelled by frozensets, and adds one signed monomial per
state, from local rules that share no code with the dense kernels.  Both
take and return kernel maps.  Slice kinds are dispatched from one table,
`_SLICE_KINDS`.  A `Web` steps its slices through each kind's `step` once,
when it is made, and keeps the boundary below each slice (`walk`) and its
codomain: an ill-formed web cannot be built, a web whose walk would hold
more than `MAX_WALK_FACTORS` factors is refused as it is stepped, and every
reader runs on the stored walk.  `check_work` bounds, along the walk, the
terms an image can reach; the command line refuses a web over `MAX_TERMS`.
`web_matrix` makes the images of many basis vectors in one walk: each input
key carries its column in a trailing slot that no kernel reads.

Closed webs on the highest-weight boundary (color-N strands plus color-0
padding) span a one-dimensional space; `ev_closed` reads off the unique
coefficient.  `web_form` is the sesquilinear form v^d(k) * ev(reflect(u) o w),
where reflect(u) is u upside down with each slice mirrored.  No mirrored web
is built: the covector <closed| o reflect(u) is u's co-image, the run of u's
own walk through each slice's co-kernel, the transpose of the mirrored
slice's kernel.  Every co-kernel but a tag's is its slice's own kernel times
a power of v (`_co_degree`), and a tag's is the other side's tag barred; so
the co-walk runs each slice's kernel, or that tag, and the power goes into
the form: one co-walk of u, one walk of w and one sparse dot product of u's
co-image with w's image.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cache
from typing import Callable, NamedTuple

from .ring import LaurentPoly, add_into, exact_int
from .tensor import (
    Boundary,
    Index,
    ShapeMismatchError,
    Terms,
    _mask,
    _subset,
    _subsets,
    basis_indices,
    cap_kernel,
    cap_space,
    cup_kernel,
    cup_space,
    dot,
    ell,
    merge_kernel,
    merged_space,
    split_kernel,
    split_space,
    tag_kernel,
    tag_space,
    weight_boundary,
)


class IllFormedWebError(ShapeMismatchError):
    """A slice does not fit the boundary below it; carries the offending slice index."""

    def __init__(self, slice_index: int, message: str):
        super().__init__(f"slice {slice_index}: {message}")
        self.slice_index = slice_index


class AnnihilatedError(ValueError):
    """A ladder word pushed some weight entry outside 0..N (the action is zero)."""


@dataclass(frozen=True)
class Slice:
    kind: str  # merge | split | cup | cap | tag | id
    pos: int
    a: int = 0
    b: int = 0
    side: str = ""

    def __post_init__(self):
        if self.kind == "tag" and self.side == "":  # a tag with no side is a left tag
            object.__setattr__(self, "side", "left")

    def to_json(self) -> dict:
        d = {"kind": self.kind, "pos": self.pos}
        for name in _kind(self.kind).fields:
            d[name] = getattr(self, name)
        return d

    @classmethod
    def from_json(cls, d: dict) -> "Slice":
        """Inverse of to_json: each field the kind serializes is required, except a tag's side."""
        fields = [name for name in _kind(d["kind"]).fields if name != "side"]
        ints = {name: exact_int(d[name], f"slice {name}") for name in fields}
        return cls(d["kind"], exact_int(d["pos"], "slice pos"), side=d.get("side", ""), **ints)


def merge(a: int, b: int, pos: int) -> Slice:
    return Slice("merge", pos, a, b)


def split(a: int, b: int, pos: int) -> Slice:
    return Slice("split", pos, a, b)


def cup(a: int, pos: int) -> Slice:
    return Slice("cup", pos, a)


def cap(a: int, pos: int) -> Slice:
    return Slice("cap", pos, a)


def tag(a: int, pos: int, side: str = "left") -> Slice:
    return Slice("tag", pos, a, side=side)


# The most factors the boundaries of a web's walk may hold in all.  A web of
# 2,000 color-0 cups stores 3,998,000; one of 4,000 would store 15,996,000,
# 139 MB, before any work bound is checked.
MAX_WALK_FACTORS = 2**22


@dataclass(frozen=True)
class Web:
    """A domain boundary and its slices, bottom first, each fitting the boundary below it.

    Making a web steps every slice once and raises `IllFormedWebError` at the
    first that does not fit.  `walk` holds each slice's kind with the
    boundary below it and the slice; `codomain` is the boundary above the top.
    A web whose walk would hold more than MAX_WALK_FACTORS factors is refused
    as it is stepped, with a `ValueError`.
    """

    domain: Boundary
    slices: tuple[Slice, ...] = ()
    walk: tuple = field(init=False, compare=False, repr=False)
    codomain: Boundary = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        space, walk, stored = self.domain, [], 0
        for i, s in enumerate(self.slices):
            stored += len(space.factors)
            if stored > MAX_WALK_FACTORS:
                raise ValueError(f"slice {i}: the web's walk would store more than "
                                 f"the limit of {MAX_WALK_FACTORS} factors")
            above = _step(i, space, s)
            walk.append((_kind(s.kind), space, s))
            space = above
        object.__setattr__(self, "walk", tuple(walk))
        object.__setattr__(self, "codomain", space)

    def to_json(self) -> dict:
        return {
            "N": self.domain.N,
            "domain": self.domain.to_json(),
            "slices": [s.to_json() for s in self.slices],
        }

    @classmethod
    def from_json(cls, data: dict) -> "Web":
        dom = Boundary.from_json(exact_int(data["N"], "N"), data["domain"])
        return cls(dom, tuple(Slice.from_json(s) for s in data["slices"]))


def _tag_space(space: Boundary, s: Slice) -> Boundary:
    if s.side not in ("left", "right"):
        raise ShapeMismatchError(f"unknown tag side {s.side!r}")
    f = space.factor(s.pos)
    want = f.color if not f.dual else space.N - f.color
    if want != s.a:
        raise ShapeMismatchError(f"tag color {s.a} does not match slot {s.pos}")
    return tag_space(space, s.pos)


def _id_space(space: Boundary, s: Slice) -> Boundary:
    space.factor(s.pos)
    return space


# The state-sum rules: the labels below a slice (a frozenset per slot), on the
# boundary `space` below it, to each labeling above with its exponent and
# sign.  They restate the local coefficients of the tensor module's docstring.
Labels = tuple[frozenset, ...]


def _merge_states(space: Boundary, s: Slice, idx: Labels) -> list:
    S, T = idx[s.pos], idx[s.pos - 1]  # left, right
    return [] if S & T else [(idx[: s.pos - 1] + (S | T,) + idx[s.pos + 1 :], ell(T, S), 1)]


def _split_states(space: Boundary, s: Slice, idx: Labels) -> list:
    S = idx[s.pos - 1]
    return [(idx[: s.pos - 1] + (S - T, T) + idx[s.pos :], -ell(T, S - T), 1)
            for T in map(frozenset, itertools.combinations(sorted(S), s.a))]


def _tag_states(space: Boundary, s: Slice, idx: Labels) -> list:
    S = idx[s.pos - 1]
    comp = frozenset(range(1, space.N + 1)) - S
    exp = -ell(S, comp) if space.factor(s.pos).dual else ell(comp, S)
    sign = -1 if s.side == "right" and len(S) * len(comp) % 2 else 1
    return [(idx[: s.pos - 1] + (comp,) + idx[s.pos :], exp, sign)]


class _SliceKind(NamedTuple):
    """How one slice kind serializes, changes the boundary, acts and labels states.

    The co-kernel of a slice, the transpose of the kernel of the mirrored
    slice, is its own kernel times v^`_co_degree` for every kind but a tag,
    whose co-kernel is the other side's tag with its monomials barred
    (`_co_step`).
    """

    fields: tuple[str, ...]  # serialized after kind and pos
    step: Callable[[Boundary, Slice], Boundary]  # codomain, or ShapeMismatchError
    act: Callable[[Boundary, Slice, Terms], Terms]  # the kernel, given the boundary below
    states: Callable[[Boundary, Slice, Labels], list]  # [(labels above, exponent, sign)]


def _co_degree(s: Slice) -> int:
    """The degree of the co-kernel of a merge, split, cup, cap or id over its kernel:
    -ab for a merge, ab for a split, 0 for the rest.  A tag's co-kernel is no
    multiple of its kernel; its degree is 0 and `_co_step` bars it."""
    return ((s.kind == "split") - (s.kind == "merge")) * s.a * s.b


_SLICE_KINDS = {
    "merge": _SliceKind(("a", "b"), lambda space, s: merged_space(space, s.a, s.b, s.pos),
                        lambda space, s, t: merge_kernel(space.N, t, s.pos), _merge_states),
    "split": _SliceKind(("a", "b"), lambda space, s: split_space(space, s.a, s.b, s.pos),
                        lambda space, s, t: split_kernel(space.N, t, s.a, s.pos), _split_states),
    "cup": _SliceKind(("a",), lambda space, s: cup_space(space, s.a, s.pos),
                      lambda space, s, t: cup_kernel(space.N, t, s.a, s.pos),
                      lambda space, s, idx: [(idx[: s.pos - 1] + (S, S) + idx[s.pos - 1 :], 0, 1)
                                             for S in _subsets(space.N, s.a)]),
    "cap": _SliceKind(("a",), lambda space, s: cap_space(space, s.a, s.pos),
                      lambda space, s, t: cap_kernel(t, s.pos),
                      lambda space, s, idx: [(idx[: s.pos - 1] + idx[s.pos + 1 :], 0, 1)]
                      if idx[s.pos - 1] == idx[s.pos] else []),
    "tag": _SliceKind(("a", "side"), _tag_space,
                      lambda space, s, t: tag_kernel(space.N, t, s.pos, space.factor(s.pos).dual, s.side),
                      _tag_states),
    "id": _SliceKind((), _id_space, lambda space, s, t: t, lambda space, s, idx: [(idx, 0, 1)]),
}


def _kind(kind: str) -> _SliceKind:
    try:
        return _SLICE_KINDS[kind]
    except (KeyError, TypeError):  # TypeError: an unhashable kind from JSON
        raise ShapeMismatchError(f"unknown slice kind {kind!r}") from None


def _step(i: int, space: Boundary, s: Slice) -> Boundary:
    """The boundary above slice i, which must fit `space` below it."""
    try:
        return _kind(s.kind).step(space, s)
    except ShapeMismatchError as exc:
        raise IllFormedWebError(i, str(exc)) from exc


def validate(web: Web) -> Boundary:
    """The codomain boundary; every slice was checked when the web was made."""
    return web.codomain


# -- ladders ----------------------------------------------------------


def rung(N: int, left: int, right: int, sign: int, a: int) -> tuple[int, int]:
    """The entries (k_i, k_{i+1}) after the rung (sign, i, a) on (left, right).

    A +1 rung moves a units of color from upright i+1 onto upright i, a -1
    rung the other way.  Raises AnnihilatedError when the entry it lowers
    drops below 0 or the entry it raises exceeds N.
    """
    if sign < 0:
        lo, hi = left - a, right + a
    else:
        lo, hi = right - a, left + a
    if lo < 0 or hi > N:
        verb = "lower" if sign < 0 else "raise"
        raise AnnihilatedError(f"weight ({left},{right}) cannot {verb} by {a}")
    return (lo, hi) if sign < 0 else (hi, lo)


def ladder_from_word(
    N: int, k_start: tuple[int, ...], word: list[tuple[int, int, int]]
) -> Web:
    """The ladder web for a word of raising/lowering rungs.

    Each word entry is (sign, i, a) with sign +1 or -1: a rung of width a
    between uprights i and i+1, moving toward upright i for +1 and toward
    upright i+1 for -1.  Raises AnnihilatedError when an intermediate weight
    entry leaves 0..N (see `rung`); width-0 rungs are dropped.
    """
    k = list(k_start)
    m = len(k)
    slices: list[Slice] = []
    for sign, i, a in word:
        if not 1 <= i <= m - 1:
            raise ValueError(f"rung index {i} outside 1..{m-1}")
        if a < 0:
            raise ValueError("rung width must be nonnegative")
        if a == 0:
            continue
        left, right = k[i - 1], k[i]
        k[i - 1], k[i] = rung(N, left, right, sign, a)
        if sign < 0:
            slices.append(split(a, k[i - 1], i))
            slices.append(merge(right, a, i + 1))
        else:
            slices.append(split(k[i], a, i + 1))
            slices.append(merge(a, left, i))
    return Web(weight_boundary(N, tuple(k_start)), tuple(slices))


# -- dense evaluation -------------------------------------------------


def evaluate_dense(web: Web, terms: Terms) -> Terms:
    """The image on `web.codomain` of a kernel map of `web.domain`, bottom slice first."""
    for kind, space, s in web.walk:
        terms = kind.act(space, s, terms)
    return terms


# A web request whose image may hold more terms than this at some boundary is
# refused at the command line.  The bound of every LT ladder web of (3, 2),
# (2, 4) and the all-ones blocks of (3, 3) and (4, 2) is at most 19,683; the
# C(4096, 2) terms of a width-2 rung on a color-4096 strand are refused.
MAX_TERMS = 1_000_000
_comb = cache(math.comb)  # each C(N, c) made once: C(4096, 2048) has 4,090 bits


def check_work(web: Web, start: int) -> int:
    """The largest number of terms an image of a `start`-term map may hold at a
    boundary of the walk; a bound over MAX_TERMS is refused at once.

    A split of colors (a, b) makes each term C(a+b, a) terms and a cup of
    color a makes it C(N, a); no other slice adds a term, in its kernel or
    in its co-kernel.  After a split or a cup the bound is capped by the
    dimension of the boundary above it, the product of C(N, c) over its
    colors, built only until it reaches the bound.
    """
    bound = peak = start
    aboves = [space for _, space, _ in web.walk[1:]] + [web.codomain]
    for i, ((_, space, s), above) in enumerate(zip(web.walk, aboves)):
        if s.kind not in ("split", "cup"):
            continue
        bound *= _comb(s.a + s.b, s.a) if s.kind == "split" else _comb(space.N, s.a)
        dim = 1
        for f in above.factors:
            if dim >= bound:
                break
            dim *= _comb(space.N, f.color)
        bound = min(bound, dim)
        if bound > MAX_TERMS:
            raise ValueError(f"slice {i}: the web's image may hold more terms than the limit of {MAX_TERMS}")
        peak = max(peak, bound)
    return peak


def _co_step(kind: _SliceKind, space: Boundary, s: Slice, terms: Terms) -> Terms:
    """The co-kernel of slice s, on the boundary `space` below it, times v^-`_co_degree(s)`:
    the slice's own kernel, or for a tag the other side's tag with its monomials barred."""
    if s.kind != "tag":
        return kind.act(space, s, terms)
    return tag_kernel(space.N, terms, s.pos, space.factor(s.pos).dual,
                      "right" if s.side == "left" else "left", barred=True)


def _co_walk(web: Web, terms: Terms) -> Terms:
    """The covector <terms| o reflect(web) times v^-(sum of `_co_degree` over the
    web's slices), as a kernel map on `web.codomain`.

    reflect(web) applies the mirrored slices top first, so the transpose of
    its matrix is the product of the mirrored slices' transposes, bottom
    slice first: the co-kernels, run along the web's own walk.  Each is a
    power of v times `_co_step`, and the powers, constants, commute with
    every kernel.  On a web with no tag the co-walk is the walk itself.
    """
    for kind, space, s in web.walk:
        terms = _co_step(kind, space, s, terms)
    return terms


def web_matrix(web: Web, indices: list[Index] | None = None) -> dict[Index, Terms]:
    """Column map: domain basis index -> the kernel map of its image on `web.codomain`,
    over `indices` (every basis index of the domain by default), in their order.

    One walk makes every column: the input key of the n-th index carries n in
    one trailing slot, which no kernel reads or moves, as a slice acts only on
    slots 1..len(factors) of the boundary below it and a cup inserts before
    the trailing slot.  So each image key ends in the column it belongs to.
    """
    if indices is None:
        indices = basis_indices(web.domain)
    one = {0: 1}
    out: dict[Index, Terms] = {idx: {} for idx in indices}
    for key, c in evaluate_dense(web, {idx + (n,): one for n, idx in enumerate(indices)}).items():
        out[indices[key[-1]]][key[:-1]] = c
    return out


# -- state-sum evaluation ---------------------------------------------


def evaluate_statesum(web: Web, terms: Terms) -> Terms:
    """The image of a kernel map of `web.domain`, one signed monomial per state.

    It agrees with `evaluate_dense`.  A state labels every edge of the web.
    The walk fixes the labels slice by slice, depth first, carrying the
    labels of the current boundary, the exponent and the sign; it never
    merges states at an intermediate boundary, so each complete state adds
    its own monomial.  The local rules are each kind's `states`, which share
    no code with the dense kernels.  The masks of each input term become
    frozensets once, and the sums by final labels become masks once, at the
    end.
    """
    rules = [(kind.states, space, s) for kind, space, s in web.walk]
    out: dict[Labels, dict[int, int]] = {}
    for idx, coeff in terms.items():
        stack = [(0, tuple(map(_subset, idx)), 0, 1)]
        while stack:
            i, labels, exp, sign = stack.pop()
            if i == len(rules):
                add_into(out.setdefault(labels, {}), coeff, exp, sign)
                continue
            states, space, s = rules[i]
            for above, e, sg in states(space, s, labels):
                stack.append((i + 1, above, exp + e, sign * sg))
    return {tuple(map(_mask, labels)): c for labels, c in out.items() if c}


# -- closed evaluation and the web form -------------------------------


def d_norm(N: int, l: int, k: tuple[int, ...]) -> int:
    """The normalization exponent (N(N-1)l - sum k_i(k_i-1)) / 2."""
    twice = N * (N - 1) * l - sum(c * (c - 1) for c in k)
    if twice % 2:
        raise ValueError(f"normalization exponent is fractional for k={k}")
    return twice // 2


def _closed_key(space: Boundary) -> tuple[int, ...]:
    """The kernel key of the closed basis vector: color-N strands full, color-0 padding empty."""
    full = (1 << space.N) - 1
    key = []
    for f in space.factors:
        if f.dual or f.color not in (0, space.N):
            raise ShapeMismatchError(
                "closed evaluation needs color-N strands with color-0 padding"
            )
        key.append(full if f.color == space.N else 0)
    return tuple(key)


def ev_closed(web: Web) -> LaurentPoly:
    """The unique coefficient of an endomorphism of the highest-weight boundary."""
    if web.codomain != web.domain:
        raise ShapeMismatchError("closed evaluation needs equal domain and codomain")
    key = _closed_key(web.domain)
    return LaurentPoly(evaluate_dense(web, {key: {0: 1}}).get(key, {}))


def web_form(u: Web, w: Web) -> LaurentPoly:
    """The sesquilinear web form v^d(k) * ev(reflect(u) o w): one co-walk, one walk, one dot.

    ev(reflect(u) o w) is the coefficient at the closed key of reflect(u)
    applied to w's image of the closed basis vector: the pairing of that
    image with the co-image of the closed key under u, which is u's co-walk
    times v^(sum of `_co_degree` over u's slices).  The form is one sparse
    dot product of the two kernel maps, `tensor.dot`, shifted by v^d and
    that sum.  Both webs must share one domain, the highest-weight
    boundary, and one plain codomain.
    """
    domain, cod = u.domain, u.codomain
    if w.domain != domain:
        raise ShapeMismatchError("webs must share their domain")
    if w.codomain != cod:
        raise ShapeMismatchError("webs must share their codomain")
    closed = {_closed_key(domain): {0: 1}}
    if any(f.dual for f in cod.factors):
        raise ShapeMismatchError("the web form is defined on plain boundaries")
    l = sum(1 for f in domain.factors if f.color == domain.N)
    d = d_norm(domain.N, l, tuple(f.color for f in cod.factors))
    return LaurentPoly(dot(_co_walk(u, closed), evaluate_dense(w, closed), d + sum(map(_co_degree, u.slices))))
