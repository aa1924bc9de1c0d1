"""Column-strict tableaux of rectangular shape (N^l) and their combinatorics.

Tableaux are fillings of an l-row, N-column grid with entries in 1..m,
m = N*l, strictly increasing down each column.  Semistandard tableaux are
additionally weakly increasing along rows.  They index the basis webs and,
through `howe.tableau_to_index`, the standard tensor bases.  Both kinds, with
or without a type, come from one search that grows a chain of shapes:
`enumerate_tableaux` places the entries 1..m in turn at column feet.

One size rule holds every request: `check_request` refuses, before any
work, one whose `_count_bound` is over MAX_TABLEAUX, and 0 means no search.
A semistandard-only request with no type is held to its exact count.

The total order used everywhere: a column c beats a column d when, at the
first position where they differ, c has the *smaller* entry; tableaux are
ordered lexicographically on columns left to right.  Maximal is the tableau
whose row r is constantly r.

The peeling procedure walks a semistandard tableau down to the maximal one
and records the word of lowering moves; that word drives the construction of
the Leclerc-Toffin basis.  The search bound for the peeling index is m-1,
not l: for l >= 2 the procedure cannot terminate otherwise (e.g. shape (2,2)
with rows (1,1),(2,4) needs i = 3).
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .ring import exact_int


class NotSemistandardError(ValueError):
    """Raised when an operation requires a semistandard tableau."""


@dataclass(frozen=True)
class Shape:
    """Rectangular shape: l rows, N columns, entries bounded by m = N*l."""

    N: int
    l: int

    def __post_init__(self):
        if self.N < 2 or self.l < 1:
            raise ValueError(f"invalid shape N={self.N}, l={self.l}")

    @property
    def m(self) -> int:
        return self.N * self.l


@dataclass(frozen=True)
class Tableau:
    """A column-strict filling, stored row-major as a tuple of row tuples."""

    shape: Shape
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        N, l, m = self.shape.N, self.shape.l, self.shape.m
        if len(self.rows) != l or any(len(r) != N for r in self.rows):
            raise ValueError("grid does not match shape")
        for r in self.rows:
            if min(r) < 1 or max(r) > m:
                x = next(x for x in r if not 1 <= x <= m)
                raise ValueError(f"entry {x} out of range 1..{m}")
        for upper, lower in zip(self.rows, self.rows[1:]):
            if not all(map(operator.lt, upper, lower)):
                raise ValueError("columns must strictly increase")

    @classmethod
    def from_columns(cls, shape: Shape, columns) -> "Tableau":
        """The tableau with these columns, left to right, each read top to bottom."""
        return cls(shape, tuple(zip(*columns)))

    def is_semistandard(self) -> bool:
        return all(
            row[j] <= row[j + 1] for row in self.rows for j in range(self.shape.N - 1)
        )

    def sort_key(self) -> tuple[tuple[int, ...], ...]:
        """The columns, left to right; ascending in this key == descending in the tableau order."""
        return tuple(zip(*self.rows))

    def to_json(self) -> dict:
        return {"N": self.shape.N, "l": self.shape.l, "rows": [list(r) for r in self.rows]}

    @classmethod
    def from_json(cls, data: dict) -> "Tableau":
        return cls(Shape(exact_int(data["N"], "N"), exact_int(data["l"], "l")),
                   tuple(tuple(exact_int(x, "tableau entry") for x in row) for row in data["rows"]))

    def __str__(self) -> str:
        return "/".join("".join(f"{x}" if x < 10 else f"({x})" for x in r) for r in self.rows)


def highest_tableau(shape: Shape) -> Tableau:
    """The maximal tableau: row r constantly filled with r."""
    return Tableau(shape, tuple(tuple(r + 1 for _ in range(shape.N)) for r in range(shape.l)))


def tableau_type(t: Tableau) -> tuple[int, ...]:
    """Entry multiplicities (k_1, ..., k_m); always sums to m."""
    m = t.shape.m
    k = [0] * m
    for row in t.rows:
        for x in row:
            k[x - 1] += 1
    return tuple(k)


# Requests that could exceed this many tableaux are refused before any work.
# The largest enumeration the tests and sweeps make, all of shape (4, 2), is
# bounded by 614,656; all of (2, 7), bounded by 11.8 million, is refused.
MAX_TABLEAUX = 1_000_000


def _count_bound(shape: Shape, type: tuple[int, ...] | None, semistandard_only: bool = False) -> int:
    """An upper bound on the tableaux of the shape (and type) a request can make.

    Without a type each of the N columns is an l-subset of 1..m.  With one,
    sorting the columns of the m!/prod(k_i!) fillings of that content gives
    every column-strict tableau exactly (l!)^N times.  Exact when at most
    MAX_TABLEAUX, and some value above it otherwise, so a bound of a million
    digits is never built.  Without a type, comb(m, j) grows with j up to
    l <= m/2, so comb(m, j) ** N is built for j = 1, 2, ... up to the first
    power over the limit; comb(m, 1) = m >= 2, so N >= MAX_TABLEAUX.bit_length()
    is over at once.  With a type, m is its length.  A type with an entry
    above N has no tableau, since N strictly increasing columns hold each
    value at most N times, so its bound is 0; otherwise a log estimate from
    `math.lgamma`, with a margin of a factor e for rounding, gates the product.

    Semistandard-only with no type, the bound is the hook-content count
    prod (m + c - r) / ((N - c) + (l - r) - 1) over the cells (r, c),
    0-based.  Each factor is at least 1, as m >= N + l - 1, so the product
    grows as it is built, from the bottom-right cell (r, c) = (l - 1, N - 1),
    whose factor m + N - l is at least N and l + 2; it stops at the first
    partial product over the limit.
    """
    N, l, m = shape.N, shape.l, shape.m
    if type is not None and max(type) > N:
        return 0
    if type is None and semistandard_only:
        num = den = 1
        for r in reversed(range(l)):
            for c in reversed(range(N)):
                num *= m + c - r
                den *= N - c + l - r - 1
                if num > MAX_TABLEAUX * den:
                    return MAX_TABLEAUX + 1
        return num // den
    if type is None:
        columns = 1  # comb(m, j)
        for j in range(1, l + 1):
            columns = columns * (m + 1 - j) // j
            if N >= MAX_TABLEAUX.bit_length() or columns ** N > MAX_TABLEAUX:
                return MAX_TABLEAUX + 1
        return columns ** N
    log = math.lgamma(m + 1) - sum(math.lgamma(k + 1) for k in type if k > 1) - N * math.lgamma(l + 1)
    if log > math.log(MAX_TABLEAUX) + 1:
        return MAX_TABLEAUX + 1
    fillings, placed = 1, 0  # m!/prod(k_i!) as a product of binomials
    for k in type:
        placed += k
        fillings *= math.comb(placed, k)
    return fillings // math.factorial(l) ** N


def check_request(shape: Shape, type: tuple[int, ...] | None = None,
                  semistandard_only: bool = False) -> int:
    """Refuse a malformed type, or a request over MAX_TABLEAUX; else return its bound."""
    if type is not None and (len(type) != shape.m or sum(type) != shape.m or min(type) < 0):
        raise ValueError("type must be an m-vector of nonnegative entries summing to m")
    if (bound := _count_bound(shape, type, semistandard_only)) > MAX_TABLEAUX:
        raise ValueError(f"shape ({shape.N}, {shape.l}) may have more tableaux"
                         f"{'' if type is None else ' of this type'} than the limit of {MAX_TABLEAUX}")
    return bound


def enumerate_tableaux(
    shape: Shape,
    type: tuple[int, ...] | None = None,
    semistandard_only: bool = False,
    bound: int | None = None,
) -> list[Tableau]:
    """All tableaux of the shape (and type, if given), strictly descending.

    `bound` is the request's `check_request` bound when the caller has
    already made it (with a type it does not depend on `semistandard_only`).

    The entries x = 1..m are placed in turn, each at the foot of columns
    that still have room, so columns strictly increase.  With a type,
    exactly type[x-1] columns take x; without one, any number that leaves
    no more empty cells than the entries above x can fill.  A filling is
    semistandard exactly when the cells holding entries <= x form a Young
    diagram after every step, so for `semistandard_only` column j grows
    only up to the new height of column j-1.  The choices are walked with
    an explicit stack, so long columns or many entries cannot exhaust the
    interpreter's recursion limit.
    """
    if bound is None:
        bound = check_request(shape, type, semistandard_only)
    if not bound:
        return []  # e.g. a type with an entry above N, which the search meets only there
    N, l, m = shape.N, shape.l, shape.m
    cols: list[list[int]] = [[] for _ in range(N)]
    out: list[Tableau] = []

    def counts(x: int) -> tuple[int, int]:
        """The least and most columns that may take x."""
        if type is not None:
            return type[x - 1], type[x - 1]
        left = m - sum(map(len, cols))
        return max(0, left - N * (m - x)), min(N, left)

    # (x, j, lo, hi): put lo..hi more x's at the feet of columns j..N-1, then
    # place x+1.  (x, ~j, 0, 0) takes x back off column j.  Each popped
    # entry is followed down its taking branches; the skips wait on the stack.
    stack = [(1, 0, *counts(1))]
    while stack:
        x, j, lo, hi = stack.pop()
        if j < 0:
            cols[~j].pop()
            continue
        while lo <= N - j:
            if j == N or not hi:
                if x == m:
                    out.append(Tableau.from_columns(shape, cols))
                    break
                x, j = x + 1, 0
                lo, hi = counts(x)
                continue
            col = cols[j]
            if len(col) < (len(cols[j - 1]) if semistandard_only and j else l):
                stack.append((x, j + 1, lo, hi))
                col.append(x)
                stack.append((x, ~j, 0, 0))
                lo, hi = lo - 1, hi - 1
            j += 1
    out.sort(key=Tableau.sort_key)
    return out


def peel_word(t: Tableau) -> list[tuple[int, int]]:
    """The lowering word of a semistandard tableau.

    Repeatedly find the smallest i (1 <= i <= m-1) such that entries equal
    to i+1 occur in rows 1..min(i, l); replace all r of them by i and record
    (i, r).  Stops at the maximal tableau.  The word is returned
    outermost-first: the first pair is the last move applied when raising
    back up from the maximal tableau.

    The steps run on one mutable grid, whose rows stay weakly increasing.
    An entry x in row r (1-based) can be peeled exactly when x > r, so the
    next i is the least such x, less one: the first entry past r in each row,
    found by bisection.  The grid is the maximal tableau when no entry can be.
    A step turns the run of i+1 in each row r <= i into i, which keeps the
    row weakly increasing and each changed cell below the cell under it, so
    column strictness is checked only against the cell above.
    """
    if not t.is_semistandard():
        raise NotSemistandardError(f"not semistandard: {t}")
    grid = [list(r) for r in t.rows]
    word: list[tuple[int, int]] = []
    while True:
        firsts = [row[n] for r, row in enumerate(grid, 1) if (n := bisect_right(row, r)) < len(row)]
        i = min(firsts, default=1) - 1
        if not i:
            return word
        hits = 0
        for r, row in enumerate(grid[:i]):  # rows 1..min(i, l)
            lo, hi = bisect_left(row, i + 1), bisect_right(row, i + 1)
            if lo == hi:
                continue
            row[lo:hi] = [i] * (hi - lo)
            if r and max(grid[r - 1][lo:hi]) >= i:
                raise NotSemistandardError(
                    "peeling broke column strictness: columns must strictly increase"
                )
            hits += hi - lo
        word.append((i, hits))
