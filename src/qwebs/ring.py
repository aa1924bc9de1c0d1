"""Exact integer Laurent polynomials in the quantum parameter v.

A polynomial is stored as a map from integer exponent to nonzero integer
coefficient; the zero polynomial is the empty map.  All arithmetic is exact
(arbitrary-precision integers, no floats), values are immutable after
construction and safe to share between workers.

Besides the ring operations this module provides the balanced quantum
combinatorics ([n], [n]!, Gaussian binomials), the bar involution v -> v^-1,
the bar-symmetrization step used by the triangular basis algorithm, exact
division, and `add_into`: the one sum on coefficient maps, which the
arithmetic here and the kernels in `tensor`, `howe` and `bases` all use.
"""

from __future__ import annotations

from functools import cache
from typing import Iterable, Iterator, Mapping


class NonDivisibleError(ArithmeticError):
    """Raised when an exact Laurent-polynomial quotient does not exist."""


class LaurentPoly:
    """An integer Laurent polynomial in v.

    Immutable value type; equality is structural and exact.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        self._c: dict[int, int] = {e: a for e, a in coeffs.items() if a} if coeffs else {}

    # -- queries ------------------------------------------------------

    def items(self) -> Iterator[tuple[int, int]]:
        """(exponent, coefficient) pairs in ascending exponent order."""
        return iter(sorted(self._c.items()))

    def valuation(self) -> int:
        """Bottom exponent; raises ValueError on the zero polynomial."""
        if not self._c:
            raise ValueError("zero polynomial has no valuation")
        return min(self._c)

    def nonnegative_coeffs(self) -> bool:
        return all(a >= 0 for a in self._c.values())

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        c = dict(self._c)
        add_into(c, other._c)
        return _taken(c)

    def __neg__(self) -> "LaurentPoly":
        return _taken({e: -a for e, a in self._c.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            if not other:
                return LaurentPoly()
            return _taken({e: a * other for e, a in self._c.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        c: dict[int, int] = {}
        for e, a in self._c.items():
            add_into(c, other._c, e, a)
        return _taken(c)

    __rmul__ = __mul__

    def shift(self, exp: int) -> "LaurentPoly":
        """Multiply by v**exp."""
        return _taken({e + exp: a for e, a in self._c.items()})

    # -- comparison / hashing ----------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPoly) and self._c == other._c

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._c.items())))

    def __bool__(self) -> bool:
        return bool(self._c)

    def __repr__(self) -> str:
        return f"LaurentPoly({self})"

    def __str__(self) -> str:
        if not self._c:
            return "0"
        parts = []
        for e, a in sorted(self._c.items(), reverse=True):
            if e == 0:
                term = str(abs(a))
            else:
                va = "v" if e == 1 else f"v^{e}"
                term = va if abs(a) == 1 else f"{abs(a)}{va}"
            parts.append(("- " if a < 0 else "+ ") + term)
        s = " ".join(parts)
        return s[2:] if s.startswith("+ ") else "-" + s[2:]

    # -- serialization ------------------------------------------------

    def to_json(self) -> list[list[int]]:
        """[[exponent, coefficient], ...] sorted ascending; [] encodes 0."""
        return [[e, a] for e, a in sorted(self._c.items())]

    @classmethod
    def from_json(cls, data: Iterable[Iterable[int]]) -> "LaurentPoly":
        """Inverse of to_json: integer exponents and coefficients, each exponent at most once."""
        coeffs: dict[int, int] = {}
        for e, a in data:
            e = exact_int(e, "exponent")
            if e in coeffs:
                raise ValueError(f"exponent {e} appears twice")
            coeffs[e] = exact_int(a, "coefficient")
        return cls(coeffs)


def add_into(acc: dict[int, int], c: Mapping[int, int], shift: int = 0, factor: int = 1) -> None:
    """acc += factor * v^shift * c on coefficient maps, dropping every zero; c is not changed.

    `c` is anything whose `items()` are (exponent, coefficient) pairs: an int
    map or a `LaurentPoly`.  This is the one place a coefficient sum is made.
    """
    for e, a in c.items():
        e += shift
        a = acc.get(e, 0) + factor * a
        if a:
            acc[e] = a
        else:
            acc.pop(e, None)


def exact_int(value, what: str) -> int:
    """A JSON field that must hold an integer: 1.9 or true is refused, not truncated."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _taken(c: dict[int, int]) -> LaurentPoly:
    """The polynomial of a map with no zero coefficient; the map is taken over, not copied."""
    p = LaurentPoly.__new__(LaurentPoly)
    p._c = c
    return p


ONE = LaurentPoly({0: 1})


def bar(p: LaurentPoly) -> LaurentPoly:
    """The bar involution v -> v^-1 (negates every exponent)."""
    return _taken({-e: a for e, a in p._c.items()})


def qint(n: int) -> LaurentPoly:
    """Balanced quantum integer [n] = v^(n-1) + v^(n-3) + ... + v^(1-n), n >= 0."""
    if n < 0:
        raise ValueError("qint requires n >= 0")
    return LaurentPoly({n - 1 - 2 * j: 1 for j in range(n)})


def qnum(z: int) -> LaurentPoly:
    """Balanced quantum number for any integer: [-n] = -[n]."""
    return qint(z) if z >= 0 else -qint(-z)


@cache
def qfactorial(n: int) -> LaurentPoly:
    """[n]! = [1][2]...[n]; cached, since polynomials are immutable."""
    r = ONE
    for j in range(1, n + 1):
        r = r * qint(j)
    return r


def qbinom(n: int, k: int) -> LaurentPoly:
    """Balanced Gaussian binomial [n choose k].

    Defined for any integer n via the product formula
    [n-k+1][n-k+2]...[n] / [k]!; zero when k < 0, or when 0 <= n < k.
    Coefficients are nonnegative for n >= 0; for n < 0 the usual sign
    (-1)^k [k-n-1 choose k] appears.
    """
    if k < 0:
        return LaurentPoly()
    num = ONE
    for j in range(1, k + 1):
        num = num * qnum(n - k + j)
        if not num:
            return num
    return exact_divide(num, qfactorial(k))


def symmetrize_correction(p: LaurentPoly) -> LaurentPoly:
    """The unique bar-invariant g with p - g in v^-1 * Z[v^-1].

    g = p_0 + sum_{i>0} p_i (v^i + v^-i) where p_i is the coefficient
    of v^i in p.
    """
    return LaurentPoly({s: a for e, a in p._c.items() if e >= 0 for s in (e, -e)})


def exact_divide(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    """Exact quotient p / q in Z[v, v^-1].

    Raises NonDivisibleError when no quotient with integer coefficients
    exists.  Inside this package a failure always indicates an upstream
    bug: divided-power actions are integral.
    """
    if not q:
        raise ZeroDivisionError("division by the zero polynomial")
    if not p:
        return LaurentPoly()
    # Shift both operands to honest polynomials with nonzero constant term,
    # long-divide from the top, and shift back.
    shift = p.valuation() - q.valuation()
    rem = dict(p.shift(-p.valuation())._c)
    den = q.shift(-q.valuation())._c
    dq = max(den)
    lead = den[dq]
    quot: dict[int, int] = {}
    while rem:
        dp = max(rem)
        if dp < dq:
            raise NonDivisibleError(f"{p} is not divisible by {q}")
        c, r = divmod(rem[dp], lead)
        if r:
            raise NonDivisibleError(f"{p} is not divisible by {q}")
        e = dp - dq
        quot[e] = c
        add_into(rem, den, e, -c)
    return LaurentPoly(quot).shift(shift)
