"""Graded-dimension data of the web algebras, one block per bounded weight.

The block algebra attached to a weight vector k is spanned by webs sandwiched
between two basis webs; its graded Cartan matrix is the Gram matrix of the
intermediate web basis under the web form.  The block is a graded symmetric
Frobenius algebra whose Gorenstein parameter is twice the normalization
exponent d(k); at the level of graded dimensions this reads

    C_ST = C_TS   and   bar(C_ST) = v^(-2d) * C_ST,

so the total graded dimension D satisfies D(v^-1) = v^(-2d) D(v), which is
what `frobenius_check` asserts.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bases import GradedMatrix, gram_matrix, lt_block
from .ring import LaurentPoly, bar
from .tensor import weight_boundary
from .webs import d_norm


def _shape_of_weight(N: int, k: tuple[int, ...]) -> int:
    """The row count l of the weight k; its N and colors must make a `Boundary`."""
    weight_boundary(N, tuple(k))
    m = len(k)
    if m % N:
        raise ValueError(f"weight length {m} is not a multiple of N={N}")
    if sum(k) != m:
        raise ValueError(f"weight {k} does not sum to its length {m}")
    return m // N


def cartan_matrix(N: int, k: tuple[int, ...]) -> GradedMatrix:
    """Graded Cartan matrix of the block at weight k."""
    l = _shape_of_weight(N, k)
    return gram_matrix(lt_block(N, l, tuple(k)))


def gorenstein_parameter(N: int, k: tuple[int, ...]) -> int:
    l = _shape_of_weight(N, k)
    return 2 * d_norm(N, l, tuple(k))


@dataclass(frozen=True)
class FrobeniusReport:
    passed: bool
    total_dimension: LaurentPoly
    gorenstein: int


def frobenius_check(N: int, k: tuple[int, ...], cartan: GradedMatrix) -> FrobeniusReport:
    """Check D(v^-1) = v^(-2d) D(v) for the total graded dimension D.

    `cartan` is the block's Cartan matrix, `cartan_matrix(N, k)`, which the
    caller already holds.
    """
    total = LaurentPoly()
    for row in cartan.entries:
        for p in row:
            total = total + p
    g = gorenstein_parameter(N, k)
    passed = bar(total) == total.shift(-g)
    return FrobeniusReport(passed, total, g)


def bounded_weights(N: int, m: int) -> list[tuple[int, ...]]:
    """All m-vectors with entries 0..N summing to m, lexicographically."""
    out: list[tuple[int, ...]] = []

    def build(prefix: list[int], remaining: int, slots: int) -> None:
        if slots == 0:
            if remaining == 0:
                out.append(tuple(prefix))
            return
        for c in range(min(N, remaining) + 1):
            if remaining - c <= N * (slots - 1):
                prefix.append(c)
                build(prefix, remaining - c, slots - 1)
                prefix.pop()

    build([], m, m)
    return out
