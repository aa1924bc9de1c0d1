"""The lowering/raising action on tableau-indexed vectors.

Skew Howe duality lets a single combinatorial rule act on both sides of the
tensor story: a generator indexed by i in 1..m-1 moves entries between the
values i and i+1 of a column-strict tableau.

  lower (E_-i):  change one i into i+1 in a column containing i but not i+1;
                 coefficient v^-(r_i - r_{i+1}) where r_e counts entries
                 equal to e in columns strictly to the RIGHT.
  raise (E_+i):  change one i+1 into i, counting to the LEFT with weight
                 v^+(l_i - l_{i+1}).

Divided powers act as the r-fold action divided exactly by [r]!; divisibility
always holds on these lattices, so a division failure is a bug upstream.

The same vectors can be read in tensor coordinates through the column
indicator bijection (tableau_to_nu); `to_tensor` / `from_tensor` implement
the dictionary and the ladder evaluator in `webs` provides the independent
second route used by the tests.

The degree-2 Serre relation holds here with middle coefficient +(v + v^-1):
all the action matrices have nonnegative entries, which forces the positive
sign (checked in the tests).
"""

from __future__ import annotations

from .ring import LaurentPoly, ONE, exact_divide, qfactorial
from .tableaux import Shape, Tableau, highest_tableau, tableau_from_nu, tableau_to_nu, tableau_type
from .tensor import Boundary, Factor, SparseVector, TensorVector


class TableauVector(SparseVector):
    """A sparse vector keyed by column-strict tableaux of one shape (its space)."""

    __slots__ = ()

    @classmethod
    def basis_vector(cls, t: Tableau, coeff: LaurentPoly = ONE) -> "TableauVector":
        return cls(t.shape, {t: coeff})

    def __repr__(self) -> str:
        terms = " + ".join(
            f"({c})*{t}" for t, c in sorted(self.coords.items(), key=lambda kv: kv[0].sort_key())
        )
        return f"TableauVector[{terms or '0'}]"

    def to_json(self) -> dict:
        terms = [
            {"rows": [list(r) for r in t.rows], "coeff": self.coords[t].to_json()}
            for t in sorted(self.coords, key=Tableau.sort_key)
        ]
        return {"N": self.space.N, "l": self.space.l, "terms": terms}

    @classmethod
    def from_json(cls, data: dict) -> "TableauVector":
        shape = Shape(int(data["N"]), int(data["l"]))
        out = cls(shape)
        for term in data["terms"]:
            t = Tableau(shape, tuple(tuple(int(x) for x in row) for row in term["rows"]))
            out.add_term(t, LaurentPoly.from_json(term["coeff"]))
        return out


def act_E(sign: int, i: int, x: TableauVector) -> TableauVector:
    """Apply the generator of index i (sign -1 lowers, +1 raises)."""
    shape = x.space
    if not 1 <= i <= shape.m - 1:
        raise ValueError(f"generator index {i} outside 1..{shape.m - 1}")
    out = TableauVector(shape)
    src, dst = (i, i + 1) if sign < 0 else (i + 1, i)
    for t, c in x.coords.items():
        for ci in range(shape.N):
            col = set(t.column(ci + 1))
            if src not in col or dst in col:
                continue
            # src occurs once and dst not at all, so the swap keeps the
            # column strictly increasing in place
            grid = [list(r) for r in t.rows]
            for ri in range(shape.l):
                if grid[ri][ci] == src:
                    grid[ri][ci] = dst
            t2 = Tableau(shape, tuple(tuple(r) for r in grid))
            if sign < 0:
                cols = range(ci + 1, shape.N)
            else:
                cols = range(ci)
            ni = sum(1 for cj in cols if i in set(t.column(cj + 1)))
            nip = sum(1 for cj in cols if i + 1 in set(t.column(cj + 1)))
            out.add_term(t2, c.shift(sign * (ni - nip)))
    return out


def act_divided(sign: int, i: int, r: int, x: TableauVector) -> TableauVector:
    """The divided power: r-fold action divided exactly by [r]!."""
    if r < 0:
        raise ValueError("multiplicity must be nonnegative")
    y = x
    for _ in range(r):
        y = act_E(sign, i, y)
    if r >= 2:
        fact = qfactorial(r)
        y = TableauVector(y.space, {t: exact_divide(c, fact) for t, c in y.coords.items()})
    return y


def weight_of(t: Tableau) -> tuple[int, ...]:
    """Consecutive differences of the entry multiplicities (length m-1)."""
    k = tableau_type(t)
    return tuple(k[j] - k[j + 1] for j in range(len(k) - 1))


def weight_of_type(k: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(k[j] - k[j + 1] for j in range(len(k) - 1))


def phi(lam: tuple[int, ...], d: int, N: int) -> tuple[int, ...] | None:
    """Lift a difference-weight to the unique bounded m-vector with sum d.

    Solves k_i - k_{i+1} = lam_i with all k_i in 0..N and sum(k) = d;
    returns None when no lift exists.
    """
    m = len(lam) + 1
    # k_i = k_1 - prefix_i where prefix_i = lam_1 + ... + lam_{i-1}
    prefix = [0]
    for x in lam:
        prefix.append(prefix[-1] + x)
    total = d + sum(prefix)
    if total % m:
        return None
    k1 = total // m
    k = tuple(k1 - p for p in prefix)
    if any(not 0 <= c <= N for c in k):
        return None
    return k


# -- dictionary with tensor coordinates --------------------------------


def tensor_space_of_type(N: int, k: tuple[int, ...]) -> Boundary:
    return Boundary(N, tuple(Factor(c) for c in k))


def tableau_to_index(t: Tableau):
    """The basis index of the tensor vector attached to a tableau."""
    return tuple(
        frozenset(j + 1 for j, flag in enumerate(row) if flag) for row in tableau_to_nu(t)
    )


def index_to_tableau(shape: Shape, idx) -> Tableau:
    nu = tuple(
        tuple(1 if j in s else 0 for j in range(1, shape.N + 1)) for s in idx
    )
    return tableau_from_nu(shape, nu)


def to_tensor(x: TableauVector) -> TensorVector:
    """Read a single-type tableau vector in tensor coordinates."""
    types = {tableau_type(t) for t in x.coords}
    if len(types) != 1:
        raise ValueError("tensor coordinates need a vector of a single type")
    space = tensor_space_of_type(x.space.N, next(iter(types)))
    out = TensorVector(space)
    for t, c in x.coords.items():
        out.add_term(tableau_to_index(t), c)
    return out


def from_tensor(shape: Shape, x: TensorVector) -> TableauVector:
    """Inverse dictionary; every index must have full column content."""
    out = TableauVector(shape)
    for idx, c in x.coords.items():
        out.add_term(index_to_tableau(shape, idx), c)
    return out


def highest_vector(shape: Shape) -> TableauVector:
    return TableauVector.basis_vector(highest_tableau(shape))
