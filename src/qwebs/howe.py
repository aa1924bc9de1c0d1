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

One kernel, `_act`, acts on maps {column tuple (a sort_key): {exponent: int}}:
a move replaces one column tuple, and its power of v sums the per-column
differences (i in d) - (i+1 in d).  `act_word` runs a whole divided-power word
(`act_E` and `act_divided` are one-pair words) on one map and only then builds,
and so validates, the `Tableau` and `LaurentPoly` objects of its result.  Its
divided-power step, `_act_divided`, is also the step of the peel-tree walk in
`bases`.

Tableaux and tensor basis indices correspond through one bijection,
`tableau_to_index` / `index_to_tableau`: slot i of the index of a tableau
holds the columns that contain the entry i.  `to_tensor` reads a vector in
tensor coordinates through it, and the ladder evaluator in `webs` provides
the independent second route that `verify` checks the action against.

The degree-2 Serre relation holds here with middle coefficient +(v + v^-1):
all the action matrices have nonnegative entries, which forces the positive
sign (checked in the tests).
"""

from __future__ import annotations

from .ring import LaurentPoly, ONE, exact_divide, exact_int, qfactorial
from .tableaux import Shape, Tableau, highest_tableau, tableau_type
from .tensor import Index, SparseVector, TensorVector, weight_boundary


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
        shape = Shape(exact_int(data["N"], "N"), exact_int(data["l"], "l"))
        coords = {}
        for term in data["terms"]:
            t = Tableau.from_json({"N": shape.N, "l": shape.l, "rows": term["rows"]})
            if t in coords:
                raise ValueError(f"tableau {term['rows']} appears twice")
            coords[t] = LaurentPoly.from_json(term["coeff"])
        return cls(shape, coords)


# -- the action kernel --------------------------------------------------

# A vector inside the kernel: {column tuple: {exponent: int}}, with no zero
# coefficient and no empty inner map.
Terms = dict[tuple[tuple[int, ...], ...], dict[int, int]]


def _act(sign: int, i: int, terms: Terms) -> Terms:
    """One application of the generator of index i to a column map.

    A column d moves when it holds the source value and not the target, i.e.
    when (i in d) - (i+1 in d) is -sign; the moved entry keeps the column
    increasing, since source and target are adjacent.
    """
    src, dst = (i, i + 1) if sign < 0 else (i + 1, i)
    out: Terms = {}
    moves: dict[tuple[int, ...], tuple[int, ...]] = {}
    for cols, c in terms.items():
        diffs = [(i in d) - (i + 1 in d) for d in cols]
        total = sum(diffs)
        left = 0
        for j, d in enumerate(cols):
            dj = diffs[j]
            if dj == -sign:
                # lowering counts the columns right of j, raising those left of it
                shift = left + dj - total if sign < 0 else left
                moved = moves.get(d)
                if moved is None:
                    moved = moves[d] = tuple(dst if e == src else e for e in d)
                key = cols[:j] + (moved,) + cols[j + 1 :]
                acc = out.get(key)
                if acc is None:
                    out[key] = {e + shift: a for e, a in c.items()}
                else:
                    for e, a in c.items():
                        e += shift
                        s = acc.get(e, 0) + a
                        if s:
                            acc[e] = s
                        else:
                            del acc[e]
                    if not acc:
                        del out[key]
            left += dj
    return out


def _act_divided(sign: int, i: int, r: int, terms: Terms) -> Terms:
    """The divided power (i, r) on a column map: r kernel steps, then exact /[r]!."""
    for _ in range(r):
        terms = _act(sign, i, terms)
    if r >= 2 and terms:
        fact = qfactorial(r)
        terms = {k: dict(exact_divide(LaurentPoly(c), fact).items()) for k, c in terms.items()}
    return terms


def act_word(sign: int, word, x: TableauVector) -> TableauVector:
    """Apply the divided powers (i, r) of a word, first pair first (sign -1 lowers)."""
    if sign not in (-1, 1):
        raise ValueError(f"sign must be -1 or +1, got {sign!r}")
    shape = x.space
    word = list(word)
    for i, r in word:
        if r < 0:
            raise ValueError("multiplicity must be nonnegative")
        if not 1 <= i <= shape.m - 1:
            raise ValueError(f"generator index {i} outside 1..{shape.m - 1}")
    terms = {t.sort_key(): dict(c.items()) for t, c in x.coords.items()}
    for i, r in word:
        terms = _act_divided(sign, i, r, terms)
    # tableaux (each validated) and polynomials are built once, for the result
    return TableauVector(
        shape, {Tableau.from_columns(shape, k): LaurentPoly(c) for k, c in terms.items()}
    )


def act_E(sign: int, i: int, x: TableauVector) -> TableauVector:
    """Apply the generator of index i (sign -1 lowers, +1 raises)."""
    return act_word(sign, [(i, 1)], x)


def act_divided(sign: int, i: int, r: int, x: TableauVector) -> TableauVector:
    """The divided power: r-fold action divided exactly by [r]!."""
    return act_word(sign, [(i, r)], x)


def weight_of_type(k: tuple[int, ...]) -> tuple[int, ...]:
    """Consecutive differences of the entry multiplicities k (length m-1)."""
    return tuple(k[j] - k[j + 1] for j in range(len(k) - 1))


# -- dictionary with tensor coordinates --------------------------------


def tableau_to_index(t: Tableau) -> Index:
    """The tensor basis index of a tableau: slot i holds the columns containing i."""
    idx: list[list[int]] = [[] for _ in range(t.shape.m)]
    for j, col in enumerate(t.columns(), start=1):
        for i in col:
            idx[i - 1].append(j)
    return tuple(map(frozenset, idx))


def index_to_tableau(shape: Shape, idx: Index) -> Tableau:
    """Inverse of tableau_to_index; each column must receive exactly l entries."""
    cols = [[i for i, s in enumerate(idx, start=1) if j in s] for j in range(1, shape.N + 1)]
    if any(len(c) != shape.l for c in cols):
        raise ValueError("indicator vectors do not fill the shape")
    return Tableau.from_columns(shape, cols)


def to_tensor(x: TableauVector) -> TensorVector:
    """Read a single-type tableau vector in tensor coordinates."""
    types = {tableau_type(t) for t in x.coords}
    if len(types) != 1:
        raise ValueError("tensor coordinates need a vector of a single type")
    space = weight_boundary(x.space.N, next(iter(types)))
    out = TensorVector(space)
    for t, c in x.coords.items():
        out.add_term(tableau_to_index(t), c)
    return out


def highest_vector(shape: Shape) -> TableauVector:
    return TableauVector.basis_vector(highest_tableau(shape))
