"""The lowering/raising action on tableau-indexed vectors.

Skew Howe duality lets a single combinatorial rule act on both sides of the
tensor story: a generator indexed by i in 1..m-1 moves entries between the
values i and i+1 of a column-strict tableau.

  lower (E_-i):  change one i into i+1 in a column containing i but not i+1;
                 coefficient v^-(r_i - r_{i+1}) where r_e counts entries
                 equal to e in columns strictly to the RIGHT.
  raise (E_+i):  change one i+1 into i, counting to the LEFT with weight
                 v^+(l_i - l_{i+1}).

A divided power (i, r) of either sign moves r columns at once: it sums,
over the r-subsets S of the columns a single step could move, the tableau
with all of S moved, with coefficient v^(sum of their one-step exponents +
r(r-1)/2).  Summing the r! move orders of the r-fold action gives [r]!
times that one monomial, so no division is needed.

A `TableauVector` is keyed by column tuples (`Tableau.sort_key()`), with the
`tensor.Terms` int maps as coefficients.  One kernel, `act_divided`, acts on
such a map: a move replaces column tuples, and its power of v sums the
per-column differences (i in d) - (i+1 in d); moves that meet at one tuple
add up through `ring.add_into`.  Each column's difference and moved column
come from the move table of (sign, i), `_column_moves`, a cache of one
`tensor._Table` per generator.  The kernel checks none of its arguments:
`act_E`, the one step on a `TableauVector`, and the `act` command refuse a
generator outside the shape.  The kernel is also the step of the peel-tree
walk in `bases`, whose blocks are maps of the same form.  `terms_texts` is
the one writer of the JSON of such maps (`act`, `lt-basis` and
`dual-canonical` print through it), joining each key's rows from a table of
row texts made per call, and `TableauVector.from_json` reads it back.

Tableaux and tensor basis indices correspond through one injection,
`tableau_to_index`: slot i of the index of a tableau holds the mask of the
columns that contain the entry i.  Through it the ladder evaluator in `webs`
provides the independent second route that `verify` checks the action
against.

The degree-2 Serre relation holds here with middle coefficient +(v + v^-1):
all the action matrices have nonnegative entries, which forces the positive
sign (checked in the tests).
"""

from __future__ import annotations

from functools import cache
from itertools import combinations

from .ring import LaurentPoly, ONE, add_into, exact_int
from .tableaux import Shape, Tableau
from .tensor import Index, SparseVector, Terms, _Table


class TableauVector(SparseVector):
    """A sparse vector of one shape (its space), keyed by the column tuples of tableaux."""

    __slots__ = ()

    @classmethod
    def basis_vector(cls, t: Tableau, coeff: LaurentPoly = ONE) -> "TableauVector":
        x = cls(t.shape)
        x.add_term(t.sort_key(), coeff)
        return x

    def __repr__(self) -> str:
        terms = " + ".join(f"({LaurentPoly(c)})*{Tableau.from_columns(self.space, k)}"
                           for k, c in sorted(self.coords.items(), key=lambda kc: kc[0]))
        return f"TableauVector[{terms or '0'}]"

    @classmethod
    def from_json(cls, data: dict) -> "TableauVector":
        shape = Shape(exact_int(data["N"], "N"), exact_int(data["l"], "l"))
        x, seen = cls(shape), set()
        for term in data["terms"]:
            key = Tableau.from_json({"N": shape.N, "l": shape.l, "rows": term["rows"]}).sort_key()
            if key in seen:
                raise ValueError(f"tableau {term['rows']} appears twice")
            seen.add(key)
            x.add_term(key, LaurentPoly.from_json(term["coeff"]))
        return x


# -- the action kernel --------------------------------------------------


def terms_texts(shape: Shape, maps: list[Terms]) -> list[str]:
    """The JSON text of each map keyed by column tuples, from one key table.

    Each text is `{"N": N, "l": l, "terms": [...]}` with one
    `{"coeff": [[exponent, coefficient], ...], "rows": [[...], ...]}` per key,
    as `json.dumps(..., sort_keys=True)` writes it: terms in ascending column
    tuple (descending tableau) order, exponents ascending.  The table is made
    once per distinct column tuple of the maps: the tuple's rank among them
    all, which orders the terms of each map, and the `"rows"` text that ends
    each of its terms, joined from a table of row texts (`str` of an int list
    is its JSON).
    """
    keys = sorted({k for terms in maps for k in terms})
    rank = {k: n for n, k in enumerate(keys)}
    row_text = _Table(lambda row: str(list(row)))
    rows = [', "rows": [' + ", ".join([row_text[r] for r in zip(*k)]) + "]}" for k in keys]
    head = f'{{"N": {shape.N}, "l": {shape.l}, "terms": ['
    out = []
    for terms in maps:
        parts = []
        for n in sorted(map(rank.__getitem__, terms)):
            c = terms[keys[n]]
            if len(c) == 1:
                [(e, a)] = c.items()
                coeff = f"[{e}, {a}]"
            else:
                coeff = ", ".join([f"[{e}, {a}]" for e, a in sorted(c.items())])
            parts.append(f'{{"coeff": [{coeff}]{rows[n]}')
        out.append(head + ", ".join(parts) + "]}")
    return out


@cache
def _column_moves(sign: int, i: int) -> _Table:
    """At a column d: (i in d) - (i+1 in d), and d with its source entry moved
    to the target when a step of (sign, i) can move it, else None."""
    src, dst = (i, i + 1) if sign < 0 else (i + 1, i)

    def fill(d: tuple[int, ...]) -> tuple[int, tuple[int, ...] | None]:
        dj = (i in d) - (i + 1 in d)
        return dj, tuple(dst if e == src else e for e in d) if dj == -sign else None

    return _Table(fill)


def act_divided(sign: int, i: int, r: int, terms: Terms) -> Terms:
    """The divided power (i, r) on a column map, in one pass over r-subsets of columns.

    A column d is movable when it holds the source value and not the target,
    i.e. when (i in d) - (i+1 in d) is -sign; the moved entry keeps the column
    increasing, since source and target are adjacent.  Both are read from the
    move table of (sign, i).  Its one-step shift w sums the diffs of the
    columns right of it (lowering, negated) or left of it (raising).  Moving
    the columns of an r-subset S one at a time, each step adds 2 for every
    column of S already moved on its counted side; the r! orders sum to
    v^(r(r-1)/2) [r]!, so the divided power gives S the exponent
    sum(w) + r(r-1)/2.
    """
    moves = _column_moves(sign, i)
    base = r * (r - 1) // 2
    out: Terms = {}
    for cols, c in terms.items():
        movable = []  # (position, diffs left of it, moved column)
        left = 0
        for j, d in enumerate(cols):
            dj, moved = moves[d]
            if moved is not None:
                movable.append((j, left, moved))
            left += dj
        if len(movable) < r:
            continue
        # lowering counts the columns right of j: (diffs left of j) + 1 - total
        start = base + r * (1 - left) if sign < 0 else base
        for subset in combinations(movable, r):
            key = list(cols)
            shift = start
            for j, w, moved in subset:
                key[j] = moved
                shift += w
            key = tuple(key)
            acc = out.get(key)
            if acc is None:  # an unshifted map is handed on, not copied
                out[key] = {e + shift: a for e, a in c.items()} if shift else c
            else:  # acc may be an input's map: add into a copy
                acc = dict(acc)
                add_into(acc, c, shift)
                if acc:
                    out[key] = acc
                else:
                    del out[key]
    return out


def check_generator(shape: Shape, sign: int, i: int, r: int = 1) -> None:
    """Refuse a divided power (sign, i, r) that does not act on the tableau vectors of `shape`."""
    if sign not in (-1, 1):
        raise ValueError(f"sign must be -1 or +1, got {sign!r}")
    if r < 0:
        raise ValueError("multiplicity must be nonnegative")
    if not 1 <= i <= shape.m - 1:
        raise ValueError(f"generator index {i} outside 1..{shape.m - 1}")


def act_E(sign: int, i: int, x: TableauVector) -> TableauVector:
    """Apply the generator of index i (sign -1 lowers, +1 raises)."""
    check_generator(x.space, sign, i)
    return TableauVector(x.space, act_divided(sign, i, 1, x.coords))


def weight_of_type(k: tuple[int, ...]) -> tuple[int, ...]:
    """Consecutive differences of the entry multiplicities k (length m-1)."""
    return tuple(k[j] - k[j + 1] for j in range(len(k) - 1))


# -- dictionary with tensor coordinates --------------------------------


def tableau_to_index(t: Tableau) -> Index:
    """The tensor basis index of a tableau: slot i holds the mask of the columns containing i."""
    idx = [0] * t.shape.m
    for j, col in enumerate(t.sort_key()):
        for i in col:
            idx[i - 1] |= 1 << j
    return tuple(idx)

