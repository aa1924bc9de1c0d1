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

A tableau map is keyed by one int per tableau, its packed key
(`tableau_key`): column j is an m-bit field, the leftmost column the most
significant, and the entry e of a column is the field's bit m - e.  Read
left to right, the key's N*m binary digits name the entries 1..m of each
column in turn.  Of two columns of l entries, the one with the smaller entry
at the first place they differ holds the least entry of their symmetric
difference, the higher bit, so the int order is the tableau order: a larger
key is a larger tableau, and ascending `Tableau.sort_key` is descending key.
`key_columns` decodes a key.  Such a map is a `tensor.Terms` map, with int
maps as coefficients.

One kernel, `act_divided`, acts on such a map, on all N columns of a key at
once: one shift and one mask with the lowest bit of every field
(`_column_ones`) mark the columns that hold i, another those that hold i+1,
a move flips the two adjacent bits of i and i+1 in the moved columns, and an
exponent is a popcount; moves that meet at one key add up through
`ring.add_into`.  The kernel checks none of its arguments: `act_E`, the one
step on a `tensor.Vector` that the benchmark's tracer wraps, and the `act`
command refuse a generator outside the shape.  The kernel is also the step
of `bases.lt_vector`, whose memo, one per shape and keyed by rows, holds a
map of this form for every tableau its calls have reached under the peel
step, until `lt-basis` or `dual-canonical` clears it after a block's walk
or the benchmark before an op.
Such maps meet JSON only at the command-line edge: `terms_texts` is the one
writer (`act`, `lt-basis` and `dual-canonical` print through it), decoding
each distinct key once, and `read_tableau_vector` reads a vector's JSON back
to (shape, map).  A key is N*m bits, so `check_key_bits` refuses, before any
work, keys of more than MAX_KEY_WIDTH bits and maps whose keys could hold
more than MAX_KEY_BITS bits.

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

from .ring import LaurentPoly, add_into, exact_int
from .tableaux import Shape, Tableau
from .tensor import Index, Terms, Vector, _Table


def tableau_key(t: Tableau) -> int:
    """The packed key of a tableau: its binary text has a 1 at j*m + e - 1 when column j holds e."""
    N, m = t.shape.N, t.shape.m
    bits = bytearray(b"0") * (N * m)
    for row in t.rows:
        for j, e in enumerate(row):
            bits[j * m + e - 1] = 49  # "1"
    return int(bits, 2)


def key_columns(shape: Shape, key: int) -> list[tuple[int, ...]]:
    """The columns of a packed key, left to right, each read top to bottom."""
    m, n = shape.m, shape.N * shape.m
    bits = bin(key)[2:].zfill(n)
    return [_column(bits[p : p + m]) for p in range(0, n, m)]


@cache
def _column(digits: str) -> tuple[int, ...]:
    """The column whose field has these m binary digits: e is in it when digit e is 1."""
    return tuple(e for e, d in enumerate(digits, 1) if d == "1")


# A key of more than MAX_KEY_WIDTH bits is refused, whatever the map holds:
# (1024, 1), at N*m = 2^20 bits, is the widest shape a map may have.  A map
# whose keys could hold more than MAX_KEY_BITS bits, 128 MB, is refused too:
# the 1,024 tableaux of shape (1024, 1) and type 1023,1,0,... hold exactly
# 2^30 bits; that type at N = 2048 or 4096 would hold 2^33 or 2^36.
MAX_KEY_WIDTH = 2**20
MAX_KEY_BITS = 2**30


def check_key_bits(shape: Shape, count: int) -> None:
    """Refuse keys of the shape, N*m bits each, over MAX_KEY_WIDTH, or maps of up to
    `count` of them over MAX_KEY_BITS."""
    width = shape.N * shape.m
    if count * width > MAX_KEY_BITS:
        raise ValueError(f"{count} tableau keys of shape ({shape.N}, {shape.l}), "
                         f"{width} bits each, exceed the limit of {MAX_KEY_BITS} bits")
    if width > MAX_KEY_WIDTH:
        raise ValueError(f"a tableau key of shape ({shape.N}, {shape.l}) is {width} bits, "
                         f"over the limit of {MAX_KEY_WIDTH} bits")


def read_tableau_vector(data: dict) -> tuple[Shape, Terms]:
    """The shape and map of a tableau vector's JSON, as `terms_texts` writes it.

    The key bits of the terms are checked before any key is built; a
    tableau may appear once, and a term whose coefficient is zero is dropped.
    """
    shape = Shape(exact_int(data["N"], "N"), exact_int(data["l"], "l"))
    check_key_bits(shape, len(data["terms"]))
    terms: Terms = {}
    for term in data["terms"]:
        key = tableau_key(Tableau.from_json({"N": shape.N, "l": shape.l, "rows": term["rows"]}))
        if key in terms:
            raise ValueError(f"tableau {term['rows']} appears twice")
        terms[key] = dict(LaurentPoly.from_json(term["coeff"]).items())
    return shape, {key: c for key, c in terms.items() if c}


# -- the action kernel --------------------------------------------------


def terms_texts(shape: Shape, maps: list[Terms]) -> list[str]:
    """The JSON text of each map keyed by packed keys, from one key table.

    Each text is `{"N": N, "l": l, "terms": [...]}` with one
    `{"coeff": [[exponent, coefficient], ...], "rows": [[...], ...]}` per key,
    as `json.dumps(..., sort_keys=True)` writes it: terms in ascending column
    tuple (descending key) order, exponents ascending.  The table is made
    once per distinct key of the maps: the key's rank among them all, which
    orders the terms of each map, and the `"rows"` text that ends each of its
    terms, from the key's decoded columns and a table of row texts (`str` of
    an int list is its JSON).
    """
    keys = sorted({k for terms in maps for k in terms}, reverse=True)
    rank = {k: n for n, k in enumerate(keys)}
    row_text = _Table(lambda row: str(list(row)))
    rows = [', "rows": [' + ", ".join([row_text[r] for r in zip(*key_columns(shape, k))]) + "]}"
            for k in keys]
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
def _column_ones(N: int, m: int) -> int:
    """The key of N fields of m bits with the lowest bit of every field set."""
    return ((1 << N * m) - 1) // ((1 << m) - 1)


def act_divided(shape: Shape, sign: int, i: int, r: int, terms: Terms) -> Terms:
    """The divided power (i, r) on a map of packed keys of `shape`, on all columns at once.

    With lo = m - i - 1, the bit of i + 1 in each field (i sits one bit
    higher), A = key >> lo + 1 & ones marks the columns that hold i and
    B = key >> lo & ones those that hold i + 1.  The columns a step can move
    are A & ~B when lowering and B & ~A when raising; moving the column of
    bit b flips its bits of i and i + 1, so the move is key ^ (b * 3 << lo),
    and the entry moved stays between its neighbours.  A one-step exponent
    counts the columns right of b (lower bits) when lowering, B minus A below
    b, and left of it when raising, A minus B above b, which is
    pop(A) - pop(B) + 1 less (A minus B below b), as b is in B and not in A.
    Moving the columns of an r-subset S one at a time, each step adds 2 for
    every column of S already moved on its counted side; the r! orders sum
    to v^(r(r-1)/2) [r]!, so the divided power gives S the exponent
    sum(w) + r(r-1)/2.

    The moves depend on the key only through its bits of i and i + 1,
    key >> lo & 3 * ones, so they are worked out once per call for each
    such pattern: (the bits a move flips, its exponent) for each r-subset,
    and for r = 1 each movable column in turn.  Bits of a key above its N*m
    are neither read nor flipped, so a tag there rides through to the image.
    """
    if not terms:
        return {}
    m = shape.m
    ones = _column_ones(shape.N, m)
    both = 3 * ones
    lo = m - i - 1
    base = r * (r - 1) // 2
    moves: dict[int, list] = {}  # pattern -> [(bits flipped, exponent), ...]
    out: Terms = {}
    for key, c in terms.items():
        pattern = key >> lo & both
        flips = moves.get(pattern)
        if flips is None:
            A, B = pattern >> 1 & ones, pattern & ones
            if sign < 0:
                movable, top = A & ~B, 0
            else:
                movable, top = B & ~A, A.bit_count() - B.bit_count() + 1
            flips = []
            while movable:
                b = movable & -movable
                movable ^= b
                flips.append((b * 3 << lo, top + (B & b - 1).bit_count() - (A & b - 1).bit_count()))
            if r != 1:
                flips = [(sum(x for x, _ in s), base + sum(w for _, w in s)) for s in combinations(flips, r)]
            moves[pattern] = flips
        for x, shift in flips:
            moved = key ^ x
            acc = out.get(moved)
            if acc is None:  # an unshifted map is handed on, not copied
                out[moved] = {e + shift: a for e, a in c.items()} if shift else c
            else:  # acc may be an input's map: add into a copy
                acc = dict(acc)
                add_into(acc, c, shift)
                if acc:
                    out[moved] = acc
                else:
                    del out[moved]
    return out


def check_generator(shape: Shape, sign: int, i: int, r: int = 1) -> None:
    """Refuse a divided power (sign, i, r) that does not act on the tableau vectors of `shape`."""
    if sign not in (-1, 1):
        raise ValueError(f"sign must be -1 or +1, got {sign!r}")
    if r < 0:
        raise ValueError("multiplicity must be nonnegative")
    if not 1 <= i <= shape.m - 1:
        raise ValueError(f"generator index {i} outside 1..{shape.m - 1}")


def act_E(sign: int, i: int, x: Vector) -> Vector:
    """Apply the generator of index i (sign -1 lowers, +1 raises) to a vector of a shape."""
    check_generator(x.space, sign, i)
    return Vector(x.space, act_divided(x.space, sign, i, 1, x.coords))


def weight_of_type(k: tuple[int, ...]) -> tuple[int, ...]:
    """Consecutive differences of the entry multiplicities k (length m-1)."""
    return tuple(k[j] - k[j + 1] for j in range(len(k) - 1))


# -- dictionary with tensor coordinates --------------------------------


def tableau_to_index(t: Tableau) -> Index:
    """The tensor basis index of a tableau: slot i holds the mask of the columns containing i."""
    idx = [0] * t.shape.m
    for row in t.rows:
        for j, e in enumerate(row):
            idx[e - 1] |= 1 << j
    return tuple(idx)
