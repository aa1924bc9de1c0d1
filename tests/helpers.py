"""Constructions the tests build webs and vectors with; the program never needs them."""

from qwebs.bases import dual_block, lt_block, pairing
from qwebs.howe import TableauVector, key_columns, tableau_key, tableau_to_index
from qwebs.ring import ONE, LaurentPoly, add_into
from qwebs.tableaux import Shape, Tableau, highest_tableau, tableau_type
from qwebs.tensor import (Boundary, Index, ShapeMismatchError, TensorVector, Terms, _check_index, _mask,
                          weight_boundary)
from qwebs.webs import Slice, Web, d_norm, ev_closed


def idx(*subsets) -> Index:
    """The tensor index whose slots hold these subsets of 1..N, slot 1 first."""
    return tuple(_mask(frozenset(s)) for s in subsets)


def key_tableau(shape: Shape, key: int) -> Tableau:
    """The tableau of a packed key."""
    return Tableau.from_columns(shape, key_columns(shape, key))


def tableau_vector(t: Tableau, coeff: LaurentPoly = ONE) -> TableauVector:
    """coeff times the basis vector of a tableau."""
    x = TableauVector(t.shape)
    x.add_term(tableau_key(t), coeff)
    return x


def basis_vector(space: Boundary, idx: Index, coeff: LaurentPoly = ONE) -> TensorVector:
    """coeff times the basis vector of a tensor index, checked against the space."""
    _check_index(space, idx)
    x = TensorVector(space)
    x.add_term(idx, coeff)
    return x


def polys(x) -> dict:
    """The coordinates of a vector as `LaurentPoly`s, a tableau vector's keyed by `Tableau`."""
    if isinstance(x, TableauVector):
        return {key_tableau(x.space, k): LaurentPoly(c) for k, c in x.coords.items()}
    return {k: LaurentPoly(c) for k, c in x.coords.items()}


def combine(*parts):
    """The sum of c * x over the (c, x) parts, c a `LaurentPoly` and x a vector.

    The vectors must share one type and space, and the sum is one more of
    them.  It is made on their maps through `ring.add_into`: the program
    makes linear combinations on kernel maps only, so the tests compare
    vectors through this one function.
    """
    (_, first), *_ = parts
    out: Terms = {}
    for c, x in parts:
        if type(x) is not type(first) or x.space != first.space:
            raise ShapeMismatchError("cannot combine vectors of different spaces")
        for key, a in x.coords.items():
            acc = out.setdefault(key, {})
            for e, b in c.items():
                add_into(acc, a, e, b)
            if not acc:
                del out[key]
    return type(first)(first.space, out)


def terms_json(shape: Shape, terms: Terms) -> dict:
    """The JSON of a map keyed by packed keys, as dicts: the reference for `howe.terms_texts`."""
    tableaux = sorted((key_tableau(shape, k).sort_key(), k) for k in terms)
    return {"N": shape.N, "l": shape.l, "terms": [
        {"rows": list(zip(*cols)), "coeff": sorted(terms[k].items())} for cols, k in tableaux
    ]}


def reference_gram(N: int, l: int, ktype: tuple[int, ...], basis: str) -> tuple:
    """The entries of `bases.gram_matrix`, each ordered pair paired on its own:
    the reference for the matrix that pairs each unordered pair once."""
    block = lt_block(N, l, ktype) if basis == "lt" else dual_block(N, l, ktype)
    maps = [e.terms for e in block.values()]
    return tuple(tuple(pairing(x, y) for y in maps) for x in maps)


def highest_vector(shape: Shape) -> TableauVector:
    """The basis vector of the highest tableau of the shape."""
    return tableau_vector(highest_tableau(shape))


def expansion(elem) -> TableauVector:
    """The vector of a basis element's map (an `lt_block` or `dual_block` value)."""
    return TableauVector(elem.tableau.shape, elem.terms)


def compose(first: Web, then: Web) -> Web:
    """Stack `then` on top of `first`."""
    if first.codomain != then.domain:
        raise ShapeMismatchError("codomain of the first web does not match")
    return Web(first.domain, first.slices + then.slices)


_MIRRORS = {
    "merge": lambda s: Slice("split", s.pos, s.a, s.b),
    "split": lambda s: Slice("merge", s.pos, s.a, s.b),
    "cup": lambda s: Slice("cap", s.pos, s.a),
    "cap": lambda s: Slice("cup", s.pos, s.a),
    "tag": lambda s: Slice("tag", s.pos, s.a, side="right" if s.side == "left" else "left"),
    "id": lambda s: s,
}


def reflect(web: Web) -> Web:
    """Reflection across the horizontal axis: slices reversed, each mirrored (turned upside down)."""
    return Web(web.codomain, tuple(_MIRRORS[s.kind](s) for s in reversed(web.slices)))


def mirror_pass_form(u: Web, w: Web) -> LaurentPoly:
    """v^d(k) * ev(reflect(u) o w), with reflect(u) run on w's image: the reference for
    `webs.web_form`, which pairs u's co-image with w's image and builds no mirrored web."""
    closed = compose(w, reflect(u))
    N, cod = closed.domain.N, w.codomain
    l = sum(1 for f in closed.domain.factors if f.color == N)
    return ev_closed(closed).shift(d_norm(N, l, tuple(f.color for f in cod.factors)))


def index_to_tableau(shape: Shape, idx: Index) -> Tableau:
    """Inverse of tableau_to_index; each column must receive exactly l entries."""
    cols = [[i for i, S in enumerate(idx, start=1) if S >> j & 1] for j in range(shape.N)]
    if any(len(c) != shape.l for c in cols):
        raise ValueError("indicator vectors do not fill the shape")
    return Tableau.from_columns(shape, cols)


def tensor_product(x: TensorVector, y: TensorVector) -> TensorVector:
    """Concatenate boundaries, x to the left of y (y keeps the low slots)."""
    if x.space.N != y.space.N:
        raise ShapeMismatchError("tensor factors over different N")
    space = Boundary(x.space.N, y.space.factors + x.space.factors)
    out = TensorVector(space)
    for ix, cx in x.coords.items():
        for iy, cy in y.coords.items():
            for e, a in cy.items():
                out.add_term(iy + ix, cx, e, a)
    return out


def to_tensor(x: TableauVector) -> TensorVector:
    """Read a single-type tableau vector in tensor coordinates."""
    tableaux = {key_tableau(x.space, k): c for k, c in x.coords.items()}
    types = {tableau_type(t) for t in tableaux}
    if len(types) != 1:
        raise ValueError("tensor coordinates need a vector of a single type")
    space = weight_boundary(x.space.N, next(iter(types)))
    out = TensorVector(space)
    for t, c in tableaux.items():
        out.add_term(tableau_to_index(t), c)
    return out
