"""Constructions the tests build webs and vectors with; the program never needs them."""

from functools import cache
from itertools import product

from qwebs import bases, verify, webs
from qwebs.bases import LTBasisElement, dual_block, lt_block, pairing
from qwebs.howe import key_columns, tableau_key, tableau_to_index
from qwebs.ring import ONE, LaurentPoly, add_into
from qwebs.tableaux import Shape, Tableau, enumerate_tableaux, highest_tableau, tableau_type
from qwebs.tensor import Boundary, Index, ShapeMismatchError, Terms, Vector, _check_index, _mask, weight_boundary
from qwebs.webs import AnnihilatedError, Slice, Web, d_norm, ev_closed, ladder_from_word


def idx(*subsets) -> Index:
    """The tensor index whose slots hold these subsets of 1..N, slot 1 first."""
    return tuple(_mask(frozenset(s)) for s in subsets)


def key_tableau(shape: Shape, key: int) -> Tableau:
    """The tableau of a packed key."""
    return Tableau.from_columns(shape, key_columns(shape, key))


def vector(space, coeffs: dict) -> Vector:
    """The vector of a map from keys to `LaurentPoly` coefficients; a zero coefficient is dropped."""
    return Vector(space, {k: dict(c.items()) for k, c in coeffs.items() if c})


def tableau_vector(t: Tableau, coeff: LaurentPoly = ONE) -> Vector:
    """coeff times the basis vector of a tableau."""
    return vector(t.shape, {tableau_key(t): coeff})


def basis_vector(space: Boundary, idx: Index, coeff: LaurentPoly = ONE) -> Vector:
    """coeff times the basis vector of a tensor index, checked against the space."""
    _check_index(space, idx)
    return vector(space, {idx: coeff})


def polys(x: Vector) -> dict:
    """The coordinates of a vector as `LaurentPoly`s, a tableau vector's keyed by `Tableau`."""
    if isinstance(x.space, Shape):
        return {key_tableau(x.space, k): LaurentPoly(c) for k, c in x.coords.items()}
    return {k: LaurentPoly(c) for k, c in x.coords.items()}


def combine(*parts) -> Vector:
    """The sum of c * x over the (c, x) parts, c a `LaurentPoly` and x a vector.

    The vectors must share one space, and the sum is one more of them.  It
    is made on their maps through `ring.add_into`: the program makes linear
    combinations on kernel maps only, so the tests compare vectors through
    this one function.
    """
    (_, first), *_ = parts
    out: Terms = {}
    for c, x in parts:
        if x.space != first.space:
            raise ShapeMismatchError("cannot combine vectors of different spaces")
        for key, a in x.coords.items():
            acc = out.setdefault(key, {})
            for e, b in c.items():
                add_into(acc, a, e, b)
            if not acc:
                del out[key]
    return Vector(first.space, out)


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


def highest_vector(shape: Shape) -> Vector:
    """The basis vector of the highest tableau of the shape."""
    return tableau_vector(highest_tableau(shape))


def expansion(elem) -> Vector:
    """The vector of a basis element's map (an `lt_block` or `dual_block` value)."""
    return Vector(elem.tableau.shape, elem.terms)


def fresh_lt_block(N: int, l: int, ktype: tuple[int, ...]) -> dict:
    """`lt_block` as a new walk: the shape memo cleared, the block cache passed by."""
    bases.lt_memo.cache_clear()
    return lt_block.__wrapped__(N, l, ktype)


def fresh_lt_memo(monkeypatch) -> None:
    """An empty shape memo for `bases.lt_vector` for one test, so that the maps a
    corrupted kernel makes leave with the test."""
    monkeypatch.setattr(bases, "lt_memo", cache(bases.lt_memo.__wrapped__))


def lt_web(elem: LTBasisElement) -> Web:
    """The ladder web of an LT vector, its stored peel word glued bottom-up: the
    reference for the web route's images, which `verify` builds one rung at a time."""
    shape = elem.tableau.shape
    k_start = (shape.N,) * shape.l + (0,) * (shape.m - shape.l)
    word = [(-1, i, r) for i, r in reversed(elem.word)]
    return ladder_from_word(shape.N, k_start, word)


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


def tensor_product(x: Vector, y: Vector) -> Vector:
    """Concatenate boundaries, x to the left of y (y keeps the low slots)."""
    if x.space.N != y.space.N:
        raise ShapeMismatchError("tensor factors over different N")
    space = Boundary(x.space.N, y.space.factors + x.space.factors)
    return vector(space, {iy + ix: LaurentPoly(cx) * LaurentPoly(cy)
                          for ix, cx in x.coords.items() for iy, cy in y.coords.items()})


def to_tensor(x: Vector) -> Vector:
    """Read a single-type tableau vector in tensor coordinates."""
    tableaux = polys(x)
    types = {tableau_type(t) for t in tableaux}
    if len(types) != 1:
        raise ValueError("tensor coordinates need a vector of a single type")
    space = weight_boundary(x.space.N, next(iter(types)))
    return vector(space, {tableau_to_index(t): c for t, c in tableaux.items()})


def reference_check_howe(pairs, a_max: int = 2) -> verify.Report:
    """`verify.check_howe` one (type, rung) group at a time, the group's n-th
    key tagged n, with one check per (tableau, rung): the reference for the
    shape-wide sweep, whose failures it lists in the same order.  The kernels
    are read as `verify.act_divided` and `webs.web_matrix` at call time, so a
    fault patched in there reaches both."""
    rep = verify.Report("ladder action matches the tableau action")
    for N, l in pairs:
        shape = Shape(N, l)
        m = shape.m
        width = N * m
        by_type: dict = {}
        by_index = {}  # tensor index -> packed key, inverting tableau_to_index
        for t in enumerate_tableaux(shape):
            idx = tableau_to_index(t)
            by_index[idx] = key = tableau_key(t)
            by_type.setdefault(tableau_type(t), []).append((t, key, idx))
        rungs = list(product(range(1, m), (+1, -1), range(1, a_max + 1)))
        one = {0: 1}
        for k, group in by_type.items():
            tagged = {key | n << width: one for n, (_, key, _) in enumerate(group)}
            indices = [idx for _, _, idx in group]
            for i, sign, a in rungs:
                try:
                    web = ladder_from_word(N, k, [(sign, i, a)])
                except AnnihilatedError:
                    web = None
                by_tabs: list[Terms] = [{} for _ in group]
                for moved, c in verify.act_divided(shape, sign, i, a, tagged).items():
                    by_tabs[moved >> width][moved & (1 << width) - 1] = c
                images = webs.web_matrix(web, indices) if web is not None else {}
                for (t, _, idx), tabs in zip(group, by_tabs):
                    if web is None:
                        rep.check(
                            not tabs,
                            "annihilated ladder but nonzero action at {}, sign={}, i={}, a={}",
                            t, sign, i, a,
                        )
                        continue
                    by_web = {by_index.get(image, image): c for image, c in images[idx].items()}
                    rep.check(by_web == tabs, "routes disagree at {}, sign={}, i={}, a={}", t, sign, i, a)
    return rep
