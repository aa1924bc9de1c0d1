"""Constructions the tests build webs and vectors with; the program never needs them."""

from qwebs.howe import TableauVector, tableau_to_index
from qwebs.tableaux import tableau_type
from qwebs.tensor import Boundary, ShapeMismatchError, TensorVector, weight_boundary
from qwebs.webs import Web, validate


def compose(first: Web, then: Web) -> Web:
    """Stack `then` on top of `first`."""
    if validate(first) != then.domain:
        raise ShapeMismatchError("codomain of the first web does not match")
    return Web(first.domain, first.slices + then.slices)


def tensor_product(x: TensorVector, y: TensorVector) -> TensorVector:
    """Concatenate boundaries, x to the left of y (y keeps the low slots)."""
    if x.space.N != y.space.N:
        raise ShapeMismatchError("tensor factors over different N")
    space = Boundary(x.space.N, y.space.factors + x.space.factors)
    out = TensorVector(space)
    for ix, cx in x.coords.items():
        for iy, cy in y.coords.items():
            out.add_term(iy + ix, cx * cy)
    return out


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
