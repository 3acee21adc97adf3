"""Potentials written as expressions in the coordinates z0, z1.

An expression is parsed against a whitelist (numbers, the coordinates, + - * /
**, unary minus, a few numpy functions) into an evaluator; nothing is passed
to eval.  Its constants c0 and c1 and the point y* where V on Y is least are
estimated by dense sampling.  Only a config of kind ``expression`` loads this
module.
"""

from __future__ import annotations

import ast
import operator
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .potential import PotentialSpec, split_axes

if TYPE_CHECKING:
    from numpy.typing import NDArray

# the whole grammar of a potential expression besides numbers and z0, z1
_BINARY_OPS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
    ast.Pow: operator.pow,
}
_FUNCTIONS = {"abs": np.abs} | {
    f"np.{name}": getattr(np, name) for name in ("sqrt", "exp", "log", "sin", "cos", "tanh", "arctan", "abs")
}


def compile_expression(expr: str, dim: int) -> Callable[[tuple], NDArray]:
    """Parse a potential expression against a whitelist into an evaluator.

    Allowed are numeric literals, the coordinates z0 .. z{dim-1}, + - * / **,
    unary minus and one-argument calls of the functions in ``_FUNCTIONS``;
    anything else raises ValueError, and nothing is passed to eval.  The
    evaluator maps the coordinate arrays through the operator functions
    Python arithmetic uses, so it returns the values of the expression
    written as Python code, bit for bit.
    """
    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError as err:
        raise ValueError(f"expression {expr!r} is not valid syntax: {err.msg}") from None
    coordinates = {f"z{k}": k for k in range(dim)}

    def build(node: ast.expr):
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
            return lambda z, c=node.value: c
        if isinstance(node, ast.Name) and node.id in coordinates:
            return lambda z, k=coordinates[node.id]: z[k]
        if isinstance(node, ast.BinOp) and type(node.op) in _BINARY_OPS:
            op, left, right = _BINARY_OPS[type(node.op)], build(node.left), build(node.right)
            return lambda z: op(left(z), right(z))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            operand = build(node.operand)
            return lambda z: -operand(z)
        # the callee is looked up by its source text, never evaluated
        fn = _FUNCTIONS.get(ast.unparse(node.func)) if isinstance(node, ast.Call) else None
        if fn is not None and len(node.args) == 1 and not node.keywords:
            arg = build(node.args[0])
            return lambda z: fn(arg(z))
        raise ValueError(f"expression {expr!r}: {ast.unparse(node)!r} is not allowed")

    return build(tree.body)


# c0 and c1 of an expression potential: sampled over [-20, 20]^dim with at
# most 20001 points in all; y* on the Y line over [-20, 20], 20001 points
_EXPR_BOX_RADIUS = 20.0
_EXPR_SAMPLES = 20001


def expression_potential(expr: str, dim: int, x_axes, lam: float = 0.5) -> PotentialSpec:
    """Potential from an expression in z0, z1 (e.g. "1 + z0**2/(1+abs(z0))").

    ``expr`` must be a string that :func:`compile_expression` accepts (a
    ValueError otherwise).  c0 and c1 are estimated by dense sampling over
    the box of radius ``_EXPR_BOX_RADIUS`` (the integer dim-th root of
    ``_EXPR_SAMPLES`` points per axis), within the sampling resolution.  y* is the least of ``_EXPR_SAMPLES`` samples of V
    on a one-axis Y line, if below V(0) beyond rounding, else the origin.
    """
    if not isinstance(expr, str):
        raise ValueError("expr must be a string for kind=expression")
    x_axes, y_axes = split_axes(dim, x_axes)
    try:
        formula = compile_expression(expr, dim)
    except ValueError as err:
        raise ValueError(f"expr: {err}") from None

    def _eval(z: Sequence[NDArray]) -> NDArray:
        # float arrays: a scalar coordinate then divides and powers as an array does
        z = [np.asarray(x, dtype=float) for x in z]
        return np.broadcast_to(np.asarray(formula(z), dtype=float), np.broadcast(*z).shape)

    side = round(_EXPR_SAMPLES ** (1.0 / dim))  # the integer dim-th root of _EXPR_SAMPLES
    if side**dim > _EXPR_SAMPLES:
        side -= 1
    box = np.ix_(*[np.linspace(-_EXPR_BOX_RADIUS, _EXPR_BOX_RADIUS, side)] * dim)
    c0 = float(np.min(_eval(box)))
    c1 = float(np.max(_eval([0.0 if k in y_axes else x for k, x in enumerate(box)])))
    line = np.linspace(-_EXPR_BOX_RADIUS, _EXPR_BOX_RADIUS, _EXPR_SAMPLES)
    v = _eval([line if k in y_axes else 0.0 for k in range(dim)])
    v0 = float(_eval([0.0] * dim))
    low = len(y_axes) == 1 and np.min(v) < v0 - 1e-12 * max(1.0, abs(v0))
    y_star = [line[np.argmin(v)] if k in y_axes else 0.0 for k in range(dim)] if low else ()
    return PotentialSpec(dim, x_axes, y_axes, lam, _eval, kind="expression", c0=c0, c1=max(c1, c0), y_star=y_star)
