"""Reverse-mode differentiation over batched dense arrays.

Every primitive is one entry of :data:`PRIMITIVES`: a forward over float64
arrays with any number of leading batch axes, broadcast by numpy's rules,
and a vector-Jacobian product that maps the output gradient back to each
operand's own shape, summing over the axes the forward broadcast. The model
runs on (B, T, D) token tensors, with attention heads as one more batch
axis, (B, H, T, d_h), so one node covers a whole batch.

A :class:`Tape` records primitive applications in topological order; each
node keeps its forward value, its inputs and its vector-Jacobian product.
The tape-free :class:`Eager` backend calls the same forwards directly, so a
recorded forward is bitwise identical to an unrecorded one by construction.
A parameter is a single leaf node: reusing it at many graph sites (shared
projections, a transposed twin) or broadcasting it over a batch accumulates
every contribution into one gradient.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import kernel
from .errors import GraphError, ShapeError


def _as_array(value) -> np.ndarray:
    return np.ascontiguousarray(value, dtype=np.float64)


def _swap(a: np.ndarray) -> np.ndarray:
    return np.swapaxes(a, -1, -2)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``g`` over the axes a forward broadcast an operand of ``shape`` along."""
    if g.shape == shape:
        return g
    lead = g.ndim - len(shape)
    axes = tuple(range(lead)) + tuple(
        lead + i for i, n in enumerate(shape) if n == 1 and g.shape[lead + i] != 1
    )
    return g.sum(axis=axes).reshape(shape)


# -- primitives: forward(*operands, *static) and vjp(g, out, *operands, *static)


def _matmul_vjp(g, out, a, b):
    ga = _unbroadcast(g @ _swap(b), a.shape)
    if b.ndim == 2:  # one weight for every row of the batch: a single GEMM over all rows
        return ga, a.reshape(-1, a.shape[-1]).T @ g.reshape(-1, g.shape[-1])
    return ga, _unbroadcast(_swap(a) @ g, b.shape)


def _add(a, b):
    try:
        return a + b
    except ValueError:
        raise ShapeError(f"add shape mismatch: {a.shape} + {b.shape}") from None


def _add_vjp(g, out, a, b):
    return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)


def _layernorm_vjp(g, out, a, gamma, beta, eps):
    mu = a.mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(((a - mu) ** 2).mean(axis=-1, keepdims=True) + eps)
    xhat = (a - mu) * inv_std
    gg = g * gamma.reshape(-1)
    gx = inv_std * (
        gg
        - gg.mean(axis=-1, keepdims=True)
        - xhat * (gg * xhat).mean(axis=-1, keepdims=True)
    )
    width = a.shape[-1]
    dgamma = (g * xhat).reshape(-1, width).sum(axis=0).reshape(gamma.shape)
    dbeta = g.reshape(-1, width).sum(axis=0).reshape(beta.shape)
    return gx, dgamma, dbeta


def _softmax_vjp(g, out, a):
    return ((g - (g * out).sum(axis=-1, keepdims=True)) * out,)


def _concat_tokens(*parts):
    """Join token blocks (..., T_i, D) along the token axis, broadcasting batch axes."""
    lead = np.broadcast_shapes(*(p.shape[:-2] for p in parts))
    return np.concatenate([np.broadcast_to(p, lead + p.shape[-2:]) for p in parts], axis=-2)


def _concat_tokens_vjp(g, out, *parts):
    bounds = np.cumsum([p.shape[-2] for p in parts])[:-1]
    pieces = np.split(g, bounds, axis=-2)
    return tuple(_unbroadcast(piece, p.shape) for piece, p in zip(pieces, parts))


def _slice_tokens(a, index):
    """Token ``index`` (an int drops the token axis) or tokens ``index`` (a slice)."""
    return a[..., index, :]


def _slice_tokens_vjp(g, out, a, index):
    full = np.zeros(a.shape)
    full[..., index, :] = g
    return (full,)


def _split_heads(a, heads):
    """(..., T, D) -> (..., H, T, D/H): head h holds columns [h D/H, (h+1) D/H)."""
    *lead, tokens, width = a.shape
    if width % heads:
        raise ShapeError(f"width {width} does not split into {heads} heads")
    return np.swapaxes(a.reshape(*lead, tokens, heads, width // heads), -2, -3)


def _merge_heads(a):
    """(..., H, T, d) -> (..., T, H d), the inverse of :func:`_split_heads`."""
    *lead, heads, tokens, width = a.shape
    return np.swapaxes(a, -2, -3).reshape(*lead, tokens, heads * width)


def _col_scale(a, c):
    """a * c over the last axis: multiplies feature j by c[..., j]."""
    row = c.reshape(-1)
    if row.shape[0] != a.shape[-1]:
        raise ShapeError(f"col_scale width mismatch: {a.shape} vs {c.shape}")
    return a * row


def _col_scale_vjp(g, out, a, c):
    row = c.reshape(-1)
    return g * row, (g * a).reshape(-1, row.shape[0]).sum(axis=0).reshape(c.shape)


def _mul_mask(a, mask):
    """Elementwise product with a fixed mask (an input, so backward is exact)."""
    if mask.shape != a.shape:
        raise ShapeError(f"mask shape {mask.shape} does not match {a.shape}")
    return a * mask


def _cross_entropy(logits, labels):
    return np.array([[kernel.cross_entropy(logits, labels)]])


def _cross_entropy_vjp(g, out, logits, labels):
    n = logits.shape[0]
    d = kernel.softmax_rows(logits)
    d[np.arange(n), np.asarray(labels)] -= 1.0
    return (d * (g[0, 0] / n),)


class Primitive(NamedTuple):
    """One differentiable operation.

    ``forward(*operands, *static)`` computes the value; ``vjp(g, out,
    *operands, *static)`` returns one gradient per operand. ``operands``
    is the number of leading differentiable arguments (None: all of them).
    """

    forward: Callable
    vjp: Callable
    operands: int | None


PRIMITIVES: dict[str, Primitive] = {
    "matmul": Primitive(kernel.matmul, _matmul_vjp, 2),
    "add": Primitive(_add, _add_vjp, 2),
    "scale": Primitive(lambda a, c: a * c, lambda g, out, a, c: (g * c,), 1),
    "transpose": Primitive(lambda a: np.ascontiguousarray(_swap(a)),
                           lambda g, out, a: (_swap(g),), 1),
    "layernorm": Primitive(kernel.layernorm, _layernorm_vjp, 3),
    "softmax_rows": Primitive(kernel.softmax_rows, _softmax_vjp, 1),
    "gelu": Primitive(kernel.gelu, lambda g, out, a: (g * kernel.gelu_grad(a),), 1),
    "concat_tokens": Primitive(_concat_tokens, _concat_tokens_vjp, None),
    "slice_tokens": Primitive(_slice_tokens, _slice_tokens_vjp, 1),
    "split_heads": Primitive(_split_heads, lambda g, out, a, heads: (_merge_heads(g),), 1),
    "merge_heads": Primitive(_merge_heads,
                             lambda g, out, a: (_split_heads(g, a.shape[-3]),), 1),
    "col_scale": Primitive(_col_scale, _col_scale_vjp, 2),
    "mul_mask": Primitive(_mul_mask, lambda g, out, a, mask: (g * mask,), 1),
    "mean": Primitive(lambda a: np.array([[a.mean()]]),
                      lambda g, out, a: (np.full(a.shape, g[0, 0] / a.size),), 1),
    "cross_entropy": Primitive(_cross_entropy, _cross_entropy_vjp, 1),
}


@dataclass(frozen=True)
class Var:
    """Handle to one tape node."""

    tape: "Tape"
    idx: int

    @property
    def value(self) -> np.ndarray:
        return self.tape._nodes[self.idx].value

    @property
    def shape(self):
        return self.value.shape


class _Node(NamedTuple):
    value: np.ndarray
    needs_grad: bool  # a trainable parameter, or computed from one
    parents: tuple[int, ...] = ()
    inputs: tuple = ()  # operand values, then static arguments
    vjp: Callable | None = None  # None for leaves and nodes that need no gradient


@dataclass
class _Param:
    idx: int
    trainable: bool


class Tape:
    """Append-only record of a forward computation plus a parameter registry.

    Every entry of :data:`PRIMITIVES` is a method taking :class:`Var`
    operands and returning a :class:`Var`.
    """

    def __init__(self):
        self._nodes: list[_Node] = []
        self._params: dict[str, _Param] = {}

    def parameter(self, name: str, value: np.ndarray, trainable: bool = True) -> Var:
        if name in self._params:
            raise GraphError(f"parameter {name!r} registered twice")
        var = self._leaf(value, trainable)
        self._params[name] = _Param(var.idx, trainable)
        return var

    def constant(self, value) -> Var:
        return self._leaf(value, False)

    def _leaf(self, value, needs_grad: bool) -> Var:
        self._nodes.append(_Node(_as_array(value), needs_grad))
        return Var(self, len(self._nodes) - 1)

    def _check(self, operands):
        for p in operands:
            if not isinstance(p, Var) or p.tape is not self:
                raise GraphError(
                    "operand is not a node of this tape; wrap arrays via constant()/parameter()"
                )


class Eager:
    """Tape-free backend: every entry of :data:`PRIMITIVES` is its forward on plain arrays."""

    constant = staticmethod(_as_array)


def _recorder(name: str, prim: Primitive):
    def record(self: Tape, *args) -> Var:
        operands = args if prim.operands is None else args[: prim.operands]
        self._check(operands)
        nodes = self._nodes
        inputs = tuple(nodes[v.idx].value for v in operands) + args[len(operands):]
        needs_grad = any(nodes[v.idx].needs_grad for v in operands)
        nodes.append(_Node(prim.forward(*inputs), needs_grad, tuple(v.idx for v in operands),
                           inputs, prim.vjp if needs_grad else None))
        return Var(self, len(nodes) - 1)

    record.__name__ = name
    record.__doc__ = prim.forward.__doc__
    return record


for _name, _prim in PRIMITIVES.items():
    setattr(Tape, _name, _recorder(_name, _prim))
    setattr(Eager, _name, staticmethod(_prim.forward))


def backward(tape: Tape, out: Var) -> dict[str, np.ndarray]:
    """Accumulated gradients of a scalar output for every touched trainable.

    Visits nodes exactly once in reverse topological (id) order. A parameter
    used at several sites receives the sum of all site contributions.
    Frozen parameters never appear in the result, and nodes no trainable
    parameter feeds are never differentiated.
    """
    if out.tape is not tape:
        raise GraphError("output node does not belong to this tape")
    if out.value.shape != (1, 1):
        raise GraphError(f"backward needs a scalar output, got shape {out.value.shape}")
    nodes = tape._nodes
    grads: dict[int, np.ndarray] = {out.idx: np.ones((1, 1))}
    for idx in range(out.idx, -1, -1):
        node = nodes[idx]
        if node.vjp is None:
            continue
        g = grads.pop(idx, None)
        if g is None:
            continue
        for parent, pg in zip(node.parents, node.vjp(g, node.value, *node.inputs)):
            if not nodes[parent].needs_grad:
                continue
            if parent in grads:
                # out-of-place: a vjp may hand back views or shared buffers
                grads[parent] = grads[parent] + pg
            else:
                grads[parent] = pg
    return {
        name: grads[p.idx]
        for name, p in tape._params.items()
        if p.trainable and p.idx in grads
    }


@dataclass
class GradCheckReport:
    """Per-parameter max relative error between analytic and central differences."""

    errors: dict[str, float]
    tol: float
    h: float

    @property
    def max_rel_err(self) -> float:
        return max(self.errors.values(), default=0.0)

    @property
    def passed(self) -> bool:
        return self.max_rel_err <= self.tol

    def summary(self) -> str:
        lines = [
            f"{name}: rel_err={err:.3e} {'ok' if err <= self.tol else 'FAIL'}"
            for name, err in sorted(self.errors.items())
        ]
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(f"gradcheck {verdict}: max rel err {self.max_rel_err:.3e} (tol {self.tol:g})")
        return "\n".join(lines)


def gradcheck(build, params: dict[str, np.ndarray], h: float = 1e-5, tol: float = 1e-5) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    ``build(tape, values)`` must register each entry of ``values`` it uses
    via ``tape.parameter(name, values[name], trainable=True)`` and return a
    scalar loss node, deterministically for fixed values. The relative error
    per entry uses denominator max(|analytic|, |numeric|, 1e-8). A parameter
    the loss never touches counts as an exact zero gradient.
    """
    tape = Tape()
    out = build(tape, params)
    analytic = backward(tape, out)

    def loss_at(values) -> float:
        t = Tape()
        o = build(t, values)
        return float(o.value[0, 0])

    errors: dict[str, float] = {}
    for name, base in params.items():
        ana = analytic.get(name, np.zeros_like(base))
        num = np.zeros_like(base)
        work = {k: (v.copy() if k == name else v) for k, v in params.items()}
        flat = work[name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            f_plus = loss_at(work)
            flat[i] = orig - h
            f_minus = loss_at(work)
            flat[i] = orig
            num.reshape(-1)[i] = (f_plus - f_minus) / (2.0 * h)
        denom = np.maximum(np.maximum(np.abs(ana), np.abs(num)), 1e-8)
        errors[name] = float((np.abs(ana - num) / denom).max()) if base.size else 0.0
    return GradCheckReport(errors=errors, tol=tol, h=h)
