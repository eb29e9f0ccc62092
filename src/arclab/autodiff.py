"""Reverse-mode differentiation over batched dense arrays.

The table :data:`PRIMITIVES` holds exactly the primitives the model
records. Each entry is a forward over float64 arrays with any number of
leading batch axes and a vector-Jacobian product that maps the output
gradient back to each operand's shape. The one operand a forward
broadcasts is ``linear``'s (1, n) bias row, whose gradient sums the
output gradient's rows. Each takes a fixed number of operands; any
further arguments are static. The model runs on (B, T, D)
token tensors, with attention heads as one more batch axis, (B, H, T,
d_h), so one node covers a whole batch.

A forward may also return intermediates its vjp reuses (a residual, as in
a JAX ``custom_vjp`` fwd/bwd pair), so the backward pass recomputes nothing
the forward had. Coarse primitives cover whole model blocks: ``attention``
is one multi-head attention core and ``arc_adapter`` one re-composed
adapter site, each with a hand-written vjp.

A :class:`Tape` records primitive applications in topological order as
:class:`Var` nodes. A node is also the handle model code holds: it keeps
its forward value, its primitive, its parent nodes and their needs-grad
flags, its static (non-operand) arguments and the forward's residual, and
reads its operand values from its parents. The tape-free :class:`Eager`
backend calls the same forwards directly and drops the residuals, except
where a primitive names an ``eager`` route of its own: GELU's is
:func:`kernel.gelu`, which writes into its operand and keeps no cdf. So a
recorded forward is bitwise identical to an unrecorded one, by
construction for every primitive but GELU, and for GELU as
``test_kernel.py::TestGelu::test_eager_route_is_gelu_parts`` shows.
Every other in-place write lands in an array the forward allocated
itself: ``attention`` runs its softmax over the scores it has just made
and writes each head's probs @ V into its own columns of the result.

A recording can be replayed: :meth:`Tape.replay` re-runs each node's
forward in place over the current contents of the leaves, so a
loop whose graph stays the same records once and refills its leaves in
place (a training run keeps one tape per batch size and replays it at
every later step of that size).
A parameter is a single leaf node: reusing it at many graph sites (shared
projections, a tied down-projection in both adapter slots) or over every
row of a batch accumulates every contribution into one gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import kernel
from .errors import ConfigError, GraphError, ShapeError


def _as_array(value) -> np.ndarray:
    return np.ascontiguousarray(value, dtype=np.float64)


def _swap(a: np.ndarray) -> np.ndarray:
    return a.swapaxes(-1, -2)


def _rows(a: np.ndarray) -> np.ndarray:
    """``a`` with its leading axes flattened: (..., n) -> (rows, n)."""
    return a.reshape(-1, a.shape[-1])


# -- primitives: forward(*operands, *static) and vjp(g, res, needs, *operands, *static)


def _matmul_vjp(g, out, needs, a, b):
    ga = g @ b.T if needs[0] else None
    # one weight for every row of the batch: a single GEMM over all rows
    return ga, (_rows(a).T @ _rows(g) if needs[1] else None)


def _linear_vjp(g, out, needs, x, w, b):
    gx, gw = _matmul_vjp(g, out, needs[:2], x, w)
    return gx, gw, _rows(g).sum(axis=0).reshape(b.shape) if needs[2] else None


def _add(a, b):
    """a + b over operands of one shape: nothing is broadcast."""
    if a.shape != b.shape:
        raise ShapeError(f"add shape mismatch: {a.shape} + {b.shape}")
    return a + b


def _add_vjp(g, out, needs, a, b):
    return g, g


def _layernorm_vjp(g, saved, needs, a, gamma, beta, eps):
    centered, std = saved
    inv_std = 1.0 / std
    xhat = centered * inv_std
    gx = None
    if needs[0]:
        gg = g * gamma
        gx = inv_std * (
            gg
            - kernel.row_mean(gg)
            - xhat * kernel.row_mean(gg * xhat)
        )
    dgamma = _rows(g * xhat).sum(axis=0).reshape(gamma.shape) if needs[1] else None
    dbeta = _rows(g).sum(axis=0).reshape(beta.shape) if needs[2] else None
    return gx, dgamma, dbeta


def _softmax_grad(g, probs):
    """The gradient of softmax's input, given ``g`` on its output ``probs``."""
    return (g - (g * probs).sum(axis=-1, keepdims=True)) * probs


def _gelu_vjp(g, cdf, needs, a):
    """g * (Phi(x) + x phi(x)), with Phi = cdf / 2 from the forward."""
    pdf = a * -0.5
    pdf *= a
    np.exp(pdf, out=pdf)
    pdf *= kernel.INV_SQRT_2PI
    pdf *= a
    slope = cdf * 0.5
    slope += pdf
    return (g * slope,)


def _slice_tokens(a, index):
    """Token ``index`` (an int drops the token axis) or tokens ``index`` (a slice)."""
    return a[..., index, :]


def _slice_tokens_vjp(g, out, needs, a, index):
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


def _attention(q, k, v, heads, scale):
    """Multi-head softmax(scale Q K^T) V over (..., T, D) projections.

    The width is column-partitioned into ``heads`` blocks, which become a
    batch axis. The softmax runs in place over the scores, and each head's
    probs @ V is written straight into its columns of the (..., T, D)
    result, so the heads need no merge copy. Saves the split heads, the
    contiguous K^T and the probabilities.
    """
    if not q.shape == k.shape == v.shape:
        raise ShapeError(f"attention needs equal q/k/v shapes, got {q.shape}, {k.shape}, {v.shape}")
    qh, kh, vh = (_split_heads(a, heads) for a in (q, k, v))
    kt = np.ascontiguousarray(_swap(kh))
    probs = qh @ kt
    probs *= scale  # a product after Q K^T, not a scaled Q
    kernel.softmax_rows(probs, out=probs)
    out = np.empty(q.shape)
    np.matmul(probs, vh, out=_split_heads(out, heads))
    return out, (qh, kt, vh, probs)


def _attention_vjp(g, saved, needs, q, k, v, heads, scale):
    qh, kt, vh, probs = saved
    gh = _split_heads(g, heads)
    gq = gk = gv = None
    if needs[2]:
        gv = _merge_heads(_swap(probs) @ gh)
    if needs[0] or needs[1]:
        gscores = _softmax_grad(gh @ _swap(vh), probs) * scale
        if needs[0]:
            gq = _merge_heads(gscores @ _swap(kt))
        if needs[1]:
            gk = _merge_heads(_swap(_swap(qh) @ gscores))
    return gq, gk, gv


def _arc_adapter(x, up, coef, bias, down, mask, tied):
    """The re-composed adapter x + (x W_down diag(c)) W_up + b on a (..., T, D) batch.

    ``tied`` means W_up = W_down^T: the caller passes W_down as ``up`` too.
    A ``mask`` (train-mode dropout, or None) multiplies the hidden features.
    Saves x W_down, the masked hidden features and the W_up it multiplied.
    """
    pre = kernel.matmul(x, down)
    if coef.shape != (1, pre.shape[-1]):
        raise ShapeError(f"adapter coef {coef.shape} does not match bottleneck {pre.shape[-1]}")
    hidden = pre * coef
    if mask is not None:
        if mask.shape != hidden.shape:
            raise ShapeError(f"mask shape {mask.shape} does not match {hidden.shape}")
        hidden *= mask
    w_up = np.ascontiguousarray(_swap(up)) if tied else up
    out = kernel.linear(hidden, w_up, bias)
    if out.shape != x.shape:
        raise ShapeError(f"adapter output {out.shape} does not match its input {x.shape}")
    out += x
    return out, (pre, hidden, w_up)


def _arc_adapter_vjp(g, saved, needs, x, up, coef, bias, down, mask, tied):
    pre, hidden, w_up = saved
    inner = needs[0] or needs[2] or needs[4]
    ghidden, gup, gbias = _linear_vjp(g, None, (inner, needs[1], needs[3]), hidden, w_up, bias)
    if needs[1] and tied:
        gup = _swap(gup)
    gx = gcoef = gdown = None
    if inner:
        if mask is not None:
            ghidden *= mask
        if needs[2]:
            gcoef = (ghidden * pre).reshape(-1, pre.shape[-1]).sum(axis=0).reshape(coef.shape)
        gpre = ghidden * coef
        gx, gdown = _matmul_vjp(gpre, None, (needs[0], needs[4]), x, down)
        if needs[0]:
            gx += g
    return gx, gup, gcoef, gbias, gdown


def _cross_entropy(logits, labels):
    return np.array([[kernel.cross_entropy(logits, labels)]])


def _cross_entropy_vjp(g, out, needs, logits, labels):
    n = logits.shape[0]
    d = kernel.softmax_rows(logits)
    d[np.arange(n), np.asarray(labels)] -= 1.0
    return (d * (g[0, 0] / n),)


class Primitive(NamedTuple):
    """One differentiable operation.

    ``forward(*operands, *static)`` computes the value, or, when ``saves``
    is set, returns ``(value, saved)``: intermediates its vjp reuses instead
    of recomputing them. ``vjp(g, res, needs, *operands, *static)`` returns
    one gradient per operand, where ``res`` is ``saved`` (or the value, for
    a forward that saves nothing) and ``needs`` holds one flag per operand;
    an operand flagged False may get None instead of a gradient nobody
    reads. ``operands`` is the number of leading differentiable arguments.
    ``eager``, when set, is :class:`Eager`'s route in place of ``forward``:
    the same value, bit for bit, with less memory, which may be written
    into an operand (see :class:`Eager`).
    """

    forward: Callable
    vjp: Callable
    operands: int
    saves: bool = False
    eager: Callable | None = None


PRIMITIVES: dict[str, Primitive] = {
    "matmul": Primitive(kernel.matmul, _matmul_vjp, 2),
    "linear": Primitive(kernel.linear, _linear_vjp, 3),
    "add": Primitive(_add, _add_vjp, 2),
    "layernorm": Primitive(kernel.layernorm_parts, _layernorm_vjp, 3, saves=True),
    "gelu": Primitive(kernel.gelu_parts, _gelu_vjp, 1, saves=True, eager=kernel.gelu),
    "attention": Primitive(_attention, _attention_vjp, 3, saves=True),
    "arc_adapter": Primitive(_arc_adapter, _arc_adapter_vjp, 5, saves=True),
    "slice_tokens": Primitive(_slice_tokens, _slice_tokens_vjp, 1),
    "cross_entropy": Primitive(_cross_entropy, _cross_entropy_vjp, 1),
}


class Var:
    """One tape node, which is also the handle model code holds to it.

    A node belongs to the tape whose ``_nodes[idx]`` it is; it holds no
    reference back to that tape, so the graph stays acyclic. A leaf has no
    ``prim``; every other node's forward ran on its ``parents``' values.
    """

    __slots__ = ("idx", "value", "needs_grad", "parents", "needs", "prim", "static", "res")

    def __init__(self, idx: int, value, parents: tuple = (), prim: Primitive | None = None,
                 static: tuple = (), needs_grad: bool = False):
        self.idx = idx
        self.value = value
        self.parents = parents  # operand nodes
        self.needs = tuple(p.needs_grad for p in parents)  # each parent's flag when recorded
        self.needs_grad = needs_grad or any(self.needs)  # a parameter, or computed from one
        self.prim = prim
        self.static = static  # the forward's non-operand arguments
        self.res = None  # what the vjp reuses from the forward (None when it needs no gradient)

    def run(self) -> None:
        """Set this node's value and residual to its forward over its parents' current values."""
        prim = self.prim
        value = res = prim.forward(*[p.value for p in self.parents], *self.static)
        if prim.saves:
            value, res = value
        self.value = value
        self.res = res if self.needs_grad else None


class Tape:
    """Record of a forward computation plus a parameter registry.

    Every entry of :data:`PRIMITIVES` is a method taking :class:`Var`
    operands and returning the :class:`Var` node it records. A
    :meth:`parameter` is a named trainable leaf; a frozen tensor enters as
    a :meth:`constant`. A leaf holds its array without a copy when the array
    is contiguous float64, so a loop can record once over its leaves, update
    their arrays in place and :meth:`replay` the recording, which updates
    every node in place.
    """

    def __init__(self):
        self._nodes: list[Var] = []
        self._params: dict[str, Var] = {}  # name -> leaf node

    def replay(self) -> None:
        """Re-run every recorded node, in id order and in place, over the
        current contents of the leaves; every node object is kept.

        A replayed node calls the forward it recorded, on its parents' new
        values and its own static arguments, so it gives the bits a fresh
        recording over the same contents would. Handles stay valid, and
        :func:`backward` then differentiates the replayed values. The graph
        is the one recorded, each node's needs-grad flags included: a
        forward whose path depends on the values must be recorded again.
        """
        for node in self._nodes:
            if node.prim is not None:
                node.run()

    def parameter(self, name: str, value: np.ndarray) -> Var:
        if name in self._params:
            raise GraphError(f"parameter {name!r} registered twice")
        self._params[name] = var = self._leaf(value, True)
        return var

    def constant(self, value) -> Var:
        return self._leaf(value, False)

    def _leaf(self, value, needs_grad: bool) -> Var:
        var = Var(len(self._nodes), _as_array(value), needs_grad=needs_grad)
        self._nodes.append(var)
        return var

    def _owns(self, v) -> bool:
        return isinstance(v, Var) and v.idx < len(self._nodes) and self._nodes[v.idx] is v


class Eager:
    """Tape-free backend: every entry of :data:`PRIMITIVES` is its forward on
    plain arrays, returning the value alone.

    ``gelu`` takes its operand over: it writes the result into that array
    and returns it, so a caller passes only an array nothing else reads, as
    :func:`model.ffn` passes its fresh fc1 output. Every other entry leaves
    its operands as they were; its in-place writes (``linear``'s bias,
    ``layernorm``'s scaling, ``attention``'s softmax and head products) go
    to arrays it allocated. Nothing is kept between calls, so an array
    lives as long as its caller holds it: :func:`model.forward` holds each
    activation only until its last reader has run."""


def _recorder(name: str, prim: Primitive):
    def record(self: Tape, *args) -> Var:
        operands = args[:prim.operands]
        if not all(map(self._owns, operands)):
            raise GraphError("operand is not a node of this tape; "
                             "wrap arrays via constant()/parameter()")
        node = Var(len(self._nodes), None, operands, prim, args[prim.operands:])
        node.run()
        self._nodes.append(node)
        return node

    record.__name__ = name
    record.__doc__ = prim.forward.__doc__
    return record


def _value_only(name: str, prim: Primitive):
    """``prim``'s forward without the intermediates it saves."""
    if not prim.saves:
        return prim.forward

    def forward(*args):
        return prim.forward(*args)[0]

    forward.__name__ = name
    forward.__doc__ = prim.forward.__doc__
    return forward


for _name, _prim in PRIMITIVES.items():
    setattr(Tape, _name, _recorder(_name, _prim))
    setattr(Eager, _name, staticmethod(_prim.eager or _value_only(_name, _prim)))


def backward(tape: Tape, out: Var) -> dict[str, np.ndarray]:
    """Accumulated gradients of a scalar output for every parameter of the
    tape, in registration order.

    Visits nodes exactly once in reverse topological (id) order. A parameter
    used at several sites receives the sum of all site contributions, and
    one the output does not depend on gets exact zeros of its shape.
    Constants never appear in the result, nodes no parameter feeds are
    never differentiated, and each vjp is told which of its operands need
    a gradient (the flags fixed when the node was recorded), so it can skip
    the others.
    """
    if not tape._owns(out):
        raise GraphError("output node does not belong to this tape")
    if out.value.shape != (1, 1):
        raise GraphError(f"backward needs a scalar output, got shape {out.value.shape}")
    nodes = tape._nodes
    grads: dict[Var, np.ndarray] = {out: np.ones((1, 1))}
    for idx in range(out.idx, -1, -1):
        node = nodes[idx]
        if node.prim is None or not node.needs_grad:
            continue
        g = grads.pop(node, None)
        if g is None:
            continue
        inputs = [p.value for p in node.parents]
        for parent, need, pg in zip(node.parents, node.needs,
                                    node.prim.vjp(g, node.res, node.needs, *inputs, *node.static)):
            if not need:
                continue
            if parent in grads:
                # out-of-place: a vjp may hand back views or shared buffers
                grads[parent] = grads[parent] + pg
            else:
                grads[parent] = pg
    return {name: grads[v] if v in grads else np.zeros(v.value.shape)
            for name, v in tape._params.items()}


@dataclass
class GradCheckReport:
    """Per-parameter max relative error between analytic and numeric gradients."""

    errors: dict[str, float]
    tol: float

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


def gradcheck(build, params: dict[str, np.ndarray], tol: float = 1e-5) -> GradCheckReport:
    """Compare analytic gradients against finite differences.

    Each numeric derivative is the Richardson extrapolation
    (4 D(h/2) - D(h)) / 3 of two central differences D with h = 1e-2: its
    O(h^4) error lets h be large enough that rounding in the loss, about
    eps |L| / h per difference quotient, stays far below tol even for an
    entry near the metric's 1e-8 floor (at h = 1e-3 such entries read
    above 1e-5 on correct gradients).

    ``build(tape, values)`` must register every entry of ``values`` via
    ``tape.parameter(name, values[name])``, pass every other tensor as a
    ``tape.constant``, and return a scalar loss node. It is called once, on
    copies of ``params``: each perturbed loss changes one entry of a
    parameter leaf's own array in place and replays the recording
    (:meth:`Tape.replay`), so the graph ``build`` records must not depend on
    the values. The relative error per entry uses denominator
    max(|analytic|, |numeric|, 1e-8). A parameter the loss never touches
    has an exact zero gradient (see :func:`backward`). Raises ConfigError
    unless ``tol`` is finite and > 0: an infinite tol passes any gradient,
    and a NaN or negative one fails every gradient.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ConfigError(f"gradcheck tol must be finite and > 0, got {tol!r}")
    h = 1e-2
    work = {name: np.array(value, dtype=np.float64, order="C") for name, value in params.items()}
    tape = Tape()
    out = build(tape, work)
    analytic = backward(tape, out)

    def loss_at() -> float:
        tape.replay()
        return float(out.value[0, 0])

    errors: dict[str, float] = {}
    for name, base in work.items():
        ana = analytic[name]
        num = np.zeros_like(base)
        flat = base.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            slopes = []
            for step in (h, h / 2):
                flat[i] = orig + step
                f_plus = loss_at()
                flat[i] = orig - step
                slopes.append((f_plus - loss_at()) / (2.0 * step))
            flat[i] = orig
            num.reshape(-1)[i] = (4.0 * slopes[1] - slopes[0]) / 3.0
        denom = np.maximum(np.maximum(np.abs(ana), np.abs(num)), 1e-8)
        errors[name] = float((np.abs(ana - num) / denom).max()) if base.size else 0.0
    return GradCheckReport(errors=errors, tol=tol)
