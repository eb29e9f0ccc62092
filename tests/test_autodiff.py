from __future__ import annotations

import numpy as np
import pytest

from arclab.autodiff import PRIMITIVES, Eager, GradCheckReport, Tape, backward, gradcheck
from arclab.errors import GraphError, ShapeError
from arclab.kernel import Rng


def _fd_grad(loss_fn, theta: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite differences, elementwise; the independent oracle."""
    grad = np.zeros_like(theta)
    flat = theta.reshape(-1)
    out = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        f_plus = loss_fn(theta)
        flat[i] = orig - h
        f_minus = loss_fn(theta)
        flat[i] = orig
        out[i] = (f_plus - f_minus) / (2 * h)
    return grad


class TestRecordForward:
    def test_scalar_square(self) -> None:
        tape = Tape()
        x = tape.parameter("x", np.array([[3.0]]))
        out = tape.matmul(x, x)
        assert out.tape is tape
        assert float(out.value[0, 0]) == 9.0

    def test_matches_kernel_bitwise(self) -> None:
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(4, 5)), rng.normal(size=(5, 2))
        tape = Tape()
        va = tape.constant(a)
        vb = tape.constant(b)
        prod = tape.matmul(va, vb)
        assert np.array_equal(prod.value, Eager.matmul(a, b))
        total = tape.scale(tape.mean(prod), float(prod.value.size))
        assert total.value[0, 0] == Eager.mean(Eager.matmul(a, b))[0, 0] * a.shape[0] * b.shape[1]

    def test_rejects_foreign_operand(self) -> None:
        tape, other = Tape(), Tape()
        x = other.constant(np.eye(2))
        with pytest.raises(GraphError):
            tape.transpose(x)

    def test_rejects_raw_array_operand(self) -> None:
        tape = Tape()
        with pytest.raises(GraphError):
            tape.transpose(np.eye(2))

    def test_duplicate_parameter_name(self) -> None:
        tape = Tape()
        tape.parameter("w", np.eye(2))
        with pytest.raises(GraphError):
            tape.parameter("w", np.eye(2))


class TestBackward:
    def test_sum_of_squares_via_transpose_site(self) -> None:
        # loss = W^T W (1x1) = sum of squares, gradient exactly 2 W through
        # the direct site plus the transposed site
        w0 = np.array([[1.0], [2.0]])
        tape = Tape()
        w = tape.parameter("w", w0)
        loss = tape.mean(tape.matmul(tape.transpose(w), w))
        grads = backward(tape, loss)
        assert np.allclose(grads["w"], 2.0 * w0)

        def loss_fn(theta):
            return float((theta.T @ theta)[0, 0])

        assert np.abs(grads["w"] - _fd_grad(loss_fn, w0.copy())).max() <= 1e-6

    def test_sum_outer_product_matches_fd(self) -> None:
        w0 = np.array([[1.0], [2.0]])
        tape = Tape()
        w = tape.parameter("w", w0)
        prod = tape.matmul(w, tape.transpose(w))
        loss = tape.scale(tape.mean(prod), float(prod.value.size))
        grads = backward(tape, loss)

        def loss_fn(theta):
            return float((theta @ theta.T).sum())

        assert np.abs(grads["w"] - _fd_grad(loss_fn, w0.copy())).max() <= 1e-6

    def test_frozen_parameter_absent(self) -> None:
        tape = Tape()
        frozen = tape.parameter("frozen", np.array([[2.0]]), trainable=False)
        x = tape.parameter("x", np.array([[3.0]]))
        loss = tape.mean(tape.matmul(frozen, x))
        grads = backward(tape, loss)
        assert "frozen" not in grads
        assert set(grads) == {"x"}

    def test_shared_parameter_sums_site_contributions(self) -> None:
        x1 = np.array([[1.0, -0.5]])
        x2 = np.array([[0.25, 2.0]])
        w0 = np.array([[0.7], [-1.3]])

        def loss_fn(theta):
            return float((x1 @ theta).sum() + (x2 @ theta).sum())

        tape = Tape()
        w = tape.parameter("w", w0)
        a = tape.matmul(tape.constant(x1), w)
        b = tape.matmul(tape.constant(x2), w)
        loss = tape.mean(tape.add(a, b))
        grads = backward(tape, loss)
        assert np.abs(grads["w"] - _fd_grad(loss_fn, w0.copy())).max() <= 1e-6

    def test_non_scalar_output_rejected(self) -> None:
        tape = Tape()
        x = tape.parameter("x", np.eye(2))
        with pytest.raises(GraphError):
            backward(tape, x)

    def test_broadcast_bias_grad_sums_rows(self) -> None:
        x = np.ones((3, 2))
        tape = Tape()
        b = tape.parameter("b", np.array([[0.5, -0.5]]))
        out = tape.add(tape.constant(x), b)
        loss = tape.scale(tape.mean(out), float(out.value.size))
        grads = backward(tape, loss)
        assert np.array_equal(grads["b"], np.array([[3.0, 3.0]]))

    def test_add_shape_mismatch(self) -> None:
        tape = Tape()
        a = tape.constant(np.zeros((2, 3)))
        b = tape.constant(np.zeros((2, 2)))
        with pytest.raises(ShapeError):
            tape.add(a, b)

    def test_deterministic_gradstore(self) -> None:
        def run():
            rng = Rng(77)
            x = rng.normals((3, 4))
            w0 = rng.normals((4, 2))
            tape = Tape()
            w = tape.parameter("w", w0)
            logits = tape.matmul(tape.constant(x), w)
            loss = tape.cross_entropy(logits, np.array([0, 1, 0]))
            return backward(tape, loss)["w"]

        assert np.array_equal(run(), run())


class TestPrimitiveGradients:
    """Finite-difference checks of each registered primitive's vjp."""

    PRIMITIVES = ["matmul", "layernorm", "softmax", "gelu", "col_scale",
                  "concat_slice", "mask", "cross_entropy", "linear", "add", "scale"]

    @staticmethod
    def _case(name: str):
        """(build, parameter values) of the gradcheck case ``name``."""
        rng = np.random.default_rng(TestPrimitiveGradients.PRIMITIVES.index(name))
        x0 = rng.normal(size=(3, 4))
        mask = np.where(rng.uniform(size=(3, 4)) < 0.4, 0.0, 1.0 / 0.6)
        if name == "linear":
            params = {"x": rng.normal(size=(2, 3, 4)), "w": rng.normal(size=(4, 5)),
                      "b": rng.normal(size=(1, 5))}
        elif name == "add":
            params = {"x": rng.normal(size=(2, 3, 4)), "b": rng.normal(size=(1, 4))}
        else:
            params = {"x": x0}

        def build(tape, values):
            x = tape.parameter("x", values["x"])
            if name == "linear":
                y = tape.linear(x, tape.parameter("w", values["w"]),
                                tape.parameter("b", values["b"]))
            elif name == "add":
                y = tape.add(x, tape.parameter("b", values["b"]))
            elif name == "scale":
                y = tape.scale(x, -1.7)
            elif name == "matmul":
                y = tape.matmul(x, tape.constant(rng_w))
            elif name == "layernorm":
                y = tape.layernorm(x, tape.constant(np.ones((1, 4))),
                                   tape.constant(np.zeros((1, 4))), 1e-6)
            elif name == "softmax":
                y = tape.softmax_rows(x)
            elif name == "gelu":
                y = tape.gelu(x)
            elif name == "col_scale":
                y = tape.col_scale(x, tape.constant(rng_c))
            elif name == "concat_slice":
                top = tape.slice_tokens(x, slice(0, 2))
                bottom = tape.slice_tokens(x, slice(2, 3))
                y = tape.concat_tokens(bottom, top)
                heads = tape.split_heads(y, 2)
                y = tape.merge_heads(tape.matmul(heads, tape.transpose(heads)))
            elif name == "mask":
                y = tape.mul_mask(x, mask)
            else:  # cross_entropy
                return tape.cross_entropy(x, np.array([1, 3, 0]))
            return tape.mean(tape.gelu(y))

        rng_w = rng.normal(size=(4, 4))
        rng_c = rng.normal(size=(1, 4))
        return build, params

    @pytest.mark.parametrize("name", PRIMITIVES)
    def test_primitive(self, name: str) -> None:
        build, params = self._case(name)
        report = gradcheck(build, params, h=1e-5, tol=1e-5)
        assert report.passed, report.summary()
        assert set(report.errors) == set(params)

    def test_every_primitive_has_a_case(self) -> None:
        """Each vjp of the table runs in the backward pass of some case above."""
        names = {prim.vjp: name for name, prim in PRIMITIVES.items()}
        assert len(names) == len(PRIMITIVES)
        exercised = set()
        for case in self.PRIMITIVES:
            build, params = self._case(case)
            tape = Tape()
            build(tape, params)
            exercised |= {names[node.vjp] for node in tape._nodes if node.vjp is not None}
        assert exercised == set(PRIMITIVES)


class TestNeedsGrad:
    """A vjp skips the gradients of operands that need none."""

    def test_frozen_operands_get_none(self) -> None:
        rng = np.random.default_rng(5)
        x, w, b = rng.normal(size=(2, 3, 4)), rng.normal(size=(4, 5)), rng.normal(size=(1, 5))
        linear = PRIMITIVES["linear"]
        out = linear.forward(x, w, b)
        g = rng.normal(size=out.shape)
        full = linear.vjp(g, out, (True, True, True), x, w, b)
        assert all(grad is not None for grad in full)
        gx, gw, gb = linear.vjp(g, out, (True, False, False), x, w, b)
        assert gw is None and gb is None and np.array_equal(gx, full[0])
        gx, gw, gb = linear.vjp(g, out, (False, True, False), x, w, b)
        assert gx is None and gb is None and np.array_equal(gw, full[1])
        matmul = PRIMITIVES["matmul"]
        prod = matmul.forward(x, w)
        ga, gw = matmul.vjp(g, prod, (False, True), x, w)
        assert ga is None and np.array_equal(gw, full[1])
        ga, gw = matmul.vjp(g, prod, (True, False), x, w)
        assert gw is None and np.array_equal(ga, full[0])

    def test_backward_passes_the_flags(self) -> None:
        tape = Tape()
        x = tape.constant(np.ones((2, 3, 4)))
        w = tape.parameter("w", np.ones((4, 5)), trainable=False)
        b = tape.parameter("b", np.ones((1, 5)))
        out = tape.linear(x, w, b)
        seen = []
        real = tape._nodes[out.idx].vjp

        def spy(g, value, needs, *inputs):
            seen.append(needs)
            return real(g, value, needs, *inputs)

        tape._nodes[out.idx] = tape._nodes[out.idx]._replace(vjp=spy)
        grads = backward(tape, tape.mean(out))
        assert seen == [(False, False, True)]
        assert np.allclose(grads["b"], 0.2, rtol=0, atol=1e-15)

    def test_freezing_leaves_other_gradients_bit_equal(self) -> None:
        rng = np.random.default_rng(6)
        x0, w0, b0, v0 = (rng.normal(size=s) for s in ((2, 3, 4), (4, 5), (1, 5), (5, 2)))

        def grads(weights_trainable: bool):
            tape = Tape()
            x = tape.parameter("x", x0)
            w = tape.parameter("w", w0, trainable=weights_trainable)
            hidden = tape.gelu(tape.linear(x, w, tape.parameter("b", b0)))
            v = tape.parameter("v", v0, trainable=weights_trainable)
            return backward(tape, tape.mean(tape.matmul(hidden, v)))

        frozen, full = grads(False), grads(True)
        assert set(full) - set(frozen) == {"w", "v"}
        for name, g in frozen.items():
            assert np.array_equal(g, full[name]), name


class TestGradcheck:
    def test_linear_regression_closed_form(self) -> None:
        rng = np.random.default_rng(42)
        x = rng.normal(size=(8, 3))
        y = rng.normal(size=(8, 1))
        w0 = rng.normal(size=(3, 1))

        def build(tape, values):
            w = tape.parameter("w", values["w"])
            resid = tape.add(tape.matmul(tape.constant(x), w), tape.constant(-y))
            sq = tape.mul_mask(resid, np.ones_like(y))  # keep resid node alive
            prod = tape.matmul(tape.transpose(resid), sq)
            return tape.scale(prod, 1.0 / x.shape[0])

        report = gradcheck(build, {"w": w0})
        assert report.passed and report.max_rel_err <= 1e-7

        # closed form: 2/n X^T (X w - y)
        tape = Tape()
        out = build(tape, {"w": w0})
        grads = backward(tape, out)
        closed = 2.0 / x.shape[0] * x.T @ (x @ w0 - y)
        assert np.abs(grads["w"] - closed).max() <= 1e-10

    def test_unused_parameter_passes(self) -> None:
        def build(tape, values):
            tape.parameter("unused", values["unused"])
            x = tape.parameter("x", values["x"])
            return tape.mean(tape.matmul(x, x))

        report = gradcheck(build, {"x": np.array([[1.5]]), "unused": np.ones((2, 2))})
        assert report.passed
        assert report.errors["unused"] == 0.0

    def test_report_summary_mentions_failures(self) -> None:
        report = GradCheckReport(errors={"w": 1.0}, tol=1e-5, h=1e-5)
        assert not report.passed
        assert "FAIL" in report.summary()
