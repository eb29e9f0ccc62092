from __future__ import annotations

import numpy as np
import pytest

from arclab.autodiff import Eager, GradCheckReport, Tape, backward, gradcheck
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
                  "concat_slice", "mask", "cross_entropy"]

    @pytest.mark.parametrize("name", PRIMITIVES)
    def test_primitive(self, name: str) -> None:
        rng = np.random.default_rng(self.PRIMITIVES.index(name))
        x0 = rng.normal(size=(3, 4))
        mask = np.where(rng.uniform(size=(3, 4)) < 0.4, 0.0, 1.0 / 0.6)

        def build(tape, values):
            x = tape.parameter("x", values["x"])
            if name == "matmul":
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
        report = gradcheck(build, {"x": x0}, h=1e-5, tol=1e-5)
        assert report.passed, report.summary()


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
