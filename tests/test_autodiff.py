from __future__ import annotations

import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

from arclab import kernel, model, training
from arclab.adapters import ArcConfig, dropout_masks, init_adapters
from arclab.autodiff import (
    PRIMITIVES,
    Eager,
    GradCheckReport,
    Primitive,
    Tape,
    _attention,
    _merge_heads,
    _recorder,
    _split_heads,
    backward,
    gradcheck,
)
from arclab.errors import ConfigError, GraphError, ShapeError
from arclab.kernel import Rng, softmax_rows

# A scalarizing primitive the model never records, so it is not in the
# table: the mean of every entry as a (1, 1) array, which backward takes.
MEAN = Primitive(lambda a: np.array([[a.mean()]]),
                 lambda g, out, needs, a: (np.full(a.shape, g[0, 0] / a.size),), 1)
mean = _recorder("mean", MEAN)  # mean(tape, node) records MEAN on tape


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
        assert tape._nodes[out.idx] is out and out.parents == (x, x)
        assert float(out.value[0, 0]) == 9.0

    def test_matches_kernel_bitwise(self) -> None:
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(4, 5)), rng.normal(size=(5, 2))
        tape = Tape()
        va = tape.constant(a)
        vb = tape.constant(b)
        prod = tape.matmul(va, vb)
        assert np.array_equal(prod.value, Eager.matmul(a, b))
        total = tape.matmul(mean(tape, prod), tape.constant([[float(prod.value.size)]]))
        assert total.value[0, 0] == MEAN.forward(Eager.matmul(a, b))[0, 0] * a.shape[0] * b.shape[1]

    def test_rejects_foreign_operand(self) -> None:
        tape, other = Tape(), Tape()
        x = other.constant(np.eye(2))
        with pytest.raises(GraphError):
            tape.gelu(x)
        # a foreign node whose id the tape also holds
        tape.constant(np.eye(2))
        assert x.idx < len(tape._nodes)
        with pytest.raises(GraphError):
            tape.gelu(x)
        with pytest.raises(GraphError):
            tape.add(tape._nodes[0], x)

    def test_rejects_raw_array_operand(self) -> None:
        tape = Tape()
        with pytest.raises(GraphError):
            tape.gelu(np.eye(2))

    def test_duplicate_parameter_name(self) -> None:
        tape = Tape()
        tape.parameter("w", np.eye(2))
        with pytest.raises(GraphError):
            tape.parameter("w", np.eye(2))

    def test_cross_entropy_rejects_bad_labels(self, bad_labels) -> None:
        labels, message = bad_labels
        tape = Tape()
        logits = tape.parameter("logits", np.zeros((len(labels), 3)))
        with pytest.raises(ShapeError, match=message):
            tape.cross_entropy(logits, labels)

    def test_matmul_rejects_a_3d_weight(self) -> None:
        """matmul multiplies a batch by one 2-D weight; a batch of weights
        is a ShapeError naming both shapes, from the kernel and the tape."""
        a, w = np.zeros((2, 3, 4)), np.zeros((2, 4, 5))
        tape = Tape()
        for product in (lambda: kernel.matmul(a, w),
                        lambda: tape.matmul(tape.constant(a), tape.constant(w))):
            with pytest.raises(ShapeError, match=r"\(2, 3, 4\) and \(2, 4, 5\)"):
                product()


# the README demo's backbone and bank
DEMO = model.BackboneConfig(image_size=8, patch_size=4, channels=1, embed_dim=16,
                            layers=3, heads=2, classes=4)
DEMO_ARC = ArcConfig(bottleneck=4, positions=("before_mha", "before_ffn"), dropout_rate=0.1)


class TestReplay:
    """``Tape.replay`` over leaves refilled in place gives the bits of a
    fresh recording over the new contents."""

    @staticmethod
    def _record(tape, weights, bank, state, masks, labels):
        """The training step's graph (``training.record_step``): trainable
        head and bank, the batch's state at the bank's first cut, its
        dropout masks and labels, as the training loop passes them."""
        params = {n: weights[n] for n in model.HEAD_NAMES}
        params.update(bank.tensors)
        return training.record_step(tape, DEMO, weights, bank, params, state, labels, masks)[1]

    @staticmethod
    def _draw(rng, batch, weights, bank):
        """(state, masks, labels) of one random batch."""
        state = training.frozen_prefix(DEMO, weights, bank, rng.normals((batch, 8, 8, 1)), batch)
        masks = dropout_masks(bank, batch, rng)
        labels = (rng.uniforms(batch) * DEMO.classes).astype(np.int64)
        return state, masks, labels

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), batch=st.integers(1, 8))
    def test_bit_equal_to_fresh_recording(self, seed, batch) -> None:
        rng = Rng(seed)
        weights = model.init_backbone(DEMO, Rng(7))
        bank = init_adapters(DEMO_ARC, DEMO, Rng(9))
        state, masks, labels = self._draw(rng, batch, weights, bank)
        tape = Tape()
        loss = self._record(tape, weights, bank, state, masks, labels)
        first = float(loss.value[0, 0])

        # refill every leaf in place: inputs, masks, labels and trainables
        new_state, new_masks, new_labels = self._draw(rng, batch, weights, bank)
        for part, new_part in zip(state, new_state):
            part[...] = new_part
        masks[...] = new_masks
        labels[...] = new_labels
        for name in model.HEAD_NAMES:
            weights[name] += rng.normals(weights[name].shape, 0.1)
        for arr in bank.tensors.values():
            arr += rng.normals(arr.shape, 0.1)
        tape.replay()

        fresh = Tape()
        want = self._record(fresh, weights, bank, state, masks, labels)
        assert len(tape._nodes) == len(fresh._nodes) and loss.idx == want.idx
        for idx, (got, ref) in enumerate(zip(tape._nodes, fresh._nodes)):
            assert np.array_equal(got.value, ref.value), idx
        assert float(loss.value[0, 0]) != first
        grads, ref_grads = backward(tape, loss), backward(fresh, want)
        assert grads.keys() == ref_grads.keys()
        assert all(np.array_equal(grads[name], ref_grads[name]) for name in grads)

    def test_needs_fixed_at_record_time(self) -> None:
        """Each node holds its parents' needs-grad flags as they were when it
        was recorded, and a replay keeps them."""
        weights = model.init_backbone(DEMO, Rng(7))
        bank = init_adapters(DEMO_ARC, DEMO, Rng(9))
        tape = Tape()
        self._record(tape, weights, bank, *self._draw(Rng(3), 2, weights, bank))
        nodes = tape._nodes
        recorded = [node.needs for node in nodes]
        assert all(node.needs == tuple(p.needs_grad for p in node.parents) for node in nodes)
        assert {flag for needs in recorded for flag in needs} == {False, True}
        tape.replay()
        assert [node.needs for node in tape._nodes] == recorded

    def test_keeps_leaves_and_handles(self) -> None:
        tape = Tape()
        x = tape.parameter("x", np.array([[2.0]]))
        c = tape.constant(np.array([[3.0]]))
        out = tape.matmul(x, c)
        leaf = tape._nodes[x.idx].value
        leaf[0, 0] = 5.0
        tape.replay()
        assert tape._nodes[x.idx].value is leaf and len(tape._nodes) == 3
        assert out.value[0, 0] == 15.0 and backward(tape, out)["x"][0, 0] == 3.0

    def test_keeps_every_node_object(self) -> None:
        """A replay updates each node in place: the tape holds the same node
        objects, which are the handles the recording returned, with new
        values."""
        tape = Tape()
        x = tape.parameter("x", np.array([[2.0, -1.0]]))
        w = tape.constant(np.array([[1.0], [3.0]]))
        prod = tape.matmul(x, w)
        handles = [x, w, prod, tape.gelu(prod)]
        assert all(tape._nodes[h.idx] is h for h in handles) and len(tape._nodes) == 4
        before = [h.value for h in handles]
        x.value[...] = [[4.0, 1.0]]
        tape.replay()
        assert len(tape._nodes) == 4 and all(tape._nodes[h.idx] is h for h in handles)
        assert x.value is before[0] and prod.value[0, 0] == 7.0
        assert prod.value is not before[2] and handles[3].value is not before[3]


class TestBackward:
    def test_sum_of_squares_via_transpose_site(self) -> None:
        # loss = 1 + W W^T (1x1) = 1 + sum of squares: a tied adapter on the
        # input [[1]] with unit coefficients. The gradient is exactly 2 W,
        # through the direct (down) site plus the transposed (up) site.
        w0 = np.array([[1.0, 2.0]])
        tape = Tape()
        w = tape.parameter("w", w0)
        loss = mean(tape, tape.arc_adapter(tape.constant([[1.0]]), w,
                                           tape.constant(np.ones((1, 2))),
                                           tape.constant(np.zeros((1, 1))), w, None, True))
        grads = backward(tape, loss)
        assert np.allclose(grads["w"], 2.0 * w0)

        def loss_fn(theta):
            return float(1.0 + (theta @ theta.T)[0, 0])

        assert np.abs(grads["w"] - _fd_grad(loss_fn, w0.copy())).max() <= 1e-6

    def test_sum_outer_product_matches_fd(self) -> None:
        # a tied adapter on the identity: I + W W^T, summed
        w0 = np.array([[1.0], [2.0]])
        tape = Tape()
        w = tape.parameter("w", w0)
        prod = tape.arc_adapter(tape.constant(np.eye(2)), w, tape.constant(np.ones((1, 1))),
                                tape.constant(np.zeros((1, 2))), w, None, True)
        loss = tape.matmul(mean(tape, prod), tape.constant([[float(prod.value.size)]]))
        grads = backward(tape, loss)

        def loss_fn(theta):
            return float(2.0 + (theta @ theta.T).sum())

        assert np.abs(grads["w"] - _fd_grad(loss_fn, w0.copy())).max() <= 1e-6

    def test_frozen_parameter_absent(self) -> None:
        tape = Tape()
        frozen = tape.constant(np.array([[2.0]]))
        x = tape.parameter("x", np.array([[3.0]]))
        loss = mean(tape, tape.matmul(frozen, x))
        grads = backward(tape, loss)
        assert "frozen" not in grads
        assert set(grads) == {"x"}

    def test_every_parameter_in_result(self) -> None:
        """A parameter the output does not depend on, registered before or
        after it, gets exact zeros of its shape, in registration order."""
        tape = Tape()
        x = tape.parameter("x", np.array([[3.0]]))
        side = tape.parameter("side", np.ones((2, 3)))
        tape.gelu(side)  # recorded, but the loss does not read it
        loss = mean(tape, tape.matmul(x, x))
        tape.parameter("after", np.ones((4, 1)))
        grads = backward(tape, loss)
        assert list(grads) == ["x", "side", "after"]
        assert grads["x"][0, 0] == 6.0
        for name, shape in (("side", (2, 3)), ("after", (4, 1))):
            assert grads[name].shape == shape and grads[name].dtype == np.float64
            assert np.array_equal(grads[name], np.zeros(shape))

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
        loss = mean(tape, tape.add(a, b))
        grads = backward(tape, loss)
        assert np.abs(grads["w"] - _fd_grad(loss_fn, w0.copy())).max() <= 1e-6

    def test_non_scalar_output_rejected(self) -> None:
        tape = Tape()
        x = tape.parameter("x", np.eye(2))
        with pytest.raises(GraphError):
            backward(tape, x)

    def test_foreign_output_rejected(self) -> None:
        """An output recorded on another tape is rejected, also when this
        tape holds a node of the same id."""
        tape, other = Tape(), Tape()
        x = other.parameter("x", np.array([[2.0]]))
        out = mean(other, other.matmul(x, x))
        with pytest.raises(GraphError, match="does not belong"):
            backward(tape, out)
        y = tape.parameter("x", np.array([[2.0]]))
        mean(tape, tape.matmul(y, y))
        assert len(tape._nodes) == len(other._nodes) and tape._nodes[out.idx] is not out
        with pytest.raises(GraphError, match="does not belong"):
            backward(tape, out)
        assert backward(other, out)["x"][0, 0] == 4.0

    def test_broadcast_bias_grad_sums_rows(self) -> None:
        """linear's (1, n) bias row, the one operand a forward broadcasts:
        its gradient sums the rows of every batch entry."""
        x = np.ones((2, 3, 2))
        tape = Tape()
        b = tape.parameter("b", np.array([[0.5, -0.5]]))
        out = tape.linear(tape.constant(x), tape.constant(np.eye(2)), b)
        loss = tape.matmul(mean(tape, out), tape.constant([[float(out.value.size)]]))
        grads = backward(tape, loss)
        assert np.array_equal(grads["b"], np.array([[6.0, 6.0]]))

    def test_add_shape_mismatch(self) -> None:
        """add broadcasts nothing: operands of different shapes, even ones
        numpy would broadcast, are a ShapeError naming both shapes, on the
        tape and on Eager."""
        for left, right in (((2, 3), (2, 2)), ((2, 3), (1, 3)), ((2, 3, 4), (3, 4))):
            tape = Tape()
            a, b = np.zeros(left), np.zeros(right)
            message = re.escape(f"{left} + {right}")
            with pytest.raises(ShapeError, match=message):
                tape.add(tape.constant(a), tape.constant(b))
            with pytest.raises(ShapeError, match=message):
                Eager.add(a, b)

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
    """Finite-difference checks of each registered primitive's vjp.

    ``col_scale``, ``mask`` and ``scale`` keep the ids of the primitives they
    once checked; those operations now live inside ``arc_adapter`` (the
    coefficient scaling and the dropout mask) and ``attention`` (the score
    scale and the softmax), which the cases check with every operand a
    parameter. ``concat_slice`` keeps its id too: the token concatenation
    left the table with the patch embedding, and the case checks
    ``slice_tokens``.
    """

    # case -> the seed of its random data
    PRIMITIVES = {"matmul": 0, "layernorm": 1, "gelu": 3, "col_scale": 4, "concat_slice": 5,
                  "mask": 6, "cross_entropy": 7, "linear": 8, "add": 9, "scale": 10,
                  "arc_adapter_tied": 11, "arc_adapter_untied_mask": 12,
                  "arc_adapter_frozen_x": 13, "attention": 14}

    @staticmethod
    def _case(name: str):
        """(build, parameter values) of the gradcheck case ``name``."""
        rng = np.random.default_rng(TestPrimitiveGradients.PRIMITIVES[name])
        x0 = rng.normal(size=(3, 4))
        if name == "linear":
            params = {"x": rng.normal(size=(2, 3, 4)), "w": rng.normal(size=(4, 5)),
                      "b": rng.normal(size=(1, 5))}
        elif name == "add":
            params = {"x": rng.normal(size=(2, 3, 4)), "b": rng.normal(size=(2, 3, 4))}
        elif name in ("scale", "attention"):
            shape, heads = ((3, 4), 2) if name == "scale" else ((2, 3, 6), 3)
            params = {n: rng.normal(size=shape) for n in ("x", "k", "v")}
        elif name.startswith("arc_adapter") or name in ("col_scale", "mask"):
            tied = name in ("mask", "arc_adapter_tied", "arc_adapter_frozen_x")
            masked = name in ("mask", "arc_adapter_untied_mask", "arc_adapter_frozen_x")
            params = {"x": rng.normal(size=(2, 3, 4)), "down": rng.normal(size=(4, 2)),
                      "coef": rng.normal(size=(1, 2)), "bias": rng.normal(size=(1, 4))}
            if not tied:
                params["up"] = rng.normal(size=(2, 4))
            mask = np.where(rng.uniform(size=(2, 3, 2)) < 0.4, 0.0, 1.0 / 0.6) if masked else None
            frozen_x = params.pop("x") if name == "arc_adapter_frozen_x" else None
        else:
            params = {"x": x0}

        def build(tape, values):
            x = tape.parameter("x", values["x"]) if "x" in params else tape.constant(frozen_x)
            if name == "linear":
                y = tape.linear(x, tape.parameter("w", values["w"]),
                                tape.parameter("b", values["b"]))
            elif name == "add":
                y = tape.add(x, tape.parameter("b", values["b"]))
            elif name in ("scale", "attention"):
                k, v = (tape.parameter(n, values[n]) for n in ("k", "v"))
                y = tape.attention(x, k, v, heads, -1.7)
            elif "down" in params:
                down = tape.parameter("down", values["down"])
                up = down if tied else tape.parameter("up", values["up"])
                y = tape.arc_adapter(x, up, tape.parameter("coef", values["coef"]),
                                     tape.parameter("bias", values["bias"]), down, mask, tied)
            elif name == "matmul":
                y = tape.matmul(x, tape.constant(rng_w))
            elif name == "layernorm":
                y = tape.layernorm(x, tape.constant(np.ones((1, 4))),
                                   tape.constant(np.zeros((1, 4))), 1e-6)
            elif name == "gelu":
                y = tape.gelu(x)
            elif name == "concat_slice":
                # two overlapping token slices: the middle token's gradient sums both
                z = tape.add(tape.slice_tokens(x, slice(0, 2)), tape.slice_tokens(x, slice(1, 3)))
                y = tape.matmul(z, tape.constant(rng_w))
            else:  # cross_entropy
                return tape.cross_entropy(x, np.array([1, 3, 0]))
            return mean(tape, tape.gelu(y))

        rng_w = rng.normal(size=(4, 4))
        return build, params

    @pytest.mark.parametrize("name", PRIMITIVES)
    def test_primitive(self, name: str) -> None:
        build, params = self._case(name)
        report = gradcheck(build, params, tol=1e-5)
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
            exercised |= {names[node.prim.vjp] for node in tape._nodes
                          if node.prim not in (None, MEAN) and node.needs_grad}
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

    @pytest.mark.parametrize("masked", [False, True], ids=["no_mask", "mask"])
    @pytest.mark.parametrize("tied", [False, True], ids=["untied", "tied"])
    def test_arc_adapter_needs_subsets(self, tied, masked) -> None:
        """Over all 32 needs tuples the adapter's vjp returns None exactly
        where a flag is False, and elsewhere the bits of the all-True call."""
        rng = np.random.default_rng(8)
        x, down = rng.normal(size=(2, 3, 4)), rng.normal(size=(4, 3))
        up = down if tied else rng.normal(size=(3, 4))  # a tied adapter gets W_down twice
        coef, bias = rng.normal(size=(1, 3)), rng.normal(size=(1, 4))
        mask = (rng.random((2, 3, 3)) < 0.7) / 0.7 if masked else None
        operands = (x, up, coef, bias, down)
        adapter = PRIMITIVES["arc_adapter"]
        out, saved = adapter.forward(*operands, mask, tied)
        g = rng.normal(size=out.shape)
        full = adapter.vjp(g, saved, (True,) * 5, *operands, mask, tied)
        assert [grad.shape for grad in full] == [a.shape for a in operands]
        for needs in itertools.product((False, True), repeat=5):
            got = adapter.vjp(g, saved, needs, *operands, mask, tied)
            for i, (need, grad, want) in enumerate(zip(needs, got, full)):
                if need:
                    assert grad.shape == want.shape and grad.tobytes() == want.tobytes(), (needs, i)
                else:
                    assert grad is None, (needs, i)

    def test_backward_passes_the_flags(self) -> None:
        tape = Tape()
        x = tape.constant(np.ones((2, 3, 4)))
        w = tape.constant(np.ones((4, 5)))
        b = tape.parameter("b", np.ones((1, 5)))
        out = tape.linear(x, w, b)
        seen = []
        vjp = out.prim.vjp

        def spy(g, value, needs, *inputs):
            seen.append(needs)
            return vjp(g, value, needs, *inputs)

        assert out.needs == (False, False, True)
        out.prim = out.prim._replace(vjp=spy)
        loss = mean(tape, out)
        grads = backward(tape, loss)
        assert seen == [(False, False, True)]
        assert np.allclose(grads["b"], 0.2, rtol=0, atol=1e-15)
        # the flags come from the node as recorded, not from its parents now
        out.needs = (False, True, True)
        backward(tape, loss)
        assert seen[-1] == (False, True, True)

    def test_freezing_leaves_other_gradients_bit_equal(self) -> None:
        rng = np.random.default_rng(6)
        x0, w0, b0, v0 = (rng.normal(size=s) for s in ((2, 3, 4), (4, 5), (1, 5), (5, 2)))

        def grads(weights_trainable: bool):
            tape = Tape()
            x = tape.parameter("x", x0)
            w = tape.parameter("w", w0) if weights_trainable else tape.constant(w0)
            hidden = tape.gelu(tape.linear(x, w, tape.parameter("b", b0)))
            v = tape.parameter("v", v0) if weights_trainable else tape.constant(v0)
            return backward(tape, mean(tape, tape.matmul(hidden, v)))

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
            # w as a row: resid^T = w^T X^T - y^T, and a tied adapter on the
            # input [[1]] with unit coefficients gives 1 + resid^T resid
            w = tape.parameter("w", values["w"])
            resid = tape.add(tape.matmul(w, tape.constant(x.T)), tape.constant(-y.T))
            gram = tape.arc_adapter(tape.constant([[1.0]]), resid,
                                    tape.constant(np.ones((1, x.shape[0]))),
                                    tape.constant(np.zeros((1, 1))), resid, None, True)
            return tape.matmul(gram, tape.constant([[1.0 / x.shape[0]]]))

        report = gradcheck(build, {"w": w0.T})
        assert report.passed and report.max_rel_err <= 1e-7

        # closed form: 2/n X^T (X w - y)
        tape = Tape()
        out = build(tape, {"w": w0.T})
        grads = backward(tape, out)
        closed = 2.0 / x.shape[0] * x.T @ (x @ w0 - y)
        assert np.abs(grads["w"].T - closed).max() <= 1e-10

    def test_unused_parameter_passes(self) -> None:
        def build(tape, values):
            tape.parameter("unused", values["unused"])
            x = tape.parameter("x", values["x"])
            return mean(tape, tape.matmul(x, x))

        report = gradcheck(build, {"x": np.array([[1.5]]), "unused": np.ones((2, 2))})
        assert report.passed
        assert report.errors["unused"] == 0.0

    @pytest.mark.parametrize("name", ["tol"])
    @pytest.mark.parametrize("value", [math.inf, math.nan, -1.0, 0.0])
    def test_rejects_bad_h_or_tol(self, name, value) -> None:
        def build(tape, values):
            raise AssertionError("gradcheck built a graph for a bad argument")

        with pytest.raises(ConfigError, match=f"gradcheck {name} must be finite and > 0"):
            gradcheck(build, {"x": np.ones((1, 1))}, **{name: value})

    @pytest.mark.parametrize("planted", ["arc_adapter", "gelu"])
    def test_planted_wrong_vjp_fails(self, planted) -> None:
        """One node's vjp scaled by 1 + 1e-4 fails at the default h and tol;
        the same graph with the true vjps passes."""
        rng = np.random.default_rng(12)
        x = rng.normal(size=(2, 3, 4))
        params = {"down": rng.normal(size=(4, 2)), "coef": rng.normal(size=(1, 2)),
                  "bias": rng.normal(size=(1, 4))}

        def build(tape, values, scale=1.0):
            p = {name: tape.parameter(name, arr) for name, arr in values.items()}
            y = tape.arc_adapter(tape.constant(x), p["down"], p["coef"], p["bias"], p["down"],
                                 None, True)
            z = tape.gelu(y)
            node = {"arc_adapter": y, "gelu": z}[planted]
            vjp = node.prim.vjp

            def scaled(*args):
                return tuple(None if g is None else g * scale for g in vjp(*args))

            node.prim = node.prim._replace(vjp=scaled)
            return mean(tape, z)

        assert gradcheck(build, params).passed
        report = gradcheck(lambda tape, values: build(tape, values, 1.0 + 1e-4), params)
        assert not report.passed
        assert 5e-5 < report.max_rel_err < 2e-4, report.summary()

    def test_report_summary_mentions_failures(self) -> None:
        report = GradCheckReport(errors={"w": 1.0}, tol=1e-5)
        assert not report.passed
        assert "FAIL" in report.summary()


# -- the fine-grained compositions the coarse primitives replace, in plain numpy,
# operation for operation (array layouts included, since BLAS rounding depends on them)


def _swapped(a):
    return np.swapaxes(a, -1, -2)


def _flat(a):
    return a.reshape(-1, a.shape[-1])


def _split(a, heads):
    *lead, tokens, width = a.shape
    return np.swapaxes(a.reshape(*lead, tokens, heads, width // heads), -2, -3)


def _merge(a):
    *lead, heads, tokens, width = a.shape
    return np.swapaxes(a, -2, -3).reshape(*lead, tokens, heads * width)


def _accumulate(grads, name, g):
    grads[name] = grads[name] + g if name in grads else g


def _upstream(y):
    """d mean(gelu(y)) / dy as the mean vjp and the exact GELU derivative
    Phi(y) + y phi(y) compute it."""
    pdf = y * -0.5
    pdf *= y
    np.exp(pdf, out=pdf)
    pdf *= 1.0 / np.sqrt(2.0 * np.pi)
    pdf *= y
    slope = y * (1.0 / np.sqrt(2.0))
    erf(slope, out=slope)
    slope += 1.0
    slope *= 0.5
    slope += pdf
    return np.full(y.shape, 1.0 / y.size) * slope


def _fine_adapter(x, up, coef, bias, down, mask, tied):
    """matmul, col_scale, mul_mask, transpose, linear and add; returns the
    output and a backward that maps g to each input's gradient contributions
    in the order the old tape summed them."""
    pre = x @ down
    hidden = pre * coef.reshape(-1)
    if mask is not None:
        hidden = hidden * mask
    w_up = np.ascontiguousarray(_swapped(up)) if tied else up
    lin = _flat(hidden) @ w_up
    lin += bias
    y = x + lin.reshape(x.shape)

    def back(g):
        ghidden = g @ _swapped(w_up)
        gup = _flat(hidden).T @ _flat(g)
        gbias = _flat(g).sum(axis=0).reshape(bias.shape)
        if mask is not None:
            ghidden = ghidden * mask
        gpre = ghidden * coef.reshape(-1)
        gcoef = (ghidden * pre).reshape(-1, pre.shape[-1]).sum(axis=0).reshape(coef.shape)
        # node order, last first: add (x), linear (bias, up), transpose, col_scale, matmul
        return [("x", g), ("bias", gbias), ("up", _swapped(gup) if tied else gup),
                ("coef", gcoef), ("x", gpre @ _swapped(down)), ("down", _flat(x).T @ _flat(gpre))]

    return y, back


def _fine_attention(q, k, v, heads, scale):
    """split_heads, transpose, matmul, scale, softmax_rows, matmul and merge_heads."""
    qh, kh, vh = _split(q, heads), _split(k, heads), _split(v, heads)
    kt = np.ascontiguousarray(_swapped(kh))
    scores = (qh @ kt) * scale
    e = scores - scores.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    probs = e / e.sum(axis=-1, keepdims=True)
    y = _merge(probs @ vh)

    def back(g):
        gh = _split(g, heads)
        gprobs = gh @ _swapped(vh)
        gv = _merge(_swapped(probs) @ gh)
        gscores = (gprobs - (gprobs * probs).sum(axis=-1, keepdims=True)) * probs * scale
        return _merge(gscores @ _swapped(kt)), _merge(_swapped(_swapped(qh) @ gscores)), gv

    return y, back


def _draw_mask(rng, shape, masked):
    if not masked:
        return None
    return np.where(rng.uniform(size=shape) < 0.3, 0.0, 1.0 / 0.7)


class TestCoarseMatchesFine:
    """``arc_adapter`` and ``attention`` equal the fine-grained compositions
    they replace bit for bit: Tape and Eager forwards, and every gradient
    ``backward`` accumulates, the shared projections' included. Sizes of 16
    and up are drawn because BLAS rounding starts to depend on operand
    layouts there."""

    @settings(max_examples=80, deadline=None)
    @given(batch=st.integers(1, 3), tokens=st.integers(1, 5), width=st.integers(1, 20),
           data=st.data(), tied=st.booleans(), masked=st.booleans(),
           x_trainable=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_arc_adapter(self, batch, tokens, width, data, tied, masked, x_trainable,
                         seed) -> None:
        """Two stacked sites share the projections, as layers do under inter sharing."""
        bottleneck = data.draw(st.integers(1, width), label="bottleneck")
        rng = np.random.default_rng(seed)
        values = {"x": rng.normal(size=(batch, tokens, width)),
                  "down": rng.normal(size=(width, bottleneck))}
        if not tied:
            values["up"] = rng.normal(size=(bottleneck, width))
        for site in (1, 2):
            values[f"coef{site}"] = rng.normal(size=(1, bottleneck))
            values[f"bias{site}"] = rng.normal(size=(1, width))
        masks = [_draw_mask(rng, (batch, tokens, bottleneck), masked) for _ in (1, 2)]

        def run(ops, v):
            up = v["down"] if tied else v["up"]
            y = v["x"]
            for site, mask in zip((1, 2), masks):
                y = ops.arc_adapter(y, up, v[f"coef{site}"], v[f"bias{site}"], v["down"],
                                    mask, tied)
            return y

        tape = Tape()
        tv = {n: (tape.parameter(n, a) if n != "x" or x_trainable else tape.constant(a))
              for n, a in values.items()}
        y_tape = run(tape, tv)
        grads = backward(tape, mean(tape, tape.gelu(y_tape)))

        up = values["down"] if tied else values["up"]
        y1, back1 = _fine_adapter(values["x"], up, values["coef1"], values["bias1"],
                                  values["down"], masks[0], tied)
        y2, back2 = _fine_adapter(y1, up, values["coef2"], values["bias2"], values["down"],
                                  masks[1], tied)
        want: dict[str, np.ndarray] = {}
        rename = {1: {"x": "x"}, 2: {"x": "y1"}}
        g = _upstream(y2)
        for site, back in ((2, back2), (1, back1)):
            for name, contribution in back(g):
                if name == "up" and tied:
                    name = "down"
                elif name in ("coef", "bias"):
                    name += str(site)
                _accumulate(want, rename[site].get(name, name), contribution)
            g = want.pop("y1", None)
        if not x_trainable:
            del want["x"]

        assert np.array_equal(y_tape.value, y2)
        assert np.array_equal(run(Eager, values), y2)
        assert set(grads) == set(want)
        for name, grad in grads.items():
            assert np.array_equal(grad, want[name]), name

    @settings(max_examples=80, deadline=None)
    @given(batch=st.integers(1, 3), tokens=st.integers(1, 5), heads=st.integers(1, 3),
           head_dim=st.sampled_from([1, 2, 3, 4, 16, 17]), trainable=st.lists(st.booleans(), min_size=4, max_size=4),
           seed=st.integers(0, 2**32 - 1))
    def test_attention(self, batch, tokens, heads, head_dim, trainable, seed) -> None:
        """q, k and v are projections of one input, as in the model, so the
        input's gradient sums the v, k and q contributions in that order."""
        width = heads * head_dim
        scale = 1.0 / np.sqrt(head_dim)
        rng = np.random.default_rng(seed)
        values = {"x": rng.normal(size=(batch, tokens, width))}
        for n in "qkv":
            values[f"w{n}"] = rng.normal(size=(width, width))
            values[f"b{n}"] = rng.normal(size=(1, width))
        flags = dict(zip("xqkv", trainable))  # x, and each projection's weight and bias

        def run(ops, v):
            q, k, val = (ops.linear(v["x"], v[f"w{n}"], v[f"b{n}"]) for n in "qkv")
            return ops.attention(q, k, val, heads, scale)

        tape = Tape()
        tv = {n: tape.parameter(n, a) if flags[n[-1]] else tape.constant(a)
              for n, a in values.items()}
        y_tape = run(tape, tv)
        grads = backward(tape, mean(tape, tape.gelu(y_tape)))

        x = values["x"]
        proj = {}
        for n in "qkv":
            out = _flat(x) @ values[f"w{n}"]
            out += values[f"b{n}"]
            proj[n] = out.reshape(x.shape)
        y, back = _fine_attention(proj["q"], proj["k"], proj["v"], heads, scale)
        gq, gk, gv = back(_upstream(y))
        want: dict[str, np.ndarray] = {}
        for n, g in (("v", gv), ("k", gk), ("q", gq)):  # the old tape's node order, last first
            _accumulate(want, "x", g @ _swapped(values[f"w{n}"]))
            want[f"w{n}"] = _flat(x).T @ _flat(g)
            want[f"b{n}"] = _flat(g).sum(axis=0).reshape(1, width)
        want = {n: g for n, g in want.items() if flags[n[-1]]}

        assert np.array_equal(y_tape.value, y)
        assert np.array_equal(run(Eager, values), y)
        assert set(grads) == set(want)
        for name, grad in grads.items():
            assert np.array_equal(grad, want[name]), name

    @pytest.mark.parametrize("batch, tokens, width, heads",
                             [(8, 5, 16, 2), (16, 17, 128, 4), (2, 197, 768, 12)],
                             ids=["train", "deploy", "197_tokens"])
    def test_attention_in_place(self, batch, tokens, width, heads) -> None:
        """The softmax over the scores in place and each head's product
        written into its columns of the result give the bits, and save the
        probabilities, of the out-of-place route they replaced."""
        r = Rng(batch)
        q, k, v = (r.normals((batch, tokens, width)) for _ in range(3))
        scale = 1.0 / np.sqrt(width // heads)
        value, (_, _, _, probs) = _attention(q, k, v, heads, scale)
        qh, kh, vh = (_split_heads(a, heads) for a in (q, k, v))
        scores = qh @ np.ascontiguousarray(_swapped(kh))
        scores *= scale
        want_probs = softmax_rows(scores)
        assert value.tobytes() == _merge_heads(want_probs @ vh).tobytes()
        assert probs.tobytes() == want_probs.tobytes()
