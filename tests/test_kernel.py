from __future__ import annotations

import hashlib
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf as scipy_erf  # the oracle: cephes' erf, compiled

from arclab import kernel
from arclab.autodiff import PRIMITIVES, Eager
from arclab.errors import NumericalError, ShapeError
from arclab.kernel import (
    Rng,
    cross_entropy,
    gelu_parts,
    layernorm_parts,
    linear,
    matmul,
    softmax_rows,
    svd,
)


def _rand(rng: np.random.Generator, *shape):
    return rng.normal(size=shape)


def _arrays(out) -> list:
    """Every array in a kernel result, a ``*_parts`` tuple included."""
    if isinstance(out, np.ndarray):
        return [out]
    return [a for part in out for a in _arrays(part)]


class TestMatmul:
    def test_identity(self) -> None:
        rng = np.random.default_rng(0)
        a = _rand(rng, 3, 3)
        assert np.array_equal(matmul(np.eye(3), a), a)

    def test_permutation_hand_case(self) -> None:
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert np.array_equal(matmul(a, swap), np.array([[2.0, 1.0], [4.0, 3.0]]))

    def test_against_triple_loop(self) -> None:
        rng = np.random.default_rng(1)
        a, b = _rand(rng, 5, 7), _rand(rng, 7, 3)
        want = np.zeros((5, 3))
        for i in range(5):
            for j in range(3):
                acc = 0.0
                for k in range(7):
                    acc += a[i, k] * b[k, j]
                want[i, j] = acc
        assert np.abs(matmul(a, b) - want).max() <= 1e-12

    def test_shape_mismatch_names_both_shapes(self) -> None:
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            matmul(np.zeros((2, 3)), np.zeros((2, 3)))

    def test_associativity(self) -> None:
        rng = np.random.default_rng(2)
        for _ in range(25):
            a, b, c = _rand(rng, 4, 6), _rand(rng, 6, 5), _rand(rng, 5, 3)
            left = matmul(matmul(a, b), c)
            right = matmul(a, matmul(b, c))
            scale = max(np.abs(left).max(), 1e-30)
            assert np.abs(left - right).max() / scale <= 1e-9


class TestLinear:
    def test_equals_matmul_plus_bias_on_rows(self) -> None:
        rng = np.random.default_rng(3)
        x, w, b = _rand(rng, 2, 5, 7), _rand(rng, 7, 3), _rand(rng, 1, 3)
        rows = x.reshape(-1, 7)
        assert np.array_equal(linear(x, w, b), (rows @ w + b).reshape(2, 5, 3))
        assert np.array_equal(linear(rows, w, b), rows @ w + b)
        assert np.abs(linear(x, w, b) - (x @ w + b)).max() <= 1e-14

    @pytest.mark.parametrize("x, w, b", [
        (np.zeros((2, 3)), np.zeros((4, 5)), np.zeros((1, 5))),
        (np.zeros((2, 4)), np.zeros((2, 4, 5)), np.zeros((1, 5))),
        (np.zeros((2, 4)), np.zeros((4, 5)), np.zeros((5,))),
        (np.zeros((2, 4)), np.zeros((4, 5)), np.zeros((1, 4))),
    ])
    def test_shape_errors(self, x, w, b) -> None:
        with pytest.raises(ShapeError):
            linear(x, w, b)


class TestKernelsKeepInputs:
    """The in-place kernels write only into arrays they allocated, except
    ``gelu`` and ``erf``, which write into their operand and return it."""

    @pytest.mark.parametrize("name", ["linear", "softmax_rows", "gelu_parts", "gelu",
                                      "layernorm_parts", "erf"])
    def test_inputs_unmodified(self, name: str) -> None:
        rng = np.random.default_rng(11)
        x = _rand(rng, 2, 3, 4)
        args = {
            "linear": (x, _rand(rng, 4, 5), _rand(rng, 1, 5)),
            "layernorm_parts": (x, _rand(rng, 1, 4), _rand(rng, 1, 4), 1e-6),
        }.get(name, (x,))
        if name in ("gelu", "erf"):
            want = gelu_parts(x)[0] if name == "gelu" else scipy_erf(x)
            assert getattr(kernel, name)(x) is x
            assert _same_values(x, want)
            return
        arrays = [a for a in args if isinstance(a, np.ndarray)]
        before = [a.copy() for a in arrays]
        out = getattr(kernel, name)(*args)
        for a, kept in zip(arrays, before):
            assert np.array_equal(a, kept)
            assert not any(np.shares_memory(o, a) for o in _arrays(out))


class TestSvd:
    def test_diagonal(self) -> None:
        _, s, _ = svd(np.diag([3.0, 2.0, 1.0]))
        assert np.allclose(s, [3.0, 2.0, 1.0], atol=1e-12)

    def test_zero_matrix(self) -> None:
        u, s, v = svd(np.zeros((4, 3)))
        assert np.array_equal(s, np.zeros(3))
        assert np.abs(u.T @ u - np.eye(3)).max() <= 1e-10
        assert np.abs(v.T @ v - np.eye(3)).max() <= 1e-10

    def test_rank_one_outer_product(self) -> None:
        rng = np.random.default_rng(3)
        u = rng.normal(size=6)
        u /= np.linalg.norm(u)
        v = rng.normal(size=6)
        v /= np.linalg.norm(v)
        _, s, _ = svd(5.0 * np.outer(u, v))
        assert abs(s[0] - 5.0) <= 1e-10
        assert np.abs(s[1:]).max() <= 1e-10

    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_matrices_reconstruct(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        for _ in range(100):
            m, n = rng.integers(1, 33, size=2)
            a = rng.normal(size=(m, n))
            u, s, v = svd(a)
            k = min(m, n)
            assert np.abs(u @ np.diag(s) @ v.T - a).max() <= 1e-8 * np.abs(a).max()
            assert np.abs(u.T @ u - np.eye(k)).max() <= 1e-10
            assert np.abs(v.T @ v - np.eye(k)).max() <= 1e-10
            assert np.all(np.diff(s) <= 0)
            assert np.all(s >= 0)

    def test_wide_matrix(self) -> None:
        rng = np.random.default_rng(4)
        a = rng.normal(size=(3, 9))
        u, s, v = svd(a)
        assert u.shape == (3, 3) and v.shape == (9, 3)
        assert np.abs(u @ np.diag(s) @ v.T - a).max() <= 1e-8 * np.abs(a).max()

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_input_raises(self, bad: float) -> None:
        a = np.random.default_rng(5).normal(size=(8, 8))
        a[3, 5] = bad
        with pytest.raises(NumericalError, match="non-finite"):
            svd(a)
        with pytest.raises(NumericalError, match="non-finite"):
            svd(a, compute_uv=False)

    def test_lapack_failure_becomes_numerical_error(self, monkeypatch) -> None:
        def failing_svd(a, full_matrices=True, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", failing_svd)
        with pytest.raises(NumericalError, match="did not converge"):
            svd(np.eye(3))
        with pytest.raises(NumericalError, match="did not converge"):
            svd(np.eye(3), compute_uv=False)

    @pytest.mark.parametrize("a", [np.ones(4), np.zeros((0, 3, 3)), np.zeros((0, 3)),
                                   np.zeros((3, 0))])
    def test_rejects_non_matrix_or_empty(self, a: np.ndarray) -> None:
        with pytest.raises(ShapeError):
            svd(a)
        with pytest.raises(ShapeError):
            svd(a, compute_uv=False)

    @pytest.mark.parametrize("shape", [(1, 1, 1), (8, 64, 64), (3, 5, 7), (2, 3, 9, 4)])
    def test_stack_is_each_matrix_alone(self, shape) -> None:
        """A stack's U, s and V are each matrix's own call's, bit for bit, on
        both routes."""
        stack = np.random.default_rng(sum(shape)).normal(size=shape)
        stack[0, ..., 0, :] = 0.0  # a zero row in the first matrix
        (_, s, _), (u, s_full, v) = svd(stack, compute_uv=False), svd(stack)
        k = min(shape[-2:])
        assert s.shape == s_full.shape == shape[:-2] + (k,)
        assert u.shape == shape[:-1] + (k,) and v.shape == shape[:-2] + (shape[-1], k)
        for index in np.ndindex(*shape[:-2]):
            assert s[index].tobytes() == svd(stack[index], compute_uv=False)[1].tobytes()
            for got, want in zip((u, s_full, v), svd(stack[index])):
                assert got[index].tobytes() == want.tobytes()

    def test_non_finite_matrix_in_a_stack_raises(self) -> None:
        stack = np.zeros((3, 4, 4))
        stack[2, 1, 1] = np.nan
        with pytest.raises(NumericalError, match=r"\(3, 4, 4\) holds non-finite"):
            svd(stack, compute_uv=False)

    @settings(max_examples=200, deadline=None)
    @given(m=st.integers(1, 40), n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(["dense", "low_rank", "zero_columns"]),
           scale=st.sampled_from([1e-150, 1.0, 1e150]))
    def test_contract_property(self, m: int, n: int, seed: int, kind: str,
                               scale: float) -> None:
        rng = np.random.default_rng(seed)
        if kind == "low_rank":
            r = int(rng.integers(1, min(m, n) + 1))
            a = rng.normal(size=(m, r)) @ rng.normal(size=(r, n))
        else:
            a = rng.normal(size=(m, n))
        if kind == "zero_columns":
            a[:, rng.random(n) < 0.5] = 0.0
        a *= scale
        u, s, v = svd(a)
        k = min(m, n)
        assert u.shape == (m, k) and s.shape == (k,) and v.shape == (n, k)
        assert np.abs(u @ np.diag(s) @ v.T - a).max() <= 1e-8 * np.abs(a).max()
        assert np.abs(u.T @ u - np.eye(k)).max() <= 1e-10
        assert np.abs(v.T @ v - np.eye(k)).max() <= 1e-10
        assert np.all(np.diff(s) <= 0)
        assert np.all(s >= 0)


class TestSvdValuesOnly:
    """``svd(a, compute_uv=False)``: LAPACK's values-only route, checked
    against the full route's singular values."""

    @staticmethod
    def _check(a: np.ndarray) -> None:
        u, s, v = svd(a, compute_uv=False)
        assert u is None and v is None
        _, want, _ = svd(a)
        assert s.shape == want.shape == (min(a.shape),)
        assert np.all(np.diff(s) <= 0) and np.all(s >= 0)
        assert np.abs(s - want).max() <= 1e-14 * want[0]

    @settings(max_examples=200, deadline=None)
    @given(m=st.integers(1, 64), n=st.integers(1, 64), seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(["dense", "low_rank"]))
    def test_matches_full_route(self, m: int, n: int, seed: int, kind: str) -> None:
        rng = np.random.default_rng(seed)
        if kind == "low_rank":
            r = int(rng.integers(1, min(m, n) + 1))
            a = rng.normal(size=(m, r)) @ rng.normal(size=(r, n))
        else:
            a = rng.normal(size=(m, n))
        self._check(a)

    @pytest.mark.parametrize("n, rank", [(8, 1), (32, 8), (64, 8), (64, 64)])
    def test_planted_spectrum(self, n: int, rank: int) -> None:
        rng = np.random.default_rng(n + rank)
        u = np.linalg.qr(rng.normal(size=(n, rank)))[0]
        v = np.linalg.qr(rng.normal(size=(n, rank)))[0]
        sigmas = np.geomspace(4.0, 0.5, rank)
        a = (u * sigmas) @ v.T
        self._check(a)
        _, s, _ = svd(a, compute_uv=False)
        assert np.abs(s[:rank] - sigmas).max() <= 1e-12
        assert np.abs(s[rank:]).max(initial=0.0) <= 1e-12

    @pytest.mark.parametrize("shape", [(1, 1), (4, 3), (3, 4), (6, 6)])
    def test_zero_matrix(self, shape) -> None:
        _, s, _ = svd(np.zeros(shape), compute_uv=False)
        assert np.array_equal(s, np.zeros(min(shape)))


class TestSoftmaxRows:
    def test_uniform_on_constant_row(self) -> None:
        out = softmax_rows(np.array([[0.0, 0.0, 0.0]]))
        assert np.allclose(out, 1.0 / 3.0, atol=1e-15)

    def test_no_overflow_on_large_logit(self) -> None:
        out = softmax_rows(np.array([[1000.0, 0.0]]))
        assert np.isfinite(out).all()
        assert abs(out[0, 0] - 1.0) <= 1e-12 and out[0, 1] <= 1e-12

    def test_matches_direct_formula(self) -> None:
        out = softmax_rows(np.array([[1.0, 2.0, 3.0]]))
        e = np.exp([1.0, 2.0, 3.0])
        assert np.abs(out - e / e.sum()).max() <= 1e-15

    def test_rows_sum_to_one(self) -> None:
        rng = np.random.default_rng(6)
        a = rng.uniform(-1e3, 1e3, size=(40, 17))
        out = softmax_rows(a)
        assert np.abs(out.sum(axis=1) - 1.0).max() <= 1e-12
        assert (out >= 0).all()

    def test_out_may_be_input(self) -> None:
        """In place over the operand gives the bits of the fresh result, and
        a call without ``out`` leaves its operand as it was."""
        a = np.random.default_rng(7).normal(0.0, 30.0, (3, 5, 197))
        before = a.copy()
        want = softmax_rows(a)
        assert a.tobytes() == before.tobytes()
        assert softmax_rows(a, out=a) is a
        assert a.tobytes() == want.tobytes()


class TestLayernorm:
    def test_constant_row_maps_to_beta(self) -> None:
        out = layernorm_parts(np.array([[1.0, 1.0, 1.0]]), np.ones(3), np.zeros(3), 1e-6)[0]
        assert np.abs(out).max() <= 1e-2  # 1/sqrt(eps) scaling of exact zeros
        assert np.allclose(out, 0.0)

    def test_already_normalized_row(self) -> None:
        out = layernorm_parts(np.array([[-1.0, 1.0]]), np.ones(2), np.zeros(2), 1e-6)[0]
        assert np.abs(out - np.array([[-1.0, 1.0]])).max() <= 1e-6

    def test_random_row_moments(self) -> None:
        rng = np.random.default_rng(7)
        a = rng.normal(size=(5, 64))
        out = layernorm_parts(a, np.ones(64), np.zeros(64), 1e-6)[0]
        assert np.abs(out.mean(axis=1)).max() <= 1e-12
        var = out.var(axis=1)
        assert np.abs(var - 1.0).max() <= 1e-4  # eps-adjusted

    def test_affine_applied(self) -> None:
        rng = np.random.default_rng(8)
        a = rng.normal(size=(2, 4))
        gamma, beta = rng.normal(size=4), rng.normal(size=4)
        base = layernorm_parts(a, np.ones(4), np.zeros(4), 1e-6)[0]
        assert np.allclose(layernorm_parts(a, gamma, beta, 1e-6)[0], base * gamma + beta)

    def test_length_mismatch(self) -> None:
        with pytest.raises(ShapeError):
            layernorm_parts(np.zeros((2, 4)), np.ones(3), np.zeros(4), 1e-6)[0]

    def test_vector_and_row_parameters_give_the_same_bits(self) -> None:
        """gamma and beta broadcast as given: a (D,) vector and the (1, D)
        row the model stores give the same value and intermediates."""
        rng = np.random.default_rng(9)
        a, gamma, beta = rng.normal(size=(2, 3, 4)), rng.normal(size=4), rng.normal(size=4)
        vector = _arrays(layernorm_parts(a, gamma, beta, 1e-6))
        row = _arrays(layernorm_parts(a, gamma.reshape(1, 4), beta.reshape(1, 4), 1e-6))
        assert [(v.shape, v.tobytes()) for v in vector] == [(r.shape, r.tobytes()) for r in row]


    @settings(max_examples=100, deadline=None)
    @given(shape=st.lists(st.integers(1, 40), min_size=1, max_size=3),
           seed=st.integers(0, 2**32 - 1), transpose=st.booleans())
    def test_row_mean_is_ndarray_mean(self, shape: list, seed: int, transpose: bool) -> None:
        a = np.random.default_rng(seed).normal(size=shape) * 1e3
        if transpose:
            a = a.T  # a strided last axis
        assert kernel.row_mean(a).tobytes() == a.mean(axis=-1, keepdims=True).tobytes()


# erf's branch edge |x / sqrt(2)| = 1 from both sides, +-0, +-inf, NaN,
# subnormals and the smallest normal, and two values in erf's |x| > 1 branch
_SQRT2 = math.sqrt(2.0)
GELU_SPECIALS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e-310,
                 -2.2250738585072014e-308, _SQRT2, -math.nextafter(_SQRT2, 2.0),
                 math.nextafter(_SQRT2, 0.0), 8.5, -40.0]


class TestGelu:
    def test_zero(self) -> None:
        assert gelu_parts(np.array([[0.0]]))[0][0, 0] == 0.0

    def test_asymptote(self) -> None:
        assert abs(gelu_parts(np.array([[10.0]]))[0][0, 0] - 10.0) <= 1e-6

    def test_value_at_one_matches_high_precision(self) -> None:
        # x * Phi(x) at x=1, evaluated with 40-digit arithmetic and frozen
        assert abs(gelu_parts(np.array([[1.0]]))[0][0, 0] - 0.8413447460685429486) <= 1e-15

    def test_grad_matches_finite_differences(self) -> None:
        # the derivative is the vjp of the gelu primitive, from the forward's cdf
        x = np.linspace(-4.0, 4.0, 33).reshape(1, -1)
        h = 1e-6
        fd = (gelu_parts(x + h)[0] - gelu_parts(x - h)[0]) / (2 * h)
        prim = PRIMITIVES["gelu"]
        _, cdf = prim.forward(x)
        (grad,) = prim.vjp(np.ones_like(x), cdf, (True,), x)
        assert np.abs(fd - grad).max() <= 1e-9

    @settings(max_examples=40, deadline=None)
    @given(size=st.sampled_from([1, 32767, 32768, 32769, 139264]),
           seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([0.5, 3.0, 30.0]),
           specials=st.lists(st.tuples(st.integers(0, 139263), st.sampled_from(GELU_SPECIALS)),
                             max_size=12))
    def test_eager_route_is_gelu_parts(self, size, seed, scale, specials) -> None:
        """Eager's in-place GELU is ``gelu_parts``' value bit for bit, NaN
        positions included: sizes around one block of :data:`kernel._ERF_BLOCK`
        values and the (16, 17, 512) fc1 output of a D=128 forward, both erf
        branches (|x| = sqrt(2) is the edge), +-0, +-inf, NaN and subnormals."""
        a = np.random.default_rng(seed).normal(0.0, scale, size)
        for i, v in specials:
            a[i % size] = v
        if size == 139264:
            a = a.reshape(16, 17, 512)
        with np.errstate(invalid="ignore"):  # -inf * Phi(-inf) = -inf * 0
            want = gelu_parts(a)[0]
            got = Eager.gelu(a.copy())
        assert _same_values(got, want)

    def test_eager_route_writes_into_its_operand(self) -> None:
        a = np.random.default_rng(2).normal(0.0, 2.0, (3, 5, 40_000))
        want = gelu_parts(a)[0]
        assert Eager.gelu(a) is a
        assert _same_values(a, want)

    def test_shapes(self) -> None:
        x = np.random.default_rng(6).normal(0.0, 2.0, (5, 7))
        assert kernel.gelu(np.empty((0, 3))).shape == (0, 3)
        with pytest.raises(ShapeError, match="C-contiguous"):
            kernel.gelu(x.T)
        with pytest.raises(ShapeError, match="C-contiguous"):
            Eager.gelu(x.T)


def _same_values(got: np.ndarray, want: np.ndarray) -> bool:
    """Same shape and bits, where a NaN matches any NaN (its payload is not pinned)."""
    same = (got.view(np.int64) == want.view(np.int64)) | (np.isnan(got) & np.isnan(want))
    return got.shape == want.shape and bool(same.all())


_ONE_UP, _EIGHT_DOWN = math.nextafter(1.0, 2.0), math.nextafter(8.0, 0.0)
# each branch's ends, where erfc reads 0 (a^2 > MAXLOG from 26.64), squares
# that overflow, subnormals and the specials
ERF_EDGES = [0.0, 1.0, _ONE_UP, math.nextafter(1.0, 0.0), 5.9, 6.0, 8.0, _EIGHT_DOWN,
             math.nextafter(8.0, 9.0), 26.6, 26.64, 26.65, 27.0, 27.3, 1e154, 1.4e154, 1e300,
             1e308, math.inf, 5e-324, 2.0**-1030, 2.2250738585072014e-308, math.nan]


@pytest.mark.filterwarnings("error")
class TestErf:
    """``kernel.erf`` is cephes' erf in numpy: bit for bit
    ``scipy.special.erf``, with no floating-point warning."""

    @staticmethod
    def check(x) -> None:
        """erf written into a C-contiguous copy of ``x`` is scipy's erf of ``x``."""
        x = np.asarray(x, dtype=np.float64)
        assert _same_values(kernel.erf(x.copy()), scipy_erf(x))

    def test_edges(self) -> None:
        self.check(ERF_EDGES + [-v for v in ERF_EDGES])
        for v in ERF_EDGES:  # alone, so a block holds one branch only
            self.check([v])
            self.check([-v])

    @settings(max_examples=400, deadline=None)
    @given(values=st.lists(st.floats() | st.floats(-9.0, 9.0), min_size=1, max_size=64))
    def test_any_float(self, values) -> None:
        """Any float64, with extra weight where both branches give values
        other than +-1."""
        self.check(values)

    @pytest.mark.parametrize("n", [32767, 32768, 32769])
    def test_block_edges(self, n: int) -> None:
        """Around one block of :data:`kernel._ERF_BLOCK` values, with
        entries of |x| > 1 on both sides of the block boundary, and with none."""
        assert kernel._ERF_BLOCK == 32768
        x = np.random.default_rng(n).uniform(-1.0, 1.0, n)
        self.check(x)
        for i, v in zip([0, 32766, 32767, 32768, n - 1], [3.0, -_ONE_UP, 30.0, -1.5, _EIGHT_DOWN]):
            x[min(i, n - 1)] = v
        self.check(x)

    def test_mixed_arrays(self) -> None:
        """Some entries past |x| = 1 among many within, in several blocks
        and in a 3-D shape."""
        rng = np.random.default_rng(4)
        self.check(rng.normal(0.0, 3.0, (3, 170, 257)))
        x = rng.uniform(-1.0, 1.0, 100_003)
        x[rng.integers(0, x.size, 40)] = rng.normal(0.0, 10.0, 40)
        self.check(x)
        self.check(np.linspace(-30.0, 30.0, 300_001))

    def test_out_may_be_input(self) -> None:
        x = np.random.default_rng(5).normal(0.0, 2.0, (4, 50_000))
        want = scipy_erf(x)
        assert kernel.erf(x) is x
        assert _same_values(x, want)

    def test_shapes(self) -> None:
        x = np.random.default_rng(6).normal(0.0, 2.0, (5, 7))
        self.check(x.T)
        self.check(np.float64(0.5))
        assert kernel.erf(np.empty((0, 3))).shape == (0, 3)
        with pytest.raises(ShapeError, match="C-contiguous"):
            kernel.erf(x.T)


class TestCrossEntropy:
    def test_uniform_logits(self) -> None:
        loss = cross_entropy(np.zeros((2, 4)), np.array([0, 3]))
        assert abs(loss - math.log(4.0)) <= 1e-12

    def test_matches_direct_formula(self) -> None:
        logits = np.array([[1.0, 2.0, 0.5]])
        want = math.log(np.exp([1.0, 2.0, 0.5]).sum()) - 2.0
        assert abs(cross_entropy(logits, np.array([1])) - want) <= 1e-12

    def test_bad_labels(self, bad_labels) -> None:
        labels, message = bad_labels
        with pytest.raises(ShapeError, match=message):
            cross_entropy(np.zeros((len(labels), 3)), labels)


def _state(rng: Rng) -> dict:
    return rng.generator.bit_generator.state


class TestRng:
    def test_equal_seeds_equal_streams(self) -> None:
        a, b = Rng(12345), Rng(12345)
        for draw in ("normals", "uniforms", "permutation"):
            assert getattr(a, draw)(10_000).tobytes() == getattr(b, draw)(10_000).tobytes(), draw
        assert _state(a) == _state(b)

    def test_different_seeds_differ(self) -> None:
        assert Rng(1).normals(4).tobytes() != Rng(2).normals(4).tobytes()
        assert Rng(1).uniforms(4).tobytes() != Rng(2).uniforms(4).tobytes()

    def test_uniform_range(self) -> None:
        u = Rng(9).uniforms(100_000)
        assert ((0.0 <= u) & (u < 1.0)).all()

    def test_normals_moments(self) -> None:
        rng = Rng(10)
        x = rng.normals((4000,))
        assert abs(x.mean()) <= 0.06
        assert abs(x.std() - 1.0) <= 0.05

    def test_permutation_is_a_permutation(self) -> None:
        rng = Rng(11)
        perm = rng.permutation(50)
        assert perm.dtype.kind == "i"
        assert sorted(perm.tolist()) == list(range(50))

    @pytest.mark.parametrize("shape, want", [(0, (0,)), (5, (5,)), ((), ()), ((3, 4), (3, 4)),
                                             ((2, 0, 3), (2, 0, 3))])
    def test_shapes_and_dtypes(self, shape, want) -> None:
        rng = Rng(13)
        for x in (rng.normals(shape), rng.normals(shape, 0.5), rng.uniforms(shape)):
            assert isinstance(x, np.ndarray)
            assert x.shape == want and x.dtype == np.float64

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), n=st.integers(0, 2000),
           scale=st.floats(-4.0, 4.0, allow_nan=False))
    def test_scale_is_one_product(self, seed: int, n: int, scale: float) -> None:
        """``normals(shape, scale)`` is ``scale * normals(shape)`` bit for bit."""
        assert Rng(seed).normals(n, scale).tobytes() == (scale * Rng(seed).normals(n)).tobytes()

    def test_vit_b_sized_draw_starts_no_thread(self, monkeypatch) -> None:
        """A draw the size of ViT-B's largest weight (768 x 3072 values) runs
        on the calling thread."""
        started = []
        monkeypatch.setattr(threading.Thread, "start", lambda thread: started.append(thread))
        rng = Rng(0)
        assert rng.normals((768, 3072), 0.02).shape == (768, 3072)
        assert rng.uniforms((768, 3072)).shape == (768, 3072)
        assert started == []


# First 16 raw 64-bit words of the PCG64 stream under Rng(seed): the bit
# generator alone, which NEP 19 keeps fixed across numpy releases.
U64_WORDS = {
    0: (
        0xa30febcfd9c2825f, 0x4510bdf882d9d721, 0x0a7d3da94ecde8b8, 0x043b27b61342f01d,
        0xd0327a782cde513b, 0xe9aa5979a6401c4e, 0x9b4c7b7180edb27f, 0xbac0495ff8829a45,
        0x8b2b01e7a1dc7fbf, 0xef60e8078f56bfed, 0xd0dbc74d4700374c, 0x00b37868abbe90b0,
        0xdb7ed8bf64e6f5f0, 0x089910738de7951f, 0xbacab307c3cfd379, 0x2cf7c449d8b927a6,
    ),
    1: (
        0x8306bdf37922e4ff, 0xf35196bbc152a866, 0x24e7a4f608ec18cd, 0xf2dab0aed2ac6fd2,
        0x4fd42fa03fcd72a9, 0x6c5f1f45de787048, 0xd3e4513345ee6d24, 0x68c1464c41ca3aca,
        0x8cb22c02a4d1fa2a, 0x070e1d3215f30262, 0xc0e63c2edd973235, 0x89c3c29ad67f9ca4,
        0x54694c3ad14a9948, 0xc9d676a873e2d50a, 0x4d9e2d241fb91945, 0x7418700c1fda0c2e,
    ),
    2**63 + 5: (
        0x7af08e89d1f1456d, 0xe777e80c301c2fd6, 0xa44875755450c1c0, 0x0ff81ef497d16368,
        0x2befa4de3ad25e6f, 0xc7559f58074b74c6, 0xb8372d815fa55e90, 0x948c8d056a6c7db8,
        0x4afbe77f102c6810, 0x5e7069dad8b27e73, 0x486377ecf9f242e5, 0x937ec036c2b8f5b2,
        0x55ab0b38bc48a37c, 0xe16432a2dafbd114, 0x48a9caff48078424, 0x9c0b7267eb3fd30b,
    ),
    2**64 - 1: (
        0xae163a7a8c47568f, 0xd86659f5f3382359, 0x01e52b195bc2d24a, 0xe5026aaf19a22db1,
        0x2103dd989acff71c, 0x519f668e4da8ffa0, 0x96e7ca73cf907673, 0x2ec49d1809f5929e,
        0xe92061b740f43764, 0x82f5cc251a50fe03, 0xb13c6d1813732d05, 0x447ce70c38ff4d13,
        0xffd9effcfbb40857, 0x94048b86b13545f1, 0xcb9b4c2be367d0b0, 0x5b768e30b4819344,
    ),
}

# Per shape, from a fresh Rng(2031): SHA-256 of the little-endian float64
# bytes of uniforms(shape), then of normals(shape, scale=0.02) drawn next,
# and the 128-bit PCG64 state left after both.
BULK_DRAWS = [
    (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     0x75da4364fb120462f8b7b3f62f79a838),
    (1, "de57e855b59292e45011efe06593b18e371cc23aa8a640e3c7c8947ae18944e8",
     "eb333d5d34ef9731a4348bb941a04ecd62be303fcb32b05205e5b4b30e81a6b9",
     0x8495bb0bb4464c8e255dde52bb1f79d2),
    (2047, "9cbbdcd666d7e2bee76949fc718b05d2d8b9be429520ed26062d7ecf09c457f5",
     "28b27894d10d5e120d6b9d9da865d8b1d9da2a1c3b6d125221024e6241429fd5",
     0xc48d6a11a5c9bd04c573dcd8de0283a9),
    (2048, "154e7478eee9936cb0a17a301e06bb846a61ffcb6c1696ee865483471c1f519f",
     "aaac11d7c744a0772b399f06b58b289208ee6b303823b35f6df37048fd87138c",
     0x24d01e1405c9276f5d286d5732f16e5b),
    (4097, "30b20de72821cfd9a1bf29129a8432732dacb9d73e7c2c6090893cff674568a8",
     "df9006cc8af71e326431ed5b9e254cc35f83e91f9869b8a3e853f6c09e0b4628",
     0x5ebc72f5261bf98f3c6fa13cd718d336),
    (65536, "0863fec9ea344800b08ee4afa344b9aa29427d4005a902e6761aa0ed8203b846",
     "aa842f4071f6fac8e41b5ed7f4de4fcd643d64006763a78e91c63373ef697b88",
     0xe92bfa57e90cd43710d96d1bdbf5e6ca),
    ((128, 512), "0863fec9ea344800b08ee4afa344b9aa29427d4005a902e6761aa0ed8203b846",
     "aa842f4071f6fac8e41b5ed7f4de4fcd643d64006763a78e91c63373ef697b88",
     0xe92bfa57e90cd43710d96d1bdbf5e6ca),
]


def _sha256(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a, dtype="<f8").tobytes()).hexdigest()


class TestRngKnownAnswers:
    """Pinned draws. They hold while numpy keeps PCG64's stream (NEP 19
    fixes it) and the ``Generator`` methods ``standard_normal``, ``random``
    and ``permutation``, which a numpy feature release may change: then
    ``test_first_words`` still passes and the draw digests fail."""

    @pytest.mark.parametrize("seed", sorted(U64_WORDS))
    def test_first_words(self, seed: int) -> None:
        words = Rng(seed).generator.bit_generator.random_raw(16)
        assert tuple(int(w) for w in words) == U64_WORDS[seed]

    def test_first_draws_at_seed_0(self) -> None:
        """SHA-256 of normals(64), uniforms(64) and permutation(64), drawn in
        turn from Rng(0), as little-endian float64 and int64 bytes."""
        rng = Rng(0)
        assert _sha256(rng.normals(64)) == (
            "4e7a2ece1420539cec5d0bc6f001d711fa1ad522912bb52a09fb2668fb97c766")
        assert _sha256(rng.uniforms(64)) == (
            "cd6473c96378ff894b5758832e5bf06a98bc51c75c86d6eb3e838dcb9c33a859")
        assert hashlib.sha256(rng.permutation(64).astype("<i8").tobytes()).hexdigest() == (
            "e0318c0c45b0dfba9be55766a94786b74bdaaf287a1d2709e7f5a305e0f5ba82")

    @pytest.mark.parametrize("shape, uniforms_sha, normals_sha, state", BULK_DRAWS,
                             ids=[str(row[0]) for row in BULK_DRAWS])
    def test_bulk_draws(self, shape, uniforms_sha, normals_sha, state) -> None:
        rng = Rng(2031)
        u = rng.uniforms(shape)
        x = rng.normals(shape, scale=0.02)
        want_shape = shape if isinstance(shape, tuple) else (shape,)
        assert u.shape == want_shape and x.shape == want_shape
        assert u.dtype == np.float64 and x.dtype == np.float64
        assert _sha256(u) == uniforms_sha
        assert _sha256(x) == normals_sha
        assert _state(rng)["state"]["state"] == state


_CALLS = st.one_of(
    st.tuples(st.just("uniforms"), st.integers(0, 3000), st.integers(1, 500)),
    st.tuples(st.just("normals"), st.integers(0, 1500), st.integers(1, 500),
              st.floats(-4.0, 4.0, allow_nan=False)),
    st.tuples(st.just("permutation"), st.integers(0, 40)),
)


def _in_pieces(draw, n: int, piece: int, *args) -> np.ndarray:
    """``draw(n, *args)`` made as draws of at most ``piece`` values, joined."""
    return np.concatenate([draw(min(piece, n - i), *args) for i in range(0, n, piece)]
                          or [np.empty(0)])


class TestRngBulkMatchesScalar:
    """One draw equals the same values drawn in pieces, down to one value a
    draw, and leaves the state that the pieces leave."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), calls=st.lists(_CALLS, max_size=6))
    def test_any_call_sequence(self, seed: int, calls) -> None:
        bulk, pieces = Rng(seed), Rng(seed)
        for kind, *args in calls:
            if kind == "uniforms":
                n, piece = args
                got, want = bulk.uniforms(n), _in_pieces(pieces.uniforms, n, piece)
            elif kind == "normals":
                n, piece, scale = args
                got, want = bulk.normals(n, scale), _in_pieces(pieces.normals, n, piece, scale)
            else:
                (m,) = args
                got, want = bulk.permutation(m), pieces.permutation(m)
            assert got.tobytes() == want.tobytes(), kind
        assert _state(bulk) == _state(pieces)

    def test_normals_across_a_block_from_a_used_state(self) -> None:
        """From a state that earlier draws have moved, a draw of 32,769
        normals equals the same normals drawn one at a time."""
        bulk, scalar = Rng(77), Rng(77)
        bulk.uniforms(3)
        scalar.uniforms(3)
        n = (1 << 15) + 1
        got = bulk.normals(n, 0.5)
        assert got.tobytes() == _in_pieces(scalar.normals, n, 1, 0.5).tobytes()
        assert _state(bulk) == _state(scalar)


class TestRngChunks:
    """Only the number of values drawn moves the stream, not the shape they
    are drawn in."""

    @pytest.mark.parametrize("block, n", [(64, 8195), (64, 40001), (64, 16411),
                                          (6000, 8195), (1000, 9999)])
    def test_small_blocks(self, block: int, n: int) -> None:
        """n values drawn as rows of ``block`` values, then the rest, equal
        the flat draw of n values and leave its state."""
        flat, rows = Rng(n), Rng(n)
        for draw, args in (("uniforms", ()), ("normals", (0.25,))):
            want = getattr(flat, draw)(n, *args)
            got = np.concatenate([getattr(rows, draw)((n // block, block), *args).ravel(),
                                  getattr(rows, draw)(n % block, *args)])
            assert got.tobytes() == want.tobytes(), draw
            assert _state(rows) == _state(flat), draw


class TestRngSplit:
    """A draw split into pieces equals one draw, on one CPU or two, and no
    draw starts a thread."""

    SIZES = [257, 512, 1001, 4099, 8195]

    @staticmethod
    def record_starts(monkeypatch) -> list:
        """Patch ``threading.Thread.start`` to record each thread it would start."""
        started = []
        monkeypatch.setattr(threading.Thread, "start", lambda thread: started.append(thread))
        return started

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("block", [64, 1024, 2560])
    @pytest.mark.parametrize("n", SIZES)
    def test_equals_scalar_loop(self, monkeypatch, pin_cpus, cpus: int, block: int, n: int) -> None:
        """From a used state, n uniforms and then n normals drawn at once
        equal the same values drawn one at a time and in pieces of
        ``block``, and all three leave the same state."""
        pin_cpus(cpus)
        started = self.record_starts(monkeypatch)
        bulk, scalar, pieces = Rng(n), Rng(n), Rng(n)
        for rng in (bulk, scalar, pieces):
            rng.uniforms(3)
        got = bulk.uniforms(n)
        assert got.tobytes() == _in_pieces(scalar.uniforms, n, 1).tobytes()
        assert got.tobytes() == _in_pieces(pieces.uniforms, n, block).tobytes()
        got = bulk.normals(n, 0.25)
        assert got.tobytes() == _in_pieces(scalar.normals, n, 1, 0.25).tobytes()
        assert got.tobytes() == _in_pieces(pieces.normals, n, block, 0.25).tobytes()
        assert _state(bulk) == _state(scalar) == _state(pieces)
        assert started == []

    @pytest.mark.parametrize("draw", ["uniforms", "normals"])
    def test_out_of_memory_before_any_draw_or_thread(self, monkeypatch, draw) -> None:
        """An output too large to allocate (2**45 float64 values, 256 TiB)
        fails first: the stream does not move and no thread starts."""
        started = self.record_starts(monkeypatch)
        rng = Rng(1)
        before = _state(rng)
        with pytest.raises(MemoryError, match="Unable to allocate"):
            getattr(rng, draw)((1 << 45,))
        assert _state(rng) == before
        assert started == []
        assert getattr(rng, draw)(4).tobytes() == getattr(Rng(1), draw)(4).tobytes()


class TestRunBoth:
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_results_in_order_and_threads(self, monkeypatch, pin_cpus, cpus: int) -> None:
        """On one CPU both calls run on the calling thread and no thread starts."""
        pin_cpus(cpus)
        started = []
        real = threading.Thread.start

        def start(thread):
            started.append(thread)
            real(thread)

        monkeypatch.setattr(threading.Thread, "start", start)
        first, second = kernel.run_both(threading.get_ident, threading.get_ident)
        assert first == threading.get_ident()
        assert len(started) == cpus - 1
        assert second == (started[0].ident if started else first)

    def test_cpu_count_without_affinity(self, monkeypatch) -> None:
        """Where ``os.sched_getaffinity`` is missing, ``os.cpu_count`` decides."""
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert kernel.run_both(threading.get_ident, threading.get_ident) == (
            threading.get_ident(), threading.get_ident())


# A GEMM whose bits depend on the BLAS thread count (OpenBLAS on two CPUs
# splits it), run in a fresh process that imports arclab before numpy.
_BLAS_GEMM = """
import hashlib, os
import arclab
import numpy as np
rng = np.random.default_rng(0)
a, b = rng.standard_normal((1576, 768)), rng.standard_normal((1576, 50))
print(os.environ["OPENBLAS_NUM_THREADS"], hashlib.sha256((a.T @ b).tobytes()).hexdigest())
"""


class TestBlasThreads:
    @staticmethod
    def _gemm(**blas) -> list[str]:
        """(OPENBLAS_NUM_THREADS, SHA-256 of the GEMM) from a fresh process
        whose BLAS variables are only ``blas``."""
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", _BLAS_GEMM], env={**env, **blas},
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        return done.stdout.split()

    def test_import_defaults_blas_to_one_thread(self) -> None:
        """With no BLAS variable set, importing arclab before numpy gives the
        bits of a one-thread BLAS, whatever the CPU count."""
        assert self._gemm() == self._gemm(OPENBLAS_NUM_THREADS="1")

    def test_import_keeps_a_thread_count_given(self) -> None:
        assert self._gemm(OPENBLAS_NUM_THREADS="2")[0] == "2"
