from __future__ import annotations

import hashlib
import math
import os
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf as scipy_erf  # the oracle: cephes' erf, compiled

from arclab import kernel
from arclab.autodiff import PRIMITIVES
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
    """The in-place kernels write only into arrays they allocated."""

    @pytest.mark.parametrize("name", ["linear", "softmax_rows", "gelu_parts", "layernorm_parts",
                                      "erf"])
    def test_inputs_unmodified(self, name: str) -> None:
        rng = np.random.default_rng(11)
        x = _rand(rng, 2, 3, 4)
        args = {
            "linear": (x, _rand(rng, 4, 5), _rand(rng, 1, 5)),
            "layernorm_parts": (x, _rand(rng, 1, 4), _rand(rng, 1, 4), 1e-6),
        }.get(name, (x,))
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

    @pytest.mark.parametrize("a", [np.ones(4), np.ones((2, 2, 2)), np.zeros((0, 3)),
                                   np.zeros((3, 0))])
    def test_rejects_non_matrix_or_empty(self, a: np.ndarray) -> None:
        with pytest.raises(ShapeError):
            svd(a)
        with pytest.raises(ShapeError):
            svd(a, compute_uv=False)

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


    @settings(max_examples=100, deadline=None)
    @given(shape=st.lists(st.integers(1, 40), min_size=1, max_size=3),
           seed=st.integers(0, 2**32 - 1), transpose=st.booleans())
    def test_row_mean_is_ndarray_mean(self, shape: list, seed: int, transpose: bool) -> None:
        a = np.random.default_rng(seed).normal(size=shape) * 1e3
        if transpose:
            a = a.T  # a strided last axis
        assert kernel.row_mean(a).tobytes() == a.mean(axis=-1, keepdims=True).tobytes()


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
        x = np.asarray(x, dtype=np.float64)
        assert _same_values(kernel.erf(x), scipy_erf(x))

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
        assert kernel.erf(x, out=x) is x
        assert _same_values(x, want)

    def test_shapes(self) -> None:
        x = np.random.default_rng(6).normal(0.0, 2.0, (5, 7))
        self.check(x.T)  # strided input, read through a copy
        self.check(np.float64(0.5))
        assert kernel.erf(np.empty((0, 3))).shape == (0, 3)
        with pytest.raises(ShapeError, match="C-contiguous"):
            kernel.erf(x, out=np.empty((7, 5)).T)


class TestCrossEntropy:
    def test_uniform_logits(self) -> None:
        loss = cross_entropy(np.zeros((2, 4)), np.array([0, 3]))
        assert abs(loss - math.log(4.0)) <= 1e-12

    def test_matches_direct_formula(self) -> None:
        logits = np.array([[1.0, 2.0, 0.5]])
        want = math.log(np.exp([1.0, 2.0, 0.5]).sum()) - 2.0
        assert abs(cross_entropy(logits, np.array([1])) - want) <= 1e-12


class TestRng:
    def test_equal_seeds_equal_streams(self) -> None:
        a, b = Rng(12345), Rng(12345)
        assert [a.u64() for _ in range(10_000)] == [b.u64() for _ in range(10_000)]

    def test_different_seeds_differ(self) -> None:
        assert Rng(1).u64() != Rng(2).u64()

    def test_uniform_range(self) -> None:
        rng = Rng(9)
        draws = [rng.uniform() for _ in range(1000)]
        assert all(0.0 <= u < 1.0 for u in draws)

    def test_normals_moments(self) -> None:
        rng = Rng(10)
        x = rng.normals((4000,))
        assert abs(x.mean()) <= 0.06
        assert abs(x.std() - 1.0) <= 0.05

    def test_permutation_is_a_permutation(self) -> None:
        rng = Rng(11)
        perm = rng.permutation(50)
        assert sorted(perm.tolist()) == list(range(50))

    def test_randint_bounds(self) -> None:
        rng = Rng(12)
        assert all(0 <= rng.randint(7) < 7 for _ in range(500))


# First 16 words of the xoshiro256** stream, pinned per seed.
U64_WORDS = {
    0: (
        0x99ec5f36cb75f2b4, 0xbf6e1f784956452a, 0x1a5f849d4933e6e0, 0x6aa594f1262d2d2c,
        0xbba5ad4a1f842e59, 0xffef8375d9ebcaca, 0x6c160deed2f54c98, 0x8920ad648fc30a3f,
        0xdb032c0ba7539731, 0xeb3a475a3e749a3d, 0x1d42993fa43f2a54, 0x11361bf526a14bb5,
        0x1b4f07a5ab3d8e9c, 0xa7a3257f6986db7f, 0x7efdaa95605dfc9c, 0x4bde97c0a78eaab8,
    ),
    1: (
        0xb3f2af6d0fc710c5, 0x853b559647364cea, 0x92f89756082a4514, 0x642e1c7bc266a3a7,
        0xb27a48e29a233673, 0x24c123126ffda722, 0x123004ef8df510e6, 0x61954dcc47b1e89d,
        0xddfdb48ab9ed4a21, 0x8d3cdb8c3aa5b1d0, 0xeebd114bd87226d1, 0xf50c3ff1e7d7e8a6,
        0xeeca3115e23bc8f1, 0xab49ed3db4c66435, 0x99953c6c57808dd7, 0xe3fa941b05219325,
    ),
    2**63 + 5: (
        0x2d064cc3000e3b15, 0xe1c6ae926d7b8400, 0x212465571f7c88ec, 0x5fba95c989727ed4,
        0x7fb15b82d0250d17, 0xea678a6df8ea2977, 0x1aa0da05b848c945, 0xae34b0dc1d50826e,
        0x476ff791afc219f0, 0x202acfb673456187, 0x2713666ff8c86287, 0xd4e02caef507ca41,
        0x6ecc733dd60cc8f8, 0x5a232e3b1eaff3c5, 0x65db8919086ee5c9, 0xafcfdfde5abf5e19,
    ),
    2**64 - 1: (
        0x8f5520d52a7ead08, 0xc476a018caa1802d, 0x81de31c0d260469e, 0xbf658d7e065f3c2f,
        0x913593fda1bca32a, 0xbb535e93941ba525, 0x5ecda415c3c6dfde, 0xc487398fc9de9ae2,
        0xa06746dbb57c4d62, 0x9d414196fdf05c8a, 0x41cf1af9a178c669, 0x0b3b3a95e78839f9,
        0x7aaab30444aefc7e, 0x7b251ec961f341b1, 0x30ed32acf367205f, 0xc6ca62fc772728b0,
    ),
}

# Per shape, from a fresh Rng(2031): SHA-256 of the little-endian float64
# bytes of uniforms(shape), then of normals(shape, scale=0.02) drawn next,
# and the state left after both.
BULK_DRAWS = [
    (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     (0xe58530cbd53a8d8d, 0x81430c2d566390b3, 0x0d70072f0eac0075, 0x1b09ff447a2be821)),
    (1, "06ff94998b3bc00eb885c065a8bb01294f32f7ab6adad9636600222120616964",
     "b6e62de5e0ade7cd09393c6d954460c451e14c84ff81136189f0091ce2aa9df8",
     (0xf8a584be298db202, 0x074e8b019d89d096, 0x2709f4a7d8a6b53a, 0xeffbfc39c5f3806c)),
    (2047, "b11a02bbbfdf1bc43ae5d847aa356dae451266e8a2fd5f599bd08f0c1ec0ee4d",
     "96ade85ee140b506be66dc20cf08acafff3cc5144c5d049b3afba25a77d29fa7",
     (0x24003c0a48478f7e, 0x6114ced0a428ff90, 0x0bac063f51460059, 0x78496a294cbf10c1)),
    (2048, "21719d19f30e0338d5ce3188853d84c6dea13edb69874425557768fce7d1c008",
     "f3ee8940097862ba7958fa61978c0d5d5823a582d113783ade14279f95d7d702",
     (0x8653e72508477303, 0x297cc18af5215d3d, 0xd47128493187c282, 0x2bd1210b95031424)),
    (4097, "9af127b3b0f8e5c618a2187ab13dffd84957dd11c24be1887776d72cf3f26d68",
     "c6fbea10e6d3f73f485313a8e8619ac7f63bb4c25a0996bb0cb5046418463ada",
     (0x7e61c16e11c0b0ba, 0x73e282ef402be7da, 0xb42c6e6b1517de63, 0xf08dec6fb9dfef8b)),
    (65536, "63001ec3f37823d2e75b705e9e30dc0ffa7df19d561b50b613074d8cb6bbd92a",
     "8bae4276657e5e59b76549db81e3e9ed35cc2ef7341e347a7cd9374afbc31365",
     (0x3df5c6e7a42a9a15, 0x3e49f50d3d59dad5, 0xff85d081b686c315, 0xf29154037f59407d)),
    ((128, 512), "63001ec3f37823d2e75b705e9e30dc0ffa7df19d561b50b613074d8cb6bbd92a",
     "8bae4276657e5e59b76549db81e3e9ed35cc2ef7341e347a7cd9374afbc31365",
     (0x3df5c6e7a42a9a15, 0x3e49f50d3d59dad5, 0xff85d081b686c315, 0xf29154037f59407d)),
]


def _sha256(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a, dtype="<f8").tobytes()).hexdigest()


class TestRngKnownAnswers:
    @pytest.mark.parametrize("seed", sorted(U64_WORDS))
    def test_first_words(self, seed: int) -> None:
        rng = Rng(seed)
        assert tuple(rng.u64() for _ in range(16)) == U64_WORDS[seed]

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
        assert tuple(rng._s) == state


_CALLS = st.one_of(
    st.tuples(st.just("uniforms"), st.integers(0, 3000)),
    st.tuples(st.just("normals"), st.integers(0, 1500),
              st.floats(-4.0, 4.0, allow_nan=False)),
    st.tuples(st.just("permutation"), st.integers(0, 40)),
    st.tuples(st.just("u64")),
)


def _check_chunked(words: int) -> None:
    """A bulk draw of this many words steps its lanes in several column
    chunks and ends on a short last lane."""
    lanes, length = kernel._lane_grid(words)
    assert length > kernel._chunk_columns(lanes, length)
    assert words < lanes * length


class TestRngBulkMatchesScalar:
    """Bulk draws equal the scalar reference loop bit for bit and leave the
    state that the same number of scalar draws leaves."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), calls=st.lists(_CALLS, max_size=6))
    def test_any_call_sequence(self, seed: int, calls) -> None:
        bulk, scalar = Rng(seed), Rng(seed)
        for kind, *args in calls:
            if kind == "uniforms":
                (n,) = args
                got = bulk.uniforms(n)
                want = np.array([scalar.uniform() for _ in range(n)], dtype=np.float64)
            elif kind == "normals":
                n, scale = args
                got = bulk.normals(n, scale)
                want = np.array([scalar.normal() * scale for _ in range(n)], dtype=np.float64)
            elif kind == "permutation":
                (m,) = args
                got, want = bulk.permutation(m), scalar.permutation(m)
            else:
                got, want = np.array(bulk.u64()), np.array(scalar.u64())
            assert got.tobytes() == want.tobytes(), kind
        assert bulk._s == scalar._s

    def test_normals_across_a_block_from_a_used_state(self) -> None:
        """A bulk draw one value past a block, from a state that earlier
        draws have moved, still equals the scalar loop. Its words span
        several column chunks, and its last lane is short."""
        bulk, scalar = Rng(77), Rng(77)
        bulk.uniforms(3)
        for _ in range(3):
            scalar.uniform()
        n = kernel._BLOCK + 1
        _check_chunked(2 * n)
        got = bulk.normals(n, 0.5)
        want = np.array([scalar.normal() * 0.5 for _ in range(n)], dtype=np.float64)
        assert got.tobytes() == want.tobytes()
        assert bulk._s == scalar._s


class TestRngChunks:
    """Bulk draws whose lanes step in several column chunks, with a short
    last lane, equal the scalar loop and leave its state."""

    # lanes of at least 32 words, so that chunks of the 16-column floor step
    # each lane in two or four; a block of 6000 chunks the 257 lanes of
    # uniforms(8195) at 22 columns, above the floor
    @pytest.mark.parametrize("block, n", [(64, 8195), (64, 40001), (64, 16411),
                                          (6000, 8195), (1000, 9999)])
    def test_small_blocks(self, monkeypatch, block: int, n: int) -> None:
        monkeypatch.setattr(kernel, "_BLOCK", block)
        _check_chunked(n)
        _check_chunked(2 * n)
        bulk, scalar = Rng(n), Rng(n)
        got = bulk.uniforms(n)
        want = np.array([scalar.uniform() for _ in range(n)], dtype=np.float64)
        assert got.tobytes() == want.tobytes()
        assert bulk._s == scalar._s
        got = bulk.normals(n, 0.25)
        want = np.array([scalar.normal() * 0.25 for _ in range(n)], dtype=np.float64)
        assert got.tobytes() == want.tobytes()
        assert bulk._s == scalar._s

    @settings(max_examples=200, deadline=None)
    @given(lanes=st.integers(1, 1 << 20), log_length=st.integers(1, 12),
           block=st.sampled_from([64, 1000, 1 << 15, 1 << 17]))
    def test_columns_floor(self, lanes: int, log_length: int, block: int) -> None:
        """Even, within [min(16, length), length], and about the block:
        a chunk holds at most max(block, 16 * lanes) words."""
        length = 1 << log_length
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kernel, "_BLOCK", block)
            columns = kernel._chunk_columns(lanes, length)
        assert columns % 2 == 0
        assert min(16, length) <= columns <= length
        assert columns * lanes <= max(block, 16 * lanes)

    def test_normals_at_the_real_constants(self, monkeypatch, pin_cpus) -> None:
        """A draw at the module's own ``_BLOCK`` and ``_SPLIT_LANES``, the
        size of one backbone matrix set: 591,488 normals are 4,621 lanes of
        256 words, stepped as two halves in 16-column chunks. It equals the
        scalar loop and leaves its state, on two CPUs and on one."""
        n = 591_488
        lanes, length = kernel._lane_grid(2 * n)
        assert (lanes, length) == (4621, 256) and lanes >= kernel._SPLIT_LANES
        halves = [(lanes + 1) // 2, lanes // 2]
        assert [kernel._chunk_columns(m, length) for m in halves] == [16, 16]
        calls = TestRngSplit.record_steps(monkeypatch)
        scalar = Rng(591)
        want = np.array([scalar.normal() for _ in range(n)], dtype=np.float64)
        for cpus in (2, 1):
            pin_cpus(cpus)
            bulk = Rng(591)
            assert bulk.normals(n).tobytes() == want.tobytes(), cpus
            assert bulk._s == scalar._s
        assert sorted(size for _, size in calls) == sorted(halves + halves)

    def test_uniforms_past_three_blocks(self) -> None:
        """An odd draw at the real block size."""
        n = 3 * kernel._BLOCK + 12345
        _check_chunked(n)
        bulk, scalar = Rng(5), Rng(5)
        got = bulk.uniforms(n)
        want = np.array([scalar.uniform() for _ in range(n)], dtype=np.float64)
        assert got.tobytes() == want.tobytes()
        assert bulk._s == scalar._s


class TestRngSplit:
    """Draws of at least ``_SPLIT_LANES`` lanes step as two halves of lanes
    at once. With the threshold patched low and ``_BLOCK`` small, they
    still equal the scalar loop and leave its state."""

    # uniforms(n) draws n words and normals(n) 2n; lanes of words (columns
    # a chunk): 257: 65 of 4 (4) and 65 of 8 (8), each with a short last
    # lane; 512: 64 and 128 of 8, whole lanes; 1001: 126 and 251 of 8;
    # 4099: 257 of 16 (16) and 257 of 32 (16, or 18 and 20 at a block of
    # 2560); 8195: 257 of 32 (16, or 18 and 20) and 513 of 32 (16)
    SIZES = [257, 512, 1001, 4099, 8195]

    @pytest.fixture(autouse=True)
    def small(self, monkeypatch):
        monkeypatch.setattr(kernel, "_SPLIT_LANES", 32)

    @staticmethod
    def record_steps(monkeypatch) -> list:
        """Patch ``kernel._step_lanes`` to record (thread, lanes) of each call."""
        calls = []
        real = kernel._step_lanes

        def step(starts, *args):
            calls.append((threading.get_ident(), len(starts)))
            return real(starts, *args)

        monkeypatch.setattr(kernel, "_step_lanes", step)
        return calls

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("block", [64, 1024, 2560])
    @pytest.mark.parametrize("n", SIZES)
    def test_equals_scalar_loop(self, monkeypatch, pin_cpus, cpus: int, block: int, n: int) -> None:
        """From a used state. With a ``_BLOCK`` of 2560 the two halves of
        257 lanes of 32 words step in chunks of different widths (18 and 20
        columns)."""
        pin_cpus(cpus)
        monkeypatch.setattr(kernel, "_BLOCK", block)
        calls = self.record_steps(monkeypatch)
        bulk, scalar = Rng(n), Rng(n)
        bulk.uniforms(3)
        for _ in range(3):
            scalar.uniform()
        got = bulk.uniforms(n)
        want = np.array([scalar.uniform() for _ in range(n)], dtype=np.float64)
        assert got.tobytes() == want.tobytes()
        assert bulk._s == scalar._s
        got = bulk.normals(n, 0.25)
        want = np.array([scalar.normal() * 0.25 for _ in range(n)], dtype=np.float64)
        assert got.tobytes() == want.tobytes()
        assert bulk._s == scalar._s
        lanes = [kernel._lane_grid(words)[0] for words in (n, 2 * n)]
        lower, upper = [(m + 1) // 2 for m in lanes], [m // 2 for m in lanes]
        mine = [size for thread, size in calls if thread == threading.get_ident()]
        others = [size for thread, size in calls if thread != threading.get_ident()]
        if cpus == 1:
            assert mine == [lower[0], upper[0], lower[1], upper[1]] and others == []
        else:
            assert mine == lower and others == upper

    @pytest.mark.parametrize("threshold, pieces", [(65, [33, 32]), (66, [65])])
    def test_split_starts_at_threshold(self, monkeypatch, pin_cpus, threshold, pieces) -> None:
        """257 uniforms are 65 lanes: split at a threshold of 65, not at 66.
        The lower half steps on the calling thread, the upper on another."""
        pin_cpus(2)
        monkeypatch.setattr(kernel, "_SPLIT_LANES", threshold)
        calls = self.record_steps(monkeypatch)
        bulk, scalar = Rng(9), Rng(9)
        got = bulk.uniforms(257)
        want = np.array([scalar.uniform() for _ in range(257)], dtype=np.float64)
        assert got.tobytes() == want.tobytes()
        assert bulk._s == scalar._s
        mine = [size for thread, size in calls if thread == threading.get_ident()]
        assert mine + [size for thread, size in calls if thread != threading.get_ident()] == pieces
        assert mine == pieces[:1]

    @pytest.mark.parametrize("failing", ["caller", "worker"])
    def test_error_in_either_half_reaches_caller(self, monkeypatch, pin_cpus, failing) -> None:
        pin_cpus(2)
        caller = threading.get_ident()
        real = kernel._step_lanes

        def step(*args):
            if (threading.get_ident() == caller) == (failing == "caller"):
                raise NumericalError(f"{failing} half failed")
            return real(*args)

        monkeypatch.setattr(kernel, "_step_lanes", step)
        before = threading.active_count()
        with pytest.raises(NumericalError, match=f"{failing} half failed"):
            Rng(1).normals(257)
        assert threading.active_count() == before

    @pytest.mark.parametrize("draw", ["uniforms", "normals"])
    def test_out_of_memory_before_any_jump_or_thread(self, monkeypatch, pin_cpus, draw) -> None:
        """An output too large to allocate fails first: no lane start is
        made and no thread starts."""
        pin_cpus(2)
        started = []
        monkeypatch.setattr(threading.Thread, "start", lambda thread: started.append(thread))
        monkeypatch.setattr(kernel, "_lane_starts", lambda *args: started.append("lane starts"))

        def empty(*args, **kwargs):
            raise MemoryError("Unable to allocate")

        monkeypatch.setattr(np, "empty", empty)
        with pytest.raises(MemoryError, match="Unable to allocate"):
            getattr(Rng(1), draw)(4099)
        assert started == []


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


def _normals_of_units(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """``Rng.normals`` over the given uniforms: pair i is (u1[i], u2[i]).

    The draw is small enough to take its words from :meth:`Rng.u64`, which
    is patched to return ``k << 11`` for each uniform ``k * 2**-53``; the
    words then go through all of ``normals``' arithmetic."""
    units = np.empty(2 * u1.size)
    units[0::2], units[1::2] = u1, u2
    assert units.size < kernel._SCALAR_WORDS
    words = iter([int(k) << 11 for k in (units * 2.0**53).astype(np.uint64)])
    rng = Rng(0)
    rng.u64 = lambda: next(words)
    return rng.normals(u1.size)


def _scalar_normals(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """``Rng.normal``'s formula over the same pairs, through :mod:`math`."""
    return np.array([math.sqrt(-2.0 * math.log(1.0 - a)) * math.cos(2.0 * math.pi * b)
                     for a, b in zip(u1, u2)], dtype=np.float64)


class TestNormalsLogRoute:
    """``normals`` takes Box-Muller's log through ``_log1m``: ``np.log``
    reads 1 - u through a reversed 1-D view, which runs numpy's scalar loop
    and so the C library's ``log``. It must give the bits of ``math.log``
    at every y = 1 - uniform(), the grid 1 - k * 2**-53 for 0 <= k < 2**53,
    where numpy's SIMD ``np.log`` may not."""

    @staticmethod
    def check(u1: np.ndarray) -> None:
        want = np.array([math.log(1.0 - v) for v in u1], dtype=np.float64)
        assert kernel._log1m(u1.copy(), np.empty(u1.size)).tobytes() == want.tobytes()
        u2 = u1[::-1].copy()
        assert _normals_of_units(u1, u2).tobytes() == _scalar_normals(u1, u2).tobytes()

    def test_edges(self) -> None:
        # y = 1.0, 1 - 2**-53, 2**-53 and 0.5
        self.check(np.array([0.0, 2.0**-53, 1.0 - 2.0**-53, 0.5]))

    @settings(max_examples=200, deadline=None)
    @given(ks=st.lists(st.integers(0, 2**53 - 1), min_size=1, max_size=64))
    def test_grid(self, ks) -> None:
        self.check(np.array(ks, dtype=np.float64) * 2.0**-53)

    def test_not_the_contiguous_log(self) -> None:
        """Where numpy's ``np.log`` over a contiguous array differs from
        ``math.log`` on this CPU (its SIMD loop, where it has one), the
        route still gives ``math.log``'s bits, and so do ``normals``."""
        ks = np.concatenate([np.arange(1 << 20),
                             np.random.default_rng(0).integers(0, 2**53, 1 << 18)])
        u = ks.astype(np.float64) * 2.0**-53
        want = np.array([math.log(v) for v in (1.0 - u).tolist()], dtype=np.float64)
        assert kernel._log1m(u.copy(), np.empty(u.size)).tobytes() == want.tobytes()
        differs = np.flatnonzero(np.log(1.0 - u) != want)
        if not differs.size:
            pytest.skip("contiguous np.log equals math.log on this grid and CPU")
        u1 = u[differs[:100]]
        u2 = u1[::-1].copy()
        assert _normals_of_units(u1, u2).tobytes() == _scalar_normals(u1, u2).tobytes()


class TestNormalsCosRoute:
    """``normals`` takes Box-Muller's cos through ``_cos2pi``: ``np.cos``
    reads 2 pi u through a reversed 1-D view, which runs numpy's scalar
    loop and so the C library's ``cos``. It must give the bits of
    ``math.cos(2 * pi * u)`` at every uniform u on the grid k * 2**-53,
    where numpy's SIMD float64 ``np.cos`` may not."""

    @staticmethod
    def check(u2: np.ndarray) -> None:
        want = np.array([math.cos(2.0 * math.pi * v) for v in u2], dtype=np.float64)
        words = (u2 * 2.0**53).astype(np.uint64)
        got = kernel._cos2pi(words, np.empty(u2.size), np.empty(u2.size))
        assert got.tobytes() == want.tobytes()
        u1 = u2[::-1].copy()
        assert _normals_of_units(u1, u2).tobytes() == _scalar_normals(u1, u2).tobytes()

    def test_edges(self) -> None:
        # cos = 1 at both ends, and the quarter turns, where cos crosses 0 or is -1
        self.check(np.array([0.0, 2.0**-53, 0.25, 0.5, 0.75, 1.0 - 2.0**-53]))

    @settings(max_examples=200, deadline=None)
    @given(ks=st.lists(st.integers(0, 2**53 - 1), min_size=1, max_size=64))
    def test_grid(self, ks) -> None:
        self.check(np.array(ks, dtype=np.float64) * 2.0**-53)

    def test_not_the_contiguous_cos(self) -> None:
        """Where numpy's ``np.cos`` over a contiguous array differs from
        ``math.cos`` on this CPU (its SIMD loop, where it has one), the
        route still gives ``math.cos``'s bits, and so do ``normals``. The
        words come as the normals writer passes them: every other row of a
        chunk."""
        ks = np.concatenate([np.arange(1 << 20),
                             np.random.default_rng(0).integers(0, 2**53, 1 << 18)])
        chunk = np.zeros((2 * ks.size // 1024, 1024), dtype=np.uint64)
        chunk[1::2] = ks.reshape(-1, 1024)
        x = ks.astype(np.float64) * 2.0**-53 * (2.0 * math.pi)
        want = np.array([math.cos(v) for v in x.tolist()], dtype=np.float64)
        got = kernel._cos2pi(chunk[1::2], np.empty(ks.size), np.empty(ks.size))
        assert got.tobytes() == want.tobytes()
        differs = np.flatnonzero(np.cos(x) != want)
        if not differs.size:
            pytest.skip("contiguous np.cos equals math.cos on this grid and CPU")
        u2 = ks[differs[:100]].astype(np.float64) * 2.0**-53
        u1 = u2[::-1].copy()
        assert _normals_of_units(u1, u2).tobytes() == _scalar_normals(u1, u2).tobytes()
