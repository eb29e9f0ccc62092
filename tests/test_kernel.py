from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arclab import kernel
from arclab.errors import NumericalError, ShapeError
from arclab.kernel import (
    Rng,
    cross_entropy,
    gelu,
    gelu_grad,
    layernorm,
    linear,
    matmul,
    softmax_rows,
    svd,
)


def _rand(rng: np.random.Generator, *shape):
    return rng.normal(size=shape)


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

    @pytest.mark.parametrize("name", ["linear", "layernorm", "softmax_rows", "gelu",
                                      "gelu_grad"])
    def test_inputs_unmodified(self, name: str) -> None:
        rng = np.random.default_rng(11)
        x = _rand(rng, 2, 3, 4)
        args = {
            "linear": (x, _rand(rng, 4, 5), _rand(rng, 1, 5)),
            "layernorm": (x, _rand(rng, 1, 4), _rand(rng, 1, 4), 1e-6),
        }.get(name, (x,))
        arrays = [a for a in args if isinstance(a, np.ndarray)]
        before = [a.copy() for a in arrays]
        out = getattr(kernel, name)(*args)
        for a, kept in zip(arrays, before):
            assert np.array_equal(a, kept)
            assert not np.shares_memory(out, a)


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

    def test_lapack_failure_becomes_numerical_error(self, monkeypatch) -> None:
        def failing_svd(a, full_matrices=True):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", failing_svd)
        with pytest.raises(NumericalError, match="did not converge"):
            svd(np.eye(3))

    @pytest.mark.parametrize("a", [np.ones(4), np.ones((2, 2, 2)), np.zeros((0, 3)),
                                   np.zeros((3, 0))])
    def test_rejects_non_matrix_or_empty(self, a: np.ndarray) -> None:
        with pytest.raises(ShapeError):
            svd(a)

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
        out = layernorm(np.array([[1.0, 1.0, 1.0]]), np.ones(3), np.zeros(3), 1e-6)
        assert np.abs(out).max() <= 1e-2  # 1/sqrt(eps) scaling of exact zeros
        assert np.allclose(out, 0.0)

    def test_already_normalized_row(self) -> None:
        out = layernorm(np.array([[-1.0, 1.0]]), np.ones(2), np.zeros(2), 1e-6)
        assert np.abs(out - np.array([[-1.0, 1.0]])).max() <= 1e-6

    def test_random_row_moments(self) -> None:
        rng = np.random.default_rng(7)
        a = rng.normal(size=(5, 64))
        out = layernorm(a, np.ones(64), np.zeros(64), 1e-6)
        assert np.abs(out.mean(axis=1)).max() <= 1e-12
        var = out.var(axis=1)
        assert np.abs(var - 1.0).max() <= 1e-4  # eps-adjusted

    def test_affine_applied(self) -> None:
        rng = np.random.default_rng(8)
        a = rng.normal(size=(2, 4))
        gamma, beta = rng.normal(size=4), rng.normal(size=4)
        base = layernorm(a, np.ones(4), np.zeros(4), 1e-6)
        assert np.allclose(layernorm(a, gamma, beta, 1e-6), base * gamma + beta)

    def test_length_mismatch(self) -> None:
        with pytest.raises(ShapeError):
            layernorm(np.zeros((2, 4)), np.ones(3), np.zeros(4), 1e-6)


class TestGelu:
    def test_zero(self) -> None:
        assert gelu(np.array([[0.0]]))[0, 0] == 0.0

    def test_asymptote(self) -> None:
        assert abs(gelu(np.array([[10.0]]))[0, 0] - 10.0) <= 1e-6

    def test_value_at_one_matches_high_precision(self) -> None:
        # x * Phi(x) at x=1, evaluated with 40-digit arithmetic and frozen
        assert abs(gelu(np.array([[1.0]]))[0, 0] - 0.8413447460685429486) <= 1e-15

    def test_grad_matches_finite_differences(self) -> None:
        x = np.linspace(-4.0, 4.0, 33).reshape(1, -1)
        h = 1e-6
        fd = (gelu(x + h) - gelu(x - h)) / (2 * h)
        assert np.abs(fd - gelu_grad(x)).max() <= 1e-9


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
