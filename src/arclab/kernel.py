"""Dense float64 linear-algebra and elementwise kernels.

Operands are C-contiguous ``numpy.float64`` arrays (row-major). The
products and row-wise maps act on the last one or two axes and treat any
leading axes as a batch; the SVD takes a single 2-D matrix. Every operation
is a pure function of its inputs and keeps finite inputs finite.
No differentiation logic lives here; see :mod:`arclab.autodiff` for that.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erf

from .errors import NumericalError, ShapeError

INV_SQRT2 = 1.0 / math.sqrt(2.0)
INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def as_matrix(x) -> np.ndarray:
    """Coerce to a 2-D float64 row-major array, rejecting other ranks."""
    a = np.ascontiguousarray(x, dtype=np.float64)
    if a.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got shape {a.shape}")
    return a


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product over the last two axes, (..., m,k)·(..., k,n) -> (..., m,n);
    leading (batch) axes broadcast."""
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs operands of rank >= 2, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul shape mismatch: {a.shape} x {b.shape}")
    try:
        return a @ b
    except ValueError:
        raise ShapeError(f"matmul batch axes do not broadcast: {a.shape} x {b.shape}") from None


def softmax_rows(a: np.ndarray) -> np.ndarray:
    """Softmax over the last axis with per-row max subtraction for overflow safety."""
    shifted = a - a.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def layernorm(a: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Normalization over the last axis with population variance, then affine gamma/beta."""
    g = np.asarray(gamma, dtype=np.float64).reshape(-1)
    b = np.asarray(beta, dtype=np.float64).reshape(-1)
    if g.size != a.shape[-1] or b.size != a.shape[-1]:
        raise ShapeError(
            f"layernorm scale/shift length {g.size}/{b.size} does not match row width {a.shape[-1]}"
        )
    mu = a.mean(axis=-1, keepdims=True)
    var = ((a - mu) ** 2).mean(axis=-1, keepdims=True)
    return (a - mu) / np.sqrt(var + eps) * g + b


def gelu(a: np.ndarray) -> np.ndarray:
    """Exact GELU x*Phi(x) via the error function (no tanh approximation)."""
    return a * 0.5 * (1.0 + erf(a * INV_SQRT2))


def gelu_grad(a: np.ndarray) -> np.ndarray:
    """d/dx of exact GELU: Phi(x) + x*phi(x)."""
    phi = np.exp(-0.5 * a * a) * INV_SQRT_2PI
    return 0.5 * (1.0 + erf(a * INV_SQRT2)) + a * phi


def logsumexp_rows(a: np.ndarray) -> np.ndarray:
    """Stable per-row log(sum(exp(row))), shape (rows, 1)."""
    m = a.max(axis=1, keepdims=True)
    return m + np.log(np.exp(a - m).sum(axis=1, keepdims=True))


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log-likelihood of integer labels under row softmax."""
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.shape[0] != logits.shape[0]:
        raise ShapeError(f"labels shape {labels.shape} does not match logits {logits.shape}")
    lse = logsumexp_rows(logits)[:, 0]
    picked = logits[np.arange(logits.shape[0]), labels]
    return float(np.mean(lse - picked))


def svd(a: np.ndarray, tol: float = 1e-12, max_sweeps: int = 60):
    """Thin SVD by one-sided Jacobi rotations.

    Returns (U, s, V) with a ~= U @ diag(s) @ V.T, s sorted descending and
    U, V orthonormal. Column pairs are rotated until every normalized
    off-diagonal inner product |b_i.b_j|/(|b_i||b_j|) falls below ``tol``;
    raises NumericalError if that does not happen within ``max_sweeps``.
    """
    a = as_matrix(a)
    if min(a.shape) < 1:
        raise ShapeError(f"svd needs a non-empty matrix, got {a.shape}")
    transposed = a.shape[0] < a.shape[1]
    b = a.T.copy() if transposed else a.copy()
    m, n = b.shape
    v = np.eye(n)

    for _ in range(max_sweeps):
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                bp = b[:, p]
                bq = b[:, q]
                gamma = float(bp @ bq)
                alpha = float(bp @ bp)
                beta = float(bq @ bq)
                if abs(gamma) <= tol * math.sqrt(alpha * beta):
                    continue
                rotated = True
                zeta = (beta - alpha) / (2.0 * gamma)
                t = math.copysign(1.0, zeta) / (abs(zeta) + math.sqrt(1.0 + zeta * zeta))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = c * t
                bp_new = c * bp - s * bq
                bq_new = s * bp + c * bq
                b[:, p] = bp_new
                b[:, q] = bq_new
                vp = v[:, p].copy()
                v[:, p] = c * vp - s * v[:, q]
                v[:, q] = s * vp + c * v[:, q]
        if not rotated:
            break
    else:
        residual = _max_off_diagonal(b)
        raise NumericalError(
            f"jacobi svd did not converge in {max_sweeps} sweeps "
            f"(max normalized off-diagonal {residual:.3e})",
            residual=residual,
        )

    sigma = np.sqrt((b * b).sum(axis=0))
    order = np.argsort(-sigma, kind="stable")
    sigma = sigma[order]
    b = b[:, order]
    v = v[:, order]
    u = np.zeros_like(b)
    nonzero = sigma > 0.0
    u[:, nonzero] = b[:, nonzero] / sigma[nonzero]
    if not nonzero.all():
        _complete_orthonormal(u, nonzero)
    if transposed:
        return v, sigma, u
    return u, sigma, v


def _max_off_diagonal(b: np.ndarray) -> float:
    norms = np.sqrt((b * b).sum(axis=0))
    gram = np.abs(b.T @ b)
    np.fill_diagonal(gram, 0.0)
    scale = np.outer(norms, norms)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(scale > 0.0, gram / scale, 0.0)
    return float(ratio.max(initial=0.0))


def _complete_orthonormal(u: np.ndarray, filled: np.ndarray) -> None:
    """Fill the columns where ``filled`` is False with an orthonormal completion."""
    m = u.shape[0]
    for j in np.flatnonzero(~filled):
        for k in range(m):
            cand = np.zeros(m)
            cand[k] = 1.0
            for _ in range(2):  # two Gram-Schmidt passes for 1e-10 orthogonality
                cand -= u @ (u.T @ cand)
            norm = float(np.linalg.norm(cand))
            if norm > 0.5:
                u[:, j] = cand / norm
                break
        else:  # pragma: no cover - m basis vectors always contain a candidate
            raise NumericalError("failed to complete an orthonormal basis")


_MASK64 = (1 << 64) - 1


def _splitmix64(state: int):
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


class Rng:
    """Deterministic xoshiro256** stream, state seeded through splitmix64.

    Pure 64-bit integer arithmetic, so the sequence is identical across
    platforms and runs for a given seed. Single-owner: never share an
    instance between concurrent consumers.
    """

    def __init__(self, seed: int):
        state = seed & _MASK64
        self._s = []
        for _ in range(4):
            state, word = _splitmix64(state)
            self._s.append(word)

    def u64(self) -> int:
        s = self._s
        result = (_rotl((s[1] * 5) & _MASK64, 7) * 9) & _MASK64
        t = (s[1] << 17) & _MASK64
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = _rotl(s[3], 45)
        return result

    def uniform(self) -> float:
        """Uniform draw in [0, 1) with 53 bits of precision."""
        return (self.u64() >> 11) * 2.0**-53

    def normal(self) -> float:
        """Standard normal via Box-Muller; consumes exactly two uniforms."""
        u1 = 1.0 - self.uniform()  # in (0, 1], keeps the log finite
        u2 = self.uniform()
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def uniforms(self, shape) -> np.ndarray:
        out = np.empty(int(np.prod(shape)))
        for i in range(out.size):
            out[i] = self.uniform()
        return out.reshape(shape)

    def normals(self, shape, scale: float = 1.0) -> np.ndarray:
        out = np.empty(int(np.prod(shape)))
        for i in range(out.size):
            out[i] = self.normal() * scale
        return out.reshape(shape)

    def randint(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection sampling."""
        if n <= 0:
            raise ValueError("randint needs n >= 1")
        limit = (_MASK64 + 1) - ((_MASK64 + 1) % n)
        while True:
            x = self.u64()
            if x < limit:
                return x % n

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates shuffle of range(n)."""
        out = np.arange(n)
        for i in range(n - 1, 0, -1):
            j = self.randint(i + 1)
            out[i], out[j] = out[j], out[i]
        return out
