"""Dense float64 linear-algebra and elementwise kernels.

Operands are C-contiguous ``numpy.float64`` arrays (row-major). The
products and row-wise maps act on the last one or two axes and treat any
leading axes as a batch; the SVD takes a single 2-D matrix. Every operation
is a pure function of its inputs and keeps finite inputs finite. LayerNorm
and GELU come only in their ``_parts`` form, which returns the value with
the intermediates its vector-Jacobian product reuses.
No differentiation logic lives here; see :mod:`arclab.autodiff` for that.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy.special import erf, xlogy

from .errors import NumericalError, ShapeError

INV_SQRT2 = 1.0 / math.sqrt(2.0)
INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


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


def linear(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x @ w + b for a (k, n) weight and a (1, n) bias row, (..., k) -> (..., n).

    The leading axes of x are flattened into rows, so the product is one
    GEMM, not one per batch entry, and the bias is added into the product
    in place, which rounds as ``x_rows @ w + b`` does. The flat GEMM may
    round differently from numpy's per-entry batched ``x @ w``, depending
    on the shapes and the BLAS.
    """
    if w.ndim != 2 or b.shape != (1, w.shape[-1]):
        raise ShapeError(f"linear needs a 2-D weight and a (1, n) bias row, "
                         f"got {w.shape} and {b.shape}")
    if x.ndim < 1 or x.shape[-1] != w.shape[0]:
        raise ShapeError(f"linear shape mismatch: {x.shape} x {w.shape}")
    out = x.reshape(-1, w.shape[0]) @ w
    out += b
    return out.reshape(x.shape[:-1] + (w.shape[1],))


def softmax_rows(a: np.ndarray) -> np.ndarray:
    """Softmax over the last axis with per-row max subtraction for overflow safety."""
    e = a - a.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def row_mean(a: np.ndarray) -> np.ndarray:
    """``a.mean(axis=-1, keepdims=True)`` bit for bit, without ndarray.mean's Python wrapper.

    ``mean`` sums with ``np.add.reduce`` and divides by the count; at
    layernorm sizes its wrapper costs more than the reduction.
    """
    return np.add.reduce(a, axis=-1, keepdims=True) / a.shape[-1]


def layernorm_parts(a: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float = 1e-6):
    """Normalization over the last axis with population variance, then affine
    gamma/beta, and its intermediates: (out, (a - mean, sqrt(var + eps)))."""
    g = np.asarray(gamma, dtype=np.float64).reshape(-1)
    b = np.asarray(beta, dtype=np.float64).reshape(-1)
    if g.size != a.shape[-1] or b.size != a.shape[-1]:
        raise ShapeError(
            f"layernorm scale/shift length {g.size}/{b.size} does not match row width {a.shape[-1]}"
        )
    centered = a - row_mean(a)
    out = np.square(centered)
    std = row_mean(out)
    std += eps
    np.sqrt(std, out=std)
    # a division, not a product with 1/std: that would round differently
    np.divide(centered, std, out=out)
    out *= g
    out += b
    return out, (centered, std)


def gelu_parts(a: np.ndarray):
    """Exact GELU x*Phi(x) via the error function (no tanh approximation), and
    its intermediate 1 + erf(x / sqrt(2)) = 2 Phi(x): (out, cdf)."""
    cdf = a * INV_SQRT2
    erf(cdf, out=cdf)
    cdf += 1.0
    out = a * 0.5
    out *= cdf
    return out, cdf


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


def svd(a: np.ndarray):
    """Thin SVD by LAPACK (``np.linalg.svd``).

    Returns (U, s, V) with a ~= U @ diag(s) @ V.T, s sorted descending and
    non-negative, and U (m x k), V (n x k) orthonormal, k = min(m, n).
    LAPACK bidiagonalises, so values far below s_max carry absolute, not
    relative, accuracy, where one-sided Jacobi would do better (Demmel &
    Veselic, 1992); spectra count only values above 1% of s_max, so that
    does not matter here. Raises NumericalError for non-finite input, which
    LAPACK would turn into NaN singular values, and when LAPACK does not
    converge.
    """
    a = np.ascontiguousarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got shape {a.shape}")
    if min(a.shape) < 1:
        raise ShapeError(f"svd needs a non-empty matrix, got {a.shape}")
    if not np.isfinite(a).all():
        raise NumericalError(f"svd input of shape {a.shape} holds non-finite values")
    try:
        u, s, vt = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"svd of a {a.shape} matrix did not converge: {exc}") from None
    return u, s, vt.T


_MASK64 = (1 << 64) - 1
# Bulk draws of fewer words than this come from the scalar generator, which
# is faster there than starting the numpy lanes.
_SCALAR_WORDS = 256
# Values per step of a bulk draw. It bounds a draw's temporaries to about
# 1 MB and the jumps a draw needs to 2**14 words, so at most 15 tables.
_BLOCK = 1 << 14
# Offset in a jump table of the low nibble of each of the 32 state bytes.
_LOW_NIBBLES = np.arange(0, 1024, 32)


def _splitmix64(state: int):
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


def _lane_step(s: list) -> np.ndarray:
    """One xoshiro256** step of every lane at once. ``s`` holds the four state
    words as uint64 arrays and is updated in place; returns the output words."""
    s0, s1, s2, s3 = s
    x = s1 * np.uint64(5)
    result = ((x << np.uint64(7)) | (x >> np.uint64(57))) * np.uint64(9)
    t = s1 << np.uint64(17)
    s2 ^= s0
    s3 ^= s1
    s1 ^= s2
    s0 ^= s3
    s2 ^= t
    s[3] = (s3 << np.uint64(45)) | (s3 >> np.uint64(19))
    return result


def _jump_apply(table: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Images of the (m, 4) uint64 ``states`` under the map whose
    :func:`_jump` table is ``table``: the XOR of one entry per state nibble."""
    state_bytes = states.astype("<u8", copy=False).view(np.uint8).reshape(-1, 32)
    low = table.take(((state_bytes & 15) + _LOW_NIBBLES).reshape(-1), axis=0)
    high = table.take(((state_bytes >> 4) + _LOW_NIBBLES + 16).reshape(-1), axis=0)
    low ^= high
    picked = low.reshape(-1, 32, 4)
    while picked.shape[1] > 1:  # XOR the 32 byte picks together, halving each pass
        half = picked.shape[1] // 2
        picked[:, :half] ^= picked[:, half:]
        picked = picked[:, :half]
    return picked[:, 0]


@functools.cache
def _jump(k: int) -> np.ndarray:
    """The map that advances the stream by 2**k words, as a read-only (1024, 4)
    uint64 lookup table (32 KiB). xoshiro256** is linear over GF(2), so the
    map is the XOR of the images of the state's set bits; entry 16*c + v is
    the image of a state whose only set bits are value v in nibble c (bits
    4c to 4c+3 of the state, counted from bit 0 of word 0)."""
    bit = np.arange(256)[:, None]
    units = np.where(bit // 64 == np.arange(4), np.uint64(1) << (bit % 64).astype(np.uint64),
                     np.uint64(0))
    if k == 0:
        lanes = [np.ascontiguousarray(w) for w in units.T]
        _lane_step(lanes)
        images = np.stack(lanes, axis=1)
    else:
        half = _jump(k - 1)
        images = _jump_apply(half, _jump_apply(half, units))
    table = np.zeros((64, 1, 4), dtype=np.uint64)
    by_nibble = images.reshape(64, 4, 4)
    for b in range(4):
        table = np.concatenate([table, table ^ by_nibble[:, b:b + 1]], axis=1)
    table = table.reshape(1024, 4)
    table.setflags(write=False)
    return table


class Rng:
    """Deterministic xoshiro256** stream, state seeded through splitmix64.

    The integer and uniform draws (``u64``, ``uniform``, ``uniforms``,
    ``randint``, ``permutation``) are pure 64-bit integer arithmetic, so for
    a given seed they are identical across platforms and runs. ``normal``
    and ``normals`` also call the C library's ``log`` and ``cos``, once per
    element in both, so they are identical wherever those agree. ``normal``
    reaches both through :mod:`math`; ``normals`` takes ``cos`` through
    :mod:`math` and ``log`` through ``scipy.special.xlogy(1.0, y)``, which
    computes ``1.0 * log(y)`` with the C library's ``log``, and a product
    by 1.0 is exact. numpy's SIMD ``np.log`` and ``np.cos`` are not
    used: they can differ from libm in the last bit. A bulk draw of n
    values returns the values of n scalar draws and leaves the same state.
    Single-owner: never share an instance between concurrent consumers.
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

    def _u64s(self, n: int) -> np.ndarray:
        """The next ``n`` words of :meth:`u64` as a uint64 array.

        The stream is cut into lanes of B = 2**j words, B about sqrt(n)/4.
        Lane i starts i*B words ahead, reached by jumps of 2**k words
        (xoshiro256** is linear over GF(2)), and all lanes step together.
        The state left is the last lane's after the n-th word.
        """
        if n < _SCALAR_WORDS:
            return np.array([self.u64() for _ in range(n)], dtype=np.uint64)
        j = n.bit_length() // 2 - 2
        length = 1 << j
        lanes = -(-n // length)
        starts = np.empty((lanes, 4), dtype=np.uint64)
        starts[0] = self._s
        filled = 1
        while filled < lanes:  # lane filled + i starts filled*B = 2**j words after lane i
            take = min(filled, lanes - filled)
            starts[filled:filled + take] = _jump_apply(_jump(j), starts[:take])
            filled += take
            j += 1
        state = [np.ascontiguousarray(w) for w in starts.T]
        words = np.empty((lanes, length), dtype=np.uint64)
        last = n - (lanes - 1) * length
        for t in range(length):
            words[:, t] = _lane_step(state)
            if t + 1 == last:
                self._s = [int(w[-1]) for w in state]
        return words.reshape(-1)[:n]

    def uniform(self) -> float:
        """Uniform draw in [0, 1) with 53 bits of precision."""
        return (self.u64() >> 11) * 2.0**-53

    def normal(self) -> float:
        """Standard normal via Box-Muller; consumes exactly two uniforms."""
        u1 = 1.0 - self.uniform()  # in (0, 1], keeps the log finite
        u2 = self.uniform()
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def _unit(self, n: int) -> np.ndarray:
        """The next ``n`` values of :meth:`uniform` as a float64 array."""
        words = self._u64s(n)
        words >>= np.uint64(11)
        unit = words.astype(np.float64)
        unit *= 2.0**-53
        return unit

    def uniforms(self, shape) -> np.ndarray:
        """Array of :meth:`uniform` draws, in stream order."""
        out = np.empty(int(np.prod(shape)))
        for start in range(0, out.size, _BLOCK):
            out[start:start + _BLOCK] = self._unit(min(_BLOCK, out.size - start))
        return out.reshape(shape)

    def normals(self, shape, scale: float = 1.0) -> np.ndarray:
        """Array of ``normal() * scale`` draws, in stream order.

        The log is one compiled call to the C library's ``log``
        (``xlogy(1.0, y)``); the cos stays a :mod:`math` map, as no compiled
        route to libm's ``cos`` is at hand.
        """
        out = np.empty(int(np.prod(shape)))
        for start in range(0, out.size, _BLOCK):
            u = self._unit(2 * min(_BLOCK, out.size - start))
            log_u1 = xlogy(1.0, 1.0 - u[0::2])
            cos_u2 = np.fromiter(map(math.cos, memoryview(2.0 * math.pi * u[1::2])), np.float64)
            out[start:start + _BLOCK] = np.sqrt(-2.0 * log_u1) * cos_u2 * scale
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
