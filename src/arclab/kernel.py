"""Dense float64 linear-algebra and elementwise kernels.

Operands are C-contiguous ``numpy.float64`` arrays (row-major). The
products and row-wise maps act on the last one or two axes and treat any
leading axes as a batch; the SVD takes a single 2-D matrix. Every operation
is a pure function of its inputs and keeps finite inputs finite, except
that :func:`erf` and :func:`gelu` write into their operand and return it,
and :func:`softmax_rows` writes into an ``out`` array when given one,
which may be its operand. LayerNorm and GELU come in a ``_parts`` form,
which returns the value with the intermediates its vector-Jacobian
product reuses; :func:`gelu` is the value of :func:`gelu_parts` alone, bit
for bit, for the tape-free forward. :func:`run_both` runs two pieces of
work on two cores, where the process has two.
No differentiation logic lives here; see :mod:`arclab.autodiff` for that.

numpy is the only dependency. The exp of :func:`erf` for |x| > 1 needs
the C library's ``exp`` bit for bit, where numpy's SIMD float64 loops (such
as AVX-512F ``exp`` on x86-64) can differ from it in the last place. It
calls ``np.exp`` with its operand a reversed 1-D view (``[::-1]``). numpy
(up to 2.4 at least) has no SIMD loop for a negative stride and runs its
scalar loop, which calls the C library's function once per element. If
both operands are reversed, numpy flips them to a forward pass and takes
the SIMD loop again; a 2-D view with only its inner axis reversed can take
it too. A numpy that vectorised negative strides would end this route; the
tests of :func:`erf` against ``scipy.special.erf`` would then fail.
:class:`Rng` draws from numpy's ``Generator``.
"""

from __future__ import annotations

import contextvars
import math
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import NumericalError, ShapeError

INV_SQRT2 = 1.0 / math.sqrt(2.0)
INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of a batch and one 2-D weight, (..., m,k)·(k,n) -> (..., m,n):
    every matrix of the batch is multiplied by the same weight."""
    if a.ndim < 2 or b.ndim != 2:
        raise ShapeError(f"matmul needs a batch of rank >= 2 and a 2-D weight, "
                         f"got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[0]:
        raise ShapeError(f"matmul shape mismatch: {a.shape} x {b.shape}")
    return a @ b


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


def softmax_rows(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Softmax over the last axis with per-row max subtraction for overflow
    safety, into ``out`` when given; ``out`` may be ``a``."""
    e = np.subtract(a, a.max(axis=-1, keepdims=True), out=out)
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
    gamma/beta, and its intermediates: (out, (a - mean, sqrt(var + eps))).

    gamma and beta broadcast over the rows as given: a (1, D) row, as the
    model stores them, or a (D,) vector."""
    if gamma.size != a.shape[-1] or beta.size != a.shape[-1]:
        raise ShapeError(f"layernorm scale/shift length {gamma.size}/{beta.size} "
                         f"does not match row width {a.shape[-1]}")
    centered = a - row_mean(a)
    out = np.square(centered)
    std = row_mean(out)
    std += eps
    np.sqrt(std, out=std)
    # a division, not a product with 1/std: that would round differently
    np.divide(centered, std, out=out)
    out *= gamma
    out += beta
    return out, (centered, std)


# cephes ndtr.c: erf(x) = x T(x^2) / U(x^2) for |x| <= 1, and 1 - erfc(|x|)
# past that, with erfc(a) = exp(-a^2) P(a) / Q(a) below 8; U and Q lead with
# an implied 1.
_ERF_T = tuple(map(np.float64, (
    9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
    7.00332514112805075473E3, 5.55923013010394962768E4)))
_ERF_U = tuple(map(np.float64, (
    3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
    2.26290000613890934246E4, 4.92673942608635921086E4)))
_ERFC_P = tuple(map(np.float64, (
    2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
    4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
    9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2)))
_ERFC_Q = tuple(map(np.float64, (
    1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
    9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
    1.65666309194161350182E3, 5.57535340817727675546E2)))
# From |x| = 5.92 erfc(|x|) is below half an ulp of 1 and erf reads +-1, so
# cephes' other erfc branches (R/S from 8, 0 once a^2 > log(DBL_MAX)) never
# show: |x| is clipped here, which also keeps a^2 and P(a) finite.
_ERF_CLIP = np.float64(8.0)
# Values per block of erf: its two block-sized buffers stay in cache.
# Blocks of 16,384 values and one block for the whole array read slower.
_ERF_BLOCK = 1 << 15


def _polevl(x: np.ndarray, coef, out: np.ndarray) -> np.ndarray:
    """cephes ``polevl``: coef[0] x^N + ... + coef[N] by Horner, into ``out``."""
    np.multiply(x, coef[0], out=out)
    out += coef[1]
    for c in coef[2:]:
        out *= x
        out += c
    return out


def _p1evl(x: np.ndarray, coef, out: np.ndarray) -> np.ndarray:
    """cephes ``p1evl``: x^N + coef[0] x^(N-1) + ... + coef[N-1], into ``out``."""
    np.add(x, coef[0], out=out)
    for c in coef[1:]:
        out *= x
        out += c
    return out


def _erf_tail(x: np.ndarray) -> np.ndarray:
    """cephes erf of a 1-D ``x`` whose every entry has |x| > 1:
    1 - erfc(|x|), with the sign of x."""
    a = np.minimum(np.abs(x), _ERF_CLIP)
    scale = np.exp(np.negative(a * a)[::-1])[::-1]  # the C library's exp (module docstring)
    scale *= _polevl(a, _ERFC_P, np.empty_like(a))
    scale /= _p1evl(a, _ERFC_Q, np.empty_like(a))
    return np.copysign(1.0 - scale, x)


def erf(x: np.ndarray) -> np.ndarray:
    """The error function of a C-contiguous float64 array, elementwise, as
    cephes computes it (``ndtr.c``, the route of ``scipy.special.erf``),
    written into ``x``, which it returns.

    The |x| <= 1 branch is IEEE products, sums and one quotient in cephes'
    order, so its bits hold on every platform; that branch is odd, so it
    needs no sign handling. The |x| > 1 branch is gathered from each block
    only where it occurs and adds the C library's ``exp``; it equals
    cephes wherever the two share a C library. NaN stays NaN and +-inf
    give +-1, with no floating-point warning.

    It runs in blocks of :data:`_ERF_BLOCK` values with two block buffers,
    x^2 and x T(x^2). Once the second is formed x is not read again, so
    U(x^2) is built in the block of ``x`` and the quotient written over it.
    A strided ``x`` raises ShapeError.
    """
    if not x.flags.c_contiguous:
        raise ShapeError("erf writes into its operand, which must be C-contiguous")
    flat = x.reshape(-1)
    size = min(flat.size, _ERF_BLOCK)
    square, p = np.empty(size), np.empty(size)
    for i in range(0, flat.size, _ERF_BLOCK):
        block = q = flat[i:i + _ERF_BLOCK]
        if block.size < size:  # the last block
            square, p = square[:block.size], p[:block.size]
        np.abs(block, square)
        tail = None
        if np.fmax.reduce(square) > 1.0:  # fmax skips NaN
            tail = np.flatnonzero(square > 1.0)
            tail_x = block[tail]
            block = block.copy()
            block[tail] = 0.0
        np.multiply(block, block, square)
        _polevl(square, _ERF_T, p)
        p *= block  # the last read of x: U(x^2) may now overwrite it
        _p1evl(square, _ERF_U, q)
        np.divide(p, q, q)
        if tail is not None:
            q[tail] = _erf_tail(tail_x)
    return x


def _gelu_into(a: np.ndarray, cdf: np.ndarray, out: np.ndarray) -> None:
    """GELU of ``a`` into ``out``, and 1 + erf(a / sqrt(2)) into the
    C-contiguous ``cdf``; ``out`` may be ``a``."""
    np.multiply(a, INV_SQRT2, out=cdf)
    erf(cdf)
    cdf += 1.0
    np.multiply(a, 0.5, out=out)
    out *= cdf


def gelu_parts(a: np.ndarray):
    """Exact GELU x*Phi(x) via the error function (no tanh approximation), and
    its intermediate 1 + erf(x / sqrt(2)) = 2 Phi(x): (out, cdf).

    The erf is :func:`erf`, cephes' in numpy: IEEE arithmetic alone where
    |x / sqrt(2)| <= 1, and the C library's ``exp`` past that."""
    out, cdf = np.empty(a.shape), np.empty(a.shape)
    _gelu_into(a, cdf, out)
    return out, cdf


def gelu(a: np.ndarray) -> np.ndarray:
    """The value of :func:`gelu_parts` alone, bit for bit, written into the
    C-contiguous ``a``, which it returns; a strided ``a`` raises ShapeError.
    It runs in blocks of :data:`_ERF_BLOCK` values with one block of cdf
    scratch."""
    if not a.flags.c_contiguous:
        raise ShapeError("gelu writes into its operand, which must be C-contiguous")
    flat = a.reshape(-1)
    cdf = np.empty(min(flat.size, _ERF_BLOCK))
    for i in range(0, flat.size, _ERF_BLOCK):
        block = flat[i:i + _ERF_BLOCK]
        _gelu_into(block, cdf[:block.size], block)
    return a


def logsumexp_rows(a: np.ndarray) -> np.ndarray:
    """Stable per-row log(sum(exp(row))), shape (rows, 1)."""
    m = a.max(axis=1, keepdims=True)
    return m + np.log(np.exp(a - m).sum(axis=1, keepdims=True))


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log-likelihood of integer labels under row softmax.

    Raises ShapeError unless ``labels`` holds one integer class index in
    [0, classes) per row of a non-empty (rows, classes) ``logits``; the
    message names the first label that is not one.
    """
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.shape[0] != logits.shape[0]:
        raise ShapeError(f"labels shape {labels.shape} does not match logits {logits.shape}")
    if not labels.size:
        raise ShapeError("cross_entropy needs at least one row, got an empty batch")
    if labels.dtype.kind not in "iu":
        raise ShapeError(f"label {labels[0]} at index 0 is {labels.dtype}, not an integer "
                         f"class index")
    classes = logits.shape[-1]
    if labels.min() < 0 or labels.max() >= classes:
        i = int(np.flatnonzero((labels < 0) | (labels >= classes))[0])
        raise ShapeError(f"label {labels[i]} at index {i} is not a class index in [0, {classes})")
    lse = logsumexp_rows(logits)[:, 0]
    picked = logits[np.arange(logits.shape[0]), labels]
    return float(np.mean(lse - picked))


def svd(a: np.ndarray, compute_uv: bool = True):
    """Thin SVD by LAPACK (``np.linalg.svd``).

    Returns (U, s, V) with a ~= U @ diag(s) @ V.T, s sorted descending and
    non-negative, and U (m x k), V (n x k) orthonormal, k = min(m, n).
    With ``compute_uv=False`` it returns (None, s, None) from LAPACK's
    values-only route, two to three times faster; that route is another
    algorithm, so its s differs from the full route's by rounding (within
    about 1e-14 * s_max).
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
        if not compute_uv:
            return None, np.linalg.svd(a, compute_uv=False), None
        u, s, vt = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"svd of a {a.shape} matrix did not converge: {exc}") from None
    return u, s, vt.T


def _cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def run_both(first, second):
    """``(first(), second())``, the two calls made at once where the process
    may run on more than one CPU.

    ``first`` runs on the calling thread and ``second`` on one worker
    thread, in a copy of the caller's context, so a caller's
    ``np.errstate`` holds in both; numpy's ufunc loops and BLAS release
    the GIL, so the two share two cores. An exception in either reaches
    the caller once both have finished, and no thread is left running. On
    one CPU both run on the calling thread, in turn, and no worker starts.
    """
    if _cpus() < 2:
        return first(), second()
    with ThreadPoolExecutor(max_workers=1) as pool:
        rest = pool.submit(contextvars.copy_context().run, second)
        return first(), rest.result()


class Rng:
    """numpy's ``Generator(PCG64(seed))`` behind the three draws the program makes.

    The seed is a non-negative integer; PCG64 takes it through numpy's
    ``SeedSequence``. A draw of n values equals the same n values drawn in
    pieces, in stream order, and leaves the same generator state. The bits
    depend on numpy's ``Generator`` methods, which NEP 19 lets a numpy
    feature release change (the bit generator's own stream stays fixed);
    the pinned digests of the tests would then fail. A draw starts no
    thread. Single-owner: never share an instance between concurrent
    consumers.
    """

    def __init__(self, seed: int):
        self.generator = np.random.Generator(np.random.PCG64(seed))

    def normals(self, shape, scale: float = 1.0) -> np.ndarray:
        """Standard normals times ``scale``, as a float64 array of ``shape``."""
        out = self.generator.standard_normal(shape)
        out *= scale
        return out

    def uniforms(self, shape) -> np.ndarray:
        """Uniforms in [0, 1), as a float64 array of ``shape``."""
        return self.generator.random(shape)

    def permutation(self, n: int) -> np.ndarray:
        """A uniformly random permutation of range(n)."""
        return self.generator.permutation(n)
