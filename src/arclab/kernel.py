"""Dense float64 linear-algebra and elementwise kernels.

Operands are C-contiguous ``numpy.float64`` arrays (row-major). The
products and row-wise maps act on the last one or two axes and treat any
leading axes as a batch; the SVD takes a single 2-D matrix. Every operation
is a pure function of its inputs and keeps finite inputs finite. LayerNorm
and GELU come only in their ``_parts`` form, which returns the value with
the intermediates its vector-Jacobian product reuses. :func:`run_both`
runs two pieces of work on two cores, where the process has two.
No differentiation logic lives here; see :mod:`arclab.autodiff` for that.

numpy is the only dependency. Three places need the C library's ``log``,
``cos`` or ``exp`` bit for bit, where numpy's SIMD float64 loops (such as
AVX-512F ``log`` and ``exp`` on x86-64) can differ from it in the last
place: Box-Muller's log and cos in :meth:`Rng.normals`, and the exp of
:func:`erf` for |x| > 1. Each calls the ufunc with exactly one operand a
reversed 1-D view (``[::-1]``). numpy (up to 2.4 at least) has no SIMD
loop for a negative stride and runs its scalar loop, which calls the C
library's function once per element. If both operands are reversed, numpy
flips them to a forward pass and takes the SIMD loop again; a 2-D view
with only its inner axis reversed can take it too. A numpy that vectorised
negative strides would end these routes; the tests of the log and cos
routes against :mod:`math`, of :func:`erf` against ``scipy.special.erf``
and the known-answer digests of the draws would then fail.
"""

from __future__ import annotations

import contextvars
import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

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
# Values per block of erf: its three block-sized buffers stay in cache.
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


def erf(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The error function of a C-contiguous float64 array, elementwise, as
    cephes computes it (``ndtr.c``, the route of ``scipy.special.erf``).

    The |x| <= 1 branch is IEEE products, sums and one quotient in cephes'
    order, so its bits hold on every platform; that branch is odd, so it
    needs no sign handling. The |x| > 1 branch is gathered from each block
    only where it occurs and adds the C library's ``exp``; it equals
    cephes wherever the two share a C library. NaN stays NaN and +-inf
    give +-1, with no floating-point warning. ``out`` may be ``x``.
    """
    if out is None:
        out = np.empty(x.shape)
    elif not (x.flags.c_contiguous and out.flags.c_contiguous):
        raise ShapeError("erf writes into out only when x and out are C-contiguous")
    flat, flat_out = x.reshape(-1), out.reshape(-1)
    size = min(flat.size, _ERF_BLOCK)
    square, p, q = np.empty(size), np.empty(size), np.empty(size)
    for i in range(0, flat.size, _ERF_BLOCK):
        block = flat[i:i + _ERF_BLOCK]
        if block.size < size:  # the last block
            square, p, q = square[:block.size], p[:block.size], q[:block.size]
        np.abs(block, square)
        tail = None
        if np.fmax.reduce(square) > 1.0:  # fmax skips NaN
            tail = np.flatnonzero(square > 1.0)
            tail_x = block[tail]
            block = block.copy()
            block[tail] = 0.0
        np.multiply(block, block, square)
        _polevl(square, _ERF_T, p)
        _p1evl(square, _ERF_U, q)
        p *= block
        np.divide(p, q, flat_out[i:i + _ERF_BLOCK])
        if tail is not None:
            flat_out[i + tail] = _erf_tail(tail_x)
    return out


def gelu_parts(a: np.ndarray):
    """Exact GELU x*Phi(x) via the error function (no tanh approximation), and
    its intermediate 1 + erf(x / sqrt(2)) = 2 Phi(x): (out, cdf).

    The erf is :func:`erf`, cephes' in numpy: IEEE arithmetic alone where
    |x / sqrt(2)| <= 1, and the C library's ``exp`` past that."""
    cdf = np.multiply(a, INV_SQRT2, order="C")
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


_MASK64 = (1 << 64) - 1
# Bulk draws of fewer words than this come from the scalar generator, which
# is faster there than starting the numpy lanes.
_SCALAR_WORDS = 256
# Words per column chunk of a bulk draw, or of each half of its lanes when
# it steps two at once, above a floor of 16 columns (:func:`_chunk_columns`).
# A chunk of normals holds 16 bytes of temporaries a word, so they stay
# within max(2**15, 16 * lanes) words: 0.5 MB a half, or 256 bytes a lane.
# A block of 2**17 words widens the chunks too, but its temporaries lift
# the peak RSS of the spectrum workload (ROADMAP, dead ends).
_BLOCK = 1 << 15
# Lanes of a bulk draw from which it steps as two halves at once
# (:func:`run_both`). Split on two cores, draws of 512 and 1,024 lanes read
# slower (4.1 -> 4.3 ms, 7.6-11 -> 11-12 ms) and one of 2,048 lanes no
# faster (25 ms); one of 4,621 lanes went 78-80 -> 55 ms.
_SPLIT_LANES = 4096
# Lane starts per jump in a bulk draw. Jumping a state takes about 2.5 KB of
# temporaries, so this bounds them to about 0.6 MB however many lanes a
# draw has.
_JUMP_STATES = 256
# Offset in a jump table of the low nibble of each of the 32 state bytes.
_LOW_NIBBLES = np.arange(0, 1024, 32)
# uint64 shift counts and multipliers of xoshiro256**, made once: building a
# numpy scalar costs more than a ufunc call over a few hundred lanes.
_U5, _U7, _U9, _U11, _U17, _U19, _U45, _U57 = (np.uint64(k) for k in (5, 7, 9, 11, 17, 19, 45, 57))


def _splitmix64(state: int):
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


def _lane_advance(s0, s1, s2, s3, s1_next, tmp) -> None:
    """One xoshiro256** state step of every lane, on uint64 arrays in place.

    ``s0``, ``s2`` and ``s3`` are updated, the new ``s1`` is written to
    ``s1_next`` and ``s1`` is left as it was: the step's output word is a
    function of ``s1`` alone (:func:`_lane_output`). ``tmp`` is scratch.
    """
    np.left_shift(s1, _U17, out=tmp)
    s2 ^= s0
    s3 ^= s1
    np.bitwise_xor(s1, s2, out=s1_next)
    s0 ^= s3
    s2 ^= tmp
    np.right_shift(s3, _U19, out=tmp)
    s3 <<= _U45
    s3 |= tmp


def _lane_output(s1: np.ndarray) -> None:
    """Turn the ``s1`` state words into the output words of their steps, in place."""
    s1 *= _U5
    high = s1 >> _U57
    s1 <<= _U7
    s1 |= high
    s1 *= _U9


def _lane_grid(n: int) -> tuple[int, int]:
    """(lanes, length) of a bulk draw of ``n`` words: lane i holds words
    [i*length, (i+1)*length) and the last lane may run past word n.

    ``length`` is 2**j, about sqrt(n)/4, and even, so a Box-Muller pair
    never straddles two lanes. Below :data:`_SCALAR_WORDS` the draw is one
    lane of ``n`` words from the scalar generator.
    """
    if n < _SCALAR_WORDS:
        return 1, n
    length = 1 << (n.bit_length() // 2 - 2)
    return -(-n // length), length


def _chunk_columns(lanes: int, length: int) -> int:
    """Columns of the lane grid per chunk: about :data:`_BLOCK` words, an
    even number, at most ``length`` and otherwise at least 16, so that a
    chunk of normals writes eight values, one 64-byte cache line, into each
    lane row of the output."""
    return min(length, max(16, _BLOCK // lanes & ~1))


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
        s0, s1, s2, s3 = (np.ascontiguousarray(w) for w in units.T)
        s1_next, tmp = np.empty_like(s1), np.empty_like(s1)
        _lane_advance(s0, s1, s2, s3, s1_next, tmp)
        images = np.stack([s0, s1_next, s2, s3], axis=1)
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


def _lane_starts(state, lanes: int, length: int) -> np.ndarray:
    """The (lanes, 4) uint64 states at which the lanes of a bulk draw from
    ``state`` start: lane i starts i*length words ahead, reached by jumps of
    2**k words (xoshiro256** is linear over GF(2)), made
    :data:`_JUMP_STATES` states at a time."""
    j = length.bit_length() - 1
    starts = np.empty((lanes, 4), dtype=np.uint64)
    starts[0] = state
    filled = 1
    while filled < lanes:  # lane filled + i starts filled*length = 2**j words after lane i
        take = min(filled, lanes - filled)
        for i in range(0, take, _JUMP_STATES):
            stop = min(take, i + _JUMP_STATES)
            starts[filled + i:filled + stop] = _jump_apply(_jump(j), starts[i:stop])
        filled += take
        j += 1
    return starts


def _step_lanes(starts: np.ndarray, length: int, last: int, out: np.ndarray, writer) -> list[int]:
    """Step the lanes that start at the (m, 4) uint64 ``starts`` through
    ``length`` words each, all lanes together, and hand the words to
    ``writer(out, columns)(t, words)``: columns t to t+c of the lanes, c at
    most ``columns`` (:func:`_chunk_columns` of m lanes), as a time-major
    (c, m) uint64 array that the writer may overwrite. ``out`` holds the m
    lanes' rows of the draw's output. Returns the state of the last lane
    after its ``last``-th word."""
    lanes = len(starts)
    s0, s2, s3 = (np.ascontiguousarray(starts[:, i]) for i in (0, 2, 3))
    columns = _chunk_columns(lanes, length)
    write = writer(out, columns)
    rows = np.empty((columns + 1, lanes), dtype=np.uint64)  # s1 before each step, and after the last
    rows[columns] = starts[:, 1]
    tmp = np.empty(lanes, dtype=np.uint64)
    for t in range(0, length, columns):
        rows[0] = rows[columns]
        width = min(columns, length - t)
        for k in range(width):
            _lane_advance(s0, rows[k], s2, s3, rows[k + 1], tmp)
            if t + k + 1 == last:
                state = [int(s0[-1]), int(rows[k + 1, -1]), int(s2[-1]), int(s3[-1])]
        words = rows[:width]
        _lane_output(words)
        write(t, words)
    return state


def _uniform_writer(out: np.ndarray, columns: int):
    """Chunk writer (see :func:`_step_lanes`) of :meth:`Rng.uniform` draws
    into the lane rows ``out``."""
    def write(t, words):
        words >>= _U11
        np.multiply(words.T, 2.0**-53, out=out[:, t:t + len(words)])
    return write


def _log1m(u: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """``log(1 - u)`` of a 1-D ``u``, written over ``u``, with the C
    library's ``log``: ``1 - u`` goes into a reversed view of the 1-D
    ``scratch`` (at least ``u.size`` values) and ``np.log`` reads it from
    there, which takes numpy's scalar loop (module docstring)."""
    y = scratch[:u.size][::-1]
    np.subtract(1.0, u, out=y)
    return np.log(y, out=u)


def _cos2pi(words: np.ndarray, scratch: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``cos(2 pi u)`` of the uniforms ``u = words * 2**-53`` of the 53-bit
    ``words`` (any shape, n of them), into the 1-D ``out`` in the words' C
    order, with the C library's ``cos``: 2 pi u goes into a reversed view
    of the 1-D ``scratch`` (at least n values) and ``np.cos`` reads it from
    there, which takes numpy's scalar loop (module docstring)."""
    x = scratch[:out.size][::-1]
    np.multiply(words, 2.0**-53, out=x.reshape(words.shape))
    x *= 2.0 * math.pi
    return np.cos(x, out=out)


def _normal_writer(scale: float, out: np.ndarray, columns: int):
    """Chunk writer (see :func:`_step_lanes`) of ``Rng.normal() * scale``
    draws into the lane rows ``out``, with its buffers made once.

    Each Box-Muller pair is two successive words of one lane. The log and
    the cos are the C library's through numpy's scalar loop
    (:func:`_log1m` and :func:`_cos2pi`, over a second buffer the size of
    one chunk's pairs). The cosines are written over the chunk's words,
    once both words of every pair have been read. A writer serves one
    thread.
    """
    values = np.empty((columns // 2, len(out)))
    scratch = np.empty(values.size)

    def write(t, words):
        words >>= _U11
        pairs = len(words) // 2
        value = values[:pairs]
        np.multiply(words[0::2], 2.0**-53, out=value)
        _log1m(value.reshape(-1), scratch)
        value *= -2.0
        np.sqrt(value, out=value)
        cosines = _cos2pi(words[1::2], scratch, words.reshape(-1).view(np.float64)[:value.size])
        value *= cosines.reshape(value.shape)
        value *= scale
        out[:, t // 2:t // 2 + pairs] = value.T
    return write


class Rng:
    """Deterministic xoshiro256** stream, state seeded through splitmix64.

    The integer and uniform draws (``u64``, ``uniform``, ``uniforms``,
    ``randint``, ``permutation``) are pure 64-bit integer arithmetic, so for
    a given seed they are identical across platforms and runs. ``normal``
    and ``normals`` also call the C library's ``log`` and ``cos``, once per
    element in both, so they are identical wherever those agree. ``normal``
    reaches both through :mod:`math`. ``normals`` takes both through
    numpy's scalar float64 ``np.log`` and ``np.cos`` loops, reached by
    reading a reversed 1-D view (see the module docstring). numpy's SIMD
    loops over contiguous float64, where it has them, are not used: they
    can differ from libm in the last bit. A bulk draw of n values returns
    the values of n scalar draws and leaves the same state. Single-owner:
    never share an instance between concurrent consumers. A bulk draw of
    many lanes may step half of them on one internal worker thread
    (:meth:`_fill`), which has ended by the time the draw returns.
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

    def _fill(self, n: int, length: int, out: np.ndarray, writer) -> None:
        """Write the next ``n`` words of :meth:`u64`, on the :func:`_lane_grid`
        of ``len(out)`` lanes of ``length`` words, into the draw's output
        ``out`` (one row a lane) through ``writer`` (see :func:`_step_lanes`).

        The lane starts are made once per draw. A grid of at least
        :data:`_SPLIT_LANES` lanes steps as two halves of lanes at once
        (:func:`run_both`): the lower on the calling thread, the upper on a
        worker. Each half sizes its chunks from its own lane count. The
        state left is the last lane's after the n-th word, which the upper
        half alone sets.
        """
        if n < _SCALAR_WORDS:
            if n:
                writer(out, n)(0, np.array([self.u64() for _ in range(n)], dtype=np.uint64)[:, None])
            return
        lanes = len(out)
        starts = _lane_starts(self._s, lanes, length)
        last = n - (lanes - 1) * length

        def step(lo: int, hi: int) -> list[int]:
            return _step_lanes(starts[lo:hi], length, last, out[lo:hi], writer)

        if lanes < _SPLIT_LANES:
            self._s = step(0, lanes)
        else:
            half = (lanes + 1) // 2
            self._s = run_both(functools.partial(step, 0, half),
                               functools.partial(step, half, lanes))[1]

    def uniform(self) -> float:
        """Uniform draw in [0, 1) with 53 bits of precision."""
        return (self.u64() >> 11) * 2.0**-53

    def normal(self) -> float:
        """Standard normal via Box-Muller; consumes exactly two uniforms."""
        u1 = 1.0 - self.uniform()  # in (0, 1], keeps the log finite
        u2 = self.uniform()
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def uniforms(self, shape) -> np.ndarray:
        """Array of :meth:`uniform` draws, in stream order."""
        n = int(np.prod(shape))
        lanes, length = _lane_grid(n)
        out = np.empty(lanes * length).reshape(lanes, length)  # a failed allocation names the count
        self._fill(n, length, out, _uniform_writer)
        return out.reshape(-1)[:n].reshape(shape)

    def normals(self, shape, scale: float = 1.0) -> np.ndarray:
        """Array of ``normal() * scale`` draws, in stream order (see
        :func:`_normal_writer`)."""
        n = int(np.prod(shape))
        lanes, length = _lane_grid(2 * n)
        out = np.empty(lanes * length // 2).reshape(lanes, -1)
        self._fill(2 * n, length, out, functools.partial(_normal_writer, scale))
        return out.reshape(-1)[:n].reshape(shape)

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
