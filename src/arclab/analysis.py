"""Singular-value spectra of learned adaptation matrices.

Each (layer, group) adapter of a bank adds x P to its input, where P is
the re-composed W_down diag(c) W_up of a bottleneck bank (rank at most
D') or the learned delta of a full-rank one. This module decomposes the
P of a bank in stacks, one values-only :func:`kernel.svd` call per stack
of at most :data:`_STACK_BYTES`, bins every spectrum into fixed-width
histogram buckets in one pass, and reports scale-free rank metrics. Two
CSV tables are the artifact, each written whole through
:func:`checkpoint.replace_csv`: every report's bins in one, every
report's rank metrics in the other. Plotting is left to whatever
consumes them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .adapters import AdapterBank, composite_matrix
from .checkpoint import replace_csv
from .errors import ConfigError, NumericalError, ShapeError
from .kernel import svd

DEFAULT_BINS = 50
DEFAULT_RANK_THRESHOLD = 0.01
# Bytes of matrices per stacked svd call: a bank of 64x64 matrices (32 KiB
# each) goes in one call up to 128 matrices, and a 768x768 one (4.5 MiB)
# goes alone, so a ViT-B bank holds one matrix at a time.
_STACK_BYTES = 4 << 20


@dataclass
class SpectrumReport:
    """Histogrammed singular values of one adaptation matrix.

    Bins are half-open [lo, hi) except the last, which closes so the top
    singular value is counted and the bin counts sum to the spectrum size.
    """

    layer: int
    group: str
    singular_values: np.ndarray
    bin_edges: np.ndarray
    bin_counts: np.ndarray

    @property
    def effective_rank(self) -> int:
        """Number of singular values exceeding DEFAULT_RANK_THRESHOLD * s_max."""
        s = self.singular_values
        return int((s > DEFAULT_RANK_THRESHOLD * float(s[0])).sum())

    @property
    def energy_top10(self) -> float:
        """Share of squared-singular-value energy in the top tenth of the
        values; 0.0 for a zero matrix. The values are scaled by the largest
        before squaring, so the share is the same at any scale of float64:
        squares of raw values overflow near 1e154 and underflow near 1e-154."""
        s = self.singular_values
        if s[0] == 0.0:
            return 0.0
        r = s / s[0]
        k = max(1, math.ceil(0.10 * s.size))
        return float((r[:k] * r[:k]).sum()) / float((r * r).sum())


def spectrum(delta: np.ndarray, bins: int = DEFAULT_BINS,
             layer: int = 0, group: str = "mha") -> SpectrumReport:
    """Histogram the singular values of a square delta matrix: the
    one-matrix case of :func:`rank_sweep`."""
    if delta.ndim != 2 or delta.shape[0] != delta.shape[1]:
        raise ShapeError(f"spectrum expects a square matrix, got {delta.shape}")
    return _spectra([delta[None]], [(layer, group)], bins)[0]


def rank_sweep(bank: AdapterBank, bins: int = DEFAULT_BINS) -> list[SpectrumReport]:
    """Spectrum of every per-layer, per-group adapter matrix P of the bank
    (see :func:`adapters.composite_matrix`), decomposed in stacks of at
    most :data:`_STACK_BYTES`; a larger matrix is a stack of its own."""
    sites = [(layer, group) for layer in bank.layers for group in bank.config.groups]
    per_call = max(1, _STACK_BYTES // (8 * bank.backbone.embed_dim ** 2))

    def stacks():
        for i in range(0, len(sites), per_call):
            matrices = [composite_matrix(bank, group, layer)[0]
                        for layer, group in sites[i:i + per_call]]
            yield np.stack(matrices) if len(matrices) > 1 else matrices[0][None]

    return _spectra(stacks(), sites, bins)


def _spectra(stacks, sites: list, bins: int) -> list[SpectrumReport]:
    """The reports of ``sites``, whose matrices ``stacks`` yields in order:
    one values-only :func:`svd` call per stack, then every spectrum binned
    in one pass (:func:`_histograms`)."""
    if bins < 1:
        raise ConfigError(f"bins must be >= 1, got {bins}")
    values, done = [], 0
    for stack in stacks:
        values.append(_singular_values(stack, sites[done:]))
        done += len(stack)
    values = np.concatenate(values)
    edges, counts = _histograms(values, sites, bins)
    return [SpectrumReport(layer=layer, group=group, singular_values=s, bin_edges=e,
                           bin_counts=c)
            for (layer, group), s, e, c in zip(sites, values, edges, counts)]


def _singular_values(stack: np.ndarray, sites: list) -> np.ndarray:
    """The singular values of each matrix of ``stack``, a row each, from
    one values-only :func:`svd` call. A failed call is made again one
    matrix at a time, to name the first (layer, group) of ``sites`` that
    fails."""
    try:
        return svd(stack, compute_uv=False)[1]
    except NumericalError:
        for matrix, (layer, group) in zip(stack, sites):
            try:
                svd(matrix, compute_uv=False)
            except NumericalError as exc:
                raise NumericalError(f"layer {layer} group {group} matrix: {exc}") from None
        raise


def _histograms(values: np.ndarray, sites: list, bins: int):
    """``np.histogram(s, bins, range=(0, s_max))`` of every row ``s`` of
    ``values``, its edges and counts bit for bit, as two arrays with a row
    per spectrum; a zero spectrum takes the range [0, 1].

    The edges are ``np.linspace``'s: k * (s_max / bins), and s_max itself
    last. A value's bin is np.histogram's: its estimate v / s_max * bins,
    moved by one where the edges disagree, which puts it in the half-open
    bin [lo, hi) that holds it, the last bin closed, wherever the bin width
    is a normal float; with a subnormal width the estimate can be off by
    more, in np.histogram as here. Raises NumericalError naming the first
    (layer, group) of ``sites`` whose range cannot hold ``bins`` strictly
    increasing edges, where np.histogram raises ValueError.
    """
    top = values[:, :1]
    top = np.where(top > 0.0, top, 1.0)
    with np.errstate(invalid="ignore"):  # 0 * inf, for an s_max that overflowed
        edges = np.arange(bins + 1.0) * (top / bins)
    edges[:, -1:] = top
    narrow = ~(edges[:, 1:] > edges[:, :-1]).all(axis=1)
    if narrow.any():
        i = int(narrow.argmax())
        layer, group = sites[i]
        raise NumericalError(f"layer {layer} group {group} matrix: its singular values span "
                             f"[0, {float(top[i, 0])}], which cannot hold {bins} bins of "
                             f"finite positive width")
    index = (values / top * bins).astype(np.intp)
    np.minimum(index, bins - 1, out=index)
    index -= values < np.take_along_axis(edges, index, axis=1)
    index += (values >= np.take_along_axis(edges, index + 1, axis=1)) & (index != bins - 1)
    index += np.arange(0, len(values) * bins, bins)[:, None]  # row r counts from r * bins
    counts = np.bincount(index.ravel(), minlength=len(values) * bins)
    return edges, counts.reshape(len(values), bins)


def write_spectrum_csvs(reports: list[SpectrumReport], out_dir) -> list[Path]:
    """Two tables under ``out_dir``, in this order: ``spectrum_bins.csv``,
    one layer,group,bin_lo,bin_hi,count row per bin of every report (edges
    as ``.17g``), and ``spectrum_summary.csv``, one row of rank metrics per
    report.

    Each is ``csv.writer``'s bytes, replaced atomically
    (:func:`checkpoint.replace_csv`): a failed write leaves that table as it
    was, and a failure between the two renames leaves the new bins table
    beside the old summary. Returns both paths.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    bins = [["layer", "group", "bin_lo", "bin_hi", "count"]]
    for r in reports:
        edges = [f"{edge:.17g}" for edge in r.bin_edges.tolist()]
        bins += ([r.layer, r.group, lo, hi, count]
                 for lo, hi, count in zip(edges, edges[1:], r.bin_counts.tolist()))
    replace_csv(out / "spectrum_bins.csv", bins)
    replace_csv(out / "spectrum_summary.csv", [["layer", "group", "effective_rank", "energy_top10"]]
                + [[r.layer, r.group, r.effective_rank, f"{r.energy_top10:.12g}"] for r in reports])
    return [out / "spectrum_bins.csv", out / "spectrum_summary.csv"]
