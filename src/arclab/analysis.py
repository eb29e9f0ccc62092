"""Singular-value spectra of learned adaptation matrices.

Each (layer, group) adapter of a bank adds x P to its input, where P is
the re-composed W_down diag(c) W_up of a bottleneck bank (rank at most
D') or the learned delta of a full-rank one. This module decomposes each
P, bins the singular values into fixed-width histogram buckets, and
reports scale-free rank metrics. CSV output is the artifact; plotting is
left to whatever consumes the CSVs.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .adapters import AdapterBank, composite_matrix
from .errors import ConfigError, NumericalError, ShapeError
from .kernel import svd

DEFAULT_BINS = 50
DEFAULT_RANK_THRESHOLD = 0.01


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
    """Histogram the singular values of a square delta matrix, taken by
    LAPACK's values-only route (no singular vectors are built).

    Bins are fixed-width over [0, s_max]; a zero matrix gets the range
    [0, 1] so conservation still holds.
    """
    if delta.ndim != 2 or delta.shape[0] != delta.shape[1]:
        raise ShapeError(f"spectrum expects a square matrix, got {delta.shape}")
    if bins < 1:
        raise ConfigError(f"bins must be >= 1, got {bins}")
    try:
        _, s, _ = svd(delta, compute_uv=False)
    except NumericalError as exc:
        raise NumericalError(f"layer {layer} group {group} matrix: {exc}") from None
    s_max = float(s[0])
    counts, edges = np.histogram(s, bins=bins, range=(0.0, s_max if s_max > 0.0 else 1.0))
    return SpectrumReport(layer=layer, group=group, singular_values=s,
                          bin_edges=edges, bin_counts=counts)


def rank_sweep(bank: AdapterBank, bins: int = DEFAULT_BINS) -> list[SpectrumReport]:
    """Spectrum of every per-layer, per-group adapter matrix P of the bank
    (see :func:`adapters.composite_matrix`)."""
    return [spectrum(composite_matrix(bank, group, layer)[0], bins=bins, layer=layer, group=group)
            for layer in bank.layers for group in bank.config.groups]


def write_spectrum_csvs(reports: list[SpectrumReport], out_dir) -> list[Path]:
    """One bin_lo,bin_hi,count file per (layer, group) plus a summary file.

    Each file is rendered whole and written once, with ``csv.writer``'s
    bytes: CRLF line ends, edges as ``.17g``.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for r in reports:
        edges = [f"{edge:.17g}" for edge in r.bin_edges.tolist()]
        rows = "".join(f"{lo},{hi},{count}\r\n"
                       for lo, hi, count in zip(edges, edges[1:], r.bin_counts.tolist()))
        path = out / f"spectrum_layer{r.layer}_{r.group}.csv"
        path.write_text("bin_lo,bin_hi,count\r\n" + rows, newline="")
        paths.append(path)
    text = io.StringIO()  # csv.writer quotes a group name that needs it
    writer = csv.writer(text)
    writer.writerow(["layer", "group", "effective_rank", "energy_top10"])
    writer.writerows([r.layer, r.group, r.effective_rank, f"{r.energy_top10:.12g}"] for r in reports)
    summary = out / "spectrum_summary.csv"
    summary.write_text(text.getvalue(), newline="")
    paths.append(summary)
    return paths
