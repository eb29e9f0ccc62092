from __future__ import annotations

import csv
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arclab import analysis, model
from arclab.adapters import ArcConfig, init_adapters
from arclab.analysis import DEFAULT_RANK_THRESHOLD, rank_sweep, spectrum
from arclab.errors import ConfigError, NumericalError, ShapeError
from arclab.kernel import Rng

TOY = model.BackboneConfig(image_size=8, patch_size=4, channels=1, embed_dim=16,
                           layers=2, heads=2, classes=4)


def orthonormal_columns(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    """Gram-Schmidt basis for the test-side construction oracle."""
    basis = np.zeros((n, k))
    for j in range(k):
        v = rng.normal(size=n)
        for i in range(j):
            v -= (basis[:, i] @ v) * basis[:, i]
        basis[:, j] = v / np.linalg.norm(v)
    return basis


def planted_matrix(rng, n: int, sigmas) -> np.ndarray:
    u = orthonormal_columns(rng, n, len(sigmas))
    v = orthonormal_columns(rng, n, len(sigmas))
    return sum(s * np.outer(u[:, i], v[:, i]) for i, s in enumerate(sigmas))


class TestSpectrum:
    def test_single_spike(self) -> None:
        delta = np.zeros((8, 8))
        delta[0, 0] = 5.0
        report = spectrum(delta, bins=10)
        assert report.effective_rank == 1
        assert report.bin_counts[-1] == 1  # the spike lands in the top bin
        assert report.bin_counts.sum() == 8

    def test_planted_singular_values(self) -> None:
        rng = np.random.default_rng(0)
        delta = planted_matrix(rng, 12, (4.0, 2.0, 1.0))
        report = spectrum(delta)
        assert np.abs(report.singular_values[:3] - np.array([4.0, 2.0, 1.0])).max() <= 1e-8
        assert np.abs(report.singular_values[3:]).max() <= 1e-8
        assert report.effective_rank == 3

    def test_zero_matrix(self) -> None:
        report = spectrum(np.zeros((6, 6)))
        assert np.array_equal(report.singular_values, np.zeros(6))
        assert report.effective_rank == 0
        assert report.energy_top10 == 0.0
        assert report.bin_counts.sum() == 6
        assert report.bin_edges[[0, -1]].tolist() == [0.0, 1.0]

    def test_histogram_conservation_random(self) -> None:
        rng = np.random.default_rng(1)
        for _ in range(10):
            delta = rng.normal(size=(9, 9))
            report = spectrum(delta, bins=7)
            assert report.bin_counts.sum() == 9
            assert report.bin_edges.shape == (8,)
            assert np.all(np.diff(report.bin_edges) > 0)

    def test_effective_rank_monotone_in_tau(self) -> None:
        """The count of singular values above tau * s_max falls as tau grows,
        and effective_rank is that count at the default threshold."""
        rng = np.random.default_rng(2)
        report = spectrum(rng.normal(size=(10, 10)))
        s = report.singular_values
        taus = sorted({*np.linspace(0.0, 1.0, 25).tolist(), DEFAULT_RANK_THRESHOLD})
        ranks = [int((s > t * s[0]).sum()) for t in taus]
        assert all(a >= b for a, b in zip(ranks, ranks[1:]))
        assert report.effective_rank == ranks[taus.index(DEFAULT_RANK_THRESHOLD)]

    def test_energy_fraction_bounds(self) -> None:
        rng = np.random.default_rng(3)
        report = spectrum(rng.normal(size=(10, 10)))
        assert 0.0 < report.energy_top10 <= 1.0
        s = report.singular_values  # the top tenth of 10 values is the first
        assert report.energy_top10 == pytest.approx(s[0] ** 2 / (s * s).sum())

    def test_energy_share_holds_at_both_ends_of_float64(self) -> None:
        """Raw squares overflow at 1e300, turn subnormal at 1e-160 and vanish
        at 1e-300; the share is the unit-scale share at every scale."""
        a = np.random.default_rng(11).normal(size=(8, 8))
        want = spectrum(a).energy_top10
        for scale in (1e300, 1e-160, 1e-300):
            assert spectrum(a * scale).energy_top10 == pytest.approx(want, rel=1e-12), scale

    def test_bins_span_zero_to_top_value(self) -> None:
        delta = np.diag([3.0, 2.0, 1.0])
        report = spectrum(delta, bins=3)
        assert report.bin_edges.tolist() == [0.0, 1.0, 2.0, 3.0]
        assert report.bin_counts.tolist() == [0, 1, 2]  # [0,1), [1,2), [2,3]

    def test_tiny_largest_value_is_a_numerical_error(self) -> None:
        """[0, 1e-322] holds no 50 strictly increasing edges: np.histogram
        raises ValueError there, and spectrum a NumericalError naming the
        matrix, not 50 bins of zero width."""
        delta = np.zeros((16, 16))
        delta[0, 0] = 1e-322
        with pytest.raises(ValueError, match="Too many bins"):
            np.histogram(np.linalg.svd(delta, compute_uv=False), bins=50, range=(0.0, 1e-322))
        with pytest.raises(NumericalError, match=r"^layer 2 group ffn matrix: .*cannot hold 50 "
                                                 r"bins"):
            spectrum(delta, bins=50, layer=2, group="ffn")
        assert spectrum(delta, bins=2).bin_counts.tolist() == [15, 1]

    def test_rejects_non_square(self) -> None:
        with pytest.raises(ShapeError):
            spectrum(np.zeros((3, 4)))

    def test_rejects_zero_bins(self) -> None:
        with pytest.raises(ConfigError):
            spectrum(np.zeros((3, 3)), bins=0)

    def test_orthonormality_reasserted_on_analyzed_matrix(self) -> None:
        rng = np.random.default_rng(4)
        delta = rng.normal(size=(16, 16))
        from arclab.kernel import svd
        u, s, v = svd(delta)
        assert np.abs(u @ np.diag(s) @ v.T - delta).max() <= 1e-8 * np.abs(delta).max()
        assert np.abs(u.T @ u - np.eye(16)).max() <= 1e-10
        assert np.all(np.diff(s) <= 0)


def _histogram(s: np.ndarray, bins: int):
    """The reference: np.histogram over [0, s_max], [0, 1] for a zero spectrum."""
    return np.histogram(s, bins=bins, range=(0.0, float(s[0]) if s[0] > 0.0 else 1.0))


@st.composite
def stacks(draw):
    """A stack of 1-24 square matrices of one size, 1-20, each dense, zero,
    with one repeated value, or diagonal with values on the edges of
    ``bins`` unit bins, and all scaled, from subnormal to near overflow. In
    about a third of the stacks one matrix has every entry 1e308, so its
    s_max overflows unless it is 1x1."""
    count, n, bins = draw(st.integers(1, 24)), draw(st.integers(1, 20)), draw(st.integers(1, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1.0, 1e-300, 1e300, 1e-320, 1e-322]))
    huge = draw(st.integers(0, 3 * count - 1))
    stack = np.zeros((count, n, n))
    for matrix in stack:
        kind = draw(st.sampled_from(["dense", "zero", "repeated", "on_edges"]))
        if kind == "dense":
            matrix[:] = rng.normal(size=(n, n))
        elif kind == "repeated":  # an orthogonal matrix times 3: every value is 3
            matrix[:] = 3.0 * np.linalg.qr(rng.normal(size=(n, n)))[0]
        elif kind == "on_edges":  # s_max = bins, so the edges are 0, 1, ..., bins
            values = rng.integers(0, bins + 1, size=n).astype(float)
            values[0] = bins
            matrix[:] = np.diag(values)
    stack *= scale
    if huge < count:
        stack[huge] = 1e308
    return stack, bins


class TestOnePassBinning:
    """Every spectrum of a stack binned at once, against np.histogram per matrix."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(drawn=stacks())
    @example(drawn=(np.stack([np.diag([3.0, 2.0, 1.0]), np.zeros((3, 3))]), 3))  # values on edges
    def test_matches_np_histogram(self, drawn) -> None:
        """Edges bit for bit and counts exactly, and a NumericalError naming
        the first matrix exactly where np.histogram raises for one."""
        stack, bins = drawn
        sites = [(layer, "mha") for layer in range(1, len(stack) + 1)]
        values = np.linalg.svd(stack, compute_uv=False)
        want = []
        for s in values:
            try:
                want.append(_histogram(s, bins))
            except ValueError:
                first = sites[len(want)]
                with pytest.raises(NumericalError,
                                   match=rf"^layer {first[0]} group mha matrix: .* bins"):
                    analysis._spectra([stack], sites, bins)
                return
        reports = analysis._spectra([stack], sites, bins)
        for report, s, (counts, edges) in zip(reports, values, want):
            assert report.singular_values.tobytes() == s.tobytes()
            assert report.bin_edges.tobytes() == edges.tobytes()
            assert report.bin_counts.dtype == counts.dtype
            assert np.array_equal(report.bin_counts, counts)


class TestPaperWidthSpectrum:
    def test_planted_rank_eight_at_768(self) -> None:
        # Noise is kept off the planted singular subspaces, so the planted
        # values stay exact singular values and the noise floor (below
        # 1e-4) stays under the 1% rank threshold.
        rng = np.random.default_rng(768)
        n = 768
        sigmas = np.array([4.0, 3.0, 2.0, 1.5, 1.0, 0.75, 0.5, 0.25])
        u = orthonormal_columns(rng, n, sigmas.size)
        v = orthonormal_columns(rng, n, sigmas.size)
        noise = 1e-6 * rng.normal(size=(n, n))
        noise -= u @ (u.T @ noise)
        noise -= (noise @ v) @ v.T
        report = spectrum((u * sigmas) @ v.T + noise, layer=1, group="mha")
        assert report.effective_rank == 8
        assert np.abs(report.singular_values[:8] - sigmas).max() <= 1e-8
        assert report.bin_counts.sum() == n


@pytest.fixture
def svd_shapes(monkeypatch) -> list:
    """The shape of every array ``analysis`` hands to ``svd``, in call order."""
    shapes, real_svd = [], analysis.svd

    def recording(a, **kwargs):
        shapes.append(a.shape)
        return real_svd(a, **kwargs)

    monkeypatch.setattr(analysis, "svd", recording)
    return shapes


class TestRankSweep:
    def _full_rank_bank(self, seed=5, layers=TOY.layers):
        cfg = ArcConfig(variant="full_rank")
        return init_adapters(cfg, TOY, Rng(seed))

    def test_untrained_bank_all_zero_rank(self) -> None:
        reports = rank_sweep(self._full_rank_bank())
        assert all(r.effective_rank == 0 for r in reports)

    def test_report_per_layer_and_group(self) -> None:
        reports = rank_sweep(self._full_rank_bank())
        assert [(r.layer, r.group) for r in reports] == [
            (1, "mha"), (1, "ffn"), (2, "mha"), (2, "ffn")
        ]

    def test_single_layer_bank_two_reports(self) -> None:
        cfg = ArcConfig(variant="full_rank", insertion_layers=(1,))
        bank = init_adapters(cfg, TOY, Rng(6))
        reports = rank_sweep(bank)
        assert len(reports) == 2

    @pytest.mark.parametrize("sharing", ["intra_inter", "non_intra_non_inter"])
    def test_bottleneck_bank_rank_at_most_dprime(self, sharing) -> None:
        """A bottleneck bank reports W_down diag(c_l) W_up, of rank at most D'."""
        bank = init_adapters(ArcConfig(bottleneck=4, sharing=sharing), TOY, Rng(7))
        rng = np.random.default_rng(7)
        for name, arr in bank.tensors.items():
            bank.tensors[name] = rng.normal(size=arr.shape)
        reports = rank_sweep(bank)
        assert [(r.layer, r.group) for r in reports] == [
            (1, "mha"), (1, "ffn"), (2, "mha"), (2, "ffn")
        ]
        for r in reports:
            assert r.singular_values.size == 16
            s = r.singular_values
            assert int((s > 1e-10 * s[0]).sum()) == 4

    def test_stacks_stay_under_the_byte_cap(self, monkeypatch, svd_shapes) -> None:
        """With the cap at three matrices a bank of four goes in two calls,
        of three and one, and reports the bits of one call per matrix."""
        bank = self._full_rank_bank()
        rng = np.random.default_rng(12)
        for name in bank.tensors:
            bank.tensors[name] = rng.normal(size=(16, 16))
        alone = [spectrum(analysis.composite_matrix(bank, group, layer)[0], bins=9,
                          layer=layer, group=group)
                 for layer in bank.layers for group in bank.config.groups]
        assert svd_shapes == [(1, 16, 16)] * 4
        svd_shapes.clear()
        monkeypatch.setattr(analysis, "_STACK_BYTES", 3 * 16 * 16 * 8 + 7)
        reports = rank_sweep(bank, bins=9)
        assert svd_shapes == [(3, 16, 16), (1, 16, 16)]
        assert all(8 * math.prod(shape) <= analysis._STACK_BYTES for shape in svd_shapes)
        for got, want in zip(reports, alone, strict=True):
            assert (got.layer, got.group) == (want.layer, want.group)
            for field in ("singular_values", "bin_edges", "bin_counts"):
                assert getattr(got, field).tobytes() == getattr(want, field).tobytes()

    def test_one_768_matrix_per_call(self, svd_shapes) -> None:
        """A 768x768 matrix (4.5 MiB) is more than the cap: each goes alone,
        and no call holds more than the cap save a single matrix."""
        vit = model.BackboneConfig(image_size=16, patch_size=16, channels=1, embed_dim=768,
                                   layers=2, heads=12, classes=2)
        bank = init_adapters(ArcConfig(variant="full_rank"), vit, Rng(13))
        reports = rank_sweep(bank, bins=4)
        assert svd_shapes == [(1, 768, 768)] * 4 and len(reports) == 4
        assert 768 * 768 * 8 > analysis._STACK_BYTES >= 128 * 64 * 64 * 8

    def test_non_finite_matrix_in_a_later_stack_named(self, monkeypatch) -> None:
        """The message names the first non-finite (layer, group) of the bank,
        in the second of two stacks, and nothing else is reported."""
        cfg = ArcConfig(variant="full_rank")
        bank = init_adapters(cfg, model.BackboneConfig(image_size=8, patch_size=4, channels=1,
                                                       embed_dim=16, layers=3, heads=2,
                                                       classes=4), Rng(14))
        bank.tensors[cfg.site_keys("ffn", 2)[0]][3, 3] = np.inf
        bank.tensors[cfg.site_keys("mha", 3)[0]][0, 1] = np.nan
        monkeypatch.setattr(analysis, "_STACK_BYTES", 3 * 16 * 16 * 8)
        with pytest.raises(NumericalError, match=r"^layer 2 group ffn matrix: svd input of "
                                                 r"shape \(16, 16\) holds non-finite values$"):
            rank_sweep(bank)

    def test_planted_low_rank_deltas_detected(self) -> None:
        bank = self._full_rank_bank()
        rng = np.random.default_rng(8)
        for name in bank.tensors:
            bank.tensors[name] = planted_matrix(rng, 16, (3.0, 1.5))
        reports = rank_sweep(bank)
        assert all(r.effective_rank == 2 for r in reports)


class TestTrainedSpectrum:
    def test_trained_full_rank_bank_reported(self) -> None:
        """Train unconstrained deltas briefly and report the measured ranks.

        The spectrum shape on a desk-scale synthetic task is an empirical
        artifact output; only the mathematical properties are asserted.
        """
        from arclab import training

        weights = model.init_backbone(TOY, Rng(7))
        cfg = ArcConfig(variant="full_rank")
        bank = init_adapters(cfg, TOY, Rng(9))
        task = training.SyntheticTask(classes=4, image_size=8, channels=1,
                                      noise_sigma=0.0, train_count=16, eval_count=8)
        data = training.make_task(task, Rng(21))
        tcfg = training.TrainConfig(lr=0.01, epochs=100, batch_size=8,
                                    warmup_epochs=5, seed=3)
        training.train(TOY, weights, bank, data, tcfg, max_steps=200)
        reports = rank_sweep(bank)
        assert len(reports) == 2 * TOY.layers
        for r in reports:
            assert r.bin_counts.sum() == 16
            s = r.singular_values
            ranks = [int((s > t * s[0]).sum()) for t in (0.0, 0.01, 0.1, 0.5, 1.0)]
            assert all(a >= b for a, b in zip(ranks, ranks[1:]))
            assert r.effective_rank == ranks[1]
        print(f"trained full-rank deltas: median effective rank "
              f"{np.median([r.effective_rank for r in reports]):.1f} of {TOY.embed_dim} "
              f"(reported, not asserted)")


def read_rows(path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


class TestCsvEmission:
    def test_files_and_schema(self, tmp_path) -> None:
        """Two tables, whatever the bank: every bin of every (layer, group) in
        one, each group's counts summing to its matrix size, and one summary
        row per (layer, group) in the other."""
        bank = init_adapters(ArcConfig(variant="full_rank"), TOY, Rng(9))
        rng = np.random.default_rng(10)
        for name in bank.tensors:
            bank.tensors[name] = rng.normal(size=(16, 16))
        reports = rank_sweep(bank, bins=5)
        paths = analysis.write_spectrum_csvs(reports, tmp_path)
        assert paths == [tmp_path / "spectrum_bins.csv", tmp_path / "spectrum_summary.csv"]
        assert sorted(tmp_path.iterdir()) == sorted(paths)
        rows = read_rows(paths[0])
        assert rows[0] == ["layer", "group", "bin_lo", "bin_hi", "count"]
        sites = [(str(r.layer), r.group) for r in reports]
        assert len(sites) == 4 and len(rows) == 1 + 5 * len(sites)
        counts = {}
        for layer, group, _, _, count in rows[1:]:
            counts[layer, group] = counts.get((layer, group), 0) + int(count)
        assert counts == {site: 16 for site in sites}
        rows = read_rows(paths[1])
        assert rows[0] == ["layer", "group", "effective_rank", "energy_top10"]
        assert [tuple(row[:2]) for row in rows[1:]] == sites

    def test_bytes_match_csv_writer(self, tmp_path) -> None:
        """Each table holds exactly what ``csv.writer`` writes for the same rows."""
        rng = np.random.default_rng(11)
        reports = [
            spectrum(rng.normal(size=(16, 16)), bins=50, layer=1, group="mha"),
            spectrum(planted_matrix(rng, 12, (4.0, 1e-9)), bins=7, layer=1, group="ffn"),
            spectrum(np.zeros((6, 6)), bins=3, layer=2, group="mha"),
            spectrum(1e-300 * rng.normal(size=(5, 5)), bins=4, layer=2, group="ffn"),
            spectrum(np.diag([3.0, 2.0, 1.0]), bins=3, layer=3, group='odd, "quoted"'),
        ]
        bins_path, summary_path = analysis.write_spectrum_csvs(reports, tmp_path / "out")
        want = tmp_path / "want.csv"
        with open(want, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["layer", "group", "bin_lo", "bin_hi", "count"])
            for r in reports:
                for i, count in enumerate(r.bin_counts):
                    writer.writerow([r.layer, r.group, f"{r.bin_edges[i]:.17g}",
                                     f"{r.bin_edges[i + 1]:.17g}", int(count)])
        assert bins_path.read_bytes() == want.read_bytes()
        with open(want, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["layer", "group", "effective_rank", "energy_top10"])
            for r in reports:
                writer.writerow([r.layer, r.group, r.effective_rank, f"{r.energy_top10:.12g}"])
        assert summary_path.read_bytes() == want.read_bytes()
        assert b'"odd, ""quoted"""' in summary_path.read_bytes()

    @pytest.mark.parametrize("group", ['odd, "quoted"', "../x"])
    def test_group_name_is_a_cell_not_a_path(self, tmp_path, group) -> None:
        """A group name is written as a cell of each table and read back as it
        was; it names no file, so ``../x`` creates nothing outside the output
        directory."""
        reports = [spectrum(np.diag([3.0, 2.0, 1.0]), bins=3, layer=1, group=group),
                   spectrum(np.eye(4), bins=2, layer=2, group=group)]
        out = tmp_path / "out"
        bins_path, summary_path = analysis.write_spectrum_csvs(reports, out)
        assert ([row[:2] for row in read_rows(bins_path)[1:]]
                == [["1", group]] * 3 + [["2", group]] * 2)
        assert [row[:2] for row in read_rows(summary_path)[1:]] == [["1", group], ["2", group]]
        assert [p.name for p in tmp_path.iterdir()] == ["out"]
        assert sorted(out.iterdir()) == [bins_path, summary_path]
