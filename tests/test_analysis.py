from __future__ import annotations

import csv

import numpy as np
import pytest

from arclab import analysis, model
from arclab.adapters import ArcConfig, init_adapters
from arclab.analysis import DEFAULT_RANK_THRESHOLD, rank_sweep, spectrum
from arclab.errors import ConfigError, ShapeError
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


class TestCsvEmission:
    def test_files_and_schema(self, tmp_path) -> None:
        bank = init_adapters(ArcConfig(variant="full_rank"), TOY, Rng(9))
        rng = np.random.default_rng(10)
        for name in bank.tensors:
            bank.tensors[name] = rng.normal(size=(16, 16))
        reports = rank_sweep(bank, bins=5)
        paths = analysis.write_spectrum_csvs(reports, tmp_path)
        names = sorted(p.name for p in paths)
        assert "spectrum_summary.csv" in names
        assert "spectrum_layer1_mha.csv" in names
        with open(tmp_path / "spectrum_layer1_mha.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["bin_lo", "bin_hi", "count"]
        assert len(rows) == 6
        assert sum(int(r[2]) for r in rows[1:]) == 16
        with open(tmp_path / "spectrum_summary.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["layer", "group", "effective_rank", "energy_top10"]
        assert len(rows) == 5

    def test_bytes_match_csv_writer(self, tmp_path) -> None:
        """Each file holds exactly what ``csv.writer`` writes for the same rows."""
        rng = np.random.default_rng(11)
        reports = [
            spectrum(rng.normal(size=(16, 16)), bins=50, layer=1, group="mha"),
            spectrum(planted_matrix(rng, 12, (4.0, 1e-9)), bins=7, layer=1, group="ffn"),
            spectrum(np.zeros((6, 6)), bins=3, layer=2, group="mha"),
            spectrum(1e-300 * rng.normal(size=(5, 5)), bins=4, layer=2, group="ffn"),
            spectrum(np.diag([3.0, 2.0, 1.0]), bins=3, layer=3, group='odd, "quoted"'),
        ]
        paths = analysis.write_spectrum_csvs(reports, tmp_path)
        want_dir = tmp_path / "want"
        want_dir.mkdir()
        for r in reports:
            with open(want_dir / f"spectrum_layer{r.layer}_{r.group}.csv", "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["bin_lo", "bin_hi", "count"])
                for i, count in enumerate(r.bin_counts):
                    writer.writerow([f"{r.bin_edges[i]:.17g}", f"{r.bin_edges[i + 1]:.17g}",
                                     int(count)])
        with open(want_dir / "spectrum_summary.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["layer", "group", "effective_rank", "energy_top10"])
            for r in reports:
                writer.writerow([r.layer, r.group, r.effective_rank, f"{r.energy_top10:.12g}"])
        assert [p.name for p in paths] == [f"spectrum_layer{r.layer}_{r.group}.csv"
                                           for r in reports] + ["spectrum_summary.csv"]
        for path in paths:
            assert path.read_bytes() == (want_dir / path.name).read_bytes(), path.name
        assert b'"odd, ""quoted"""' in paths[-1].read_bytes()
