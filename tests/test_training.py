from __future__ import annotations

import csv
import math

import numpy as np
import pytest

from arclab import model, training
from arclab.adapters import ArcConfig, init_adapters, resolve_hooks
from arclab.errors import ConfigError, TrainingAborted
from arclab.kernel import Rng
from arclab.training import (
    AdamW,
    Dataset,
    SyntheticTask,
    TrainConfig,
    evaluate,
    make_task,
    schedule_scale,
    train,
    write_loss_csv,
)

TOY = model.BackboneConfig(image_size=8, patch_size=4, channels=1, embed_dim=16,
                           layers=2, heads=2, classes=4)
TASK = SyntheticTask(classes=4, image_size=8, channels=1, noise_sigma=0.0,
                     train_count=16, eval_count=8)


def fresh_setup(seed=7, dropout=0.0):
    weights = model.init_backbone(TOY, Rng(seed))
    bank = init_adapters(ArcConfig(bottleneck=4, dropout_rate=dropout), TOY, Rng(seed + 2))
    data = make_task(TASK, Rng(seed + 1))
    return weights, bank, data


class TestMakeTask:
    def test_sigma_zero_samples_equal_means(self) -> None:
        data = make_task(TASK, Rng(1))
        for img, label in zip(data.train_images, data.train_labels):
            assert np.array_equal(img, data.class_means[label])

    def test_balance(self) -> None:
        task = SyntheticTask(classes=2, image_size=8, channels=1, train_count=16, eval_count=8)
        data = make_task(task, Rng(2))
        assert np.bincount(data.train_labels).tolist() == [8, 8]
        assert np.bincount(data.eval_labels).tolist() == [4, 4]

    def test_same_seed_bitwise_equal(self) -> None:
        a = make_task(TASK, Rng(3))
        b = make_task(TASK, Rng(3))
        assert np.array_equal(a.train_images, b.train_images)
        assert np.array_equal(a.eval_images, b.eval_images)
        assert np.array_equal(a.train_labels, b.train_labels)

    def test_noise_added_when_sigma_positive(self) -> None:
        task = SyntheticTask(classes=2, image_size=8, channels=1, noise_sigma=0.5,
                             train_count=8, eval_count=4)
        data = make_task(task, Rng(4))
        assert not np.array_equal(data.train_images[0], data.class_means[0])

    def test_matches_per_image_draws(self) -> None:
        """The arrays equal those of one draw per class mean and per image,
        taken in the same stream order."""
        task = SyntheticTask(classes=3, image_size=4, channels=2, noise_sigma=0.3,
                             train_count=7, eval_count=5, mean_scale=0.5)
        drawn = Rng(5)
        data = make_task(task, drawn)
        rng = Rng(5)
        shape = (4, 4, 2)
        means = np.stack([rng.normals(shape, 0.5) for _ in range(3)])
        train_x = np.stack([means[i % 3] + 0.3 * rng.normals(shape) for i in range(7)])
        eval_x = np.stack([means[i % 3] + 0.3 * rng.normals(shape) for i in range(5)])
        assert data.class_means.tobytes() == means.tobytes()
        assert data.train_images.tobytes() == train_x.tobytes()
        assert data.eval_images.tobytes() == eval_x.tobytes()
        assert data.train_labels.tolist() == [0, 1, 2, 0, 1, 2, 0]
        assert data.eval_labels.tolist() == [0, 1, 2, 0, 1]
        assert drawn._s == rng._s

    def test_validation(self) -> None:
        with pytest.raises(ConfigError):
            SyntheticTask(classes=1, image_size=8)
        with pytest.raises(ConfigError):
            SyntheticTask(classes=4, image_size=8, train_count=2)
        with pytest.raises(ConfigError):
            SyntheticTask(classes=4, image_size=8, noise_sigma=-1.0)


class TestTrainConfig:
    def test_validation(self) -> None:
        with pytest.raises(ConfigError):
            TrainConfig(lr=-0.1, epochs=1, batch_size=1)
        with pytest.raises(ConfigError):
            TrainConfig(lr=0.1, epochs=0, batch_size=1)
        with pytest.raises(ConfigError):
            TrainConfig(lr=0.1, epochs=1, batch_size=1, warmup_epochs=2)
        with pytest.raises(ConfigError):
            TrainConfig(lr=0.1, epochs=1, batch_size=1, schedule="step")


class TestSchedule:
    def test_warmup_linear_from_zero(self) -> None:
        cfg = TrainConfig(lr=1.0, epochs=10, batch_size=1, warmup_epochs=2)
        scales = [schedule_scale(cfg, t, 100, 20) for t in range(21)]
        assert scales[0] == 0.0
        assert scales[10] == pytest.approx(0.5)
        assert scales[20] == pytest.approx(1.0)

    def test_cosine_decays_to_zero(self) -> None:
        cfg = TrainConfig(lr=1.0, epochs=10, batch_size=1)
        scales = [schedule_scale(cfg, t, 100, 0) for t in range(100)]
        assert scales[0] == pytest.approx(1.0)
        assert all(a >= b for a, b in zip(scales, scales[1:]))
        assert scales[-1] < 0.001
        assert schedule_scale(cfg, 50, 100, 0) == pytest.approx(0.5)

    def test_constant_after_warmup(self) -> None:
        cfg = TrainConfig(lr=1.0, epochs=10, batch_size=1, schedule="constant")
        assert schedule_scale(cfg, 99, 100, 0) == 1.0


class TestAdamW:
    def test_zero_gradient_pure_decay(self) -> None:
        opt = AdamW(weight_decay=0.2)
        p0 = np.full((2, 2), 3.0)
        params = {"p": p0.copy()}
        opt.step(params, {"p": np.zeros((2, 2))}, lr_t=0.5)
        assert np.abs(params["p"] / p0 - (1.0 - 0.5 * 0.2)).max() <= 1e-16

    def test_absent_gradient_also_decays(self) -> None:
        opt = AdamW(weight_decay=0.1)
        params = {"p": np.ones((2,  2))}
        opt.step(params, {}, lr_t=1.0)
        assert np.allclose(params["p"], 0.9)

    def test_first_step_moves_by_lr_signs(self) -> None:
        opt = AdamW()
        params = {"p": np.zeros((1, 3))}
        g = np.array([[1.0, -2.0, 0.5]])
        opt.step(params, {"p": g}, lr_t=0.1)
        # bias-corrected first Adam step is -lr * sign(g) up to eps
        assert np.abs(params["p"] + 0.1 * np.sign(g)).max() <= 1e-6

    def test_updates_in_place(self) -> None:
        opt = AdamW()
        arr = np.ones((1, 1))
        opt.step({"p": arr}, {"p": np.ones((1, 1))}, lr_t=0.1)
        assert arr[0, 0] != 1.0  # the caller's array itself moved


class TestTrain:
    def test_lr_zero_leaves_bank_unchanged(self) -> None:
        weights, bank, data = fresh_setup()
        before = {n: a.copy() for n, a in bank.tensors.items()}
        cfg = TrainConfig(lr=0.0, epochs=2, batch_size=8, seed=1)
        train(TOY, weights, bank, data, cfg)
        assert all(np.array_equal(bank.tensors[n], before[n]) for n in before)

    def test_frozen_backbone_checksum_stable(self) -> None:
        weights, bank, data = fresh_setup()
        before = model.frozen_checksum(weights)
        head_before = weights["head.weight"].copy()
        cfg = TrainConfig(lr=0.01, epochs=5, batch_size=8, seed=1)
        train(TOY, weights, bank, data, cfg)
        assert model.frozen_checksum(weights) == before
        assert not np.array_equal(weights["head.weight"], head_before)

    def test_same_seed_identical_curves(self) -> None:
        def run():
            weights, bank, data = fresh_setup(dropout=0.1)
            cfg = TrainConfig(lr=0.01, epochs=3, batch_size=8, seed=5)
            return train(TOY, weights, bank, data, cfg).curve

        a, b = run(), run()
        assert [(r.loss, r.lr, r.accuracy) for r in a] == \
            [(r.loss, r.lr, r.accuracy) for r in b]

    def test_loss_decreases(self) -> None:
        weights, bank, data = fresh_setup()
        cfg = TrainConfig(lr=0.02, epochs=50, batch_size=16, warmup_epochs=2, seed=3)
        result = train(TOY, weights, bank, data, cfg, max_steps=100)
        assert result.curve[-1].loss < result.curve[0].loss

    def test_max_steps_caps_run(self) -> None:
        weights, bank, data = fresh_setup()
        cfg = TrainConfig(lr=0.01, epochs=100, batch_size=8, seed=1)
        result = train(TOY, weights, bank, data, cfg, max_steps=7)
        assert result.steps == 7
        assert len(result.curve) == 7

    def test_tape_size_independent_of_batch(self, monkeypatch) -> None:
        sizes = []
        real_backward = training.backward

        def counting(tape, out):
            sizes.append(out.idx + 1)  # node ids run 0..out.idx
            return real_backward(tape, out)

        monkeypatch.setattr(training, "backward", counting)
        for batch in (1, 8):
            weights, bank, data = fresh_setup(dropout=0.1)
            cfg = TrainConfig(lr=0.01, epochs=1, batch_size=batch, seed=1)
            train(TOY, weights, bank, data, cfg, max_steps=1)
        assert len(sizes) == 2 and sizes[0] == sizes[1]

    def test_readme_demo_tape_size(self, monkeypatch) -> None:
        """The README demo step records 174 nodes: one linear node per
        projection, FFN layer, patch embedding, head and adapter up-projection."""
        sizes = []
        real_backward = training.backward

        def counting(tape, out):
            sizes.append(out.idx + 1)
            return real_backward(tape, out)

        monkeypatch.setattr(training, "backward", counting)
        backbone = model.BackboneConfig(image_size=8, patch_size=4, channels=1, embed_dim=16,
                                        layers=3, heads=2, classes=4)
        bank = init_adapters(ArcConfig(bottleneck=4, dropout_rate=0.1), backbone, Rng(9))
        task = SyntheticTask(classes=4, image_size=8, channels=1, train_count=32, eval_count=16)
        train(backbone, model.init_backbone(backbone, Rng(7)), bank, make_task(task, Rng(8)),
              TrainConfig(lr=0.01, epochs=1, batch_size=8, seed=3), max_steps=2)
        assert sizes == [174, 174]

    def test_dropout_step_draws_one_batch_of_masks(self, monkeypatch) -> None:
        weights, bank, data = fresh_setup(dropout=0.1)
        made = []

        class RecordingRng(Rng):
            def __init__(self, seed):
                super().__init__(seed)
                made.append(self)

        monkeypatch.setattr(training, "Rng", RecordingRng)
        batch = 8
        cfg = TrainConfig(lr=0.01, epochs=1, batch_size=batch, seed=5)
        train(TOY, weights, bank, data, cfg, max_steps=1)
        (used,) = made
        want = Rng(5)
        want.permutation(data.train_images.shape[0])
        sites = len(resolve_hooks(bank.config, TOY))
        want.uniforms(batch * sites * (TOY.tokens + 1) * bank.config.bottleneck)
        assert used._s == want._s

    def test_linear_probe_trains_head_only(self) -> None:
        weights, _, data = fresh_setup()
        head_before = weights["head.weight"].copy()
        cfg = TrainConfig(lr=0.01, epochs=2, batch_size=8, seed=1)
        train(TOY, weights, None, data, cfg)
        assert not np.array_equal(weights["head.weight"], head_before)

    def test_nan_loss_aborts_with_diagnostic(self) -> None:
        weights, bank, data = fresh_setup()
        bank.tensors["arc.mha.1.coef"][0, 0] = np.nan
        cfg = TrainConfig(lr=0.01, epochs=1, batch_size=8, seed=1)
        with pytest.raises(TrainingAborted) as info:
            train(TOY, weights, bank, data, cfg)
        assert info.value.step == 0
        assert "lr" in str(info.value)

    def test_dropout_sampled_only_in_train_mode(self) -> None:
        # two train runs with different seeds diverge when dropout is active
        def run(seed):
            weights, bank, data = fresh_setup(dropout=0.5)
            cfg = TrainConfig(lr=0.01, epochs=1, batch_size=8, seed=seed)
            return train(TOY, weights, bank, data, cfg).curve[-1].loss

        assert run(1) != run(2)


class TestEvaluate:
    def test_matches_manual_forward(self) -> None:
        weights, bank, data = fresh_setup()
        loss, acc = evaluate(TOY, weights, bank, data.eval_images, data.eval_labels)
        assert math.isfinite(loss)
        assert 0.0 <= acc <= 1.0

    def test_eval_ignores_dropout(self) -> None:
        weights, bank, data = fresh_setup(dropout=0.9)
        a = evaluate(TOY, weights, bank, data.eval_images, data.eval_labels)
        b = evaluate(TOY, weights, bank, data.eval_images, data.eval_labels)
        assert a == b


class TestLossCsv:
    def test_schema(self, tmp_path) -> None:
        weights, bank, data = fresh_setup()
        cfg = TrainConfig(lr=0.01, epochs=1, batch_size=8, seed=1)
        result = train(TOY, weights, bank, data, cfg)
        path = tmp_path / "loss.csv"
        write_loss_csv(result.curve, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["step", "lr", "loss", "accuracy"]
        assert len(rows) == len(result.curve) + 1
