from __future__ import annotations

import csv
import dataclasses
import hashlib
import math

import numpy as np
import pytest

from arclab import model, training
from arclab.adapters import ArcConfig, dropout_masks, init_adapters
from arclab.autodiff import PRIMITIVES, Tape, backward
from arclab.errors import ConfigError, ShapeError, TrainingAborted
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
        assert drawn.generator.bit_generator.state == rng.generator.bit_generator.state

    def test_validation(self) -> None:
        with pytest.raises(ConfigError):
            SyntheticTask(classes=1, image_size=8)
        with pytest.raises(ConfigError):
            SyntheticTask(classes=4, image_size=8, train_count=2)
        with pytest.raises(ConfigError):
            SyntheticTask(classes=4, image_size=8, noise_sigma=-1.0)
        with pytest.raises(ConfigError, match="eval_count"):
            SyntheticTask(classes=4, image_size=8, eval_count=0)


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
        opt = AdamW(4, weight_decay=0.2)
        p0 = np.full(4, 3.0)
        p = p0.copy()
        opt.step(p, np.zeros(4), lr_t=0.5)
        assert np.abs(p / p0 - (1.0 - 0.5 * 0.2)).max() <= 1e-16

    def test_first_step_moves_by_lr_signs(self) -> None:
        opt = AdamW(3)
        p = np.zeros(3)
        g = np.array([1.0, -2.0, 0.5])
        opt.step(p, g, lr_t=0.1)
        # bias-corrected first Adam step is -lr * sign(g) up to eps
        assert np.abs(p + 0.1 * np.sign(g)).max() <= 1e-6

    def test_updates_in_place(self) -> None:
        opt = AdamW(1)
        arr = np.ones(1)
        opt.step(arr, np.ones(1), lr_t=0.1)
        assert arr[0] != 1.0  # the caller's array itself moved


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

    @pytest.mark.parametrize("probe", [False, True], ids=["bank", "probe"])
    def test_write_into_frozen_weight_raises_at_the_write(self, monkeypatch, probe) -> None:
        """The frozen prefix reads ``pos`` in the patch embedding: a write
        there raises, leaves the weight as it was and writeable again."""
        weights, bank, data = fresh_setup()
        before = weights["pos"].copy()
        real_embed = model.embed

        def writing_embed(cfg, values, images):
            values["pos"][0, 0] += 1.0
            return real_embed(cfg, values, images)

        monkeypatch.setattr(model, "embed", writing_embed)
        with pytest.raises(ValueError, match="read-only"):
            train(TOY, weights, None if probe else bank, data,
                  TrainConfig(lr=0.01, epochs=1, batch_size=8))
        assert np.array_equal(weights["pos"], before) and weights["pos"].flags.writeable

    def test_write_during_a_step_raises(self, monkeypatch) -> None:
        weights, bank, data = fresh_setup()

        def writing_backward(tape, out):
            weights["enc.2.ffn.w1"][0, 0] = 0.0
            raise AssertionError("the write went through")

        monkeypatch.setattr(training, "backward", writing_backward)
        with pytest.raises(ValueError, match="read-only"):
            train(TOY, weights, bank, data, TrainConfig(lr=0.01, epochs=1, batch_size=8))

    @pytest.mark.parametrize("ending", ["normal", "aborted"])
    def test_writeable_flags_during_and_after(self, monkeypatch, ending) -> None:
        """During the run every frozen array is read-only while the head and
        the bank stay writeable; afterwards each array has its flag back,
        and one the caller passed read-only is still read-only."""
        weights, bank, data = fresh_setup()
        weights["cls"].flags.writeable = False
        if ending == "aborted":
            bank.tensors["arc.mha.1.coef"][0, 0] = np.nan
        frozen = [name for name in weights if name not in model.HEAD_NAMES]
        seen = []

        def watching(real):
            def watch(*args):
                seen.append({name: arr.flags.writeable
                             for name, arr in {**weights, **bank.tensors}.items()})
                return real(*args)
            return watch

        # the prefix embeds its two chunks, and each step runs one backward
        monkeypatch.setattr(model, "embed", watching(model.embed))
        monkeypatch.setattr(training, "backward", watching(training.backward))
        cfg = TrainConfig(lr=0.01, epochs=1, batch_size=8)
        if ending == "aborted":  # the first step's loss is NaN: no backward runs
            with pytest.raises(TrainingAborted):
                train(TOY, weights, bank, data, cfg)
        else:
            train(TOY, weights, bank, data, cfg)
        assert len(seen) == {"normal": 4, "aborted": 2}[ending]
        for flags in seen:
            assert not any(flags[name] for name in frozen)
            assert all(flag for name, flag in flags.items() if name not in frozen)
        assert not weights["cls"].flags.writeable
        assert all(arr.flags.writeable for name, arr in {**weights, **bank.tensors}.items()
                   if name != "cls")

    def test_view_listed_before_its_base_is_writeable_again(self) -> None:
        """A frozen weight that views another, listed before it, gets its
        flag back: numpy turns a view writeable only while its base is."""
        weights, bank, data = fresh_setup()
        weights["enc.1.ln1.beta"] = weights["enc.1.ln2.beta"][:]
        train(TOY, weights, bank, data, TrainConfig(lr=0.01, epochs=1, batch_size=8))
        assert weights["enc.1.ln1.beta"].flags.writeable
        assert weights["enc.1.ln2.beta"].flags.writeable

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

    def test_empty_train_set_runs_no_epoch(self) -> None:
        """No image means no epoch and no step; the trainables keep their bits."""
        weights, bank, data = fresh_setup()
        data.train_images, data.train_labels = data.train_images[:0], data.train_labels[:0]
        before = {name: arr.copy() for name, arr in {**weights, **bank.tensors}.items()}
        result = train(TOY, weights, bank, data, TrainConfig(lr=0.01, epochs=3, batch_size=8))
        assert result.steps == 0
        assert all(np.array_equal(arr, before[name])
                   for name, arr in {**weights, **bank.tensors}.items())

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
        """The README demo step records 111 nodes: one linear node per
        projection, FFN layer and head, one attention node per layer and one
        arc_adapter node per adapter site. Its tape starts at layer 1's
        before_mha cut, from two constants: the patch embedding, the class
        token, the pos add and layer 1's LN1 ran once per run, so those 4
        nodes and their 6 frozen tensors and patches are not on the tape."""
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
        assert sizes == [111, 111]

    def test_readme_demo_records_once(self, monkeypatch) -> None:
        """50 steps of the README demo (32 images, batches of 8) record the
        forward once and replay it 49 times."""
        recorded, replays = [], []
        real_tokens, real_replay = model.forward_tokens, Tape.replay

        def record(ops, *args, **kwargs):
            if isinstance(ops, Tape):  # not the run's Eager frozen prefix
                recorded.append(None)
            return real_tokens(ops, *args, **kwargs)

        monkeypatch.setattr(model, "forward_tokens", record)
        monkeypatch.setattr(Tape, "replay",
                            lambda tape: replays.append(None) or real_replay(tape))
        backbone = model.BackboneConfig(image_size=8, patch_size=4, channels=1, embed_dim=16,
                                        layers=3, heads=2, classes=4)
        bank = init_adapters(ArcConfig(bottleneck=4, dropout_rate=0.1), backbone, Rng(9))
        task = SyntheticTask(classes=4, image_size=8, channels=1, train_count=32, eval_count=16)
        result = train(backbone, model.init_backbone(backbone, Rng(7)), bank,
                       make_task(task, Rng(8)),
                       TrainConfig(lr=0.01, epochs=125, batch_size=8, warmup_epochs=10, seed=3),
                       max_steps=50)
        assert result.steps == 50 and len(recorded) == 1 and len(replays) == 49

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
        sites = len(bank.sites)
        want.uniforms(batch * sites * (TOY.tokens + 1) * bank.config.bottleneck)
        assert used.generator.bit_generator.state == want.generator.bit_generator.state

    def test_bank_of_other_depth_is_config_error(self) -> None:
        weights, _, data = fresh_setup()
        shallow = model.BackboneConfig(image_size=8, patch_size=4, channels=1, embed_dim=16,
                                       layers=1, heads=2, classes=4)
        bank = init_adapters(ArcConfig(bottleneck=4), shallow, Rng(1))
        with pytest.raises(ConfigError, match="covers layers"):
            train(TOY, weights, bank, data, TrainConfig(lr=0.01, epochs=1, batch_size=8))

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


class TestRunState:
    """``train`` builds its state once per run: one dropout draw per epoch,
    one recording per batch size that every later step of that size
    replays, and one flat trainable buffer."""

    TASK = SyntheticTask(classes=4, image_size=8, channels=1, noise_sigma=0.3,
                         train_count=30, eval_count=8)
    CFG = TrainConfig(lr=0.01, epochs=3, batch_size=8, warmup_epochs=1, weight_decay=0.05,
                      seed=54)
    STEPS = 6  # batches of 8, 8, 8 and 6, then two steps of the second epoch

    def setup_run(self):
        weights = model.init_backbone(TOY, Rng(51))
        bank = init_adapters(ArcConfig(bottleneck=4, dropout_rate=0.1), TOY, Rng(52))
        return weights, bank, make_task(self.TASK, Rng(53))

    @staticmethod
    def trainables(weights, bank):
        tensors = {name: weights[name] for name in model.HEAD_NAMES}
        tensors.update(bank.tensors)
        return tensors

    # SHA-256 of the loss curve and the final trainable bytes, computed with
    # a fresh tape, a mask draw and an optimizer step per tensor every step.
    # BLAS-dependent like ``test_model.TestKnownAnswers``.
    DIGEST = "b4fdd9efc1571f69b7653058ead4746c33bed6b14707024fe10f69dc8484d1a7"

    def digest(self, result, weights, bank) -> str:
        h = hashlib.sha256(np.array([rec.loss for rec in result.curve]).tobytes())
        for name, arr in sorted(self.trainables(weights, bank).items()):
            h.update(name.encode())
            h.update(arr.tobytes())
        return h.hexdigest()

    def test_known_answer(self) -> None:
        weights, bank, data = self.setup_run()
        result = train(TOY, weights, bank, data, self.CFG, max_steps=self.STEPS)
        assert self.digest(result, weights, bank) == self.DIGEST

    # the same digest over a 50-epoch run (200 steps, each epoch ending on a
    # batch of 6), computed with a new recording at every batch-size change
    LONG_DIGEST = "481b14fe01f6ed21ab25dd47ad94d16277a08cc4e3c3bfe9c16ac28b6e5e024e"

    def spy_recordings(self, monkeypatch):
        """Lists that collect the batch size of each recording and one entry
        per replay."""
        recorded, replays = [], []
        real_tokens, real_replay = model.forward_tokens, Tape.replay

        def record(ops, cfg, v, x, *args, **kwargs):
            if isinstance(ops, Tape):  # not the run's Eager frozen prefix
                recorded.append(x.value.shape[0])
            return real_tokens(ops, cfg, v, x, *args, **kwargs)

        monkeypatch.setattr(model, "forward_tokens", record)
        monkeypatch.setattr(Tape, "replay", lambda tape: replays.append(None) or real_replay(tape))
        return recorded, replays

    def test_records_once_per_batch_size(self, monkeypatch) -> None:
        """Batches of 8, 8, 8, 6, 8 and 8 record at steps 0 and 3 and replay
        the other four, with the known-answer bits."""
        recorded, replays = self.spy_recordings(monkeypatch)
        weights, bank, data = self.setup_run()
        result = train(TOY, weights, bank, data, self.CFG, max_steps=self.STEPS)
        assert recorded == [8, 6] and len(replays) == 4
        assert self.digest(result, weights, bank) == self.DIGEST

    def test_long_run_records_twice(self, monkeypatch) -> None:
        """50 epochs of 30 images in batches of 8 record twice in 200 steps,
        with the bits of a run that records again at every size change."""
        recorded, replays = self.spy_recordings(monkeypatch)
        weights, bank, data = self.setup_run()
        result = train(TOY, weights, bank, data, dataclasses.replace(self.CFG, epochs=50))
        assert result.steps == 200 and recorded == [8, 6] and len(replays) == 198
        assert self.digest(result, weights, bank) == self.LONG_DIGEST

    def test_rng_state_matches_per_step_draws(self, monkeypatch) -> None:
        """One mask draw per epoch leaves the stream where a permutation per
        epoch and a mask draw per step leave it, for a run cut mid-epoch and
        one cut at an epoch's end (which draws no further permutation)."""
        made = []

        class RecordingRng(Rng):
            def __init__(self, seed):
                super().__init__(seed)
                made.append(self)

        monkeypatch.setattr(training, "Rng", RecordingRng)
        n, batch = self.TASK.train_count, self.CFG.batch_size

        def per_step_draws(steps, per_image):
            want, step = Rng(self.CFG.seed), 0
            while step < steps:
                want.permutation(n)
                for start in range(0, n, batch):
                    if step == steps:
                        return want
                    want.uniforms(min(batch, n - start) * per_image)
                    step += 1
            return want

        for steps in (self.STEPS, 4):
            weights, bank, data = self.setup_run()
            made.clear()
            train(TOY, weights, bank, data, self.CFG, max_steps=steps)
            (used,) = made
            per_image = (len(bank.sites) * (TOY.tokens + 1)
                         * bank.config.bottleneck)
            want = per_step_draws(steps, per_image)
            assert used.generator.bit_generator.state == want.generator.bit_generator.state, steps

    def test_abort_leaves_last_completed_step(self) -> None:
        """A non-finite loss at step 3 leaves the caller's arrays bit-equal
        to a run stopped after 3 steps."""
        weights, bank, data = self.setup_run()
        train(TOY, weights, bank, data, self.CFG, max_steps=3)
        want = {name: arr.copy() for name, arr in self.trainables(weights, bank).items()}

        weights, bank, data = self.setup_run()
        # the six images of step 3, the last batch of the first epoch
        data.train_images[Rng(self.CFG.seed).permutation(self.TASK.train_count)[24:]] = np.nan
        before = {name: arr.copy() for name, arr in self.trainables(weights, bank).items()}
        with pytest.raises(TrainingAborted) as info:
            train(TOY, weights, bank, data, self.CFG, max_steps=self.STEPS)
        assert info.value.step == 3
        got = self.trainables(weights, bank)
        assert all(np.array_equal(got[name], want[name]) for name in want)
        assert not all(np.array_equal(got[name], before[name]) for name in want)

    def test_steps_record_every_primitive(self, monkeypatch) -> None:
        """A step with a bottleneck bank and one with a full_rank bank
        record, between them, every primitive of the table, and their
        backward passes call every primitive's vjp: each vjp is wrapped to
        log its calls."""
        tapes, recorded, reached = [], set(), set()
        names = {prim: name for name, prim in PRIMITIVES.items()}
        real_backward = training.backward

        def logged(name, vjp):
            def vjp_call(*args):
                reached.add(name)
                return vjp(*args)
            return vjp_call

        def wrapping_backward(tape, out):
            tapes.append(tape)
            for node in tape._nodes:
                if node.prim is not None:
                    recorded.add(names[node.prim])
                    node.prim = node.prim._replace(vjp=logged(names[node.prim], node.prim.vjp))
            return real_backward(tape, out)

        monkeypatch.setattr(training, "backward", wrapping_backward)
        weights, _, data = self.setup_run()
        for variant in ("bottleneck", "full_rank"):
            bank = init_adapters(ArcConfig(bottleneck=4, variant=variant), TOY, Rng(52))
            train(TOY, weights, bank, data, self.CFG, max_steps=1)
        assert len(tapes) == 2
        assert recorded == reached == set(PRIMITIVES)

    def test_leaves_alias_the_optimizer_buffer(self, monkeypatch) -> None:
        """Every step's parameter leaves, on the tape of its batch size, are
        views of the buffer AdamW updates, so no leaf can be a stale copy of
        a trainable."""
        tapes, buffers = [], []
        real_backward, real_step = training.backward, AdamW.step

        def keep_tape(tape, out):
            tapes.append(tape)
            return real_backward(tape, out)

        def keep_buffer(self, flat, grad, lr_t):
            buffers.append(flat)
            leaves = [leaf.value for leaf in tapes[-1]._params.values()]
            assert all(np.shares_memory(leaf, flat) for leaf in leaves)
            real_step(self, flat, grad, lr_t)
            assert np.array_equal(np.concatenate(leaves, axis=None), flat)

        monkeypatch.setattr(training, "backward", keep_tape)
        monkeypatch.setattr(AdamW, "step", keep_buffer)
        weights, bank, data = self.setup_run()
        train(TOY, weights, bank, data, self.CFG, max_steps=self.STEPS)
        assert len(buffers) == self.STEPS and all(b is buffers[0] for b in buffers)
        full, short = tapes[0], tapes[3]  # batches of 8, 8, 8, 6, 8 and 8
        assert short is not full and tapes == [full, full, full, short, full, full]
        count = len(self.trainables(weights, bank))
        assert len(full._params) == len(short._params) == count


class TestFrozenPrefix:
    """``train`` computes what no trainable reaches once per run, and each
    step records from the forward's first node that reads a trainable."""

    DEEP = dataclasses.replace(TOY, layers=4)

    @staticmethod
    def reference(backbone, weights, bank, data, cfg) -> list[float]:
        """The run as a loop that records the whole encoder and head, from
        the embedded tokens, on a fresh tape at every step, draws each step's masks and
        takes one AdamW step per tensor; its loss curve."""
        trainable = {name: weights[name] for name in model.HEAD_NAMES}
        if bank is not None:
            trainable.update(bank.tensors)
        opts = {name: AdamW(arr.size, cfg.weight_decay) for name, arr in trainable.items()}
        rng, n = Rng(cfg.seed), len(data.train_labels)
        per_epoch = math.ceil(n / cfg.batch_size)
        total, losses = cfg.epochs * per_epoch, []
        for _ in range(cfg.epochs):
            order = rng.permutation(n)
            for first in range(0, n, cfg.batch_size):
                idx = order[first:first + cfg.batch_size]
                lr_t = cfg.lr * schedule_scale(cfg, len(losses), total,
                                               cfg.warmup_epochs * per_epoch)
                masks = dropout_masks(bank, idx.size, rng)
                tape = Tape()
                values = {name: tape.constant(arr)
                          for name, arr in weights.items() if name not in trainable}
                values.update({name: tape.parameter(name, arr) for name, arr in trainable.items()})
                x = tape.constant(model.embed(backbone, weights, data.train_images[idx]))
                logits = model.forward_tokens(tape, backbone, values, x, bank=bank, masks=masks)
                loss = tape.cross_entropy(logits, data.train_labels[idx])
                grads = backward(tape, loss)
                losses.append(float(loss.value[0, 0]))
                for name, arr in trainable.items():
                    opts[name].step(arr.reshape(-1), grads[name].reshape(-1), lr_t)
        return losses

    def setup_run(self, arc, train_count):
        weights = model.init_backbone(self.DEEP, Rng(61))
        bank = None if arc is None else init_adapters(arc, self.DEEP, Rng(62))
        task = SyntheticTask(classes=4, image_size=8, channels=1, noise_sigma=0.3,
                             train_count=train_count, eval_count=4)
        return weights, bank, make_task(task, Rng(63))

    @pytest.mark.parametrize("arc, train_count", [
        (None, 16),  # a probe: the prefix is the whole encoder and the final LayerNorm
        (ArcConfig(bottleneck=4, insertion_layers=(3,), dropout_rate=0.1), 16),
        (ArcConfig(bottleneck=4, positions=("after_mha", "after_ffn"), dropout_rate=0.1), 16),
        (ArcConfig(bottleneck=4, positions=("after_ffn",), insertion_layers=(2, 4),
                   dropout_rate=0.1), 16),
        (ArcConfig(bottleneck=4, variant="full_rank", insertion_layers=(2,)), 16),
        (ArcConfig(bottleneck=4, dropout_rate=0.1), 30),  # each epoch ends on a batch of 6
    ], ids=["probe", "layer_3", "after_mha", "after_ffn_layer_2", "full_rank_layer_2",
            "short_batch"])
    def test_bits_of_a_fresh_full_tape_per_step(self, arc, train_count) -> None:
        """The loss curve and the final trainables are those of a fresh tape
        of the whole forward at every step, bit for bit."""
        cfg = TrainConfig(lr=0.01, epochs=3, batch_size=8, warmup_epochs=1, weight_decay=0.05,
                          seed=64)
        weights, bank, data = self.setup_run(arc, train_count)
        result = train(self.DEEP, weights, bank, data, cfg)
        ref_weights, ref_bank, ref_data = self.setup_run(arc, train_count)
        losses = self.reference(self.DEEP, ref_weights, ref_bank, ref_data, cfg)
        assert len(losses) == result.steps == 3 * math.ceil(train_count / 8)
        assert np.array([rec.loss for rec in result.curve]).tobytes() == \
            np.array(losses).tobytes()
        got = TestRunState.trainables(weights, bank) if bank else weights
        want = TestRunState.trainables(ref_weights, ref_bank) if ref_bank else ref_weights
        assert all(got[name].tobytes() == want[name].tobytes() for name in want)

    def step_tape(self, monkeypatch, arc):
        """The tape of one training step, and the run's backbone tensors."""
        tapes = []
        real_backward = training.backward
        monkeypatch.setattr(training, "backward",
                            lambda tape, out: tapes.append(tape) or real_backward(tape, out))
        weights, bank, data = self.setup_run(arc, 16)
        train(self.DEEP, weights, bank, data,
              TrainConfig(lr=0.01, epochs=1, batch_size=8, seed=1), max_steps=1)
        (tape,) = tapes
        return tape, weights

    @staticmethod
    def frozen_reads(tape, weights) -> set[str]:
        """The names of the frozen tensors the tape holds as constants."""
        return {name for node in tape._nodes if node.prim is None
                for name, arr in weights.items() if node.value is arr}

    def test_probe_step_records_no_encoder_node(self, monkeypatch) -> None:
        """A probe step records the head and the loss over the class token's
        final LayerNorm, one constant; no encoder tensor is on its tape."""
        tape, weights = self.step_tape(monkeypatch, None)
        ops = [node.prim for node in tape._nodes if node.prim is not None]
        assert ops == [PRIMITIVES["linear"], PRIMITIVES["cross_entropy"]]
        assert self.frozen_reads(tape, weights) == set()
        # the head's two parameters, then the batch's (8, D) class tokens
        assert [node.value.shape for node in tape._nodes if node.prim is None] == \
            [(16, 4), (1, 4), (8, 16)]

    def test_layer_3_step_records_no_layer_1_or_2_node(self, monkeypatch) -> None:
        """With one adapter layer, 3, a step starts at layer 3's before_mha
        cut: it reads no tensor of the patch embedding or of layers 1 and 2,
        nor layer 3's LN1, and records one attention node per layer 3 and 4."""
        tape, weights = self.step_tape(monkeypatch, ArcConfig(bottleneck=4, insertion_layers=(3,)))
        want = {name for name in weights
                if name.startswith(("enc.3.", "enc.4.", "final_ln."))
                and not name.startswith("enc.3.ln1.")}
        assert self.frozen_reads(tape, weights) == want
        ops = [node.prim for node in tape._nodes if node.prim is not None]
        assert ops.count(PRIMITIVES["attention"]) == 2


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

    def test_rejects_bad_labels(self, bad_labels) -> None:
        labels, message = bad_labels
        cfg = dataclasses.replace(TOY, classes=3)
        images = Rng(3).normals((len(labels), 8, 8, 1))
        with pytest.raises(ShapeError, match=message):
            evaluate(cfg, model.init_backbone(cfg, Rng(2)), None, images, labels)


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
