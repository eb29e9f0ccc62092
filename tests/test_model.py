from __future__ import annotations

import hashlib
import re
import threading

import numpy as np
import pytest

from arclab import adapters, model, training
from arclab.autodiff import Eager, Tape, backward
from arclab.errors import ConfigError, NumericalError, ShapeError
from arclab.kernel import Rng, gelu, layernorm, softmax_rows

TOY = model.BackboneConfig(image_size=8, patch_size=4, channels=1, embed_dim=16,
                           layers=2, heads=2, classes=4)


def toy_weights(seed: int = 7):
    return model.init_backbone(TOY, Rng(seed))


def reference_forward(cfg, w, image):
    """Independent straight-line forward in plain numpy (the oracle)."""
    p, grid = cfg.patch_size, cfg.image_size // cfg.patch_size
    patches = np.zeros((cfg.tokens, cfg.patch_dim))
    for pr in range(grid):
        for pc in range(grid):
            block = image[pr * p:(pr + 1) * p, pc * p:(pc + 1) * p, :]
            patches[pr * grid + pc] = block.reshape(-1)
    x = np.vstack([w["cls"], patches @ w["patch.weight"] + w["patch.bias"]]) + w["pos"]
    for l in range(1, cfg.layers + 1):
        z = layernorm(x, w[f"enc.{l}.ln1.gamma"], w[f"enc.{l}.ln1.beta"], cfg.ln_eps)
        q = z @ w[f"enc.{l}.attn.wq"] + w[f"enc.{l}.attn.bq"]
        k = z @ w[f"enc.{l}.attn.wk"] + w[f"enc.{l}.attn.bk"]
        v = z @ w[f"enc.{l}.attn.wv"] + w[f"enc.{l}.attn.bv"]
        dh = cfg.head_dim
        heads = []
        for h in range(cfg.heads):
            qh, kh, vh = (m[:, h * dh:(h + 1) * dh] for m in (q, k, v))
            heads.append(softmax_rows(qh @ kh.T / np.sqrt(dh)) @ vh)
        x = x + (np.hstack(heads) @ w[f"enc.{l}.attn.wo"] + w[f"enc.{l}.attn.bo"])
        z = layernorm(x, w[f"enc.{l}.ln2.gamma"], w[f"enc.{l}.ln2.beta"], cfg.ln_eps)
        x = x + (gelu(z @ w[f"enc.{l}.ffn.w1"] + w[f"enc.{l}.ffn.b1"]) @ w[f"enc.{l}.ffn.w2"]
                 + w[f"enc.{l}.ffn.b2"])
    cls = layernorm(x[0:1], w["final_ln.gamma"], w["final_ln.beta"], cfg.ln_eps)
    return cls @ w["head.weight"] + w["head.bias"]


class TestBackboneConfig:
    def test_tokens(self) -> None:
        assert TOY.tokens == 4
        assert TOY.head_dim == 8
        assert TOY.hidden_dim == 64

    @pytest.mark.parametrize(
        "kwargs",
        [dict(image_size=9), dict(embed_dim=15), dict(heads=0), dict(patch_size=3),
         dict(layers=-1), dict(ln_eps=0.0)],
    )
    def test_invalid_configs(self, kwargs) -> None:
        base = dict(image_size=8, patch_size=4, channels=1, embed_dim=16,
                    layers=2, heads=2, classes=4)
        base.update(kwargs)
        with pytest.raises(ConfigError):
            model.BackboneConfig(**base)

    def test_zero_layers_allowed(self) -> None:
        cfg = model.BackboneConfig(image_size=8, patch_size=4, channels=1, embed_dim=16,
                                   layers=0, heads=2, classes=4)
        assert cfg.layers == 0


class TestPatchEmbed:
    def test_zero_everything_leaves_pos(self) -> None:
        w = {name: np.zeros(shape) for name, shape in model.weight_shapes(TOY).items()}
        w["pos"] = Rng(3).normals(w["pos"].shape)
        out = model.patch_embed(Eager(), TOY, w, np.zeros((1, TOY.tokens, TOY.patch_dim)))
        assert np.array_equal(out[0], w["pos"])

    def test_token_count(self) -> None:
        img = Rng(4).normals((1, 8, 8, 1))
        patches = model.extract_patches(img, TOY)
        assert patches.shape == (1, 4, 16)
        out = model.patch_embed(Eager(), TOY, toy_weights(), patches)
        assert out.shape == (1, 5, 16)

    def test_patch_extraction_against_loop_oracle(self) -> None:
        img = Rng(5).normals((1, 8, 8, 1))
        patches = model.extract_patches(img, TOY)[0]
        p, grid = TOY.patch_size, 2
        for pr in range(grid):
            for pc in range(grid):
                block = img[0, pr * p:(pr + 1) * p, pc * p:(pc + 1) * p, :]
                assert np.array_equal(patches[pr * grid + pc], block.reshape(-1))

    def test_wrong_image_shape(self) -> None:
        with pytest.raises(ShapeError):
            model.extract_patches(np.zeros((1, 8, 8, 2)), TOY)


class TestMha:
    def test_single_token_softmax_is_identity(self) -> None:
        cfg = model.BackboneConfig(image_size=4, patch_size=4, channels=1, embed_dim=16,
                                   layers=1, heads=2, classes=2)
        w = model.init_backbone(cfg, Rng(8))
        r = Rng(9)
        w["enc.1.attn.bv"] = r.normals((1, 16))
        w["enc.1.attn.bo"] = r.normals((1, 16))
        x = r.normals((1, 1, 16))
        out = model.mha(Eager(), cfg, w, x, 1)
        v = x @ w["enc.1.attn.wv"] + w["enc.1.attn.bv"]
        want = v @ w["enc.1.attn.wo"] + w["enc.1.attn.bo"]
        assert np.abs(out - want).max() <= 1e-14

    def test_zero_values_leave_bias_terms(self) -> None:
        w = toy_weights()
        w["enc.1.attn.wv"] = np.zeros_like(w["enc.1.attn.wv"])
        w["enc.1.attn.bv"] = np.zeros_like(w["enc.1.attn.bv"])
        bo = Rng(10).normals((1, 16))
        w["enc.1.attn.bo"] = bo
        x = Rng(11).normals((1, 5, 16))
        out = model.mha(Eager(), TOY, w, x, 1)
        assert np.abs(out - bo).max() <= 1e-15

    def test_against_per_head_oracle(self) -> None:
        cfg = model.BackboneConfig(image_size=4, patch_size=2, channels=1, embed_dim=6,
                                   layers=1, heads=2, classes=2)
        w = model.init_backbone(cfg, Rng(12))
        r = Rng(13)
        for name in ("wq", "wk", "wv", "wo"):
            w[f"enc.1.attn.{name}"] = r.normals((6, 6))
        for name in ("bq", "bk", "bv", "bo"):
            w[f"enc.1.attn.{name}"] = r.normals((1, 6))
        x = r.normals((2, 6))
        out = model.mha(Eager(), cfg, w, x[None], 1)[0]
        q = x @ w["enc.1.attn.wq"] + w["enc.1.attn.bq"]
        k = x @ w["enc.1.attn.wk"] + w["enc.1.attn.bk"]
        v = x @ w["enc.1.attn.wv"] + w["enc.1.attn.bv"]
        heads = []
        for h in range(2):
            qh, kh, vh = q[:, h * 3:(h + 1) * 3], k[:, h * 3:(h + 1) * 3], v[:, h * 3:(h + 1) * 3]
            scores = qh @ kh.T / np.sqrt(3.0)
            attn = np.exp(scores - scores.max(axis=1, keepdims=True))
            attn /= attn.sum(axis=1, keepdims=True)
            heads.append(attn @ vh)
        want = np.hstack(heads) @ w["enc.1.attn.wo"] + w["enc.1.attn.bo"]
        assert np.abs(out - want).max() <= 1e-12


class TestFfn:
    def test_zero_input_zero_bias(self) -> None:
        w = toy_weights()
        out = model.ffn(Eager(), TOY, w, np.zeros((1, 5, 16)), 1)
        assert np.array_equal(out, np.zeros((1, 5, 16)))

    def test_bias_only(self) -> None:
        w = toy_weights()
        r = Rng(14)
        w["enc.1.ffn.b1"] = r.normals((1, TOY.hidden_dim))
        w["enc.1.ffn.b2"] = r.normals((1, 16))
        out = model.ffn(Eager(), TOY, w, np.zeros((1, 3, 16)), 1)
        want = gelu(w["enc.1.ffn.b1"]) @ w["enc.1.ffn.w2"] + w["enc.1.ffn.b2"]
        assert np.abs(out - np.repeat(want, 3, axis=0)).max() <= 1e-15

    def test_against_kernel_composition(self) -> None:
        w = toy_weights()
        x = Rng(15).normals((1, 5, 16))
        out = model.ffn(Eager(), TOY, w, x, 2)
        want = gelu(x @ w["enc.2.ffn.w1"] + w["enc.2.ffn.b1"]) @ w["enc.2.ffn.w2"] \
            + w["enc.2.ffn.b2"]
        assert np.abs(out - want).max() <= 1e-15


class TestForward:
    def test_matches_independent_reference(self) -> None:
        w = toy_weights()
        img = Rng(16).normals((1, 8, 8, 1))
        got = model.forward(Eager(), TOY, w, img)
        want = reference_forward(TOY, w, img[0])
        assert got.shape == (1, 4)
        assert np.abs(got - want).max() <= 1e-12

    def test_tape_forward_bitwise_equals_eager(self) -> None:
        w = toy_weights()
        img = Rng(17).normals((1, 8, 8, 1))
        plain = model.forward(Eager(), TOY, w, img)
        tape = Tape()
        values = {n: tape.constant(a) for n, a in w.items()}
        recorded = model.forward(tape, TOY, values, img)
        assert np.array_equal(recorded.value, plain)

    def test_zero_layer_config(self) -> None:
        cfg = model.BackboneConfig(image_size=8, patch_size=4, channels=1, embed_dim=16,
                                   layers=0, heads=2, classes=3)
        w = model.init_backbone(cfg, Rng(18))
        img = Rng(19).normals((1, 8, 8, 1))
        got = model.forward(Eager(), cfg, w, img)
        x_emb = model.patch_embed(Eager(), cfg, w, model.extract_patches(img, cfg))
        cls = layernorm(x_emb[:, 0], w["final_ln.gamma"], w["final_ln.beta"], cfg.ln_eps)
        assert np.array_equal(got, cls @ w["head.weight"] + w["head.bias"])

    def test_zero_blocks_preserve_residual_stream(self) -> None:
        w = toy_weights()
        for name in list(w):
            if ".attn." in name or ".ffn." in name:
                w[name] = np.zeros_like(w[name])
        img = Rng(20).normals((1, 8, 8, 1))
        got = model.forward(Eager(), TOY, w, img)
        x_emb = model.patch_embed(Eager(), TOY, w, model.extract_patches(img, TOY))
        cls = layernorm(x_emb[:, 0], w["final_ln.gamma"], w["final_ln.beta"], TOY.ln_eps)
        want = cls @ w["head.weight"] + w["head.bias"]
        assert np.array_equal(got, want)

    def test_patch_permutation_with_pos_rows_preserves_logits(self) -> None:
        w = toy_weights()
        img = Rng(21).normals((1, 8, 8, 1))
        base = model.forward(Eager(), TOY, w, img)

        perm = np.array([2, 0, 3, 1])
        patches = model.extract_patches(img, TOY)[0]
        # rebuild an image whose patch sequence is the permuted one
        p, grid = TOY.patch_size, 2
        img2 = np.zeros_like(img)
        for slot, src in enumerate(perm):
            pr, pc = divmod(slot, grid)
            img2[0, pr * p:(pr + 1) * p, pc * p:(pc + 1) * p, :] = \
                patches[src].reshape(p, p, TOY.channels)
        w2 = dict(w)
        w2["pos"] = np.vstack([w["pos"][0:1], w["pos"][1:][perm]])
        permuted = model.forward(Eager(), TOY, w2, img2)
        assert np.abs(permuted - base).max() <= 1e-12

    def test_identity_adapters_change_nothing(self) -> None:
        w = toy_weights()
        img = Rng(22).normals((1, 8, 8, 1))
        plain = model.forward(Eager(), TOY, w, img)
        acfg = adapters.ArcConfig(bottleneck=4)
        bank = adapters.init_adapters(acfg, TOY, Rng(23))
        values = dict(w)
        values.update(bank.tensors)
        adapted = model.forward(Eager(), TOY, values, img, bank=bank)
        assert np.array_equal(adapted, plain)


class TestBatchedContract:
    """A batch is B independent images: rows and gradients match batches of one."""

    ARC = adapters.ArcConfig(bottleneck=4, positions=adapters.SITES, dropout_rate=0.0)

    BANK = adapters.init_adapters(ARC, TOY, Rng(24))

    def _adapted_values(self, weights):
        r = Rng(25)
        return {n: r.normals(a.shape, 0.3) for n, a in self.BANK.tensors.items()}

    @pytest.mark.parametrize("with_bank", [False, True])
    def test_rows_match_batch_of_one(self, with_bank) -> None:
        values = toy_weights()
        bank = None
        if with_bank:
            values.update(self._adapted_values(values))
            bank = self.BANK
        images = Rng(26).normals((5, 8, 8, 1))
        batch = model.forward(Eager(), TOY, values, images, bank=bank)
        assert batch.shape == (5, TOY.classes)
        for i in range(5):
            one = model.forward(Eager(), TOY, values, images[i:i + 1], bank=bank)
            assert np.abs(batch[i] - one[0]).max() <= 1e-12

    def test_batch_mean_gradient_is_mean_of_per_image_gradients(self) -> None:
        weights = toy_weights()
        live = self._adapted_values(weights)
        images = Rng(27).normals((4, 8, 8, 1))
        labels = np.array([0, 3, 1, 2])

        def grads(imgs, labs):
            tape = Tape()
            vals = {n: tape.parameter(n, a) if n in model.HEAD_NAMES else tape.constant(a)
                    for n, a in weights.items()}
            vals.update({n: tape.parameter(n, a) for n, a in live.items()})
            logits = model.forward(tape, TOY, vals, imgs, bank=self.BANK)
            return backward(tape, tape.cross_entropy(logits, labs))

        whole = grads(images, labels)
        per_image = [grads(images[i:i + 1], labels[i:i + 1]) for i in range(4)]
        assert set(whole) == set(live) | set(model.HEAD_NAMES)
        for name, g in whole.items():
            mean = sum(p[name] for p in per_image) / 4
            assert np.abs(g - mean).max() <= 1e-12, name


    def test_frozen_backbone_leaves_trainable_gradients_bit_equal(self) -> None:
        """Skipping the gradients of frozen weights changes no gradient that is read."""
        weights = toy_weights()
        live = self._adapted_values(weights)
        images = Rng(28).normals((3, 8, 8, 1))

        def grads(backbone_trainable: bool):
            tape = Tape()
            vals = {n: tape.parameter(n, a) if backbone_trainable or n in model.HEAD_NAMES
                    else tape.constant(a) for n, a in weights.items()}
            vals.update({n: tape.parameter(n, a) for n, a in live.items()})
            logits = model.forward(tape, TOY, vals, images, bank=self.BANK)
            return backward(tape, tape.cross_entropy(logits, np.array([2, 0, 1])))

        frozen, full = grads(False), grads(True)
        assert set(frozen) == set(live) | set(model.HEAD_NAMES)
        for name, g in frozen.items():
            assert np.array_equal(g, full[name]), name


class TestBankDepth:
    """A bank runs only on a backbone of the depth it was built for."""

    @pytest.mark.parametrize("ops", [Eager, Tape])
    @pytest.mark.parametrize("built_layers", [1, 3], ids=["shallower", "deeper"])
    def test_other_depth_is_config_error(self, ops, built_layers) -> None:
        other = model.BackboneConfig(image_size=8, patch_size=4, channels=1, embed_dim=16,
                                     layers=built_layers, heads=2, classes=4)
        bank = adapters.init_adapters(adapters.ArcConfig(bottleneck=4), other, Rng(1))
        values = toy_weights()
        values.update(bank.tensors)
        backend = ops()
        if isinstance(backend, Tape):
            values = {name: backend.constant(arr) for name, arr in values.items()}
        with pytest.raises(ConfigError, match=re.escape(f"covers layers {bank.layers}")):
            model.forward(backend, TOY, values, Rng(2).normals((1, 8, 8, 1)), bank=bank)


class TestEagerLogits:
    """The eval-mode forward as two concurrent half-batch forwards."""

    ARC = adapters.ArcConfig(bottleneck=4, positions=adapters.SITES, dropout_rate=0.0)
    BANK = adapters.init_adapters(ARC, TOY, Rng(51))

    def _setup(self, with_bank: bool):
        values = toy_weights()
        if not with_bank:
            return values, None
        r = Rng(52)
        values.update({n: r.normals(a.shape, 0.3) for n, a in self.BANK.tensors.items()})
        return values, self.BANK

    @pytest.mark.parametrize("with_bank", [False, True], ids=["plain", "bank"])
    @pytest.mark.parametrize("batch", [1, 2, 5, 32])
    def test_equals_concatenated_halves(self, batch, with_bank) -> None:
        values, bank = self._setup(with_bank)
        images = Rng(53).normals((batch, 8, 8, 1))
        got = model.eager_logits(TOY, values, images, bank=bank)
        half = (batch + 1) // 2
        parts = [model.forward(Eager(), TOY, values, part, bank=bank)
                 for part in (images[:half], images[half:]) if len(part)]
        assert np.array_equal(got, np.concatenate(parts))
        whole = model.forward(Eager(), TOY, values, images, bank=bank)
        np.testing.assert_allclose(got, whole, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("batch, halves", [(1, [1]), (2, [1, 1]), (5, [3, 2])])
    def test_second_half_runs_on_a_worker_thread(self, monkeypatch, batch, halves) -> None:
        """Each half goes through ``model.forward``; the first ceil(B/2)
        images on the calling thread, the rest on another one."""
        calls = []
        real = model.forward

        def forward(ops, cfg, values, images, bank=None):
            calls.append((threading.get_ident(), len(images)))
            return real(ops, cfg, values, images, bank)

        monkeypatch.setattr(model, "forward", forward)
        model.eager_logits(TOY, toy_weights(), Rng(54).normals((batch, 8, 8, 1)))
        sizes = dict(calls)  # thread -> images it ran
        assert len(sizes) == len(calls) == len(halves)
        assert sizes.pop(threading.get_ident()) == halves[0]
        assert list(sizes.values()) == halves[1:]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_caller_errstate_holds_in_both_halves(self) -> None:
        """Squares of 1e200 overflow in the layernorm of every image; the
        caller's errstate silences that on the worker thread too."""
        images = np.full((4, 8, 8, 1), 1e200)
        with np.errstate(all="ignore"):
            got = model.eager_logits(TOY, toy_weights(), images)
        assert got.shape == (4, TOY.classes)
        with pytest.raises(RuntimeWarning):
            model.forward(Eager(), TOY, toy_weights(), images[2:])

    def test_other_depth_raises_once_and_leaves_no_thread(self) -> None:
        other = model.BackboneConfig(image_size=8, patch_size=4, channels=1, embed_dim=16,
                                     layers=3, heads=2, classes=4)
        bank = adapters.init_adapters(adapters.ArcConfig(bottleneck=4), other, Rng(1))
        values = toy_weights()
        values.update(bank.tensors)
        before = threading.active_count()
        with pytest.raises(ConfigError, match=re.escape(f"covers layers {bank.layers}")):
            model.eager_logits(TOY, values, Rng(2).normals((4, 8, 8, 1)), bank=bank)
        assert threading.active_count() == before

    @pytest.mark.parametrize("failing", ["caller", "worker"])
    def test_error_in_either_half_reaches_caller(self, monkeypatch, failing) -> None:
        caller = threading.get_ident()
        real = model.forward

        def forward(*args, **kwargs):
            if (threading.get_ident() == caller) == (failing == "caller"):
                raise NumericalError(f"{failing} half failed")
            return real(*args, **kwargs)

        monkeypatch.setattr(model, "forward", forward)
        before = threading.active_count()
        with pytest.raises(NumericalError, match=f"{failing} half failed"):
            model.eager_logits(TOY, toy_weights(), Rng(2).normals((4, 8, 8, 1)))
        assert threading.active_count() == before


def _sha256(a) -> str:
    return hashlib.sha256(np.ascontiguousarray(a, dtype="<f8").tobytes()).hexdigest()


class TestKnownAnswers:
    """SHA-256 digests of the float64 bytes of Eager logits and of a short
    loss curve. They pin the forward and backward to the exact values of
    the unfused add(matmul(x, W), b) formulation; the digests hold for
    numpy's bundled OpenBLAS on x86-64, and another BLAS may round
    differently."""

    CFG = model.BackboneConfig(image_size=8, patch_size=2, channels=3, embed_dim=32,
                               layers=2, heads=4, classes=5)

    @pytest.mark.parametrize("arc, digest", [
        (None, "0312bff36d12903ff7a20e9032e3673cbf7deafd16824dfcdaa6554a5b616e07"),
        (adapters.ArcConfig(bottleneck=6, positions=adapters.SITES, dropout_rate=0.0),
         "a2df02a125b605eb0572b07ea5a2edcb4109f29aaf66db6253b482c44a8171ce"),
        (adapters.ArcConfig(variant="full_rank", positions=adapters.SITES),
         "c9a5428f2945a1d95608c1ed9a314c7c770959c3059f392a67fded37257eb217"),
    ], ids=["plain", "bottleneck", "full_rank"])
    def test_eager_logits(self, arc, digest) -> None:
        values = model.init_backbone(self.CFG, Rng(31))
        bank = None
        if arc is not None:
            bank = adapters.init_adapters(arc, self.CFG, Rng(32))
            r = Rng(33)
            values.update({n: r.normals(a.shape, 0.3) for n, a in bank.tensors.items()})
        images = Rng(34).normals((6, 8, 8, 3))
        assert _sha256(model.forward(Eager(), self.CFG, values, images, bank=bank)) == digest

    def test_loss_curve(self) -> None:
        task = training.SyntheticTask(classes=5, image_size=8, channels=3, noise_sigma=0.5,
                                      train_count=20, eval_count=5)
        weights = model.init_backbone(self.CFG, Rng(41))
        bank = adapters.init_adapters(adapters.ArcConfig(bottleneck=6, dropout_rate=0.1),
                                      self.CFG, Rng(42))
        data = training.make_task(task, Rng(43))
        cfg = training.TrainConfig(lr=0.01, epochs=5, batch_size=4, warmup_epochs=1, seed=44)
        result = training.train(self.CFG, weights, bank, data, cfg, max_steps=5)
        assert _sha256([rec.loss for rec in result.curve]) == (
            "8b25851b0066ba308c07d733bd7aec803eb749b69f9e2e116d4b1fb0207a9ec9")

    def test_deploy_shaped_backbone(self) -> None:
        """The bench's deploy backbone: 76 weight matrices, about 2.4M
        normals drawn in one fixed order. No BLAS is involved."""
        cfg = model.BackboneConfig(image_size=32, patch_size=8, channels=1, embed_dim=128,
                                   layers=12, heads=4, classes=10)
        assert model.checksum(model.init_backbone(cfg, Rng(0))) == (
            "5332ee5e933f70a1d01ca6f37f2033733e2b102bfc744b1b672592afb2843ae9")


class TestWeights:
    def test_validate_accepts_init(self) -> None:
        model.validate_weights(TOY, toy_weights())

    def test_validate_rejects_missing_and_wrong_shape(self) -> None:
        w = toy_weights()
        del w["cls"]
        with pytest.raises(ShapeError, match="cls"):
            model.validate_weights(TOY, w)
        w = toy_weights()
        w["pos"] = np.zeros((2, 2))
        with pytest.raises(ShapeError, match="pos"):
            model.validate_weights(TOY, w)

    def test_checksum_sensitive_to_single_bit(self) -> None:
        w = toy_weights()
        before = model.frozen_checksum(w)
        w["enc.1.ffn.w1"][0, 0] = np.nextafter(w["enc.1.ffn.w1"][0, 0], 1.0)
        assert model.frozen_checksum(w) != before

    def test_frozen_checksum_ignores_head(self) -> None:
        w = toy_weights()
        before = model.frozen_checksum(w)
        w["head.weight"] += 1.0
        assert model.frozen_checksum(w) == before
        assert model.checksum(w) != before
