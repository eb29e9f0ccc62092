from __future__ import annotations

import hashlib
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from arclab import adapters, model, reparam, training
from arclab.autodiff import Eager, Tape, backward
from arclab.errors import ConfigError, NumericalError, ShapeError
from arclab.kernel import Rng, gelu_parts, layernorm_parts, softmax_rows

TOY = model.BackboneConfig(image_size=8, patch_size=4, channels=1, embed_dim=16,
                           layers=2, heads=2, classes=4)
# the bench's deploy backbone
DEPLOY = model.BackboneConfig(image_size=32, patch_size=8, channels=1, embed_dim=128,
                              layers=12, heads=4, classes=10)


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
        z = layernorm_parts(x, w[f"enc.{l}.ln1.gamma"], w[f"enc.{l}.ln1.beta"], cfg.ln_eps)[0]
        q = z @ w[f"enc.{l}.attn.wq"] + w[f"enc.{l}.attn.bq"]
        k = z @ w[f"enc.{l}.attn.wk"] + w[f"enc.{l}.attn.bk"]
        v = z @ w[f"enc.{l}.attn.wv"] + w[f"enc.{l}.attn.bv"]
        dh = cfg.head_dim
        heads = []
        for h in range(cfg.heads):
            qh, kh, vh = (m[:, h * dh:(h + 1) * dh] for m in (q, k, v))
            heads.append(softmax_rows(qh @ kh.T / np.sqrt(dh)) @ vh)
        x = x + (np.hstack(heads) @ w[f"enc.{l}.attn.wo"] + w[f"enc.{l}.attn.bo"])
        z = layernorm_parts(x, w[f"enc.{l}.ln2.gamma"], w[f"enc.{l}.ln2.beta"], cfg.ln_eps)[0]
        hidden = gelu_parts(z @ w[f"enc.{l}.ffn.w1"] + w[f"enc.{l}.ffn.b1"])[0]
        x = x + (hidden @ w[f"enc.{l}.ffn.w2"] + w[f"enc.{l}.ffn.b2"])
    cls = layernorm_parts(x[0:1], w["final_ln.gamma"], w["final_ln.beta"], cfg.ln_eps)[0]
    return cls @ w["head.weight"] + w["head.bias"]


class TestBackboneConfig:
    def test_tokens(self) -> None:
        assert TOY.tokens == 4
        assert TOY.head_dim == 8
        assert TOY.hidden_dim == 64

    @pytest.mark.parametrize(
        "kwargs",
        [dict(image_size=9), dict(embed_dim=15), dict(heads=0), dict(patch_size=3),
         dict(layers=-1), dict(ln_eps=0.0), dict(layers=0)],
    )
    def test_invalid_configs(self, kwargs) -> None:
        base = dict(image_size=8, patch_size=4, channels=1, embed_dim=16,
                    layers=2, heads=2, classes=4)
        base.update(kwargs)
        with pytest.raises(ConfigError):
            model.BackboneConfig(**base)


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
        want = gelu_parts(w["enc.1.ffn.b1"])[0] @ w["enc.1.ffn.w2"] + w["enc.1.ffn.b2"]
        assert np.abs(out - np.repeat(want, 3, axis=0)).max() <= 1e-15

    def test_against_kernel_composition(self) -> None:
        w = toy_weights()
        x = Rng(15).normals((1, 5, 16))
        out = model.ffn(Eager(), TOY, w, x, 2)
        want = gelu_parts(x @ w["enc.2.ffn.w1"] + w["enc.2.ffn.b1"])[0] @ w["enc.2.ffn.w2"] \
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

    def test_zero_blocks_preserve_residual_stream(self) -> None:
        w = toy_weights()
        for name in list(w):
            if ".attn." in name or ".ffn." in name:
                w[name] = np.zeros_like(w[name])
        img = Rng(20).normals((1, 8, 8, 1))
        got = model.forward(Eager(), TOY, w, img)
        x_emb = model.patch_embed(Eager(), TOY, w, model.extract_patches(img, TOY))
        cls = layernorm_parts(x_emb[:, 0], w["final_ln.gamma"], w["final_ln.beta"], TOY.ln_eps)[0]
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

    def _setup(self, with_bank: bool, cfg=TOY):
        values = model.init_backbone(cfg, Rng(7))
        if not with_bank:
            return values, None
        r = Rng(52)
        perturbed = {n: r.normals(shape, 0.3)
                     for n, shape in adapters.adapter_shapes(self.ARC, cfg).items()}
        values.update(perturbed)
        return values, adapters.AdapterBank(self.ARC, cfg, perturbed)

    @pytest.mark.parametrize("with_bank", [False, True], ids=["plain", "bank"])
    @pytest.mark.parametrize("cfg, batch", [(TOY, 1), (TOY, 2), (TOY, 5), (TOY, 32),
                                            (DEPLOY, 5), (DEPLOY, 33)],
                             ids=["1", "2", "5", "32", "deploy-5", "deploy-33"])
    def test_equals_concatenated_halves(self, cfg, batch, with_bank) -> None:
        """The halves are the result, bit for bit. A whole-batch forward can
        differ in the last place: at the deploy shape with B=5 or 33 the
        halves' GEMMs have other row counts, and rows can round otherwise."""
        values, bank = self._setup(with_bank, cfg)
        images = Rng(53).normals((batch, cfg.image_size, cfg.image_size, cfg.channels))
        got = model.eager_logits(cfg, values, images, bank=bank)
        half = (batch + 1) // 2
        parts = [model.forward(Eager(), cfg, values, part, bank=bank)
                 for part in (images[:half], images[half:]) if len(part)]
        assert np.array_equal(got, np.concatenate(parts))
        whole = model.forward(Eager(), cfg, values, images, bank=bank)
        np.testing.assert_allclose(got, whole, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("with_bank", [False, True], ids=["plain", "bank"])
    def test_inputs_unchanged(self, with_bank) -> None:
        """Eager's GELU writes into its operand, the fc1 output that only
        ``model.ffn`` holds: no weight, bank tensor or image changes."""
        values, bank = self._setup(with_bank)
        images = Rng(56).normals((5, 8, 8, 1), 30.0)
        inputs = {**values, **(bank.tensors if bank else {}), "images": images}
        before = {name: a.tobytes() for name, a in inputs.items()}
        model.forward(Eager(), TOY, values, images, bank=bank)
        model.eager_logits(TOY, values, images, bank=bank)
        assert {name: a.tobytes() for name, a in inputs.items()} == before

    @pytest.mark.parametrize("batch, halves", [(1, [1]), (2, [1, 1]), (5, [3, 2])])
    def test_second_half_runs_on_a_worker_thread(self, monkeypatch, pin_cpus, batch,
                                                 halves) -> None:
        """Each half goes through ``model.forward``; the first ceil(B/2)
        images on the calling thread, the rest on another one."""
        pin_cpus(2)
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

    def test_one_cpu_runs_both_halves_inline(self, monkeypatch, pin_cpus) -> None:
        """On one CPU the same two halves run on the calling thread, in
        turn, and no thread starts; the logits are the two-CPU logits."""
        values, bank = self._setup(with_bank=True)
        images = Rng(55).normals((5, 8, 8, 1))
        pin_cpus(2)
        want = model.eager_logits(TOY, values, images, bank=bank)
        pin_cpus(1)
        calls, started = [], []
        real = model.forward

        def forward(ops, cfg, values, images, bank=None):
            calls.append((threading.get_ident(), len(images)))
            return real(ops, cfg, values, images, bank)

        monkeypatch.setattr(model, "forward", forward)
        monkeypatch.setattr(threading.Thread, "start", lambda thread: started.append(thread))
        got = model.eager_logits(TOY, values, images, bank=bank)
        assert got.tobytes() == want.tobytes()
        assert calls == [(threading.get_ident(), 3), (threading.get_ident(), 2)]
        assert started == []

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_caller_errstate_holds_in_both_halves(self, pin_cpus) -> None:
        """Squares of 1e200 overflow in the layernorm of every image; the
        caller's errstate silences that on the worker thread too."""
        pin_cpus(2)
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
    def test_error_in_either_half_reaches_caller(self, monkeypatch, pin_cpus, failing) -> None:
        pin_cpus(2)
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


class TestForwardMemory:
    """The peak of one Eager forward with a bank at both default sites of
    every layer, above the traced memory at its start, as ``tracemalloc``
    sees numpy's arrays: the forward's own activations and scratch. Each
    bound is about 2% above the peak measured when it was set; a forward
    that kept each block's intermediates to the end of its layer, erf's
    three block buffers and an out-of-place softmax read 3.66 and
    11.5 MiB."""

    @staticmethod
    def peak(cfg, images: int, bottleneck: int) -> int:
        rng = Rng(0)
        values = model.init_backbone(cfg, rng)
        bank = adapters.init_adapters(adapters.ArcConfig(bottleneck=bottleneck), cfg, rng)
        values.update(bank.tensors)
        x = rng.normals((images, cfg.image_size, cfg.image_size, cfg.channels))
        model.forward(Eager(), cfg, values, x, bank)  # warm-up
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            model.forward(Eager(), cfg, values, x, bank)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        if sys.version_info < (3, 11):
            # 3.10 keeps a call's arguments on the caller's stack until the
            # call returns, so the patch embedding lives through the encoder
            peak -= images * (cfg.tokens + 1) * cfg.embed_dim * 8
        return peak

    def test_deploy_width(self) -> None:
        """16 images on the bench's D=128, L=12 backbone. The peak is in a
        GELU: the stream, the FFN's input, the fc1 output, a block of cdf
        and erf's two block buffers, 2.35 MiB."""
        cfg = model.BackboneConfig(image_size=32, patch_size=8, channels=1, embed_dim=128,
                                   layers=12, heads=4, classes=10)
        assert self.peak(cfg, 16, 50) <= 2.4 * 2**20

    def test_197_tokens(self) -> None:
        """2 images of 197 tokens, D=64 in 8 heads. The peak is in
        attention, whose 4.74 MiB of scores the softmax overwrites: 6.09 MiB
        in all, where a softmax into a fresh array adds another 4.74 MiB."""
        cfg = model.BackboneConfig(image_size=28, patch_size=2, channels=1, embed_dim=64,
                                   layers=2, heads=8, classes=10)
        assert cfg.tokens + 1 == 197
        assert self.peak(cfg, 2, 16) <= 6.2 * 2**20


class TestKnownAnswers:
    """SHA-256 digests of the float64 bytes of Eager logits and of a short
    loss curve. They pin the forward and backward to the exact values of
    the unfused add(matmul(x, W), b) formulation; the digests hold for
    numpy's bundled OpenBLAS on x86-64, and another BLAS may round
    differently."""

    CFG = model.BackboneConfig(image_size=8, patch_size=2, channels=3, embed_dim=32,
                               layers=2, heads=4, classes=5)

    @pytest.mark.parametrize("arc, digest", [
        (None, "fc80e8628fbe549232f6899bb474f6ce466fbc343c19ac45ea53324815335f1f"),
        (adapters.ArcConfig(bottleneck=6, positions=adapters.SITES, dropout_rate=0.0),
         "f0a9e43db6a6f9e5bd91ddb7f96b40b8b2fa21b94ed582f83587dcc2575a5080"),
        (adapters.ArcConfig(variant="full_rank", positions=adapters.SITES),
         "619612aec328c276d066b1a587f5519f20ee9dedf55fac653b835ed8f81ed83b"),
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
            "40c977089d588ce589cc9d3d3e7cc011f83c989a91dc791b75ad17caae4471c3")

    def test_deploy_shaped_eager_logits(self) -> None:
        """The bench's deploy shape through ``eager_logits``: 32 images as two
        halves of 16, with a default bottleneck-50 bank whose coefficients
        and biases are drawn; and the deviation ``verify_fusion`` reads over
        that bank's fold, as its float's hex."""
        weights = model.init_backbone(DEPLOY, Rng(61))
        bank = adapters.init_adapters(adapters.ArcConfig(), DEPLOY, Rng(62))
        r = Rng(63)
        for name, arr in bank.tensors.items():
            scale = {"coef": 0.1, "bias": 0.01}.get(name.rsplit(".", 1)[-1])
            if scale is not None:
                arr[...] = r.normals(arr.shape, scale)
        images = Rng(64).normals((32, DEPLOY.image_size, DEPLOY.image_size, DEPLOY.channels))
        assert _sha256(model.eager_logits(DEPLOY, weights, images, bank=bank)) == (
            "830c0695824d72bfedf3d161ba65b72bd211c9c73cac9528c11cea1597f36cce")
        deviation = reparam.verify_fusion(
            DEPLOY, lambda: (weights, bank), lambda: reparam.fuse(weights, bank, DEPLOY).tensors,
            trials=32, rng=Rng(65))
        assert deviation.hex() == "0x1.6000000000000p-50"

    def test_deploy_shaped_backbone(self) -> None:
        """The bench's deploy backbone: 76 weight matrices, about 2.4M
        normals drawn in one fixed order. No BLAS is involved."""
        cfg = model.BackboneConfig(image_size=32, patch_size=8, channels=1, embed_dim=128,
                                   layers=12, heads=4, classes=10)
        assert model.checksum(model.init_backbone(cfg, Rng(0))) == (
            "05c09096e2b7af8a332bad6dbf929451f49f2152db6cfea2facff0d3e07b27bc")


class TestWeights:
    def test_init_is_one_draw_per_weight_in_turn(self) -> None:
        """The one-buffer draw equals the per-matrix loop, tensor by tensor,
        and leaves the state that loop leaves."""
        drawn, rng = Rng(7), Rng(7)
        weights = model.init_backbone(TOY, drawn)
        assert list(weights) == list(model.weight_shapes(TOY))
        for name, shape in model.weight_shapes(TOY).items():
            leaf = name.rsplit(".", 1)[-1]
            if leaf == "gamma":
                want = np.ones(shape)
            elif leaf.startswith("b"):
                want = np.zeros(shape)
            else:
                want = rng.normals(shape, 0.02)
            assert weights[name].shape == shape, name
            assert weights[name].tobytes() == want.tobytes(), name
        assert drawn.generator.bit_generator.state == rng.generator.bit_generator.state

    def test_validate_accepts_init(self) -> None:
        adapters.check_shapes(model.weight_shapes(TOY),
                              {name: w.shape for name, w in toy_weights().items()})

    def test_validate_rejects_missing_and_wrong_shape(self) -> None:
        shapes = {name: w.shape for name, w in toy_weights().items()}
        del shapes["cls"]
        with pytest.raises(ShapeError, match="cls"):
            adapters.check_shapes(model.weight_shapes(TOY), shapes)
        shapes = {name: w.shape for name, w in toy_weights().items()}
        shapes["pos"] = (2, 2)
        with pytest.raises(ShapeError, match=r"pos: expected shape \(5, 16\), got \(2, 2\)"):
            adapters.check_shapes(model.weight_shapes(TOY), shapes)

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
