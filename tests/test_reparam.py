from __future__ import annotations

import numpy as np
import pytest

from arclab import adapters, model, reparam
from arclab.adapters import ArcConfig, init_adapters
from arclab.errors import ConfigError, NumericalError
from arclab.kernel import Rng

TOY = model.BackboneConfig(image_size=8, patch_size=4, channels=1, embed_dim=16,
                           layers=3, heads=2, classes=4)


def randomized_bank(cfg: ArcConfig, seed: int, scale: float = 0.4):
    bank = init_adapters(cfg, TOY, Rng(seed))
    r = Rng(seed + 1)
    for name in bank.tensors:
        bank.tensors[name] = r.normals(bank.tensors[name].shape, scale)
    return bank


class TestFuse:
    def test_identity_bank_is_bitwise_noop(self) -> None:
        w = model.init_backbone(TOY, Rng(1))
        bank = init_adapters(ArcConfig(bottleneck=4), TOY, Rng(2))
        fused = reparam.fuse(w, bank, TOY)
        assert fused.sites_fused == 0
        assert set(fused.tensors) == set(w)
        assert all(np.array_equal(fused.tensors[n], w[n]) for n in w)

    @pytest.mark.parametrize("name, bad", [("arc.mha.down", np.nan), ("arc.ffn.2.coef", -np.inf),
                                           ("arc.mha.3.bias", np.inf)])
    def test_non_finite_adapter_tensor_rejected(self, name, bad) -> None:
        w = model.init_backbone(TOY, Rng(1))
        bank = randomized_bank(ArcConfig(bottleneck=4), 5)
        bank.tensors[name][0, 1] = bad
        with pytest.raises(NumericalError, match=f"'{name}'"):
            reparam.fuse(w, bank, TOY)

    def test_hand_case_w1(self) -> None:
        # D=2, D'=1: W_down=[1,0]^T, c=[3], W_1=I  =>  W_1' = [[4,0],[0,1]]
        cfg = model.BackboneConfig(image_size=2, patch_size=2, channels=1, embed_dim=2,
                                   layers=1, heads=1, classes=2, mlp_ratio=1)
        w = model.init_backbone(cfg, Rng(3))
        w["enc.1.ffn.w1"] = np.eye(2)
        acfg = ArcConfig(bottleneck=1, positions=("before_ffn",), dropout_rate=0.0)
        bank = init_adapters(acfg, cfg, Rng(4))
        bank.tensors["arc.ffn.down"] = np.array([[1.0], [0.0]])
        bank.tensors["arc.ffn.1.coef"] = np.array([[3.0]])
        fused = reparam.fuse(w, bank, cfg)
        assert np.array_equal(fused.tensors["enc.1.ffn.w1"], np.array([[4.0, 0.0], [0.0, 1.0]]))

    def test_bias_folds_through_downstream_matrix(self) -> None:
        cfg = ArcConfig(bottleneck=4, positions=("before_ffn",), dropout_rate=0.0)
        w = model.init_backbone(TOY, Rng(5))
        bank = randomized_bank(cfg, 6)
        fused = reparam.fuse(w, bank, TOY)
        p, b = adapters.composite_matrix(bank, "ffn", 2)
        want_w1 = (p + np.eye(16)) @ w["enc.2.ffn.w1"]
        want_b1 = w["enc.2.ffn.b1"] + b @ w["enc.2.ffn.w1"]
        assert np.abs(fused.tensors["enc.2.ffn.w1"] - want_w1).max() <= 1e-15
        assert np.abs(fused.tensors["enc.2.ffn.b1"] - want_b1).max() <= 1e-15

    def test_after_site_folds_on_the_right(self) -> None:
        cfg = ArcConfig(bottleneck=4, positions=("after_mha",), dropout_rate=0.0)
        w = model.init_backbone(TOY, Rng(7))
        bank = randomized_bank(cfg, 8)
        fused = reparam.fuse(w, bank, TOY)
        p, b = adapters.composite_matrix(bank, "mha", 1)
        m = p + np.eye(16)
        assert np.abs(fused.tensors["enc.1.attn.wo"] - w["enc.1.attn.wo"] @ m).max() <= 1e-15
        assert np.abs(fused.tensors["enc.1.attn.bo"] - (w["enc.1.attn.bo"] @ m + b)).max() <= 1e-15

    @pytest.mark.parametrize("kind", ["random", "identity"])
    def test_returns_arrays_independent_of_input(self, kind) -> None:
        w = model.init_backbone(TOY, Rng(11))
        bank = (randomized_bank(ArcConfig(bottleneck=4), 12) if kind == "random"
                else init_adapters(ArcConfig(bottleneck=4), TOY, Rng(12)))
        before = model.checksum(w)
        fused = reparam.fuse(w, bank, TOY)
        assert fused.sites_fused == (0 if kind == "identity" else len(bank.sites))
        assert not any(np.shares_memory(t, a) for t in fused.tensors.values() for a in w.values())
        assert model.checksum(w) == before

    def test_fold_writes_into_the_given_arrays(self) -> None:
        w = model.init_backbone(TOY, Rng(11))
        bank = randomized_bank(ArcConfig(bottleneck=4), 12)
        want = reparam.fuse(w, bank, TOY)
        arrays = dict(w)
        assert reparam.fold(w, bank, TOY) == want.sites_fused
        assert all(w[name] is arr for name, arr in arrays.items())
        assert model.checksum(w) == model.checksum(want.tensors)

    def test_fold_writes_nothing_for_a_non_finite_bank(self) -> None:
        w = model.init_backbone(TOY, Rng(11))
        bank = randomized_bank(ArcConfig(bottleneck=4), 12)
        bank.tensors["arc.ffn.3.bias"][0, 0] = np.nan
        before = model.checksum(w)
        with pytest.raises(NumericalError, match="'arc.ffn.3.bias'"):
            reparam.fold(w, bank, TOY)
        assert model.checksum(w) == before

    def test_shapes_unchanged(self) -> None:
        w = model.init_backbone(TOY, Rng(9))
        bank = randomized_bank(ArcConfig(bottleneck=4), 10)
        fused = reparam.fuse(w, bank, TOY)
        assert {n: t.shape for n, t in fused.tensors.items()} == \
            {n: t.shape for n, t in w.items()}


class TestVerifyFusion:
    def test_identity_bank_zero_deviation(self) -> None:
        w = model.init_backbone(TOY, Rng(13))
        bank = init_adapters(ArcConfig(bottleneck=4), TOY, Rng(14))
        fused = reparam.fuse(w, bank, TOY)
        assert reparam.verify_fusion(TOY, lambda: (w, bank), lambda: fused.tensors,
                                     trials=4, rng=Rng(0)) == 0.0

    def test_random_bank_fuses_exactly(self) -> None:
        w = model.init_backbone(TOY, Rng(15))
        bank = randomized_bank(ArcConfig(bottleneck=4, dropout_rate=0.0), 16)
        fused = reparam.fuse(w, bank, TOY)
        dev = reparam.verify_fusion(TOY, lambda: (w, bank), lambda: fused.tensors,
                                    trials=32, rng=Rng(1))
        assert dev <= 1e-10

    def test_corrupted_fused_weight_detected(self) -> None:
        w = model.init_backbone(TOY, Rng(17))
        bank = randomized_bank(ArcConfig(bottleneck=4, dropout_rate=0.0), 18)
        fused = reparam.fuse(w, bank, TOY)
        fused.tensors["enc.2.ffn.w2"][0, 0] += 1e-3
        dev = reparam.verify_fusion(TOY, lambda: (w, bank), lambda: fused.tensors,
                                    trials=16, rng=Rng(2))
        assert dev > 1e-5

    def test_non_finite_bank_stops_before_the_fused_load(self) -> None:
        w = model.init_backbone(TOY, Rng(15))
        bank = randomized_bank(ArcConfig(bottleneck=4, dropout_rate=0.0), 16)
        bank.tensors["arc.mha.2.coef"][0, 0] = np.inf

        def no_fused_load():
            raise AssertionError("fused side loaded")

        with pytest.raises(NumericalError, match="'arc.mha.2.coef'"):
            reparam.verify_fusion(TOY, lambda: (w, bank), no_fused_load, trials=4, rng=Rng(0))

    def test_trials_validated(self) -> None:
        w = model.init_backbone(TOY, Rng(19))
        bank = init_adapters(ArcConfig(bottleneck=4), TOY, Rng(20))
        fused = reparam.fuse(w, bank, TOY)
        with pytest.raises(ConfigError):
            reparam.verify_fusion(TOY, lambda: (w, bank), lambda: fused.tensors, trials=0,
                                  rng=Rng(0))


class TestFullGrid:
    @pytest.mark.parametrize("sharing", adapters.SHARINGS)
    def test_every_supported_site_and_form(self, sharing: str) -> None:
        w = model.init_backbone(TOY, Rng(21))
        seed = 100
        for site in adapters.SITES:
            cfg = ArcConfig(bottleneck=4, positions=(site,), sharing=sharing, dropout_rate=0.0)
            bank = randomized_bank(cfg, seed)
            seed += 7
            fused = reparam.fuse(w, bank, TOY)
            dev = reparam.verify_fusion(TOY, lambda: (w, bank), lambda: fused.tensors,
                                        trials=8, rng=Rng(3))
            assert dev <= 1e-10, (site, sharing, dev)

    def test_full_rank_variant_fuses(self) -> None:
        w = model.init_backbone(TOY, Rng(22))
        cfg = ArcConfig(variant="full_rank", dropout_rate=0.0)
        bank = init_adapters(cfg, TOY, Rng(23))
        r = Rng(24)
        for name in bank.tensors:
            bank.tensors[name] = r.normals(bank.tensors[name].shape, 0.1)
        fused = reparam.fuse(w, bank, TOY)
        dev = reparam.verify_fusion(TOY, lambda: (w, bank), lambda: fused.tensors,
                                    trials=8, rng=Rng(4))
        assert dev <= 1e-10

    def test_trained_style_combined_positions(self) -> None:
        w = model.init_backbone(TOY, Rng(25))
        cfg = ArcConfig(bottleneck=4, positions=("before_mha", "before_ffn"),
                        insertion_layers=(1, 3), dropout_rate=0.0)
        bank = randomized_bank(cfg, 26)
        fused = reparam.fuse(w, bank, TOY)
        dev = reparam.verify_fusion(TOY, lambda: (w, bank), lambda: fused.tensors,
                                    trials=16, rng=Rng(5))
        assert dev <= 1e-10
        assert fused.sites_fused == 4
