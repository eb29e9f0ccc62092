from __future__ import annotations

import dataclasses
import re
from itertools import product

import numpy as np
import pytest

from arclab import accounting, adapters, model, training
from arclab.adapters import (AdapterBank, ArcConfig, adapter_shapes, arc_forward, dropout_mask,
                             init_adapters)
from arclab.autodiff import Eager, Tape, gradcheck
from arclab.errors import ConfigError, ShapeError
from arclab.kernel import Rng

TOY = model.BackboneConfig(image_size=8, patch_size=4, channels=1, embed_dim=16,
                           layers=2, heads=2, classes=4)
POSITION_SETS = [
    ("before_mha", "before_ffn"),
    ("before_mha",),
    ("after_mha", "after_ffn"),
    ("after_ffn",),
]


class TestArcConfig:
    def test_defaults(self) -> None:
        cfg = ArcConfig()
        assert cfg.bottleneck == 50
        assert cfg.positions == ("before_mha", "before_ffn")
        assert cfg.sharing == "intra_inter"

    def test_positions_canonicalized(self) -> None:
        cfg = ArcConfig(positions=("before_ffn", "before_mha", "before_ffn"))
        assert cfg.positions == ("before_mha", "before_ffn")

    @pytest.mark.parametrize(
        "kwargs",
        [dict(bottleneck=0), dict(positions=()), dict(positions=("mha",)),
         dict(sharing="none"), dict(dropout_rate=1.0),
         dict(dropout_rate=-0.1), dict(variant="low_rank"),
         dict(insertion_layers=(0, 1))],
    )
    def test_invalid(self, kwargs) -> None:
        with pytest.raises(ConfigError):
            ArcConfig(**kwargs)

    def test_groups(self) -> None:
        assert ArcConfig(positions=("before_mha",)).groups == ("mha",)
        assert ArcConfig(positions=("after_ffn",)).groups == ("ffn",)
        assert ArcConfig().groups == ("mha", "ffn")


class TestInit:
    def test_identity_at_init_for_all_configs(self) -> None:
        w = model.init_backbone(TOY, Rng(7))
        img = Rng(8).normals((1, 8, 8, 1))
        plain = model.forward(TOY, w, img)
        for sharing, positions in product(adapters.SHARINGS, POSITION_SETS):
            cfg = ArcConfig(bottleneck=4, positions=positions, sharing=sharing)
            bank = init_adapters(cfg, TOY, Rng(9))
            out = model.forward(TOY, w, img, bank=bank)
            assert np.array_equal(out, plain), (sharing, positions)
        fr = ArcConfig(bottleneck=4, variant="full_rank")
        bank = init_adapters(fr, TOY, Rng(9))
        out = model.forward(TOY, w, img, bank=bank)
        assert np.array_equal(out, plain)

    @pytest.mark.parametrize("variant", adapters.VARIANTS)
    def test_shape_table_matches_init(self, variant) -> None:
        for sharing, positions in product(adapters.SHARINGS, POSITION_SETS):
            cfg = ArcConfig(bottleneck=4, positions=positions, sharing=sharing, variant=variant)
            shapes = adapter_shapes(cfg, TOY)
            bank = init_adapters(cfg, TOY, Rng(1))
            assert list(shapes) == list(bank.tensors)
            assert all(bank.tensors[n].shape == shape for n, shape in shapes.items())

    def test_draws_follow_shape_table_order(self) -> None:
        bank = init_adapters(ArcConfig(bottleneck=4, sharing="non_intra_inter"), TOY, Rng(1))
        r = Rng(1)
        for name in ("arc.mha.down", "arc.mha.up", "arc.ffn.down", "arc.ffn.up"):
            shape = bank.tensors[name].shape
            scale = 1.0 / np.sqrt(16) if name.endswith("down") else 1.0 / np.sqrt(4)
            assert np.array_equal(bank.tensors[name], r.normals(shape, scale)), name

    def test_census_example_intra_inter(self) -> None:
        cfg = ArcConfig(bottleneck=4)
        bank = init_adapters(cfg, TOY, Rng(1))
        assert bank.trainable_count() == 2 * (16 * 4 + (4 + 16) * 2) == 208

    def test_census_example_non_intra_inter(self) -> None:
        cfg = ArcConfig(bottleneck=4, sharing="non_intra_inter")
        bank = init_adapters(cfg, TOY, Rng(1))
        assert bank.trainable_count() == 2 * (2 * 16 * 4 + (4 + 16) * 2) == 336

    def test_intra_stores_no_up_projection(self) -> None:
        bank = init_adapters(ArcConfig(bottleneck=4), TOY, Rng(1))
        assert not any(name.endswith(".up") or name.endswith("up") for name in bank.tensors)

    def test_inter_stores_one_down_per_group(self) -> None:
        bank = init_adapters(ArcConfig(bottleneck=4), TOY, Rng(1))
        downs = [n for n in bank.tensors if n.endswith("down")]
        assert sorted(downs) == ["arc.ffn.down", "arc.mha.down"]

    def test_star_merges_projection(self) -> None:
        bank = init_adapters(ArcConfig(bottleneck=4, sharing="intra_inter_star"), TOY, Rng(1))
        downs = [n for n in bank.tensors if n.endswith("down")]
        assert downs == ["arc.shared.down"]
        # separate per-layer coefficients remain for each side
        assert "arc.mha.1.coef" in bank.tensors and "arc.ffn.1.coef" in bank.tensors

    def test_non_inter_stores_per_layer_downs(self) -> None:
        bank = init_adapters(ArcConfig(bottleneck=4, sharing="non_intra_non_inter"), TOY, Rng(1))
        assert "arc.mha.1.down" in bank.tensors and "arc.mha.2.up" in bank.tensors

    def test_bottleneck_must_fit(self) -> None:
        with pytest.raises(ConfigError):
            init_adapters(ArcConfig(bottleneck=32), TOY, Rng(1))

    def test_full_rank_tensors(self) -> None:
        bank = init_adapters(ArcConfig(variant="full_rank"), TOY, Rng(1))
        assert set(bank.tensors) == {
            f"arc.{g}.{l}.delta" for g in ("mha", "ffn") for l in (1, 2)
        }
        assert all(np.array_equal(t, np.zeros((16, 16))) for t in bank.tensors.values())


class TestArcForward:
    def _bank_with(self, cfg, **tensors):
        bank = init_adapters(cfg, TOY, Rng(2))
        bank.tensors.update(tensors)
        return bank

    def test_zero_coef_zero_bias_is_identity(self) -> None:
        cfg = ArcConfig(bottleneck=4)
        bank = init_adapters(cfg, TOY, Rng(2))
        x = Rng(3).normals((1, 5, 16))
        out = arc_forward(Eager(), bank, 1, "before_mha", x, bank.tensors)
        assert np.array_equal(out, x)

    def test_rank_one_hand_case(self) -> None:
        # D'=1, W_down = e1, c = [2]: output = x + 2 x[:, 0] e1^T
        cfg = ArcConfig(bottleneck=1)
        down = np.zeros((16, 1))
        down[0, 0] = 1.0
        bank = self._bank_with(
            cfg,
            **{"arc.mha.down": down, "arc.mha.1.coef": np.array([[2.0]])},
        )
        x = Rng(4).normals((1, 5, 16))
        out = arc_forward(Eager(), bank, 1, "before_mha", x, bank.tensors)
        want = x.copy()
        want[..., 0] += 2.0 * x[..., 0]
        assert np.abs(out - want).max() <= 1e-15

    def test_eval_mode_deterministic_despite_dropout_rate(self) -> None:
        cfg = ArcConfig(bottleneck=4, dropout_rate=0.5)
        bank = init_adapters(cfg, TOY, Rng(5))
        r = Rng(6)
        for name in bank.tensors:
            bank.tensors[name] = r.normals(bank.tensors[name].shape, 0.3)
        weights = model.init_backbone(TOY, Rng(6))
        imgs = Rng(7).normals((2, 8, 8, 1))
        a = model.forward(TOY, weights, imgs, bank=bank)
        b = model.forward(TOY, weights, imgs, bank=bank)
        assert np.array_equal(a, b)

    def test_outside_insertion_set_is_contract_error(self) -> None:
        cfg = ArcConfig(bottleneck=4, insertion_layers=(1,))
        bank = init_adapters(cfg, TOY, Rng(5))
        x = Rng(7).normals((1, 5, 16))
        with pytest.raises(ConfigError):
            arc_forward(Eager(), bank, 2, "before_mha", x, bank.tensors)

    def test_affine_linearity_in_eval_mode(self) -> None:
        cfg = ArcConfig(bottleneck=4, dropout_rate=0.0)
        bank = init_adapters(cfg, TOY, Rng(8))
        r = Rng(9)
        for name in bank.tensors:
            bank.tensors[name] = r.normals(bank.tensors[name].shape, 0.4)
        bias = bank.tensors["arc.mha.1.bias"]
        x, y = Rng(10).normals((1, 5, 16)), Rng(11).normals((1, 5, 16))
        alpha, beta = 1.7, -0.6
        f = lambda m: arc_forward(Eager(), bank, 1, "before_mha", m, bank.tensors)
        lhs = f(alpha * x + beta * y)
        rhs = alpha * f(x) + beta * f(y) - (alpha + beta - 1.0) * np.repeat(bias, 5, axis=0)
        assert np.abs(lhs - rhs).max() <= 1e-10

    def test_full_rank_forward(self) -> None:
        cfg = ArcConfig(variant="full_rank")
        bank = init_adapters(cfg, TOY, Rng(12))
        delta = Rng(13).normals((16, 16), 0.2)
        bank.tensors["arc.mha.1.delta"] = delta
        x = Rng(14).normals((1, 5, 16))
        out = arc_forward(Eager(), bank, 1, "before_mha", x, bank.tensors)
        assert np.abs(out - (x @ delta + x)).max() <= 1e-15


class TestDropout:
    def test_mask_values(self) -> None:
        mask = dropout_mask(Rng(1), (100, 100), 0.25)
        assert set(np.unique(mask)) <= {0.0, 1.0 / 0.75}

    def test_mask_mean_matches_inverted_scaling(self) -> None:
        # E[mask] = 1 within 3 sigma of the binomial standard error
        rate = 0.3
        draws = 10_000
        rng = Rng(2)
        total = np.zeros((2, 8))
        for _ in range(draws):
            total += dropout_mask(rng, (2, 8), rate)
        mean = total / draws
        sigma = np.sqrt(rate / (1.0 - rate)) / np.sqrt(draws)
        assert np.abs(mean - 1.0).max() <= 3.0 * sigma * 1.5  # small slack over per-cell 3 sigma

    def test_hidden_feature_expectation(self) -> None:
        cfg = ArcConfig(bottleneck=4, dropout_rate=0.3)
        bank = init_adapters(cfg, TOY, Rng(3))
        r = Rng(4)
        for name in bank.tensors:
            bank.tensors[name] = r.normals(bank.tensors[name].shape, 0.5)
        x = Rng(5).normals((1, 3, 16))
        eval_out = arc_forward(Eager(), bank, 1, "before_mha", x, bank.tensors)
        rng = Rng(6)
        draws = 2000
        acc = np.zeros_like(eval_out)
        for _ in range(draws):
            acc += arc_forward(Eager(), bank, 1, "before_mha", x, bank.tensors,
                               mask=dropout_mask(rng, (1, 3, 4), 0.3))
        mean = acc / draws
        # loose 3-sigma style bound on the adapter output scale
        scale = np.abs(eval_out).max()
        assert np.abs(mean - eval_out).max() <= 4.0 * scale * np.sqrt(0.3 / 0.7 / draws) + 1e-6

    def test_batch_masks_follow_per_image_order(self) -> None:
        # one draw for the batch equals per-image draws in (image, layer, site) order
        cfg = ArcConfig(bottleneck=4, positions=adapters.SITES, dropout_rate=0.3)
        bank = init_adapters(cfg, TOY, Rng(1))
        masks = adapters.dropout_masks(bank, 3, Rng(9))
        rng = Rng(9)
        assert masks.shape == (3, len(bank.sites), 5, 4)
        for image in range(3):
            for i, key in enumerate(bank.sites):
                assert np.array_equal(masks[image, i], dropout_mask(rng, (5, 4), 0.3)), key

    def test_each_site_gets_its_slice_of_the_masks(self, monkeypatch) -> None:
        # a taped forward hands the adapter at (layer, site) the view masks[:, i],
        # i its place in bank.sites: all four positions, a subset of the layers
        backbone = dataclasses.replace(TOY, layers=3)
        cfg = ArcConfig(bottleneck=4, positions=adapters.SITES, insertion_layers=(1, 3),
                        dropout_rate=0.3)
        bank = init_adapters(cfg, backbone, Rng(1))
        masks = adapters.dropout_masks(bank, 2, Rng(3))
        seen = []
        real = adapters.arc_forward

        def spy(ops, bank, layer, site, x, values, mask=None):
            seen.append(((layer, site), mask))
            return real(ops, bank, layer, site, x, values, mask)

        monkeypatch.setattr(adapters, "arc_forward", spy)
        tape = Tape()
        weights = model.init_backbone(backbone, Rng(4))
        values = {n: tape.constant(a) for n, a in weights.items()}
        values.update({n: tape.parameter(n, a) for n, a in bank.tensors.items()})
        x_emb = model.embed(backbone, weights, Rng(2).normals((2, 8, 8, 1)))
        model.forward_tokens(tape, backbone, values, tape.constant(x_emb), bank=bank, masks=masks)
        assert [key for key, _ in seen] == list(bank.sites)
        assert {layer for layer, _ in bank.sites} == {1, 3}
        for key, mask in seen:
            want = masks[:, bank.sites.index(key)]
            assert np.array_equal(mask, want) and np.shares_memory(mask, want), key

    def test_train_rate_zero_equals_eval(self) -> None:
        cfg = ArcConfig(bottleneck=4, dropout_rate=0.0)
        bank = init_adapters(cfg, TOY, Rng(7))
        values = dict(model.init_backbone(TOY, Rng(6)))
        values.update(bank.tensors)
        imgs = Rng(8).normals((2, 8, 8, 1))
        masks = adapters.dropout_masks(bank, imgs.shape[0], Rng(0))
        a = model.forward_tokens(Eager(), TOY, values, model.embed(TOY, values, imgs), bank=bank,
                                 masks=masks)
        b = model.forward(TOY, values, imgs, bank=bank)
        assert np.array_equal(a, b)


class TestBankChecksTensors:
    """A bank holds exactly the tensors ``adapter_shapes`` names, at their shapes."""

    @pytest.mark.parametrize("variant", adapters.VARIANTS)
    def test_built_from_its_own_tensors(self, variant) -> None:
        bank = init_adapters(ArcConfig(bottleneck=4, variant=variant), TOY, Rng(1))
        again = AdapterBank(bank.config, TOY, dict(bank.tensors))
        assert again.layers == bank.layers == (1, 2)
        assert again.backbone is TOY

    @pytest.mark.parametrize("build", ["constructor", "replace"])
    @pytest.mark.parametrize("fault, message", [
        ("missing", "missing ['arc.ffn.2.coef'], unexpected []"),
        ("extra", "missing [], unexpected ['arc.ffn.3.coef']"),
        ("misshapen", "arc.ffn.2.coef: expected shape (1, 4), got (1, 3)"),
    ])
    def test_wrong_tensor_is_shape_error(self, build, fault, message) -> None:
        bank = init_adapters(ArcConfig(bottleneck=4), TOY, Rng(1))
        tensors = dict(bank.tensors)
        if fault == "missing":
            del tensors["arc.ffn.2.coef"]
        elif fault == "extra":
            tensors["arc.ffn.3.coef"] = np.zeros((1, 4))
        else:
            tensors["arc.ffn.2.coef"] = np.zeros((1, 3))
        with pytest.raises(ShapeError, match=re.escape(message)):
            if build == "constructor":
                AdapterBank(bank.config, TOY, tensors)
            else:
                dataclasses.replace(bank, tensors=tensors)

    def test_bottleneck_wider_than_embedding(self) -> None:
        with pytest.raises(ConfigError, match="bottleneck 50 exceeds embed_dim 16"):
            AdapterBank(ArcConfig(bottleneck=50), TOY, {})


class TestResolveHooks:
    """The (layer, site) pairs a bank wires, as ``bank.sites`` lists them."""

    def test_default_config_two_hooks_per_layer(self) -> None:
        bank = init_adapters(ArcConfig(bottleneck=4), TOY, Rng(1))
        assert bank.sites == ((1, "before_mha"), (1, "before_ffn"),
                              (2, "before_mha"), (2, "before_ffn"))

    def test_insertion_subset(self) -> None:
        cfg12 = model.BackboneConfig(image_size=8, patch_size=4, channels=1, embed_dim=16,
                                     layers=12, heads=2, classes=4)
        bank = init_adapters(ArcConfig(bottleneck=4, insertion_layers=tuple(range(1, 7))), cfg12,
                             Rng(1))
        assert len(bank.sites) == 12
        assert all(layer <= 6 for layer, _ in bank.sites)

    def test_attention_only(self) -> None:
        bank = init_adapters(ArcConfig(bottleneck=4, positions=("before_mha",)), TOY, Rng(1))
        assert len(bank.sites) == TOY.layers
        assert all(site == "before_mha" for _, site in bank.sites)

    def test_insertion_beyond_depth(self) -> None:
        with pytest.raises(ConfigError):
            init_adapters(ArcConfig(bottleneck=4, insertion_layers=(3,)), TOY, Rng(1))


class TestCensusAgainstFormula:
    @pytest.mark.parametrize("sharing", adapters.SHARINGS)
    @pytest.mark.parametrize("positions", POSITION_SETS)
    def test_bottleneck_grid(self, sharing, positions) -> None:
        for layers in (None, (1,), (1, 2)):
            cfg = ArcConfig(bottleneck=4, positions=positions, sharing=sharing,
                            insertion_layers=layers)
            bank = init_adapters(cfg, TOY, Rng(1))
            assert bank.trainable_count() == accounting.count_arc_config(cfg, 16, TOY.layers)

    @pytest.mark.parametrize("positions", POSITION_SETS)
    def test_full_rank_grid(self, positions) -> None:
        cfg = ArcConfig(positions=positions, variant="full_rank")
        bank = init_adapters(cfg, TOY, Rng(1))
        assert bank.trainable_count() == accounting.count_arc_config(cfg, 16, TOY.layers)

    @pytest.mark.parametrize("sharing", adapters.SHARINGS)
    def test_paper_scale(self, sharing) -> None:
        """ViT-B shape (D=768, L=12) at D'=50 with both positions."""
        vit_b = model.BackboneConfig(image_size=224, patch_size=16, channels=3,
                                     embed_dim=768, layers=12, heads=12, classes=100)
        cfg = ArcConfig(bottleneck=50, positions=("before_mha", "before_ffn"), sharing=sharing)
        bank = init_adapters(cfg, vit_b, Rng(0))
        assert bank.trainable_count() == accounting.count_arc_config(cfg, 768, 12)


class TestIntraSharingGradient:
    def test_transpose_site_contribution_included(self) -> None:
        """Finite differences vs analytic for the symmetric shared projection."""
        w = model.init_backbone(TOY, Rng(30))
        img = Rng(31).normals((1, 8, 8, 1))
        cfg = ArcConfig(bottleneck=3, dropout_rate=0.0)
        bank = init_adapters(cfg, TOY, Rng(32))
        r = Rng(33)
        live = {n: r.normals(a.shape, 0.4) for n, a in bank.tensors.items()}

        state = training.frozen_prefix(TOY, w, bank, img, 1)

        def build(tape, values):
            # the bank tensors not in values enter as constants
            return training.record_step(tape, TOY, {**w, **live}, bank, values, state,
                                        np.array([1]), None)[1]

        report = gradcheck(build, {"arc.mha.down": live["arc.mha.down"],
                                   "arc.ffn.down": live["arc.ffn.down"]})
        assert report.passed and report.max_rel_err <= 1e-5, report.summary()
