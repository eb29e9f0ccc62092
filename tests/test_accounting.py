from __future__ import annotations

import numpy as np
import pytest

from arclab import accounting, model
from arclab.accounting import (
    DEFAULT_BACKBONES,
    MethodSpec,
    count_arc_config,
    count_finetune,
    count_inference,
    format_rows,
    scaling_table,
    write_rows_csv,
)
from arclab.adapters import ArcConfig
from arclab.errors import ConfigError


class TestMethodSpec:
    def test_knob_required(self) -> None:
        with pytest.raises(ConfigError):
            MethodSpec("arc")
        with pytest.raises(ConfigError):
            MethodSpec("lora", bottleneck=4)  # missing attn_matrices

    def test_knob_forbidden(self) -> None:
        with pytest.raises(ConfigError):
            MethodSpec("vpt_shallow", prompts=4, bottleneck=8)

    def test_unknown_method(self) -> None:
        with pytest.raises(ConfigError):
            MethodSpec("prefix")


class TestCountFinetune:
    def test_arc_vitb_bottlenecks(self) -> None:
        want = {10: 34_032, 50: 96_432, 100: 174_432, 200: 330_432}
        for dp, expected in want.items():
            assert count_finetune(MethodSpec("arc", bottleneck=dp), 768, 12) == expected

    def test_arc_vitl(self) -> None:
        assert count_finetune(MethodSpec("arc", bottleneck=50), 1024, 24) == 153_952

    def test_arc_att_halves_defaults(self) -> None:
        full = count_finetune(MethodSpec("arc", bottleneck=50), 768, 12)
        att = count_finetune(MethodSpec("arc_att", bottleneck=50), 768, 12)
        assert att * 2 == full

    def test_vpt_shallow_single_prompt(self) -> None:
        assert count_finetune(MethodSpec("vpt_shallow", prompts=1), 768, 12) == 768

    def test_vpt_deep(self) -> None:
        assert count_finetune(MethodSpec("vpt_deep", prompts=10), 768, 12) == 92_160

    def test_adapter(self) -> None:
        assert count_finetune(MethodSpec("adapter", bottleneck=8), 768, 12) == 147_456

    def test_lora(self) -> None:
        assert count_finetune(
            MethodSpec("lora", bottleneck=8, attn_matrices=2), 768, 12) == 294_912

    def test_ssf(self) -> None:
        assert count_finetune(MethodSpec("ssf", operations=6), 768, 12) == 110_592

    def test_bad_dims(self) -> None:
        with pytest.raises(ConfigError):
            count_finetune(MethodSpec("arc", bottleneck=50), 0, 12)


class TestCountInference:
    def test_reparameterizable_methods_cost_nothing(self) -> None:
        assert count_inference(MethodSpec("arc", bottleneck=50), 768, 12) == 0
        assert count_inference(MethodSpec("arc_att", bottleneck=50), 768, 12) == 0
        assert count_inference(MethodSpec("lora", bottleneck=8, attn_matrices=2), 768, 12) == 0
        assert count_inference(MethodSpec("ssf", operations=4), 768, 12) == 0

    def test_adapter_keeps_full_cost(self) -> None:
        assert count_inference(MethodSpec("adapter", bottleneck=8), 768, 12) == 147_456

    def test_vpt_keeps_prompts(self) -> None:
        assert count_inference(MethodSpec("vpt_deep", prompts=10), 768, 12) == 92_160
        assert count_inference(MethodSpec("vpt_shallow", prompts=10), 768, 12) == 7_680


class TestHeadCount:
    def test_formula(self) -> None:
        """The classification head the counts leave out holds D x K weights
        plus K biases."""
        cfg = model.BackboneConfig(image_size=224, patch_size=16, channels=3, embed_dim=768,
                                   layers=12, heads=12, classes=100)
        shapes = model.weight_shapes(cfg)
        assert sum(r * c for r, c in (shapes[name] for name in model.HEAD_NAMES)) == \
            768 * 100 + 100

    def test_mean_vtab_head_recovers_two_decimal_totals(self) -> None:
        # mean classification head over the 19-task VTAB suite (940 classes
        # total), added to the adapter cost, lands on the two-decimal totals
        # these settings are known by (truncated, not rounded)
        mean_classes = 940 / 19
        mean_head = (768 + 1) * mean_classes
        totals = {10: 0.07, 50: 0.13, 100: 0.21, 200: 0.36}
        for dp, want in totals.items():
            total = count_finetune(MethodSpec("arc", bottleneck=dp), 768, 12) + mean_head
            millions = total / 1e6
            assert abs(millions - want) < 0.01
            assert int(millions * 100) / 100 == want


class TestScalingProperties:
    def test_arc_marginal_layer_cost_excludes_projection(self) -> None:
        for dp in (10, 50, 200):
            for d, layers in ((768, 12), (1024, 24), (1280, 32), (16, 3)):
                spec = MethodSpec("arc", bottleneck=dp)
                diff = count_finetune(spec, d, layers + 1) - count_finetune(spec, d, layers)
                assert diff == 2 * (dp + d)

    def test_adapter_marginal_layer_cost_scales_with_projection(self) -> None:
        spec = MethodSpec("adapter", bottleneck=50)
        diff = count_finetune(spec, 768, 13) - count_finetune(spec, 768, 12)
        assert diff == 2 * 768 * 50

    def test_lora_marginal_layer_cost(self) -> None:
        spec = MethodSpec("lora", bottleneck=50, attn_matrices=2)
        diff = count_finetune(spec, 768, 13) - count_finetune(spec, 768, 12)
        assert diff == 2 * 2 * 768 * 50

    def test_arc_count_affine_in_layers(self) -> None:
        spec = MethodSpec("arc", bottleneck=50)
        counts = [count_finetune(spec, 768, layers) for layers in range(1, 30)]
        diffs = np.diff(counts)
        assert len(set(diffs.tolist())) == 1

    def test_monotone_in_every_knob(self) -> None:
        base = count_finetune(MethodSpec("arc", bottleneck=50), 768, 12)
        assert count_finetune(MethodSpec("arc", bottleneck=51), 768, 12) > base
        assert count_finetune(MethodSpec("arc", bottleneck=50), 769, 12) > base
        assert count_finetune(MethodSpec("arc", bottleneck=50), 768, 13) > base
        lora = MethodSpec("lora", bottleneck=8, attn_matrices=2)
        assert count_finetune(MethodSpec("lora", bottleneck=8, attn_matrices=3), 768, 12) \
            > count_finetune(lora, 768, 12)
        assert count_finetune(MethodSpec("vpt_deep", prompts=11), 768, 12) \
            > count_finetune(MethodSpec("vpt_deep", prompts=10), 768, 12)
        assert count_finetune(MethodSpec("ssf", operations=5), 768, 12) \
            > count_finetune(MethodSpec("ssf", operations=4), 768, 12)


class TestArcConfigCount:
    def test_star_formula(self) -> None:
        cfg = ArcConfig(bottleneck=50, sharing="intra_inter_star")
        assert count_arc_config(cfg, 768, 12) == 768 * 50 + 2 * (50 + 768) * 12

    def test_non_intra_inter_formula(self) -> None:
        cfg = ArcConfig(bottleneck=50, sharing="non_intra_inter")
        assert count_arc_config(cfg, 768, 12) == 2 * (2 * 768 * 50 + (50 + 768) * 12)

    def test_non_intra_non_inter_composition(self) -> None:
        # our declared composition: independent per-layer projections per group
        cfg = ArcConfig(bottleneck=50, sharing="non_intra_non_inter")
        assert count_arc_config(cfg, 768, 12) == 2 * (2 * 768 * 50 * 12 + (50 + 768) * 12)

    def test_default_matches_table_formula(self) -> None:
        cfg = ArcConfig(bottleneck=50)
        assert count_arc_config(cfg, 768, 12) == \
            count_finetune(MethodSpec("arc", bottleneck=50), 768, 12)

    def test_default_layers_counted_in_constant_time(self) -> None:
        """A trillion layers take the closed form at once: the default layer
        set is a range, whose length needs no tuple of 10**12 ints (8 TB)."""
        layers = 10**12
        assert count_arc_config(ArcConfig(bottleneck=50), 768, layers) == \
            2 * (768 * 50 + (50 + 768) * layers)

    def test_attention_only_matches_arc_att(self) -> None:
        cfg = ArcConfig(bottleneck=50, positions=("before_mha",))
        assert count_arc_config(cfg, 768, 12) == \
            count_finetune(MethodSpec("arc_att", bottleneck=50), 768, 12)


class TestScalingTable:
    def test_layer_sweep(self) -> None:
        rows = scaling_table(MethodSpec("arc", bottleneck=50),
                             [(f"L={layers}", 768, layers) for layers in range(1, 13)])
        assert len(rows) == 12
        assert rows[-1].finetune == 96_432

    def test_backbone_sweep(self) -> None:
        rows = scaling_table(MethodSpec("arc", bottleneck=50), DEFAULT_BACKBONES)
        assert [r.finetune for r in rows] == [96_432, 153_952, 213_120]

    def test_format_and_csv(self, tmp_path) -> None:
        rows = scaling_table(MethodSpec("arc", bottleneck=50), DEFAULT_BACKBONES)
        text = format_rows(rows, "arc")
        lines = text.splitlines()
        assert lines[0].split() == ["method", "label", "D", "L", "finetune", "inference"]
        assert "96432" in text
        path = tmp_path / "table.csv"
        write_rows_csv(rows, "arc", path)
        content = path.read_text().splitlines()
        assert content[0] == "method,label,D,L,finetune,inference"
        assert len(content) == 4
