"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Tolerances are pinned here and nowhere else.
"""

from __future__ import annotations

from itertools import product

import numpy as np
import pytest

from arclab import adapters, model, reparam, training
from arclab.accounting import MethodSpec, count_arc_config, count_finetune
from arclab.adapters import ArcConfig, init_adapters
from arclab.autodiff import gradcheck
from arclab.checkpoint import load, save
from arclab.errors import CheckpointError
from arclab.kernel import Rng, svd

# toy instance used throughout: D=16, L=3, M=2, D'=4
TOY = model.BackboneConfig(image_size=8, patch_size=4, channels=1, embed_dim=16,
                           layers=3, heads=2, classes=4)
DPRIME = 4


def _randomized_bank(cfg: ArcConfig, seed: int, scale: float = 0.4):
    bank = init_adapters(cfg, TOY, Rng(seed))
    r = Rng(seed + 1)
    for name in bank.tensors:
        bank.tensors[name] = r.normals(bank.tensors[name].shape, scale)
    return bank


def test_01_fusion_equivalence() -> None:
    """Criterion 1: adapted-unfused vs plain-fused logits within 1e-10 for
    every position x sharing combination."""
    weights = model.init_backbone(TOY, Rng(7))
    checked = 0
    seed = 1000
    worst = 0.0
    for site, sharing in product(adapters.SITES, adapters.SHARINGS):
        cfg = ArcConfig(bottleneck=DPRIME, positions=(site,), sharing=sharing, dropout_rate=0.0)
        bank = _randomized_bank(cfg, seed)
        seed += 11
        fused = reparam.fuse(weights, bank, TOY)
        deviation = reparam.verify_fusion(TOY, lambda: (weights, bank), lambda: fused.tensors,
                                          trials=32, rng=Rng(5))
        assert deviation <= 1e-10, (site, sharing, deviation)
        worst = max(worst, deviation)
        checked += 1
    assert checked == 16
    print(f"ACCEPTANCE 1 PASS: fusion deviation <= {worst:.3e} over "
          f"{checked} combos (32 images each)")


def test_02_parameter_count_reproduction() -> None:
    """Criterion 2: closed-form counts hit their frozen expected values, and
    adding a mean 19-task VTAB head recovers the familiar two-decimal
    totals for ViT-B defaults."""
    expected = {10: 34_032, 50: 96_432, 100: 174_432, 200: 330_432}
    for dp, want in expected.items():
        assert count_finetune(MethodSpec("arc", bottleneck=dp), 768, 12) == want
    assert count_finetune(MethodSpec("arc", bottleneck=50), 1024, 24) == 153_952

    mean_head = (768 + 1) * (940 / 19)  # 19 tasks, 940 classes in total
    totals = {10: 0.07, 50: 0.13, 100: 0.21, 200: 0.36}
    for dp, want in totals.items():
        millions = (count_finetune(MethodSpec("arc", bottleneck=dp), 768, 12) + mean_head) / 1e6
        assert abs(millions - want) < 0.01, (dp, millions)
        assert int(millions * 100) / 100 == want  # these totals truncate at 2 decimals
    print("ACCEPTANCE 2 PASS: counts {34032, 96432, 174432, 330432}, ViT-L 153952, "
          "two-decimal totals recovered with mean VTAB head")


def test_03_census_formula_agreement() -> None:
    """Criterion 3: bank census equals the closed-form count, exact integers,
    for every constructible configuration in the grid."""
    position_sets = [
        ("before_mha", "before_ffn"), ("before_mha",), ("after_mha",),
        ("before_ffn",), ("after_ffn",), ("after_mha", "after_ffn"),
    ]
    checked = 0
    for sharing, positions, layers in product(
            adapters.SHARINGS, position_sets, (None, (1,), (1, 3), (2, 3))):
        cfg = ArcConfig(bottleneck=DPRIME, positions=positions, sharing=sharing,
                        insertion_layers=layers)
        bank = init_adapters(cfg, TOY, Rng(3))
        assert bank.trainable_count() == count_arc_config(cfg, TOY.embed_dim, TOY.layers)
        checked += 1
    for positions in position_sets:
        cfg = ArcConfig(positions=positions, variant="full_rank")
        bank = init_adapters(cfg, TOY, Rng(3))
        assert bank.trainable_count() == count_arc_config(cfg, TOY.embed_dim, TOY.layers)
        checked += 1
    print(f"ACCEPTANCE 3 PASS: census == formula for {checked} configurations")


def test_04_gradient_correctness() -> None:
    """Criterion 4: the analytic gradients of one recorded training step
    (``training.record_step``: a batch of four images from the bank's first
    cut, with its dropout masks held fixed) vs Richardson-extrapolated
    central differences (h=1e-2), over every adapter trainable and the
    head, max relative error <= 1e-5."""
    weights = model.init_backbone(TOY, Rng(7))
    images = Rng(8).normals((4, 8, 8, 1))
    labels = np.array([2, 0, 3, 1])
    bank = init_adapters(ArcConfig(bottleneck=DPRIME, dropout_rate=0.1), TOY, Rng(9))
    r = Rng(10)
    live = {n: weights[n] for n in model.HEAD_NAMES}
    live.update({n: r.normals(a.shape, 0.3) for n, a in bank.tensors.items()})
    masks = adapters.dropout_masks(bank, len(images), Rng(11))
    state = training.frozen_prefix(TOY, weights, bank, images, len(images))

    def build(tape, values):
        return training.record_step(tape, TOY, weights, bank, values, state, labels, masks)[1]

    report = gradcheck(build, live, tol=1e-5)
    assert report.passed, report.summary()
    n_scalars = sum(a.size for a in live.values())
    print(f"ACCEPTANCE 4 PASS: gradcheck over {n_scalars} adapter and head scalars, "
          f"max rel err {report.max_rel_err:.3e} <= 1e-5")


def test_05_frozen_backbone_contract() -> None:
    """Criterion 5: backbone checksum bit-identical across 100 training steps."""
    weights = model.init_backbone(TOY, Rng(7))
    bank = init_adapters(ArcConfig(bottleneck=DPRIME, dropout_rate=0.1), TOY, Rng(9))
    task = training.SyntheticTask(classes=4, image_size=8, channels=1, noise_sigma=0.0,
                                  train_count=16, eval_count=8)
    data = training.make_task(task, Rng(21))
    before = model.frozen_checksum(weights)
    cfg = training.TrainConfig(lr=0.02, epochs=100, batch_size=8, warmup_epochs=5, seed=3)
    result = training.train(TOY, weights, bank, data, cfg, max_steps=100)
    assert result.steps == 100
    after = model.frozen_checksum(weights)
    assert after == before
    print(f"ACCEPTANCE 5 PASS: frozen checksum {before[:12]}... unchanged over 100 steps")


def test_06_identity_at_init() -> None:
    """Criterion 6: a fresh bank of any configuration leaves logits exactly
    unchanged (zero coefficients and biases)."""
    weights = model.init_backbone(TOY, Rng(7))
    images = [Rng(40 + i).normals((1, 8, 8, 1)) for i in range(3)]
    plain = [model.forward(TOY, weights, img) for img in images]
    position_sets = [("before_mha", "before_ffn"), ("after_mha", "after_ffn"),
                     ("before_mha",), ("after_ffn",)]
    checked = 0
    for sharing, positions in product(adapters.SHARINGS, position_sets):
        for variant in ("bottleneck", "full_rank"):
            cfg = ArcConfig(bottleneck=DPRIME, positions=positions, sharing=sharing,
                            variant=variant)
            bank = init_adapters(cfg, TOY, Rng(50 + checked))
            for img, want in zip(images, plain):
                got = model.forward(TOY, weights, img, bank=bank)
                assert np.array_equal(got, want), (sharing, positions, variant)
            checked += 1
    print(f"ACCEPTANCE 6 PASS: exact identity at init for {checked} configurations")


def test_07_training_sanity() -> None:
    """Criterion 7: the pinned sigma=0 separable 4-class fixture reaches 100%
    train accuracy within 500 steps; a linear probe with the same budget
    stays strictly lower; final loss under a tenth of the initial loss."""
    task = training.SyntheticTask(classes=4, image_size=8, channels=1, noise_sigma=0.0,
                                  train_count=32, eval_count=16, mean_scale=0.01)
    data = training.make_task(task, Rng(21))
    tcfg = training.TrainConfig(lr=0.01, epochs=125, batch_size=8, weight_decay=0.0,
                                warmup_epochs=10, schedule="cosine", seed=3)

    weights = model.init_backbone(TOY, Rng(7))
    bank = init_adapters(ArcConfig(bottleneck=DPRIME, dropout_rate=0.0), TOY, Rng(9))
    result = training.train(TOY, weights, bank, data, tcfg, max_steps=500)
    assert result.steps == 500
    _, arc_acc = training.evaluate(TOY, weights, bank, data.train_images, data.train_labels)
    assert arc_acc == 1.0, f"adapter fixture reached only {arc_acc:.3f}"
    assert result.curve[-1].loss < 0.1 * result.curve[0].loss

    probe_weights = model.init_backbone(TOY, Rng(7))
    training.train(TOY, probe_weights, None, data, tcfg, max_steps=500)
    _, probe_acc = training.evaluate(TOY, probe_weights, None,
                                     data.train_images, data.train_labels)
    assert probe_acc < arc_acc, f"probe matched adapters at {probe_acc:.3f}"
    print(f"ACCEPTANCE 7 PASS: adapters 100% vs probe {probe_acc:.1%} at 500 steps; "
          f"loss {result.curve[0].loss:.3f} -> {result.curve[-1].loss:.4f}")


def test_08_svd_correctness() -> None:
    """Criterion 8: 200 random matrices up to 32x32 reconstruct to 1e-8 |a|,
    orthonormal to 1e-10, descending; planted spectra recovered to 1e-8."""
    rng = np.random.default_rng(0)
    for _ in range(200):
        m, n = rng.integers(1, 33, size=2)
        a = rng.normal(size=(m, n))
        u, s, v = svd(a)
        k = min(m, n)
        assert np.abs(u @ np.diag(s) @ v.T - a).max() <= 1e-8 * np.abs(a).max()
        assert np.abs(u.T @ u - np.eye(k)).max() <= 1e-10
        assert np.abs(v.T @ v - np.eye(k)).max() <= 1e-10
        assert np.all(np.diff(s) <= 0) and np.all(s >= 0)

    def orthonormal(n, k):
        basis = np.zeros((n, k))
        for j in range(k):
            vec = rng.normal(size=n)
            for i in range(j):
                vec -= (basis[:, i] @ vec) * basis[:, i]
            basis[:, j] = vec / np.linalg.norm(vec)
        return basis

    planted = np.array([6.0, 3.0, 0.5])
    u0, v0 = orthonormal(20, 3), orthonormal(20, 3)
    a = (u0 * planted) @ v0.T
    _, s, _ = svd(a)
    assert np.abs(s[:3] - planted).max() <= 1e-8
    assert np.abs(s[3:]).max() <= 1e-8
    print("ACCEPTANCE 8 PASS: 200 random matrices + planted spectra within tolerance")


def test_09_layer_scaling_property() -> None:
    """Criterion 9: marginal per-layer cost is 2(D'+D) for the re-composed
    adapter (projection excluded) but 2 D D' for the classic adapter."""
    shapes = ((768, 12), (1024, 24), (1280, 32), (16, 3))
    for dp in (10, 50, 200):
        for d, layers in shapes:
            arc = MethodSpec("arc", bottleneck=dp)
            diff = count_finetune(arc, d, layers + 1) - count_finetune(arc, d, layers)
            assert diff == 2 * (dp + d)
            classic = MethodSpec("adapter", bottleneck=dp)
            cdiff = count_finetune(classic, d, layers + 1) - count_finetune(classic, d, layers)
            assert cdiff == 2 * d * dp
    print("ACCEPTANCE 9 PASS: marginal layer cost 2(D'+D) vs 2DD' across shapes")


def test_10_checkpoint_round_trip(tmp_path) -> None:
    """Criterion 10: save->load bitwise identity; corrupted and truncated
    files rejected with structured errors."""
    weights = model.init_backbone(TOY, Rng(7))
    bank = _randomized_bank(ArcConfig(bottleneck=DPRIME, dropout_rate=0.0), 60)
    tensors = dict(weights)
    tensors.update(bank.tensors)
    path = tmp_path / "ck.arcl"
    save(path, tensors)
    _, loaded = load(path)
    assert set(loaded) == set(tensors)
    for name in tensors:
        assert loaded[name].tobytes() == np.ascontiguousarray(tensors[name]).tobytes()

    blob = path.read_bytes()
    bad_magic = tmp_path / "bad_magic.arcl"
    bad_magic.write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(CheckpointError):
        load(bad_magic)

    truncated = tmp_path / "trunc.arcl"
    truncated.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(CheckpointError) as info:
        load(truncated)
    assert info.value.offset is not None

    bad_version = tmp_path / "ver.arcl"
    bad_version.write_bytes(blob[:4] + (9).to_bytes(4, "little") + blob[8:])
    with pytest.raises(CheckpointError):
        load(bad_version)
    print("ACCEPTANCE 10 PASS: bitwise round-trip; malformed files rejected with offsets")
