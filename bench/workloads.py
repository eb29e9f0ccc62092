"""The benchmark's three workloads: train, deploy and spectrum.

Each workload is one closed loop with one client and no extra threads.
``setup`` builds what a user starts from and is timed, ``prepare`` makes the
benchmark-side inputs and reference outputs, and ``cycle`` runs the timed
operations once, checks their outputs and returns the seconds each took.
``named_metrics`` turns the median time of each operation into the
workload's own metrics.

Timed operations call arclab through module attributes (``training.train``),
so the traced run can patch them. Checks call functions bound here at import
time (``load_checkpoint``, ``checksum``), so the traced run does not count
them as work of the program. Benchmark-side tensors come from numpy's
``Generator`` seeded by the workload seed, never from ``arclab.kernel.Rng``,
so a change to ``Rng`` moves the program but not its inputs.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import statistics
from pathlib import Path
from time import perf_counter

import numpy as np

from arclab import accounting, adapters, checkpoint, cli, model, training
from arclab.checkpoint import load as load_checkpoint
from arclab.kernel import Rng
from arclab.model import checksum, frozen_checksum
from arclab.reparam import fuse as reference_fuse


class Checks:
    """Correctness checks attempted and failed, by name."""

    def __init__(self):
        self.tally: dict[str, list[int]] = {}

    def record(self, name: str, ok: bool) -> None:
        entry = self.tally.setdefault(name, [0, 0])
        entry[0] += 1
        entry[1] += 0 if ok else 1

    @property
    def attempted(self) -> int:
        return sum(attempted for attempted, _ in self.tally.values())

    @property
    def failed(self) -> int:
        return sum(failed for _, failed in self.tally.values())


def census_matches(bank, backbone) -> bool:
    """Closed-form adapter count equals the bank's census of trainable scalars."""
    closed_form = accounting.count_arc_config(bank.config, backbone.embed_dim, backbone.layers)
    return closed_form == bank.trainable_count()


def write_run_config(run_dir: Path, doc: dict):
    """Write a run config where the CLI looks for it and load it back."""
    path = run_dir / "config.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return cli.load_run_config(path)


def run_cli(*argv: str) -> int:
    """``arclab <argv>`` in-process; its report goes nowhere, its exit code is returned."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(list(argv))


def digest_files(paths) -> str:
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


class Train:
    """The README demo config through ``training.train``.

    Interpreter-bound: about 1.3k tape nodes per step, many small RNG draws
    (one dropout mask per image and site), no SVD and no checkpoint I/O.
    Each cycle trains a fresh copy of the same bank and head for ``STEPS``
    steps, so every cycle does the same work.
    """

    setup_reps = 5
    STEPS = 50

    def __init__(self, seed: int, run_dir: Path):
        self.seed = seed
        self.backbone = model.BackboneConfig(image_size=8, patch_size=4, channels=1, embed_dim=16,
                                             layers=3, heads=2, classes=4)
        self.arc = adapters.ArcConfig(bottleneck=4, positions=("before_mha", "before_ffn"),
                                      sharing="intra_inter", dropout_rate=0.1)
        self.train_cfg = training.TrainConfig(lr=0.01, epochs=125, batch_size=8, warmup_epochs=10,
                                              schedule="cosine", seed=seed)
        self.task = training.SyntheticTask(classes=4, image_size=8, channels=1, noise_sigma=0.0,
                                           train_count=32, eval_count=16)
        self.images_per_cycle = self.STEPS * self.train_cfg.batch_size
        self.curve_sha256 = None

    def setup(self) -> None:
        self.weights = model.init_backbone(self.backbone, Rng(self.seed))
        self.bank = adapters.init_adapters(self.arc, self.backbone, Rng(self.seed + 2))
        self.data = training.make_task(self.task, Rng(self.seed + 1))

    def prepare(self, checks: Checks) -> None:
        checks.record("census", census_matches(self.bank, self.backbone))

    def cycle(self, checks: Checks) -> dict[str, float]:
        weights = {name: arr.copy() for name, arr in self.weights.items()}
        bank = dataclasses.replace(
            self.bank, tensors={name: arr.copy() for name, arr in self.bank.tensors.items()})
        frozen = frozen_checksum(weights)
        start = perf_counter()
        result = training.train(self.backbone, weights, bank, self.data, self.train_cfg,
                                max_steps=self.STEPS)
        elapsed = perf_counter() - start
        checks.record("frozen backbone unchanged", frozen_checksum(weights) == frozen)
        losses = np.array([rec.loss for rec in result.curve])
        checks.record("losses finite", losses.size == self.STEPS and bool(np.isfinite(losses).all()))
        self.curve_sha256 = hashlib.sha256(losses.tobytes()).hexdigest()
        return {"train": elapsed}

    def named_metrics(self, stage_s: dict[str, float]) -> dict:
        return {"train_images_per_s": (self.images_per_cycle / stage_s["train"], "1/s")}

    def fingerprints(self) -> dict:
        return {"loss_curve_sha256": self.curve_sha256}


class Deploy:
    """A ViT-B-depth backbone at reduced width: fuse, verify, then fused inference.

    Set-up draws about 2.4M scalar normals for the backbone. The loop writes
    one checkpoint and reads three, and runs the Eager forward; no tape and
    no SVD.
    """

    setup_reps = 3
    IMAGES = 32
    TRIALS = 32

    def __init__(self, seed: int, run_dir: Path):
        self.seed = seed
        self.run_dir = run_dir
        self.ckpt = str(run_dir / "checkpoint.arcl")
        self.fused = str(run_dir / "fused.arcl")
        self.fused_sha256 = None

    def setup(self) -> None:
        cfg = write_run_config(self.run_dir, {
            "backbone": {"image_size": 32, "patch_size": 8, "channels": 1, "embed_dim": 128,
                         "layers": 12, "heads": 4, "classes": 10},
            "arc": {"bottleneck": 50},
            "task": {"classes": 10, "image_size": 32, "channels": 1},
            "io": {"seed": self.seed},
        })
        weights = model.init_backbone(cfg.backbone, Rng(cfg.seed))
        bank = adapters.init_adapters(cfg.arc, cfg.backbone, Rng(cfg.seed + 2))
        gen = np.random.default_rng(self.seed)
        for group in cfg.arc.groups:
            for layer in bank.layers:
                for key, scale in ((cfg.arc.coef_key(group, layer), 0.1),
                                   (cfg.arc.bias_key(group, layer), 0.01)):
                    bank.tensors[key] = gen.normal(0.0, scale, bank.tensors[key].shape)
        tensors = dict(weights)
        tensors.update(bank.tensors)
        checkpoint.save(self.ckpt, tensors, cfg.digest())
        self.cfg, self.weights, self.bank = cfg, weights, bank

    def prepare(self, checks: Checks) -> None:
        checks.record("census", census_matches(self.bank, self.cfg.backbone))
        self.fused_sha256 = checksum(reference_fuse(self.weights, self.bank, self.cfg.backbone).tensors)
        gen = np.random.default_rng((self.seed, 1))
        size = self.cfg.backbone.image_size
        self.images = gen.normal(size=(self.IMAGES, size, size, self.cfg.backbone.channels))
        self.labels = gen.integers(0, self.cfg.backbone.classes, self.IMAGES)

    def cycle(self, checks: Checks) -> dict[str, float]:
        t0 = perf_counter()
        checks.record("fuse exits 0", run_cli("fuse", "--checkpoint", self.ckpt, "--out", self.fused) == 0)
        t1 = perf_counter()
        checks.record("verify passes", run_cli(
            "verify", "--checkpoint", self.ckpt, "--fused", self.fused,
            "--trials", str(self.TRIALS), "--seed", str(self.seed)) == 0)
        t2 = perf_counter()
        header, fused = load_checkpoint(self.fused)
        checks.record("fused checkpoint reloads bit-exact",
                      header.fused and checksum(fused) == self.fused_sha256)
        t3 = perf_counter()
        loss, _ = training.evaluate(self.cfg.backbone, fused, None, self.images, self.labels)
        t4 = perf_counter()
        checks.record("inference loss finite", math.isfinite(loss))
        return {"fuse": t1 - t0, "verify": t2 - t1, "infer": t4 - t3}

    def named_metrics(self, stage_s: dict[str, float]) -> dict:
        return {
            "fuse_s": (stage_s["fuse"], "s"),
            "verify_s": (stage_s["verify"], "s"),
            "infer_images_per_s": (self.IMAGES / stage_s["infer"], "1/s"),
        }

    def fingerprints(self) -> dict:
        return {"fused_weights_checksum": self.fused_sha256}


class Spectrum:
    """``arclab spectrum`` on a full-rank bank of 8 planted rank-8 deltas (D=64, L=12).

    Jacobi SVD is nearly all of the loop; no training and one checkpoint
    read per cycle. The bank sits in layers 1-4 only, so a cycle is short
    next to the bursts in machine speed that the speed reference corrects.
    The planted noise sits far below the 1% effective-rank threshold, so the
    expected median effective rank is exactly RANK.
    """

    setup_reps = 3
    LAYERS = (1, 2, 3, 4)
    RANK = 8
    NOISE = 1e-6

    def __init__(self, seed: int, run_dir: Path):
        self.seed = seed
        self.run_dir = run_dir
        self.ckpt = str(run_dir / "checkpoint.arcl")
        self.out = run_dir / "spectra"
        self.csv_sha256 = None

    def setup(self) -> None:
        cfg = write_run_config(self.run_dir, {
            "backbone": {"image_size": 8, "patch_size": 4, "channels": 1, "embed_dim": 64,
                         "layers": 12, "heads": 4, "classes": 4},
            "arc": {"variant": "full_rank", "positions": ["before_mha", "before_ffn"],
                    "insertion_layers": list(self.LAYERS)},
            "task": {"classes": 4, "image_size": 8, "channels": 1},
            "io": {"seed": self.seed},
        })
        weights = model.init_backbone(cfg.backbone, Rng(cfg.seed))
        bank = adapters.init_adapters(cfg.arc, cfg.backbone, Rng(cfg.seed + 2))
        gen = np.random.default_rng(self.seed)
        d = cfg.backbone.embed_dim
        for group in cfg.arc.groups:
            for layer in bank.layers:
                u = np.linalg.qr(gen.normal(size=(d, self.RANK)))[0]
                v = np.linalg.qr(gen.normal(size=(d, self.RANK)))[0]
                s = np.geomspace(4.0, 0.5, self.RANK)
                noise = gen.normal(scale=self.NOISE, size=(d, d))
                bank.tensors[cfg.arc.delta_key(group, layer)] = (u * s) @ v.T + noise
        tensors = dict(weights)
        tensors.update(bank.tensors)
        checkpoint.save(self.ckpt, tensors, cfg.digest())
        self.cfg, self.bank = cfg, bank

    def prepare(self, checks: Checks) -> None:
        checks.record("census", census_matches(self.bank, self.cfg.backbone))

    def cycle(self, checks: Checks) -> dict[str, float]:
        start = perf_counter()
        rc = run_cli("spectrum", "--checkpoint", self.ckpt, "--bins", "50", "--out", str(self.out))
        elapsed = perf_counter() - start
        checks.record("spectrum exits 0", rc == 0)
        summary = self.out / "spectrum_summary.csv"
        ranks = []
        if summary.is_file():
            with open(summary, newline="") as fh:
                ranks = [int(row["effective_rank"]) for row in csv.DictReader(fh)]
        checks.record("planted rank recovered",
                      len(ranks) == len(self.bank.tensors) and statistics.median(ranks) == self.RANK)
        self.csv_sha256 = digest_files(self.out.glob("*.csv"))
        return {"spectrum": elapsed}

    def named_metrics(self, stage_s: dict[str, float]) -> dict:
        return {"spectrum_s": (stage_s["spectrum"], "s")}

    def fingerprints(self) -> dict:
        return {"spectrum_csv_sha256": self.csv_sha256}


WORKLOADS = {"train": Train, "deploy": Deploy, "spectrum": Spectrum}
