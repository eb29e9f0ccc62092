"""Command-line front end: train, fuse, verify, count, spectrum, gradcheck.

Run configs are strict JSON documents with sections ``backbone``, ``arc``,
``train``, ``task`` and ``io``; unknown sections or keys are rejected so a
typo can never silently fall back to a default. Every command echoes the
fully-defaulted effective config it ran with.

Exit codes: 0 success, 1 a verification failed, 2 configuration error
(an unreadable config or checkpoint path included, and a run whose arrays
do not fit in memory, reported as ``out of memory: ...``), 3 numerical
abort.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import re
import sys
import types
import typing
from pathlib import Path

import numpy as np

from . import accounting, analysis, checkpoint, model, reparam, training
from .adapters import AdapterBank, ArcConfig, init_adapters
from .autodiff import gradcheck
from .errors import CheckpointError, ConfigError, NumericalError, ShapeError, TrainingAborted
from .kernel import Rng
from .model import BackboneConfig
from .training import SyntheticTask, TrainConfig

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

_SECTIONS = {
    "backbone": BackboneConfig,
    "arc": ArcConfig,
    "train": TrainConfig,
    "task": SyntheticTask,
}

_BACKBONE_DEFAULTS = dict(image_size=8, patch_size=4, channels=1, embed_dim=16,
                          layers=3, heads=2, classes=4)
_TRAIN_DEFAULTS = dict(lr=0.01, epochs=25, batch_size=8, warmup_epochs=2)
_ARC_DEFAULTS = dict(bottleneck=4)  # ArcConfig's 50 is the ViT-B value; it overflows embed_dim 16


@dataclasses.dataclass
class RunConfig:
    backbone: BackboneConfig
    arc: ArcConfig
    train: TrainConfig
    task: SyntheticTask
    seed: int
    out_dir: str | None

    def as_dict(self) -> dict:
        doc = {name: dataclasses.asdict(getattr(self, name)) for name in _SECTIONS}
        doc["io"] = {"seed": self.seed, "out_dir": self.out_dir}
        return doc

    def digest(self) -> bytes:
        doc = self.as_dict()
        doc["io"] = {"seed": self.seed, "out_dir": None}  # out_dir is not identity
        return checkpoint.config_digest(doc)


_TYPE_NAMES = {int: ("an integer", "integers"), float: ("a number", "numbers"),
               str: ("a string", "strings")}


def _check_value(where: str, hint, value):
    """``value`` as a field annotated ``hint`` takes it (a JSON list becomes a
    tuple); raises ConfigError naming ``where`` when the type is wrong."""
    optional = isinstance(hint, types.UnionType)
    if optional:
        if value is None:
            return None
        hint = next(arg for arg in hint.__args__ if arg is not type(None))
    if typing.get_origin(hint) is tuple:
        element = typing.get_args(hint)[0]
        if isinstance(value, list) and all(_is_a(item, element) for item in value):
            return tuple(value)
        expected = f"a list of {_TYPE_NAMES[element][1]}"
    elif _is_a(value, hint):
        return value
    else:
        expected = _TYPE_NAMES[hint][0]
    raise ConfigError(f"{where} must be {expected}{' or null' if optional else ''}, "
                      f"got {value!r}")


def _is_a(value, hint) -> bool:
    if isinstance(value, bool):  # JSON true/false is never a number here
        return False
    return isinstance(value, (int, float) if hint is float else hint)


@functools.cache
def _field_types(cls) -> dict:
    """The resolved field types of a config dataclass, read once per class:
    with postponed annotations each read compiles every annotation string."""
    return typing.get_type_hints(cls)


def _build_section(name: str, cls, data, defaults: dict):
    if not isinstance(data, dict):
        raise ConfigError(f"section {name!r} must be a JSON object, got {data!r}")
    unknown = sorted(set(data) - {f.name for f in dataclasses.fields(cls)})
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r} in section {name!r}")
    hints = _field_types(cls)
    merged = dict(defaults)
    merged.update({key: _check_value(f"{name}.{key}", hints[key], value)
                   for key, value in data.items()})
    try:
        return cls(**merged)
    except ConfigError as exc:  # each key of the section the message names becomes section.key
        pattern = rf"""('[^']*'|"[^"]*")|\b({'|'.join(hints)})\b"""  # a quoted value stays as it is
        raise ConfigError(re.sub(pattern, lambda m: m[1] or f"{name}.{m[2]}", str(exc))) from None


def load_run_config(path) -> RunConfig:
    def reject_constant(name: str):
        raise ConfigError(f"config {path} holds the non-finite JSON constant {name}")

    def finite_float(text: str) -> float:
        value = float(text)
        if not math.isfinite(value):
            raise ConfigError(f"config {path} holds the number {text}, which overflows a float")
        return value

    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh, parse_constant=reject_constant, parse_float=finite_float)
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    unknown = sorted(set(doc) - (set(_SECTIONS) | {"io"}))
    if unknown:
        raise ConfigError(f"unknown section {unknown[0]!r}")
    io = doc.get("io", {})
    if not isinstance(io, dict):
        raise ConfigError(f"section 'io' must be a JSON object, got {io!r}")
    io_unknown = sorted(set(io) - {"seed", "out_dir"})
    if io_unknown:
        raise ConfigError(f"unknown key {io_unknown[0]!r} in section 'io'")
    train_defaults = dict(_TRAIN_DEFAULTS)
    train = doc.get("train")
    if isinstance(train, dict) and _is_a(train.get("epochs"), int):
        # a defaulted warmup never outlasts a shorter run
        train_defaults["warmup_epochs"] = min(train_defaults["warmup_epochs"], train["epochs"])
    sections = {}
    section_defaults = {"backbone": _BACKBONE_DEFAULTS, "train": train_defaults,
                        "arc": _ARC_DEFAULTS}
    for name, cls in _SECTIONS.items():
        if name == "task":  # built after the backbone, whose input and head it defaults to
            section_defaults[name] = {key: getattr(sections["backbone"], key)
                                      for key in ("classes", "image_size", "channels")}
        sections[name] = _build_section(name, cls, doc.get(name, {}), section_defaults[name])
    seed = _check_value("io.seed", int, io.get("seed", 0))
    out_dir = _check_value("io.out_dir", str | None, io.get("out_dir"))
    cfg = RunConfig(seed=seed, out_dir=out_dir, **sections)
    if cfg.task.image_size != cfg.backbone.image_size or cfg.task.channels != cfg.backbone.channels:
        raise ConfigError(
            f"task images {cfg.task.image_size}x{cfg.task.image_size}x{cfg.task.channels} "
            f"do not match backbone input "
            f"{cfg.backbone.image_size}x{cfg.backbone.image_size}x{cfg.backbone.channels}"
        )
    if cfg.task.classes != cfg.backbone.classes:
        raise ConfigError(
            f"task classes {cfg.task.classes} do not match backbone head {cfg.backbone.classes}"
        )
    return cfg


def _echo_config(cfg: RunConfig, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.json").write_text(json.dumps(cfg.as_dict(), indent=2, sort_keys=True) + "\n")


def _sidecar_config(args) -> tuple[RunConfig, Path]:
    """The run config ``--config`` names (default: config.json next to the
    checkpoint), and its path."""
    path = Path(args.config) if args.config else Path(args.checkpoint).parent / "config.json"
    return load_run_config(path), path


def _load_checkpoint(cfg: RunConfig, config_path, path, fused: bool):
    """``(weights, bank)`` of the checkpoint at ``path``, which must carry
    ``cfg``'s digest and the ``fused`` flag, in that order, and hold a full
    backbone. An unfused checkpoint yields a bank of its ``arc.*`` tensors;
    a fused one must hold none and yields None."""
    header, tensors = checkpoint.load(path)
    if header.config_digest != cfg.digest():
        raise CheckpointError(f"checkpoint {path} was not produced by config {config_path}")
    if header.fused != fused:
        raise ConfigError(f"checkpoint {path} "
                          f"{'does not carry' if fused else 'already carries'} the fused flag")
    weights = {k: v for k, v in tensors.items() if fused or not k.startswith("arc.")}
    try:
        model.validate_weights(cfg.backbone, weights)
        bank = None if fused else AdapterBank(cfg.arc, cfg.backbone, {
            k: v for k, v in tensors.items() if k.startswith("arc.")})
    except ShapeError as exc:
        raise ShapeError(f"checkpoint {path}: {exc}") from None
    return weights, bank


def cmd_train(args) -> int:
    cfg = load_run_config(args.config)
    out_dir = Path(args.out or cfg.out_dir or "runs/latest")
    weights = model.init_backbone(cfg.backbone, Rng(cfg.seed))
    bank = init_adapters(cfg.arc, cfg.backbone, Rng(cfg.seed + 2))
    data = training.make_task(cfg.task, Rng(cfg.seed + 1))
    before = model.frozen_checksum(weights)
    result = training.train(cfg.backbone, weights, bank, data, cfg.train)
    after = model.frozen_checksum(weights)
    if before != after:  # pragma: no cover - would be a trainer bug
        raise NumericalError("frozen backbone changed during training")
    tensors = dict(weights)
    tensors.update(bank.tensors)
    _echo_config(cfg, out_dir)  # the output directory appears only once training has succeeded
    checkpoint.save(out_dir / "checkpoint.arcl", tensors, cfg.digest())
    training.write_loss_csv(result.curve, out_dir / "loss.csv")
    train_loss, train_acc = training.evaluate(
        cfg.backbone, weights, bank, data.train_images, data.train_labels)
    eval_loss, eval_acc = training.evaluate(
        cfg.backbone, weights, bank, data.eval_images, data.eval_labels)
    print(f"steps {result.steps}  final_loss {result.final_loss:.6g}")
    print(f"train_loss {train_loss:.6g}  train_acc {train_acc:.4f}")
    print(f"eval_loss {eval_loss:.6g}  eval_acc {eval_acc:.4f}")
    print(f"wrote {out_dir / 'checkpoint.arcl'}")
    return EXIT_OK


def cmd_fuse(args) -> int:
    """Fold ``--checkpoint``'s bank into the backbone tensors just loaded
    from it, which no one else holds, and save them as the fused file: one
    weight set in memory, and the checkpoint on disk is only read."""
    cfg, config_path = _sidecar_config(args)
    weights, bank = _load_checkpoint(cfg, config_path, args.checkpoint, fused=False)
    sites = reparam.fold(weights, bank, cfg.backbone)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    checkpoint.save(out, weights, cfg.digest(), fused=True)
    print(f"fused {sites} adapter sites into {out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    """Compare ``--checkpoint`` run adapted with ``--fused`` run plain.

    One checkpoint is held at a time (:func:`reparam.verify_fusion`): the
    unfused file is read, checked and run, and dropped before the fused
    file is read. So the errors come in reading order: a bad ``--trials``
    (exit 2) before either file, then any fault of the unfused file or its
    bank (exit 2, or 3 for a non-finite adapter tensor) before the fused
    file is opened, then any fault of the fused file (exit 2).
    """
    if args.trials < 1:  # fail before either checkpoint is read
        raise ConfigError(f"--trials must be >= 1, got {args.trials}")
    cfg, config_path = _sidecar_config(args)
    deviation = reparam.verify_fusion(
        cfg.backbone,
        lambda: _load_checkpoint(cfg, config_path, args.checkpoint, fused=False),
        lambda: _load_checkpoint(cfg, config_path, args.fused, fused=True)[0],
        trials=args.trials, rng=Rng(args.seed))
    passed = deviation <= 1e-10
    print(f"max_logit_deviation {deviation:.6e}  {'PASS' if passed else 'FAIL'}")
    return EXIT_OK if passed else EXIT_FAILED


def cmd_count(args) -> int:
    spec = accounting.MethodSpec(args.method,
                                 **{knob: getattr(args, knob) for knob in accounting.KNOB_FLAGS})
    if args.sweep == "layers":
        rows = accounting.scaling_table(spec, layer_range=range(1, args.L + 1),
                                        embed_dim=args.D)
    elif args.sweep == "backbones":
        rows = accounting.scaling_table(spec, backbones=accounting.DEFAULT_BACKBONES)
    else:
        rows = accounting.scaling_table(
            spec, backbones=[(f"D={args.D}", args.D, args.L)])
    print(accounting.format_rows(rows, args.method))
    if args.csv:
        accounting.write_rows_csv(rows, args.method, args.csv)
        print(f"wrote {args.csv}")
    return EXIT_OK


def cmd_spectrum(args) -> int:
    cfg, config_path = _sidecar_config(args)
    _, bank = _load_checkpoint(cfg, config_path, args.checkpoint, fused=False)
    reports = analysis.rank_sweep(bank, bins=args.bins)
    paths = analysis.write_spectrum_csvs(reports, args.out)
    summary = analysis.sweep_summary(reports)
    print(f"analyzed {summary['reports']} matrices  "
          f"median_effective_rank {summary['median_effective_rank']:.6g}")
    print(f"wrote {len(paths)} files under {args.out}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    if not (math.isfinite(args.tol) and args.tol > 0):  # fail before the backbone is drawn
        raise ConfigError(f"--tol must be finite and > 0, got {args.tol!r}")
    cfg = load_run_config(args.config)
    weights = model.init_backbone(cfg.backbone, Rng(cfg.seed))
    bank = init_adapters(cfg.arc, cfg.backbone, Rng(cfg.seed + 2))
    perturb = Rng(cfg.seed + 3)
    live = {name: perturb.normals(arr.shape, 0.3) for name, arr in bank.tensors.items()}
    side = cfg.backbone.image_size
    image = Rng(cfg.seed + 4).normals((1, side, side, cfg.backbone.channels))
    label = np.array([0])

    def build(tape, values):
        vals = {n: tape.constant(a) for n, a in weights.items()}
        vals.update({n: tape.parameter(n, a) for n, a in values.items()})
        logits = model.forward(tape, cfg.backbone, vals, image, bank=bank)
        return tape.cross_entropy(logits, label)

    report = gradcheck(build, live, tol=args.tol)
    print(report.summary())
    return EXIT_OK if report.passed else EXIT_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="arclab",
                                     description="adapter re-composition laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train adapters + head on a synthetic task")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="output directory (default: io.out_dir)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("fuse", help="fold trained adapters into the backbone")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None,
                   help="run config (default: config.json next to the checkpoint)")
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("verify", help="compare adapted-unfused vs fused forward")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--fused", required=True)
    p.add_argument("--trials", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("count", help="closed-form parameter counts")
    p.add_argument("--method", required=True, choices=accounting.METHODS)
    p.add_argument("--D", type=int, default=768)
    p.add_argument("--L", type=int, default=12)
    for knob, flag in accounting.KNOB_FLAGS.items():
        p.add_argument(f"--{flag}", dest=knob, type=int, default=None)
    p.add_argument("--sweep", choices=("layers", "backbones"), default=None)
    p.add_argument("--csv", default=None)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("spectrum", help="singular-value spectra of each adapter's matrix")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--bins", type=int, default=analysis.DEFAULT_BINS)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("gradcheck", help="finite-difference check of adapter gradients")
    p.add_argument("--config", required=True)
    p.add_argument("--tol", type=float, default=1e-5)
    p.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ShapeError, CheckpointError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:  # numpy's message names the size it could not allocate
        print(f"out of memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (TrainingAborted, NumericalError) as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
