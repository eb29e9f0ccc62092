"""Command-line front end: train, fuse, verify, count, spectrum, gradcheck.

Run configs are strict JSON documents with sections ``backbone``, ``arc``,
``train``, ``task`` and ``io``; unknown sections or keys are rejected so a
typo can never silently fall back to a default. Every known key is checked,
but ``arc.variant: full_rank`` ignores ``arc.bottleneck``, ``arc.sharing``
and ``arc.dropout_rate``: its bank is one square delta per layer and group,
with no dropout. Every command echoes the fully-defaulted effective config
it ran with.

Exit codes: 0 success, 1 a verification failed, 2 configuration error
(an unreadable config or checkpoint path included, a config nested too
deeply to parse, and a run whose arrays do not fit in memory or have a
size numpy refuses, reported as ``out of memory: ...``), 3 numerical
abort, 141 (128 + SIGPIPE) a reader that closed stdout early, with nothing
on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import functools
import json
import math
import os
import re
import sys
import types
import typing
from pathlib import Path

import numpy as np

from . import accounting, analysis, checkpoint, model, reparam, training
from .adapters import (AdapterBank, ArcConfig, adapter_shapes, check_shapes, dropout_masks,
                       init_adapters)
from .autodiff import gradcheck
from .errors import CheckpointError, ConfigError, NumericalError, ShapeError, TrainingAborted
from .kernel import Rng
from .model import BackboneConfig
from .training import SyntheticTask, TrainConfig

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE


@dataclasses.dataclass(frozen=True)
class IoConfig:
    """The run's seed and its default output directory."""

    seed: int = 0
    out_dir: str | None = None

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.out_dir == "":
            raise ConfigError("out_dir must be a non-empty path or null")


_SECTIONS = {
    "backbone": BackboneConfig,
    "arc": ArcConfig,
    "train": TrainConfig,
    "task": SyntheticTask,
    "io": IoConfig,
}

_DEFAULTS = {  # over the dataclass defaults; the task takes its shape from the backbone
    "backbone": dict(image_size=8, patch_size=4, channels=1, embed_dim=16, layers=3, heads=2,
                     classes=4),
    "arc": dict(bottleneck=4),  # ArcConfig's 50 is the ViT-B value; it overflows embed_dim 16
    "train": dict(lr=0.01, epochs=25, batch_size=8, warmup_epochs=2),
}


@dataclasses.dataclass
class RunConfig:
    backbone: BackboneConfig
    arc: ArcConfig
    train: TrainConfig
    task: SyntheticTask
    io: IoConfig

    @property
    def seed(self) -> int:
        return self.io.seed

    def as_dict(self) -> dict:
        """Each section as a dict of its fields. Every field is a number, a
        str, None or a tuple, so the dicts share those values with the
        sections; ``dataclasses.asdict`` would deep-copy each one."""
        sections = {name: getattr(self, name) for name in _SECTIONS}
        return {name: {field.name: getattr(section, field.name)
                       for field in dataclasses.fields(section)}
                for name, section in sections.items()}

    def digest(self) -> bytes:
        doc = self.as_dict()
        doc["io"]["out_dir"] = None  # out_dir is not identity
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

    def unique_keys(pairs: list) -> dict:
        doc = {}
        for key, value in pairs:
            if key in doc:
                raise ConfigError(f"config {path} repeats the key {key!r}")
            doc[key] = value
        return doc

    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh, parse_constant=reject_constant, parse_float=finite_float,
                            object_pairs_hook=unique_keys)
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    except RecursionError:  # the parser recurses once per nested array or object
        raise ConfigError(f"config {path} nests arrays or objects too deeply to parse") from None
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    unknown = sorted(set(doc) - set(_SECTIONS))
    if unknown:
        raise ConfigError(f"unknown section {unknown[0]!r}")
    sections = {}
    for name, cls in _SECTIONS.items():
        data, defaults = doc.get(name, {}), dict(_DEFAULTS.get(name, {}))
        if name == "train" and isinstance(data, dict) and _is_a(data.get("epochs"), int):
            # a defaulted warmup never outlasts a shorter run
            defaults["warmup_epochs"] = min(defaults["warmup_epochs"], data["epochs"])
        if name == "task":  # built after the backbone, whose input and head it defaults to
            defaults = {key: getattr(sections["backbone"], key)
                        for key in ("classes", "image_size", "channels")}
        sections[name] = _build_section(name, cls, data, defaults)
    cfg = RunConfig(**sections)
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


def _check_output(flag: str, path, *, directory: bool) -> None:
    """Refuse the output ``path`` given as ``flag`` before anything is read:
    an empty path, a directory where a file goes (``directory`` false), and
    a path at (``directory`` true) or under an existing non-directory,
    whose writes could never land. A missing parent is left to the write,
    which creates it or names it."""
    if os.fspath(path) == "":
        raise ConfigError(f"{flag} must be a non-empty path")
    target = Path(path)
    if not directory and target.is_dir():  # the error checkpoint.replace_file would raise
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), os.fspath(path))
    for ancestor in (target, *target.parents) if directory else target.parents:
        if ancestor.exists():
            if not ancestor.is_dir():
                raise ConfigError(f"{flag} {path}: {ancestor} exists and is not a directory")
            return


def _echo_config(cfg: RunConfig, out_dir: Path) -> None:
    """config.json in ``out_dir``, replaced atomically (:func:`checkpoint.replace_file`)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    text = json.dumps(cfg.as_dict(), indent=2, sort_keys=True) + "\n"
    checkpoint.replace_file(out_dir / "config.json", lambda fh: fh.write(text.encode()))


def _config_path(args) -> Path:
    """``--config``, or by default config.json next to ``--checkpoint``."""
    return Path(args.config or Path(args.checkpoint).parent / "config.json")


def _run_config(args) -> tuple[RunConfig, Path]:
    """The run config at :func:`_config_path` (a config error naming both
    flags when the default is missing), and its path. It is kept as
    ``args.run_config``, where :func:`main` looks for the sizes the run was
    given."""
    path = _config_path(args)
    if not (args.config or path.exists()):
        raise ConfigError(f"--config was not given, and --checkpoint {args.checkpoint} has no "
                          f"config.json beside it: {path} does not exist")
    args.run_config = load_run_config(path)
    return args.run_config, path


def _draw_run(cfg: RunConfig):
    """The frozen backbone, the fresh bank and the task of a run of ``cfg``,
    drawn from ``Rng(seed)``, ``Rng(seed + 2)`` and ``Rng(seed + 1)``."""
    return (model.init_backbone(cfg.backbone, Rng(cfg.seed)),
            init_adapters(cfg.arc, cfg.backbone, Rng(cfg.seed + 2)),
            training.make_task(cfg.task, Rng(cfg.seed + 1)))


def _load_checkpoint(cfg: RunConfig, config_path, path, fused: bool, bank_only: bool = False):
    """``(weights, bank)`` of the checkpoint at ``path``, which must carry
    ``cfg``'s digest and the ``fused`` flag, in that order. The bank's
    records are the names :func:`adapters.adapter_shapes` gives ``cfg``,
    and the record heads are checked in one :func:`adapters.check_shapes`
    against the backbone's table plus, when unfused, that one: a fused
    checkpoint holds the backbone alone and yields no bank, an unfused one
    yields a bank of those records. With ``bank_only`` only their payloads
    are read, and ``weights`` is empty."""
    bank_shapes = {} if fused else adapter_shapes(cfg.arc, cfg.backbone)
    header, tensors = checkpoint.load(path, keep=bank_shapes.__contains__ if bank_only else None)
    if header.config_digest != cfg.digest():
        raise CheckpointError(f"checkpoint {path} was not produced by config {config_path}")
    if header.fused != fused:
        raise ConfigError(f"checkpoint {path} "
                          f"{'does not carry' if fused else 'already carries'} the fused flag")
    try:
        check_shapes({**model.weight_shapes(cfg.backbone), **bank_shapes}, header.shapes)
    except ShapeError as exc:
        raise ShapeError(f"checkpoint {path}: {exc}") from None
    bank = None if fused else AdapterBank(cfg.arc, cfg.backbone, {
        name: tensors.pop(name) for name in bank_shapes})
    return tensors, bank


def cmd_train(args) -> int:
    if args.out is not None:  # a given --out is refused before the config is read
        _check_output("--out", args.out, directory=True)
    cfg, _ = _run_config(args)
    out_dir = Path(args.out or cfg.io.out_dir or "runs/latest")
    if args.out is None:  # io.out_dir's, before the run, not after it
        _check_output("--out", out_dir, directory=True)
    weights, bank, data = _draw_run(cfg)
    result = training.train(cfg.backbone, weights, bank, data, cfg.train)
    train_loss, train_acc = training.evaluate(
        cfg.backbone, weights, bank, data.train_images, data.train_labels)
    eval_loss, eval_acc = training.evaluate(
        cfg.backbone, weights, bank, data.eval_images, data.eval_labels)
    # the output directory appears only once training and evaluation have succeeded
    _echo_config(cfg, out_dir)
    checkpoint.save(out_dir / "checkpoint.arcl", {**weights, **bank.tensors}, cfg.digest())
    training.write_loss_csv(result.curve, out_dir / "loss.csv")
    print(f"steps {result.steps}  final_loss {result.final_loss:.6g}")
    print(f"train_loss {train_loss:.6g}  train_acc {train_acc:.4f}")
    print(f"eval_loss {eval_loss:.6g}  eval_acc {eval_acc:.4f}")
    print(f"wrote {out_dir / 'checkpoint.arcl'}")
    return EXIT_OK


def cmd_fuse(args) -> int:
    """Fold ``--checkpoint``'s bank into the backbone tensors just loaded
    from it, which no one else holds, and save them as the fused file: one
    weight set in memory, and the checkpoint on disk is only read. An
    ``--out`` that :func:`_check_output` refuses, or by any path a file
    fuse reads, the checkpoint or the run config, is a config error raised
    before either is read."""
    _check_output("--out", args.out, directory=False)
    out = Path(args.out)
    for flag, path in (("--checkpoint", args.checkpoint), ("--config", _config_path(args))):
        if out.exists() and os.path.exists(path) and os.path.samefile(out, path):
            raise ConfigError(f"--out {args.out} is the {flag} file {path}: "
                              "fuse would overwrite a file it reads")
    cfg, config_path = _run_config(args)
    weights, bank = _load_checkpoint(cfg, config_path, args.checkpoint, fused=False)
    sites = reparam.fold(weights, bank, cfg.backbone)
    out.parent.mkdir(parents=True, exist_ok=True)
    checkpoint.save(out, weights, cfg.digest(), fused=True)
    print(f"fused {sites} adapter sites into {out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    """Compare ``--checkpoint`` run adapted with ``--fused`` run plain.

    One checkpoint is held at a time (:func:`reparam.verify_fusion`): the
    unfused file is read, checked and run, and dropped before the fused
    file is read. So the errors come in reading order: any fault of the
    unfused file or its bank (exit 2, or 3 for a non-finite adapter tensor)
    before the fused file is opened, then any fault of the fused file
    (exit 2). A ``--trials`` below 1 never gets here: the parser refuses it.
    """
    cfg, config_path = _run_config(args)
    deviation = reparam.verify_fusion(
        cfg.backbone,
        lambda: _load_checkpoint(cfg, config_path, args.checkpoint, fused=False),
        lambda: _load_checkpoint(cfg, config_path, args.fused, fused=True)[0],
        trials=args.trials, rng=Rng(args.seed))
    passed = deviation <= 1e-10
    print(f"max_logit_deviation {deviation:.6e}  {'PASS' if passed else 'FAIL'}")
    return EXIT_OK if passed else EXIT_FAILED


def cmd_count(args) -> int:
    if args.csv is not None:
        _check_output("--csv", args.csv, directory=False)
    knobs = {knob: getattr(args, flag) for knob, flag in accounting.KNOB_FLAGS.items()}
    spec = accounting.MethodSpec(args.method, **knobs)
    if args.sweep == "backbones":
        given = [f"--{flag}" for flag in ("D", "L") if getattr(args, flag) is not None]
        if given:
            raise ConfigError(f"--sweep backbones takes its D and L from each backbone; "
                              f"drop {' and '.join(given)}")
        backbones = accounting.DEFAULT_BACKBONES
    else:
        d = 768 if args.D is None else args.D
        layers = 12 if args.L is None else args.L
        if args.sweep == "layers":
            if layers < 1:
                raise ConfigError(f"--sweep layers needs --L >= 1, got {layers}")
            backbones = [(f"L={n}", d, n) for n in range(1, layers + 1)]
        else:
            backbones = [(f"D={d}", d, layers)]
    rows = accounting.scaling_table(spec, backbones)
    if args.csv:  # before any output, so a failed write prints nothing
        accounting.write_rows_csv(rows, args.method, args.csv)
    print(accounting.format_rows(rows, args.method))
    if args.csv:
        print(f"wrote {args.csv}")
    return EXIT_OK


def cmd_spectrum(args) -> int:
    """Spectra of ``--checkpoint``'s adapter matrices. Only the bank's
    payloads are read; the backbone is checked from its record heads."""
    _check_output("--out", args.out, directory=True)
    cfg, config_path = _run_config(args)
    _, bank = _load_checkpoint(cfg, config_path, args.checkpoint, fused=False, bank_only=True)
    reports = analysis.rank_sweep(bank, bins=args.bins)
    paths = analysis.write_spectrum_csvs(reports, args.out)
    median_rank = np.median([r.effective_rank for r in reports])
    print(f"analyzed {len(reports)} matrices  median_effective_rank {median_rank:.6g}")
    print(f"wrote {len(paths)} files under {args.out}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    """Finite differences against the analytic gradients of one training
    step (:func:`training.record_step`), the graph ``train`` differentiates:
    the task's first ``batch_size`` training images from the bank's first
    cut, with one dropout draw held fixed. The trainables are the head, as
    drawn, and the bank, drawn away from its identity init."""
    cfg, _ = _run_config(args)
    weights, bank, data = _draw_run(cfg)
    perturb = Rng(cfg.seed + 3)
    live = {name: weights[name] for name in model.HEAD_NAMES}
    live.update({name: perturb.normals(arr.shape, 0.3) for name, arr in bank.tensors.items()})
    batch = slice(cfg.train.batch_size)
    images, labels = data.train_images[batch], data.train_labels[batch]
    masks = dropout_masks(bank, len(labels), Rng(cfg.seed + 4))
    state = training.frozen_prefix(cfg.backbone, weights, bank, images, len(images))
    report = gradcheck(lambda tape, values: training.record_step(
        tape, cfg.backbone, weights, bank, values, state, labels, masks)[1], live, tol=args.tol)
    print(report.summary())
    return EXIT_OK if report.passed else EXIT_FAILED


# numpy's refusals of an array size it cannot represent, raised before it allocates
_NUMPY_SIZE_REFUSALS = ("Maximum allowed dimension exceeded", "Maximum allowed size exceeded",
                        "array is too big")


def _largest_size(args) -> str:
    """``--flag value`` or ``section.key value`` of the largest integer the
    command was given, seeds aside: an array size numpy refuses grows from
    the command's integers."""
    given = {f"--{name}": value for name, value in vars(args).items()}
    if hasattr(args, "run_config"):
        given.update((f"{section}.{key}", value)
                     for section, fields in args.run_config.as_dict().items()
                     for key, value in fields.items())
    sizes = [(value, name) for name, value in given.items()
             if _is_a(value, int) and not name.endswith("seed")]
    return "{1} {0}".format(*max(sizes)) if sizes else "its input"


def _checked(convert, valid, rule: str):
    """An argparse ``type=``: ``convert(text)``, refused as ``must be
    <rule>`` unless ``valid`` holds for it. argparse names the flag and
    exits 2 before any command runs."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not valid(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
        return value
    return parse


# numpy's PCG64 takes non-negative seeds only
_seed = _checked(int, lambda value: value >= 0, "a non-negative integer")
_count = _checked(int, lambda value: value >= 1, "an integer >= 1")  # --trials, --bins
# an infinite tol would pass any gradient, and a NaN or negative one fail every gradient
_tolerance = _checked(float, lambda value: math.isfinite(value) and value > 0, "finite and > 0")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``arclab`` parser, built once per process: ``parse_args`` keeps no
    state on it, and usage errors and ``--help`` write to the ``sys.stderr``
    and ``sys.stdout`` of the call."""
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
    p.add_argument("--trials", type=_count, default=32)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("count", help="closed-form parameter counts")
    p.add_argument("--method", required=True, choices=accounting.METHODS)
    p.add_argument("--D", type=int, default=None, help="embedding width (default: 768)")
    p.add_argument("--L", type=int, default=None, help="encoder depth (default: 12)")
    for flag in accounting.KNOB_FLAGS.values():
        p.add_argument(f"--{flag}", type=int, default=None)
    p.add_argument("--sweep", choices=("layers", "backbones"), default=None)
    p.add_argument("--csv", default=None)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("spectrum", help="singular-value spectra of each adapter's matrix")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--bins", type=_count, default=analysis.DEFAULT_BINS)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("gradcheck", help="finite-difference check of a training step's gradients")
    p.add_argument("--config", required=True)
    p.add_argument("--tol", type=_tolerance, default=1e-5)
    p.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout shows here, not in the interpreter's exit flush
        return code
    except BrokenPipeError:  # the reader closed stdout: exit as SIGPIPE would, silently
        devnull = os.open(os.devnull, os.O_WRONLY)  # so the final flush of stdout writes nowhere
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except (ConfigError, ShapeError, CheckpointError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:  # numpy's message names the size; Python's may be empty
        reason = str(exc) or (f"an allocation grown from {_largest_size(args)}, "
                              "the largest size given, failed")
        print(f"out of memory: {reason}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        if not str(exc).startswith(_NUMPY_SIZE_REFUSALS):
            raise  # any other ValueError is a program bug, and keeps its traceback
        print(f"out of memory: numpy cannot size an array grown from {_largest_size(args)}, "
              f"the largest size given: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (TrainingAborted, NumericalError) as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
