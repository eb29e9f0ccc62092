"""Frozen-backbone fine-tuning on synthetic class-conditional tasks.

Only the adapter bank and the classification head receive gradient
updates; everything else in the backbone stays bit-identical, which the
frozen checksum makes checkable. The optimizer is AdamW with decoupled
weight decay, linear warmup, and cosine (or constant) decay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import model
from .adapters import AdapterBank, dropout_masks
from .autodiff import Tape, backward
from .checkpoint import replace_csv
from .errors import ConfigError, TrainingAborted
from .kernel import Rng, cross_entropy

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    lr: float
    epochs: int
    batch_size: int
    weight_decay: float = 0.0
    warmup_epochs: int = 0
    schedule: str = "cosine"
    seed: int = 0

    def __post_init__(self):
        if self.lr < 0:
            raise ConfigError(f"lr must be >= 0, got {self.lr}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0 <= self.warmup_epochs <= self.epochs:
            raise ConfigError(
                f"warmup_epochs must lie in [0, epochs], got {self.warmup_epochs}"
            )
        if self.schedule not in ("cosine", "constant"):
            raise ConfigError(f"schedule must be 'cosine' or 'constant', got {self.schedule!r}")
        if self.weight_decay < 0:
            raise ConfigError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class SyntheticTask:
    """Class-conditional Gaussian images around per-class mean images."""

    classes: int
    image_size: int
    channels: int = 1
    noise_sigma: float = 0.0
    train_count: int = 32
    eval_count: int = 16
    mean_scale: float = 1.0

    def __post_init__(self):
        if self.classes < 2:
            raise ConfigError(f"classes must be >= 2, got {self.classes}")
        if self.train_count < self.classes:
            raise ConfigError(f"train_count must be >= classes {self.classes}, got {self.train_count}")
        if self.eval_count < 1:
            raise ConfigError(f"eval_count must be >= 1, got {self.eval_count}")
        if self.noise_sigma < 0:
            raise ConfigError(f"noise_sigma must be >= 0, got {self.noise_sigma}")


@dataclass
class Dataset:
    train_images: np.ndarray
    train_labels: np.ndarray
    eval_images: np.ndarray
    eval_labels: np.ndarray
    class_means: np.ndarray


def make_task(task: SyntheticTask, rng: Rng) -> Dataset:
    """Deterministic dataset: labels round-robin over classes (so counts
    divisible by the class count come out exactly balanced), images are the
    class mean plus sigma-scaled Gaussian noise."""
    shape = (task.image_size, task.image_size, task.channels)
    means = rng.normals((task.classes, *shape), task.mean_scale)

    def draw(count: int):
        labels = np.arange(count) % task.classes
        return means[labels] + task.noise_sigma * rng.normals((count, *shape)), labels

    train_x, train_y = draw(task.train_count)
    eval_x, eval_y = draw(task.eval_count)
    return Dataset(train_x, train_y, eval_x, eval_y, means)


class AdamW:
    """Adam moments plus decoupled, schedule-scaled weight decay over one
    flat parameter vector of ``size`` values.

    With gradient zero, one step multiplies the parameter by exactly
    (1 - lr_t * weight_decay): the decay path never touches the moments.
    """

    def __init__(self, size: int, weight_decay: float = 0.0):
        self.weight_decay = weight_decay
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.t = 0

    def step(self, p: np.ndarray, g: np.ndarray, lr_t: float) -> None:
        """Update ``p`` in place from its gradient ``g``."""
        self.t += 1
        decay = lr_t * self.weight_decay * p
        self.m *= ADAM_BETA1
        self.m += (1 - ADAM_BETA1) * g
        self.v *= ADAM_BETA2
        self.v += (1 - ADAM_BETA2) * (g * g)
        m_hat = self.m / (1 - ADAM_BETA1 ** self.t)
        v_hat = self.v / (1 - ADAM_BETA2 ** self.t)
        p -= lr_t * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        p -= decay


def schedule_scale(cfg: TrainConfig, step: int, total_steps: int, warmup_steps: int) -> float:
    """Linear warmup from zero, then cosine decay to zero (or constant)."""
    if warmup_steps > 0 and step < warmup_steps:
        return step / warmup_steps
    if cfg.schedule == "constant":
        return 1.0
    span = max(total_steps - warmup_steps, 1)
    return 0.5 * (1.0 + math.cos(math.pi * (step - warmup_steps) / span))


@dataclass
class StepRecord:
    step: int
    lr: float
    loss: float
    accuracy: float


@dataclass
class TrainResult:
    curve: list[StepRecord] = field(default_factory=list)

    @property
    def steps(self) -> int:
        return len(self.curve)

    @property
    def final_loss(self) -> float:
        return self.curve[-1].loss if self.curve else float("nan")


class _Constants(dict):
    """Name -> :class:`Tape` constant over the frozen tensor ``weights[name]``,
    made when the recording first reads it, so a tape holds only the frozen
    tensors its nodes read."""

    def __init__(self, tape: Tape, weights):
        super().__init__()
        self.tape, self.weights = tape, weights

    def __missing__(self, name):
        self[name] = leaf = self.tape.constant(self.weights[name])
        return leaf


def _cut(backbone_cfg, bank: AdapterBank | None) -> int:
    """The cut (:func:`model.forward_tokens`) before a step's first node
    that reads a trainable: the bank's first site, or the head for a probe."""
    return model.head_cut(backbone_cfg) if bank is None else model.site_cut(*bank.sites[0])


def frozen_prefix(backbone_cfg, weights, bank: AdapterBank | None, images,
                  chunk: int) -> list[np.ndarray]:
    """The state at the cut before ``bank``'s first site (the head's for
    ``bank=None``) of every image of ``images``, from :func:`model.forward`
    with ``stop`` at that cut, as one (n, ...) array per state tensor:
    (x, z) at a site's cut, (x,) at the head cut.

    It runs over ``chunk`` images at a time, in order, so each GEMM is as
    tall as a training step's, and only one chunk's patches exist at once.
    An empty stack gives an empty list.
    """
    cut, buffers = _cut(backbone_cfg, bank), []
    for first in range(0, len(images), chunk):
        rows = slice(first, first + chunk)
        state = model.forward(backbone_cfg, weights, images[rows], stop=cut)
        if not buffers:
            buffers = [np.empty((len(images), *part.shape[1:])) for part in state]
        for buffer, part in zip(buffers, state):
            buffer[rows] = part
    return buffers


def record_step(tape: Tape, backbone_cfg, weights, bank: AdapterBank | None, params,
                state, labels, masks):
    """Record one training step on ``tape``; its (logits, loss) nodes.

    The step is the forward from the cut before ``bank``'s first site (the
    head's for ``bank=None``) to the mean cross-entropy over ``labels``:
    the graph :func:`train` differentiates. ``params`` maps each trainable's
    name to its array, which becomes a parameter, in that order. The
    batch's ``state`` at the cut (:func:`frozen_prefix`) enters as
    constants, and its ``labels`` and ``masks`` (:func:`adapters.dropout_masks`,
    or None) as static arguments, all without a copy, so refilling them in
    place and replaying the tape runs the step on another batch. A frozen
    tensor of ``weights`` becomes a constant when the recording first reads
    it, so the tape holds only those its nodes read.
    """
    values = _Constants(tape, weights)
    values.update({name: tape.parameter(name, value) for name, value in params.items()})
    logits = model.forward_tokens(tape, backbone_cfg, values, *map(tape.constant, state),
                                  bank=bank, masks=masks, start=_cut(backbone_cfg, bank))
    return logits, tape.cross_entropy(logits, labels)


def train(backbone_cfg, weights, bank: AdapterBank | None, data: Dataset,
          cfg: TrainConfig, max_steps: int | None = None) -> TrainResult:
    """Fine-tune bank + head in place; the rest of the backbone is frozen.

    ``bank=None`` trains the head alone (linear probing). Raises
    TrainingAborted on a non-finite loss; the trainable arrays then hold
    the values of the last completed step.

    The run is ``cfg.epochs`` epochs of ceil(images / batch_size) steps,
    cut after ``max_steps`` steps. It runs exactly the epochs its steps
    reach, each opening with one permutation, so no draw follows the last
    step; an empty train set runs no epoch.

    The run's state is built once. The trainables are copied into one flat
    float64 buffer that AdamW updates as a single tensor. Everything the
    forward computes before its first node that reads a trainable is a
    fixed function of the image, so :func:`frozen_prefix` computes it once
    per run, up to that cut: the bank's first site, or the head for a
    probe. For the default bank that is the patch embedding, the class
    token, the ``pos`` add and layer 1's LN1; for ``insertion_layers``
    7..12, layers 1-6 and layer 7's LN1; for a probe, the whole encoder
    and the class token's final LayerNorm. The run holds the state at the
    cut for every image: two (n, T, D) float64 buffers, the stream and the
    pending block input, or one (n, D) buffer at the head cut; no patch
    buffer is kept. A memory estimate must count them: n * T * D * 16
    bytes, 2.4 GB for 1,000 ViT-B images.

    After each epoch's permutation, one :func:`adapters.dropout_masks` draw
    covers the images of the steps that epoch runs. The run keeps one slot
    per batch size (the full size and the size of a short last batch). The
    first step of a size copies its batch's rows of the prefix buffers,
    its labels and its dropout masks (one array) into new buffers and
    records the step over them on a new :class:`Tape` (:func:`record_step`),
    with the trainables as parameters over views of the flat buffer; the
    size's slot keeps the buffers and the tape, logits and loss. Every
    later step of that size refills the slot's buffers in place
    (``np.take`` from the prefix buffers, the masks with one copy) and
    replays the recording (:meth:`Tape.replay`); nothing before the cut is
    taped, and neither replay nor :func:`backward` touches a frozen node.
    The stream is read in the order of a draw per step, every update is elementwise
    and a replay runs the recorded forwards, so the losses and values are
    the same bits as with a fresh tape of the whole forward, a draw and an
    optimizer step per tensor each step, wherever a GEMM row's bits do not
    depend on how many rows share the GEMM with it: the prefix chunks hold
    other images than the steps' batches. ``TestFrozenPrefix`` checks that at the toy
    shapes; the chunks are as tall as a step to keep the GEMMs' shapes.
    The caller's arrays get the final values when training stops.
    """
    trainable: dict[str, np.ndarray] = {name: weights[name] for name in model.HEAD_NAMES}
    if bank is not None:
        trainable.update(bank.tensors)
        bank.check_depth(backbone_cfg.layers)
    flat = np.concatenate(list(trainable.values()), axis=None, dtype=np.float64)
    views: dict[str, np.ndarray] = {}
    offset = 0
    for name, arr in trainable.items():
        views[name] = flat[offset:offset + arr.size].reshape(arr.shape)
        offset += arr.size
    opt = AdamW(flat.size, weight_decay=cfg.weight_decay)
    rng = Rng(cfg.seed)
    frozen = frozen_prefix(backbone_cfg, weights, bank, data.train_images, cfg.batch_size)
    n = len(data.train_images)
    tokens = backbone_cfg.tokens + 1
    batches_per_epoch = math.ceil(n / cfg.batch_size)
    total_steps = cfg.epochs * batches_per_epoch
    if max_steps is not None:
        total_steps = min(total_steps, max_steps)
    warmup_steps = cfg.warmup_epochs * batches_per_epoch
    result = TrainResult()
    max_grad_seen = 0.0
    step = 0
    slots = {}  # batch size -> (state, labels, masks, tape, logits, loss) of that size
    try:
        # one pass per epoch the steps reach (none for an empty train set)
        for _ in range(-(-total_steps // max(batches_per_epoch, 1))):
            order = rng.permutation(n)
            runs = min(batches_per_epoch, total_steps - step)
            masks = dropout_masks(bank, min(n, runs * cfg.batch_size), tokens, rng)
            for b in range(runs):
                rows = slice(b * cfg.batch_size, (b + 1) * cfg.batch_size)
                idx = order[rows]
                lr_t = cfg.lr * schedule_scale(cfg, step, total_steps, warmup_steps)
                if idx.size in slots:  # refill this size's buffers in place and replay
                    state, labels, batch_masks, tape, logits, loss_node = slots[idx.size]
                    for part, batch_part in zip(frozen, state):
                        np.take(part, idx, axis=0, out=batch_part)
                    np.take(data.train_labels, idx, out=labels)
                    if batch_masks is not None:
                        batch_masks[...] = masks[rows]
                    tape.replay()
                else:  # the first step of a size records over copies of its batch
                    state, labels = [part[idx] for part in frozen], data.train_labels[idx]
                    batch_masks = None if masks is None else masks[rows].copy()
                    tape = Tape()
                    logits, loss_node = record_step(tape, backbone_cfg, weights, bank, views,
                                                    state, labels, batch_masks)
                    slots[idx.size] = state, labels, batch_masks, tape, logits, loss_node
                loss = float(loss_node.value[0, 0])
                if not math.isfinite(loss):
                    raise TrainingAborted(step=step, lr=lr_t, max_grad=max_grad_seen)
                # the tape's parameters are registered in the flat buffer's order
                grad = np.concatenate(list(backward(tape, loss_node).values()), axis=None)
                max_grad_seen = max(max_grad_seen, float(np.abs(grad).max()))
                accuracy = float((logits.value.argmax(axis=1) == labels).mean())
                opt.step(flat, grad, lr_t)
                result.curve.append(StepRecord(step=step, lr=lr_t, loss=loss, accuracy=accuracy))
                step += 1
    finally:
        for name, arr in trainable.items():
            arr[...] = views[name]
    return result


def evaluate(backbone_cfg, weights, bank: AdapterBank | None, images, labels):
    """(mean loss, accuracy) of the eval-mode forward over a labeled set.

    The logits come from :func:`model.eager_logits`, which reads the
    backbone tensors from ``weights`` and the adapter tensors from ``bank``
    (None: the plain backbone). The first half of the images runs on the
    calling thread and the rest on one worker thread at the same time. They
    equal the two half-batch forwards concatenated, bit for bit, and can
    differ from one whole-batch forward in the last place. An empty set,
    or a label that is not an integer class index, raises ShapeError
    (:func:`kernel.cross_entropy`).
    """
    logits = model.eager_logits(backbone_cfg, weights, images, bank=bank)
    labels = np.asarray(labels)
    loss = cross_entropy(logits, labels)
    accuracy = float((logits.argmax(axis=1) == labels).mean())
    return loss, accuracy


def write_loss_csv(curve: list[StepRecord], path) -> None:
    """The loss curve as CSV at ``path``, replaced atomically
    (:func:`checkpoint.replace_csv`): a failed write leaves an old file as it was."""
    replace_csv(path, [["step", "lr", "loss", "accuracy"]] + [
        [rec.step, f"{rec.lr:.12g}", f"{rec.loss:.12g}", f"{rec.accuracy:.6g}"] for rec in curve])
