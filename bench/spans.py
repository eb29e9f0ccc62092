"""Span tracer for the traced benchmark run.

The tracer patches arclab's public functions at the names their callers look
them up by (``training.backward`` rather than ``autodiff.backward``, because
``training`` imported the name), times every call as a span, and keeps the
totals in memory. Python's garbage collector is traced through
``gc.callbacks``: a collection is a span of its own, nested in whatever span
was open when it started. A span's self time is its duration minus the time
its child spans cover, so self times add up to the traced wall time.

Nothing here is active unless a :class:`Tracer` is recording; the untraced
run patches nothing.
"""

from __future__ import annotations

import gc
import hashlib
import os
import statistics
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from arclab import adapters, analysis, autodiff, checkpoint, cli, kernel, model, reparam, training

# Every span the per-layer metrics report, as "<layer>.<function>".
SPANS = (
    "training.train",
    "training.adamw_step",
    "training.make_task",
    "training.evaluate",
    "autodiff.backward",
    "model.forward_tape",
    "model.forward_eager",
    "model.init_backbone",
    "adapters.arc_forward",
    "adapters.dropout_mask",
    "adapters.init_adapters",
    "kernel.rng.normals",
    "kernel.rng.uniforms",
    "kernel.rng.permutation",
    "kernel.svd",
    "reparam.fuse",
    "reparam.verify_fusion",
    "checkpoint.load",
    "checkpoint.save",
    "cli.load_run_config",
    "cli.init_adapters",
    "cli.fuse",
    "cli.verify",
    "cli.spectrum",
    "analysis.rank_sweep",
    "analysis.write_spectrum_csvs",
    "runtime.gc_pause",
)


class Book:
    """What one phase (set-up or loop) recorded."""

    def __init__(self):
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])  # name -> [calls, total s, self s]
        self.counts = defaultdict(float)
        self.step_ms: list[float] = []
        self.tape_nodes: list[int] = []
        self.max_logit_deviation = 0.0


def _forward_name(args) -> str:
    return "model.forward_tape" if isinstance(args[0], autodiff.Tape) else "model.forward_eager"


def _cli_name(args) -> str:
    return f"cli.{args[0][0]}"


class Tracer:
    """Patches arclab while :meth:`recording` is active and books each call."""

    def __init__(self):
        self.book: Book | None = None
        self.missing: list[str] = []
        self._stack: list[list] = []  # open spans: [name, start, time covered by children]
        self._step_mark = 0.0
        self._singular_values: list[bytes] = []
        self._patches = []  # (owner, attribute, original, wrapper)
        for owner, attr, name, before, after in self._targets():
            original = getattr(owner, attr, None)
            if original is None:  # the program no longer has this function
                self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
                continue
            self._patches.append((owner, attr, original, self._wrap(original, name, before, after)))

    def _targets(self):
        return (
            (training, "train", "training.train", self._start_steps, None),
            (training.AdamW, "step", "training.adamw_step", None, self._end_step),
            (training, "make_task", "training.make_task", None, None),
            (training, "evaluate", "training.evaluate", None, None),
            (training, "backward", "autodiff.backward", self._count_nodes, None),
            (model, "forward", _forward_name, None, None),
            (model, "init_backbone", "model.init_backbone", None, None),
            (adapters, "arc_forward", "adapters.arc_forward", None, None),
            (adapters, "dropout_mask", "adapters.dropout_mask", None, None),
            (adapters, "init_adapters", "adapters.init_adapters", None, None),
            (kernel.Rng, "normals", "kernel.rng.normals", None, self._count_values("normals")),
            (kernel.Rng, "uniforms", "kernel.rng.uniforms", None, self._count_values("uniforms")),
            (kernel.Rng, "permutation", "kernel.rng.permutation", None, None),
            (analysis, "svd", "kernel.svd", None, self._keep_singular_values),
            (analysis, "rank_sweep", "analysis.rank_sweep", None, None),
            (analysis, "write_spectrum_csvs", "analysis.write_spectrum_csvs", None, None),
            (reparam, "fuse", "reparam.fuse", None, self._count_sites),
            (reparam, "verify_fusion", "reparam.verify_fusion", None, self._note_deviation),
            (checkpoint, "load", "checkpoint.load", None, self._count_bytes("bytes_read")),
            (checkpoint, "save", "checkpoint.save", None, self._count_bytes("bytes_written")),
            (cli, "load_run_config", "cli.load_run_config", None, None),
            (cli, "init_adapters", "cli.init_adapters", None, None),
            (cli, "main", _cli_name, None, None),
        )

    @contextmanager
    def recording(self, book: Book):
        """Patch every target and trace the collector, booking into ``book``."""
        self.book = book
        self._singular_values = []
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        gc.callbacks.append(self._on_gc)
        try:
            yield
        finally:
            gc.callbacks.remove(self._on_gc)
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)
            self.book = None

    # -- spans ---------------------------------------------------------
    def _open(self, name: str) -> None:
        self._stack.append([name, perf_counter(), 0.0])

    def _close(self) -> None:
        name, start, covered = self._stack.pop()
        duration = perf_counter() - start
        if self._stack:
            self._stack[-1][2] += duration
        entry = self.book.spans[name]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - covered

    def _wrap(self, original, name, before, after):
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            self._open(name if isinstance(name, str) else name(args))
            try:
                result = original(*args, **kwargs)
            finally:
                self._close()
            if after is not None:
                after(args, result)
            return result

        return traced

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._open("runtime.gc_pause")
            return
        self._close()
        if info["generation"] == 2:
            self.book.counts["runtime.gc_gen2_collections"] += 1

    # -- hooks ---------------------------------------------------------
    def _start_steps(self, args) -> None:
        self._step_mark = perf_counter()

    def _end_step(self, args, result) -> None:
        """An optimizer step ends a training step."""
        now = perf_counter()
        self.book.step_ms.append((now - self._step_mark) * 1e3)
        self._step_mark = now

    def _count_nodes(self, args) -> None:
        # backward(tape, out): node ids are 0..out.idx, so the tape holds out.idx + 1 nodes
        self.book.tape_nodes.append(args[1].idx + 1)

    def _count_values(self, kind: str):
        def hook(args, result):
            self.book.counts[f"kernel.rng.{kind}_values"] += result.size
        return hook

    def _keep_singular_values(self, args, result) -> None:
        self._singular_values.append(np.asarray(result[1], dtype="<f8").tobytes())

    def singular_values_sha256(self) -> str | None:
        """Digest of the singular values of the last recording, in call order."""
        if not self._singular_values:
            return None
        return hashlib.sha256(b"".join(self._singular_values)).hexdigest()

    def _count_sites(self, args, result) -> None:
        self.book.counts["reparam.sites_fused"] += result.sites_fused

    def _note_deviation(self, args, result) -> None:
        self.book.max_logit_deviation = max(self.book.max_logit_deviation, float(result))

    def _count_bytes(self, kind: str):
        def hook(args, result):
            self.book.counts[f"checkpoint.{kind}"] += os.path.getsize(args[0])
        return hook


def layer_metrics(setup: Book, setups: int, loop: Book, cycles: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics for one set-up plus one loop cycle.

    Set-up totals are divided by the number of set-ups and loop totals by the
    number of traced cycles, so the values do not depend on how many cycles
    fit in the run. Step times and tape sizes are distributions over the
    traced steps.
    """
    metrics: dict[str, tuple[float, str]] = {}
    for name in SPANS:
        calls, total, self_time = (s / setups + c / cycles
                                   for s, c in zip(setup.spans[name], loop.spans[name]))
        metrics[f"{name}_s"] = (total, "s")
        metrics[f"{name}_self_s"] = (self_time, "s")
        metrics[f"{name}_calls"] = (calls, "count")
    for name, unit in (("runtime.gc_gen2_collections", "count"),
                       ("kernel.rng.normals_values", "count"),
                       ("kernel.rng.uniforms_values", "count"),
                       ("reparam.sites_fused", "count"),
                       ("checkpoint.bytes_read", "B"),
                       ("checkpoint.bytes_written", "B")):
        metrics[name] = (setup.counts[name] / setups + loop.counts[name] / cycles, unit)
    steps = loop.step_ms
    metrics["training.step_ms.p50"] = (statistics.median(steps) if steps else 0.0, "ms")
    metrics["training.step_ms.p95"] = (float(np.percentile(steps, 95)) if steps else 0.0, "ms")
    nodes = loop.tape_nodes
    metrics["autodiff.tape_nodes_per_step"] = (statistics.median(nodes) if nodes else 0, "count")
    metrics["reparam.max_logit_deviation"] = (max(setup.max_logit_deviation,
                                                  loop.max_logit_deviation), "abs")
    return metrics
