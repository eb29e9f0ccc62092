"""Closed-form trainable-parameter counts for adapter-style tuning methods.

Counts cover the adaptation parameters only; classification-head
parameters vary per task and are left out. The re-composing adapter's
fine-tuning cost is ``2 (D D' + (D' + D) L)``: the projection term is paid
once, so the marginal cost of one more layer is ``2 (D' + D)`` rather than
growing with the projection size.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

from .adapters import ArcConfig, resolved_layers
from .errors import ConfigError

METHODS = ("adapter", "vpt_shallow", "vpt_deep", "lora", "ssf", "arc", "arc_att")

# knob -> the methods that require it
_KNOBS = {
    "bottleneck": ("adapter", "lora", "arc", "arc_att"),
    "prompts": ("vpt_shallow", "vpt_deep"),
    "attn_matrices": ("lora",),
    "operations": ("ssf",),
}
# knob -> its `arclab count` flag, named after its symbol (D', m, w, o)
KNOB_FLAGS = {"bottleneck": "Dprime", "prompts": "m", "attn_matrices": "w", "operations": "o"}

DEFAULT_BACKBONES = (("ViT-B", 768, 12), ("ViT-L", 1024, 24), ("ViT-H", 1280, 32))


@dataclass(frozen=True)
class MethodSpec:
    """One method plus exactly the knobs it uses.

    ``bottleneck`` is the projection hidden width D', ``prompts`` the
    prompt-token count m, ``attn_matrices`` the number of adapted attention
    matrices w, ``operations`` the number of modulated operations o.
    """

    method: str
    bottleneck: int | None = None
    prompts: int | None = None
    attn_matrices: int | None = None
    operations: int | None = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}; expected one of {METHODS}")
        for knob, needed_by in _KNOBS.items():
            value, name = getattr(self, knob), f"knob {knob!r} (--{KNOB_FLAGS[knob]})"
            if self.method in needed_by:
                if value is None:
                    raise ConfigError(f"method {self.method!r} needs {name}")
                if value < 1:
                    raise ConfigError(f"{name} must be >= 1, got {value}")
            elif value is not None:
                raise ConfigError(f"method {self.method!r} does not take {name}")


def _check_dims(d: int, layers: int) -> None:
    if d < 1 or layers < 1:
        raise ConfigError(f"D and L must be positive, got D={d}, L={layers}")


def count_finetune(spec: MethodSpec, d: int, layers: int) -> int:
    """Extra trainable parameters during fine-tuning (head excluded)."""
    _check_dims(d, layers)
    dp, m, w, o = spec.bottleneck, spec.prompts, spec.attn_matrices, spec.operations
    if spec.method == "adapter":
        return 2 * d * dp * layers
    if spec.method == "vpt_shallow":
        return m * d
    if spec.method == "vpt_deep":
        return m * d * layers
    if spec.method == "lora":
        return 2 * w * d * dp * layers
    if spec.method == "ssf":
        return 2 * o * d * layers
    if spec.method == "arc":  # the default bank: 2 (D D' + (D' + D) L)
        return count_arc_config(ArcConfig(bottleneck=dp), d, layers)
    # arc_att, the default bank's attention side alone: D D' + (D' + D) L
    return count_arc_config(ArcConfig(bottleneck=dp, positions=("before_mha",)), d, layers)


def count_inference(spec: MethodSpec, d: int, layers: int) -> int:
    """Extra parameters carried into inference: zero for the linear,
    re-parameterizable methods; unchanged for the rest."""
    _check_dims(d, layers)
    if spec.method in ("lora", "ssf", "arc", "arc_att"):
        return 0
    return count_finetune(spec, d, layers)


def count_arc_config(config: ArcConfig, d: int, layers: int) -> int:
    """Closed-form count for an arbitrary adapter configuration.

    Derived from structure: per active position group, the (possibly
    shared) projections, plus per inserted layer a D'-dim coefficient
    vector and a D-dim bias. Must equal the bank census exactly.
    """
    _check_dims(d, layers)
    n_ins = len(resolved_layers(config, layers))
    groups = len(config.groups)
    if config.variant == "full_rank":
        return groups * n_ins * d * d
    dp = config.bottleneck
    per_layer = groups * (dp + d) * n_ins
    if config.sharing == "intra_inter":
        proj = groups * d * dp
    elif config.sharing == "intra_inter_star":
        proj = d * dp
    elif config.sharing == "non_intra_inter":
        proj = groups * 2 * d * dp
    else:  # non_intra_non_inter
        proj = groups * 2 * d * dp * n_ins
    return proj + per_layer


@dataclass(frozen=True)
class ScalingRow:
    label: str
    embed_dim: int
    layers: int
    finetune: int
    inference: int


def scaling_table(spec: MethodSpec, backbones) -> list[ScalingRow]:
    """Counts for each (label, D, L) row of ``backbones``; rejects a row
    whose D or L is not positive, and then a bottleneck or rank wider than
    a row's D."""
    rows = []
    for label, d, layers in backbones:
        _check_dims(d, layers)
        if spec.bottleneck is not None and spec.bottleneck > d:
            raise ConfigError(f"bottleneck {spec.bottleneck} exceeds embed_dim {d}")
        rows.append(ScalingRow(label, d, layers, count_finetune(spec, d, layers),
                               count_inference(spec, d, layers)))
    return rows


def _table(rows: list[ScalingRow], method: str) -> list[list[str]]:
    """Header and cells of the count table, in its fixed column order."""
    return [["method", "label", "D", "L", "finetune", "inference"]] + [
        [method, r.label, str(r.embed_dim), str(r.layers), str(r.finetune), str(r.inference)]
        for r in rows
    ]


def format_rows(rows: list[ScalingRow], method: str) -> str:
    """Aligned text table."""
    table = _table(rows, method)
    widths = [max(len(row[i]) for row in table) for i in range(len(table[0]))]
    return "\n".join("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
                     for row in table)


def write_rows_csv(rows: list[ScalingRow], method: str, path) -> None:
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(_table(rows, method))
