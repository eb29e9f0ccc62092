"""Re-composable bottleneck adapters with shared symmetric projections.

An adapter bank holds one down-projection per position group (or one in
total, or one per layer, depending on the sharing strategy), a per-layer
re-scaling coefficient vector applied as a diagonal, and a per-layer bias.
The up-projection is structurally the transpose of the down-projection
under the symmetric ("intra") strategies: it is never stored, so the
gradient identity across both use sites holds by construction. A
``full_rank`` variant stores an unconstrained square delta per layer and
group for spectrum analysis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .kernel import Rng

SITES = ("before_mha", "after_mha", "before_ffn", "after_ffn")
GROUPS = ("mha", "ffn")
SHARINGS = ("intra_inter", "intra_inter_star", "non_intra_inter", "non_intra_non_inter")
VARIANTS = ("bottleneck", "full_rank")


def group_of(site: str) -> str:
    return "mha" if site in ("before_mha", "after_mha") else "ffn"


@dataclass(frozen=True)
class ArcConfig:
    """Adapter hyperparameters.

    ``insertion_layers`` of None means every encoder layer. Each site
    applies one affine map, x -> x (W_down diag(c) W_up + I) + b, merged
    where the block projects its input, which is what keeps fusion exact.
    """

    bottleneck: int = 50
    positions: tuple[str, ...] = ("before_mha", "before_ffn")
    sharing: str = "intra_inter"
    insertion_layers: tuple[int, ...] | None = None
    dropout_rate: float = 0.1
    variant: str = "bottleneck"

    def __post_init__(self):
        if self.bottleneck < 1:
            raise ConfigError(f"bottleneck must be >= 1, got {self.bottleneck}")
        invalid = sorted(set(self.positions) - set(SITES))
        if invalid:
            raise ConfigError(f"unknown positions {invalid}; valid sites are {SITES}")
        positions = tuple(sorted(set(self.positions), key=SITES.index))
        if not positions:
            raise ConfigError("positions must name at least one site")
        object.__setattr__(self, "positions", positions)
        if self.sharing not in SHARINGS:
            raise ConfigError(f"sharing must be one of {SHARINGS}, got {self.sharing!r}")
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if self.insertion_layers is not None:
            layers = tuple(sorted(set(int(l) for l in self.insertion_layers)))
            if not layers or layers[0] < 1:
                raise ConfigError(f"insertion_layers must be nonempty positive, got {layers}")
            object.__setattr__(self, "insertion_layers", layers)

    @property
    def groups(self) -> tuple[str, ...]:
        return tuple(g for g in GROUPS if any(group_of(s) == g for s in self.positions))

    @property
    def intra(self) -> bool:
        """Up-projection tied to the transpose of the down-projection."""
        return self.sharing in ("intra_inter", "intra_inter_star")

    @property
    def inter(self) -> bool:
        """Projections shared across layers."""
        return self.sharing != "non_intra_non_inter"

    def proj_group(self, group: str) -> str:
        return "shared" if self.sharing == "intra_inter_star" else group

    def down_key(self, group: str, layer: int) -> str:
        pg = self.proj_group(group)
        return f"arc.{pg}.down" if self.inter else f"arc.{pg}.{layer}.down"

    def up_key(self, group: str, layer: int) -> str:
        pg = self.proj_group(group)
        return f"arc.{pg}.up" if self.inter else f"arc.{pg}.{layer}.up"

    def coef_key(self, group: str, layer: int) -> str:
        return f"arc.{group}.{layer}.coef"

    def bias_key(self, group: str, layer: int) -> str:
        return f"arc.{group}.{layer}.bias"

    def delta_key(self, group: str, layer: int) -> str:
        return f"arc.{group}.{layer}.delta"


def resolved_layers(config: ArcConfig, total_layers: int) -> tuple[int, ...]:
    layers = config.insertion_layers or tuple(range(1, total_layers + 1))
    if not layers:
        raise ConfigError("no insertion layers: backbone has zero encoder layers")
    if layers[-1] > total_layers:
        raise ConfigError(
            f"insertion_layers {layers} exceed backbone depth {total_layers}"
        )
    return layers


def _fitted_layers(config: ArcConfig, backbone) -> tuple[int, ...]:
    """The bank's layers on ``backbone``; rejects a bottleneck wider than the embedding."""
    if config.variant == "bottleneck" and config.bottleneck > backbone.embed_dim:
        raise ConfigError(
            f"bottleneck {config.bottleneck} exceeds embed_dim {backbone.embed_dim}"
        )
    return resolved_layers(config, backbone.layers)


@dataclass
class AdapterBank:
    """Named trainable tensors of one adapter configuration."""

    config: ArcConfig
    embed_dim: int
    layers: tuple[int, ...]
    tensors: dict[str, np.ndarray]

    def trainable_count(self) -> int:
        """Census of trainable scalars; must equal the closed-form count."""
        return sum(t.size for t in self.tensors.values())


def adapter_shapes(config: ArcConfig, backbone) -> dict[str, tuple[int, int]]:
    """Name -> shape table for every tensor of a bank (vectors as single rows),
    in the bank's canonical order."""
    layers = _fitted_layers(config, backbone)
    d = backbone.embed_dim
    dp = config.bottleneck
    if config.variant == "full_rank":
        return {config.delta_key(g, layer): (d, d) for g in config.groups for layer in layers}
    shapes: dict[str, tuple[int, int]] = {}
    proj_groups = sorted({config.proj_group(g) for g in config.groups},
                         key=lambda g: ("mha", "ffn", "shared").index(g))
    for pg in proj_groups:
        for layer in [0] if config.inter else layers:
            scope = f"arc.{pg}" if config.inter else f"arc.{pg}.{layer}"
            shapes[f"{scope}.down"] = (d, dp)
            if not config.intra:
                shapes[f"{scope}.up"] = (dp, d)
    for group in config.groups:
        for layer in layers:
            shapes[config.coef_key(group, layer)] = (1, dp)
            shapes[config.bias_key(group, layer)] = (1, d)
    return shapes


def init_adapters(config: ArcConfig, backbone, rng: Rng) -> AdapterBank:
    """Fresh bank that is an exact identity map.

    Down-projections draw from N(0, 1/D) (independent up-projections from
    N(0, 1/D')), in :func:`adapter_shapes` order; coefficients, biases and
    full-rank deltas start at zero, so the adapted model reproduces the
    plain one bit for bit.
    """
    d = backbone.embed_dim
    scales = {"down": 1.0 / np.sqrt(d), "up": 1.0 / np.sqrt(config.bottleneck)}
    tensors: dict[str, np.ndarray] = {}
    for name, shape in adapter_shapes(config, backbone).items():
        scale = scales.get(name.rsplit(".", 1)[-1])
        tensors[name] = np.zeros(shape) if scale is None else rng.normals(shape, scale=scale)
    return AdapterBank(config, d, resolved_layers(config, backbone.layers), tensors)


@dataclass(frozen=True)
class HookTable:
    """Resolved (layer, site) -> group wiring for one bank/backbone pair."""

    config: ArcConfig
    layers: tuple[int, ...]
    entries: dict[tuple[int, str], str]

    def __contains__(self, key) -> bool:
        return key in self.entries

    def __len__(self) -> int:
        return len(self.entries)


def resolve_hooks(config: ArcConfig, backbone) -> HookTable:
    """Build the hook table; rejects combinations that cannot be fused.

    Sites transform: before_mha the LN1 output, before_ffn the LN2 output,
    after_mha / after_ffn the block output before its residual add.
    """
    layers = _fitted_layers(config, backbone)
    entries = {
        (layer, site): group_of(site)
        for layer in layers
        for site in config.positions
    }
    return HookTable(config=config, layers=layers, entries=entries)


def dropout_mask(rng: Rng, shape, rate: float) -> np.ndarray:
    """Inverted-dropout mask: zero with probability ``rate``, else 1/(1-rate)."""
    u = rng.uniforms(shape)
    return np.where(u < rate, 0.0, 1.0 / (1.0 - rate))


def dropout_masks(table: HookTable | None, batch: int, tokens: int, rng: Rng):
    """One training batch's hidden-feature masks by (layer, site), drawn
    from ``rng`` at the bank's ``dropout_rate``, or None when no site drops
    anything (no draw is made then).

    A single draw covers the batch in (image, layer, site) order, the order
    in which one image at a time would consume the stream.
    """
    if table is None or table.config.variant == "full_rank":
        return None
    cfg = table.config
    if cfg.dropout_rate <= 0.0:
        return None
    masks = dropout_mask(rng, (batch, len(table), tokens, cfg.bottleneck), cfg.dropout_rate)
    return {key: masks[:, i] for i, key in enumerate(table.entries)}


def arc_forward(ops, table: HookTable, layer: int, site: str, x, values, mask=None):
    """Apply the adapter registered at (layer, site) to a (B, T, D) batch x.

    Computes x + (x W_down diag(c)) W_up + b (or x + x delta for the
    full-rank variant); a ``mask`` (training only) multiplies the hidden
    features, so evaluation is deterministic with no rescaling.
    """
    if (layer, site) not in table.entries:
        raise ConfigError(f"no adapter registered at layer {layer}, site {site!r}")
    cfg = table.config
    group = table.entries[(layer, site)]
    if cfg.variant == "full_rank":
        delta = ops.matmul(x, values[cfg.delta_key(group, layer)])
        return ops.add(x, delta)
    down = values[cfg.down_key(group, layer)]
    up = down if cfg.intra else values[cfg.up_key(group, layer)]
    return ops.arc_adapter(x, up, values[cfg.coef_key(group, layer)],
                           values[cfg.bias_key(group, layer)], down, mask, cfg.intra)


def apply_site(ops, table: HookTable | None, layer: int, site: str, x, values, masks=None):
    """Model-facing hook: identity when no adapter is registered at the site."""
    if table is None or (layer, site) not in table.entries:
        return x
    return arc_forward(ops, table, layer, site, x, values,
                       None if masks is None else masks[(layer, site)])


def composite_matrix(bank: AdapterBank, group: str, layer: int):
    """(P, b) with P = W_down diag(c) W_up (or the full-rank delta) and the
    per-layer bias row; the adapter map is x -> x (P + I) + 1 b^T."""
    cfg = bank.config
    if cfg.variant == "full_rank":
        return bank.tensors[cfg.delta_key(group, layer)].copy(), np.zeros((1, bank.embed_dim))
    down = bank.tensors[cfg.down_key(group, layer)]
    coef = bank.tensors[cfg.coef_key(group, layer)].reshape(-1)
    up = down.T if cfg.intra else bank.tensors[cfg.up_key(group, layer)]
    return (down * coef) @ up, bank.tensors[cfg.bias_key(group, layer)].copy()
