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

from dataclasses import dataclass, field
from itertools import product
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigError, ShapeError
from .kernel import Rng

if TYPE_CHECKING:
    from .model import BackboneConfig

# before_mha transforms the LN1 output and before_ffn the LN2 output;
# after_mha and after_ffn transform the block output before its residual add.
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
            raise ConfigError(f"positions holds unknown sites {invalid}; valid sites are {SITES}")
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

    def site_keys(self, group: str, layer: int) -> tuple[str, ...]:
        """Names of the tensors the (group, layer) adapter reads: (delta,)
        for the full-rank variant, else (down, up, coef, bias), where a
        tied up-projection is named by its down-projection."""
        if self.variant == "full_rank":
            return (self.delta_key(group, layer),)
        down = self.down_key(group, layer)
        return (down, down if self.intra else self.up_key(group, layer),
                self.coef_key(group, layer), self.bias_key(group, layer))


def resolved_layers(config: ArcConfig, total_layers: int) -> tuple[int, ...] | range:
    """The encoder layers that take an adapter, in order:
    ``config.insertion_layers``, or every layer as ``range(1, total_layers
    + 1)``, whose length is O(1) at any depth. ConfigError when an
    insertion layer lies past ``total_layers``."""
    layers = config.insertion_layers
    if layers and layers[-1] > total_layers:
        raise ConfigError(f"arc.insertion_layers {layers} exceed backbone.layers {total_layers}")
    return layers or range(1, total_layers + 1)


@dataclass
class AdapterBank:
    """Named trainable tensors of one adapter configuration on one backbone,
    and the wiring they give it, decided once when the bank is built:
    ``layers``, the encoder layers that take an adapter
    (:func:`resolved_layers`), and ``sites``, the (layer, site) pairs with
    an adapter, layer by layer, each layer's sites in ``SITES`` order.
    ``sites`` is the one membership rule of :func:`apply_site` and
    :func:`arc_forward`. Building one (``dataclasses.replace`` included)
    raises ShapeError naming a missing, unexpected or misshapen tensor
    (:func:`check_shapes`)."""

    config: ArcConfig
    backbone: BackboneConfig
    tensors: dict[str, np.ndarray]
    layers: tuple[int, ...] = field(init=False)
    sites: tuple[tuple[int, str], ...] = field(init=False)

    def __post_init__(self):
        check_shapes(adapter_shapes(self.config, self.backbone),
                     {name: t.shape for name, t in self.tensors.items()})
        self.layers = tuple(resolved_layers(self.config, self.backbone.layers))
        self.sites = tuple(product(self.layers, self.config.positions))

    def check_depth(self, total_layers: int) -> None:
        """Raise ConfigError unless the bank was built for a backbone of
        ``total_layers`` encoder layers."""
        want = tuple(resolved_layers(self.config, total_layers))
        if self.layers != want:
            raise ConfigError(f"adapter bank covers layers {self.layers}, "
                              f"but a {total_layers}-layer backbone takes layers {want}")

    def trainable_count(self) -> int:
        """Census of trainable scalars; must equal the closed-form count."""
        return sum(t.size for t in self.tensors.values())


def check_shapes(expected: dict, shapes: dict) -> None:
    """Raise ShapeError unless the name -> shape map ``shapes`` holds the
    names of the table ``expected``, no more and no fewer, each at its shape.
    The one check of a tensor set: a bank's tensors and a checkpoint's
    record heads."""
    missing = sorted(set(expected) - set(shapes))
    extra = sorted(set(shapes) - set(expected))
    if missing or extra:
        raise ShapeError(f"tensor set mismatch: missing {missing}, unexpected {extra}")
    for name, shape in expected.items():
        if shapes[name] != shape:
            raise ShapeError(f"{name}: expected shape {shape}, got {shapes[name]}")


def adapter_shapes(config: ArcConfig, backbone) -> dict[str, tuple[int, int]]:
    """Name -> shape table for every tensor of a bank (vectors as single rows),
    in the bank's canonical order: the projections, then the coefficients
    and biases; rejects a bottleneck wider than the embedding."""
    d = backbone.embed_dim
    dp = config.bottleneck
    if config.variant == "bottleneck" and dp > d:
        raise ConfigError(f"bottleneck {dp} exceeds embed_dim {d}")
    sites = list(product(config.groups, resolved_layers(config, backbone.layers)))
    if config.variant == "full_rank":
        return {config.delta_key(g, layer): (d, d) for g, layer in sites}
    shapes: dict[str, tuple[int, int]] = {}
    for g, layer in sites:  # a shared projection keeps its first slot
        shapes.setdefault(config.down_key(g, layer), (d, dp))
        if not config.intra:
            shapes.setdefault(config.up_key(g, layer), (dp, d))
    for g, layer in sites:
        shapes[config.coef_key(g, layer)] = (1, dp)
        shapes[config.bias_key(g, layer)] = (1, d)
    return shapes


def init_adapters(config: ArcConfig, backbone, rng: Rng) -> AdapterBank:
    """Fresh bank that is an exact identity map.

    Down-projections draw from N(0, 1/D) (independent up-projections from
    N(0, 1/D')), in :func:`adapter_shapes` order; coefficients, biases and
    full-rank deltas start at zero, so the adapted model reproduces the
    plain one bit for bit.
    """
    scales = {"down": 1.0 / np.sqrt(backbone.embed_dim), "up": 1.0 / np.sqrt(config.bottleneck)}
    tensors: dict[str, np.ndarray] = {}
    for name, shape in adapter_shapes(config, backbone).items():
        scale = scales.get(name.rsplit(".", 1)[-1])
        tensors[name] = np.zeros(shape) if scale is None else rng.normals(shape, scale=scale)
    return AdapterBank(config, backbone, tensors)


def dropout_mask(rng: Rng, shape, rate: float) -> np.ndarray:
    """Inverted-dropout mask: zero with probability ``rate``, else 1/(1-rate)."""
    u = rng.uniforms(shape)
    return np.where(u < rate, 0.0, 1.0 / (1.0 - rate))


def dropout_masks(bank: AdapterBank | None, batch: int, tokens: int, rng: Rng):
    """One training batch's hidden-feature masks as one (batch, site, token,
    D') array, its site axis in ``bank.sites`` order, drawn from ``rng`` at
    the bank's ``dropout_rate``; or None when no site drops anything (no
    draw is made then).

    The single draw covers the batch in (image, layer, site) order, the
    order in which one image at a time would consume the stream.
    """
    if bank is None or bank.config.variant == "full_rank" or bank.config.dropout_rate <= 0.0:
        return None
    cfg = bank.config
    return dropout_mask(rng, (batch, len(bank.sites), tokens, cfg.bottleneck), cfg.dropout_rate)


def arc_forward(ops, bank: AdapterBank, layer: int, site: str, x, values, mask=None):
    """Apply the bank's adapter at (layer, site) to a (B, T, D) batch x.

    Computes x + (x W_down diag(c)) W_up + b (or x + x delta for the
    full-rank variant); a ``mask`` (training only) multiplies the hidden
    features, so evaluation is deterministic with no rescaling. ``values``
    maps the tensor names to backend values.
    """
    cfg = bank.config
    if (layer, site) not in bank.sites:
        raise ConfigError(f"no adapter registered at layer {layer}, site {site!r}")
    tensors = [values[name] for name in cfg.site_keys(group_of(site), layer)]
    if cfg.variant == "full_rank":
        return ops.add(x, ops.matmul(x, tensors[0]))
    down, up, coef, bias = tensors
    return ops.arc_adapter(x, up, coef, bias, down, mask, cfg.intra)


def apply_site(ops, bank: AdapterBank | None, layer: int, site: str, x, values, masks=None):
    """Model-facing hook: identity when the bank has no adapter at the site.

    ``masks``, if given, is the batch's :func:`dropout_masks` array; the
    site gets ``masks[:, i]``, a view, where i is its place in ``bank.sites``.
    """
    if bank is None or (layer, site) not in bank.sites:
        return x
    return arc_forward(ops, bank, layer, site, x, values,
                       None if masks is None else masks[:, bank.sites.index((layer, site))])


def composite_matrix(bank: AdapterBank, group: str, layer: int):
    """(P, b) with P = W_down diag(c) W_up (or the full-rank delta) and the
    per-layer bias row; the adapter map is x -> x (P + I) + 1 b^T."""
    cfg = bank.config
    tensors = [bank.tensors[name] for name in cfg.site_keys(group, layer)]
    if cfg.variant == "full_rank":
        return tensors[0].copy(), np.zeros((1, bank.backbone.embed_dim))
    down, up, coef, bias = tensors
    return (down * coef.reshape(-1)) @ (up.T if cfg.intra else up), bias.copy()
