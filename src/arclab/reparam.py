"""Lossless folding of trained adapters into the frozen backbone weights.

Every adapter sits strictly between a LayerNorm output and the block's
first linear map (before_* sites), or strictly after the block's last
linear map (after_* sites). An adapter is the affine map
``x -> x (P + I) + 1 b^T``, so it folds into the adjacent matrix on the
matching side, leaving a network that runs the plain forward path with
zero extra inference cost.

:func:`fold` is the one fold: it writes each folded product into the
storage of the tensor it replaces, so folding a weight set holds no
second one. :func:`fuse` folds into copies and leaves its input as it
was. :func:`verify_fusion` is the one deviation check, and it loads the
unfused and the fused weight sets one at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model
from .adapters import AdapterBank, composite_matrix, group_of
from .errors import ConfigError, NumericalError
from .kernel import Rng

# weight names each site folds into, and on which side of the matrix
_SITE_TARGETS = {
    "before_mha": (("attn.wq", "attn.bq"), ("attn.wk", "attn.bk"), ("attn.wv", "attn.bv")),
    "before_ffn": (("ffn.w1", "ffn.b1"),),
    "after_mha": (("attn.wo", "attn.bo"),),
    "after_ffn": (("ffn.w2", "ffn.b2"),),
}


@dataclass
class FusedWeights:
    """Backbone-shaped tensors with adapter effects folded in."""

    tensors: dict[str, np.ndarray]
    sites_fused: int = 0


def check_finite(bank: AdapterBank) -> None:
    """Raise NumericalError naming the first adapter tensor that holds a NaN or inf."""
    for name, arr in bank.tensors.items():
        if not np.isfinite(arr).all():
            raise NumericalError(f"adapter tensor {name!r} holds non-finite values")


def fold(weights, bank: AdapterBank, backbone_cfg) -> int:
    """Fold the bank into ``weights`` in place; return the number of sites folded.

    before_* sites add ``b W`` to the downstream biases, then left-multiply
    the downstream matrices by (P + I); after_* sites right-multiply the
    upstream matrix, then map its bias through the adapter. The q, k and v
    maps of a site share one (P + I). Each product is computed whole and
    then written into the storage of the array it replaces, so the arrays
    in ``weights`` must be writeable, and at most one product is alive
    beside them. A site whose P and b are exactly zero is skipped, so an
    identity bank leaves the weights bitwise untouched. Raises
    NumericalError naming the first adapter tensor that holds a NaN or inf,
    and ConfigError if the bank was built for another depth, before any
    array is written.
    """
    check_finite(bank)
    bank.check_depth(backbone_cfg.layers)
    sites = 0
    for layer, site in bank.sites:
        p, b = composite_matrix(bank, group_of(site), layer)
        if not p.any() and not b.any():
            continue  # exact identity adapter: skip to keep weights bit-identical
        sites += 1
        m = p + np.eye(p.shape[0])
        for w_name, b_name in _SITE_TARGETS[site]:
            w = weights[f"enc.{layer}.{w_name}"]
            bias = weights[f"enc.{layer}.{b_name}"]
            if site.startswith("before"):
                bias[...] = bias + b @ w
                w[...] = m @ w
            else:
                w[...] = w @ m
                bias[...] = bias @ m + b
    return sites


def fuse(weights, bank: AdapterBank, backbone_cfg) -> FusedWeights:
    """Fold the bank into a copy of ``weights`` (see :func:`fold`).

    Every returned tensor is a new array, and ``weights`` is left as it
    was. Raises as :func:`fold` does.
    """
    fused = {name: arr.copy() for name, arr in weights.items()}
    return FusedWeights(tensors=fused, sites_fused=fold(fused, bank, backbone_cfg))


def verify_fusion(backbone_cfg, load_adapted, load_fused, trials: int, rng: Rng) -> float:
    """Max absolute logit deviation between the adapted-unfused forward and
    the plain forward over the fused tensors, across random images.

    This routine never holds both weight sets at once. ``load_adapted()``
    returns ``(weights, bank)``; the adapted side passes both to
    :func:`model.eager_logits`, which reads the adapter tensors from the
    bank, and drops them. Only then does ``load_fused()`` return the fused
    tensors for the plain side. Each side runs through
    :func:`model.eager_logits`, so the trials run as two concurrent halves.
    Both sides split the same way, so the deviation compares logits that
    went through the same GEMM shapes. Raises ConfigError for ``trials`` below 1 before either loader
    is called, and NumericalError naming the first adapter tensor that
    holds a NaN or inf before any forward runs and before ``load_fused``
    is called."""
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    weights, bank = load_adapted()
    check_finite(bank)
    side = backbone_cfg.image_size
    images = rng.normals((trials, side, side, backbone_cfg.channels))
    adapted = model.eager_logits(backbone_cfg, weights, images, bank=bank)
    del weights, bank  # drop the adapted weight set before the fused one is loaded
    plain = model.eager_logits(backbone_cfg, load_fused(), images)
    return float(np.abs(adapted - plain).max())
