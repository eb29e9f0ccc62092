"""Lossless folding of trained adapters into the frozen backbone weights.

Every adapter sits strictly between a LayerNorm output and the block's
first linear map (before_* sites), or strictly after the block's last
linear map (after_* sites). An adapter is the affine map
``x -> x (P + I) + 1 b^T``, so it folds into the adjacent matrix on the
matching side, leaving a network that runs the plain forward path with
zero extra inference cost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model
from .adapters import AdapterBank, composite_matrix, group_of
from .errors import ConfigError, NumericalError
from .kernel import Rng
from .autodiff import Eager

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


def fuse(weights, bank: AdapterBank, backbone_cfg) -> FusedWeights:
    """Fold the bank into a copy of ``weights``.

    before_* sites left-multiply the downstream matrices by (P + I) and add
    ``b W`` to their biases; after_* sites right-multiply the upstream
    matrix and map its bias through the adapter. A bank whose P and b are
    exactly zero leaves the weights bitwise untouched. Raises
    NumericalError naming the first adapter tensor that holds a NaN or inf,
    and ConfigError if the bank was built for another depth.
    """
    check_finite(bank)
    bank.check_depth(backbone_cfg.layers)
    fused = {name: arr.copy() for name, arr in weights.items()}
    sites = 0
    for layer, site in bank.sites:
        p, b = composite_matrix(bank, group_of(site), layer)
        if not p.any() and not b.any():
            continue  # exact identity adapter: skip to keep weights bit-identical
        sites += 1
        m = p + np.eye(p.shape[0])
        for w_name, b_name in _SITE_TARGETS[site]:
            wk = f"enc.{layer}.{w_name}"
            bk = f"enc.{layer}.{b_name}"
            if site.startswith("before"):
                fused[bk] = fused[bk] + b @ fused[wk]
                fused[wk] = m @ fused[wk]
            else:
                fused[wk] = fused[wk] @ m
                fused[bk] = fused[bk] @ m + b
    return FusedWeights(tensors=fused, sites_fused=sites)


def verify_fusion(weights, bank: AdapterBank, backbone_cfg, fused: dict[str, np.ndarray],
                  trials: int = 32, rng: Rng | None = None) -> float:
    """Max absolute logit deviation between the adapted-unfused forward and
    the plain forward over the ``fused`` tensors, across random images.

    Raises NumericalError naming the first adapter tensor that holds a NaN
    or inf, before any forward runs."""
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    check_finite(bank)
    rng = rng or Rng(0)
    values = dict(weights)
    values.update(bank.tensors)
    ops = Eager()
    side = backbone_cfg.image_size
    images = rng.normals((trials, side, side, backbone_cfg.channels))
    adapted = model.forward(ops, backbone_cfg, values, images, bank=bank)
    plain = model.forward(ops, backbone_cfg, fused, images)
    return float(np.abs(adapted - plain).max())
