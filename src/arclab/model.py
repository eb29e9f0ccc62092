"""Small pre-norm Vision Transformer with optional adapter sites.

The forward pass runs on a batch: :func:`embed` turns a (B, H, W, C) image
stack into a (B, T, D) token tensor (T = patches + the class token) on
plain arrays, and attention makes its heads a batch axis, (B, heads, T,
D_h), so each primitive call covers every image and head at once. The
embedding reads no trainable, so it is never recorded. The encoder and
head, :func:`forward_tokens`, are written against a backend object
(:class:`~arclab.autodiff.Tape` for training, :class:`~arclab.autodiff.Eager`
for plain evaluation); both run the forwards of the one primitive table in
:mod:`arclab.autodiff`, so the recorded and unrecorded paths compute the
same values. Weights are named tensors; the mapping passed to
``forward_tokens`` resolves each name to a backend value.
:func:`forward`, the embedding and the encoder on Eager only, is the
image-to-logits forward, and :func:`eager_logits` the evaluation entry
point: it runs a batch as two concurrent halves of :func:`forward`.
:func:`forward_tokens` can start or stop at a cut, just before an adapter
hook or the head, whose state is the residual stream and the pending
block input: training runs everything before its first trainable once per
run through :func:`forward`, and records from that cut on.

No activation outlives its last reader: between residual adds only the
(B, T, D) stream is bound, so on Eager numpy frees each block's
LayerNorm output, adapter outputs and block output at its residual add.
The arrays an Eager forward writes in place are its own: GELU overwrites
the fc1 output, the attention softmax its scores, and each primitive its
fresh result. No weight, bank tensor or image is written.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass

import numpy as np

from . import adapters
from .autodiff import Eager
from .errors import ConfigError, ShapeError
from .kernel import Rng, linear, run_both

HEAD_NAMES = ("head.weight", "head.bias")


@dataclass(frozen=True)
class BackboneConfig:
    """Shape parameters of the backbone.

    ``image_size`` is the side of the square input and ``layers`` the
    number of encoder blocks; every size is a positive integer.
    """

    image_size: int
    patch_size: int
    channels: int
    embed_dim: int
    layers: int
    heads: int
    classes: int
    mlp_ratio: int = 4
    ln_eps: float = 1e-6

    def __post_init__(self):
        positive = {
            "image_size": self.image_size,
            "patch_size": self.patch_size,
            "channels": self.channels,
            "embed_dim": self.embed_dim,
            "layers": self.layers,
            "heads": self.heads,
            "classes": self.classes,
            "mlp_ratio": self.mlp_ratio,
        }
        for name, value in positive.items():
            if int(value) != value or value <= 0:
                raise ConfigError(f"{name} must be a positive integer, got {value!r}")
        if self.image_size % self.patch_size != 0:
            raise ConfigError(
                f"image_size {self.image_size} not divisible by patch_size {self.patch_size}"
            )
        if self.embed_dim % self.heads != 0:
            raise ConfigError(f"embed_dim {self.embed_dim} not divisible by heads {self.heads}")
        if self.ln_eps <= 0:
            raise ConfigError(f"ln_eps must be positive, got {self.ln_eps}")

    @property
    def tokens(self) -> int:
        """Patch count N = (H/P)^2; the sequence adds one class token."""
        return (self.image_size // self.patch_size) ** 2

    @property
    def head_dim(self) -> int:
        return self.embed_dim // self.heads

    @property
    def hidden_dim(self) -> int:
        return self.mlp_ratio * self.embed_dim

    @property
    def patch_dim(self) -> int:
        return self.patch_size * self.patch_size * self.channels


def weight_shapes(cfg: BackboneConfig) -> dict[str, tuple[int, int]]:
    """Name -> shape table for every backbone tensor (vectors as single rows)."""
    d, k = cfg.embed_dim, cfg.classes
    shapes: dict[str, tuple[int, int]] = {
        "patch.weight": (cfg.patch_dim, d),
        "patch.bias": (1, d),
        "cls": (1, d),
        "pos": (cfg.tokens + 1, d),
        "final_ln.gamma": (1, d),
        "final_ln.beta": (1, d),
        "head.weight": (d, k),
        "head.bias": (1, k),
    }
    for layer in range(1, cfg.layers + 1):
        p = f"enc.{layer}"
        shapes[f"{p}.ln1.gamma"] = (1, d)
        shapes[f"{p}.ln1.beta"] = (1, d)
        for proj in ("q", "k", "v", "o"):
            shapes[f"{p}.attn.w{proj}"] = (d, d)
            shapes[f"{p}.attn.b{proj}"] = (1, d)
        shapes[f"{p}.ln2.gamma"] = (1, d)
        shapes[f"{p}.ln2.beta"] = (1, d)
        shapes[f"{p}.ffn.w1"] = (d, cfg.hidden_dim)
        shapes[f"{p}.ffn.b1"] = (1, cfg.hidden_dim)
        shapes[f"{p}.ffn.w2"] = (cfg.hidden_dim, d)
        shapes[f"{p}.ffn.b2"] = (1, d)
    return shapes


def _drawn(name: str) -> bool:
    """Whether :func:`init_backbone` draws the tensor ``name``: LayerNorm
    gains start at one and biases (beta, bias, bq/bk/bv/bo, b1/b2) at zero."""
    leaf = name.rsplit(".", 1)[-1]
    return leaf != "gamma" and not leaf.startswith("b")


def init_backbone(cfg: BackboneConfig, rng: Rng) -> dict[str, np.ndarray]:
    """Random stand-in for a pretrained backbone: N(0, 0.02^2) weights,
    zero biases, unit LayerNorm gains.

    The drawn weights come from one ``rng.normals`` call, in
    :func:`weight_shapes` order, and each is a reshaped view of its slice
    of that one buffer. The stream, and so every bit, is that of one draw
    per weight in turn.
    """
    shapes = weight_shapes(cfg)
    buffer = rng.normals(sum(r * c for name, (r, c) in shapes.items() if _drawn(name)), 0.02)
    weights: dict[str, np.ndarray] = {}
    start = 0
    for name, (rows, cols) in shapes.items():
        if _drawn(name):
            weights[name] = buffer[start:start + rows * cols].reshape(rows, cols)
            start += rows * cols
        elif name.endswith(".gamma"):
            weights[name] = np.ones((rows, cols))
        else:
            weights[name] = np.zeros((rows, cols))
    return weights


def checksum(weights) -> str:
    """SHA-256 over names, shapes and raw little-endian bytes of the tensors."""
    h = hashlib.sha256()
    for name in sorted(weights):
        arr = np.ascontiguousarray(weights[name], dtype=np.float64)
        h.update(name.encode())
        h.update(repr(arr.shape).encode())
        h.update(arr.astype("<f8").tobytes())
    return h.hexdigest()


def frozen_checksum(weights) -> str:
    """Checksum of everything that must stay bit-identical during training
    (all backbone tensors except the classification head)."""
    return checksum({name: arr for name, arr in weights.items() if name not in HEAD_NAMES})


def extract_patches(images: np.ndarray, cfg: BackboneConfig) -> np.ndarray:
    """Split a (B, H, W, C) image stack into (B, N, P*P*C) flattened patches.

    Patches are taken in row-major grid order; each patch flattens row-major
    over (pixel-row, pixel-col, channel). This order is load-bearing for
    bit-exact checkpoints.
    """
    images = np.asarray(images, dtype=np.float64)
    h = w = cfg.image_size
    if images.ndim != 4 or images.shape[1:] != (h, w, cfg.channels):
        raise ShapeError(
            f"image batch shape {images.shape} does not match (B, {h}, {w}, {cfg.channels})"
        )
    p = cfg.patch_size
    grid = h // p
    return (
        images.reshape(-1, grid, p, grid, p, cfg.channels)
        .transpose(0, 1, 3, 2, 4, 5)
        .reshape(images.shape[0], grid * grid, cfg.patch_dim)
    )


def embed(cfg: BackboneConfig, weights, images) -> np.ndarray:
    """[cls; patches W + b] + pos: the (B, T, D) tokens of a (B, H, W, C)
    image stack (:func:`extract_patches`), on arrays."""
    proj = linear(extract_patches(images, cfg), weights["patch.weight"], weights["patch.bias"])
    cls = np.broadcast_to(weights["cls"], (len(proj), 1, cfg.embed_dim))
    tokens = np.concatenate([cls, proj], axis=1)
    tokens += weights["pos"]
    return tokens


def mha(ops, cfg: BackboneConfig, v, x_norm, layer: int):
    """Multi-head attention over a normalized (B, T, D) token batch.

    The D x D projections are column-partitioned into head blocks, which
    the ``attention`` primitive makes a batch axis; per head:
    softmax(Q K^T / sqrt(D_h)) V, heads merged back, then the output
    projection.
    """
    p = f"enc.{layer}.attn"
    # q, k and v live only as the arguments of this one call
    heads = ops.attention(*(ops.linear(x_norm, v[f"{p}.w{n}"], v[f"{p}.b{n}"]) for n in "qkv"),
                          cfg.heads, 1.0 / np.sqrt(cfg.head_dim))
    return ops.linear(heads, v[f"{p}.wo"], v[f"{p}.bo"])


def ffn(ops, cfg: BackboneConfig, v, x_norm, layer: int):
    """GELU(x W1 + b1) W2 + b2."""
    p = f"enc.{layer}.ffn"
    hidden = ops.gelu(ops.linear(x_norm, v[f"{p}.w1"], v[f"{p}.b1"]))
    return ops.linear(hidden, v[f"{p}.w2"], v[f"{p}.b2"])


def site_cut(layer: int, site: str) -> int:
    """The cut just before the adapter hook of ``site`` in encoder ``layer``."""
    return len(adapters.SITES) * (layer - 1) + adapters.SITES.index(site)


def head_cut(cfg: BackboneConfig) -> int:
    """The cut just before the head: after the class token's final LayerNorm."""
    return len(adapters.SITES) * cfg.layers


def forward_tokens(ops, cfg: BackboneConfig, v, x, z=None, *, bank=None, masks=None,
                   start=None, stop=None):
    """Run the encoder stack and head from the cut ``start`` to the cut ``stop``.

    A cut is a place in the forward just before a node that can read a
    trainable: an adapter site's hook (:func:`site_cut`) or the head
    (:func:`head_cut`). Sites are hooked in ``adapters.SITES`` order, so
    cuts count up through the forward. The state at a site's cut is the
    (B, T, D) residual stream ``x`` and the pending block input ``z``:
    the LayerNorm output at a ``before_`` site, the block output at an
    ``after_`` site. At the head cut it is ``x`` alone, the final LayerNorm
    of the class token, (B, D). ``start=None`` starts from an embedded
    (B, T, D) token batch ``x``; ``stop=None`` runs on to the logits, and
    any other ``stop`` returns the state at that cut: (x, z), or (x,) at
    the head. On a :class:`~arclab.autodiff.Tape` the tokens or the state
    enter as constants.

    ``bank`` wires its adapters in at its (layer, site) pairs; ``masks`` is
    this batch's :func:`adapters.dropout_masks` array, or None for no
    dropout. Each block runs on a LayerNorm of the stream, between the
    bank's adapters at its ``before_`` and ``after_`` sites, and is added
    back into the stream.
    """
    begin = -1 if start is None else start
    for layer in range(1, cfg.layers + 1):
        for norm, block, run in (("ln1", "mha", mha), ("ln2", "ffn", ffn)):
            before = site_cut(layer, f"before_{block}")  # the after_ site's cut is before + 1
            if begin > before + 1:
                continue
            if begin < before:
                p = f"enc.{layer}.{norm}"
                z = ops.layernorm(x, v[f"{p}.gamma"], v[f"{p}.beta"], cfg.ln_eps)
            if stop == before:
                return x, z
            if begin <= before:
                z = adapters.apply_site(ops, bank, layer, f"before_{block}", z, v, masks)
                z = run(ops, cfg, v, z, layer)
            if stop == before + 1:
                return x, z
            z = adapters.apply_site(ops, bank, layer, f"after_{block}", z, v, masks)
            x = ops.add(x, z)
            del z  # only the stream outlives a residual add
    if begin < head_cut(cfg):
        x = ops.layernorm(ops.slice_tokens(x, 0), v["final_ln.gamma"], v["final_ln.beta"],
                          cfg.ln_eps)
    if stop == head_cut(cfg):
        return (x,)
    return ops.linear(x, v["head.weight"], v["head.bias"])


def forward(cfg: BackboneConfig, weights, images, bank=None, *, stop=None):
    """Eval-mode logits (B x classes) for a (B, H, W, C) image stack: the
    deterministic forward on :class:`~arclab.autodiff.Eager`, with no
    adapter dropout. ``bank`` wires its adapters in, reading their tensors
    from ``weights`` by name, and raises ConfigError if it was built for
    another depth. A ``stop`` cut returns the state there instead of the
    logits, as :func:`forward_tokens` does."""
    if bank is not None:
        bank.check_depth(cfg.layers)
    # no name here holds the embedding, so the encoder frees it at layer 1's first
    # residual add (from Python 3.11; 3.10 keeps a call's arguments until it returns)
    return forward_tokens(Eager(), cfg, weights, embed(cfg, weights, images), bank=bank,
                          stop=stop)


def eager_logits(cfg: BackboneConfig, weights, images, bank=None) -> np.ndarray:
    """Eval-mode logits (B x classes) of an image stack, as two concurrent halves.

    The backbone tensors come from ``weights`` and the adapter tensors from
    ``bank``, whose tensors take the place of any of the same name in
    ``weights``. The first ceil(B/2) images run through :func:`forward` on
    an :class:`~arclab.autodiff.Eager` backend on the calling thread while the
    rest run on one worker thread (:func:`~arclab.kernel.run_both`), and the
    two logit blocks are concatenated in order. A batch of at most one
    image runs as one forward on the calling thread, and on one CPU the two
    halves run there in turn. The split never depends on the machine, so
    the result is the two half-batch forwards concatenated, bit for bit.
    That can differ from one whole-batch forward in the last place, as a
    row's logits already depend on how many rows share its GEMMs. A
    caller's ``np.errstate`` holds in both halves, and an exception in
    either reaches the caller once both have finished.
    """
    values = weights if bank is None else {**weights, **bank.tensors}
    images = np.asarray(images, dtype=np.float64)
    if images.ndim != 4 or len(images) <= 1:  # one piece; forward rejects a bad shape
        return forward(cfg, values, images, bank)
    half = (len(images) + 1) // 2
    first, rest = run_both(functools.partial(forward, cfg, values, images[:half], bank),
                           functools.partial(forward, cfg, values, images[half:], bank))
    return np.concatenate([first, rest])
