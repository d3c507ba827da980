"""Small numpy encoders, the training step, SGD, and gradient checks.

The 2D and 3D backbones are plain MLPs (ReLU hidden layers, linear
output) over hand-built descriptors.  On top of the shared latent space
sit four trainable linear heads — semantic heads mapping into the class
embedding space and feature heads mapping into the anchor space — plus a
frozen bias-free anchor projection and the frozen class embedding table.
A semantic head is folded into the class embeddings: its class map is
[M; c] = [W; b] @ E.T, and its logits are f @ M + c.

Every layer, encoder or head, is one (fan_in + 1, fan_out) array [W; b],
the bias as its last row, and rows are feature-major: (features, rows),
one column per row, over a trailing row of ones (feature_major).  A
layer is then one product [W; b].T @ h with no bias add, and its
gradient one product h @ d.T with no sum.

Every head is linear and reads only the latent rows, and so is each
encoder's output layer.  Training and inference therefore fold an
encoder's output layer into the heads it feeds, in one place (_fold): the
folded net maps input rows straight to the head outputs, and the latent
rows are never formed.  The losses (ce_loss, cosine_align_loss) read
head outputs and return their gradients; one chain-rule helper carries
the folded layer's gradient back to the encoder and head parameters.

Every trainable parameter lives in one vector, laid out by param_views;
each bias follows its weight there, so each layer [W; b] is one
contiguous view of it (_layer_blocks), and so is its gradient.
All arithmetic runs in the dtype of that vector: float32 for a trained
model (init_state casts it once, ModelBundle.astype), float64 for the
gradient checker and for bundles straight from make_bundle.  Gradients
are written by hand.
`step` computes the training objective and its gradient as one vector
laid out like the parameters; training and grad_check (central finite
differences) both call it, the checker's probes in its loss-only mode,
which returns the branch pattern of its passes in place of the gradient.
What `step` reads of a model that no update changes (its passes, the
heads' spans, the gradient blocks) is set up once per ModelBundle.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
import os
import typing
from dataclasses import dataclass, fields
from typing import Dict, List, NamedTuple, Optional, Tuple, Union

import numpy as np

from .errors import NumericalError, ValidationError
from .evaluation import format_value, parse_value
from .pseudolabel import IGNORE
from .seeding import TAG_GRADCHECK, TAG_MODEL, derive_rng

_NORM_EPS = 1e-12


# ---------------------------------------------------------------------------
# model containers


@dataclass
class Mlp:
    """Fully connected net: ReLU on hidden layers, linear output.

    Each layer is one (fan_in + 1, fan_out) array [W; b]: the weights, then
    the bias as the last row.  The net reads feature-major rows: an input
    is (fan_in + 1, N), one column per row, with a trailing row of ones
    (feature_major) that each layer's bias row multiplies.
    """

    layers: List[np.ndarray]

    def __post_init__(self):
        if not self.layers:
            raise ValidationError("need a non-empty layer list")
        for i, layer in enumerate(self.layers):
            if layer.ndim != 2 or len(layer) < 2:
                raise ValidationError(
                    f"layer {i} must be (fan_in + 1, fan_out), got {layer.shape}")
            if i and self.layers[i - 1].shape[1] + 1 != len(layer):
                raise ValidationError(f"layer {i} fan-in does not match layer {i-1} fan-out")


def feature_major(rows: np.ndarray) -> np.ndarray:
    """(N, D) rows as the (D + 1, N) input an Mlp reads: one column per row
    and a trailing row of ones, in `rows`' dtype."""
    rows = np.asarray(rows)
    out = np.empty((rows.shape[1] + 1, len(rows)), rows.dtype)
    out[:-1] = rows.T
    out[-1] = 1
    return out


def mlp_forward(mlp: Mlp, x: np.ndarray,
                hidden_only: bool = False) -> Tuple[np.ndarray, list]:
    """Forward pass of feature-major rows x (fan_in + 1, N): (output, cache).

    Each layer is one product [W; b].T @ h, bias included.  A hidden layer
    writes it into a fresh (fan_out + 1, N) array, applies the ReLU in
    place and sets the trailing ones row; the output layer's (fan_out, N)
    product is the output.  `x` is never written.  With hidden_only the
    output layer is not run: the output is the last hidden layer's
    activations, ones row included, or `x` for a net without hidden layers.
    """
    x = np.asarray(x, dtype=mlp.layers[0].dtype)
    cache = [x]
    h = x
    last = len(mlp.layers) - 1
    for layer in mlp.layers[:last]:
        act = np.empty((layer.shape[1] + 1, h.shape[1]), layer.dtype)
        np.matmul(layer.T, h, out=act[:-1])
        np.maximum(act[:-1], 0.0, out=act[:-1])
        act[-1] = 1.0
        cache.append(act)
        h = act
    if not hidden_only:
        h = mlp.layers[last].T @ h
        cache.append(h)
    return h, cache


def mlp_backward(mlp: Mlp, cache: list, d_out: np.ndarray, out=None) -> List[np.ndarray]:
    """Backward pass of a feature-major output gradient d_out (fan_out, N):
    each layer's gradient [dW; db], one product h @ d.T of its input h and
    its output gradient d, whose ones row of h gives db.

    `out`, if given, holds per layer an array that layer's gradient is
    written into, or None for a fresh array.  The gradient w.r.t. the
    input is not formed: the inputs are data.
    """
    grads = [None] * len(mlp.layers)
    grad = np.asarray(d_out)
    for i in range(len(mlp.layers) - 1, -1, -1):
        grads[i] = np.matmul(cache[i], grad.T, out=out[i] if out else None)
        if i:
            grad = mlp.layers[i][:-1] @ grad
            grad *= cache[i][:-1] > 0
    return grads


def fold_output(mlp: Mlp, head: np.ndarray) -> Mlp:
    """`mlp` with its linear output layer folded into a linear map [A; a].

    `head` (fan_out + 1, K) maps an output row o to o @ A + a, in the same
    layer form as `mlp`'s.  The folded net outputs that map of out(x)
    without forming out(x): its last layer is [W_L; b_L] @ A with a added
    to the bias row, and its hidden layers are `mlp`'s own arrays.  A map
    that feeds several heads has their maps side by side, and so the
    folded net has their outputs stacked.
    """
    last = mlp.layers[-1] @ head[:-1]
    last[-1] += head[-1]
    # Built without Mlp's shape checks: `mlp` passed them, and the product
    # above fails on a map that does not fit.
    net = object.__new__(Mlp)
    net.layers = mlp.layers[:-1] + [last]
    return net


@dataclass(frozen=True)
class ModelConfig:
    """Dimensions of the co-trained model pair."""

    input2d_dim: int
    input3d_dim: int
    hidden: Tuple[int, ...] = (64,)
    latent_dim: int = 64  # shared encoder output width
    embed_dim: int = 512  # class embedding space
    anchor_dim: int = 64  # frozen anchor space
    sam_dim: int = 32  # oracle feature dimension entering the anchor head

    def validate(self):
        if min(self.input2d_dim, self.input3d_dim, self.latent_dim,
               self.embed_dim, self.anchor_dim, self.sam_dim, *self.hidden) < 1:
            raise ValidationError("all model dimensions must be >= 1")


_HEAD_NAMES = ("head_s2d", "head_s3d", "head_f2d", "head_f3d")


@functools.lru_cache(maxsize=64)
def _layout(config: ModelConfig) -> Tuple[Tuple[str, int, int, Tuple[int, ...]], ...]:
    """(name, start, stop, shape) of every trainable parameter, in declaration order."""
    shapes = []
    for enc, fan_in in (("enc2d", config.input2d_dim), ("enc3d", config.input3d_dim)):
        widths = [fan_in, *config.hidden, config.latent_dim]
        for i, (a, b) in enumerate(zip(widths[:-1], widths[1:])):
            shapes += [(f"{enc}.w{i}", (a, b)), (f"{enc}.b{i}", (b,))]
    for head in _HEAD_NAMES:
        width = config.embed_dim if head.startswith("head_s") else config.anchor_dim
        shapes += [(f"{head}.w", (config.latent_dim, width)), (f"{head}.b", (width,))]
    layout, offset = [], 0
    for name, shape in shapes:
        layout.append((name, offset, offset + math.prod(shape), shape))
        offset += math.prod(shape)
    return tuple(layout)


def _param_count(config: ModelConfig) -> int:
    return _layout(config)[-1][2]


def param_views(config: ModelConfig, vec: np.ndarray) -> Dict[str, np.ndarray]:
    """Declaration-ordered name -> view of a parameter or gradient vector."""
    return {name: vec[start:stop].reshape(shape)
            for name, start, stop, shape in _layout(config)}


@functools.lru_cache(maxsize=64)
def _layer_blocks(config: ModelConfig) -> Dict[str, Tuple[Tuple[slice, Tuple[int, int]], ...]]:
    """Per encoder and head, the (slice, shape) of each of its layers' [W; b]
    blocks: _layout puts every bias right after its weight, so a layer is
    one contiguous (fan_in + 1, fan_out) block of the vector."""
    layout = _layout(config)
    blocks: Dict[str, list] = {}
    for (name, start, _, (fan_in, fan_out)), (_, _, stop, _) in zip(layout[0::2],
                                                                   layout[1::2]):
        blocks.setdefault(name.split(".")[0], []).append(
            (slice(start, stop), (fan_in + 1, fan_out)))
    return {owner: tuple(layers) for owner, layers in blocks.items()}


class ModelBundle:
    """The trainable encoder/head pair plus the frozen components.

    `params` holds every trainable parameter; the layers of `enc2d` and
    `enc3d` and the four heads (each a (D_h + 1, D_out) [W; b]) are views
    into it, so updating `params` in place updates them all.  The frozen
    `anchor_head` (D_s, K_f) is a separate read-only array of the same
    dtype; the model computes in that dtype.  `embeddings` is the frozen
    (L, embed_dim) float64 table of unit class embeddings; its checks live
    here, so make_bundle and load_checkpoint both pass them.  `step_plan`
    is what `step` and class_layer read of the model that no update
    changes, the class table E in the parameters' dtype among it.
    """

    def __init__(self, config: ModelConfig, params: np.ndarray,
                 embeddings: np.ndarray, seed: int, anchor_head: np.ndarray):
        embeddings = np.asarray(embeddings, dtype=np.float64)
        if embeddings.ndim != 2 or not len(embeddings):
            raise ValidationError(
                f"class embeddings must be (L, D) with L >= 1, got {embeddings.shape}")
        if embeddings.shape[1] != config.embed_dim:
            raise ValidationError(f"class embeddings have dim {embeddings.shape[1]} "
                                  f"!= config embed_dim {config.embed_dim}")
        if not np.isfinite(embeddings).all():
            raise ValidationError("class embeddings must be finite")
        if np.max(np.abs(np.linalg.norm(embeddings, axis=1) - 1.0)) >= 1e-9:
            raise ValidationError("class embeddings must be unit vectors")
        self.config = config
        self.params = params
        self.embeddings = embeddings
        self.seed = int(seed)
        layers = {owner: [params[sl].reshape(shape) for sl, shape in blocks]
                  for owner, blocks in _layer_blocks(config).items()}
        self.enc2d, self.enc3d = Mlp(layers["enc2d"]), Mlp(layers["enc3d"])
        self.head_s2d, self.head_s3d, self.head_f2d, self.head_f3d = (
            layers[head][0] for head in _HEAD_NAMES)
        anchor_head.setflags(write=False)
        self.anchor_head = anchor_head
        self.step_plan = _step_plan(self)

    def astype(self, dtype) -> "ModelBundle":
        """A copy of the model that computes in `dtype`: its parameters and
        anchor head are cast (and copied), the rest is shared."""
        return ModelBundle(self.config, self.params.astype(dtype), self.embeddings,
                           self.seed, self.anchor_head.astype(dtype))


def make_bundle(config: ModelConfig, embeddings: np.ndarray,
                seed: int) -> ModelBundle:
    """Seeded construction; the anchor head is drawn once and then frozen.

    Weights are drawn in declaration order, He-scaled in the encoders and
    scaled by 1/fan_in in the heads and the anchor; biases start at zero.
    """
    config.validate()
    rng = derive_rng(seed, TAG_MODEL)

    def draw(name, shape):
        gain = 2.0 if name.startswith("enc") else 1.0
        return rng.standard_normal(shape) * np.sqrt(gain / shape[0])

    params = np.zeros(_param_count(config))
    for name, view in param_views(config, params).items():
        if ".w" in name:
            view[...] = draw(name, view.shape)
    anchor = draw("anchor_head.w", (config.sam_dim, config.anchor_dim))
    return ModelBundle(config, params, embeddings, seed, anchor)


# ---------------------------------------------------------------------------
# losses


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax of each column of class logits (C, N),
    computed in place in `logits`."""
    logits -= logits.max(axis=0)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=0)
    return logits


def class_logits(rows: np.ndarray, folded: np.ndarray) -> np.ndarray:
    """Class logits (C, N) of feature-major rows (D + 1, N) under a folded
    class layer [M; c] (D + 1, C): folded.T @ rows.

    Inference passes an encoder's last hidden activations and the
    encoder's output layer folded into its semantic head's class map
    (class_layer).
    """
    return folded.T @ rows


def ce_loss(logits: np.ndarray, target_labels: np.ndarray, grad: bool = True
            ) -> Tuple[float, Optional[np.ndarray]]:
    """Mean cross-entropy of class logits (C, N) against N target labels.

    The logits are feature-major: column i holds row i's C logits.
    IGNORE targets are skipped and get a zero gradient column; an
    all-IGNORE batch yields zero loss and a zero gradient.  Returns (loss,
    gradient w.r.t. the logits); with grad=False the backward half is
    skipped and the gradient is None.  `logits` is not written.  The log
    of a picked probability is floored at 1e-300, or at the dtype's
    smallest normal number where that is larger (float32), so that the
    loss stays finite.
    """
    logits = np.asarray(logits)
    targets = np.asarray(target_labels).ravel()
    if logits.ndim != 2 or len(targets) != logits.shape[1]:
        raise ValidationError(f"logits of shape {logits.shape} vs {len(targets)} targets")
    valid = targets != IGNORE
    n = int(np.count_nonzero(valid))
    if not n:
        return 0.0, np.zeros_like(logits) if grad else None
    # Every column runs through the softmax.  An IGNORE column picks class
    # 0, which its loss never reads and its gradient does not change; the
    # column is then zeroed, to +0.0, as its probabilities are not negative.
    masked = n < len(targets)
    labels = np.where(valid, targets, 0) if masked else targets
    if labels.max() >= len(logits) or labels.min() < 0:
        raise ValidationError("target labels outside [0, num_classes)")
    probs = softmax(logits.copy())
    cols = np.arange(len(targets))
    picked = probs[labels, cols]
    floor = probs.dtype.type(max(1e-300, float(np.finfo(probs.dtype).tiny)))
    logs = np.log(np.maximum(picked[valid] if masked else picked, floor))
    loss = -float(np.add.reduce(logs)) / n
    if not grad:
        return loss, None
    d_logits = probs  # probs is not read again; its buffer is reused
    d_logits[labels, cols] = picked - valid
    d_logits /= n
    if masked:
        d_logits *= valid
    return loss, d_logits


def anchor_units(bundle: ModelBundle, oracle_feats: np.ndarray) -> np.ndarray:
    """Unit anchor embeddings (anchor_dim, N) of oracle features (N, sam_dim).

    Column i is the frozen anchor projection s_i @ A scaled to unit norm,
    or a zero column where the projection has ~zero norm: feature-major,
    as cosine_align_loss reads them.  The anchor head never trains, so a
    training run computes these once.  They are in the dtype of the
    bundle's anchor head.
    """
    head = bundle.anchor_head
    units = head.T @ np.asarray(oracle_feats, dtype=head.dtype).T
    norms = np.linalg.norm(units, axis=0)
    degenerate = norms < _NORM_EPS
    units /= np.where(degenerate, 1.0, norms)
    units[:, degenerate] = 0.0
    return units


def cosine_align_loss(x_out: np.ndarray, p_out: np.ndarray, anchors: np.ndarray,
                      grad: bool = True
                      ) -> Tuple[float, Optional[np.ndarray], Optional[np.ndarray], int]:
    """Pull both feature-head outputs toward the frozen anchor embedding.

    `x_out` and `p_out` are the F2d and F3d head outputs of paired rows,
    feature-major (K, N) like `anchors`, the rows' unit anchor embeddings
    (anchor_units).  Per pair i the loss is (1 - cos(x_i, a_i)) +
    (1 - cos(p_i, a_i)) over the columns i, averaged over pairs; the
    frozen anchors get no gradient.  Zero-norm head outputs and zero
    anchor columns contribute cosine 0 with zero gradient and are counted.
    Returns (loss, gradient w.r.t. x_out, gradient w.r.t. p_out, zero-norm
    count); with grad=False the backward half is skipped and both
    gradients are None.  No input is written.
    """
    x_out, p_out, a_unit = np.asarray(x_out), np.asarray(p_out), np.asarray(anchors)
    n = a_unit.shape[1]
    if not x_out.shape[1] == p_out.shape[1] == n:
        raise ValidationError("cosine_align_loss needs equally many x, p, anchor columns")
    if n == 0:
        if not grad:
            return 0.0, None, None, 0
        return 0.0, np.zeros_like(x_out), np.zeros_like(p_out), 0

    a_degen = ~a_unit.any(axis=0)
    total = 0.0
    zero_count = np.count_nonzero(a_degen)

    def side(out):
        nonlocal total, zero_count
        norms = np.sqrt(np.add.reduce(out * out, axis=0))
        degen = norms < _NORM_EPS
        divisor = np.where(degen, 1.0, norms)
        cos = np.add.reduce(out * a_unit, axis=0)
        cos /= divisor
        dead = degen | a_degen
        masked = dead.any()
        if masked:
            cos[dead] = 0.0
        zero_count += np.count_nonzero(degen)
        total += n - float(np.add.reduce(cos))
        if not grad:
            return None
        # d(-cos / n)/d(out) = (cos * out / |out| - a) / (n |out|); zero for
        # dead columns.
        inv = 1.0 / (divisor * n)
        d_out = out * (cos * inv / divisor)
        d_out -= a_unit * inv
        if masked:
            d_out[:, dead] = 0.0
        return d_out

    d_x = side(x_out)
    d_p = side(p_out)
    return total / n, d_x, d_p, int(zero_count)


# ---------------------------------------------------------------------------
# the training step, SGD, and the gradient checker


class _Head(NamedTuple):
    """A head folded into an encoder pass of `step`: its span of the pass
    (columns of the folded map, rows of the output), the bundle's view of
    its [W; b], and that layer's block of the gradient vector as (slice,
    shape)."""

    semantic: bool
    cols: slice
    layer: np.ndarray
    block: tuple


class _Pass(NamedTuple):
    """An encoder pass of `step`: the encoder, the heads folded into its
    output layer and their total width, the encoder's [W; b] gradient
    block per layer, and whether an earlier pass of the step wrote those
    blocks, so that this one adds to them."""

    mlp: Mlp
    heads: Tuple[_Head, ...]
    width: int
    blocks: tuple
    adds: bool


class _StepPlan(NamedTuple):
    """What `step` reads of a model that no parameter update changes.

    `terms` maps which terms a batch holds, (y2d, y3d, anchors present),
    to the passes over its x2d, x3d and pair3d rows, None where a pass
    does not run.  `emb` is the class embedding table E in the parameters'
    dtype.
    """

    size: int
    num_classes: int
    emb: np.ndarray
    emb_t: np.ndarray
    terms: Dict[Tuple[bool, bool, bool], tuple]


def _step_plan(bundle: ModelBundle) -> _StepPlan:
    config = bundle.config
    blocks = _layer_blocks(config)
    num_classes = len(bundle.embeddings)

    def make_pass(enc, names, adds):
        heads, lo = [], 0
        for name in names:
            semantic = name.startswith("s")
            hi = lo + (num_classes if semantic else config.anchor_dim)
            heads.append(_Head(semantic, slice(lo, hi), getattr(bundle, f"head_{name}"),
                               blocks[f"head_{name}"][0]))
            lo = hi
        return _Pass(getattr(bundle, enc), tuple(heads), lo, blocks[enc], adds)

    terms = {}
    for ce2d, ce3d, latent in itertools.product((False, True), repeat=3):
        heads2d = [name for name, used in (("s2d", ce2d), ("f2d", latent)) if used]
        terms[ce2d, ce3d, latent] = (
            make_pass("enc2d", heads2d, False) if heads2d else None,
            make_pass("enc3d", ["s3d"], False) if ce3d else None,
            make_pass("enc3d", ["f3d"], ce3d) if latent else None)
    emb = bundle.embeddings.astype(bundle.params.dtype)
    return _StepPlan(_param_count(config), num_classes, emb, emb.T, terms)


def _block(vec: np.ndarray, block) -> np.ndarray:
    sl, shape = block
    return vec[sl].reshape(shape)


def _fold(plan: _StepPlan, p: _Pass) -> Tuple[Mlp, np.ndarray]:
    """`p`'s encoder with its output layer folded into `p`'s heads: (net, m).
    m holds the heads' maps [A; a] from latent rows side by side
    (fold_output): a feature head's [W; b], a semantic head's class map
    [W; b] @ E.T."""
    m = np.empty((p.mlp.layers[-1].shape[1] + 1, p.width), plan.emb.dtype)
    for head in p.heads:
        if head.semantic:
            np.matmul(head.layer, plan.emb_t, out=m[:, head.cols])
        else:
            m[:, head.cols] = head.layer
    return fold_output(p.mlp, m), m


def _fold_pass(plan: _StepPlan, p: _Pass, rows: np.ndarray):
    """Run feature-major `rows` through `p`'s folded net: (output, (net, m,
    forward cache))."""
    net, m = _fold(plan, p)
    out, cache = mlp_forward(net, rows)
    return out, (net, m, cache)


def class_layer(bundle: ModelBundle, enc: str) -> np.ndarray:
    """Encoder `enc`'s output layer folded into its semantic head's class
    map, [W_L; b_L] @ M plus c in the bias row: the last layer of `step`'s
    fold for a batch of `enc`'s labelled rows alone.  class_logits applies
    it."""
    plan = bundle.step_plan
    p = {"enc2d": plan.terms[True, False, False][0],
         "enc3d": plan.terms[False, True, False][1]}[enc]
    return _fold(plan, p)[0].layers[-1]


def _backward(plan: _StepPlan, p: _Pass, run, d_out: np.ndarray, total: np.ndarray):
    """Write (or add, when p.adds) the gradient of one folded pass into `total`.

    The folded output layer's gradient G = [g; s] = h @ D.T comes back
    through the fold m = [A; a] by the chain rule: the encoder's last
    layer gets G @ A.T, and the map gets [W_L; b_L].T @ G (which holds
    W_L.T @ g + b_L s^T) over the row s.  A semantic head's map [W; b] @
    E.T passes its gradient on through E.
    """
    net, m, cache = run
    views = [_block(total, block) for block in p.blocks]
    if p.adds:
        grads = mlp_backward(net, cache, d_out)
        for view, g in zip(views[:-1], grads):
            view += g
        views[-1] += grads[-1] @ m[:-1].T
    else:
        grads = mlp_backward(net, cache, d_out, out=views[:-1] + [None])
        np.matmul(grads[-1], m[:-1].T, out=views[-1])
    g = grads[-1]
    d_map = np.empty_like(m)
    np.matmul(p.mlp.layers[-1].T, g, out=d_map[:-1])
    d_map[-1] = g[-1]
    for head in p.heads:
        if head.semantic:
            np.matmul(d_map[:, head.cols], plan.emb, out=_block(total, head.block))
        else:
            _block(total, head.block)[...] = d_map[:, head.cols]


def _branch_pattern(passes, runs) -> bytes:
    """What picks the non-smooth branches of a step, read off its passes.

    `passes` are step's three passes, None where one did not run, and
    `runs` what _fold_pass returned for each: (output, (net, m, forward
    cache)).  The pattern is the sign of every hidden unit, per row, of
    every pass that ran, and whether each feature-head output row has zero
    norm, which cosine_align_loss answers with the same test.
    """
    parts = []
    for p, (out, run) in zip(passes, runs):
        if p is None:
            continue
        parts += [h[:-1] > 0 for h in run[2][1:-1]]
        feature = p.heads[-1]
        if not feature.semantic:
            f = out[feature.cols]
            parts.append(np.sqrt(np.add.reduce(f * f, axis=0)) < _NORM_EPS)
    return b"".join(part.tobytes() for part in parts)


def step(bundle: ModelBundle, batch: dict, grad: bool = True
         ) -> Tuple[Dict[str, float], Union[np.ndarray, bytes]]:
    """Losses of one training batch and the gradient of their weighted sum.

    `batch` holds up to three terms; a term whose keys are absent is
    skipped and reads 0:

    * "x2d" rows with "y2d" labels: the 2D cross-entropy l_ce2d;
    * "x3d" rows with "y3d" labels: the 3D cross-entropy l_ce3d;
    * "pair3d" (the 3D rows paired with the "x2d" rows), "anchors" (their
      unit anchor embeddings, see anchor_units) and "latent_weight" w: the
      latent term l_latent.

    Rows are feature-major, as an Mlp reads them (feature_major): the
    x2d, x3d and pair3d rows are (D + 1, N) with a trailing ones row, the
    anchors (anchor_dim, N); labels are (N,).

    Returns ({"loss", "l_ce2d", "l_ce3d", "l_latent"}, gradient), where
    loss = l_ce2d + l_ce3d + w * l_latent and the gradient, laid out like
    bundle.params, is its gradient: a fresh vector on every call.  Each of
    the three row sets makes one pass through its encoder with the output
    layer folded into the heads that read those rows (fold_output): the
    x2d rows into s2d and f2d, the x3d rows into s3d, the pair3d rows into
    f3d.  What the passes of each subset of terms are is worked out once
    per model (bundle.step_plan).  w scales the latent output gradients
    before they enter the folded layers.  With grad=False every backward
    half is skipped, the losses are the same to the bit, and in place of
    the gradient comes the branch pattern of the passes just run
    (_branch_pattern), which grad_check compares between its probes.
    """
    plan = bundle.step_plan
    ce2d, ce3d, latent = "y2d" in batch, "y3d" in batch, "anchors" in batch
    weight = batch["latent_weight"] if latent else 0.0
    pass2d, pass3d, pair3d = passes = plan.terms[ce2d, ce3d, latent]
    runs = [_fold_pass(plan, p, batch[rows]) if p else (None, None)
            for p, rows in zip(passes, ("x2d", "x3d", "pair3d"))]
    (out2d, run2d), (out3d, run3d), (outp, runp) = runs

    l_ce2d = l_ce3d = l_latent = 0.0
    if ce2d:
        l_ce2d, d_s2d = ce_loss(out2d[:plan.num_classes], batch["y2d"], grad=grad)
    if ce3d:
        l_ce3d, d_s3d = ce_loss(out3d, batch["y3d"], grad=grad)
    if latent:
        l_latent, d_f2d, d_f3d, _ = cosine_align_loss(
            out2d[pass2d.heads[-1].cols], outp, batch["anchors"], grad=grad)
        if grad and weight != 1.0:  # the gradients are fresh arrays
            d_f2d *= weight
            d_f3d *= weight
    losses = {"l_ce2d": l_ce2d, "l_ce3d": l_ce3d, "l_latent": l_latent,
              "loss": l_ce2d + l_ce3d + weight * l_latent}
    if not grad:
        return losses, _branch_pattern(passes, runs)

    # Every block is written below, except those of absent terms.
    alloc = np.empty if ce2d and ce3d and latent else np.zeros
    total = alloc(plan.size, plan.emb.dtype)
    if pass2d:
        if ce2d and latent:
            d_out = np.concatenate((d_s2d, d_f2d))
        else:
            d_out = d_s2d if ce2d else d_f2d
        _backward(plan, pass2d, run2d, d_out, total)
    if ce3d:
        _backward(plan, pass3d, run3d, d_s3d, total)
    if latent:
        _backward(plan, pair3d, runp, d_f3d, total)
    return losses, total


def sgd_step(bundle: ModelBundle, grad: np.ndarray, lr: float) -> ModelBundle:
    """In-place SGD update of the parameter vector."""
    if lr <= 0:
        raise ValidationError(f"learning rate must be > 0, got {lr}")
    if grad.shape != bundle.params.shape:
        raise ValidationError(
            f"gradient shape {grad.shape} != parameter shape {bundle.params.shape}")
    if not np.isfinite(grad).all():
        raise NumericalError("non-finite gradient; step aborted")
    bundle.params -= lr * grad
    return bundle


_PROBE_ELEMENTS = 128
_PROBE_DIRECTIONS = 8
_MAX_SKIPPED = 0.1


class GradCheck(NamedTuple):
    """What grad_check found: the worst relative error of the scored probe
    pairs, the pairs skipped for crossing a branch, and all probe pairs."""

    error: float
    skipped: int
    pairs: int


def grad_check(bundle: ModelBundle, batch: dict, eps: float = 1e-5) -> GradCheck:
    """Check the gradient of step(bundle, batch) by central differences.

    Each parameter block is probed along unit vectors v: along every
    element if the block has at most _PROBE_ELEMENTS of them, else along
    _PROBE_DIRECTIONS random directions drawn from a stream of
    bundle.seed, as in the fast mode of PyTorch's gradcheck.  A probe pair
    scores |a - n| / max(|a|, |n|, 1e-8), with a = grad . v and n the
    central difference of step's loss-only mode at +-eps v, which must
    give the full step's losses to the bit.  Each probe is one loss-only
    step, which also returns the branch pattern of the passes it ran.  A
    pair either of whose probes changes that pattern from the unshifted
    one straddles a ReLU kink or a zero-norm row, where n averages two
    slopes; it is skipped and counted, not scored.  More than
    _MAX_SKIPPED of the pairs skipped raises NumericalError, so that
    skipping cannot hide a wrong gradient.  A block whose joint +eps
    shift leaves the loss bit-identical is not read by the loss: its
    numeric gradient is 0, and it is scored without probes.  Every step
    runs on a float64 copy of `bundle` (ModelBundle.astype): central
    differences at eps = 1e-5 need float64 to resolve the checker's 1e-4
    bound.  `bundle` itself is not touched.
    """
    bundle = bundle.astype(np.float64)
    base, analytic = step(bundle, batch)
    pattern = step(bundle, batch, grad=False)[1]
    rng = derive_rng(bundle.seed, TAG_GRADCHECK)
    worst, skipped, pairs = 0.0, 0, 0
    for _, start, stop, _ in _layout(bundle.config):
        block = bundle.params[start:stop]
        grad = analytic[start:stop]
        saved = block.copy()
        block += eps
        unread = step(bundle, batch, grad=False)[0]["loss"] == base["loss"]
        block[...] = saved
        if unread:
            a = np.abs(grad)
            worst = max(worst, float(np.max(a / np.maximum(a, 1e-8))))
            continue
        if block.size <= _PROBE_ELEMENTS:
            directions = np.eye(block.size)
        else:
            directions = rng.standard_normal((_PROBE_DIRECTIONS, block.size))
            directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        for v in directions:
            losses, crossed = [], False
            for shift in (eps, -eps):
                block[...] = saved + shift * v
                probed, probed_pattern = step(bundle, batch, grad=False)
                losses.append(probed["loss"])
                crossed = crossed or probed_pattern != pattern
            block[...] = saved
            pairs += 1
            if crossed:
                skipped += 1
                continue
            numeric = (losses[0] - losses[1]) / (2.0 * eps)
            a = float(grad @ v)
            worst = max(worst, abs(a - numeric) / max(abs(a), abs(numeric), 1e-8))
    if skipped > _MAX_SKIPPED * pairs:
        raise NumericalError(
            f"gradient check skipped {skipped} of {pairs} probe pairs, more than "
            f"{_MAX_SKIPPED:.0%}: too many of them cross a branch to be scored")
    return GradCheck(worst, skipped, pairs)


# ---------------------------------------------------------------------------
# checkpoints

_CKPT_MAGIC = "CNSCKPT v1"


def config_hash(obj) -> str:
    """Short stable hash of a dataclass-ish config repr."""
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def save_checkpoint(bundle: ModelBundle, path, extra: Optional[dict] = None):
    """Write a versioned checkpoint: text header + float32 LE payload.

    The header names every ModelConfig field; the payload holds the
    parameter vector, then the frozen anchor head and the class embedding
    table, so a float32 model's parameters are stored exactly.  A value
    that is not finite in float32 raises NumericalError, and an extra
    whose x_<key>=<value> line would not read back as written (a key
    holding "=", a line break or a character UTF-8 cannot encode in key
    or value) raises ValidationError, before anything is written.
    """
    with np.errstate(over="ignore"):  # the check below reports an overflow
        payload = np.concatenate([bundle.params, bundle.anchor_head.ravel(),
                                  bundle.embeddings.ravel()]).astype("<f4")
    if not np.isfinite(payload).all():
        raise NumericalError(f"{path}: values not finite in float32; nothing written")
    cfg = bundle.config
    lines = [_CKPT_MAGIC]
    lines += [f"{f.name}={format_value(getattr(cfg, f.name))}" for f in fields(cfg)]
    lines.append(f"num_classes={len(bundle.embeddings)}")
    lines.append(f"seed={bundle.seed}")
    lines.append(f"config_hash={config_hash(cfg)}")
    for key, value in sorted((extra or {}).items()):
        line = f"x_{key}={format_value(value)}"
        if ("=" in str(key) or line.splitlines() != [line]
                or line.encode(errors="replace").decode() != line):
            raise ValidationError(f"{path}: extra {line!r} would not read back "
                                  f"as one key=value line; nothing written")
        lines.append(line)
    lines.append("END")
    tmp = str(path) + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(("\n".join(lines) + "\n").encode())
        fh.write(payload.tobytes())
    os.replace(tmp, str(path))


def load_checkpoint(path) -> Tuple[ModelBundle, dict]:
    """Read a checkpoint back into a float32 ModelBundle.

    The parameters and the anchor head are the float32 payload as it is,
    so a float32 model comes back exactly; the class embeddings are
    renormalized in float64.  The header ends at its own END line.  A
    malformed header (a line not key=value, a repeated key) or payload
    raises ValidationError naming the file.  Header keys that name no
    ModelConfig field are kept in the returned metadata and otherwise ignored.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    end = blob.find(b"\nEND\n")
    if not blob.startswith(_CKPT_MAGIC.encode()) or end < 0:
        raise ValidationError(f"{path}: not a {_CKPT_MAGIC} checkpoint")
    try:
        meta = {}
        for lineno, line in enumerate(blob[:end].decode().splitlines()[1:], start=2):
            if "=" not in line:
                raise ValueError(f"line {lineno}: expected key=value")
            key, value = line.split("=", 1)
            if key in meta:
                raise ValueError(f"line {lineno}: duplicate key {key!r}")
            meta[key] = value
        kinds = typing.get_type_hints(ModelConfig)
        cfg = ModelConfig(**{f.name: parse_value(kinds[f.name], meta[f.name])
                             for f in fields(ModelConfig)})
        cfg.validate()
        num_classes = int(meta["num_classes"])
        seed = int(meta["seed"])
        if num_classes < 1:
            raise ValidationError(f"num_classes must be >= 1, got {num_classes}")
    except KeyError as exc:
        raise ValidationError(f"{path}: header lacks {exc.args[0]!r}") from None
    except (ValueError, ValidationError) as exc:
        raise ValidationError(f"{path}: bad header: {exc}") from None

    start = end + 5
    n_params = _param_count(cfg)
    n_anchor = cfg.sam_dim * cfg.anchor_dim
    expected = 4 * (n_params + n_anchor + num_classes * cfg.embed_dim)
    if len(blob) - start != expected:
        raise ValidationError(f"{path}: payload has {len(blob) - start} bytes, "
                              f"header implies {expected}")
    payload = np.frombuffer(blob, "<f4", offset=start)
    # Checked before the float64 cast, which warns on a signalling NaN.
    if not np.isfinite(payload).all():
        raise ValidationError(f"{path}: payload holds non-finite values")
    params = payload[:n_params].astype(np.float32)  # a writable copy
    anchor = payload[n_params:n_params + n_anchor].reshape(cfg.sam_dim, cfg.anchor_dim)
    emb = payload[n_params + n_anchor:].astype(np.float64).reshape(num_classes,
                                                                   cfg.embed_dim)
    norms = np.linalg.norm(emb, axis=1, keepdims=True)
    if not norms.all():
        raise ValidationError(f"{path}: class embedding row "
                              f"{int(np.argmin(norms))} has zero norm")
    emb /= norms
    bundle = ModelBundle(cfg, params, emb, seed, anchor)
    return bundle, meta
