"""Small numpy encoders, the training step, SGD, and gradient checks.

The 2D and 3D backbones are plain MLPs (ReLU hidden layers, linear
output) over hand-built descriptors.  On top of the shared latent space
sit four trainable linear heads — semantic heads mapping into the class
embedding space and feature heads mapping into the anchor space — plus a
frozen bias-free anchor projection and the frozen class embedding table.
A semantic head is folded into the class embeddings (class_map), so the
class logits are f @ M + c in training (ce_loss) and inference
(class_logits) alike.

Every trainable parameter lives in one float64 vector, laid out by
param_views.  All arithmetic is float64; gradients are written by hand.
`step` computes the training objective and its gradient as one vector
laid out like the parameters; training and grad_check (central finite
differences) both call it, the checker's probes in its loss-only mode.
"""

from __future__ import annotations

import functools
import hashlib
import math
import os
import typing
from dataclasses import dataclass, fields
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from .errors import NumericalError, ValidationError
from .evaluation import format_value, parse_value
from .pseudolabel import IGNORE, LabelMap
from .scenesynth import ClassEmbeddingTable
from .seeding import TAG_MODEL, derive_rng

_NORM_EPS = 1e-12


# ---------------------------------------------------------------------------
# model containers


@dataclass
class Mlp:
    """Fully connected net: ReLU on hidden layers, linear output."""

    weights: List[np.ndarray]  # each (fan_in, fan_out)
    biases: List[np.ndarray]

    def __post_init__(self):
        if len(self.weights) != len(self.biases) or not self.weights:
            raise ValidationError("need matching, non-empty weight/bias lists")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != 2 or b.shape != (w.shape[1],):
                raise ValidationError(f"layer {i} shapes incompatible: {w.shape}, {b.shape}")
            if i and self.weights[i - 1].shape[1] != w.shape[0]:
                raise ValidationError(f"layer {i} fan-in does not match layer {i-1} fan-out")


def mlp_forward(mlp: Mlp, x: np.ndarray) -> Tuple[np.ndarray, list]:
    """Forward pass returning (output, cache-for-backward).

    Each layer allocates one array, the `h @ w` product; the bias and the
    ReLU are applied to it in place.  `x` is never written.
    """
    x = np.asarray(x, dtype=np.float64)
    cache = [x]
    h = x
    last = len(mlp.weights) - 1
    for i, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        h = h @ w
        h += b
        if i < last:
            np.maximum(h, 0.0, out=h)
        cache.append(h)
    return h, cache


def mlp_backward(mlp: Mlp, cache: list, d_out: np.ndarray
                 ) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """Backward pass: (weight grads, bias grads).

    The gradient w.r.t. the input is not formed: the inputs are data.
    """
    d_w = [None] * len(mlp.weights)
    d_b = [None] * len(mlp.biases)
    grad = np.asarray(d_out, dtype=np.float64)
    last = len(mlp.weights) - 1
    for i in range(last, -1, -1):
        if i < last:
            grad *= cache[i + 1] > 0
        d_w[i] = cache[i].T @ grad
        d_b[i] = grad.sum(axis=0)
        if i:
            grad = grad @ mlp.weights[i].T
    return d_w, d_b


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
    temperature: float = 1.0

    def validate(self):
        if min(self.input2d_dim, self.input3d_dim, self.latent_dim,
               self.embed_dim, self.anchor_dim, self.sam_dim, *self.hidden) < 1:
            raise ValidationError("all model dimensions must be >= 1")
        if self.temperature <= 0:
            raise ValidationError("temperature must be > 0")


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


class ModelBundle:
    """The trainable encoder/head pair plus the frozen components.

    `params` holds every trainable parameter; `enc2d`, `enc3d` and the
    four heads ({"w": (D_h, D_out), "b": (D_out,)}) are views into it, so
    updating `params` in place updates them all.  The frozen `anchor_head`
    (D_s, K_f) is a separate read-only array, like the class embedding
    table.
    """

    def __init__(self, config: ModelConfig, params: np.ndarray,
                 embeddings: ClassEmbeddingTable, seed: int,
                 anchor_head: np.ndarray):
        self.config = config
        self.params = params
        self.embeddings = embeddings
        self.seed = int(seed)
        views = param_views(config, params)
        layers = range(len(config.hidden) + 1)
        self.enc2d, self.enc3d = (
            Mlp([views[f"{enc}.w{i}"] for i in layers],
                [views[f"{enc}.b{i}"] for i in layers])
            for enc in ("enc2d", "enc3d"))
        self.head_s2d, self.head_s3d, self.head_f2d, self.head_f3d = (
            {"w": views[f"{head}.w"], "b": views[f"{head}.b"]} for head in _HEAD_NAMES)
        anchor_head.setflags(write=False)
        self.anchor_head = anchor_head

    def head(self, name: str) -> Dict[str, np.ndarray]:
        try:
            return {"s2d": self.head_s2d, "s3d": self.head_s3d,
                    "f2d": self.head_f2d, "f3d": self.head_f3d}[name]
        except KeyError:
            raise ValidationError(f"unknown head {name!r}") from None


def make_bundle(config: ModelConfig, embeddings: ClassEmbeddingTable,
                seed: int) -> ModelBundle:
    """Seeded construction; the anchor head is drawn once and then frozen.

    Weights are drawn in declaration order, He-scaled in the encoders and
    scaled by 1/fan_in in the heads and the anchor; biases start at zero.
    """
    config.validate()
    if embeddings.dim != config.embed_dim:
        raise ValidationError(
            f"embedding table dim {embeddings.dim} != config embed_dim {config.embed_dim}")
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


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Numerically stable row softmax, computed in place in `logits`."""
    logits -= logits.max(axis=-1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=-1, keepdims=True)
    return logits


def class_map(bundle: ModelBundle, head: str) -> Tuple[np.ndarray, np.ndarray]:
    """A semantic head folded into the class embeddings: (M, c).

    With M = W @ E.T / T and c = b @ E.T / T, the logits of feature rows f
    are (f @ W + b) @ E.T / T = f @ M + c, so the rows never pass through
    embed_dim.
    """
    h = bundle.head(head)
    scale = bundle.embeddings.vectors.T / bundle.config.temperature
    return h["w"] @ scale, h["b"] @ scale


def class_logits(features: np.ndarray,
                 folded: Tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Semantic-head logits f @ M + c under a class map (M, c) of class_map."""
    m, c = folded
    logits = np.asarray(features, dtype=np.float64) @ m
    logits += c
    return logits


def ce_loss(bundle: ModelBundle, features: np.ndarray, head: str,
            target_labels: Union[LabelMap, np.ndarray], ignore: int = IGNORE,
            grad: bool = True
            ) -> Tuple[float, Dict[str, np.ndarray], Optional[np.ndarray]]:
    """Cross-entropy of semantic-head predictions against target labels.

    Scores are dot products of the head output with each class embedding,
    divided by the temperature, computed as f @ M + c from class_map.  The
    head gradients pass through M = W @ E.T / T and c = b @ E.T / T:
    dW = (f.T @ d_logits) @ E / T, db = d_logits.sum(0) @ E / T, and the
    feature gradient is d_logits @ M.T.  IGNORE targets are skipped; an
    all-IGNORE batch yields zero loss and zero gradients.  Returns (loss,
    head gradients by parameter name, gradient w.r.t. the features); with
    grad=False the backward half is skipped and they are {} and None.
    """
    if head not in ("s2d", "s3d"):
        raise ValidationError(f"ce_loss expects a semantic head, got {head!r}")
    targets = target_labels.labels if isinstance(target_labels, LabelMap) else target_labels
    targets = np.asarray(targets).ravel()
    features = np.asarray(features, dtype=np.float64)
    if len(targets) != len(features):
        raise ValidationError(f"{len(features)} features vs {len(targets)} targets")
    valid = targets != ignore
    head_name = f"head_{head}"
    h = bundle.head(head)
    if not valid.any():
        if not grad:
            return 0.0, {}, None
        return 0.0, {f"{head_name}.w": np.zeros_like(h["w"]),
                     f"{head_name}.b": np.zeros_like(h["b"])}, np.zeros_like(features)
    masked = not valid.all()
    feats = features[valid] if masked else features
    labels = (targets[valid] if masked else targets).astype(np.int64)
    num_classes = bundle.embeddings.num_classes
    if labels.max() >= num_classes or labels.min() < 0:
        raise ValidationError("target labels outside [0, num_classes)")
    m, c = class_map(bundle, head)
    logits = feats @ m
    logits += c
    probs = softmax_rows(logits)  # in place: logits is not read again
    n = len(labels)
    loss = float(-np.log(np.maximum(probs[np.arange(n), labels], 1e-300)).mean())
    if not grad:
        return loss, {}, None
    d_logits = probs  # probs is not read again; its buffer is reused
    d_logits[np.arange(n), labels] -= 1.0
    d_logits /= n
    emb = bundle.embeddings.vectors / bundle.config.temperature
    grads = {f"{head_name}.w": (feats.T @ d_logits) @ emb,
             f"{head_name}.b": d_logits.sum(axis=0) @ emb}
    d_feats = d_logits @ m.T
    if masked:
        d_feats, d_kept = np.zeros_like(features), d_feats
        d_feats[valid] = d_kept
    return loss, grads, d_feats


def _normalize_rows(vectors: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Scale rows to unit norm in place; ~zero-norm rows become zero rows.

    Returns (norms, degenerate mask).
    """
    norms = np.linalg.norm(vectors, axis=1)
    degenerate = norms < _NORM_EPS
    vectors /= np.where(degenerate, 1.0, norms)[:, None]
    vectors[degenerate] = 0.0
    return norms, degenerate


def anchor_units(bundle: ModelBundle, oracle_feats: np.ndarray) -> np.ndarray:
    """Unit anchor embeddings (N, anchor_dim) of oracle features (N, sam_dim).

    Row i is the frozen anchor projection s_i @ A scaled to unit norm, or a
    zero row where the projection has ~zero norm.  The anchor head never
    trains, so a training run computes these once.
    """
    units = np.asarray(oracle_feats, dtype=np.float64) @ bundle.anchor_head
    _normalize_rows(units)
    return units


def cosine_align_loss(bundle: ModelBundle, x_feats: np.ndarray,
                      p_feats: np.ndarray, anchors: np.ndarray, grad: bool = True
                      ) -> Tuple[float, Dict[str, np.ndarray], Optional[np.ndarray],
                                 Optional[np.ndarray], int]:
    """Pull both feature heads toward the frozen anchor embedding.

    Per pair i the loss is (1 - cos(F2d(x_i), a_i)) + (1 - cos(F3d(p_i), a_i)),
    averaged over pairs, with a_i the unit anchor embedding given in
    `anchors` (rows of anchor_units).  No gradient flows into the frozen
    anchor head.  Zero-norm head outputs and zero anchor rows contribute
    cosine 0 with zero gradient and are counted.
    Returns (loss, head gradients by parameter name, gradient w.r.t.
    x_feats, gradient w.r.t. p_feats, zero-norm count); with grad=False the
    backward half is skipped and the gradients are {}, None and None.
    """
    x_feats = np.asarray(x_feats, dtype=np.float64)
    p_feats = np.asarray(p_feats, dtype=np.float64)
    a_unit = np.asarray(anchors, dtype=np.float64)
    if not (len(x_feats) == len(p_feats) == len(a_unit)):
        raise ValidationError("cosine_align_loss needs equally many x, p, anchor rows")
    n = len(x_feats)
    if n == 0:
        return 0.0, {}, np.zeros_like(x_feats), np.zeros_like(p_feats), 0

    a_degen = ~a_unit.any(axis=1)
    total = 0.0
    zero_count = int(a_degen.sum())

    def side(feats, head):
        nonlocal total, zero_count
        unit = feats @ head["w"]
        unit += head["b"]
        norms, degen = _normalize_rows(unit)
        cos = np.einsum("ij,ij->i", unit, a_unit)
        dead = degen | a_degen
        masked = dead.any()
        # With every row live, `live` is a full slice: no gather, no scatter.
        live = ~dead if masked else slice(None)
        if masked:
            cos[dead] = 0.0
        zero_count += int(degen.sum())
        total += float(np.sum(1.0 - cos))
        if not grad:
            return None, None, None
        # d(cos)/d(out) = (a_unit - cos * unit) / norm; zero for degenerate rows.
        d_out = -(a_unit[live] - cos[live, None] * unit[live]) / norms[live, None] / n
        if masked:
            d_out, d_live = np.zeros_like(unit), d_out
            d_out[live] = d_live
        d_w = feats.T @ d_out
        d_b = d_out.sum(axis=0)
        d_feats = d_out @ head["w"].T
        return d_w, d_b, d_feats

    d_w2, d_b2, d_x = side(x_feats, bundle.head_f2d)
    d_w3, d_b3, d_p = side(p_feats, bundle.head_f3d)
    loss = total / n
    if not grad:
        return loss, {}, None, None, zero_count
    grads = {"head_f2d.w": d_w2, "head_f2d.b": d_b2,
             "head_f3d.w": d_w3, "head_f3d.b": d_b3}
    return loss, grads, d_x, d_p, zero_count


# ---------------------------------------------------------------------------
# the training step, SGD, and the gradient checker


def _add_encoder_grads(views: Dict[str, np.ndarray], enc: str, mlp: Mlp,
                       cache: list, d_out: np.ndarray):
    d_w, d_b = mlp_backward(mlp, cache, d_out)
    for i, (dw, db) in enumerate(zip(d_w, d_b)):
        views[f"{enc}.w{i}"] += dw
        views[f"{enc}.b{i}"] += db


def step(bundle: ModelBundle, batch: dict, grad: bool = True
         ) -> Tuple[Dict[str, float], Optional[np.ndarray]]:
    """Losses of one training batch and the gradient of their weighted sum.

    `batch` holds up to three terms; a term whose keys are absent is
    skipped and reads 0:

    * "x2d" rows with "y2d" labels: the 2D cross-entropy l_ce2d;
    * "x3d" rows with "y3d" labels: the 3D cross-entropy l_ce3d;
    * "pair3d" (the 3D rows paired with the "x2d" rows), "anchors" (their
      unit anchor embeddings, see anchor_units) and "latent_weight" w: the
      latent term l_latent.

    Returns ({"loss", "l_ce2d", "l_ce3d", "l_latent"}, gradient), where
    loss = l_ce2d + l_ce3d + w * l_latent and the gradient, laid out like
    bundle.params, is its gradient.  w scales the latent gradients before
    they enter the encoders; the 3D encoder's gradient is the sum of one
    backward pass per 3D term.  With grad=False every backward half is
    skipped and the gradient is None; the losses are the same to the bit.
    """
    total = np.zeros_like(bundle.params) if grad else None
    views = param_views(bundle.config, total) if grad else {}
    losses = {"l_ce2d": 0.0, "l_ce3d": 0.0, "l_latent": 0.0}
    d_x2d = None
    if "x2d" in batch:
        feats2d, cache2d = mlp_forward(bundle.enc2d, batch["x2d"])
    if "y2d" in batch:
        losses["l_ce2d"], heads, d_x2d = ce_loss(bundle, feats2d, "s2d", batch["y2d"],
                                                 grad=grad)
        for name, value in heads.items():
            views[name][...] = value
    if "y3d" in batch:
        feats3d, cache3d = mlp_forward(bundle.enc3d, batch["x3d"])
        losses["l_ce3d"], heads, d_x3d = ce_loss(bundle, feats3d, "s3d", batch["y3d"],
                                                 grad=grad)
        for name, value in heads.items():
            views[name][...] = value
        if grad:
            _add_encoder_grads(views, "enc3d", bundle.enc3d, cache3d, d_x3d)
    weight = batch["latent_weight"] if "anchors" in batch else 0.0
    if "anchors" in batch:
        feats_pair, cache_pair = mlp_forward(bundle.enc3d, batch["pair3d"])
        losses["l_latent"], heads, d_lat2d, d_pair, _ = cosine_align_loss(
            bundle, feats2d, feats_pair, batch["anchors"], grad=grad)
        for name, value in heads.items():
            views[name][...] = weight * value
        if grad:
            d_x2d = weight * d_lat2d if d_x2d is None else d_x2d + weight * d_lat2d
            _add_encoder_grads(views, "enc3d", bundle.enc3d, cache_pair, weight * d_pair)
    if grad and d_x2d is not None:
        _add_encoder_grads(views, "enc2d", bundle.enc2d, cache2d, d_x2d)
    losses["loss"] = losses["l_ce2d"] + losses["l_ce3d"] + weight * losses["l_latent"]
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


def grad_check(loss_op: Callable[[ModelBundle, bool],
                                 Tuple[Dict[str, float], Optional[np.ndarray]]],
               bundle: ModelBundle, eps: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    `loss_op(bundle, grad)` returns (losses, gradient) like `step`:
    losses["loss"] is the objective and, when grad is true, the gradient
    its analytic gradient.  The probes call it with grad=False, which must
    give the same objective to the bit.  Every element of bundle.params
    is checked; relative error per element is |a - n| / max(|a|, |n|, 1e-8).
    A parameter block whose joint +eps shift leaves the objective
    bit-identical is not read by the loss: its numeric gradient is 0 and
    it is checked without per-element probes.
    """
    base, analytic = loss_op(bundle, True)

    def objective():
        return loss_op(bundle, False)[0]["loss"]

    flat = bundle.params
    worst = 0.0
    for _, start, stop, _ in _layout(bundle.config):
        block = flat[start:stop]
        saved = block.copy()
        block += eps
        unread = objective() == base["loss"]
        block[...] = saved
        if unread:
            a = np.abs(analytic[start:stop])
            worst = max(worst, float(np.max(a / np.maximum(a, 1e-8))))
            continue
        for j in range(start, stop):
            orig = flat[j]
            flat[j] = orig + eps
            hi = objective()
            flat[j] = orig - eps
            lo = objective()
            flat[j] = orig
            numeric = (hi - lo) / (2.0 * eps)
            a = analytic[j]
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            worst = max(worst, rel)
    return worst


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
    table.
    """
    cfg = bundle.config
    lines = [_CKPT_MAGIC]
    lines += [f"{f.name}={format_value(getattr(cfg, f.name))}" for f in fields(cfg)]
    lines.append(f"num_classes={bundle.embeddings.num_classes}")
    lines.append(f"seed={bundle.seed}")
    lines.append(f"config_hash={config_hash(cfg)}")
    lines += [f"x_{key}={format_value(value)}"
              for key, value in sorted((extra or {}).items())]
    lines.append("END")
    tmp = str(path) + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(("\n".join(lines) + "\n").encode())
        for arr in (bundle.params, bundle.anchor_head, bundle.embeddings.vectors):
            fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())
    os.replace(tmp, str(path))


def load_checkpoint(path) -> Tuple[ModelBundle, dict]:
    """Read a checkpoint back into a ModelBundle (embeddings renormalized).

    A malformed header or payload raises ValidationError naming the file.
    Header keys that name no ModelConfig field are kept in the returned
    metadata and otherwise ignored.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    end = blob.find(b"END\n")
    if not blob.startswith(_CKPT_MAGIC.encode()) or end < 0:
        raise ValidationError(f"{path}: not a {_CKPT_MAGIC} checkpoint")
    try:
        meta = dict(line.split("=", 1)
                    for line in blob[:end].decode().splitlines()[1:] if "=" in line)
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

    start = end + 4
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
    params = payload[:n_params].astype(np.float64)
    frozen = payload[n_params:].astype(np.float64)
    anchor = frozen[:n_anchor].reshape(cfg.sam_dim, cfg.anchor_dim)
    emb = frozen[n_anchor:].reshape(num_classes, cfg.embed_dim)
    emb /= np.linalg.norm(emb, axis=1, keepdims=True)
    bundle = ModelBundle(cfg, params, ClassEmbeddingTable(emb), seed, anchor)
    return bundle, meta
