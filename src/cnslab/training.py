"""The two-stage co-training schedule with random label-source switching.

Stage 1 warms both networks up on mask-refined oracle labels plus the
latent alignment loss.  Stage 2 keeps the same parameters (the stages
are seamless) and, per mini-batch and per network independently, draws
the supervision source from {clip2d, clip3d, self2d, self3d}: the
mask-refined oracle labels of either modality or either network's own
mask-refined predictions, carried across modalities through the
correspondence set.  Self-labels are recomputed once per epoch.

Every random choice flows from TrainConfig.seed through dedicated
generator streams, so (scene, config, seed) fully determines batch
order, source draws, and the final parameters.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from .errors import NumericalError, ValidationError
from .evaluation import confusion, csv_cell, miou
from .nncore import (ModelBundle, ModelConfig, anchor_units, class_layer,
                     class_logits, make_bundle, mlp_forward, sgd_step, step)
from .pseudolabel import (IGNORE, REFINE3D_REPROJECT, REFINE3D_TRANSFER_MASKS,
                          derive_clip_labels, refine_points_by_view_masks,
                          refine_views, reproject_refine_points,
                          transfer_labels, transfer_masks)
from .scenesynth import (MAX_DESCRIPTOR_NOISE, PIXEL_DESC_DIM, POINT_DESC_DIM,
                         Scene, gt_pixel_stack, pixel_descriptors,
                         point_descriptors)
from .seeding import SEED_BOUND, TAG_SHUFFLE, TAG_SOURCE, derive_rng

SOURCES = ("clip2d", "clip3d", "self2d", "self3d")


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of the two-stage schedule."""

    stage1_epochs: int = 10
    total_epochs: int = 30
    lr: float = 0.1
    batch_pixels: int = 256
    batch_points: int = 256
    switch_probs_2d: Tuple[float, float, float, float] = (0.25, 0.25, 0.25, 0.25)
    switch_probs_3d: Tuple[float, float, float, float] = (0.25, 0.25, 0.25, 0.25)
    switch_per_element: bool = False
    latent_loss_weight: float = 1.0
    refine_labels: bool = True
    refine3d_mode: str = REFINE3D_TRANSFER_MASKS
    descriptor_noise: float = 0.02
    seed: int = 0

    def probs_for(self, net: int) -> np.ndarray:
        """Source probabilities of network 0 (2D) or 1 (3D), normalised."""
        probs = np.asarray(self.switch_probs_3d if net else self.switch_probs_2d,
                           dtype=np.float64)
        return probs / probs.sum()

    def source_cdf(self) -> np.ndarray:
        """Each network's cumulative source probabilities (2, 4); see
        _draw_sources."""
        cdf = np.stack([self.probs_for(net).cumsum() for net in (0, 1)])
        return cdf / cdf[:, -1:]

    def validate(self):
        if self.total_epochs < 1:
            raise ValidationError(f"total_epochs must be >= 1, got {self.total_epochs}")
        if not 0 <= self.stage1_epochs <= self.total_epochs:
            raise ValidationError("need 0 <= stage1_epochs <= total_epochs")
        if not self.lr > 0:
            raise ValidationError(f"lr must be > 0, got {self.lr}")
        if min(self.batch_pixels, self.batch_points) < 1:
            raise ValidationError("batch sizes must be >= 1")
        for name, probs in (("switch_probs_2d", self.switch_probs_2d),
                            ("switch_probs_3d", self.switch_probs_3d)):
            arr = np.asarray(probs, dtype=np.float64)
            if arr.shape != (4,) or not (arr >= 0).all():
                raise ValidationError(f"{name} must be 4 non-negative values")
            if not abs(arr.sum() - 1.0) < 1e-9:
                raise ValidationError(f"{name} must sum to 1, got {float(arr.sum())!r}")
        if self.refine3d_mode not in (REFINE3D_TRANSFER_MASKS, REFINE3D_REPROJECT):
            raise ValidationError(f"unknown refine3d_mode {self.refine3d_mode!r}")
        if not self.latent_loss_weight >= 0:
            raise ValidationError(
                f"latent_loss_weight must be >= 0, got {self.latent_loss_weight}")
        if not 0 <= self.descriptor_noise <= MAX_DESCRIPTOR_NOISE:
            raise ValidationError(
                f"descriptor_noise must be >= 0 and <= {MAX_DESCRIPTOR_NOISE:g}, "
                f"got {self.descriptor_noise}")
        if not 0 <= self.seed < SEED_BOUND:
            raise ValidationError(f"seed must be in [0, 2**32), got {self.seed}")


@dataclass
class TrainState:
    """Mutable state threaded through the stages."""

    bundle: ModelBundle
    config: TrainConfig
    scene: Scene
    data: Dict[str, np.ndarray]
    # Each network's supervision, one int32 row per source in SOURCES
    # order: the 2D network's at each correspondence entry (4, E), the 3D
    # network's at each point (4, N).  The self-label rows 2-3 read IGNORE
    # until compute_self_labels fills them.
    labels2d: np.ndarray
    labels3d: np.ndarray
    shuffle_rng: np.random.Generator
    source_rng: np.random.Generator
    epoch: int = 0
    # Argmax (pixel, point) predictions of the current parameters; filled
    # by predictions() and cleared by _run_epoch, which changes them.
    predictions: Optional[Tuple[np.ndarray, np.ndarray]] = None
    history: List[dict] = field(default_factory=list)
    # Label-source draws per network and source; a row's sum is that
    # network's draws.
    source_counts: np.ndarray = field(
        default_factory=lambda: np.zeros((2, 4), dtype=np.int64))


def scene_descriptors(scene: Scene,
                      noise: float) -> Tuple[np.ndarray, np.ndarray]:
    """Pixel descriptors of every view (V, H, W, D) and point descriptors (N, D)."""
    desc2d = np.stack([pixel_descriptors(scene, k, noise)
                       for k in range(len(scene.cameras))])
    return desc2d, point_descriptors(scene, noise)


def init_state(scene: Scene, oracles: dict, config: TrainConfig,
               model_config: Optional[ModelConfig] = None,
               descriptors: Optional[Tuple[np.ndarray, np.ndarray]] = None
               ) -> TrainState:
    """Precompute descriptors, oracle labels, and unit anchors; build the model.

    The model is drawn by make_bundle and trains in float32, the precision
    its checkpoint stores: a saved and reloaded model is the trained one.
    `descriptors` may carry the scene_descriptors(scene,
    config.descriptor_noise) pair built by the caller, so that runs on one
    scene share it.  Every dimension check runs before the descriptors are
    built.
    """
    config.validate()
    corr = scene.correspondences()
    if corr.count == 0:
        raise ValidationError("scene has no pixel-point correspondences to train on")
    num_points = len(scene.cloud)

    masks = oracles["masks"]
    embeddings = oracles["embeddings"]
    if len(embeddings) != scene.num_classes:
        raise ValidationError(
            f"class embeddings have {len(embeddings)} rows, "
            f"scene has {scene.num_classes} classes")

    feat_dim = oracles["features"][0].features.shape[-1]
    if model_config is None:
        model_config = ModelConfig(input2d_dim=PIXEL_DESC_DIM,
                                   input3d_dim=POINT_DESC_DIM,
                                   embed_dim=embeddings.shape[1],
                                   sam_dim=feat_dim)
    if model_config.sam_dim != feat_dim:
        raise ValidationError(
            f"model sam_dim (config feat_dim) {model_config.sam_dim} != "
            f"oracle feature dim {feat_dim}")
    input_dims = ((PIXEL_DESC_DIM, POINT_DESC_DIM) if descriptors is None
                  else (descriptors[0].shape[-1], descriptors[1].shape[-1]))
    if (model_config.input2d_dim, model_config.input3d_dim) != input_dims:
        raise ValidationError("model input dims do not match descriptor dims")
    bundle = make_bundle(model_config, embeddings, config.seed).astype(np.float32)
    if descriptors is None:
        descriptors = scene_descriptors(scene, config.descriptor_noise)
    desc2d, desc3d = descriptors
    entries = (corr.camera_index, corr.v, corr.u)
    anchors = np.stack([fm.features for fm in oracles["features"]])[entries]

    labels = derive_clip_labels(corr, oracles["scores"], masks, num_points,
                                config.refine3d_mode)
    pixel_key = "pixel_refined" if config.refine_labels else "pixel_raw"
    point_key = "point_refined" if config.refine_labels else "point_raw"

    data = {
        "desc2d": desc2d, "desc3d": desc3d,
        "x2d": desc2d[entries], "anchors": anchor_units(bundle, anchors),
        "ent_point": corr.point_index,
        "gt_pixel": gt_pixel_stack(scene), "gt_point": scene.cloud.gt_labels,
        "masks": masks, "point_masks": transfer_masks(corr, masks, num_points),
        "corr": corr,
    }
    state = TrainState(
        bundle=bundle, config=config, scene=scene, data=data,
        labels2d=np.full((len(SOURCES), corr.count), IGNORE, dtype=np.int32),
        labels3d=np.full((len(SOURCES), num_points), IGNORE, dtype=np.int32),
        shuffle_rng=derive_rng(config.seed, TAG_SHUFFLE),
        source_rng=derive_rng(config.seed, TAG_SOURCE))
    _set_sources(state, 0, labels[pixel_key], labels[point_key])
    return state


def _set_sources(state: TrainState, row: int, pixel: np.ndarray,
                 point: np.ndarray):
    """Fill rows `row` (from (V, H, W) pixel labels) and `row + 1` (from (N,)
    point labels).

    Each network's row holds the labels at its own inputs: pixel labels
    at the entries or carried onto points, point labels at the entries'
    points or as they are.
    """
    corr = state.data["corr"]
    state.labels2d[row] = pixel[corr.camera_index, corr.v, corr.u]
    state.labels2d[row + 1] = point[corr.point_index]
    state.labels3d[row] = transfer_labels(corr, pixel, len(point))
    state.labels3d[row + 1] = point


# ---------------------------------------------------------------------------
# prediction and self-labels

# Rows per inference chunk.  Every temporary of a chunk (a 64-wide hidden
# activation is 256 KiB in float32) then stays small enough to be reused from the
# allocator's free pages instead of being mapped afresh on every call.
_CHUNK = 1024


def _predict_rows(bundle: ModelBundle, enc: str, rows: np.ndarray) -> np.ndarray:
    """Argmax semantic-head prediction of encoder `enc` for (N, D) rows, by chunk.

    The encoder's output layer is folded into the class map once per call
    by the training step's fold (class_layer), so each chunk runs the
    hidden layers and then one layer to the logits.
    """
    out = np.empty(len(rows), dtype=np.int32)
    mlp = getattr(bundle, enc)
    folded = class_layer(bundle, enc)
    for lo in range(0, len(rows), _CHUNK):
        hidden, _ = mlp_forward(mlp, rows[lo:lo + _CHUNK], hidden_only=True)
        out[lo:lo + _CHUNK] = np.argmax(class_logits(hidden, folded), axis=1)
    return out


def predict_labels_2d(bundle: ModelBundle, desc: np.ndarray) -> np.ndarray:
    """Argmax semantic-head prediction for (V, H, W, D) pixel descriptors."""
    views, h, w, dim = desc.shape
    labels = _predict_rows(bundle, "enc2d", desc.reshape(-1, dim))
    return labels.reshape(views, h, w)


def predict_labels_3d(bundle: ModelBundle, desc: np.ndarray) -> np.ndarray:
    """Argmax semantic-head prediction for (N, D) point descriptors."""
    return _predict_rows(bundle, "enc3d", desc)


def predictions(state: TrainState) -> Tuple[np.ndarray, np.ndarray]:
    """Argmax predictions (pixel stack (V, H, W), points (N,)) of both networks.

    Full-scene inference runs once per parameter version: the result is
    kept on the state, read-only, until the next epoch changes the
    parameters.
    """
    if state.predictions is None:
        pixel = predict_labels_2d(state.bundle, state.data["desc2d"])
        point = predict_labels_3d(state.bundle, state.data["desc3d"])
        pixel.flags.writeable = point.flags.writeable = False
        state.predictions = (pixel, point)
    return state.predictions


def compute_self_labels(state: TrainState) -> Tuple[np.ndarray, np.ndarray]:
    """Mask-refined self-predictions of both networks.

    Fills the self-label rows 2-3 of both label tables and returns the
    (pixel stack (V, H, W), point labels (N,)) they were taken from.
    """
    masks = state.data["masks"]
    pixel, point = predictions(state)
    if state.config.refine_labels:
        pixel = refine_views(pixel, masks)
        if state.config.refine3d_mode == REFINE3D_TRANSFER_MASKS:
            point = refine_points_by_view_masks(point, state.data["point_masks"])
        else:
            point = reproject_refine_points(state.data["corr"], point, masks)
    _set_sources(state, 2, pixel, point)
    return pixel, point


# ---------------------------------------------------------------------------
# one training epoch


def _draw_sources(state: TrainState, counts2d: np.ndarray, counts3d: np.ndarray
                  ) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """One epoch's source draws: per step, one per network (or one per
    element of its batch when configured), the 2D network's first.

    Step t's draws are ``source_rng.choice(4, size, p=probs_for(net))`` to
    the bit, generator state included, for size counts2d[t] and then
    counts3d[t] (or 1 each): numpy draws such a choice by searching the
    normalised cumulative sum of ``p`` for uniform samples, here that sum
    (TrainConfig.source_cdf) is built once per epoch, and the epoch's
    uniforms come from one ``random`` call, which yields the same doubles
    in the same order.
    Returns each network's draws, one array per step.
    """
    steps = len(counts2d)
    if state.config.switch_per_element:
        sizes = np.column_stack([counts2d, counts3d]).ravel()
    else:
        sizes = np.ones(2 * steps, dtype=np.int64)
    uniform = state.source_rng.random(int(sizes.sum()))
    net = np.repeat(np.tile([0, 1], steps), sizes)
    draw = np.empty(len(uniform), dtype=np.intp)
    cdf = state.config.source_cdf()
    for k in (0, 1):
        mine = net == k
        draw[mine] = cdf[k].searchsorted(uniform[mine], side="right")
        state.source_counts[k] += np.bincount(draw[mine], minlength=4)
    per_step = np.split(draw, np.cumsum(sizes)[:-1])
    return per_step[0::2], per_step[1::2]


def _run_epoch(state: TrainState, stage: int) -> dict:
    cfg = state.config
    data = state.data
    bundle = state.bundle
    state.predictions = None
    n_ent = state.labels2d.shape[1]
    num_points = state.labels3d.shape[1]
    order = state.shuffle_rng.permutation(n_ent)
    point_order = state.shuffle_rng.permutation(num_points)
    steps = math.ceil(n_ent / cfg.batch_pixels)
    # Step t trains on entries order[t * batch_pixels:][:batch_pixels] and
    # on the next batch_points points of point_order, which wraps around.
    # The epoch's rows are gathered once, in this order; each step picks
    # its labels from the drawn source rows, and a per-batch draw
    # broadcasts over the batch.
    pts = point_order[np.arange(steps * cfg.batch_points) % num_points]
    x2d, x3d = data["x2d"][order], data["desc3d"][pts]
    use_latent = cfg.latent_loss_weight > 0
    if use_latent:
        pair3d = data["desc3d"][data["ent_point"][order]]
        anchors = data["anchors"][order]
    if stage == 1:  # each network's own-modality oracle labels
        draws2d, draws3d = [0] * steps, [1] * steps
    else:
        counts2d = np.minimum(cfg.batch_pixels, n_ent - cfg.batch_pixels * np.arange(steps))
        draws2d, draws3d = _draw_sources(state, counts2d,
                                         np.full(steps, cfg.batch_points))
    sums = {"l_ce2d": 0.0, "l_ce3d": 0.0, "l_latent": 0.0}
    for t in range(steps):
        rows2d = slice(t * cfg.batch_pixels, (t + 1) * cfg.batch_pixels)
        rows3d = slice(t * cfg.batch_points, (t + 1) * cfg.batch_points)
        batch = {"x2d": x2d[rows2d], "y2d": state.labels2d[draws2d[t], order[rows2d]],
                 "x3d": x3d[rows3d], "y3d": state.labels3d[draws3d[t], pts[rows3d]]}
        if use_latent:
            batch["pair3d"] = pair3d[rows2d]
            batch["anchors"] = anchors[rows2d]
            batch["latent_weight"] = cfg.latent_loss_weight
        losses, grad = step(bundle, batch)
        try:
            sgd_step(bundle, grad, cfg.lr)
        except NumericalError as exc:
            bad = [key for key in sums if not math.isfinite(losses[key])]
            term = (f"first non-finite loss term {bad[0]}" if bad
                    else "every loss term finite")
            raise NumericalError(f"epoch {state.epoch} stage {stage} step {t}: "
                                 f"{exc} ({term})") from exc
        for key in sums:
            sums[key] += losses[key]
    return {key: value / steps for key, value in sums.items()}


def _epoch_metrics(state: TrainState) -> dict:
    num_classes = state.scene.num_classes
    pred_pix, pred_pts = predictions(state)
    _, miou2d = miou(confusion(pred_pix, state.data["gt_pixel"], num_classes))
    _, miou3d = miou(confusion(pred_pts, state.data["gt_point"], num_classes))
    return {"miou2d": miou2d, "miou3d": miou3d}


# ---------------------------------------------------------------------------
# stages


def run_stage1(state: TrainState, until: Optional[int] = None) -> TrainState:
    """Warm-up epochs on the mask-refined oracle labels, up to epoch `until`
    (default: the config's stage1_epochs)."""
    stop = state.config.stage1_epochs if until is None else until
    while state.epoch < stop:
        losses = _run_epoch(state, stage=1)
        row = {"epoch": state.epoch, "stage": 1, **losses, **_epoch_metrics(state)}
        state.history.append(row)
        state.epoch += 1
    return state


def run_stage2(state: TrainState) -> TrainState:
    """Source-switched co-training epochs; self-labels refresh per epoch."""
    cfg = state.config
    if state.epoch < cfg.stage1_epochs:
        raise ValidationError("stage 2 requires stage 1 to be complete")
    while state.epoch < cfg.total_epochs:
        compute_self_labels(state)
        losses = _run_epoch(state, stage=2)
        row = {"epoch": state.epoch, "stage": 2, **losses, **_epoch_metrics(state)}
        state.history.append(row)
        state.epoch += 1
    return state


def warmup_key(config: TrainConfig) -> TrainConfig:
    """`config` with the fields that only stage 2 reads, and stage1_epochs,
    reset: runs on one scene whose keys are equal agree on init_state and on
    every stage-1 epoch that both run."""
    return replace(config, stage1_epochs=0, switch_probs_2d=TrainConfig.switch_probs_2d,
                   switch_probs_3d=TrainConfig.switch_probs_3d,
                   switch_per_element=False)


def _fork(state: TrainState, config: TrainConfig) -> TrainState:
    """An independent copy of `state` that goes on under `config`.

    Parameters, label tables, generators, history and counters are copied;
    the read-only data and predictions are shared.
    """
    bundle = state.bundle.astype(state.bundle.params.dtype)
    return replace(state, bundle=bundle, config=config,
                   labels2d=state.labels2d.copy(), labels3d=state.labels3d.copy(),
                   shuffle_rng=copy.deepcopy(state.shuffle_rng),
                   source_rng=copy.deepcopy(state.source_rng),
                   history=[dict(row) for row in state.history],
                   source_counts=state.source_counts.copy())


def train(scene: Scene, oracles: dict, config: TrainConfig,
          model_config: Optional[ModelConfig] = None,
          descriptors: Optional[Tuple[np.ndarray, np.ndarray]] = None,
          start: Optional[TrainState] = None) -> TrainState:
    """Run both stages seamlessly and return the final state.

    With `start`, a warm-up (init_state and the first stage-1 epochs) on
    this scene under a config with the same warmup_key, the run goes on
    from a copy of it instead of from its own init_state.  `start` is left
    unchanged, and the final state is the one a run without it ends in,
    to the bit.
    """
    if start is None:
        state = init_state(scene, oracles, config, model_config, descriptors)
    else:
        config.validate()
        if (warmup_key(start.config) != warmup_key(config)
                or start.epoch > config.stage1_epochs):
            raise ValidationError("training config does not share this warm-up")
        state = _fork(start, config)
    run_stage1(state)
    run_stage2(state)
    return state


METRIC_COLUMNS = ("epoch", "stage", "l_ce2d", "l_ce3d", "l_latent",
                  "miou2d", "miou3d")


def write_metrics_csv(history: List[dict], path):
    """One deterministic CSV row per epoch."""
    lines = [",".join(METRIC_COLUMNS)]
    lines += [",".join(csv_cell(row.get(col)) for col in METRIC_COLUMNS)
              for row in history]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
