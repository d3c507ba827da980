"""Pseudo-label algebra: argmax labeling, cross-modal transfer, voting.

Implements the three label operations the training scheme is built on:
scoring pixels against class embeddings and taking the argmax, carrying
labels and mask ids between pixels and points along the correspondence
set, and replacing every label inside a mask by the mask's plurality
label.  Labels are plain int32 arrays: a scene's pixel labels are one
(V, H, W) stack, its point labels one (N,) array.  All operations treat
IGNORE (-1) as "no label": IGNORE elements never vote and are never
overwritten.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from .errors import ValidationError
from .geometry import CorrespondenceSet
from .scenesynth import MaskMap, ScoreMap

IGNORE = -1


def argmax_label(scores: np.ndarray) -> np.ndarray:
    """Label every element by its highest-scoring class along the last axis.

    Ties break toward the lowest class index.
    """
    scores = np.asarray(scores)
    if scores.ndim < 2 or scores.shape[-1] < 1:
        raise ValidationError(f"scores need a trailing class axis, got {scores.shape}")
    return np.argmax(scores, axis=-1).astype(np.int32)  # first max = lowest class


def transfer_labels(corr: CorrespondenceSet, pixel_labels: np.ndarray,
                    num_points: int) -> np.ndarray:
    """Carry a (V, H, W) pixel label stack onto points along the correspondences.

    A point takes the label of the lowest camera index that holds a
    non-IGNORE label for it; points with no correspondence (or only
    IGNORE-labeled pixels) get IGNORE.
    """
    if pixel_labels.ndim != 3:
        raise ValidationError(
            f"pixel labels must be a (V, H, W) stack, got {pixel_labels.shape}")
    if corr.count and int(corr.camera_index.max()) >= len(pixel_labels):
        raise ValidationError("pixel_labels must cover every view in the correspondence set")
    lab = pixel_labels[corr.camera_index, corr.v, corr.u]
    ok = lab != IGNORE
    pts, cams, lab = corr.point_index[ok], corr.camera_index[ok], lab[ok]
    out = np.full(num_points, IGNORE, dtype=np.int32)
    # A point has one entry per camera; the lowest camera writes last.
    for k in reversed(range(len(pixel_labels))):
        sel = cams == k
        out[pts[sel]] = lab[sel]
    return out


def transfer_masks(corr: CorrespondenceSet, masks: Sequence[MaskMap],
                   num_points: int) -> List[np.ndarray]:
    """Per-view point mask ids; -1 where a point is invisible in that view.

    Mask ids are view-local and never merged across views.
    """
    if corr.count and int(corr.camera_index.max()) >= len(masks):
        raise ValidationError("masks must cover every view in the correspondence set")
    out = []
    for k, mask in enumerate(masks):
        ids = np.full(num_points, -1, dtype=np.int32)
        sel = corr.camera_slice(k)
        if sel.any():
            ids[corr.point_index[sel]] = mask.mask_ids[corr.v[sel], corr.u[sel]]
        out.append(ids)
    return out


def refine_by_masks(labels: np.ndarray, mask_ids: np.ndarray) -> np.ndarray:
    """Replace every label by the plurality label of its mask.

    Vote ties go to the lowest class index.  Elements with mask id < 0
    are outside every mask and keep their label; masks whose members are
    all IGNORE stay IGNORE.
    """
    flat_labels = labels.ravel()
    flat_masks = np.asarray(mask_ids).ravel()
    if flat_masks.shape != flat_labels.shape:
        raise ValidationError(
            f"mask ids shape {np.asarray(mask_ids).shape} does not match "
            f"labels shape {labels.shape}")
    out = flat_labels.copy()
    voters = (flat_labels != IGNORE) & (flat_masks >= 0)
    if voters.any():
        num_classes = int(flat_labels[voters].max()) + 1
        num_masks = int(flat_masks.max()) + 1
        key = flat_masks[voters].astype(np.int64) * num_classes + flat_labels[voters]
        counts = np.bincount(key, minlength=num_masks * num_classes)
        counts = counts.reshape(num_masks, num_classes)
        winner = np.argmax(counts, axis=1).astype(np.int32)  # ties -> lowest class
        has_votes = counts.sum(axis=1) > 0
        replace = (flat_labels != IGNORE) & (flat_masks >= 0) & has_votes[np.maximum(flat_masks, 0)]
        out[replace] = winner[flat_masks[replace]]
    return out.reshape(labels.shape)


def refine_views(pixel_labels: np.ndarray, masks: Sequence[MaskMap]) -> np.ndarray:
    """Mask-vote each view of a (V, H, W) label stack inside its own masks."""
    return np.stack([refine_by_masks(pixel_labels[k], mask.mask_ids)
                     for k, mask in enumerate(masks)])


def _require_points(labels: np.ndarray, caller: str):
    if labels.ndim != 1:
        raise ValidationError(f"{caller} expects (N,) point labels, got {labels.shape}")


def refine_points_by_view_masks(labels: np.ndarray,
                                point_mask_ids: Sequence[np.ndarray]) -> np.ndarray:
    """Lift mask voting to points via per-view transferred mask ids.

    Each view refines the point labels among its visible points; the
    per-point result is taken from the lowest camera index where the
    point is visible.  Points visible nowhere keep their label.
    """
    _require_points(labels, "refine_points_by_view_masks")
    out = labels.copy()
    filled = np.zeros(len(out), dtype=bool)
    for ids in point_mask_ids:
        refined = refine_by_masks(labels, ids)
        visible = np.asarray(ids) >= 0
        take = visible & ~filled
        out[take] = refined[take]
        filled |= visible
    return out


def reproject_refine_points(corr: CorrespondenceSet, labels: np.ndarray,
                            masks: Sequence[MaskMap]) -> np.ndarray:
    """Refine point labels by a pixel round trip.

    Point labels are splatted onto each view's paired pixels (IGNORE
    elsewhere), voted inside that view's masks, and transferred back with
    the usual camera priority.  Points visible nowhere keep their label.

    No pipeline step calls it: training and derive_clip_labels refine
    points with refine_points_by_view_masks, which has the lower point
    error.  It stays for the benchmark tracer, whose name list holds it.
    """
    _require_points(labels, "reproject_refine_points")
    pixel = np.full((len(masks),) + masks[0].mask_ids.shape, IGNORE, dtype=np.int32)
    pixel[corr.camera_index, corr.v, corr.u] = labels[corr.point_index]
    transferred = transfer_labels(corr, refine_views(pixel, masks), len(labels))
    return np.where(transferred != IGNORE, transferred, labels).astype(np.int32)


def derive_clip_labels(corr: CorrespondenceSet, scores: Sequence[ScoreMap],
                       masks: Sequence[MaskMap], num_points: int) -> dict:
    """Full oracle-label pipeline for one scene.

    Returns raw and mask-refined labels on both domains, and the masks
    carried onto points (transfer_masks) that refine the point labels:
    {"pixel_raw": (V, H, W), "pixel_refined": (V, H, W),
     "point_raw": (N,), "point_refined": (N,), "point_masks": [(N,)] * V}.
    """
    pixel_raw = np.stack([argmax_label(s.scores) for s in scores])
    pixel_refined = refine_views(pixel_raw, masks)
    point_raw = transfer_labels(corr, pixel_raw, num_points)
    point_masks = transfer_masks(corr, masks, num_points)
    point_refined = refine_points_by_view_masks(point_raw, point_masks)
    return {"pixel_raw": pixel_raw, "pixel_refined": pixel_refined,
            "point_raw": point_raw, "point_refined": point_refined,
            "point_masks": point_masks}
