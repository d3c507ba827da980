"""Pseudo-label algebra: argmax labeling, cross-modal transfer, voting.

Implements the three label operations the training scheme is built on:
scoring pixels against class embeddings and taking the argmax, carrying
labels and mask ids between pixels and points along the correspondence
set, and replacing every label inside a mask by the mask's plurality
label.  Labels are plain int32 arrays: a scene's pixel labels are one
(V, H, W) stack, its point labels one (N,) array.  Voting treats
IGNORE (-1) as "no label": IGNORE elements never vote and are never
overwritten.  A point takes the label of its lowest-camera entry, in
transfer and in point voting alike.  A scene's mask votes, pixel and
point, follow one VotePlan, built once per scene.
"""

from __future__ import annotations

from dataclasses import dataclass
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

    A point takes the label of its lowest-camera entry
    (CorrespondenceSet.first_entry), IGNORE as well; points with no
    correspondence get IGNORE.
    """
    if pixel_labels.ndim != 3:
        raise ValidationError(
            f"pixel labels must be a (V, H, W) stack, got {pixel_labels.shape}")
    if corr.count and int(corr.camera_index.max()) >= len(pixel_labels):
        raise ValidationError("pixel_labels must cover every view in the correspondence set")
    first = corr.first_entry
    out = np.full(num_points, IGNORE, dtype=np.int32)
    out[corr.point_index[first]] = pixel_labels[
        corr.camera_index[first], corr.v[first], corr.u[first]]
    return out


def transfer_masks(corr: CorrespondenceSet, masks: Sequence[MaskMap],
                   num_points: int) -> List[np.ndarray]:
    """Per-view point mask ids; -1 where a point is invisible in that view.

    Mask ids are view-local and never merged across views.  No pipeline
    step calls it: a VotePlan holds the mask id of every correspondence
    entry instead.  It stays for the benchmark tracer, whose name list
    holds it.
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
    votes, ids = flat_labels[voters], flat_masks[voters].astype(np.int64, copy=False)
    if len(votes):
        num_classes = int(votes.max()) + 1
        num_masks = int(ids.max()) + 1
        counts = np.bincount(ids * num_classes + votes, minlength=num_masks * num_classes)
        winner = np.argmax(counts.reshape(num_masks, num_classes), axis=1)  # ties -> lowest
        # A voter's mask holds at least its own vote.
        out[voters] = winner[ids]
    return out.reshape(labels.shape)


@dataclass(frozen=True)
class VotePlan:
    """Where each of a scene's mask votes is cast (vote_plan).

    Mask ids are global: view k's ids are offset by the mask counts of
    the views before it, so no two views share an id and one vote over
    the whole (V, H, W) stack votes each view inside its own masks.
    """

    pixel_ids: np.ndarray    # (V, H, W) int64 global mask id of every pixel
    entry_ids: np.ndarray    # (E,) global mask id of every correspondence entry
    entry_point: np.ndarray  # (E,) point of every entry
    first_entry: np.ndarray  # CorrespondenceSet.first_entry
    num_points: int


def vote_plan(corr: CorrespondenceSet, masks: Sequence[MaskMap],
              num_points: int) -> VotePlan:
    """The mask-vote plan of one scene's correspondences, per-view masks
    and points."""
    if corr.count and int(corr.camera_index.max()) >= len(masks):
        raise ValidationError("masks must cover every view in the correspondence set")
    offsets = np.cumsum([0] + [int(m.mask_ids.max()) + 1 for m in masks[:-1]])
    pixel_ids = np.stack([m.mask_ids for m in masks]).astype(np.int64)
    pixel_ids += offsets[:, None, None]
    return VotePlan(pixel_ids, pixel_ids[corr.camera_index, corr.v, corr.u],
                    corr.point_index, corr.first_entry, num_points)


def refine_views(pixel_labels: np.ndarray, plan: VotePlan) -> np.ndarray:
    """Mask-vote each view of a (V, H, W) label stack inside its own masks."""
    return refine_by_masks(pixel_labels, plan.pixel_ids)


def _require_points(labels: np.ndarray, caller: str):
    if labels.ndim != 1:
        raise ValidationError(f"{caller} expects (N,) point labels, got {labels.shape}")


def refine_points_by_view_masks(labels: np.ndarray, plan: VotePlan) -> np.ndarray:
    """Lift mask voting to points via the masks carried onto them.

    Each view refines the point labels of its correspondence entries
    inside its masks; a point takes the result of its lowest-camera
    entry.  Points with no entry keep their label.
    """
    _require_points(labels, "refine_points_by_view_masks")
    if len(labels) != plan.num_points:
        raise ValidationError(
            f"{len(labels)} point labels for a vote plan of {plan.num_points} points")
    refined = refine_by_masks(labels[plan.entry_point], plan.entry_ids)
    out = labels.copy()
    out[plan.entry_point[plan.first_entry]] = refined[plan.first_entry]
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
    plan = vote_plan(corr, masks, len(labels))
    transferred = transfer_labels(corr, refine_views(pixel, plan), len(labels))
    return np.where(transferred != IGNORE, transferred, labels).astype(np.int32)


def derive_clip_labels(corr: CorrespondenceSet, scores: Sequence[ScoreMap],
                       masks: Sequence[MaskMap], num_points: int) -> dict:
    """Full oracle-label pipeline for one scene.

    Returns raw and mask-refined labels on both domains, and the scene's
    mask-vote plan that refined them:
    {"pixel_raw": (V, H, W), "pixel_refined": (V, H, W),
     "point_raw": (N,), "point_refined": (N,), "vote_plan": VotePlan}.
    """
    plan = vote_plan(corr, masks, num_points)
    pixel_raw = np.stack([argmax_label(s.scores) for s in scores])
    pixel_refined = refine_views(pixel_raw, plan)
    point_raw = transfer_labels(corr, pixel_raw, num_points)
    point_refined = refine_points_by_view_masks(point_raw, plan)
    return {"pixel_raw": pixel_raw, "pixel_refined": pixel_refined,
            "point_raw": point_raw, "point_refined": point_refined,
            "vote_plan": plan}
