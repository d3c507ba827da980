"""Segmentation metrics: confusion matrices, per-class IoU, mIoU.

IGNORE ground-truth elements are excluded from all counts.  Predictions
of IGNORE (possible for projection-style label maps that do not cover
every element) are likewise excluded and tallied, so callers can report
coverage alongside the score.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from .errors import ValidationError
from .pseudolabel import IGNORE, LabelMap


@dataclass
class ConfusionMatrix:
    """Counts[gt, pred] over the evaluated elements."""

    counts: np.ndarray  # (L, L) int64
    ignore_count: int = 0  # gt == IGNORE
    pred_ignore_count: int = 0  # gt valid but pred == IGNORE

    @property
    def num_classes(self) -> int:
        return self.counts.shape[0]

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.counts.ndim != 2 or self.counts.shape[0] != self.counts.shape[1]:
            raise ValidationError(f"confusion matrix must be square, got {self.counts.shape}")
        if (self.counts < 0).any():
            raise ValidationError("confusion counts must be non-negative")


def _as_array(labels: Union[LabelMap, np.ndarray]) -> np.ndarray:
    arr = labels.labels if isinstance(labels, LabelMap) else np.asarray(labels)
    return arr.ravel()


def confusion(pred: Union[LabelMap, np.ndarray], gt: Union[LabelMap, np.ndarray],
              num_classes: int) -> ConfusionMatrix:
    """Tally predicted vs ground-truth classes element by element."""
    p = _as_array(pred)
    g = _as_array(gt)
    if p.shape != g.shape:
        raise ValidationError(f"pred shape {p.shape} != gt shape {g.shape}")
    if num_classes < 1:
        raise ValidationError("num_classes must be >= 1")
    gt_ignored = g == IGNORE
    pred_ignored = (p == IGNORE) & ~gt_ignored
    keep = ~gt_ignored & ~pred_ignored
    pk = p[keep]
    gk = g[keep]
    if keep.any() and (pk.max() >= num_classes or pk.min() < 0 or
                       gk.max() >= num_classes or gk.min() < 0):
        raise ValidationError("labels outside [0, num_classes)")
    key = gk.astype(np.int64) * num_classes + pk
    counts = np.bincount(key, minlength=num_classes * num_classes)
    return ConfusionMatrix(counts.reshape(num_classes, num_classes),
                           int(gt_ignored.sum()), int(pred_ignored.sum()))


def miou(cm: ConfusionMatrix) -> Tuple[np.ndarray, Optional[float]]:
    """Per-class IoU (NaN where the union is empty) and their mean.

    Classes absent from both prediction and ground truth are excluded
    from the mean; if no class remains, the mean is None (absent).
    """
    tp = np.diag(cm.counts).astype(np.float64)
    fp = cm.counts.sum(axis=0) - tp
    fn = cm.counts.sum(axis=1) - tp
    union = tp + fp + fn
    per_class = np.full(cm.num_classes, np.nan)
    valid = union > 0
    per_class[valid] = tp[valid] / union[valid]
    if not valid.any():
        return per_class, None
    return per_class, float(per_class[valid].mean())


def label_error_rate(labels: Union[LabelMap, np.ndarray],
                     gt: Union[LabelMap, np.ndarray]) -> Optional[float]:
    """Fraction of labeled (non-IGNORE on both sides) elements that differ."""
    lab = _as_array(labels)
    ref = _as_array(gt)
    if lab.shape != ref.shape:
        raise ValidationError(f"labels shape {lab.shape} != gt shape {ref.shape}")
    keep = (lab != IGNORE) & (ref != IGNORE)
    if not keep.any():
        return None
    return float((lab[keep] != ref[keep]).mean())


def csv_cell(value) -> str:
    """One CSV cell: floats as repr (exact round trip), None as "absent"."""
    if value is None:
        return "absent"
    return repr(value) if isinstance(value, float) else str(value)


def coverage(labels: Union[LabelMap, np.ndarray]) -> float:
    """Fraction of elements carrying a non-IGNORE label."""
    lab = _as_array(labels)
    if lab.size == 0:
        return 0.0
    return float((lab != IGNORE).mean())
