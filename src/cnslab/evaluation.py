"""Segmentation metrics: confusion matrices, per-class IoU, mIoU.

IGNORE ground-truth elements are excluded from all counts.  Predictions
of IGNORE (possible for projection-style label maps that do not cover
every element) are likewise excluded and tallied, so callers can report
coverage alongside the score.  The one value codec of every text file
the package writes (format_value / parse_value) lives here too.
"""

from __future__ import annotations

import typing
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


def format_value(value) -> str:
    """Canonical text of one value in every key=value file and CSV cell.

    The files are resolved.cfg, manifest.txt, cameras.txt and checkpoint
    headers.  None is "none", bools "true"/"false", floats (numpy scalars
    included) their repr (exact round trip), tuples comma-joined items.
    """
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, tuple):
        return ",".join(format_value(v) for v in value)
    return str(value)


def parse_value(hint, text: str):
    """Inverse of format_value for a type hint; ValueError if text does not parse.

    Optional[X] also reads "none"; tuples read comma-separated items
    (empty items skipped); bools also read 1/0, yes/no and on/off.
    """
    args = typing.get_args(hint)
    if typing.get_origin(hint) is Union:
        return None if text.strip().lower() == "none" else parse_value(args[0], text)
    if typing.get_origin(hint) is tuple:
        return tuple(parse_value(args[0], part.strip())
                     for part in text.split(",") if part.strip())
    if hint is bool:
        lowered = text.strip().lower()
        if lowered in ("1", "true", "yes", "on", "0", "false", "no", "off"):
            return lowered in ("1", "true", "yes", "on")
        raise ValueError(f"not a boolean: {text!r}")
    return hint(text)


def csv_cell(value) -> str:
    """One CSV cell: None as "absent", anything else as format_value."""
    return "absent" if value is None else format_value(value)


def coverage(labels: Union[LabelMap, np.ndarray]) -> float:
    """Fraction of elements carrying a non-IGNORE label."""
    lab = _as_array(labels)
    if lab.size == 0:
        return 0.0
    return float((lab != IGNORE).mean())
