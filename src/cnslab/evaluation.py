"""Segmentation metrics: confusion counts, per-class IoU, mIoU.

Labels are plain int32 arrays of any shape, compared element by element.
IGNORE ground-truth elements are excluded from all counts.  Predictions
of IGNORE (possible for projection-style labels that do not cover every
element) are likewise excluded; `coverage` reports the share of labeled
elements alongside the score.  The one value codec of every text file
(format_value, parse_value) and its UTF-8 reader (read_text) live here too.
"""

from __future__ import annotations

import typing
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

from .errors import ValidationError
from .pseudolabel import IGNORE


def confusion(pred: np.ndarray, gt: np.ndarray, num_classes: int) -> np.ndarray:
    """(L, L) int64 counts[gt, pred] over the elements labeled on both sides."""
    p = np.asarray(pred).ravel()
    g = np.asarray(gt).ravel()
    if p.shape != g.shape:
        raise ValidationError(f"pred shape {p.shape} != gt shape {g.shape}")
    if num_classes < 1:
        raise ValidationError("num_classes must be >= 1")
    keep = (g != IGNORE) & (p != IGNORE)
    pk = p[keep]
    gk = g[keep]
    if keep.any() and (pk.max() >= num_classes or pk.min() < 0 or
                       gk.max() >= num_classes or gk.min() < 0):
        raise ValidationError("labels outside [0, num_classes)")
    key = gk.astype(np.int64) * num_classes + pk
    counts = np.bincount(key, minlength=num_classes * num_classes)
    return counts.reshape(num_classes, num_classes)


def miou(counts: np.ndarray) -> Tuple[np.ndarray, Optional[float]]:
    """Per-class IoU (NaN where the union is empty) and their mean.

    `counts` is a confusion result.  Classes absent from both prediction
    and ground truth are excluded from the mean; if no class remains, the
    mean is None (absent).
    """
    tp = np.diag(counts).astype(np.float64)
    fp = counts.sum(axis=0) - tp
    fn = counts.sum(axis=1) - tp
    union = tp + fp + fn
    per_class = np.full(len(counts), np.nan)
    valid = union > 0
    per_class[valid] = tp[valid] / union[valid]
    if not valid.any():
        return per_class, None
    return per_class, float(per_class[valid].mean())


def label_error_rate(labels: np.ndarray, gt: np.ndarray) -> Optional[float]:
    """Fraction of labeled (non-IGNORE on both sides) elements that differ."""
    lab = np.asarray(labels).ravel()
    ref = np.asarray(gt).ravel()
    if lab.shape != ref.shape:
        raise ValidationError(f"labels shape {lab.shape} != gt shape {ref.shape}")
    keep = (lab != IGNORE) & (ref != IGNORE)
    if not keep.any():
        return None
    return float((lab[keep] != ref[keep]).mean())


def format_value(value) -> str:
    """Canonical text of one value in every key=value file and CSV cell.

    The files are resolved.cfg, manifest.txt, cameras.txt and checkpoint
    headers.  Bools are "true"/"false", floats (numpy scalars included)
    their repr (exact round trip), tuples comma-joined items.
    """
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, tuple):
        return ",".join(format_value(v) for v in value)
    return str(value)


def parse_value(hint, text: str):
    """Inverse of format_value for a type hint; ValueError if text does not parse.

    Tuples read comma-separated items (empty items skipped); bools also
    read 1/0, yes/no and on/off.  Floats must be finite: no file or flag
    has a use for nan or inf.
    """
    if typing.get_origin(hint) is tuple:
        return tuple(parse_value(typing.get_args(hint)[0], part.strip())
                     for part in text.split(",") if part.strip())
    if hint is bool:
        lowered = text.strip().lower()
        if lowered in ("1", "true", "yes", "on", "0", "false", "no", "off"):
            return lowered in ("1", "true", "yes", "on")
        raise ValueError(f"not a boolean: {text!r}")
    value = hint(text)
    if hint is float and not np.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


def read_text(path: Path, error: type) -> str:
    """The UTF-8 text of file `path`; an undecodable byte raises `error`."""
    try:
        return path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path.name}: undecodable byte at offset {exc.start} "
                    f"(UTF-8 text required)") from None


def csv_cell(value) -> str:
    """One CSV cell: None as "absent", anything else as format_value."""
    return "absent" if value is None else format_value(value)


def coverage(labels: np.ndarray) -> float:
    """Fraction of elements carrying a non-IGNORE label."""
    lab = np.asarray(labels)
    if lab.size == 0:
        return 0.0
    return float((lab != IGNORE).mean())
