"""Tests for confusion/IoU metrics against hand-tallied examples and a
brute-force python recount."""

import numpy as np
import pytest

from cnslab.errors import ValidationError
from cnslab.evaluation import confusion, coverage, label_error_rate, miou
from cnslab.pseudolabel import IGNORE


def test_confusion_hand_tally():
    pred = np.array([0, 1, 1, 2])
    gt = np.array([0, 1, 2, 2])
    counts = confusion(pred, gt, num_classes=3)
    assert counts.dtype == np.int64
    assert np.array_equal(counts, [[1, 0, 0], [0, 1, 0], [0, 1, 1]])


def test_confusion_ignore_handling():
    pred = np.array([0, IGNORE, 1, 0])
    gt = np.array([IGNORE, 1, 1, 0])
    # An IGNORE on either side drops the element.
    assert np.array_equal(confusion(pred, gt, num_classes=2), [[1, 0], [0, 1]])


def test_confusion_compares_stacks_element_by_element():
    pred = np.array([[[0, 1], [1, 1]], [[0, 0], [IGNORE, 1]]], dtype=np.int32)
    gt = np.array([[[0, 1], [0, 1]], [[1, 0], [1, 1]]], dtype=np.int32)
    assert np.array_equal(confusion(pred, gt, num_classes=2), [[2, 1], [1, 3]])


def test_confusion_validation():
    with pytest.raises(ValidationError):
        confusion(np.array([0, 1]), np.array([0]), num_classes=2)
    with pytest.raises(ValidationError):
        confusion(np.array([0, 3]), np.array([0, 1]), num_classes=2)
    with pytest.raises(ValidationError):
        confusion(np.array([0]), np.array([0]), num_classes=0)


def test_miou_perfect_prediction():
    gt = np.array([0, 1, 1, 2, 2, 2])
    per_class, mean = miou(confusion(gt, gt, num_classes=4))
    assert mean == 1.0
    assert per_class[0] == 1.0 and per_class[1] == 1.0 and per_class[2] == 1.0
    assert np.isnan(per_class[3])  # class absent everywhere


def test_miou_hand_example():
    # class 0: tp=1 fp=1 fn=0 -> 1/2; class 1: tp=2 fp=0 fn=1 -> 2/3.
    pred = np.array([0, 0, 1, 1])
    gt = np.array([0, 1, 1, 1])
    per_class, mean = miou(confusion(pred, gt, num_classes=2))
    assert per_class[0] == pytest.approx(0.5)
    assert per_class[1] == pytest.approx(2 / 3)
    assert mean == pytest.approx(7 / 12)


def test_miou_disjoint_is_zero():
    per_class, mean = miou(confusion(np.ones(4, dtype=int),
                                     np.zeros(4, dtype=int), num_classes=2))
    assert mean == 0.0
    assert per_class[0] == 0.0 and per_class[1] == 0.0


def test_miou_empty_mean_is_none():
    per_class, mean = miou(confusion(np.full(3, IGNORE), np.full(3, IGNORE),
                                     num_classes=2))
    assert mean is None
    assert np.isnan(per_class).all()


def test_miou_brute_force(rng):
    num_classes = 5
    pred = rng.integers(-1, num_classes, size=400)
    gt = rng.integers(-1, num_classes, size=400)
    per_class, mean = miou(confusion(pred, gt, num_classes))
    keep = (gt != IGNORE) & (pred != IGNORE)
    expected = []
    for c in range(num_classes):
        tp = np.sum(keep & (pred == c) & (gt == c))
        fp = np.sum(keep & (pred == c) & (gt != c))
        fn = np.sum(keep & (pred != c) & (gt == c))
        if tp + fp + fn == 0:
            assert np.isnan(per_class[c])
        else:
            iou = tp / (tp + fp + fn)
            assert per_class[c] == pytest.approx(iou, abs=1e-12)
            expected.append(iou)
    assert mean == pytest.approx(np.mean(expected), abs=1e-12)


def test_label_error_rate():
    labels = np.array([0, 1, 2, IGNORE, 3])
    gt = np.array([0, 2, 2, 1, IGNORE])
    # Compared pairs: (0,0), (1,2), (2,2) -> one mismatch of three.
    assert label_error_rate(labels, gt) == pytest.approx(1 / 3)
    assert label_error_rate(np.full(3, IGNORE), np.arange(3)) is None
    with pytest.raises(ValidationError):
        label_error_rate(np.zeros(2), np.zeros(3))


def test_coverage():
    assert coverage(np.array([0, IGNORE, 2, IGNORE])) == 0.5
    assert coverage(np.zeros(0, dtype=np.int32)) == 0.0
    assert coverage(np.array([[1, 1], [1, IGNORE]], dtype=np.int32)) == 0.75
