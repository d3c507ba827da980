"""Tests for the pseudo-label algebra.

Voting and transfer results are checked against brute-force python
re-implementations or hand-built inputs with worked-out answers.
"""

import numpy as np
import pytest

from cnslab.errors import ValidationError
from cnslab.geometry import CorrespondenceSet
from cnslab.pseudolabel import (IGNORE, PIXELS, POINTS, LabelMap, argmax_label,
                                derive_clip_labels, refine_by_masks,
                                refine_points_by_view_masks,
                                reproject_refine_points, transfer_labels,
                                transfer_masks)
from cnslab.scenesynth import (ClipNoiseConfig, MaskFragConfig, MaskMap,
                               ScoreMap, mock_clip_scores, mock_sam_masks,
                               render_view)


def _corr(entries):
    """Build a CorrespondenceSet from (point, camera, u, v, depth) tuples."""
    entries = sorted(entries, key=lambda e: (e[1], e[3], e[2]))
    arr = np.array(entries, dtype=np.float64).reshape(-1, 5)
    return CorrespondenceSet(arr[:, 0].astype(np.int64),
                             arr[:, 1].astype(np.int64),
                             arr[:, 2].astype(np.int64),
                             arr[:, 3].astype(np.int64),
                             arr[:, 4])


# ---------------------------------------------------------------------------
# argmax labeling


def test_argmax_label_picks_highest_class():
    scores = np.zeros((1, 1, 4), dtype=np.float32)
    scores[0, 0, 2] = 1.0
    lm = argmax_label(ScoreMap(scores))
    assert lm.domain == PIXELS
    assert lm.labels[0, 0] == 2


def test_argmax_label_tie_breaks_low():
    scores = np.array([[0.5, 0.5], [0.25, 0.75]], dtype=np.float64)
    lm = argmax_label(scores)
    assert lm.domain == POINTS
    assert np.array_equal(lm.labels, [0, 1])


def test_argmax_label_brute_force(rng):
    scores = rng.random((4, 4, 5)).astype(np.float32)
    lm = argmax_label(ScoreMap(scores))
    for y in range(4):
        for x in range(4):
            best = max(range(5), key=lambda c: (scores[y, x, c], -c))
            assert lm.labels[y, x] == best


def test_argmax_label_rejects_scalar_rows():
    with pytest.raises(ValidationError):
        argmax_label(np.array([1.0, 2.0]))


# ---------------------------------------------------------------------------
# pixel -> point transfer


def test_transfer_single_view_carries_label():
    corr = _corr([(0, 0, 3, 1, 2.0)])
    pix = np.full((4, 4), IGNORE, dtype=np.int32)
    pix[1, 3] = 5
    out = transfer_labels(corr, [LabelMap(pix, PIXELS)], num_points=2)
    assert out.domain == POINTS
    assert out.labels[0] == 5
    assert out.labels[1] == IGNORE  # no correspondence -> IGNORE


def test_transfer_first_camera_priority():
    # Point 0 is visible in both views with conflicting labels.
    corr = _corr([(0, 0, 0, 0, 1.0), (0, 1, 2, 2, 1.5)])
    view0 = np.full((3, 3), 4, dtype=np.int32)
    view1 = np.full((3, 3), 7, dtype=np.int32)
    out = transfer_labels(corr, [LabelMap(view0, PIXELS), LabelMap(view1, PIXELS)],
                          num_points=1)
    assert out.labels[0] == 4
    # An IGNORE in the first view falls through to the second.
    view0[0, 0] = IGNORE
    out = transfer_labels(corr, [LabelMap(view0, PIXELS), LabelMap(view1, PIXELS)],
                          num_points=1)
    assert out.labels[0] == 7


def test_transfer_vote_policy():
    # Point 0 sees labels 2, 5, 2 across three views -> plurality 2.
    # Point 1 sees labels 1, 2 -> tie, lowest class wins.
    corr = _corr([(0, 0, 0, 0, 1.0), (0, 1, 1, 1, 1.0), (0, 2, 2, 2, 1.0),
                  (1, 0, 1, 0, 1.0), (1, 1, 0, 1, 1.0)])
    views = []
    for labels in ([[2, 1, 0], [0, 0, 0], [0, 0, 0]],
                   [[0, 0, 0], [2, 5, 0], [0, 0, 0]],
                   [[0, 0, 0], [0, 0, 0], [0, 0, 2]]):
        views.append(LabelMap(np.array(labels, dtype=np.int32), PIXELS))
    out = transfer_labels(corr, views, num_points=2, multiview="vote")
    assert out.labels[0] == 2
    assert out.labels[1] == 1


def test_transfer_brute_force_rewalk(small_scene, rng):
    # Random per-view labels with holes, replayed by a python walk over
    # the correspondence entries in camera order.
    corr = small_scene.correspondences()
    n = len(small_scene.cloud)
    views = []
    for cam in small_scene.cameras:
        lab = rng.integers(0, 5, size=(cam.height, cam.width)).astype(np.int32)
        lab[rng.random((cam.height, cam.width)) < 0.3] = IGNORE
        views.append(LabelMap(lab, PIXELS))
    out = transfer_labels(corr, views, n)
    expected = np.full(n, IGNORE, dtype=np.int32)
    entries = list(zip(corr.point_index, corr.camera_index, corr.u, corr.v))
    for point, camera, u, v in sorted(entries, key=lambda e: e[1]):
        lab = views[camera].labels[v, u]
        if expected[point] == IGNORE and lab != IGNORE:
            expected[point] = lab
    assert np.array_equal(out.labels, expected)
    # Vote policy against a brute-force tally.
    voted = transfer_labels(corr, views, n, multiview="vote")
    for point in range(n):
        tally = {}
        for p, camera, u, v in entries:
            if p != point:
                continue
            lab = int(views[camera].labels[v, u])
            if lab != IGNORE:
                tally[lab] = tally.get(lab, 0) + 1
        if not tally:
            assert voted.labels[point] == IGNORE
        else:
            top = max(tally.values())
            assert voted.labels[point] == min(c for c, k in tally.items() if k == top)


def test_transfer_validates_inputs():
    corr = _corr([(0, 1, 0, 0, 1.0)])
    one_view = [LabelMap(np.zeros((2, 2), dtype=np.int32), PIXELS)]
    with pytest.raises(ValidationError):
        transfer_labels(corr, one_view, num_points=1)
    point_map = [LabelMap(np.zeros(4, dtype=np.int32), POINTS)]
    with pytest.raises(ValidationError):
        transfer_labels(_corr([(0, 0, 0, 0, 1.0)]), point_map, num_points=1)
    with pytest.raises(ValidationError):
        transfer_labels(_corr([(0, 0, 0, 0, 1.0)]),
                        [LabelMap(np.zeros((2, 2), dtype=np.int32), PIXELS)],
                        num_points=1, multiview="median")


def test_transfer_masks_identity():
    # Point 0 projects to pixel (0, 1), which carries mask id 2.
    corr = _corr([(0, 0, 1, 0, 1.0)])
    mask = MaskMap(np.array([[0, 2], [1, 0]], dtype=np.int32))
    out = transfer_masks(corr, [mask], num_points=2)
    assert out[0][0] == 2
    assert out[0][1] == -1  # invisible point
    with pytest.raises(ValidationError):
        transfer_masks(_corr([(0, 1, 0, 0, 1.0)]), [mask], num_points=1)


# ---------------------------------------------------------------------------
# mask voting


def test_refine_by_masks_plurality_and_tie():
    labels = LabelMap(np.array([2, 2, 5, 1, 2], dtype=np.int32), POINTS)
    masks = np.array([0, 0, 0, 1, 1])
    out = refine_by_masks(labels, masks)
    assert np.array_equal(out.labels, [2, 2, 2, 1, 1])  # {2,2,5} -> 2; {1,2} -> 1
    assert out.source == "refined(unknown)"


def test_refine_by_masks_ignore_rules():
    labels = LabelMap(np.array([IGNORE, 3, IGNORE, 6], dtype=np.int32), POINTS)
    masks = np.array([0, 0, 1, -1])
    out = refine_by_masks(labels, masks)
    # IGNORE never votes and is never overwritten; unmasked elements and
    # all-IGNORE masks keep their labels.
    assert np.array_equal(out.labels, [IGNORE, 3, IGNORE, 6])


def test_refine_by_masks_histogram_oracle(rng):
    labels = rng.integers(0, 6, size=(64, 64)).astype(np.int32)
    labels[rng.random((64, 64)) < 0.2] = IGNORE
    masks = rng.integers(-1, 10, size=(64, 64))
    out = refine_by_masks(LabelMap(labels, PIXELS), masks)
    expected = labels.copy()
    for m in range(10):
        votes = labels[(masks == m) & (labels != IGNORE)]
        if len(votes) == 0:
            continue
        winner = np.bincount(votes).argmax()
        sel = (masks == m) & (labels != IGNORE)
        expected[sel] = winner
    assert np.array_equal(out.labels, expected)


def test_refine_by_masks_idempotent_and_constant(rng):
    labels = rng.integers(0, 4, size=50).astype(np.int32)
    masks = rng.integers(0, 5, size=50)
    once = refine_by_masks(LabelMap(labels, POINTS), masks)
    twice = refine_by_masks(once, masks)
    assert np.array_equal(once.labels, twice.labels)
    # Labels already constant per mask are a fixpoint.
    constant = masks.astype(np.int32) % 3
    out = refine_by_masks(LabelMap(constant, POINTS), masks)
    assert np.array_equal(out.labels, constant)


def test_refine_by_masks_mask_relabel_equivariant(rng):
    labels = rng.integers(-1, 4, size=80).astype(np.int32)
    masks = rng.integers(-1, 6, size=80)
    perm = rng.permutation(6)
    permuted = np.where(masks >= 0, perm[np.maximum(masks, 0)], -1)
    a = refine_by_masks(LabelMap(labels, POINTS), masks)
    b = refine_by_masks(LabelMap(labels, POINTS), permuted)
    assert np.array_equal(a.labels, b.labels)


def test_refine_by_masks_shape_mismatch():
    with pytest.raises(ValidationError):
        refine_by_masks(LabelMap(np.zeros(4, dtype=np.int32), POINTS),
                        np.zeros(5, dtype=np.int64))


def test_refine_reduces_block_free_noise(small_scene):
    # i.i.d. pixel flips at eps=0.4 against class-pure masks: plurality
    # voting should recover most labels.
    render = render_view(small_scene, 0)
    scores = mock_clip_scores(small_scene, 0, ClipNoiseConfig(eps=0.4, block=1),
                              seed=21)
    masks = mock_sam_masks(small_scene, 0, MaskFragConfig(3, 0), seed=21)
    raw = argmax_label(scores)
    refined = refine_by_masks(raw, masks.mask_ids)
    raw_err = np.mean(raw.labels != render.label)
    refined_err = np.mean(refined.labels != render.label)
    assert refined_err < raw_err / 2


def test_mask_vote_noise_reduction_statistics(rng):
    # One 9-pixel mask, 8 classes, flip rate 0.4: the plurality vote
    # recovers the true class far more often than a single pixel does.
    trials = 100
    correct = 0
    for _ in range(trials):
        labels = np.full(9, 3, dtype=np.int32)
        flip = rng.random(9) < 0.4
        offsets = rng.integers(1, 8, size=9)
        labels[flip] = (labels[flip] + offsets[flip]) % 8
        out = refine_by_masks(LabelMap(labels, POINTS), np.zeros(9, dtype=np.int64))
        correct += int(np.all(out.labels == 3))
    assert correct / trials >= 0.9


# ---------------------------------------------------------------------------
# point-domain refinement


def test_refine_points_by_view_masks_camera_priority():
    labels = LabelMap(np.array([2, 2, 0], dtype=np.int32), POINTS)
    view0 = np.array([0, 0, -1])  # points 0, 1 share a mask
    view1 = np.array([1, -1, 1])  # points 0, 2 share a mask
    out = refine_points_by_view_masks(labels, [view0, view1])
    # Point 0: view 0 votes {2,2} -> 2; view 1 would vote {2,0} -> 0.
    # The lower camera wins; point 2 only appears in view 1.
    assert np.array_equal(out.labels, [2, 2, 0])
    flipped = refine_points_by_view_masks(labels, [view1, view0])
    assert flipped.labels[0] == 0


def test_refine_points_invisible_keep_labels():
    labels = LabelMap(np.array([4, 1], dtype=np.int32), POINTS)
    out = refine_points_by_view_masks(labels, [np.array([-1, 0])])
    assert out.labels[0] == 4


def test_refine_points_rejects_pixel_domain():
    with pytest.raises(ValidationError):
        refine_points_by_view_masks(
            LabelMap(np.zeros((2, 2), dtype=np.int32), PIXELS), [])


def test_reproject_refine_fixpoint_on_ground_truth(small_scene):
    # Ground-truth labels splatted through class-pure masks come back
    # unchanged.
    corr = small_scene.correspondences()
    masks = [mock_sam_masks(small_scene, k, MaskFragConfig(3, 0), seed=2)
             for k in range(len(small_scene.cameras))]
    gt = LabelMap(small_scene.cloud.gt_labels.copy(), POINTS)
    out = reproject_refine_points(corr, gt, masks)
    assert np.array_equal(out.labels, gt.labels)


def test_reproject_refine_rejects_pixel_domain(small_scene):
    with pytest.raises(ValidationError):
        reproject_refine_points(small_scene.correspondences(),
                                LabelMap(np.zeros((2, 2), dtype=np.int32), PIXELS),
                                [])


# ---------------------------------------------------------------------------
# full pipeline


def test_derive_clip_labels_noiseless(small_scene, noiseless_oracles):
    corr = small_scene.correspondences()
    out = derive_clip_labels(corr, noiseless_oracles["scores"],
                             noiseless_oracles["masks"],
                             len(small_scene.cloud))
    assert set(out) == {"pixel_raw", "pixel_refined", "point_raw",
                        "point_refined"}
    visible = np.zeros(len(small_scene.cloud), dtype=bool)
    visible[corr.point_index] = True
    for key in ("point_raw", "point_refined"):
        labels = out[key].labels
        assert np.array_equal(labels[visible],
                              small_scene.cloud.gt_labels[visible])
        assert np.all(labels[~visible] == IGNORE)
    for k in range(len(small_scene.cameras)):
        render = render_view(small_scene, k)
        assert np.array_equal(out["pixel_raw"][k].labels, render.label)
        assert np.array_equal(out["pixel_refined"][k].labels, render.label)
    assert out["pixel_raw"][0].source == "clip"
    assert out["pixel_refined"][0].source == "refined(clip)"
    assert out["point_refined"].source == "refined(clip)"


def test_derive_clip_labels_modes_agree_when_noiseless(small_scene,
                                                      noiseless_oracles):
    corr = small_scene.correspondences()
    a = derive_clip_labels(corr, noiseless_oracles["scores"],
                           noiseless_oracles["masks"], len(small_scene.cloud),
                           refine3d_mode="transfer-masks")
    b = derive_clip_labels(corr, noiseless_oracles["scores"],
                           noiseless_oracles["masks"], len(small_scene.cloud),
                           refine3d_mode="reproject")
    assert np.array_equal(a["point_refined"].labels, b["point_refined"].labels)


def test_derive_clip_labels_refinement_helps(small_scene):
    scores = [mock_clip_scores(small_scene, k, ClipNoiseConfig(eps=0.4, block=1),
                               seed=33)
              for k in range(len(small_scene.cameras))]
    masks = [mock_sam_masks(small_scene, k, MaskFragConfig(3, 0), seed=33)
             for k in range(len(small_scene.cameras))]
    corr = small_scene.correspondences()
    out = derive_clip_labels(corr, scores, masks, len(small_scene.cloud))
    gt = small_scene.cloud.gt_labels
    raw = out["point_raw"].labels
    refined = out["point_refined"].labels
    known = raw != IGNORE
    raw_err = np.mean(raw[known] != gt[known])
    refined_err = np.mean(refined[known] != gt[known])
    assert refined_err < raw_err


def test_derive_clip_labels_rejects_unknown_mode(small_scene, noiseless_oracles):
    with pytest.raises(ValidationError):
        derive_clip_labels(small_scene.correspondences(),
                           noiseless_oracles["scores"],
                           noiseless_oracles["masks"],
                           len(small_scene.cloud), refine3d_mode="average")


# ---------------------------------------------------------------------------
# label map container


def test_label_map_validation():
    with pytest.raises(ValidationError):
        LabelMap(np.zeros(4, dtype=np.int32), PIXELS)
    with pytest.raises(ValidationError):
        LabelMap(np.zeros((2, 2), dtype=np.int32), POINTS)
    with pytest.raises(ValidationError):
        LabelMap(np.zeros((2, 2), dtype=np.int32), "voxels")
    with pytest.raises(ValidationError):
        LabelMap(np.array([-2, 0], dtype=np.int32), POINTS)
