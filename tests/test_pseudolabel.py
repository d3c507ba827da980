"""Tests for the pseudo-label algebra.

Voting and transfer results are checked against brute-force python
re-implementations or hand-built inputs with worked-out answers.
"""

import dataclasses

import numpy as np
import pytest

from cnslab.errors import ValidationError
from cnslab.geometry import CorrespondenceSet
from cnslab.pseudolabel import (IGNORE, argmax_label, derive_clip_labels,
                                refine_by_masks, refine_points_by_view_masks,
                                refine_views, reproject_refine_points,
                                transfer_labels, transfer_masks)
from cnslab.scenesynth import (ClipNoiseConfig, MaskFragConfig, MaskMap,
                               gt_pixel_stack, mock_clip_scores, mock_sam_masks,
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
    labels = argmax_label(scores)
    assert labels.shape == (1, 1) and labels.dtype == np.int32
    assert labels[0, 0] == 2


def test_argmax_label_tie_breaks_low():
    scores = np.array([[0.5, 0.5], [0.25, 0.75]], dtype=np.float64)
    assert np.array_equal(argmax_label(scores), [0, 1])


def test_argmax_label_brute_force(rng):
    scores = rng.random((4, 4, 5)).astype(np.float32)
    labels = argmax_label(scores)
    for y in range(4):
        for x in range(4):
            best = max(range(5), key=lambda c: (scores[y, x, c], -c))
            assert labels[y, x] == best


def test_argmax_label_rejects_scalar_rows():
    with pytest.raises(ValidationError):
        argmax_label(np.array([1.0, 2.0]))


# ---------------------------------------------------------------------------
# pixel -> point transfer


def test_transfer_single_view_carries_label():
    corr = _corr([(0, 0, 3, 1, 2.0)])
    pix = np.full((1, 4, 4), IGNORE, dtype=np.int32)
    pix[0, 1, 3] = 5
    out = transfer_labels(corr, pix, num_points=2)
    assert out.shape == (2,) and out.dtype == np.int32
    assert out[0] == 5
    assert out[1] == IGNORE  # no correspondence -> IGNORE


def test_transfer_first_camera_priority():
    # Point 0 is visible in both views with conflicting labels.
    corr = _corr([(0, 0, 0, 0, 1.0), (0, 1, 2, 2, 1.5)])
    pixel = np.stack([np.full((3, 3), 4, dtype=np.int32),
                      np.full((3, 3), 7, dtype=np.int32)])
    assert transfer_labels(corr, pixel, num_points=1)[0] == 4
    # An IGNORE in the first view falls through to the second.
    pixel[0, 0, 0] = IGNORE
    assert transfer_labels(corr, pixel, num_points=1)[0] == 7


def test_transfer_brute_force_rewalk(small_scene, rng):
    # Random per-view labels with holes, replayed by a python walk over
    # the correspondence entries in camera order.
    corr = small_scene.correspondences()
    n = len(small_scene.cloud)
    shape = gt_pixel_stack(small_scene).shape
    views = rng.integers(0, 5, size=shape).astype(np.int32)
    views[rng.random(shape) < 0.3] = IGNORE
    out = transfer_labels(corr, views, n)
    expected = np.full(n, IGNORE, dtype=np.int32)
    entries = list(zip(corr.point_index, corr.camera_index, corr.u, corr.v))
    for point, camera, u, v in sorted(entries, key=lambda e: e[1]):
        lab = views[camera, v, u]
        if expected[point] == IGNORE and lab != IGNORE:
            expected[point] = lab
    assert np.array_equal(out, expected)


def test_transfer_validates_inputs():
    corr = _corr([(0, 1, 0, 0, 1.0)])
    one_view = np.zeros((1, 2, 2), dtype=np.int32)
    with pytest.raises(ValidationError, match="every view"):
        transfer_labels(corr, one_view, num_points=1)
    for not_a_stack in (np.zeros(4, dtype=np.int32), np.zeros((2, 2), dtype=np.int32)):
        with pytest.raises(ValidationError, match=r"\(V, H, W\)"):
            transfer_labels(_corr([(0, 0, 0, 0, 1.0)]), not_a_stack, num_points=1)


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
    labels = np.array([2, 2, 5, 1, 2], dtype=np.int32)
    masks = np.array([0, 0, 0, 1, 1])
    out = refine_by_masks(labels, masks)
    assert np.array_equal(out, [2, 2, 2, 1, 1])  # {2,2,5} -> 2; {1,2} -> 1
    assert np.array_equal(labels, [2, 2, 5, 1, 2])  # the input is not written


def test_refine_by_masks_ignore_rules():
    labels = np.array([IGNORE, 3, IGNORE, 6], dtype=np.int32)
    masks = np.array([0, 0, 1, -1])
    out = refine_by_masks(labels, masks)
    # IGNORE never votes and is never overwritten; unmasked elements and
    # all-IGNORE masks keep their labels.
    assert np.array_equal(out, [IGNORE, 3, IGNORE, 6])


def test_refine_by_masks_histogram_oracle(rng):
    labels = rng.integers(0, 6, size=(64, 64)).astype(np.int32)
    labels[rng.random((64, 64)) < 0.2] = IGNORE
    masks = rng.integers(-1, 10, size=(64, 64))
    out = refine_by_masks(labels, masks)
    expected = labels.copy()
    for m in range(10):
        votes = labels[(masks == m) & (labels != IGNORE)]
        if len(votes) == 0:
            continue
        winner = np.bincount(votes).argmax()
        sel = (masks == m) & (labels != IGNORE)
        expected[sel] = winner
    assert np.array_equal(out, expected)


def test_refine_by_masks_idempotent_and_constant(rng):
    labels = rng.integers(0, 4, size=50).astype(np.int32)
    masks = rng.integers(0, 5, size=50)
    once = refine_by_masks(labels, masks)
    twice = refine_by_masks(once, masks)
    assert np.array_equal(once, twice)
    # Labels already constant per mask are a fixpoint.
    constant = masks.astype(np.int32) % 3
    assert np.array_equal(refine_by_masks(constant, masks), constant)


def test_refine_by_masks_mask_relabel_equivariant(rng):
    labels = rng.integers(-1, 4, size=80).astype(np.int32)
    masks = rng.integers(-1, 6, size=80)
    perm = rng.permutation(6)
    permuted = np.where(masks >= 0, perm[np.maximum(masks, 0)], -1)
    a = refine_by_masks(labels, masks)
    b = refine_by_masks(labels, permuted)
    assert np.array_equal(a, b)


def test_refine_by_masks_shape_mismatch():
    with pytest.raises(ValidationError):
        refine_by_masks(np.zeros(4, dtype=np.int32), np.zeros(5, dtype=np.int64))


def test_refine_reduces_block_free_noise(small_scene):
    # i.i.d. pixel flips at eps=0.4 against class-pure masks: plurality
    # voting should recover most labels.
    render = render_view(small_scene, 0)
    scores = mock_clip_scores(small_scene, 0, ClipNoiseConfig(eps=0.4, block=1),
                              seed=21)
    masks = mock_sam_masks(small_scene, 0, MaskFragConfig(3, 0), seed=21)
    raw = argmax_label(scores.scores)
    refined = refine_by_masks(raw, masks.mask_ids)
    raw_err = np.mean(raw != render.label)
    refined_err = np.mean(refined != render.label)
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
        out = refine_by_masks(labels, np.zeros(9, dtype=np.int64))
        correct += int(np.all(out == 3))
    assert correct / trials >= 0.9


# ---------------------------------------------------------------------------
# point-domain refinement


def test_refine_views_votes_each_view_in_its_own_masks():
    # Both views use mask id 0, but ids are view-local: no vote crosses views.
    pixel = np.array([[[1, 1], [1, 2]], [[3, 3], [2, 2]]], dtype=np.int32)
    masks = [MaskMap(np.zeros((2, 2), dtype=np.int32))] * 2
    out = refine_views(pixel, masks)
    assert np.array_equal(out, [[[1, 1], [1, 1]], [[2, 2], [2, 2]]])


def test_refine_points_by_view_masks_camera_priority():
    labels = np.array([2, 2, 0], dtype=np.int32)
    view0 = np.array([0, 0, -1])  # points 0, 1 share a mask
    view1 = np.array([1, -1, 1])  # points 0, 2 share a mask
    out = refine_points_by_view_masks(labels, [view0, view1])
    # Point 0: view 0 votes {2,2} -> 2; view 1 would vote {2,0} -> 0.
    # The lower camera wins; point 2 only appears in view 1.
    assert np.array_equal(out, [2, 2, 0])
    flipped = refine_points_by_view_masks(labels, [view1, view0])
    assert flipped[0] == 0


def test_refine_points_invisible_keep_labels():
    labels = np.array([4, 1], dtype=np.int32)
    out = refine_points_by_view_masks(labels, [np.array([-1, 0])])
    assert out[0] == 4


def test_refine_points_rejects_pixel_domain():
    with pytest.raises(ValidationError, match=r"\(N,\) point labels"):
        refine_points_by_view_masks(np.zeros((2, 2), dtype=np.int32), [])


def test_reproject_refine_fixpoint_on_ground_truth(small_scene):
    # Ground-truth labels splatted through class-pure masks come back
    # unchanged.
    corr = small_scene.correspondences()
    masks = [mock_sam_masks(small_scene, k, MaskFragConfig(3, 0), seed=2)
             for k in range(len(small_scene.cameras))]
    gt = small_scene.cloud.gt_labels
    out = reproject_refine_points(corr, gt, masks)
    assert np.array_equal(out, gt)


def test_reproject_refine_rejects_pixel_domain(small_scene):
    with pytest.raises(ValidationError, match=r"\(N,\) point labels"):
        reproject_refine_points(small_scene.correspondences(),
                                np.zeros((2, 2), dtype=np.int32), [])


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
        labels = out[key]
        assert labels.shape == (len(small_scene.cloud),)
        assert np.array_equal(labels[visible],
                              small_scene.cloud.gt_labels[visible])
        assert np.all(labels[~visible] == IGNORE)
    gt_pixel = gt_pixel_stack(small_scene)
    assert np.array_equal(out["pixel_raw"], gt_pixel)
    assert np.array_equal(out["pixel_refined"], gt_pixel)


def test_derive_clip_labels_modes_agree_when_noiseless(small_scene,
                                                      noiseless_oracles):
    corr = small_scene.correspondences()
    a = derive_clip_labels(corr, noiseless_oracles["scores"],
                           noiseless_oracles["masks"], len(small_scene.cloud),
                           refine3d_mode="transfer-masks")
    b = derive_clip_labels(corr, noiseless_oracles["scores"],
                           noiseless_oracles["masks"], len(small_scene.cloud),
                           refine3d_mode="reproject")
    assert np.array_equal(a["point_refined"], b["point_refined"])


def test_derive_clip_labels_refinement_helps(small_scene):
    scores = [mock_clip_scores(small_scene, k, ClipNoiseConfig(eps=0.4, block=1),
                               seed=33)
              for k in range(len(small_scene.cameras))]
    masks = [mock_sam_masks(small_scene, k, MaskFragConfig(3, 0), seed=33)
             for k in range(len(small_scene.cameras))]
    corr = small_scene.correspondences()
    out = derive_clip_labels(corr, scores, masks, len(small_scene.cloud))
    gt = small_scene.cloud.gt_labels
    raw = out["point_raw"]
    refined = out["point_refined"]
    known = raw != IGNORE
    raw_err = np.mean(raw[known] != gt[known])
    refined_err = np.mean(refined[known] != gt[known])
    assert refined_err < raw_err


# One value off the default for every field of the oracle noise configs.
OFF_DEFAULT = {"eps": 0.2, "block": 2, "splits_per_object": 2,
               "boundary_jitter_px": 0}


def _refined_labels(scene, clip_noise, frag):
    views = range(len(scene.cameras))
    scores = [mock_clip_scores(scene, k, clip_noise, seed=11) for k in views]
    masks = [mock_sam_masks(scene, k, frag, seed=11) for k in views]
    out = derive_clip_labels(scene.correspondences(), scores, masks, len(scene.cloud))
    return out["pixel_refined"], out["point_refined"]


def test_every_oracle_noise_field_changes_the_refined_labels(small_scene):
    # No config knob is a no-op: each field of the oracle noise configs,
    # moved off its default, changes the labels training reads.
    defaults = {ClipNoiseConfig: ClipNoiseConfig(), MaskFragConfig: MaskFragConfig()}
    base = _refined_labels(small_scene, *defaults.values())
    for cls, default in defaults.items():
        for f in dataclasses.fields(cls):
            assert f.name in OFF_DEFAULT, f"{cls.__name__}.{f.name} has no test value"
            configs = dict(defaults)
            configs[cls] = dataclasses.replace(default, **{f.name: OFF_DEFAULT[f.name]})
            moved = _refined_labels(small_scene, *configs.values())
            assert not all(np.array_equal(a, b) for a, b in zip(base, moved)), \
                f"{cls.__name__}.{f.name} does not change the refined labels"


def test_derive_clip_labels_rejects_unknown_mode(small_scene, noiseless_oracles):
    with pytest.raises(ValidationError):
        derive_clip_labels(small_scene.correspondences(),
                           noiseless_oracles["scores"],
                           noiseless_oracles["masks"],
                           len(small_scene.cloud), refine3d_mode="average")

