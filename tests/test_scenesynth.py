"""Tests for synthetic scene generation and the mock CLIP/SAM oracles.

Expected values are either derived in the test by an independent method
(brute-force recomputation, hand-built inputs) or follow immediately
from the documented contract of the function under test.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage
from scipy.spatial import cKDTree

from cnslab.errors import PlacementError, ValidationError
from cnslab.geometry import CameraModel, PointCloud, look_at
from cnslab.scenesynth import (APPEARANCE_DIM, BACKGROUND_CLASS,
                               BACKGROUND_INSTANCE, MAX_ROOM_SIZE,
                               PIXEL_DESC_DIM,
                               POINT_DESC_DIM, ClipNoiseConfig, MaskFragConfig,
                               MaskMap, Scene, SceneConfig, generate_scene,
                               instance_anchors, instance_palette, mask_purity,
                               mock_clip_scores, mock_sam_features,
                               mock_sam_masks, mock_text_embeddings,
                               pixel_descriptors, point_appearance,
                               point_descriptors, render_view, standard_oracle_outputs,
                               _box_mean3, _grow, _JITTER_CELL,
                               _label_components, _nearest_neighbors,
                               _split_objects, _upsample_blocks)
from cnslab import scenesynth
from cnslab.seeding import TAG_DESCRIPTOR, TAG_MASKS, derive_rng
from cnslab.training import TrainConfig

from conftest import SMALL_SCENE, project_point


# ---------------------------------------------------------------------------
# scene generation


def test_single_object_scene_counts():
    cfg = SceneConfig(object_count=1, points_per_object=100,
                      background_points=50, num_classes=4, camera_count=2,
                      image_width=32, image_height=32, focal=24.0)
    scene = generate_scene(cfg, seed=3)
    cloud = scene.cloud
    assert len(cloud) == 150
    # Background points lie on the floor plane.
    bg = cloud.object_ids == BACKGROUND_INSTANCE
    assert bg.sum() == 50
    assert np.all(cloud.positions[bg, 2] == 0.0)
    assert np.all(cloud.gt_labels[bg] == BACKGROUND_CLASS)
    # The single object carries exactly one non-background class.
    obj = ~bg
    assert obj.sum() == 100
    classes = np.unique(cloud.gt_labels[obj])
    assert classes.shape == (1,) and 1 <= classes[0] < cfg.num_classes
    # Everything stays inside the room.
    assert cloud.positions[:, :2].min() >= 0.0
    assert cloud.positions[:, :2].max() <= cfg.room_size
    assert cloud.positions[:, 2].min() >= 0.0
    assert cloud.positions[:, 2].max() <= cfg.max_box_size


def test_scene_covers_every_class(small_scene):
    # object_count >= num_classes - 1, so the shuffled-cycle class
    # assignment must produce every class at least once.
    present = np.unique(small_scene.cloud.gt_labels)
    assert np.array_equal(present, np.arange(SMALL_SCENE.num_classes))


def test_scene_generation_deterministic():
    a = generate_scene(SMALL_SCENE, seed=11)
    b = generate_scene(SMALL_SCENE, seed=11)
    c = generate_scene(SMALL_SCENE, seed=12)
    assert np.array_equal(a.cloud.positions, b.cloud.positions)
    assert np.array_equal(a.cloud.gt_labels, b.cloud.gt_labels)
    assert np.array_equal(a.cloud.object_ids, b.cloud.object_ids)
    for cam_a, cam_b in zip(a.cameras, b.cameras):
        assert np.array_equal(cam_a.rotation, cam_b.rotation)
        assert np.array_equal(cam_a.translation, cam_b.translation)
    assert not np.array_equal(a.cloud.positions, c.cloud.positions)


def test_impossible_placement_raises():
    cfg = SceneConfig(room_size=4.0, object_count=10, points_per_object=5,
                      background_points=5, num_classes=3, camera_count=1,
                      image_width=16, image_height=16, focal=12.0,
                      min_box_size=1.9, max_box_size=2.0,
                      max_place_attempts=25)
    with pytest.raises(PlacementError):
        generate_scene(cfg, seed=0)


def test_scene_validate_rejects_mixed_instance():
    # Instance 1 carries two different classes: validation must fail.
    positions = np.array([[1.0, 1.0, 0.0], [1.2, 1.0, 0.5], [1.0, 1.2, 0.5]],
                         dtype=np.float32)
    cloud = PointCloud(positions,
                       np.array([0, 1, 2], dtype=np.int32),
                       np.array([0, 1, 1], dtype=np.int32))
    rot, trans = look_at(np.array([0.0, -5.0, 1.0]), np.array([1.0, 1.0, 0.0]))
    cam = CameraModel(24.0, 24.0, 16.0, 16.0, rot, trans, 32, 32)
    scene = Scene(cloud, [cam], num_classes=3, object_count=1, seed=0,
                  room_size=8.0)
    with pytest.raises(ValidationError):
        scene.validate()


def test_scene_config_validation():
    with pytest.raises(ValidationError):
        SceneConfig(num_classes=1).validate()
    with pytest.raises(ValidationError):
        SceneConfig(object_count=0).validate()
    with pytest.raises(ValidationError):
        SceneConfig(min_box_size=2.5, max_box_size=2.0).validate()
    with pytest.raises(ValidationError):
        SceneConfig(room_size=2.0, max_box_size=2.2).validate()


def test_box_faces_must_keep_a_non_zero_area():
    # 1e-301 is many float steps of a 1e-300 room, but its square is 0.
    # (`test_cli` covers sizes below one float step of the 8 m room.)
    with pytest.raises(ValidationError, match="min_box_size"):
        SceneConfig(room_size=1e-300, min_box_size=1e-301,
                    max_box_size=1e-301).validate()
    # 1e-14 is about six float steps at the far wall: its faces sample.
    cfg = SceneConfig(min_box_size=1e-14, max_box_size=1e-14, object_count=3)
    assert len(generate_scene(cfg, seed=0).cloud) == 3 * 600 + 2400


# ---------------------------------------------------------------------------
# view rendering


def test_render_view_matches_ground_truth(small_scene):
    render = render_view(small_scene, 0)
    visible = render.point_index >= 0
    assert visible.any()
    pidx = render.point_index[visible]
    assert np.array_equal(render.label[visible],
                          small_scene.cloud.gt_labels[pidx])
    assert np.array_equal(render.object_id[visible],
                          small_scene.cloud.object_ids[pidx])
    assert np.all(render.depth[visible] > 0)
    # Empty pixels render as background with zero depth.
    assert np.all(render.label[~visible] == BACKGROUND_CLASS)
    assert np.all(render.object_id[~visible] == BACKGROUND_INSTANCE)
    assert np.all(render.depth[~visible] == 0.0)
    # The recorded point actually projects into its pixel.
    cam = small_scene.cameras[0]
    ys, xs = np.nonzero(visible)
    for y, x in list(zip(ys, xs))[:25]:
        point = small_scene.cloud.positions[render.point_index[y, x]]
        proj = project_point(cam, point)
        assert proj is not None
        assert (proj[0], proj[1]) == (x, y)


def test_render_view_rejects_bad_camera(small_scene):
    with pytest.raises(ValidationError):
        render_view(small_scene, len(small_scene.cameras))
    with pytest.raises(ValidationError):
        render_view(small_scene, -1)


# ---------------------------------------------------------------------------
# mock CLIP scores


def test_clip_scores_are_one_hot_margins(small_scene, small_oracles):
    score = small_oracles["scores"][0]
    h, w = SMALL_SCENE.image_height, SMALL_SCENE.image_width
    assert score.scores.shape == (h, w, SMALL_SCENE.num_classes)
    # Exactly one class per pixel scores 1, all others are zero.
    assert np.count_nonzero(score.scores) == h * w
    assert score.scores.max() == pytest.approx(1.0)
    assert np.all(score.scores.sum(axis=2) == pytest.approx(1.0))


def test_clip_scores_noiseless_argmax_is_ground_truth(small_scene,
                                                      noiseless_oracles):
    for k in range(len(small_scene.cameras)):
        render = render_view(small_scene, k)
        pred = np.argmax(noiseless_oracles["scores"][k].scores, axis=2)
        assert np.array_equal(pred, render.label)


def test_clip_scores_full_noise_never_correct(small_scene):
    noise = ClipNoiseConfig(eps=1.0, block=1)
    for k in range(len(small_scene.cameras)):
        render = render_view(small_scene, k)
        pred = np.argmax(mock_clip_scores(small_scene, k, noise, seed=7).scores,
                         axis=2)
        visible = render.point_index >= 0
        assert np.all(pred[visible] != render.label[visible])
        # Pixels without a visible point keep the background score.
        assert np.all(pred[~visible] == BACKGROUND_CLASS)


def test_clip_scores_flip_rate_matches_eps():
    # Statistical check on >= 10^4 visible pixels: with block=1 each
    # visible pixel flips independently with probability eps.
    scene = generate_scene(SceneConfig(camera_count=8), seed=5)
    noise = ClipNoiseConfig(eps=0.4, block=1)
    flips = 0
    total = 0
    for k in range(len(scene.cameras)):
        render = render_view(scene, k)
        pred = np.argmax(mock_clip_scores(scene, k, noise, seed=5).scores,
                         axis=2)
        visible = render.point_index >= 0
        flips += int(np.sum(pred[visible] != render.label[visible]))
        total += int(visible.sum())
    assert total >= 10_000
    assert abs(flips / total - 0.4) < 0.02


def test_clip_scores_block_correlated(small_scene, small_oracles):
    # With block=4 the flip decision and the wrong-class offset are
    # constant over each aligned 4x4 cell.
    big_l = SMALL_SCENE.num_classes
    render = render_view(small_scene, 0)
    pred = np.argmax(small_oracles["scores"][0].scores, axis=2)
    visible = render.point_index >= 0
    flipped = pred != render.label
    h, w = render.label.shape
    for by in range(0, h, 4):
        for bx in range(0, w, 4):
            vis = visible[by:by + 4, bx:bx + 4]
            if not vis.any():
                continue
            cell_flip = flipped[by:by + 4, bx:bx + 4][vis]
            assert cell_flip.all() or not cell_flip.any()
            if cell_flip.all():
                offsets = (pred[by:by + 4, bx:bx + 4][vis]
                           - render.label[by:by + 4, bx:bx + 4][vis]) % big_l
                assert len(np.unique(offsets)) == 1


def test_clip_scores_deterministic(small_scene):
    noise = ClipNoiseConfig(eps=0.4, block=2)
    a = mock_clip_scores(small_scene, 1, noise, seed=9)
    b = mock_clip_scores(small_scene, 1, noise, seed=9)
    c = mock_clip_scores(small_scene, 1, noise, seed=10)
    assert np.array_equal(a.scores, b.scores)
    assert not np.array_equal(a.scores, c.scores)


def test_clip_noise_config_validation():
    with pytest.raises(ValidationError):
        ClipNoiseConfig(eps=-0.1).validate()
    with pytest.raises(ValidationError):
        ClipNoiseConfig(eps=1.1).validate()
    with pytest.raises(ValidationError):
        ClipNoiseConfig(block=0).validate()
    ClipNoiseConfig(eps=1.0).validate()  # boundary value is allowed


# ---------------------------------------------------------------------------
# mock SAM masks


def test_masks_single_split_matches_regions(small_scene):
    masks = mock_sam_masks(small_scene, 0, MaskFragConfig(1, 0), seed=11)
    render = render_view(small_scene, 0)
    for obj in np.unique(render.object_id):
        if obj == BACKGROUND_INSTANCE:
            continue
        region = render.object_id == obj
        ids = np.unique(masks.mask_ids[region])
        assert len(ids) == 1
        # That id appears nowhere outside the region.
        assert not np.any(masks.mask_ids[~region] == ids[0])
    # Each connected background component is one mask.
    bg = render.object_id == BACKGROUND_INSTANCE
    _, ncomp = ndimage.label(bg)
    obj_count = len(np.unique(render.object_id)) - 1
    assert masks.mask_ids.max() + 1 == ncomp + obj_count


def test_masks_split_objects_and_stay_pure(small_scene):
    masks = mock_sam_masks(small_scene, 0, MaskFragConfig(3, 0), seed=11)
    render = render_view(small_scene, 0)
    # Without jitter every mask is class-pure.
    assert mask_purity(masks, render.label) == 1.0
    for obj in np.unique(render.object_id):
        if obj == BACKGROUND_INSTANCE:
            continue
        region = render.object_id == obj
        ids = np.unique(masks.mask_ids[region])
        assert len(ids) == min(3, int(region.sum()))
        assert not np.any(np.isin(masks.mask_ids[~region], ids))


def test_masks_purity_degrades_with_jitter(small_scene):
    render = render_view(small_scene, 0)
    purity = [mask_purity(mock_sam_masks(small_scene, 0,
                                         MaskFragConfig(3, j), seed=11),
                          render.label)
              for j in (0, 2, 5)]
    assert purity[0] == 1.0
    assert purity[2] <= purity[1] <= purity[0]
    assert purity[2] < 1.0


def test_masks_deterministic(small_scene):
    frag = MaskFragConfig(3, 2)
    a = mock_sam_masks(small_scene, 1, frag, seed=4)
    b = mock_sam_masks(small_scene, 1, frag, seed=4)
    assert np.array_equal(a.mask_ids, b.mask_ids)


# The per-region mask oracle that the stacked one replaced: each object
# region is seeded and partitioned on its own, over the whole view, from
# one plain BFS distance field per seed.


def _reference_bfs(mask, y, x):
    """4-connected BFS rounds from (y, x) inside mask; inf where unreached."""
    dist = np.full(mask.shape, np.inf)
    dist[y, x] = 0
    front = np.zeros(mask.shape, dtype=bool)
    front[y, x] = True
    step = 0
    while front.any():
        step += 1
        grown = np.zeros_like(front)
        grown[1:, :] |= front[:-1, :]
        grown[:-1, :] |= front[1:, :]
        grown[:, 1:] |= front[:, :-1]
        grown[:, :-1] |= front[:, 1:]
        front = grown & mask & np.isinf(dist)
        dist[front] = step
    return dist


def _reference_farthest_seeds(mask, count, rng):
    """Seeds and their distance fields; unreached pixels are farthest."""
    ys, xs = np.nonzero(mask)
    first = int(rng.integers(len(ys)))
    seeds = [(int(ys[first]), int(xs[first]))]
    fields = [_reference_bfs(mask, *seeds[0])]
    while len(seeds) < count:
        nxt = int(np.argmax(np.min(fields, axis=0)[ys, xs]))
        seeds.append((int(ys[nxt]), int(xs[nxt])))
        fields.append(_reference_bfs(mask, *seeds[-1]))
    return seeds, np.array(fields)


def _reference_partition_region(mask, seeds, fields):
    """Nearest seed by BFS rounds, else by city-block distance; ties to
    the lowest seed index."""
    lab = np.argmin(fields, axis=0)
    left = mask & np.isinf(fields.min(axis=0))
    ys, xs = np.nonzero(left)
    sy, sx = np.array(seeds).T
    city = np.abs(ys[:, None] - sy[None, :]) + np.abs(xs[:, None] - sx[None, :])
    lab[ys, xs] = np.argmin(city, axis=1)
    return lab


def _reference_split_objects(object_id, splits, rng):
    frags = np.full(object_id.shape, -1, dtype=np.int32)
    next_id = 0
    for obj in np.unique(object_id):
        if obj == BACKGROUND_INSTANCE:
            continue
        region = object_id == obj
        k = min(splits, int(region.sum()))
        lab = _reference_partition_region(region,
                                          *_reference_farthest_seeds(region, k, rng))
        frags[region] = next_id + lab[region]
        next_id += k
    return frags


def _reference_mask_ids(scene, k, frag, seed):
    render = render_view(scene, k)
    rng = derive_rng(seed, TAG_MASKS, k)
    comps, count = _label_components(render.object_id == BACKGROUND_INSTANCE)
    frags = _reference_split_objects(render.object_id, frag.splits_per_object, rng)
    mask_ids = np.where(frags < 0, comps - 1, count + frags)
    if frag.boundary_jitter_px > 0:
        h, w = mask_ids.shape
        j = frag.boundary_jitter_px
        hb, wb = -(-h // _JITTER_CELL), -(-w // _JITTER_CELL)
        off_y = _upsample_blocks(rng.integers(-j, j + 1, (hb, wb)), _JITTER_CELL, h, w)
        off_x = _upsample_blocks(rng.integers(-j, j + 1, (hb, wb)), _JITTER_CELL, h, w)
        yy, xx = np.mgrid[0:h, 0:w]
        mask_ids = mask_ids[np.clip(yy + off_y, 0, h - 1), np.clip(xx + off_x, 0, w - 1)]
        mask_ids = np.searchsorted(np.unique(mask_ids), mask_ids)
    return mask_ids


def _assert_masks_match_reference(scene, frags, seed):
    for k in range(len(scene.cameras)):
        for splits, jitter in frags:
            frag = MaskFragConfig(splits, jitter)
            np.testing.assert_array_equal(mock_sam_masks(scene, k, frag, seed).mask_ids,
                                          _reference_mask_ids(scene, k, frag, seed),
                                          err_msg=f"view {k}, {frag}")


@pytest.mark.parametrize("seed", range(20))
def test_stacked_masks_match_per_region_reference(seed):
    scene = generate_scene(SceneConfig(), seed)
    _assert_masks_match_reference(scene, [(3, 1), (1, 0), (7, 0), (12, 1)], seed)


@pytest.mark.parametrize("cfg", [
    SceneConfig(image_width=48, image_height=40),
    SceneConfig(object_count=30, room_size=14.0),
], ids=["48x40", "30_objects"])
def test_stacked_masks_match_reference_on_other_scenes(cfg):
    _assert_masks_match_reference(generate_scene(cfg, 3), [(3, 1), (12, 0)], 3)


def test_split_objects_matches_reference_on_hand_built_regions():
    object_id = np.zeros((12, 14), dtype=np.int32)
    object_id[0, 13] = 1  # one pixel in a corner, fewer than `splits`
    object_id[11, 0:2] = 2  # two pixels on the bottom edge
    # Four 2x2 blocks touching only at corners: with fewer seeds than
    # blocks, each unseeded block joins its nearest seed in city-block
    # distance.
    for i in range(4):
        object_id[1 + 2 * i:3 + 2 * i, 1 + 2 * i:3 + 2 * i] = 3
    object_id[1:4, 10:12] = 4  # two pieces with a gap: unreached pixels
    object_id[6:8, 10:13] = 4
    corners = object_id == 3
    assert _label_components(corners)[1] == 4
    for splits in (1, 2, 3, 5):
        for seed in range(8):
            expected = _reference_split_objects(object_id, splits,
                                                np.random.default_rng(seed))
            np.testing.assert_array_equal(
                _split_objects(object_id, splits, np.random.default_rng(seed)),
                expected)
    # The first region keeps its one pixel as one fragment.
    assert expected[0, 13] == 0 and (expected == 0).sum() == 1


def test_split_objects_of_an_empty_view():
    frags = _split_objects(np.zeros((5, 7), dtype=np.int32), 3, np.random.default_rng(0))
    assert frags.shape == (5, 7) and (frags == -1).all()


def test_grow_steps_along_edges_only():
    # A diagonal neighbour is not reached.
    rounds, owner = _grow(np.array([[[1, 0], [0, 1]]], dtype=bool), np.array([[0]]))
    np.testing.assert_array_equal(rounds[0], [[0, -1], [-1, -1]])
    np.testing.assert_array_equal(owner[0], [[0, -1], [-1, -1]])
    rounds, owner = _grow(np.ones((1, 1, 4), dtype=bool), np.array([[0]]))
    np.testing.assert_array_equal(rounds[0], [[0, 1, 2, 3]])
    np.testing.assert_array_equal(owner[0], [[0, 0, 0, 0]])
    # Seeds at both ends of a line; the middle tie goes to seed 0.
    rounds, owner = _grow(np.ones((1, 1, 5), dtype=bool), np.array([[4, 0, -1]]))
    np.testing.assert_array_equal(rounds[0], [[0, 1, 2, 1, 0]])
    np.testing.assert_array_equal(owner[0], [[1, 1, 0, 0, 0]])


def test_split_objects_seeds_each_piece_when_it_can():
    # A 2x6 block and a 2x2 block touching only at a corner, split in two.
    object_id = np.zeros((5, 9), dtype=np.int32)
    object_id[0:2, 0:6] = 1
    object_id[2:4, 6:8] = 1
    for seed in range(8):
        frags = _split_objects(object_id, 2, np.random.default_rng(seed))
        big, small = frags[0:2, 0:6], frags[2:4, 6:8]
        assert (big == big[0, 0]).all() and (small == small[0, 0]).all()
        assert big[0, 0] != small[0, 0]


@pytest.mark.parametrize("seed", range(10))
def test_fragments_are_connected_where_the_region_allows(seed):
    # Default scene and splits at jitter 0: every fragment of an object
    # region in at most `splits` 4-connected pieces is 4-connected.
    scene = generate_scene(SceneConfig(), seed)
    splits = MaskFragConfig().splits_per_object
    for k in range(len(scene.cameras)):
        object_id = render_view(scene, k).object_id
        mask_ids = mock_sam_masks(scene, k, MaskFragConfig(splits, 0), seed).mask_ids
        for obj in np.unique(object_id[object_id != BACKGROUND_INSTANCE]):
            region = object_id == obj
            if ndimage.label(region)[1] > splits:
                continue
            for frag in np.unique(mask_ids[region]):
                assert ndimage.label(mask_ids == frag)[1] == 1, (k, obj, frag)


def _assert_labels_like_scipy(mask):
    labels, count = _label_components(mask)
    expected, expected_count = ndimage.label(mask)
    assert count == expected_count
    assert labels.dtype == np.int32
    np.testing.assert_array_equal(labels, expected)


def test_label_components_match_scipy_on_random_masks():
    rng = np.random.default_rng(2306)
    for _ in range(300):
        h, w = rng.integers(1, 48, size=2)
        _assert_labels_like_scipy(rng.random((h, w)) < rng.uniform(0.05, 0.95))


@pytest.mark.parametrize("mask", [
    np.zeros((6, 9), dtype=bool),
    np.ones((6, 9), dtype=bool),
    np.array([[1, 0, 1, 1, 0, 0, 1, 1, 1, 0, 1]], dtype=bool),
    np.array([[1, 0, 1, 1, 0, 0, 1, 1, 1, 0, 1]], dtype=bool).T,
    np.indices((9, 8)).sum(axis=0) % 2 == 0,  # diagonal neighbors stay apart
], ids=["empty", "full", "row", "column", "checkerboard"])
def test_label_components_match_scipy_on_edge_cases(mask):
    _assert_labels_like_scipy(mask)


def _spiral(n):
    """One-pixel-wide square spiral from the top-left corner inward."""
    mask = np.zeros((n, n), dtype=bool)
    y = x = 0
    mask[0, 0] = True
    moves = [(0, 1), (1, 0), (0, -1), (-1, 0)]
    lengths = [n - 1, n - 1] + [n - 1 - 2 * (k // 2) for k in range(2, 2 * n)]
    for turn, length in enumerate(lengths):
        if length <= 0:
            break
        dy, dx = moves[turn % 4]
        for _ in range(length):
            y, x = y + dy, x + dx
            mask[y, x] = True
    return mask


def test_label_components_follow_a_long_spiral():
    mask = _spiral(64)
    assert mask.sum() > 2000  # one path of over 2000 pixels
    assert _label_components(mask)[1] == 1
    _assert_labels_like_scipy(mask)


@pytest.mark.parametrize("seed", range(5))
def test_background_mask_ids_follow_scipy_numbering(seed):
    # The default scene of `cnslab synth --seed <seed>`, every view.
    scene = generate_scene(SceneConfig(), seed)
    for k in range(len(scene.cameras)):
        background = render_view(scene, k).object_id == BACKGROUND_INSTANCE
        _assert_labels_like_scipy(background)
        comps, count = ndimage.label(background)
        mask_ids = mock_sam_masks(scene, k, MaskFragConfig(3, 0), seed).mask_ids
        np.testing.assert_array_equal(mask_ids[background], comps[background] - 1)
        assert mask_ids[~background].min() >= count


def test_mask_purity_hand_example():
    # Mask 0 covers rows 0-1: six pixels of class 1, two of class 2.
    # Mask 1 covers rows 2-3: eight pixels of class 0.
    # Plurality-consistent pixels: 6 + 8 of 16.
    labels = np.zeros((4, 4), dtype=np.int32)
    labels[0] = [1, 1, 1, 1]
    labels[1] = [1, 1, 2, 2]
    mask_ids = np.zeros((4, 4), dtype=np.int32)
    mask_ids[2:] = 1
    assert mask_purity(MaskMap(mask_ids), labels) == pytest.approx(14 / 16)


def test_mask_map_rejects_gapped_ids():
    with pytest.raises(ValidationError):
        MaskMap(np.array([[0, 2], [2, 0]]))
    with pytest.raises(ValidationError):
        MaskMap(np.array([[1, 1], [1, 1]]))


def test_mask_frag_config_validation():
    with pytest.raises(ValidationError):
        MaskFragConfig(splits_per_object=0).validate()
    with pytest.raises(ValidationError):
        MaskFragConfig(boundary_jitter_px=-1).validate()


# ---------------------------------------------------------------------------
# mock SAM features


def test_features_noiseless_equal_instance_anchors(small_scene):
    feats = mock_sam_features(small_scene, 0, feat_dim=8,
                              within_noise_sigma=0.0, seed=11)
    anchors = instance_anchors(small_scene, feat_dim=8, seed=11)
    render = render_view(small_scene, 0)
    expected = anchors[render.object_id].astype(np.float32)
    norms = np.linalg.norm(expected, axis=2, keepdims=True)
    assert np.allclose(feats.features, expected / norms, atol=1e-6)
    # Distinct instances get distinct anchors.
    gram = anchors @ anchors.T
    off = gram[~np.eye(len(anchors), dtype=bool)]
    assert np.max(off) < 1.0 - 1e-6


def test_features_are_unit_and_clustered(small_scene):
    feats = mock_sam_features(small_scene, 0, feat_dim=32,
                              within_noise_sigma=0.1, seed=11)
    render = render_view(small_scene, 0)
    flat = feats.features.reshape(-1, 32).astype(np.float64)
    norms = np.linalg.norm(flat, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-6
    obj = render.object_id.ravel()
    gram = flat @ flat.T
    same = obj[:, None] == obj[None, :]
    eye = np.eye(len(flat), dtype=bool)
    within = gram[same & ~eye].mean()
    cross = gram[~same].mean()
    assert within > cross + 0.5


def test_instance_anchors_validation(small_scene):
    with pytest.raises(ValidationError):
        instance_anchors(small_scene, feat_dim=1, seed=0)


# ---------------------------------------------------------------------------
# class text embeddings


def test_text_embeddings_unit_norm_and_deterministic():
    a = mock_text_embeddings(6, 32, seed=2)
    b = mock_text_embeddings(6, 32, seed=2)
    c = mock_text_embeddings(6, 32, seed=3)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    norms = np.linalg.norm(a, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-9


def test_text_embeddings_low_coherence():
    table = mock_text_embeddings(8, 512, seed=1)
    gram = table @ table.T
    np.fill_diagonal(gram, 0.0)
    assert np.max(np.abs(gram)) <= 0.3


def test_text_embeddings_infeasible_raises():
    with pytest.raises(ValidationError, match="coherence"):
        mock_text_embeddings(8, 2, seed=0)


# ---------------------------------------------------------------------------
# appearance palette and descriptors


def test_palette_prefix_stable_and_separated():
    big = instance_palette(6)
    small = instance_palette(2)
    assert big.shape == (7, APPEARANCE_DIM)
    assert np.array_equal(big[:3], small)
    for i in range(len(big)):
        for j in range(i + 1, len(big)):
            assert np.linalg.norm(big[i] - big[j]) >= 0.5
    assert big.min() >= 0.0 and big.max() < 1.0


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 8), st.integers(0, 8))
def test_palette_prefix_property(n1, n2):
    lo, hi = sorted((n1, n2))
    assert np.array_equal(instance_palette(hi)[:lo + 1], instance_palette(lo))


def test_point_descriptors_shape_and_appearance(small_scene):
    desc = point_descriptors(small_scene, noise_sigma=0.0)
    assert desc.shape == (len(small_scene.cloud), POINT_DESC_DIM)
    assert np.isfinite(desc).all()
    # Normalized coordinates first, then noise-free palette appearance.
    assert desc[:, :3].min() >= 0.0 and desc[:, :3].max() <= 1.0
    palette = instance_palette(small_scene.object_count)
    expected = palette[small_scene.cloud.object_ids].astype(np.float32)
    assert np.allclose(desc[:, 3:3 + APPEARANCE_DIM], expected, atol=1e-6)
    again = point_descriptors(small_scene, noise_sigma=0.0)
    assert np.array_equal(desc, again)


def test_pixel_descriptors_shape_and_position(small_scene):
    desc = pixel_descriptors(small_scene, 0, noise_sigma=0.02)
    h, w = SMALL_SCENE.image_height, SMALL_SCENE.image_width
    assert desc.shape == (h, w, PIXEL_DESC_DIM)
    assert np.isfinite(desc).all()
    # First two channels encode normalized pixel position.
    assert desc[0, 0, 0] == 0.0 and desc[0, w - 1, 0] == 1.0
    assert desc[0, 0, 1] == 0.0 and desc[h - 1, 0, 1] == 1.0
    again = pixel_descriptors(small_scene, 0, noise_sigma=0.02)
    assert np.array_equal(desc, again)


def test_point_appearance_is_drawn_once_per_scene_and_noise(small_scene, monkeypatch):
    scene = Scene(small_scene.cloud, small_scene.cameras, small_scene.num_classes,
                  small_scene.object_count, small_scene.seed, small_scene.room_size)
    drawn = []
    real = scenesynth.derive_rng
    monkeypatch.setattr(scenesynth, "derive_rng",
                        lambda *args: drawn.append(args) or real(*args))
    point = point_descriptors(scene, 0.02)
    pixel = [pixel_descriptors(scene, k, 0.02) for k in range(len(scene.cameras))]
    app = point_appearance(scene, 0.02)
    assert drawn.count((scene.seed, TAG_DESCRIPTOR, 0)) == 1
    assert not app.flags.writeable
    assert point_appearance(scene, 0.02) is app
    assert not np.array_equal(point_appearance(scene, 0.05), app)
    assert drawn.count((scene.seed, TAG_DESCRIPTOR, 0)) == 2
    # Built from the kept draw, the descriptors are those built from a fresh one.
    assert np.array_equal(point_descriptors(scene, 0.02), point)
    assert all(np.array_equal(pixel_descriptors(scene, k, 0.02), p)
               for k, p in enumerate(pixel))


# sha256 of the default scene's float32 descriptors (point, then the stacked
# views), recorded when scipy's cKDTree and uniform_filter built them.
DESCRIPTOR_SHA256 = {
    0: ("b2129c96d9fa41310adfb480aa01f5e345baa0f999727b3b81d99caa18e00c31",
        "4547c33f84e80ba155d453f66e99176327c10c73f3870e41238bd9dcb650fb11"),
    1: ("6b3d34329be043286bd532633052980f60887749cfd8a59e78578797a73e79dd",
        "e1f87ecb5e9b9e9e8eb217e8a63742f188ebc1291f5404f940a878e0a9ab062a"),
}


@pytest.mark.parametrize("seed", sorted(DESCRIPTOR_SHA256))
def test_descriptor_bytes_are_pinned(seed):
    scene = generate_scene(SceneConfig(), seed)
    noise = TrainConfig().descriptor_noise
    point = point_descriptors(scene, noise)
    pixel = np.stack([pixel_descriptors(scene, k, noise)
                      for k in range(len(scene.cameras))])
    digests = tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in (point, pixel))
    assert digests == DESCRIPTOR_SHA256[seed]


def _knn_by_index_ties(pos, k):
    """Brute-force k nearest, summed as cKDTree sums, ties by index."""
    diff = pos[:, None, :] - pos[None, :, :]
    sq = diff * diff
    d2 = (sq[..., 0] + sq[..., 1]) + sq[..., 2]
    index = np.broadcast_to(np.arange(len(pos)), d2.shape)
    nearest = np.lexsort((index, d2), axis=1)[:, :min(k, len(pos))]
    return np.sqrt(np.take_along_axis(d2, nearest, axis=1)), nearest


def _ckdtree_knn(pos, k):
    # A list of ranks keeps the (N, k) shape when k is 1.
    return cKDTree(pos).query(pos, k=list(range(1, min(k, len(pos)) + 1)))


KNN_SCENES = ([(SceneConfig(), seed) for seed in range(10)]
              + [(cfg, seed) for cfg in (
                  SceneConfig(object_count=30, room_size=14),
                  SceneConfig(points_per_object=50, background_points=30),
                  SceneConfig(room_size=3, object_count=2),
                  SceneConfig(object_count=1, points_per_object=4,
                              background_points=4))
                 for seed in range(3)])


@pytest.mark.parametrize("cfg, seed", KNN_SCENES)
def test_nearest_neighbors_equal_ckdtree_on_scenes(cfg, seed):
    pos = generate_scene(cfg, seed).cloud.positions.astype(np.float64)
    dist, idx = _nearest_neighbors(pos, 9)
    want_dist, want_idx = _ckdtree_knn(pos, 9)
    assert dist.shape == want_dist.shape == (len(pos), min(9, len(pos)))
    assert dist.tobytes() == want_dist.tobytes()
    assert np.array_equal(idx, want_idx)


def _knn_edge_cases():
    rng = np.random.default_rng(7)
    plane = rng.random((400, 3))
    plane[:, 2] = 0.5
    line = np.zeros((300, 3))
    line[:, 0] = rng.random(300)
    far = (MAX_ROOM_SIZE - 8 * rng.random((500, 3))).astype(np.float32)
    return {
        "single point": np.full((1, 3), 2.5),
        "k above n": rng.random((5, 3)),
        "coincident": np.full((20, 3), 3.0),
        "coplanar": plane,
        "collinear": line,
        "duplicated": np.repeat(rng.random((100, 3)), 3, axis=0),
        "lattice": rng.integers(0, 4, (300, 3)).astype(np.float64),
        "near max room": far.astype(np.float64),
        "across max room": MAX_ROOM_SIZE * rng.random((500, 3)),
    }


@pytest.mark.parametrize("name", sorted(_knn_edge_cases()))
def test_nearest_neighbors_edge_cases(name):
    pos = _knn_edge_cases()[name]
    dist, idx = _nearest_neighbors(pos, 9)
    # Distances equal cKDTree's to the bit; its order among exact ties is
    # unspecified, so neighbours are checked against the (d^2, index) rule.
    assert dist.tobytes() == _ckdtree_knn(pos, 9)[0].tobytes()
    want_dist, want_idx = _knn_by_index_ties(pos, 9)
    assert dist.tobytes() == want_dist.tobytes()
    assert np.array_equal(idx, want_idx)


def _uniform_filter(x):
    return ndimage.uniform_filter(x, size=(3, 3, 1), mode="nearest")


@pytest.mark.parametrize("shape", [(1, 1), (1, 2), (1, 17), (17, 1), (2, 2),
                                   (2, 3), (3, 64), (64, 64)])
def test_box_mean_equals_uniform_filter_on_edge_shapes(shape):
    x = np.random.default_rng(3).random((*shape, APPEARANCE_DIM))
    assert _box_mean3(x).tobytes() == _uniform_filter(x).tobytes()


def test_box_mean_equals_uniform_filter_on_random_arrays():
    rng = np.random.default_rng(4)
    for _ in range(200):
        h, w = rng.integers(1, 70, size=2)
        scale = rng.choice([1e-3, 1.0, 100.0])
        x = scale * rng.standard_normal((h, w, APPEARANCE_DIM))
        assert _box_mean3(x).tobytes() == _uniform_filter(x).tobytes()


def test_box_mean_keeps_uniform_filter_signed_zeros():
    x = np.full((4, 5, 2), -0.0)
    x[1, 2, 1] = 0.0
    assert _box_mean3(x).tobytes() == _uniform_filter(x).tobytes()


def test_standard_oracle_outputs_structure(small_scene, small_oracles):
    assert set(small_oracles) == {"scores", "masks", "features",
                                  "embeddings", "meta"}
    n_views = len(small_scene.cameras)
    assert len(small_oracles["scores"]) == n_views
    assert len(small_oracles["masks"]) == n_views
    assert len(small_oracles["features"]) == n_views
    table = small_oracles["embeddings"]
    assert table.shape == (SMALL_SCENE.num_classes, 16)
    meta = small_oracles["meta"]
    assert meta["clip_eps"] == 0.4
    assert meta["clip_block"] == 4
    assert meta["frag_splits"] == 3
    assert meta["frag_jitter"] == 1
    assert meta["feat_dim"] == 8
    assert meta["feat_sigma"] == 0.1
    assert meta["embed_dim"] == 16
    assert meta["oracle_seed"] == small_scene.seed
