"""Projection, z-buffer correspondences, and their brute-force oracles."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cnslab.errors import ValidationError
from cnslab.geometry import (DEPTH_MIN, CameraModel, CorrespondenceSet,
                             PointCloud, build_correspondences, look_at,
                             project_points)

from conftest import project_point


def identity_camera(width=32, height=32, fx=16.0, fy=16.0, cx=None, cy=None):
    cx = (width - 1) / 2.0 if cx is None else cx
    cy = (height - 1) / 2.0 if cy is None else cy
    return CameraModel(fx, fy, cx, cy, np.eye(3), np.zeros(3), width, height)


def ring_camera(position, target, width=32, height=32, focal=24.0):
    rot, trans = look_at(position, target)
    return CameraModel(focal, focal, (width - 1) / 2.0, (height - 1) / 2.0,
                       rot, trans, width, height)


# ---------------------------------------------------------------------------
# cameras and single-point projection


def test_look_at_produces_valid_rotation():
    rot, trans = look_at((5.0, 2.0, 3.0), (0.0, 0.0, 0.0))
    assert np.allclose(rot @ rot.T, np.eye(3), atol=1e-12)
    assert np.linalg.det(rot) > 0
    # The target must land on the optical axis, in front of the camera.
    cam = rot @ np.array([0.0, 0.0, 0.0]) + trans
    assert abs(cam[0]) < 1e-12 and abs(cam[1]) < 1e-12
    assert cam[2] > 0


def test_look_at_translation_encodes_position():
    position = np.array([1.0, -2.0, 0.5])
    rot, trans = look_at(position, (4.0, 4.0, 1.0))
    assert np.allclose(rot @ position + trans, 0.0, atol=1e-12)


def test_look_at_rejects_zero_baseline():
    with pytest.raises(ValidationError, match="coincides"):
        look_at((1.0, 1.0, 1.0), (1.0, 1.0, 1.0))


def test_project_point_center_pixel():
    cam = identity_camera(width=32, height=32, fx=10.0, fy=10.0,
                          cx=15.5, cy=15.5)
    # On the optical axis the offsets vanish: u = floor(15.5 + 0.5) = 16.
    assert project_point(cam, (0.0, 0.0, 2.0)) == (16, 16, 2.0)


def test_project_point_known_offsets():
    cam = identity_camera(width=64, height=64, fx=32.0, fy=16.0, cx=31.5,
                          cy=31.5)
    u, v, depth = project_point(cam, (0.5, -1.0, 4.0))
    assert (u, v) == (int(np.floor(32.0 * 0.125 + 31.5 + 0.5)),
                      int(np.floor(16.0 * -0.25 + 31.5 + 0.5)))
    assert depth == 4.0


def test_project_point_behind_camera_is_none():
    cam = identity_camera()
    assert project_point(cam, (0.0, 0.0, -1.0)) is None
    assert project_point(cam, (0.0, 0.0, DEPTH_MIN / 2)) is None


def test_project_point_off_image_is_none():
    cam = identity_camera(width=8, height=8, fx=100.0, fy=100.0)
    assert project_point(cam, (1.0, 0.0, 1.0)) is None


def test_project_points_matches_scalar_path(rng):
    cam = ring_camera((6.0, 1.0, 3.0), (0.0, 0.0, 0.0))
    pts = rng.uniform(-4, 4, size=(300, 3))
    uv, depth, valid = project_points(cam, pts)
    for i in range(len(pts)):
        single = project_point(cam, pts[i])
        if single is None:
            assert not valid[i]
        else:
            assert valid[i]
            assert (uv[i, 0], uv[i, 1]) == single[:2]
            assert np.isclose(depth[i], single[2])


def test_project_points_masks_unprojectable_points_before_the_cast(rng):
    # A non-finite position and a finite camera translation far off the
    # image both yield pixel coordinates no int64 holds; they must come
    # out invalid without a cast warning, and the rest exactly as before.
    cam = ring_camera((6.0, 1.0, 3.0), (0.0, 0.0, 0.0))
    pts = rng.uniform(-4, 4, size=(50, 3))
    pts[0, 0] = pts[1, 2] = np.nan
    far = CameraModel(cam.fx, cam.fy, cam.cx, cam.cy, cam.rotation,
                      cam.translation + [1e30, 0.0, 0.0], cam.width, cam.height)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        uv, _, valid = project_points(cam, pts)
        far_uv, _, far_valid = project_points(far, pts)
    assert not valid[:2].any() and valid[2:].any()
    assert not far_valid.any()
    for i in range(2, len(pts)):
        single = project_point(cam, pts[i])
        assert valid[i] == (single is not None)
        if single is not None:
            assert (uv[i, 0], uv[i, 1]) == single[:2]


def test_camera_rejects_bad_rotation():
    bad = np.eye(3)
    bad[0, 0] = 1.5
    with pytest.raises(ValidationError, match="orthonormal"):
        CameraModel(10.0, 10.0, 0.0, 0.0, bad, np.zeros(3), 8, 8)


def test_camera_rejects_reflection():
    reflect = np.diag([1.0, 1.0, -1.0])
    with pytest.raises(ValidationError, match="determinant"):
        CameraModel(10.0, 10.0, 0.0, 0.0, reflect, np.zeros(3), 8, 8)


def test_camera_rejects_nonpositive_focal():
    with pytest.raises(ValidationError, match="focal"):
        CameraModel(0.0, 10.0, 0.0, 0.0, np.eye(3), np.zeros(3), 8, 8)


def test_camera_arrays_are_frozen():
    cam = identity_camera()
    with pytest.raises(ValueError):
        cam.rotation[0, 0] = 2.0


# ---------------------------------------------------------------------------
# point clouds


def test_point_cloud_validates_shapes():
    with pytest.raises(ValidationError, match=r"\(N, 3\)"):
        PointCloud(np.zeros((4, 2), dtype=np.float32))
    with pytest.raises(ValidationError, match="at least one point"):
        PointCloud(np.zeros((0, 3), dtype=np.float32))
    with pytest.raises(ValidationError, match="gt_labels"):
        PointCloud(np.zeros((4, 3), dtype=np.float32),
                   gt_labels=np.zeros(3, dtype=np.int32))


# ---------------------------------------------------------------------------
# z-buffer correspondences


def brute_force_correspondences(cameras, cloud):
    """Exhaustive per-pixel minimum-depth scan, one point at a time."""
    best = {}
    for k, cam in enumerate(cameras):
        for i, pos in enumerate(cloud.positions):
            hit = project_point(cam, pos)
            if hit is None:
                continue
            u, v, depth = hit
            key = (k, v, u)
            if key not in best or (depth, i) < (best[key][1], best[key][0]):
                best[key] = (i, depth)
    entries = sorted((k, v, u, i, d) for (k, v, u), (i, d) in best.items())
    return [(i, k, u, v, d) for (k, v, u, i, d) in entries]


def test_two_points_one_pixel_nearest_wins():
    cam = identity_camera(fx=10.0, fy=10.0, cx=15.5, cy=15.5)
    cloud = PointCloud(np.array([[0.0, 0.0, 5.0], [0.0, 0.0, 2.0]],
                                dtype=np.float32))
    corr = build_correspondences([cam], cloud)
    assert corr.count == 1
    assert corr.point_index[0] == 1
    assert corr.depth[0] == pytest.approx(2.0)


def test_depth_tie_goes_to_lowest_point_index():
    cam = identity_camera(fx=10.0, fy=10.0, cx=15.5, cy=15.5)
    cloud = PointCloud(np.array([[0.0, 0.0, 3.0], [0.0, 0.0, 3.0]],
                                dtype=np.float32))
    corr = build_correspondences([cam], cloud)
    assert corr.count == 1
    assert corr.point_index[0] == 0


def test_matches_brute_force_on_random_cloud(rng):
    cameras = [ring_camera((6.0, 0.0, 2.5), (0.0, 0.0, 0.0)),
               ring_camera((-5.0, 3.0, 2.0), (0.0, 0.0, 0.0)),
               ring_camera((0.0, -6.0, 1.0), (0.0, 0.0, 0.5)),
               ring_camera((2.0, 6.0, 4.0), (0.0, 0.0, 0.0))]
    cloud = PointCloud(rng.uniform(-3, 3, size=(500, 3)).astype(np.float32))
    corr = build_correspondences(cameras, cloud)
    expected = brute_force_correspondences(cameras, cloud)
    got = list(zip(corr.point_index, corr.camera_index, corr.u, corr.v, corr.depth))
    assert got == [(i, k, u, v, pytest.approx(d)) for i, k, u, v, d in expected]


def test_entries_are_canonically_ordered(small_scene):
    corr = build_correspondences(small_scene.cameras, small_scene.cloud)
    keys = np.stack([corr.camera_index, corr.v, corr.u])
    assert np.all(np.lexsort((corr.u, corr.v, corr.camera_index))
                  == np.arange(corr.count))
    # No duplicate (camera, v, u) cells.
    flat = (keys[0] * 10**8 + keys[1] * 10**4 + keys[2])
    assert len(np.unique(flat)) == corr.count


def test_first_entry_is_each_points_lowest_camera(small_scene):
    corr = build_correspondences(small_scene.cameras, small_scene.cloud)
    lowest = {}
    for e, (point, camera) in enumerate(zip(corr.point_index, corr.camera_index)):
        if point not in lowest or camera < corr.camera_index[lowest[point]]:
            lowest[point] = e
    assert corr.first_entry.tolist() == [lowest[p] for p in sorted(lowest)]
    assert corr.first_entry is corr.first_entry
    assert not corr.first_entry.flags.writeable
    assert len(CorrespondenceSet().first_entry) == 0


def test_reprojection_identity(small_scene):
    corr = build_correspondences(small_scene.cameras, small_scene.cloud)
    entries = zip(corr.point_index, corr.camera_index, corr.u, corr.v, corr.depth)
    for i, k, u, v, depth in list(entries)[::37]:
        redo = project_point(small_scene.cameras[k],
                             small_scene.cloud.positions[i])
        assert redo is not None
        assert redo[0] == u and redo[1] == v
        assert np.isclose(redo[2], depth)


def test_removing_nonwinner_preserves_entries():
    cam = identity_camera(fx=10.0, fy=10.0, cx=15.5, cy=15.5)
    positions = np.array([[0.0, 0.0, 2.0], [0.0, 0.0, 5.0], [0.5, 0.5, 2.0]],
                         dtype=np.float32)
    full = build_correspondences([cam], PointCloud(positions))
    # Drop the occluded point (index 1): every surviving entry is unchanged.
    reduced = build_correspondences([cam], PointCloud(positions[[0, 2]]))
    assert full.count == reduced.count
    assert np.array_equal(full.u, reduced.u)
    assert np.array_equal(full.v, reduced.v)
    assert np.allclose(full.depth, reduced.depth)


def test_empty_view_allowed():
    cam = identity_camera()
    behind = PointCloud(np.array([[0.0, 0.0, -2.0]], dtype=np.float32))
    corr = build_correspondences([cam], behind)
    assert corr.count == 0
    assert isinstance(corr, CorrespondenceSet)


def test_no_cameras_rejected(small_scene):
    with pytest.raises(ValidationError, match="camera"):
        build_correspondences([], small_scene.cloud)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 60))
def test_oracle_equivalence_property(seed, n_points):
    rng = np.random.default_rng(seed)
    cameras = [ring_camera((4.0, 1.0, 2.0), (0.0, 0.0, 0.0), width=16,
                           height=16, focal=12.0),
               ring_camera((-3.0, -3.0, 1.5), (0.0, 0.0, 0.0), width=16,
                           height=16, focal=12.0)]
    cloud = PointCloud(rng.uniform(-2, 2, size=(n_points, 3)).astype(np.float32))
    corr = build_correspondences(cameras, cloud)
    expected = brute_force_correspondences(cameras, cloud)
    got = list(zip(corr.point_index, corr.camera_index, corr.u, corr.v))
    assert got == [(i, k, u, v) for i, k, u, v, _ in expected]
