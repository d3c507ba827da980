"""Pinhole projection and occlusion-aware pixel-point correspondences.

World-to-camera convention: x_cam = R @ p + t with camera +Z forward,
+X right, +Y down.  A point lands on pixel column u = fx*X/Z + cx and
row v = fy*Y/Z + cy, rounded to the nearest integer pixel center.
Occlusion is decided per pixel cell by a z-buffer: the visible point of
a cell is the one with minimal camera depth.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import ValidationError

# Points closer than this to the camera plane are treated as invisible.
DEPTH_MIN = 1e-4

_ROTATION_TOL = 1e-9


@dataclass(frozen=True)
class CameraModel:
    """Pinhole intrinsics plus a rigid world-to-camera transform."""

    fx: float
    fy: float
    cx: float
    cy: float
    rotation: np.ndarray  # (3, 3) world-to-camera
    translation: np.ndarray  # (3,)
    width: int
    height: int

    def __post_init__(self):
        rot = np.asarray(self.rotation, dtype=np.float64)
        trans = np.asarray(self.translation, dtype=np.float64)
        if rot.shape != (3, 3):
            raise ValidationError(f"rotation must be 3x3, got {rot.shape}")
        if trans.shape != (3,):
            raise ValidationError(f"translation must be a 3-vector, got {trans.shape}")
        err = np.max(np.abs(rot.T @ rot - np.eye(3)))
        if err >= _ROTATION_TOL:
            raise ValidationError(f"rotation not orthonormal: max |R^T R - I| = {err:g}")
        if np.linalg.det(rot) <= 0:
            raise ValidationError("rotation must have determinant +1")
        if not (self.fx > 0 and self.fy > 0):
            raise ValidationError(f"focal lengths must be positive, got fx={self.fx}, fy={self.fy}")
        if self.width < 1 or self.height < 1:
            raise ValidationError(f"image size must be >= 1, got {self.width}x{self.height}")
        rot.setflags(write=False)
        trans.setflags(write=False)
        object.__setattr__(self, "rotation", rot)
        object.__setattr__(self, "translation", trans)


def look_at(position, target, up=(0.0, 0.0, 1.0)) -> tuple[np.ndarray, np.ndarray]:
    """Rotation and translation of a camera at `position` looking at `target`.

    Returns (R, t) such that x_cam = R @ p + t, with the camera +Z axis
    pointing from position to target and +Y pointing downward in world
    terms (right-handed, determinant +1).
    """
    position = np.asarray(position, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    up = np.asarray(up, dtype=np.float64)
    forward = target - position
    norm = np.linalg.norm(forward)
    if norm < 1e-12:
        raise ValidationError("camera position coincides with target")
    forward = forward / norm
    right = np.cross(forward, up)
    if np.linalg.norm(right) < 1e-9:
        # Looking straight along `up`; pick an arbitrary horizontal right axis.
        right = np.cross(forward, np.array([1.0, 0.0, 0.0]))
    right = right / np.linalg.norm(right)
    down = np.cross(forward, right)
    down = down / np.linalg.norm(down)
    rot = np.stack([right, down, forward])
    trans = -rot @ position
    return rot, trans


def project_points(camera: CameraModel, positions: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized projection of an (N, 3) array.

    Returns (uv, depth, valid): uv is (N, 2) int64 (0 where invalid),
    depth is (N,) float64, valid is the visibility mask.  Visibility is
    decided on the float pixel coordinates, so a non-finite or far
    off-image projection never reaches the integer cast.
    """
    pts = np.asarray(positions, dtype=np.float64)
    cam_pts = pts @ camera.rotation.T + camera.translation
    z = cam_pts[:, 2]
    valid = z > DEPTH_MIN
    zsafe = np.where(valid, z, 1.0)
    u = np.floor(camera.fx * cam_pts[:, 0] / zsafe + camera.cx + 0.5)
    v = np.floor(camera.fy * cam_pts[:, 1] / zsafe + camera.cy + 0.5)
    valid &= (u >= 0) & (u < camera.width) & (v >= 0) & (v < camera.height)
    uv = np.where(valid[:, None], np.stack([u, v], axis=1), 0.0).astype(np.int64)
    return uv, z, valid


@dataclass
class PointCloud:
    """World-space points with optional class and instance annotations."""

    positions: np.ndarray  # (N, 3) float32
    gt_labels: Optional[np.ndarray] = None  # (N,) int32 class ids
    object_ids: Optional[np.ndarray] = None  # (N,) int32 instance ids

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=np.float32)
        if self.positions.ndim != 2 or self.positions.shape[1] != 3:
            raise ValidationError(f"positions must be (N, 3), got {self.positions.shape}")
        if len(self.positions) < 1:
            raise ValidationError("point cloud must contain at least one point")
        for name in ("gt_labels", "object_ids"):
            arr = getattr(self, name)
            if arr is not None:
                arr = np.asarray(arr, dtype=np.int32)
                if arr.shape != (len(self.positions),):
                    raise ValidationError(f"{name} must be (N,), got {arr.shape}")
                setattr(self, name, arr)

    def __len__(self) -> int:
        return len(self.positions)


@dataclass
class CorrespondenceSet:
    """Visible (point, camera, pixel, depth) pairs in canonical order.

    Canonical order is (camera_index, v, u) ascending, so the result is
    independent of per-camera evaluation order.  At most one entry exists
    per (camera, pixel) cell.
    """

    point_index: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    camera_index: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    u: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    v: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    depth: np.ndarray = field(default_factory=lambda: np.empty(0, np.float64))

    @property
    def count(self) -> int:
        return len(self.point_index)

    @functools.cached_property
    def first_entry(self) -> np.ndarray:
        """Each point's lowest-camera entry, by point: a point has at most
        one entry per camera and entries come in camera order, so it is the
        point's first.  Read-only."""
        first = np.unique(self.point_index, return_index=True)[1]
        first.setflags(write=False)
        return first

    def camera_slice(self, camera: int) -> np.ndarray:
        """Boolean mask selecting one camera's entries."""
        return self.camera_index == camera


def build_correspondences(cameras: Sequence[CameraModel],
                          cloud: PointCloud) -> CorrespondenceSet:
    """Z-buffered correspondences between a cloud and a set of cameras.

    For every (camera, pixel) cell touched by at least one visible point,
    the entry is the point with minimal depth in that cell (depth ties go
    to the lowest point index).
    """
    if len(cameras) < 1:
        raise ValidationError("need at least one camera")
    pts_all = []
    cams_all = []
    us_all = []
    vs_all = []
    ds_all = []
    for k, cam in enumerate(cameras):
        uv, z, valid = project_points(cam, cloud.positions)
        idx = np.nonzero(valid)[0]
        if len(idx) == 0:
            continue
        u = uv[idx, 0]
        v = uv[idx, 1]
        d = z[idx]
        cell = v * cam.width + u
        # Sort by cell, then depth, then point index; first per cell wins.
        order = np.lexsort((idx, d, cell))
        cell_sorted = cell[order]
        first = np.ones(len(order), dtype=bool)
        first[1:] = cell_sorted[1:] != cell_sorted[:-1]
        win = order[first]
        pts_all.append(idx[win])
        cams_all.append(np.full(len(win), k, dtype=np.int64))
        us_all.append(u[win])
        vs_all.append(v[win])
        ds_all.append(d[win])
    if not pts_all:
        return CorrespondenceSet()
    # Cameras come in index order and each one's winners in cell order
    # v * width + u, so the concatenation is already canonical.
    return CorrespondenceSet(*(np.concatenate(parts) for parts in
                               (pts_all, cams_all, us_all, vs_all, ds_all)))
