"""Synthetic labeled scenes and the mock CLIP/SAM oracles.

A scene is a room-sized point cloud (axis-aligned boxes resting on a
ground plane) observed by a ring of pinhole cameras.  Three oracles
replace the foundation models with controllable-noise stand-ins:

* ``mock_clip_scores``  — per-pixel class scores with block-correlated
  label-flip noise (flip rate ``eps``, correlation block size ``block``);
* ``mock_sam_masks``    — over-segmentation masks, class-pure at zero
  boundary jitter and connected unless an object region renders in more
  pieces than it has fragments;
* ``mock_sam_features`` — per-instance unit anchor embeddings with
  gaussian within-instance noise.

``mock_text_embeddings`` supplies the frozen per-class unit vectors the
labeler scores against.  Everything is a pure function of (config,
seed), so downstream claims can be checked against known ground truth.

Everything here needs numpy alone.  Background masks come from a numpy
4-connected component labeller; the network descriptors
(``point_descriptors``, ``pixel_descriptors``) take their neighbourhood
statistics from an exact grid k-NN and a 3x3 box mean.  Each equals its
scipy counterpart (``ndimage.label``, ``cKDTree.query``,
``ndimage.uniform_filter``) to the bit, and the tests check it so.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from .errors import PlacementError, ValidationError
from .geometry import (CameraModel, CorrespondenceSet, PointCloud,
                       build_correspondences, look_at)
from .seeding import (TAG_DESCRIPTOR, TAG_EMBEDDINGS, TAG_FEATURES,
                      TAG_MASKS, TAG_PALETTE, TAG_SCENE, TAG_SCORES,
                      derive_rng)

logger = logging.getLogger(__name__)

BACKGROUND_CLASS = 0
BACKGROUND_INSTANCE = 0

# Appearance channels rendered per instance (see instance_palette).
APPEARANCE_DIM = 6
_PALETTE_SALT = 0x5EED
_PALETTE_MIN_DIST = 0.5
_JITTER_CELL = 8
# Largest room side.  Past about 1e16 a box corner plus a box size rounds
# back to the corner, every face has zero area and sampling fails; at 1e6
# float32 point positions still sit within 0.0625 of their draws.
MAX_ROOM_SIZE = 1e6
# Largest feat_sigma.  Past about 1e153 a noisy feature's norm overflows
# and the unit features read 0; at 1e6 the noise swamps the unit anchors.
MAX_FEAT_SIGMA = 1e6
# Largest descriptor_noise.  Past about 3e37 the float32 descriptors
# overflow; far below that (about 1e2 at the default lr) training already
# ends in a numerical abort, and at 1e6 the noise swamps the unit palette.
MAX_DESCRIPTOR_NOISE = 1e6


# ---------------------------------------------------------------------------
# configs and containers


@dataclass(frozen=True)
class SceneConfig:
    """Geometry of the synthetic room and its observers.

    room_size is at most MAX_ROOM_SIZE (1e6), so that every box face
    keeps a non-zero area.
    """

    room_size: float = 8.0
    object_count: int = 12
    points_per_object: int = 600
    background_points: int = 2400
    num_classes: int = 8
    camera_count: int = 4
    image_width: int = 64
    image_height: int = 64
    focal: float = 48.0
    min_box_size: float = 0.8
    max_box_size: float = 2.2
    placement_margin: float = 0.25
    max_place_attempts: int = 1000

    def validate(self):
        if self.num_classes < 2:
            raise ValidationError("need at least 2 classes (background + 1)")
        if self.object_count < 1 or self.points_per_object < 1:
            raise ValidationError("object_count and points_per_object must be >= 1")
        if self.background_points < 1:
            raise ValidationError("background_points must be >= 1")
        if self.camera_count < 1:
            raise ValidationError("camera_count must be >= 1")
        if not (0 < self.min_box_size <= self.max_box_size < self.room_size):
            raise ValidationError(
                "box sizes must satisfy 0 < min_box_size <= max_box_size < room_size, "
                f"got {self.min_box_size}, {self.max_box_size}, {self.room_size}")
        if not self.room_size <= MAX_ROOM_SIZE:
            raise ValidationError(
                f"room_size must be <= {MAX_ROOM_SIZE:g}, got {self.room_size}")
        # Every box face needs a non-zero area: the smallest side must be at
        # least one float step at the far wall, and its square must not
        # underflow.
        if not (self.min_box_size >= np.spacing(self.room_size)
                and (self.min_box_size / 2) ** 2 > 0):
            raise ValidationError(
                f"min_box_size {self.min_box_size!r} is too small for room_size "
                f"{self.room_size!r}: its box faces would have zero area")
        if not self.focal > 0:
            raise ValidationError(f"focal must be > 0, got {self.focal}")
        if not self.placement_margin >= 0:
            raise ValidationError(
                f"placement_margin must be >= 0, got {self.placement_margin}")


@dataclass(frozen=True)
class ClipNoiseConfig:
    """Label-flip noise of the mock CLIP scorer."""

    eps: float = 0.4
    block: int = 4

    def validate(self):
        if not 0.0 <= self.eps <= 1.0:
            raise ValidationError(f"eps must be in [0, 1], got {self.eps}")
        if self.block < 1:
            raise ValidationError(f"block must be >= 1, got {self.block}")


@dataclass(frozen=True)
class MaskFragConfig:
    """Over-segmentation behaviour of the mock SAM masker."""

    splits_per_object: int = 3
    boundary_jitter_px: int = 1

    def validate(self):
        if self.splits_per_object < 1:
            raise ValidationError("splits_per_object must be >= 1")
        if self.boundary_jitter_px < 0:
            raise ValidationError("boundary_jitter_px must be >= 0")


@dataclass
class Scene:
    """A labeled point cloud, its cameras, and bookkeeping for the oracles."""

    cloud: PointCloud
    cameras: list
    num_classes: int
    object_count: int
    seed: int
    room_size: float
    _corr: Optional[CorrespondenceSet] = field(default=None, repr=False, compare=False)
    # point_appearance per noise sigma, read-only.
    _appearance: Dict[float, np.ndarray] = field(default_factory=dict, init=False,
                                                 repr=False, compare=False)

    def correspondences(self) -> CorrespondenceSet:
        if self._corr is None:
            self._corr = build_correspondences(self.cameras, self.cloud)
        return self._corr

    def validate(self):
        cloud = self.cloud
        if cloud.gt_labels is None or cloud.object_ids is None:
            raise ValidationError("scene cloud must carry gt_labels and object_ids")
        if cloud.gt_labels.min() < 0 or cloud.gt_labels.max() >= self.num_classes:
            raise ValidationError("gt_labels outside [0, num_classes)")
        if cloud.object_ids.min() < 0 or cloud.object_ids.max() > self.object_count:
            raise ValidationError("object_ids outside [0, object_count]")
        # Every instance carries exactly one class.
        for inst in np.unique(cloud.object_ids):
            classes = np.unique(cloud.gt_labels[cloud.object_ids == inst])
            if len(classes) != 1:
                raise ValidationError(f"instance {inst} has inconsistent classes {classes}")
        blind = self.blind_camera()
        if blind is not None:
            raise ValidationError(f"camera {blind} sees no point")

    def blind_camera(self) -> Optional[int]:
        """Index of the first camera that sees no point, or None."""
        seen = np.bincount(self.correspondences().camera_index,
                           minlength=len(self.cameras))
        return int(np.argmin(seen)) if (seen == 0).any() else None


@dataclass
class ViewRender:
    """Per-pixel ground-truth rasters of one camera view."""

    label: np.ndarray  # (H, W) int32; background class at empty pixels
    object_id: np.ndarray  # (H, W) int32; background instance at empty pixels
    point_index: np.ndarray  # (H, W) int64; -1 at empty pixels
    depth: np.ndarray  # (H, W) float64; 0 at empty pixels


@dataclass
class ScoreMap:
    """Per-pixel class scores of one view (mock CLIP output)."""

    scores: np.ndarray  # (H, W, L) float32

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=np.float32)
        if self.scores.ndim != 3:
            raise ValidationError(f"scores must be (H, W, L), got {self.scores.shape}")
        if not np.isfinite(self.scores).all():
            raise ValidationError("scores must be finite")


@dataclass
class MaskMap:
    """Per-pixel mask ids of one view (mock SAM output), contiguous from 0."""

    mask_ids: np.ndarray  # (H, W) int32

    def __post_init__(self):
        self.mask_ids = np.asarray(self.mask_ids, dtype=np.int32)
        if self.mask_ids.ndim != 2:
            raise ValidationError(f"mask_ids must be (H, W), got {self.mask_ids.shape}")
        if self.mask_ids.min() < 0:
            raise ValidationError("mask ids must be non-negative")
        present = np.unique(self.mask_ids)
        if not np.array_equal(present, np.arange(len(present))):
            raise ValidationError("mask ids must be contiguous from 0")


@dataclass
class FeatureMap:
    """Per-pixel unit embeddings of one view (mock SAM feature space)."""

    features: np.ndarray  # (H, W, D) float32

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float32)
        if self.features.ndim != 3:
            raise ValidationError(f"features must be (H, W, D), got {self.features.shape}")
        if not np.isfinite(self.features).all():
            raise ValidationError("features must be finite")


# ---------------------------------------------------------------------------
# scene generation


def _place_boxes(cfg: SceneConfig, rng) -> list:
    """Sample non-overlapping axis-aligned boxes resting on the floor."""
    boxes = []
    for index in range(cfg.object_count):
        for _ in range(cfg.max_place_attempts):
            sx = rng.uniform(cfg.min_box_size, cfg.max_box_size)
            sy = rng.uniform(cfg.min_box_size, cfg.max_box_size)
            sz = rng.uniform(cfg.min_box_size, cfg.max_box_size)
            x0 = rng.uniform(0.0, cfg.room_size - sx)
            y0 = rng.uniform(0.0, cfg.room_size - sy)
            x1, y1 = x0 + sx, y0 + sy
            gap = cfg.placement_margin
            ok = all(x0 >= bx1 + gap or bx0 >= x1 + gap or
                     y0 >= by1 + gap or by0 >= y1 + gap
                     for bx0, by0, bx1, by1, _ in boxes)
            if ok:
                boxes.append((x0, y0, x1, y1, sz))
                break
        else:
            raise PlacementError(
                f"could not place object {index} after {cfg.max_place_attempts} attempts")
    return boxes


# Box layouts tried before generate_scene gives up.  Layout 0 draws from
# the stream (seed, TAG_SCENE); after a failed placement, layout r starts
# over from the stream (seed, TAG_SCENE, r).
_LAYOUTS = 10


def _box_layout(cfg: SceneConfig, seed: int):
    """(generator, boxes) of the first layout that places every object.

    The scene's later draws continue the generator of that layout.
    """
    for layout in range(_LAYOUTS):
        rng = derive_rng(seed, TAG_SCENE, *((layout,) if layout else ()))
        try:
            return rng, _place_boxes(cfg, rng)
        except PlacementError as exc:
            error = exc
    raise PlacementError(f"{error} in each of {_LAYOUTS} layouts")


def _sample_box_surface(box, count, rng) -> np.ndarray:
    """Uniform area-weighted samples on the five exposed faces of a box."""
    x0, y0, x1, y1, sz = box
    sx, sy = x1 - x0, y1 - y0
    areas = np.array([sx * sy, sx * sz, sx * sz, sy * sz, sy * sz])
    face = rng.choice(5, size=count, p=areas / areas.sum())
    a = rng.uniform(size=count)
    b = rng.uniform(size=count)
    pts = np.empty((count, 3))
    top = face == 0
    pts[top] = np.stack([x0 + a[top] * sx, y0 + b[top] * sy,
                         np.full(top.sum(), sz)], axis=1)
    south = face == 1
    pts[south] = np.stack([x0 + a[south] * sx, np.full(south.sum(), y0),
                           b[south] * sz], axis=1)
    north = face == 2
    pts[north] = np.stack([x0 + a[north] * sx, np.full(north.sum(), y1),
                           b[north] * sz], axis=1)
    west = face == 3
    pts[west] = np.stack([np.full(west.sum(), x0), y0 + a[west] * sy,
                          b[west] * sz], axis=1)
    east = face == 4
    pts[east] = np.stack([np.full(east.sum(), x1), y0 + a[east] * sy,
                          b[east] * sz], axis=1)
    return pts


def generate_scene(cfg: SceneConfig, seed: int) -> Scene:
    """Deterministically build a scene from a config and a seed.

    Object classes are assigned by cycling a shuffled permutation of the
    non-background classes, so whenever object_count >= num_classes - 1
    every class is present in the ground truth.
    """
    cfg.validate()
    rng, boxes = _box_layout(cfg, seed)

    perm = rng.permutation(cfg.num_classes - 1) + 1

    positions = [np.stack([rng.uniform(0, cfg.room_size, cfg.background_points),
                           rng.uniform(0, cfg.room_size, cfg.background_points),
                           np.zeros(cfg.background_points)], axis=1)]
    labels = [np.full(cfg.background_points, BACKGROUND_CLASS, dtype=np.int32)]
    instances = [np.full(cfg.background_points, BACKGROUND_INSTANCE, dtype=np.int32)]
    for i, box in enumerate(boxes):
        positions.append(_sample_box_surface(box, cfg.points_per_object, rng))
        labels.append(np.full(cfg.points_per_object, perm[i % len(perm)], dtype=np.int32))
        instances.append(np.full(cfg.points_per_object, i + 1, dtype=np.int32))
    cloud = PointCloud(np.concatenate(positions).astype(np.float32),
                       np.concatenate(labels), np.concatenate(instances))

    center = np.array([cfg.room_size / 2, cfg.room_size / 2, 0.5])
    radius = 0.85 * cfg.room_size
    height = 0.65 * cfg.room_size
    cameras = []
    for k in range(cfg.camera_count):
        angle = 2.0 * np.pi * k / cfg.camera_count
        position = center + np.array([radius * np.cos(angle), radius * np.sin(angle),
                                      height - center[2]])
        rot, trans = look_at(position, center)
        cameras.append(CameraModel(cfg.focal, cfg.focal,
                                   cfg.image_width / 2.0, cfg.image_height / 2.0,
                                   rot, trans, cfg.image_width, cfg.image_height))

    scene = Scene(cloud, cameras, cfg.num_classes, cfg.object_count, int(seed),
                  cfg.room_size)
    blind = scene.blind_camera()
    if blind is not None:
        raise ValidationError(f"camera {blind} sees no point; check focal")
    scene.validate()
    return scene


def render_view(scene: Scene, camera_index: int) -> ViewRender:
    """Rasterize ground-truth labels/instances/depth for one camera."""
    if not 0 <= camera_index < len(scene.cameras):
        raise ValidationError(f"camera_index {camera_index} out of range")
    corr = scene.correspondences()
    cam = scene.cameras[camera_index]
    h, w = cam.height, cam.width
    label = np.full((h, w), BACKGROUND_CLASS, dtype=np.int32)
    obj = np.full((h, w), BACKGROUND_INSTANCE, dtype=np.int32)
    pidx = np.full((h, w), -1, dtype=np.int64)
    depth = np.zeros((h, w), dtype=np.float64)
    sel = corr.camera_slice(camera_index)
    u, v, pi = corr.u[sel], corr.v[sel], corr.point_index[sel]
    label[v, u] = scene.cloud.gt_labels[pi]
    obj[v, u] = scene.cloud.object_ids[pi]
    pidx[v, u] = pi
    depth[v, u] = corr.depth[sel]
    return ViewRender(label, obj, pidx, depth)


def gt_pixel_stack(scene: Scene) -> np.ndarray:
    """(V, H, W) ground-truth class label of every pixel of every view."""
    return np.stack([render_view(scene, k).label for k in range(len(scene.cameras))])


# ---------------------------------------------------------------------------
# mock CLIP scores


def _upsample_blocks(grid: np.ndarray, block: int, h: int, w: int) -> np.ndarray:
    return np.repeat(np.repeat(grid, block, axis=0), block, axis=1)[:h, :w]


def mock_clip_scores(scene: Scene, camera_index: int, noise: ClipNoiseConfig,
                     seed: int) -> ScoreMap:
    """Noisy per-pixel class scores for one view.

    Each pixel backed by a visible point scores its ground-truth class 1
    with probability 1 - eps; with probability eps a uniformly random
    wrong class scores 1 instead.  Every other class scores 0, so only
    the argmax carries information.  Flip decisions are shared inside
    block x block pixel cells (block=1 is i.i.d.).  Pixels with no
    visible point score the background class.
    """
    noise.validate()
    render = render_view(scene, camera_index)
    h, w = render.label.shape
    big_l = scene.num_classes
    rng = derive_rng(seed, TAG_SCORES, camera_index)
    hb = -(-h // noise.block)
    wb = -(-w // noise.block)
    flip_blocks = rng.random((hb, wb)) < noise.eps
    if big_l > 1:
        offset_blocks = rng.integers(1, big_l, size=(hb, wb))
    else:
        offset_blocks = np.zeros((hb, wb), dtype=np.int64)
    flip = _upsample_blocks(flip_blocks, noise.block, h, w)
    offset = _upsample_blocks(offset_blocks, noise.block, h, w)
    visible = render.point_index >= 0
    labels = np.where(flip & visible, (render.label + offset) % big_l, render.label)
    scores = np.zeros((h, w, big_l), dtype=np.float32)
    flat = scores.reshape(-1, big_l)
    flat[np.arange(h * w), labels.ravel()] = 1.0
    return ScoreMap(scores)


# ---------------------------------------------------------------------------
# mock SAM masks

_BIG = np.iinfo(np.int32).max


def _label_components(mask: np.ndarray) -> Tuple[np.ndarray, int]:
    """(labels, count) of the 4-connected components of a boolean mask.

    Components are numbered from 1 in raster order of their first pixel,
    as scipy.ndimage.label numbers them; pixels off the mask read 0.
    Each pixel points at the smallest flat index known to share its
    component.  A round hooks every root to the smallest root it touches
    along an edge, then follows pointers until each points at a root, so
    the roots of a component at least halve per round.
    """
    h, w = mask.shape
    pixel = np.arange(h * w)
    index = pixel.reshape(h, w)
    across = mask[:, :-1] & mask[:, 1:]
    down = mask[:-1, :] & mask[1:, :]
    a = np.concatenate([index[:, :-1][across], index[:-1, :][down]])
    b = np.concatenate([index[:, 1:][across], index[1:, :][down]])
    root = pixel.copy()
    while True:
        ra, rb = root[a], root[b]
        apart = ra != rb
        if not apart.any():
            break
        ra, rb = ra[apart], rb[apart]
        np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up
    flat = mask.ravel()
    first = flat & (root == pixel)
    number = np.cumsum(first, dtype=np.int32)
    labels = np.where(flat, number[root], 0).reshape(h, w)
    return labels, int(first.sum())


def _grow(mask: np.ndarray, seeds: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Synchronous 4-connected BFS from seeds inside each region of a stack.

    mask is an (R, h, w) stack of regions and seeds an (R, S) array of
    flat pixel indices into each h x w slice, -1 past a region's count.
    Returns (rounds, owner), both (R, h, w) int32: the round at which
    each pixel is reached and the index of the seed that reaches it
    first, equidistant ties going to the lowest index.  Pixels no seed
    reaches, off-mask pixels among them, read -1 in both.  Paths visit
    mask pixels only, so a crop holding the whole region gives the same
    result; over a full rectangle the rounds are city-block distances.
    """
    owner = np.full(mask.shape, _BIG, dtype=np.int32)
    region, index = np.nonzero(seeds >= 0)
    owner.reshape(len(mask), -1)[region, seeds[region, index]] = index
    rounds = np.where(owner < _BIG, 0, -1).astype(np.int32)
    unreached = mask & (owner == _BIG)
    best = np.empty_like(owner)
    step = 0
    while True:
        best.fill(_BIG)
        np.minimum(best[..., 1:, :], owner[..., :-1, :], out=best[..., 1:, :])
        np.minimum(best[..., :-1, :], owner[..., 1:, :], out=best[..., :-1, :])
        np.minimum(best[..., :, 1:], owner[..., :, :-1], out=best[..., :, 1:])
        np.minimum(best[..., :, :-1], owner[..., :, 1:], out=best[..., :, :-1])
        newly = unreached & (best < _BIG)
        if not newly.any():
            break
        step += 1
        np.copyto(owner, best, where=newly)
        np.copyto(rounds, step, where=newly)
        unreached ^= newly
    owner[owner == _BIG] = -1
    return rounds, owner


def _farthest_seeds(mask: np.ndarray, counts: np.ndarray, rng) -> np.ndarray:
    """Farthest-point seeds of each region of an (R, h, w) stack.

    Region r gets counts[r] seeds.  Its first seed is drawn from `rng`,
    region by region in stack order; each further seed is the first pixel
    in raster order with the most BFS rounds from the seeds so far.  Mask
    pixels no seed reaches count as farthest, so each separate piece of a
    region gets a seed while seeds remain.  Returns (R, max(counts)) flat
    pixel indices, -1 past a region's count.
    """
    flat = mask.reshape(len(mask), -1)
    seeds = np.full((len(mask), counts.max()), -1, dtype=np.int64)
    for r, row in enumerate(flat):
        inside = np.flatnonzero(row)
        seeds[r, 0] = inside[int(rng.integers(len(inside)))]
    for j in range(1, seeds.shape[1]):
        active = np.flatnonzero(counts > j)
        rounds, _ = _grow(mask[active], seeds[active, :j])
        # Unreached mask pixels are farthest; off-mask pixels never win.
        rounds[mask[active] & (rounds < 0)] = _BIG
        seeds[active, j] = np.argmax(rounds.reshape(len(active), -1), axis=1)
    return seeds


def _split_objects(object_id: np.ndarray, splits: int, rng) -> np.ndarray:
    """Split each object region of an (H, W) instance raster into
    min(splits, pixel count) fragments.

    Returns (H, W) int32 fragment ids, numbered from 0 object by object
    in id order, and -1 on the background.  The R regions are cropped to
    their bounding boxes and split together as one (R, h_max, w_max)
    stack padded off-mask, so each BFS round holds R * h_max * w_max <=
    R * H * W pixels.
    """
    frags = np.full(object_id.shape, -1, dtype=np.int32)
    boxes = []
    for obj in np.unique(object_id):
        if obj == BACKGROUND_INSTANCE:
            continue
        ys, xs = np.nonzero(object_id == obj)
        rows, cols = slice(ys.min(), ys.max() + 1), slice(xs.min(), xs.max() + 1)
        boxes.append((rows, cols, object_id[rows, cols] == obj))
    if not boxes:
        return frags
    h_max, w_max = np.max([crop.shape for *_, crop in boxes], axis=0)
    region = np.zeros((len(boxes), h_max, w_max), dtype=bool)
    for r, (*_, crop) in enumerate(boxes):
        region[r, :crop.shape[0], :crop.shape[1]] = crop
    counts = np.minimum(splits, region.sum(axis=(1, 2)))
    seeds = _farthest_seeds(region, counts, rng)
    _, lab = _grow(region, seeds)
    left = region & (lab < 0)
    stray = np.flatnonzero(left.any(axis=(1, 2)))
    if len(stray):
        # A piece no seed reaches joins the nearest seed in city-block distance.
        _, near = _grow(np.ones_like(region[stray]), seeds[stray])
        lab[stray] = np.where(left[stray], near, lab[stray])
    first_ids = np.cumsum(counts) - counts
    for r, (rows, cols, crop) in enumerate(boxes):
        h, w = crop.shape
        frags[rows, cols][crop] = first_ids[r] + lab[r, :h, :w][crop]
    return frags


def mock_sam_masks(scene: Scene, camera_index: int, frag: MaskFragConfig,
                   seed: int) -> MaskMap:
    """Over-segmentation of one view (mock SAM output).

    The background contributes one mask per 4-connected component; each
    rendered object region is split into splits_per_object fragments
    (fewer if it has fewer pixels), grown by BFS from farthest-point
    seeds.  At boundary_jitter_px 0 every fragment is class-pure, and
    connected unless its region renders in more 4-connected pieces than
    splits_per_object; then each unseeded piece joins its nearest seed in
    city-block distance.  boundary_jitter_px > 0 displaces mask
    boundaries by up to that many pixels via a coarse integer offset
    field.
    """
    frag.validate()
    render = render_view(scene, camera_index)
    rng = derive_rng(seed, TAG_MASKS, camera_index)
    comps, count = _label_components(render.object_id == BACKGROUND_INSTANCE)
    frags = _split_objects(render.object_id, frag.splits_per_object, rng)
    # Background components first, then each object's fragments.
    mask_ids = np.where(frags < 0, comps - 1, count + frags)
    if frag.boundary_jitter_px > 0:
        h, w = mask_ids.shape
        j = frag.boundary_jitter_px
        hb = -(-h // _JITTER_CELL)
        wb = -(-w // _JITTER_CELL)
        off_y = _upsample_blocks(rng.integers(-j, j + 1, (hb, wb)), _JITTER_CELL, h, w)
        off_x = _upsample_blocks(rng.integers(-j, j + 1, (hb, wb)), _JITTER_CELL, h, w)
        yy, xx = np.mgrid[0:h, 0:w]
        mask_ids = mask_ids[np.clip(yy + off_y, 0, h - 1), np.clip(xx + off_x, 0, w - 1)]
        present = np.unique(mask_ids)
        mask_ids = np.searchsorted(present, mask_ids).astype(np.int32)
    return MaskMap(mask_ids)


def mask_purity(masks: MaskMap, labels: np.ndarray) -> float:
    """Fraction of pixels whose label matches their mask's plurality label."""
    flat_mask = masks.mask_ids.ravel()
    flat_label = labels.ravel()
    pure = 0
    for m in range(int(flat_mask.max()) + 1):
        votes = flat_label[flat_mask == m]
        pure += int(np.bincount(votes).max())
    return pure / flat_label.size


# ---------------------------------------------------------------------------
# mock SAM features and text embeddings


def instance_anchors(scene: Scene, feat_dim: int, seed: int) -> np.ndarray:
    """Fixed unit anchor vector per instance (shared across all views)."""
    if feat_dim < 2:
        raise ValidationError(f"feature dim must be >= 2, got {feat_dim}")
    rng = derive_rng(seed, TAG_FEATURES, 0)
    anchors = rng.standard_normal((scene.object_count + 1, feat_dim))
    anchors /= np.linalg.norm(anchors, axis=1, keepdims=True)
    return anchors


def mock_sam_features(scene: Scene, camera_index: int, feat_dim: int,
                      within_noise_sigma: float, seed: int) -> FeatureMap:
    """Per-pixel unit embeddings clustered by object instance."""
    if within_noise_sigma < 0:
        raise ValidationError("within_noise_sigma must be >= 0")
    anchors = instance_anchors(scene, feat_dim, seed)
    render = render_view(scene, camera_index)
    rng = derive_rng(seed, TAG_FEATURES, 1 + camera_index)
    feats = anchors[render.object_id]
    if within_noise_sigma > 0:
        feats = feats + within_noise_sigma * rng.standard_normal(feats.shape)
    norms = np.maximum(np.linalg.norm(feats, axis=2, keepdims=True), 1e-12)
    return FeatureMap((feats / norms).astype(np.float32))


# Largest |cosine| between two class embeddings, and the draws allowed to reach it.
_MAX_COHERENCE = 0.3
_COHERENCE_ATTEMPTS = 1000


def mock_text_embeddings(num_classes: int, dim: int, seed: int) -> np.ndarray:
    """Random unit class embeddings (num_classes, dim) with pairwise |cosine| <= 0.3."""
    if num_classes < 1 or dim < 1:
        raise ValidationError("num_classes and dim must be >= 1")
    if dim < num_classes:
        logger.warning("embedding dim %d < class count %d; coherence target may be "
                       "infeasible", dim, num_classes)
    rng = derive_rng(seed, TAG_EMBEDDINGS)
    for _ in range(_COHERENCE_ATTEMPTS):
        vectors = rng.standard_normal((num_classes, dim))
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        gram = vectors @ vectors.T
        np.fill_diagonal(gram, 0.0)
        if np.max(np.abs(gram)) <= _MAX_COHERENCE:
            return vectors
    raise ValidationError(
        f"could not reach coherence <= {_MAX_COHERENCE} for num_classes={num_classes} "
        f"in embed_dim={dim} after {_COHERENCE_ATTEMPTS} attempts; raise embed_dim")


# ---------------------------------------------------------------------------
# appearance palette and network descriptors


@functools.lru_cache(maxsize=None)
def instance_palette(max_instance_id: int) -> np.ndarray:
    """Appearance channels per instance id, a pure function of the id.

    Row i is drawn from a stream keyed only by i and accepted when it
    keeps L2 distance >= 0.5 from all earlier rows, so palettes for
    different instance counts agree on their common prefix.
    """
    rows = []
    for i in range(max_instance_id + 1):
        rng = derive_rng(_PALETTE_SALT, TAG_PALETTE, i)
        for _ in range(1000):
            cand = rng.random(APPEARANCE_DIM)
            if all(np.linalg.norm(cand - r) >= _PALETTE_MIN_DIST for r in rows):
                rows.append(cand)
                break
        else:
            raise ValidationError(f"palette exhausted at instance {i}")
    out = np.array(rows)
    out.setflags(write=False)
    return out


def point_appearance(scene: Scene, noise_sigma: float) -> np.ndarray:
    """Per-point appearance: instance palette plus gaussian channel noise.

    Drawn once per scene and noise sigma; the read-only result is kept on
    the scene.
    """
    app = scene._appearance.get(noise_sigma)
    if app is None:
        rng = derive_rng(scene.seed, TAG_DESCRIPTOR, 0)
        app = instance_palette(scene.object_count)[scene.cloud.object_ids]
        if noise_sigma > 0:
            app = app + noise_sigma * rng.standard_normal(app.shape)
        app = app.astype(np.float32)
        app.setflags(write=False)
        scene._appearance[noise_sigma] = app
    return app


# Query-candidate slots of one k-NN block: 256 KiB per float64 array.
_KNN_BLOCK = 1 << 15


def _concat_runs(start: np.ndarray, length: np.ndarray) -> np.ndarray:
    """``start[i] + arange(length[i])`` for every run i, concatenated."""
    start, length = start.ravel(), length.ravel()
    return (np.repeat(start - np.cumsum(length) + length, length)
            + np.arange(length.sum()))


def _cell_runs(cells: np.ndarray, dims: np.ndarray, key: np.ndarray,
               reach: int) -> Tuple[np.ndarray, np.ndarray]:
    """Start and length in the sorted ``key`` of the points within `reach`
    cells of each of `cells` (C, 3): one run per (x, y) column, (C, (2r+1)^2)."""
    d = np.arange(-reach, reach + 1)
    x = cells[:, 0, None, None] + d[:, None]
    y = cells[:, 1, None, None] + d
    column = ((x * dims[1] + y) * dims[2]).reshape(len(cells), -1)
    z = cells[:, 2:]
    start = np.searchsorted(key, column + np.maximum(z - reach, 0))
    stop = np.searchsorted(key, column + np.minimum(z + reach, dims[2] - 1),
                           side="right")
    inside = ((x >= 0) & (x < dims[0]) & (y >= 0) & (y < dims[1]))
    return start, np.where(inside.reshape(len(cells), -1), stop - start, 0)


def _nearest_slots(coords: np.ndarray, index: np.ndarray, slots: np.ndarray,
                   inv: np.ndarray, queries: np.ndarray, k: int
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """d^2 and indices (Q, k) of each query's k nearest candidates, ordered
    by (d^2, index).

    Row ``inv[i]`` of `slots` holds the sorted positions of query i's
    candidates, padded with position n, whose coordinates are infinite.
    """
    d2 = 0.0
    for axis in coords:  # (dx^2 + dy^2) + dz^2, as cKDTree sums
        diff = axis[slots][inv] - axis[queries][:, None]
        d2 = d2 + diff * diff
    part = np.argpartition(d2, k - 1, axis=1)[:, :k]
    top = np.take_along_axis(d2, part, axis=1)
    idx = index[slots[inv[:, None], part]]
    # argpartition keeps any of the candidates tied at the k-th distance;
    # such rows are ranked in full.
    tie = (d2 <= top.max(axis=1, keepdims=True)).sum(axis=1) > k
    if tie.any():
        full = index[slots[inv[tie]]]
        ranked = np.lexsort((full, d2[tie]), axis=1)[:, :k]
        top[tie] = np.take_along_axis(d2[tie], ranked, axis=1)
        idx[tie] = np.take_along_axis(full, ranked, axis=1)
    ranked = np.lexsort((idx, top), axis=1)
    return (np.take_along_axis(top, ranked, axis=1),
            np.take_along_axis(idx, ranked, axis=1))


def _nearest_neighbors(pos: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """Distances and indices (N, min(k, N)) of each point's nearest points,
    itself included.

    Exact: for 1 < k <= N the arrays equal those of
    ``scipy.spatial.cKDTree(pos).query(pos, k)``.  d^2 is summed as
    (dx^2 + dy^2) + dz^2 in float64, cKDTree's order, so the square roots
    agree to the bit.  Neighbours are ordered by (d^2, index); cKDTree
    leaves the order among exact ties unspecified.

    The points are sorted into cubic cells, z fastest, so the cells of one
    (x, y) column within a z range are one run of the sorted array.  A
    query first searches the cells within reach 1 of its own.  Its k
    nearest are certain once the k-th distance is below the gap from the
    query to the nearest cell not searched; else reach 2, then 3, and a
    query still uncertain is compared with every point.
    """
    n = len(pos)
    k = min(k, n)
    lo = pos.min(axis=0)
    ext = pos.max(axis=0) - lo
    area = 2 * (ext[0] * ext[1] + ext[1] * ext[2] + ext[2] * ext[0])
    # About k/2 points per cell face of a surface, or per cell edge of a line.
    c = max(np.sqrt(area * k / (2 * n)), ext.max() * k / (2 * n))
    c = c if c > 0 else 1.0  # coincident points
    f = (pos - lo) / c
    cell = f.astype(np.int64)
    dims = cell.max(axis=0) + 1
    key = (cell[:, 0] * dims[1] + cell[:, 1]) * dims[2] + cell[:, 2]
    order = np.argsort(key, kind="stable")
    key, cell = key[order], cell[order]
    frac = f[order] - cell
    # Sorted coordinates by axis; slot n, at infinity, pads short rows.
    coords = np.append(pos[order].T, np.full((3, 1), np.inf), axis=1)
    index = np.append(order, n)
    # Rounding moves a cell coordinate by far less than this many cells.
    slack = 1e-9 * (1 + dims.max())
    dist2 = np.empty((n, k))
    nbr = np.empty((n, k), dtype=np.int64)
    todo = np.arange(n)  # sorted positions of the queries left, ascending
    for reach in (1, 2, 3, None):
        if reach is None:
            qcell = np.arange(len(todo))
            start = np.zeros((len(todo), 1), dtype=np.int64)
            length = np.full((len(todo), 1), n)
            limit = np.full(len(todo), np.inf)
        else:
            new = np.r_[True, np.diff(key[todo]) != 0]
            qcell = np.cumsum(new) - 1
            start, length = _cell_runs(cell[todo[new]], dims, key, reach)
            # No point lies past the grid's outer cells.
            cq, fq = cell[todo], frac[todo]
            below = np.where(cq > reach, fq + reach, np.inf)
            above = np.where(cq + reach < dims - 1, 1 - fq + reach, np.inf)
            gap = np.minimum(below, above).min(axis=1) - slack
            limit = np.square(np.maximum(gap, 0) * c)
        # Queries by width; a block is the next rows whose number times the
        # last (widest) one's width fits _KNN_BLOCK, and at least one row.
        width = np.maximum(length.sum(axis=1), k)[qcell]
        by = np.argsort(width, kind="stable")
        left = []
        a = 0
        while a < len(by):
            w = width[by[a:a + _KNN_BLOCK // k]]
            b = a + max(1, np.count_nonzero(np.arange(1, len(w) + 1) * w
                                            <= _KNN_BLOCK))
            rows, a = by[a:b], b
            cells, inv = np.unique(qcell[rows], return_inverse=True)
            count = length[cells].sum(axis=1)
            slots = np.full((len(cells), width[rows[-1]]), n)
            slots[np.repeat(np.arange(len(cells)), count),
                  _concat_runs(np.zeros_like(count), count)] = \
                _concat_runs(start[cells], length[cells])
            q = todo[rows]
            top, idx = _nearest_slots(coords, index, slots, inv, q, k)
            sure = top[:, -1] < limit[rows]
            left.append(q[~sure])
            dest = order[q[sure]]
            dist2[dest], nbr[dest] = top[sure], idx[sure]
        todo = np.sort(np.concatenate(left))
        if not len(todo):
            break
    return np.sqrt(dist2), nbr


def _box_mean3(x: np.ndarray) -> np.ndarray:
    """Mean of each 3x3 window over the first two axes, edges repeated.

    Bit-identical to ``scipy.ndimage.uniform_filter(x, size=(3, 3, 1),
    mode="nearest")`` on float64, whose arithmetic it replays: along axis
    0, then axis 1, a running sum seeded with ((0 + x[0]) + x[0]) + x[1]
    and moved by ``x[i + 1] - x[i - 2]`` (indices clamped), each output
    the sum / 3.
    """
    for axis in (0, 1):
        x = np.moveaxis(x, axis, 0)
        n = len(x)
        i = np.arange(n)
        steps = x[np.minimum(i + 1, n - 1)] - x[np.maximum(i - 2, 0)]
        steps[0] = ((0.0 + x[0]) + x[0]) + x[min(1, n - 1)]
        x = np.moveaxis(np.cumsum(steps, axis=0) / 3, 0, axis)
    return x


def point_descriptors(scene: Scene, noise_sigma: float) -> np.ndarray:
    """3D network inputs: coordinates, appearance, neighborhood statistics."""
    pos = scene.cloud.positions.astype(np.float64)
    app = point_appearance(scene, noise_sigma).astype(np.float64)
    dist, idx = _nearest_neighbors(pos, 9)
    if idx.shape[1] > 1:
        mean_dist = dist[:, 1:].mean(axis=1, keepdims=True) / scene.room_size
        neighbor_app = app[idx[:, 1:]].mean(axis=1)
    else:
        mean_dist = np.zeros((len(pos), 1))
        neighbor_app = app.copy()
    desc = np.concatenate([pos / scene.room_size, app, mean_dist, neighbor_app], axis=1)
    return desc.astype(np.float32)


def pixel_descriptors(scene: Scene, camera_index: int,
                      noise_sigma: float) -> np.ndarray:
    """2D network inputs: pixel position encoding, depth, and rendered
    appearance channels with their 3x3 local means."""
    render = render_view(scene, camera_index)
    h, w = render.label.shape
    app_points = point_appearance(scene, noise_sigma).astype(np.float64)
    palette = instance_palette(scene.object_count)
    app = np.empty((h, w, APPEARANCE_DIM))
    visible = render.point_index >= 0
    app[visible] = app_points[render.point_index[visible]]
    rng = derive_rng(scene.seed, TAG_DESCRIPTOR, 1 + camera_index)
    empty_noise = rng.standard_normal((h, w, APPEARANCE_DIM))
    empty_app = palette[BACKGROUND_INSTANCE][None, None, :] + noise_sigma * empty_noise
    app[~visible] = empty_app[~visible]
    local = _box_mean3(app)
    yy, xx = np.mgrid[0:h, 0:w]
    u_norm = xx / max(w - 1, 1)
    v_norm = yy / max(h - 1, 1)
    depth_norm = render.depth / (2.0 * scene.room_size)
    desc = np.concatenate([u_norm[..., None], v_norm[..., None],
                           depth_norm[..., None], app, local], axis=2)
    return desc.astype(np.float32)


PIXEL_DESC_DIM = 3 + 2 * APPEARANCE_DIM
POINT_DESC_DIM = 4 + 2 * APPEARANCE_DIM


def standard_oracle_outputs(scene: Scene, clip_noise: ClipNoiseConfig,
                            frag: MaskFragConfig, feat_dim: int,
                            feat_sigma: float, embed_dim: int) -> dict:
    """Generate every oracle product for a scene in one sweep.

    Returns a dict with per-view lists under "scores", "masks", and
    "features", the (L, D) class embeddings under "embeddings", and the
    generation parameters under "meta" (echoed into bundle manifests so
    a reader can regenerate the frozen embeddings).
    """
    seed = scene.seed
    views = range(len(scene.cameras))
    return {
        "scores": [mock_clip_scores(scene, k, clip_noise, seed) for k in views],
        "masks": [mock_sam_masks(scene, k, frag, seed) for k in views],
        "features": [mock_sam_features(scene, k, feat_dim, feat_sigma, seed)
                     for k in views],
        "embeddings": mock_text_embeddings(scene.num_classes, embed_dim, seed),
        "meta": {
            "clip_eps": clip_noise.eps, "clip_block": clip_noise.block,
            "frag_splits": frag.splits_per_object,
            "frag_jitter": frag.boundary_jitter_px,
            "feat_dim": feat_dim, "feat_sigma": feat_sigma,
            "embed_dim": embed_dim, "oracle_seed": seed,
        },
    }
