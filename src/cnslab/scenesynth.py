"""Synthetic labeled scenes and the mock CLIP/SAM oracles.

A scene is a room-sized point cloud (axis-aligned boxes resting on a
ground plane) observed by a ring of pinhole cameras.  Three oracles
replace the foundation models with controllable-noise stand-ins:

* ``mock_clip_scores``  — per-pixel class scores with block-correlated
  label-flip noise (flip rate ``eps``, correlation block size ``block``);
* ``mock_sam_masks``    — class-pure over-segmentation masks with
  optional boundary jitter;
* ``mock_sam_features`` — per-instance unit anchor embeddings with
  gaussian within-instance noise.

``mock_text_embeddings`` supplies the frozen per-class unit vectors the
labeler scores against.  Everything is a pure function of (config,
seed), so downstream claims can be checked against known ground truth.

The scene and the oracles need numpy alone; background masks come from
a numpy 4-connected component labeller.  Only the network descriptors
(``point_descriptors``, ``pixel_descriptors``) use scipy, imported where
they are built, so that ``cnslab synth`` and ``cnslab refine`` start
without it.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass, field
from typing import Optional, Tuple

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
DESCRIPTOR_NOISE = 0.02
_PALETTE_SALT = 0x5EED
_PALETTE_MIN_DIST = 0.5
_JITTER_CELL = 8
# Largest room side.  Past about 1e16 a box corner plus a box size rounds
# back to the corner, every face has zero area and sampling fails; at 1e6
# float32 point positions still sit within 0.0625 of their draws.
MAX_ROOM_SIZE = 1e6


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
    camera_radius: Optional[float] = None  # default 0.85 * room_size
    camera_height: Optional[float] = None  # default 0.65 * room_size

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
            raise ValidationError("box sizes must satisfy 0 < min <= max < room_size")
        if not self.room_size <= MAX_ROOM_SIZE:
            raise ValidationError(
                f"room_size must be <= {MAX_ROOM_SIZE:g}, got {self.room_size}")


@dataclass(frozen=True)
class ClipNoiseConfig:
    """Label-flip noise of the mock CLIP scorer."""

    eps: float = 0.4
    block: int = 4
    margin: float = 1.0

    def validate(self):
        if not 0.0 <= self.eps <= 1.0:
            raise ValidationError(f"eps must be in [0, 1], got {self.eps}")
        if self.block < 1:
            raise ValidationError(f"block must be >= 1, got {self.block}")
        if self.margin <= 0:
            raise ValidationError(f"margin must be > 0, got {self.margin}")


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
    radius = cfg.camera_radius if cfg.camera_radius is not None else 0.85 * cfg.room_size
    height = cfg.camera_height if cfg.camera_height is not None else 0.65 * cfg.room_size
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

    Each pixel backed by a visible point gives its ground-truth class a
    positive margin with probability 1 - eps; with probability eps a
    uniformly random wrong class gets the margin instead.  Flip decisions
    are shared inside block x block pixel cells (block=1 is i.i.d.).
    Pixels with no visible point score the background class.
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
    flat[np.arange(h * w), labels.ravel()] = noise.margin
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


def _geodesic_distance(mask: np.ndarray, seeds: list) -> np.ndarray:
    """4-connected geodesic distance inside `mask` from a seed set."""
    dist = np.full(mask.shape, np.inf)
    for y, x in seeds:
        dist[y, x] = 0.0
    while True:
        prev = dist
        d = dist.copy()
        d[1:, :] = np.minimum(d[1:, :], d[:-1, :] + 1)
        d[:-1, :] = np.minimum(d[:-1, :], d[1:, :] + 1)
        d[:, 1:] = np.minimum(d[:, 1:], d[:, :-1] + 1)
        d[:, :-1] = np.minimum(d[:, :-1], d[:, 1:] + 1)
        d[~mask] = np.inf
        dist = d
        if np.array_equal(dist, prev):
            return dist


def _farthest_seeds(mask: np.ndarray, count: int, rng) -> list:
    """Geodesic farthest-point sample of `count` seed pixels inside `mask`."""
    ys, xs = np.nonzero(mask)
    first = int(rng.integers(len(ys)))
    seeds = [(int(ys[first]), int(xs[first]))]
    while len(seeds) < count:
        dist = _geodesic_distance(mask, seeds)
        inside = dist[ys, xs]
        nxt = int(np.argmax(inside))  # unreached components sort as +inf
        seeds.append((int(ys[nxt]), int(xs[nxt])))
    return seeds


def _partition_region(mask: np.ndarray, seeds: list) -> np.ndarray:
    """Label mask pixels by the seed that reaches them first (synchronous
    BFS rounds; equidistant ties go to the lowest seed index)."""
    lab = np.full(mask.shape, -1, dtype=np.int64)
    for i, (y, x) in enumerate(seeds):
        lab[y, x] = i
    while True:
        cand = np.where(lab >= 0, lab, _BIG)
        best = np.full(mask.shape, _BIG, dtype=np.int64)
        best[1:, :] = np.minimum(best[1:, :], cand[:-1, :])
        best[:-1, :] = np.minimum(best[:-1, :], cand[1:, :])
        best[:, 1:] = np.minimum(best[:, 1:], cand[:, :-1])
        best[:, :-1] = np.minimum(best[:, :-1], cand[:, 1:])
        newly = mask & (lab < 0) & (best < _BIG)
        if not newly.any():
            break
        lab[newly] = best[newly]
    left = mask & (lab < 0)
    if left.any():
        # Disconnected leftovers with no seed: nearest seed by Euclidean distance.
        ys, xs = np.nonzero(left)
        sy = np.array([s[0] for s in seeds])
        sx = np.array([s[1] for s in seeds])
        d2 = (ys[:, None] - sy[None, :]) ** 2 + (xs[:, None] - sx[None, :]) ** 2
        lab[ys, xs] = np.argmin(d2, axis=1)
    return lab


def mock_sam_masks(scene: Scene, camera_index: int, frag: MaskFragConfig,
                   seed: int) -> MaskMap:
    """Over-segmentation of one view into connected, class-pure fragments.

    The background region contributes one mask per connected component;
    every rendered object region is split into splits_per_object
    fragments (fewer if the region has fewer pixels).  boundary_jitter_px
    displaces mask boundaries by up to that many pixels via a coarse
    integer offset field; jitter 0 keeps masks exactly class-pure.
    """
    frag.validate()
    render = render_view(scene, camera_index)
    rng = derive_rng(seed, TAG_MASKS, camera_index)
    comps, next_id = _label_components(render.object_id == BACKGROUND_INSTANCE)
    mask_ids = comps - 1  # background components first; -1 elsewhere
    for obj in np.unique(render.object_id):
        if obj == BACKGROUND_INSTANCE:
            continue
        region = render.object_id == obj
        k = min(frag.splits_per_object, int(region.sum()))
        seeds = _farthest_seeds(region, k, rng)
        lab = _partition_region(region, seeds)
        mask_ids[region] = next_id + lab[region].astype(np.int32)
        next_id += k
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
    """Per-point appearance: instance palette plus gaussian channel noise."""
    palette = instance_palette(scene.object_count)
    rng = derive_rng(scene.seed, TAG_DESCRIPTOR, 0)
    app = palette[scene.cloud.object_ids]
    if noise_sigma > 0:
        app = app + noise_sigma * rng.standard_normal(app.shape)
    return app.astype(np.float32)


def point_descriptors(scene: Scene, noise_sigma: float = DESCRIPTOR_NOISE) -> np.ndarray:
    """3D network inputs: coordinates, appearance, neighborhood statistics."""
    pos = scene.cloud.positions.astype(np.float64)
    app = point_appearance(scene, noise_sigma).astype(np.float64)
    k = min(9, len(pos))
    from scipy.spatial import cKDTree  # local: synth and refine start without scipy
    dist, idx = cKDTree(pos).query(pos, k=k)
    if k > 1:
        mean_dist = dist[:, 1:].mean(axis=1, keepdims=True) / scene.room_size
        neighbor_app = app[idx[:, 1:]].mean(axis=1)
    else:
        mean_dist = np.zeros((len(pos), 1))
        neighbor_app = app.copy()
    desc = np.concatenate([pos / scene.room_size, app, mean_dist, neighbor_app], axis=1)
    return desc.astype(np.float32)


def pixel_descriptors(scene: Scene, camera_index: int,
                      noise_sigma: float = DESCRIPTOR_NOISE) -> np.ndarray:
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
    from scipy import ndimage  # local: synth and refine start without scipy
    local = ndimage.uniform_filter(app, size=(3, 3, 1), mode="nearest")
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
            "clip_margin": clip_noise.margin,
            "frag_splits": frag.splits_per_object,
            "frag_jitter": frag.boundary_jitter_px,
            "feat_dim": feat_dim, "feat_sigma": feat_sigma,
            "embed_dim": embed_dim, "oracle_seed": seed,
        },
    }
