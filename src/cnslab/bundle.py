"""Bit-exact on-disk scene bundles.

A bundle is a directory:

    manifest.txt        key=value lines (UTF-8)
    points.bin          "CNSPTS v1 N has_labels has_objects\\n" + payload
    cameras.txt         one camera per line, 18 whitespace-separated values
    view_K.scores.bin   "CNSRAS v1 W H C <f4\\n" + float32 LE payload
    view_K.masks.bin    "CNSRAS v1 W H 1 <i4\\n" + int32 LE payload
    view_K.feat.bin     "CNSRAS v1 W H D <f4\\n" + float32 LE payload

Raster payloads are row-major, channel-last.  The dtype token doubles as
an endianness guard: only "<f4" and "<i4" are accepted.  Text values
are written by evaluation.format_value, floats as repr() so float64
round-trips exactly.  All writes land in a ".tmp" file first and are
renamed into place, so a crashed writer never leaves a corrupt final
file.  Readers reject any inconsistency rather than guessing, reporting
file names and byte offsets.  Manifest keys the reader does not use,
such as the has_labels line of older bundles, are ignored.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from .errors import BundleFormatError
from .evaluation import format_value, parse_value, read_text
from .geometry import CameraModel, PointCloud
from .nncore import config_hash
from .scenesynth import (FeatureMap, MaskMap, Scene, ScoreMap,
                         mock_text_embeddings)

FORMAT_VERSION = "CNSBUNDLE v1"
_PTS_MAGIC = "CNSPTS v1"
_RAS_MAGIC = "CNSRAS v1"
_DTYPES = {"<f4": np.dtype("<f4"), "<i4": np.dtype("<i4")}

# The oracle parameters a manifest records, from oracles["meta"].
_ORACLE_KEYS = ("clip_eps", "clip_block", "frag_splits", "frag_jitter",
                "feat_dim", "feat_sigma", "embed_dim", "oracle_seed")
_MANIFEST_ORDER = (
    "format", "num_points", "num_views", "num_classes", "object_count",
    "seed", "room_size", "config_hash", *_ORACLE_KEYS,
)


def _atomic_write(path: Path, data: bytes):
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, path)


def _points_bytes(cloud: PointCloud) -> bytes:
    has_labels = int(cloud.gt_labels is not None)
    has_objects = int(cloud.object_ids is not None)
    header = f"{_PTS_MAGIC} {len(cloud)} {has_labels} {has_objects}\n".encode()
    body = np.ascontiguousarray(cloud.positions, dtype="<f4").tobytes()
    if has_labels:
        body += np.ascontiguousarray(cloud.gt_labels, dtype="<i4").tobytes()
    if has_objects:
        body += np.ascontiguousarray(cloud.object_ids, dtype="<i4").tobytes()
    return header + body


def _cameras_text(cameras: List[CameraModel]) -> bytes:
    lines = []
    for cam in cameras:
        values = [cam.fx, cam.fy, cam.cx, cam.cy, cam.width, cam.height]
        values += list(cam.rotation.ravel()) + list(cam.translation)
        lines.append(" ".join(format_value(v) for v in values))
    return ("\n".join(lines) + "\n").encode()


def _raster_bytes(arr: np.ndarray, dtype_token: str) -> bytes:
    if arr.ndim == 2:
        arr = arr[:, :, None]
    h, w, c = arr.shape
    header = f"{_RAS_MAGIC} {w} {h} {c} {dtype_token}\n".encode()
    return header + np.ascontiguousarray(arr, dtype=_DTYPES[dtype_token]).tobytes()


def write_raster(path, arr: np.ndarray, dtype_token: str):
    """Write one (H, W) or (H, W, C) array as a standalone CNSRAS file."""
    if dtype_token not in _DTYPES:
        raise BundleFormatError(f"unsupported dtype token {dtype_token!r}")
    _atomic_write(Path(path), _raster_bytes(np.asarray(arr), dtype_token))


def write_bundle(scene: Scene, oracles: dict, path) -> Dict[str, str]:
    """Write a scene and its oracle outputs; returns the manifest mapping."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    views = len(scene.cameras)
    meta = oracles.get("meta", {})
    manifest = {
        "format": FORMAT_VERSION,
        "num_points": len(scene.cloud),
        "num_views": views,
        "num_classes": scene.num_classes,
        "object_count": scene.object_count,
        "seed": scene.seed,
        "room_size": scene.room_size,
    }
    for key in _ORACLE_KEYS:
        manifest[key] = meta.get(key, "")
    manifest["config_hash"] = config_hash(
        tuple(sorted((k, format_value(v)) for k, v in manifest.items())))

    _atomic_write(path / "points.bin", _points_bytes(scene.cloud))
    _atomic_write(path / "cameras.txt", _cameras_text(scene.cameras))
    for k in range(views):
        _atomic_write(path / f"view_{k}.scores.bin",
                      _raster_bytes(oracles["scores"][k].scores, "<f4"))
        _atomic_write(path / f"view_{k}.masks.bin",
                      _raster_bytes(oracles["masks"][k].mask_ids, "<i4"))
        _atomic_write(path / f"view_{k}.feat.bin",
                      _raster_bytes(oracles["features"][k].features, "<f4"))
    manifest_text = "".join(f"{key}={format_value(manifest[key])}\n"
                            for key in _MANIFEST_ORDER)
    _atomic_write(path / "manifest.txt", manifest_text.encode())
    return {key: format_value(value) for key, value in manifest.items()}


# ---------------------------------------------------------------------------
# reading


def _read_header_line(blob: bytes, name: str) -> Tuple[str, int]:
    end = blob.find(b"\n")
    if end < 0:
        raise BundleFormatError(f"{name}: missing header newline (offset 0)")
    try:
        return blob[:end].decode("ascii"), end + 1
    except UnicodeDecodeError as exc:
        raise BundleFormatError(f"{name}: undecodable header (offset 0)") from exc


def _read_points(path: Path) -> PointCloud:
    name = path.name
    blob = path.read_bytes()
    header, offset = _read_header_line(blob, name)
    parts = header.split()
    if len(parts) != 5 or " ".join(parts[:2]) != _PTS_MAGIC:
        raise BundleFormatError(
            f"{name}: bad header {header!r}; expected '{_PTS_MAGIC} N "
            f"has_labels has_objects'")
    try:
        count, has_labels, has_objects = (int(p) for p in parts[2:])
    except ValueError as exc:
        raise BundleFormatError(f"{name}: non-integer header fields in {header!r}") \
            from exc
    if count < 1 or has_labels not in (0, 1) or has_objects not in (0, 1):
        raise BundleFormatError(f"{name}: invalid header values {header!r}")

    def take(n_values, dtype):
        nonlocal offset
        need = n_values * 4
        if offset + need > len(blob):
            raise BundleFormatError(
                f"{name}: truncated payload at offset {offset}: need {need} "
                f"bytes, have {len(blob) - offset}")
        arr = np.frombuffer(blob, dtype=dtype, count=n_values, offset=offset)
        offset += need
        return arr

    positions = take(count * 3, "<f4").reshape(count, 3)
    gt_labels = take(count, "<i4") if has_labels else None
    object_ids = take(count, "<i4") if has_objects else None
    if offset != len(blob):
        raise BundleFormatError(
            f"{name}: {len(blob) - offset} trailing bytes at offset {offset}")
    finite = np.isfinite(positions).all(axis=1)
    if not finite.all():
        raise BundleFormatError(
            f"{name}: point {int(np.argmin(finite))} has a non-finite position")
    return PointCloud(positions.copy(),
                      None if gt_labels is None else gt_labels.copy(),
                      None if object_ids is None else object_ids.copy())


def _read_cameras(path: Path) -> Tuple[List[CameraModel], List[int]]:
    """The cameras of cameras.txt and the line number of each."""
    cameras, linenos = [], []
    for lineno, line in enumerate(read_text(path, BundleFormatError).splitlines(), start=1):
        if not line.strip():
            continue
        tokens = line.split()
        if len(tokens) != 18:
            raise BundleFormatError(
                f"{path.name}:{lineno}: expected 18 values per camera, "
                f"got {len(tokens)}")
        try:
            floats = np.array([parse_value(float, t) for t in tokens[:4] + tokens[6:]])
            width, height = (parse_value(int, t) for t in tokens[4:6])
        except ValueError as exc:
            raise BundleFormatError(f"{path.name}:{lineno}: unparseable number") \
                from exc
        fx, fy, cx, cy = floats[:4].tolist()
        rot, trans = floats[4:13].reshape(3, 3), floats[13:]
        cameras.append(CameraModel(fx, fy, cx, cy, rot, trans, width, height))
        linenos.append(lineno)
        # Every view's pixels are stacked into one (V, H, W) array.
        first = cameras[0]
        if (width, height) != (first.width, first.height):
            raise BundleFormatError(
                f"{path.name}:{lineno}: camera {len(cameras) - 1} is "
                f"{width}x{height}, camera 0 is {first.width}x{first.height}")
    if not cameras:
        raise BundleFormatError(f"{path.name}: no cameras")
    return cameras, linenos


def read_raster(path: Path) -> np.ndarray:
    """Read one CNSRAS raster into an (H, W, C) array."""
    name = path.name
    blob = path.read_bytes()
    header, offset = _read_header_line(blob, name)
    parts = header.split()
    if len(parts) != 6 or " ".join(parts[:2]) != _RAS_MAGIC:
        raise BundleFormatError(
            f"{name}: bad header {header!r}; expected '{_RAS_MAGIC} W H C dtype'")
    try:
        w, h, c = (int(p) for p in parts[2:5])
    except ValueError as exc:
        raise BundleFormatError(f"{name}: non-integer dimensions in {header!r}") \
            from exc
    dtype_token = parts[5]
    if dtype_token not in _DTYPES:
        raise BundleFormatError(
            f"{name}: unsupported dtype {dtype_token!r} (little-endian '<f4' "
            f"or '<i4' required)")
    if min(w, h, c) < 1:
        raise BundleFormatError(f"{name}: non-positive dimensions in {header!r}")
    expected = w * h * c * 4
    actual = len(blob) - offset
    if actual != expected:
        raise BundleFormatError(
            f"{name}: payload at offset {offset} has {actual} bytes, "
            f"expected {expected} ({w}x{h}x{c} {dtype_token})")
    arr = np.frombuffer(blob, dtype=_DTYPES[dtype_token], count=w * h * c,
                        offset=offset)
    return arr.reshape(h, w, c).copy()


def read_manifest(path: Path) -> Dict[str, str]:
    manifest = {}
    for lineno, line in enumerate(read_text(path, BundleFormatError).splitlines(), start=1):
        if not line.strip():
            continue
        if "=" not in line:
            raise BundleFormatError(f"{path.name}:{lineno}: expected key=value")
        key, value = line.split("=", 1)
        if key in manifest:
            raise BundleFormatError(f"{path.name}:{lineno}: duplicate key {key!r}")
        manifest[key] = value
    if manifest.get("format") != FORMAT_VERSION:
        raise BundleFormatError(
            f"{path.name}: unsupported format {manifest.get('format')!r} "
            f"(this reader handles {FORMAT_VERSION!r})")
    return manifest


def read_bundle(path) -> Tuple[Scene, dict, Dict[str, str]]:
    """Load and validate a bundle; returns (scene, oracles, manifest).

    The oracles dict mirrors what was written (scores/masks/features per
    view, regenerated embeddings, meta).
    """
    path = Path(path)
    manifest = read_manifest(path / "manifest.txt")

    def man_value(key, kind=int):
        try:
            return parse_value(kind, manifest[key])
        except (KeyError, ValueError):
            raise BundleFormatError(f"manifest.txt: missing or bad {key!r}") from None

    num_points = man_value("num_points")
    num_views = man_value("num_views")
    num_classes = man_value("num_classes")
    object_count = man_value("object_count")

    cloud = _read_points(path / "points.bin")
    if len(cloud) != num_points:
        raise BundleFormatError(
            f"points.bin holds {len(cloud)} points but manifest.txt says "
            f"num_points={num_points}")
    cameras, camera_lines = _read_cameras(path / "cameras.txt")
    if len(cameras) != num_views:
        raise BundleFormatError(
            f"cameras.txt holds {len(cameras)} cameras but manifest.txt says "
            f"num_views={num_views}")

    scores, masks, feats = [], [], []
    for k, cam in enumerate(cameras):
        score_arr = read_raster(path / f"view_{k}.scores.bin")
        if score_arr.shape[:2] != (cam.height, cam.width):
            raise BundleFormatError(
                f"view_{k}.scores.bin is {score_arr.shape[1]}x{score_arr.shape[0]}, "
                f"camera {k} is {cam.width}x{cam.height}")
        if score_arr.shape[2] != num_classes:
            raise BundleFormatError(
                f"view_{k}.scores.bin has {score_arr.shape[2]} channels, "
                f"manifest num_classes={num_classes}")
        scores.append(ScoreMap(score_arr))
        mask_arr = read_raster(path / f"view_{k}.masks.bin")
        if mask_arr.shape != (cam.height, cam.width, 1):
            raise BundleFormatError(f"view_{k}.masks.bin: expected single-channel "
                                    f"{cam.width}x{cam.height}, got {mask_arr.shape}")
        masks.append(MaskMap(mask_arr[:, :, 0]))
        feat_arr = read_raster(path / f"view_{k}.feat.bin")
        if feat_arr.shape[:2] != (cam.height, cam.width):
            raise BundleFormatError(f"view_{k}.feat.bin does not match camera size")
        feats.append(FeatureMap(feat_arr))

    if cloud.gt_labels is None or cloud.object_ids is None:
        raise BundleFormatError("points.bin lacks labels/object ids required "
                                "for a scene bundle")
    scene = Scene(cloud, cameras, num_classes, object_count, man_value("seed"),
                  man_value("room_size", float))
    blind = scene.blind_camera()
    if blind is not None:
        raise BundleFormatError(f"cameras.txt:{camera_lines[blind]}: camera {blind} "
                                f"sees no point of points.bin")
    scene.validate()

    oracles = {"scores": scores, "masks": masks, "features": feats,
               "meta": {key: manifest[key] for key in _ORACLE_KEYS
                        if key in manifest}}
    if manifest.get("embed_dim") and manifest.get("oracle_seed"):
        oracles["embeddings"] = mock_text_embeddings(
            num_classes, man_value("embed_dim"), man_value("oracle_seed"))
    return scene, oracles, manifest
