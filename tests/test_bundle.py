"""Tests for the on-disk scene bundle format.

Byte layouts are frozen with independently packed expected bytes
(struct / numpy packing recomputed in the test), and every reader
rejection path is exercised with hand-corrupted files.
"""

import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cnslab.bundle import (FORMAT_VERSION, _points_bytes, _read_points,
                           read_bundle, read_manifest, read_raster,
                           write_bundle, write_raster)
from cnslab.errors import BundleFormatError, ValidationError
from cnslab.geometry import PointCloud

from conftest import SMALL_SCENE


@pytest.fixture(scope="module")
def written(tmp_path_factory, small_scene, small_oracles):
    path = tmp_path_factory.mktemp("bundles") / "scene"
    manifest = write_bundle(small_scene, small_oracles, path)
    return path, manifest


# ---------------------------------------------------------------------------
# round trip


def test_bundle_round_trip(written, small_scene, small_oracles):
    path, _ = written
    scene, oracles, manifest = read_bundle(path)
    # Positions survive the float32 cast; labels and ids are exact.
    assert np.array_equal(scene.cloud.positions,
                          small_scene.cloud.positions.astype("<f4"))
    assert np.array_equal(scene.cloud.gt_labels, small_scene.cloud.gt_labels)
    assert np.array_equal(scene.cloud.object_ids, small_scene.cloud.object_ids)
    assert scene.num_classes == small_scene.num_classes
    assert scene.seed == small_scene.seed
    assert scene.room_size == small_scene.room_size
    # Cameras round-trip exactly (repr-format floats).
    for cam_out, cam_in in zip(scene.cameras, small_scene.cameras):
        assert cam_out.fx == cam_in.fx and cam_out.fy == cam_in.fy
        assert cam_out.cx == cam_in.cx and cam_out.cy == cam_in.cy
        assert (cam_out.width, cam_out.height) == (cam_in.width, cam_in.height)
        assert np.array_equal(cam_out.rotation, cam_in.rotation)
        assert np.array_equal(cam_out.translation, cam_in.translation)
    # Oracle rasters are stored as float32/int32 and come back exactly.
    for k in range(len(scene.cameras)):
        assert np.array_equal(oracles["scores"][k].scores,
                              small_oracles["scores"][k].scores)
        assert np.array_equal(oracles["masks"][k].mask_ids,
                              small_oracles["masks"][k].mask_ids)
        assert np.array_equal(oracles["features"][k].features,
                              small_oracles["features"][k].features)
    # Embeddings are regenerated from the recorded seed, not stored.
    assert np.array_equal(oracles["embeddings"], small_oracles["embeddings"])
    assert manifest["format"] == FORMAT_VERSION
    assert "labels" not in oracles


def test_manifest_contents_and_order(written, small_scene):
    path, echoed = written
    lines = (path / "manifest.txt").read_text().splitlines()
    keys = [line.split("=", 1)[0] for line in lines]
    assert keys == ["format", "num_points", "num_views", "num_classes",
                    "object_count", "seed", "room_size", "config_hash",
                    "clip_eps", "clip_block", "clip_margin", "frag_splits",
                    "frag_jitter", "feat_dim", "feat_sigma", "embed_dim",
                    "oracle_seed", "has_labels"]
    manifest = read_manifest(path / "manifest.txt")
    assert manifest["format"] == FORMAT_VERSION
    assert manifest["num_points"] == str(len(small_scene.cloud))
    assert manifest["num_views"] == str(len(small_scene.cameras))
    assert manifest["clip_eps"] == "0.4"
    assert manifest["has_labels"] == "0"
    assert manifest == echoed


def test_bundle_write_is_bit_exact(tmp_path, small_scene, small_oracles):
    a = tmp_path / "a"
    b = tmp_path / "b"
    write_bundle(small_scene, small_oracles, a)
    write_bundle(small_scene, small_oracles, b)
    files_a = sorted(p.name for p in a.iterdir())
    files_b = sorted(p.name for p in b.iterdir())
    assert files_a == files_b
    for name in files_a:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_bundle_with_label_rasters(tmp_path, small_scene, small_oracles):
    h, w = SMALL_SCENE.image_height, SMALL_SCENE.image_width
    labels = [np.full((h, w), k - 1, dtype=np.int32)
              for k in range(len(small_scene.cameras))]
    path = tmp_path / "labeled"
    write_bundle(small_scene, small_oracles, path, labels=labels)
    assert read_manifest(path / "manifest.txt")["has_labels"] == "1"
    _, oracles, _ = read_bundle(path)
    assert len(oracles["labels"]) == len(labels)
    for got, expect in zip(oracles["labels"], labels):
        assert np.array_equal(got, expect)


# ---------------------------------------------------------------------------
# points.bin byte layout


def test_points_bytes_frozen_layout():
    cloud = PointCloud(np.array([[1.5, -2.0, 3.25], [0.0, 1.0, 2.0]],
                                dtype=np.float32),
                       np.array([0, 3], dtype=np.int32),
                       np.array([0, 1], dtype=np.int32))
    expected = (b"CNSPTS v1 2 1 1\n"
                + struct.pack("<6f", 1.5, -2.0, 3.25, 0.0, 1.0, 2.0)
                + struct.pack("<2i", 0, 3)
                + struct.pack("<2i", 0, 1))
    assert _points_bytes(cloud) == expected


def test_read_points_hand_built(tmp_path):
    blob = (b"CNSPTS v1 2 1 1\n"
            + struct.pack("<6f", 1.5, -2.0, 3.25, 0.0, 1.0, 2.0)
            + struct.pack("<2i", 0, 3)
            + struct.pack("<2i", 0, 1))
    path = tmp_path / "points.bin"
    path.write_bytes(blob)
    cloud = _read_points(path)
    assert np.array_equal(cloud.positions,
                          [[1.5, -2.0, 3.25], [0.0, 1.0, 2.0]])
    assert np.array_equal(cloud.gt_labels, [0, 3])
    assert np.array_equal(cloud.object_ids, [0, 1])
    # Optional sections can be absent.
    bare = tmp_path / "bare.bin"
    bare.write_bytes(b"CNSPTS v1 1 0 0\n" + struct.pack("<3f", 1.0, 2.0, 3.0))
    cloud = _read_points(bare)
    assert cloud.gt_labels is None and cloud.object_ids is None


def test_read_points_rejects_corruption(tmp_path):
    good = (b"CNSPTS v1 2 1 1\n"
            + struct.pack("<6f", 1.5, -2.0, 3.25, 0.0, 1.0, 2.0)
            + struct.pack("<2i", 0, 3) + struct.pack("<2i", 0, 1))
    truncated = tmp_path / "truncated.bin"
    truncated.write_bytes(good[:-4])
    with pytest.raises(BundleFormatError, match="offset"):
        _read_points(truncated)
    trailing = tmp_path / "trailing.bin"
    trailing.write_bytes(good + b"\x00\x00")
    with pytest.raises(BundleFormatError, match="trailing"):
        _read_points(trailing)
    for bad in (b"CNSPTS v2 2 1 1\n", b"CNSPTS v1 2 1\n", b"CNSPTS v1 x 1 1\n",
                b"CNSPTS v1 0 1 1\n", b"no newline at all"):
        path = tmp_path / "bad.bin"
        path.write_bytes(bad + good[16:])
        with pytest.raises(BundleFormatError):
            _read_points(path)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_read_points_rejects_non_finite_positions(tmp_path, value):
    path = tmp_path / "points.bin"
    path.write_bytes(b"CNSPTS v1 2 0 0\n"
                     + struct.pack("<6f", 1.5, -2.0, 3.25, 0.0, value, 2.0))
    with pytest.raises(BundleFormatError,
                       match="points.bin: point 1 has a non-finite position"):
        _read_points(path)


# ---------------------------------------------------------------------------
# rasters


def test_raster_round_trip(tmp_path, rng):
    arr = rng.random((5, 7, 3)).astype("<f4")
    path = tmp_path / "x.bin"
    write_raster(path, arr, "<f4")
    first_line = path.read_bytes().split(b"\n", 1)[0]
    assert first_line == b"CNSRAS v1 7 5 3 <f4"
    assert np.array_equal(read_raster(path), arr)
    # 2D int array gains a singleton channel axis.
    ints = rng.integers(-1, 9, size=(4, 6)).astype("<i4")
    write_raster(path, ints, "<i4")
    back = read_raster(path)
    assert back.shape == (4, 6, 1)
    assert np.array_equal(back[:, :, 0], ints)


def test_raster_rejects_bad_dtype_and_sizes(tmp_path):
    with pytest.raises(BundleFormatError):
        write_raster(tmp_path / "x.bin", np.zeros((2, 2)), ">f4")
    path = tmp_path / "bad.bin"
    path.write_bytes(b"CNSRAS v1 2 2 1 >f4\n" + b"\x00" * 16)
    with pytest.raises(BundleFormatError, match="little-endian"):
        read_raster(path)
    path.write_bytes(b"CNSRAS v1 2 2 1 <f4\n" + b"\x00" * 12)
    with pytest.raises(BundleFormatError, match="expected 16"):
        read_raster(path)
    path.write_bytes(b"CNSRAS v1 0 2 1 <f4\n")
    with pytest.raises(BundleFormatError, match="non-positive"):
        read_raster(path)
    path.write_bytes(b"CNSRAS v2 2 2 1 <f4\n" + b"\x00" * 16)
    with pytest.raises(BundleFormatError, match="bad header"):
        read_raster(path)


# ---------------------------------------------------------------------------
# manifest and whole-bundle validation


def test_manifest_rejects_malformed(tmp_path):
    path = tmp_path / "manifest.txt"
    path.write_text("format=CNSBUNDLE v1\nnot a pair\n")
    with pytest.raises(BundleFormatError, match="key=value"):
        read_manifest(path)
    path.write_text("format=CNSBUNDLE v1\nseed=1\nseed=2\n")
    with pytest.raises(BundleFormatError, match="duplicate"):
        read_manifest(path)
    path.write_text("format=CNSBUNDLE v2\n")
    with pytest.raises(BundleFormatError, match="unsupported format"):
        read_manifest(path)


def _copy_bundle(src: Path, dst: Path):
    dst.mkdir()
    for item in src.iterdir():
        (dst / item.name).write_bytes(item.read_bytes())


def test_read_bundle_rejects_inconsistencies(written, tmp_path):
    src, _ = written
    # Manifest point count disagreeing with points.bin.
    broken = tmp_path / "count"
    _copy_bundle(src, broken)
    manifest = (broken / "manifest.txt").read_text()
    (broken / "manifest.txt").write_text(
        manifest.replace("num_points=", "num_points=9"))
    with pytest.raises(BundleFormatError, match="num_points"):
        read_bundle(broken)
    # A camera line with a missing token.
    broken = tmp_path / "camera"
    _copy_bundle(src, broken)
    lines = (broken / "cameras.txt").read_text().splitlines()
    lines[1] = " ".join(lines[1].split()[:-1])
    (broken / "cameras.txt").write_text("\n".join(lines) + "\n")
    with pytest.raises(BundleFormatError, match="cameras.txt:2"):
        read_bundle(broken)
    # A truncated raster payload.
    broken = tmp_path / "raster"
    _copy_bundle(src, broken)
    raster = (broken / "view_0.masks.bin").read_bytes()
    (broken / "view_0.masks.bin").write_bytes(raster[:-4])
    with pytest.raises(BundleFormatError, match="view_0.masks.bin"):
        read_bundle(broken)


def test_read_bundle_validates_scene(written, tmp_path):
    src, _ = written
    broken = tmp_path / "labels"
    _copy_bundle(src, broken)
    blob = bytearray((broken / "points.bin").read_bytes())
    header_end = blob.index(b"\n") + 1
    count = int(blob[:header_end].split()[2])
    # Overwrite the first ground-truth label with an out-of-range class.
    label_offset = header_end + count * 12
    blob[label_offset:label_offset + 4] = struct.pack("<i", 99)
    (broken / "points.bin").write_bytes(bytes(blob))
    with pytest.raises(ValidationError):
        read_bundle(broken)


def test_no_tmp_files_left_behind(written):
    path, _ = written
    assert not list(path.glob("*.tmp"))


# ---------------------------------------------------------------------------
# damaged bundles


@pytest.fixture(scope="module")
def fuzz_bundle(tmp_path_factory, small_scene, small_oracles):
    """A labelled bundle on disk and the original bytes of each of its files."""
    h, w = SMALL_SCENE.image_height, SMALL_SCENE.image_width
    labels = [np.full((h, w), k - 1, dtype=np.int32)
              for k in range(len(small_scene.cameras))]
    path = tmp_path_factory.mktemp("fuzz") / "scene"
    write_bundle(small_scene, small_oracles, path, labels=labels)
    return path, {p.name: p.read_bytes() for p in sorted(path.iterdir())}


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_damaged_bundle_loads_or_raises_validation_error(fuzz_bundle, data):
    path, files = fuzz_bundle
    name = data.draw(st.sampled_from(sorted(files)), label="file")
    blob = files[name]
    # Most of a file is payload; half the draws aim at its first bytes,
    # where the text files and the binary headers are.
    end = data.draw(st.sampled_from([min(len(blob), 256), len(blob)]), label="span")
    if data.draw(st.booleans(), label="truncate"):
        damaged = blob[:data.draw(st.integers(0, end - 1), label="length")]
    else:
        pos = data.draw(st.integers(0, end - 1), label="position")
        flip = data.draw(st.integers(1, 255), label="xor")
        damaged = blob[:pos] + bytes([blob[pos] ^ flip]) + blob[pos + 1:]
    (path / name).write_bytes(damaged)
    try:
        read_bundle(path)
    except ValidationError:
        pass
    finally:
        (path / name).write_bytes(blob)
