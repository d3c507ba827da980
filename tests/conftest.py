"""Shared fixtures: one small scene with oracle outputs, reused read-only;
and project_point, the one-point projection the geometry tests check
cnslab's vectorized code against."""

import os

# One BLAS thread, set before numpy is first imported: the suite's arrays
# are small, and a thread per core oversubscribes the cores when two
# suites run at once.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from cnslab.geometry import DEPTH_MIN, CameraModel
from cnslab.scenesynth import (ClipNoiseConfig, MaskFragConfig, SceneConfig,
                               generate_scene, standard_oracle_outputs)

SMALL_SCENE = SceneConfig(object_count=4, points_per_object=120,
                          background_points=500, num_classes=5, camera_count=3,
                          image_width=32, image_height=32, focal=24.0)

TINY_TRAIN = dict(object_count=4, points_per_object=120, background_points=500,
                  num_classes=5, camera_count=3, image_width=32,
                  image_height=32, focal=24.0)


def project_point(camera: CameraModel, point):
    """Project one world point; None if behind the camera or off-image.

    Returns (u, v, depth) with u, v already rounded to the nearest pixel.
    """
    p = np.asarray(point, dtype=np.float64)
    x, y, z = camera.rotation @ p + camera.translation
    if z <= DEPTH_MIN:
        return None
    u = int(np.floor(camera.fx * x / z + camera.cx + 0.5))
    v = int(np.floor(camera.fy * y / z + camera.cy + 0.5))
    if not (0 <= u < camera.width and 0 <= v < camera.height):
        return None
    return u, v, float(z)


@pytest.fixture(scope="session")
def small_scene():
    return generate_scene(SMALL_SCENE, seed=11)


@pytest.fixture(scope="session")
def small_oracles(small_scene):
    return standard_oracle_outputs(small_scene, ClipNoiseConfig(eps=0.4, block=4),
                                   MaskFragConfig(3, 1), feat_dim=8,
                                   feat_sigma=0.1, embed_dim=16)


@pytest.fixture(scope="session")
def noiseless_oracles(small_scene):
    return standard_oracle_outputs(small_scene, ClipNoiseConfig(eps=0.0, block=4),
                                   MaskFragConfig(3, 0), feat_dim=8,
                                   feat_sigma=0.1, embed_dim=16)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
