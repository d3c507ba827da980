"""Shared fixtures: one small scene with oracle outputs, reused read-only;
project_point, the one-point projection the geometry tests check
cnslab's vectorized code against; class_map, the reference class map the
folded logits are checked against; mutate, which swaps in a function
with one line of its source edited, for the gradient checker's mutants;
and kernels, the BLAS and SIMD kernels that byte pins of float32
training depend on."""

import ctypes
import inspect
import os
from pathlib import Path

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


def class_map(bundle, head: str):
    """A semantic head folded into the class embeddings: [M; c] = [W; b] @
    E.T, in the layer form of the head [W; b], so that the logits of
    latent rows f are (f @ W + b) @ E.T = f @ M + c."""
    return getattr(bundle, f"head_{head}") @ bundle.embeddings.T


def mutate(monkeypatch, module, name: str, old: str, new: str):
    """Patch module.name with a copy whose source has `old` replaced by `new`.

    The copy runs in a copy of the module's namespace; callers inside the
    module reach it through the patched global.
    """
    source = inspect.getsource(getattr(module, name))
    assert source.count(old) == 1, f"{old!r} is not one line of {name}"
    scope = dict(vars(module))
    exec(compile(source.replace(old, new), module.__file__, "exec"), scope)
    monkeypatch.setattr(module, name, scope[name])


def kernels() -> dict:
    """The kernels this process computes with: the core OpenBLAS picked at
    start-up (OPENBLAS_CORETYPE sets it per process), read from the
    OpenBLAS that numpy bundles, and numpy's enabled SIMD targets.  A
    float32 training run's bytes depend on both."""
    from numpy._core import _multiarray_umath as umath

    simd = " ".join(target for target in umath.__cpu_dispatch__
                    if umath.__cpu_features__.get(target))
    core = "unknown"
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob(
            "libscipy_openblas*")):
        corename = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.argtypes, corename.restype = [], ctypes.c_char_p
            core = corename().decode()
    return {"openblas_core": core, "numpy_simd": simd}


# What the byte pins of trained outputs (test_cli.TRAIN_SHA256,
# test_ablation.SHARED_REPORT_SHA256) were recorded under; see kernels().
PINS_RECORDED_UNDER = {"openblas_core": "SkylakeX",
                       "numpy_simd": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"}


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
