"""Tests for the two-stage co-training schedule.

Covers warm-up/no-op boundaries, noiseless convergence, the equivalence
of all-oracle source switching with pure stage-1 training, empirical
source-draw frequencies, determinism, and frozen-component invariants.
"""

import re
from pathlib import Path

import numpy as np
import pytest

from cnslab import nncore, training
from cnslab.ablation import SuiteConfig, _score_label_row
from cnslab.errors import ValidationError
from cnslab.nncore import (ModelConfig, class_logits, feature_major, grad_check,
                           make_bundle, mlp_forward, param_views)
from cnslab.pseudolabel import IGNORE, transfer_labels
from cnslab.scenesynth import (ClipNoiseConfig, MaskFragConfig, SceneConfig,
                               generate_scene, mock_text_embeddings,
                               standard_oracle_outputs)
from cnslab.seeding import TAG_SOURCE, derive_rng
from cnslab.training import (METRIC_COLUMNS, TrainConfig, compute_self_labels,
                             init_state, predict_labels_2d, predict_labels_3d,
                             predictions, run_stage1, run_stage2, train,
                             write_metrics_csv)

from conftest import SMALL_SCENE, class_map, mutate


def short_config(**overrides):
    base = dict(stage1_epochs=2, total_epochs=4, seed=0)
    base.update(overrides)
    return TrainConfig(**base)


def _params_snapshot(bundle):
    return {name: arr.copy()
            for name, arr in param_views(bundle.config, bundle.params).items()}


def _params_equal(a, b):
    return all(np.array_equal(a[name], b[name]) for name in a)


# ---------------------------------------------------------------------------
# config validation


def test_train_config_validation():
    with pytest.raises(ValidationError):
        TrainConfig(stage1_epochs=5, total_epochs=3).validate()
    with pytest.raises(ValidationError, match="total_epochs"):
        TrainConfig(stage1_epochs=0, total_epochs=0).validate()
    with pytest.raises(ValidationError):
        TrainConfig(lr=0.0).validate()
    with pytest.raises(ValidationError):
        TrainConfig(batch_pixels=0).validate()
    with pytest.raises(ValidationError):
        TrainConfig(switch_probs_3d=(0.5, 0.5, 0.5, -0.5)).validate()
    with pytest.raises(ValidationError):
        TrainConfig(switch_probs_3d=(0.3, 0.3, 0.3, 0.3)).validate()
    with pytest.raises(ValidationError):
        TrainConfig(switch_probs_2d=(1.0, 0.0, 0.0, 0.0, 0.0)).validate()
    with pytest.raises(ValidationError):
        TrainConfig(latent_loss_weight=-0.1).validate()
    for seed in (2 ** 32, -1):
        with pytest.raises(ValidationError, match=r"2\*\*32"):
            TrainConfig(seed=seed).validate()
    TrainConfig(seed=2 ** 32 - 1).validate()
    TrainConfig().validate()


def test_probs_for_overrides():
    # Each network reads its own key; the other keeps the default.
    cfg = TrainConfig(switch_probs_2d=(1.0, 0.0, 0.0, 0.0))
    assert np.allclose(cfg.probs_for(0), [1, 0, 0, 0])
    assert np.allclose(cfg.probs_for(1), [0.25, 0.25, 0.25, 0.25])


# ---------------------------------------------------------------------------
# state initialization


def test_init_state_noiseless_labels_match_ground_truth(small_scene,
                                                        noiseless_oracles):
    state = init_state(small_scene, noiseless_oracles, short_config())
    corr = small_scene.correspondences()
    visible = np.zeros(len(small_scene.cloud), dtype=bool)
    visible[corr.point_index] = True
    clip2d, clip3d = state.labels3d[:2]
    assert np.array_equal(clip3d[visible], small_scene.cloud.gt_labels[visible])
    assert np.all(clip3d[~visible] == IGNORE)
    assert np.array_equal(state.labels2d[0],
                          state.data["gt_pixel"][corr.camera_index, corr.v, corr.u])
    assert np.array_equal(state.labels2d[1], clip3d[corr.point_index])
    assert np.array_equal(clip2d, clip3d)


def test_init_state_rejects_mismatched_embeddings(small_scene, small_oracles):
    oracles = dict(small_oracles)
    oracles["embeddings"] = mock_text_embeddings(7, 16, seed=1)
    with pytest.raises(ValidationError):
        init_state(small_scene, oracles, short_config())


def test_init_state_rejects_mismatched_model_dims(small_scene, small_oracles):
    bad = ModelConfig(input2d_dim=3, input3d_dim=3, embed_dim=16, sam_dim=8)
    with pytest.raises(ValidationError):
        init_state(small_scene, small_oracles, short_config(), bad)
    bad_sam = ModelConfig(input2d_dim=15, input3d_dim=16, embed_dim=16, sam_dim=4)
    with pytest.raises(ValidationError):
        init_state(small_scene, small_oracles, short_config(), bad_sam)


# ---------------------------------------------------------------------------
# stage mechanics


def test_stage1_zero_epochs_is_identity(small_scene, small_oracles):
    state = init_state(small_scene, small_oracles,
                       short_config(stage1_epochs=0, total_epochs=2))
    before = _params_snapshot(state.bundle)
    run_stage1(state)
    assert state.epoch == 0
    assert state.history == []
    assert _params_equal(before, _params_snapshot(state.bundle))


def test_stage1_rerun_is_noop(small_scene, small_oracles):
    state = init_state(small_scene, small_oracles,
                       short_config(stage1_epochs=1, total_epochs=1))
    run_stage1(state)
    after = _params_snapshot(state.bundle)
    run_stage1(state)  # already complete: must not train again
    assert state.epoch == 1
    assert len(state.history) == 1
    assert _params_equal(after, _params_snapshot(state.bundle))


def test_stage2_requires_stage1(small_scene, small_oracles):
    state = init_state(small_scene, small_oracles, short_config())
    with pytest.raises(ValidationError):
        run_stage2(state)


def test_one_epoch_uses_every_entry_once(small_scene, small_oracles, monkeypatch):
    # A batch size that does not divide the entry count: the last batch is short.
    state = init_state(small_scene, small_oracles,
                       short_config(batch_pixels=100, batch_points=128))
    data = state.data
    n_ent, num_points = state.labels2d.shape[1], state.labels3d.shape[1]
    assert n_ent % 100
    # Feature 0 of each descriptor column carries its entry or point index,
    # scaled by 2**-12 (exact in float32) so that training stays finite.
    data["x2d"] = data["x2d"].copy()
    data["x2d"][0] = np.arange(n_ent) * 2.0 ** -12
    data["desc3d"] = data["desc3d"].copy()
    data["desc3d"][0] = np.arange(num_points) * 2.0 ** -12
    batches = []

    def recording_step(bundle, batch, *args, **kwargs):
        # A full step reads C-contiguous blocks, one column per row.
        assert all(value.flags.c_contiguous for key, value in batch.items()
                   if key != "latent_weight") or len(batch["y2d"]) < 100
        batches.append({key: np.array(value) for key, value in batch.items()})
        return real_step(bundle, batch, *args, **kwargs)

    real_step = training.step
    monkeypatch.setattr(training, "step", recording_step)
    training._run_epoch(state, stage=1)

    assert [b["x2d"].shape[1] for b in batches] == [100] * (n_ent // 100) + [n_ent % 100]
    ents = (np.concatenate([b["x2d"][0] for b in batches]) * 2 ** 12).astype(np.int64)
    assert np.array_equal(np.sort(ents), np.arange(n_ent))
    pts = (np.concatenate([b["x3d"][0] for b in batches]) * 2 ** 12).astype(np.int64)
    assert len(pts) == 128 * len(batches) >= num_points
    counts = np.bincount(pts, minlength=num_points)
    assert counts.max() - counts.min() <= 1
    for b in batches:  # every term of a batch reads the same entries
        e = (b["x2d"][0] * 2 ** 12).astype(np.int64)
        p = (b["x3d"][0] * 2 ** 12).astype(np.int64)
        assert np.array_equal(b["x2d"], data["x2d"][:, e])
        assert np.array_equal(b["y2d"], state.labels2d[0, e])
        assert np.array_equal(b["x3d"], data["desc3d"][:, p])
        assert np.array_equal(b["y3d"], state.labels3d[1, p])
        assert np.array_equal(b["pair3d"][0] * 2 ** 12, data["corr"].point_index[e])
        assert np.array_equal(b["anchors"], data["anchors"][:, e])


def test_history_rows_have_metric_columns(small_scene, small_oracles):
    state = train(small_scene, small_oracles,
                  short_config(stage1_epochs=1, total_epochs=2))
    assert len(state.history) == 2
    assert state.history[0]["stage"] == 1
    assert state.history[1]["stage"] == 2
    for row in state.history:
        for col in METRIC_COLUMNS:
            assert col in row


# ---------------------------------------------------------------------------
# learning behaviour


def test_noiseless_training_reaches_high_miou(small_scene, noiseless_oracles):
    config = TrainConfig(stage1_epochs=10, total_epochs=10, seed=0)
    state = train(small_scene, noiseless_oracles, config)
    last = state.history[-1]
    assert last["miou2d"] > 0.95
    assert last["miou3d"] > 0.95


def test_zeroed_head_predicts_class_zero(rng):
    cfg = ModelConfig(input2d_dim=4, input3d_dim=4, hidden=(6,), latent_dim=5,
                      embed_dim=8, anchor_dim=4, sam_dim=3)
    bundle = make_bundle(cfg, mock_text_embeddings(5, 8, seed=1), seed=0)
    bundle.head_s3d[:] = 0.0
    bundle.head_s2d[:] = 0.0
    assert np.all(predict_labels_3d(bundle, feature_major(rng.standard_normal((20, 4)))) == 0)
    pixels = feature_major(rng.standard_normal((9, 4))).reshape(5, 1, 3, 3)
    assert np.all(predict_labels_2d(bundle, pixels) == 0)


def _random_inference_bundle(rng):
    # Many classes, so that a row the chunk loop skipped (left as whatever
    # np.empty held) rarely matches its label by chance.
    cfg = ModelConfig(input2d_dim=5, input3d_dim=6, hidden=(8, 7), latent_dim=6,
                      embed_dim=64, anchor_dim=4, sam_dim=3)
    bundle = make_bundle(cfg, mock_text_embeddings(24, 64, seed=1), seed=0)
    bundle.params[:] = rng.standard_normal(bundle.params.shape)
    return bundle


def _one_piece_labels(bundle, mlp, head, rows):
    """Argmax of the unfolded logits of feature-major rows: latent rows
    first, then the class map."""
    latent = mlp_forward(mlp, rows)[0]
    latent = np.vstack([latent, np.ones((1, latent.shape[1]), latent.dtype)])
    return np.argmax(class_logits(latent, class_map(bundle, head)), axis=0)


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_chunked_point_inference_matches_one_piece(offset):
    rng = np.random.default_rng(100 + offset)
    bundle = _random_inference_bundle(rng)
    desc = feature_major(rng.standard_normal((training._CHUNK + offset, 6)).astype(np.float32))
    before = desc.copy()
    pred = predict_labels_3d(bundle, desc)
    assert np.array_equal(desc, before)
    assert pred.shape == (desc.shape[1],)
    assert np.array_equal(pred, _one_piece_labels(bundle, bundle.enc3d, "s3d", desc))


def test_chunked_pixel_inference_matches_one_piece(rng):
    bundle = _random_inference_bundle(rng)
    rows = 3 * 17 * 29
    assert rows > training._CHUNK and rows % training._CHUNK != 0
    desc = feature_major(rng.standard_normal((rows, 5)).astype(np.float32))
    desc = desc.reshape(6, 3, 17, 29)
    before = desc.copy()
    pred = predict_labels_2d(bundle, desc)
    assert np.array_equal(desc, before)
    expect = _one_piece_labels(bundle, bundle.enc2d, "s2d", desc.reshape(6, -1))
    assert np.array_equal(pred, expect.reshape(3, 17, 29))


def test_inference_matches_the_unfolded_logits_on_the_small_scene(small_scene,
                                                                   small_oracles):
    state = init_state(small_scene, small_oracles, short_config(stage1_epochs=1))
    run_stage1(state)
    bundle, desc2d, desc3d = state.bundle, state.data["desc2d"], state.data["desc3d"]
    pixel = predict_labels_2d(bundle, desc2d)
    expect = _one_piece_labels(bundle, bundle.enc2d, "s2d",
                               desc2d.reshape(len(desc2d), -1))
    assert np.array_equal(pixel, expect.reshape(pixel.shape))
    assert np.array_equal(predict_labels_3d(bundle, desc3d),
                          _one_piece_labels(bundle, bundle.enc3d, "s3d", desc3d))


def test_all_oracle_switching_equals_pure_stage1(small_scene, small_oracles):
    # With the 2D network always drawing clip2d and the 3D network always
    # clip3d, stage 2 feeds both networks exactly the stage-1 supervision,
    # so the parameter trajectory must match a pure stage-1 run of the
    # same length.
    switched = train(small_scene, small_oracles,
                     short_config(stage1_epochs=1, total_epochs=3,
                                  switch_probs_2d=(1.0, 0.0, 0.0, 0.0),
                                  switch_probs_3d=(0.0, 1.0, 0.0, 0.0)))
    pure = train(small_scene, small_oracles,
                 short_config(stage1_epochs=3, total_epochs=3))
    assert _params_equal(_params_snapshot(switched.bundle),
                         _params_snapshot(pure.bundle))
    for row_a, row_b in zip(switched.history, pure.history):
        assert row_a["l_ce2d"] == row_b["l_ce2d"]
        assert row_a["l_ce3d"] == row_b["l_ce3d"]


@pytest.mark.parametrize("source", range(4))
def test_one_hot_source_is_the_same_per_element_and_per_batch(
        small_scene, small_oracles, source):
    # A one-hot draw picks one table row for every element, so the draw
    # granularity changes only how many numbers source_rng yields, and
    # that stream feeds nothing but the draws.
    probs = tuple(float(s == source) for s in range(4))
    runs = [train(small_scene, small_oracles,
                  short_config(stage1_epochs=1, total_epochs=3, switch_probs_2d=probs,
                               switch_probs_3d=probs, switch_per_element=per_element))
            for per_element in (False, True)]
    assert _params_equal(*(_params_snapshot(run.bundle) for run in runs))
    assert runs[0].history == runs[1].history


@pytest.mark.parametrize("per_element", [False, True])
def test_source_draws_equal_generator_choice(small_scene, small_oracles,
                                             per_element):
    config = short_config(switch_probs_2d=(0.1, 0.2, 0.3, 0.4),
                          switch_probs_3d=(0.5, 0.0, 0.0, 0.5),
                          switch_per_element=per_element)
    state = init_state(small_scene, small_oracles, config)
    reference = derive_rng(config.seed, TAG_SOURCE)
    counts = ((256, 256), (7, 1), (1, 7), (100, 256))
    draws2d, draws3d = training._draw_sources(
        state, np.array([c[0] for c in counts]), np.array([c[1] for c in counts]))
    for (count2d, count3d), draw2d, draw3d in zip(counts, draws2d, draws3d):
        size2d, size3d = (count2d, count3d) if per_element else (1, 1)
        np.testing.assert_array_equal(
            draw2d, reference.choice(4, size2d, p=config.probs_for(0)))
        np.testing.assert_array_equal(
            draw3d, reference.choice(4, size3d, p=config.probs_for(1)))
    assert state.source_rng.bit_generator.state == reference.bit_generator.state


def test_source_draw_frequencies(small_scene, small_oracles):
    probs = (0.4, 0.3, 0.2, 0.1)
    config = short_config(stage1_epochs=0, total_epochs=10,
                          switch_probs_2d=probs, switch_probs_3d=probs,
                          switch_per_element=True)
    state = init_state(small_scene, small_oracles, config)
    run_stage1(state)
    run_stage2(state)
    per_net = state.source_counts.sum(axis=1)
    assert per_net.min() >= 10_000
    freq = state.source_counts / per_net[:, None]
    assert np.max(np.abs(freq - np.asarray(probs))) < 0.02


def test_training_is_deterministic(small_scene, small_oracles):
    config = short_config(stage1_epochs=1, total_epochs=3)
    a = train(small_scene, small_oracles, config)
    b = train(small_scene, small_oracles, config)
    c = train(small_scene, small_oracles, short_config(stage1_epochs=1,
                                                       total_epochs=3, seed=1))
    assert _params_equal(_params_snapshot(a.bundle), _params_snapshot(b.bundle))
    assert not _params_equal(_params_snapshot(a.bundle),
                             _params_snapshot(c.bundle))
    for row_a, row_b in zip(a.history, b.history):
        assert row_a == row_b


def test_frozen_components_survive_training(small_scene, small_oracles):
    state = init_state(small_scene, small_oracles,
                       short_config(stage1_epochs=1, total_epochs=2))
    anchor = state.bundle.anchor_head.copy()
    embeddings = state.bundle.embeddings.copy()
    run_stage1(state)
    run_stage2(state)
    assert np.array_equal(state.bundle.anchor_head, anchor)
    assert np.array_equal(state.bundle.embeddings, embeddings)


def test_stage2_improves_3d_over_stage1_only():
    # Median over three seeds of the full default configuration: the 3D
    # network must end stage 2 above its own stage-1 exit point.
    gains = []
    for seed in (0, 1, 2):
        scene = generate_scene(SceneConfig(), seed)
        oracles = standard_oracle_outputs(scene, ClipNoiseConfig(),
                                          MaskFragConfig(), feat_dim=32,
                                          feat_sigma=0.1, embed_dim=64)
        state = train(scene, oracles, TrainConfig(seed=seed))
        stage1_rows = [row for row in state.history if row["stage"] == 1]
        gains.append(state.history[-1]["miou3d"] - stage1_rows[-1]["miou3d"])
    assert np.median(gains) > 0


# ---------------------------------------------------------------------------
# prediction and self-labels


def test_compute_self_labels_caches_refined_predictions(small_scene,
                                                        small_oracles):
    state = init_state(small_scene, small_oracles, short_config())
    self_pixel, self_point = compute_self_labels(state)
    views = len(small_scene.cameras)
    h, w = SMALL_SCENE.image_height, SMALL_SCENE.image_width
    assert self_pixel.shape == (views, h, w)
    assert self_point.shape == (len(small_scene.cloud),)
    corr = small_scene.correspondences()
    assert np.array_equal(state.labels2d[2],
                          self_pixel[corr.camera_index, corr.v, corr.u])
    assert np.array_equal(state.labels2d[3], self_point[corr.point_index])
    carried = transfer_labels(corr, self_pixel, len(self_point))
    assert np.array_equal(state.labels3d[2], carried)
    assert np.array_equal(state.labels3d[3], self_point)
    # Without refinement the self-labels are the raw predictions.
    raw_state = init_state(small_scene, small_oracles,
                           short_config(refine_labels=False))
    raw_pixel, raw_point = compute_self_labels(raw_state)
    assert np.array_equal(raw_pixel, predict_labels_2d(raw_state.bundle,
                                                       raw_state.data["desc2d"]))
    assert np.array_equal(raw_point, predict_labels_3d(raw_state.bundle,
                                                       raw_state.data["desc3d"]))


def test_one_inference_pass_per_parameter_version(small_scene, small_oracles,
                                                  monkeypatch):
    seen = []

    def counting(bundle, desc):
        seen.append(bundle.params.tobytes())
        return predict_labels_2d(bundle, desc)

    monkeypatch.setattr(training, "predict_labels_2d", counting)
    state = train(small_scene, small_oracles,
                  short_config(stage1_epochs=1, total_epochs=3))
    # The epoch metrics predict once per epoch; the two stage-2 refreshes
    # reuse the predictions of the epoch before them.
    assert len(seen) == 3 and len(set(seen)) == 3
    _score_label_row(small_scene, *predictions(state), state.data["gt_pixel"],
                     state.data["gt_point"])
    assert len(seen) == 3


def test_prediction_cache_follows_parameter_updates(small_scene, small_oracles):
    state = init_state(small_scene, small_oracles,
                       short_config(refine_labels=False))
    before_pixel, before_point = (a.copy() for a in compute_self_labels(state))
    training._run_epoch(state, stage=2)
    raw_pixel, raw_point = compute_self_labels(state)
    fresh_pixel = predict_labels_2d(state.bundle, state.data["desc2d"])
    fresh_point = predict_labels_3d(state.bundle, state.data["desc3d"])
    # The epoch changed both networks' predictions, so a stale cache fails.
    assert not np.array_equal(fresh_pixel, before_pixel)
    assert not np.array_equal(fresh_point, before_point)
    assert np.array_equal(raw_pixel, fresh_pixel)
    assert np.array_equal(raw_point, fresh_point)


# ---------------------------------------------------------------------------
# metrics CSV


def test_write_metrics_csv(tmp_path, small_scene, small_oracles):
    state = train(small_scene, small_oracles,
                  short_config(stage1_epochs=1, total_epochs=2))
    path = tmp_path / "metrics.csv"
    write_metrics_csv(state.history, path)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(METRIC_COLUMNS)
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "1"
    assert float(first[2]) == state.history[0]["l_ce2d"]
    # None metrics serialize as "absent".
    write_metrics_csv([{"epoch": 0, "stage": 1, "l_ce2d": 0.0, "l_ce3d": 0.0,
                        "l_latent": 0.0, "miou2d": None, "miou3d": None}],
                      path)
    assert path.read_text().splitlines()[1].endswith("absent,absent")


# ---------------------------------------------------------------------------
# the gradient check at the shipped model size


@pytest.fixture(scope="module")
def default_scene_inputs():
    """The default suite with its scene (seed 0), oracles and descriptors."""
    suite = SuiteConfig()
    scene = generate_scene(suite.scene, 0)
    oracles = standard_oracle_outputs(scene, suite.clip_noise, suite.frag,
                                      suite.feat_dim, suite.feat_sigma,
                                      suite.embed_dim)
    return suite, scene, oracles, training.scene_descriptors(scene)


def _stage1_batch(state, rng, rows=256):
    """A stage-1-shaped batch: oracle labels of both networks, latent term."""
    data = state.data
    ents = rng.choice(state.labels2d.shape[1], rows, replace=False)
    pts = rng.choice(state.labels3d.shape[1], rows, replace=False)
    return {"x2d": data["x2d"][:, ents], "y2d": state.labels2d[0, ents],
            "x3d": data["desc3d"][:, pts], "y3d": state.labels3d[1, pts],
            "pair3d": data["desc3d"][:, data["corr"].point_index[ents]],
            "anchors": data["anchors"][:, ents],
            "latent_weight": state.config.latent_loss_weight}


def _shipped_state(inputs, seed):
    suite, scene, oracles, descriptors = inputs
    config = TrainConfig(stage1_epochs=3, total_epochs=3, seed=seed)
    state = init_state(scene, oracles, config, suite.model_config(), descriptors)
    assert state.bundle.params.size == 16192
    return state


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_directional_gradient_check_at_the_shipped_size(default_scene_inputs, seed):
    # 384 elements of blocks up to 128 elements, and 8 directions in each
    # of the 8 larger blocks.
    state = _shipped_state(default_scene_inputs, seed)
    rng = np.random.default_rng(seed)
    for when in ("init", "after 3 epochs"):
        if when != "init":
            run_stage1(state)
        result = grad_check(state.bundle, _stage1_batch(state, rng))
        assert result.pairs == 448 and result.error < 1e-4, (when, result)


def test_shipped_size_check_catches_a_dropped_bias_term(default_scene_inputs,
                                                        monkeypatch):
    # The b_L s^T term of the head gradients is zero while the output
    # biases are, as at init; three epochs make it show.  The mutant
    # carries the head gradients back through W_L alone, not [W_L; b_L].
    state = _shipped_state(default_scene_inputs, 0)
    run_stage1(state)
    batch = _stage1_batch(state, np.random.default_rng(0))
    mutate(monkeypatch, nncore, "_backward",
           "np.matmul(p.mlp.layers[-1].T, g, out=d_map[:-1])",
           "np.matmul(p.mlp.layers[-1][:-1].T, g[:-1], out=d_map[:-1])")
    assert grad_check(state.bundle, batch).error > 1e-4


def test_readme_library_quick_start_prints_its_comment():
    # README's library quick start trains the default scene for 30 epochs
    # and states the last epoch's mIoU at three decimals.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Quick start (library)", 1)[1]
    snippet = section.split("```python\n", 1)[1].split("```", 1)[0]
    comment = re.search(r"# \{'epoch': (\d+), \.\.\., 'miou2d': ([\d.]+), "
                        r"'miou3d': ([\d.]+)\}", snippet)
    assert comment, "the quick start's print has no epoch/mIoU comment"
    scope = {}
    exec(compile(snippet, "README.md", "exec"), scope)
    last = scope["state"].history[-1]
    assert (str(last["epoch"]), f"{last['miou2d']:.3f}",
            f"{last['miou3d']:.3f}") == comment.groups()
