"""Tests for the ablation suite runner and its reports.

The heavy ordering claims of the standard campaign are exercised by the
acceptance tests; here a miniature campaign checks row wiring, report
determinism, error capture, and the pre-generated-scene path.
"""

import dataclasses
import hashlib
import typing
import warnings

import numpy as np
import pytest

from cnslab import ablation, training
from cnslab.ablation import (SuiteConfig, row_train_config, run_ablation,
                             write_report_csv, write_report_text)
from cnslab.errors import ConfigError, ValidationError
from cnslab.nncore import ModelConfig
from cnslab.scenesynth import (PIXEL_DESC_DIM, POINT_DESC_DIM, ClipNoiseConfig,
                               MaskFragConfig, SceneConfig, generate_scene,
                               standard_oracle_outputs)
from cnslab.training import TrainConfig, scene_descriptors, train

TINY_SCENE = SceneConfig(object_count=4, points_per_object=120,
                         background_points=500, num_classes=5, camera_count=3,
                         image_width=32, image_height=32, focal=24.0)


def tiny_suite(**overrides):
    base = dict(scene=TINY_SCENE,
                clip_noise=ClipNoiseConfig(eps=0.4, block=4),
                frag=MaskFragConfig(3, 1), feat_dim=8, feat_sigma=0.1,
                embed_dim=16, anchor_dim=8, hidden=(32,), latent_dim=24,
                train=TrainConfig(stage1_epochs=1, total_epochs=3),
                seeds=(0,), rows=("baseline", "wo_cns", "full"))
    base.update(overrides)
    return SuiteConfig(**base)


# ---------------------------------------------------------------------------
# row configurations


def test_row_train_config_mapping():
    base = TrainConfig()
    assert row_train_config("baseline", base) is None
    assert row_train_config("wo_cns", base) is None
    assert row_train_config("wo_refine", base).refine_labels is False
    ct = row_train_config("wo_ct", base)
    assert ct.switch_probs_2d == (0.5, 0.0, 0.5, 0.0)
    assert ct.switch_probs_3d == (0.0, 0.5, 0.0, 0.5)
    sct = row_train_config("wo_sct", base)
    assert sct.stage1_epochs == sct.total_epochs
    clip = row_train_config("wo_clip", base)
    assert clip.switch_probs_2d == clip.switch_probs_3d == (0.0, 0.0, 0.5, 0.5)
    assert row_train_config("wo_latent", base).latent_loss_weight == 0.0
    assert row_train_config("full", base) == base
    with pytest.raises(ConfigError):
        row_train_config("wo_everything", base)


def test_suite_config_validation():
    with pytest.raises(ConfigError):
        tiny_suite(seeds=()).validate()
    with pytest.raises(ConfigError):
        tiny_suite(rows=("baseline", "extra")).validate()
    for seed in (2 ** 32, -1):
        with pytest.raises(ConfigError):
            tiny_suite(seeds=(0, seed)).validate()
    tiny_suite().validate()
    tiny_suite(seeds=(2 ** 32 - 1,)).validate()


# A valid instance of every config dataclass that has a validate().
_VALID_CONFIGS = [SceneConfig(), ClipNoiseConfig(), MaskFragConfig(), TrainConfig(),
                  ModelConfig(PIXEL_DESC_DIM, POINT_DESC_DIM), SuiteConfig()]
NAN_CASES = [(config, f.name) for config in _VALID_CONFIGS
             for f in dataclasses.fields(config)
             if typing.get_type_hints(type(config))[f.name] is float]


def test_nan_cases_cover_every_float_field():
    assert {(type(config).__name__, name) for config, name in NAN_CASES} >= {
        ("SceneConfig", "focal"), ("SceneConfig", "placement_margin"),
        ("TrainConfig", "lr"),
        ("TrainConfig", "latent_loss_weight"), ("TrainConfig", "descriptor_noise"),
        ("ModelConfig", "temperature"), ("SuiteConfig", "feat_sigma"),
        ("SuiteConfig", "temperature")}


@pytest.mark.parametrize("config, name", NAN_CASES,
                         ids=[f"{type(c).__name__}.{n}" for c, n in NAN_CASES])
def test_nan_float_field_fails_validate(config, name):
    config.validate()
    with pytest.raises(ValidationError, match=name):
        dataclasses.replace(config, **{name: float("nan")}).validate()


@pytest.mark.parametrize("name", ["switch_probs_2d", "switch_probs_3d"])
def test_nan_switch_probs_fail_validate(name):
    with pytest.raises(ValidationError, match=name):
        TrainConfig(**{name: (float("nan"), 0.25, 0.25, 0.5)}).validate()


# ---------------------------------------------------------------------------
# running a miniature campaign


@pytest.fixture(scope="module")
def tiny_report():
    return run_ablation(tiny_suite())


def test_report_structure(tiny_report):
    assert [e["row"] for e in tiny_report.rows] == ["baseline", "wo_cns", "full"]
    for entry in tiny_report.rows:
        assert entry["seed"] == 0
        assert "error" not in entry
        assert 0.0 <= entry["miou2d"] <= 1.0
        assert 0.0 <= entry["miou3d"] <= 1.0
    assert set(tiny_report.medians) == {"baseline", "wo_cns", "full"}
    assert set(tiny_report.row_hashes) == {"baseline", "wo_cns", "full"}
    assert len(tiny_report.suite_hash) == 16


def test_untrained_rows_have_partial_point_coverage(tiny_report):
    # Projection labels leave invisible points IGNORE; trained networks
    # label everything.
    by_row = {e["row"]: e for e in tiny_report.rows}
    assert by_row["baseline"]["coverage3d"] < 1.0
    assert by_row["wo_cns"]["coverage3d"] == by_row["baseline"]["coverage3d"]
    assert by_row["full"]["coverage3d"] == 1.0


def test_mask_refinement_improves_point_labels(tiny_report):
    by_row = {e["row"]: e for e in tiny_report.rows}
    assert by_row["wo_cns"]["miou3d"] > by_row["baseline"]["miou3d"]
    assert by_row["wo_cns"]["err3d"] < by_row["baseline"]["err3d"]


def test_reports_are_deterministic(tiny_report, tmp_path):
    again = run_ablation(tiny_suite())
    for a, b in zip(tiny_report.rows, again.rows):
        assert a["miou2d"] == b["miou2d"]
        assert a["miou3d"] == b["miou3d"]
    write_report_csv(tiny_report, tmp_path / "a.csv")
    write_report_csv(again, tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    write_report_text(tiny_report, tmp_path / "a.txt")
    write_report_text(again, tmp_path / "b.txt")
    assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()


def test_pregenerated_scenes_match_generated(tiny_report):
    suite = tiny_suite()
    scene = generate_scene(suite.scene, 0)
    oracles = standard_oracle_outputs(scene, suite.clip_noise, suite.frag,
                                      suite.feat_dim, suite.feat_sigma,
                                      suite.embed_dim)
    report = run_ablation(suite, scenes={0: (scene, oracles)})
    for a, b in zip(report.rows, tiny_report.rows):
        assert a["miou2d"] == b["miou2d"]
        assert a["miou3d"] == b["miou3d"]


def test_row_failure_is_captured_not_fatal(tmp_path):
    suite = tiny_suite(train=TrainConfig(stage1_epochs=1, total_epochs=3,
                                         lr=1e300),
                       rows=("baseline", "full"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        report = run_ablation(suite)
    by_row = {e["row"]: e for e in report.rows}
    assert "error" not in by_row["baseline"]
    assert "non-finite" in by_row["full"]["error"]
    assert report.medians["full"]["miou2d"] is None
    assert report.medians["baseline"]["miou2d"] is not None
    write_report_csv(report, tmp_path / "report.csv")
    lines = (tmp_path / "report.csv").read_text().splitlines()
    assert lines[0].startswith("row,seed,miou2d")
    assert any("non-finite" in line for line in lines)
    write_report_text(report, tmp_path / "report.txt")
    assert "FAILED full seed 0" in (tmp_path / "report.txt").read_text()


def test_report_csv_canonical_order(tmp_path):
    suite = tiny_suite(rows=("full", "baseline"), seeds=(1, 0))
    report = run_ablation(suite)
    write_report_csv(report, tmp_path / "report.csv")
    lines = (tmp_path / "report.csv").read_text().splitlines()[1:]
    heads = [tuple(line.split(",")[:2]) for line in lines]
    assert heads == [("baseline", "0"), ("baseline", "1"),
                     ("full", "0"), ("full", "1")]


def test_median_over_seeds():
    suite = tiny_suite(rows=("baseline",), seeds=(0, 1, 2))
    report = run_ablation(suite)
    vals = [e["miou3d"] for e in report.rows]
    assert report.medians["baseline"]["miou3d"] == pytest.approx(np.median(vals))


# ---------------------------------------------------------------------------
# descriptors shared by the trained rows of a seed

# report.csv of shared_suite().  Its figures are those of a run in which
# every trained row built its own descriptors and ran its own stage 1.
SHARED_REPORT_SHA256 = \
    "536d28a560ff2f43e6a3141c3471886b279cef7b2035c9ddb3c816b96e7b633f"


def shared_suite(**overrides):
    return tiny_suite(**{"rows": ("baseline", "wo_refine", "wo_clip", "full"),
                         "seeds": (0, 1),
                         "train": TrainConfig(stage1_epochs=2, total_epochs=6,
                                              lr=0.3), **overrides})


@pytest.fixture()
def descriptor_builds(monkeypatch):
    builds = []

    def counting(scene, noise):
        builds.append(scene.seed)
        return scene_descriptors(scene, noise)

    monkeypatch.setattr(ablation, "scene_descriptors", counting)
    return builds


def test_trained_rows_share_one_descriptor_build_per_seed(descriptor_builds,
                                                          tmp_path):
    report = run_ablation(shared_suite())
    assert descriptor_builds == [0, 1]
    assert not any("error" in entry for entry in report.rows)
    write_report_csv(report, tmp_path / "report.csv")
    digest = hashlib.sha256((tmp_path / "report.csv").read_bytes()).hexdigest()
    assert digest == SHARED_REPORT_SHA256


def test_label_only_rows_build_no_descriptors(descriptor_builds):
    run_ablation(shared_suite(rows=("baseline", "wo_cns")))
    assert descriptor_builds == []


def test_a_row_with_its_own_descriptor_noise_trains_on_its_own_descriptors(
        monkeypatch):
    suite = shared_suite(seeds=(0,))
    own_noise = suite.train.descriptor_noise + 0.01
    built = {}

    def building(scene, noise):
        built[noise] = scene_descriptors(scene, noise)
        return built[noise]

    def row_config(row, base):
        cfg = row_train_config(row, base)
        if row == "full":
            cfg = dataclasses.replace(cfg, descriptor_noise=own_noise)
        return cfg

    trained_on = []

    def recording(scene, oracles, cfg, model_config, descriptors, start):
        trained_on.append(descriptors is built[cfg.descriptor_noise])
        return train(scene, oracles, cfg, model_config, descriptors, start=start)

    monkeypatch.setattr(ablation, "scene_descriptors", building)
    monkeypatch.setattr(ablation, "row_train_config", row_config)
    monkeypatch.setattr(ablation, "train", recording)
    run_ablation(suite)
    assert sorted(built) == [suite.train.descriptor_noise, own_noise]
    assert trained_on == [True, True, True]


def test_shared_descriptors_train_the_same_parameters(small_scene, small_oracles):
    config = TrainConfig(stage1_epochs=1, total_epochs=3)
    own = train(small_scene, small_oracles, config)
    descriptors = scene_descriptors(small_scene, config.descriptor_noise)
    shared = train(small_scene, small_oracles, config, descriptors=descriptors)
    assert own.bundle.params.tobytes() == shared.bundle.params.tobytes()
    assert own.history == shared.history


# ---------------------------------------------------------------------------
# warm-ups shared by the trained rows of a seed

WARMUP_ROWS = ("full", "wo_ct", "wo_clip", "wo_sct", "wo_latent")


def warmup_suite():
    return tiny_suite(rows=WARMUP_ROWS,
                      train=TrainConfig(stage1_epochs=2, total_epochs=5))


def test_rows_sharing_a_warm_up_end_like_standalone_runs(monkeypatch, small_scene,
                                                         small_oracles):
    suite = warmup_suite()
    finished = {}
    inits, stage1_epochs = [], []
    init_state, run_epoch = training.init_state, training._run_epoch

    def recording(scene, oracles, cfg, model_config, descriptors, start):
        state = train(scene, oracles, cfg, model_config, descriptors, start=start)
        finished[cfg] = state
        return state

    def counting_init(*args, **kwargs):
        inits.append(args[2])
        return init_state(*args, **kwargs)

    def counting_epoch(state, stage):
        if stage == 1:
            stage1_epochs.append(state.epoch)
        return run_epoch(state, stage)

    monkeypatch.setattr(ablation, "train", recording)
    monkeypatch.setattr(ablation, "init_state", counting_init)
    monkeypatch.setattr(training, "init_state", counting_init)
    monkeypatch.setattr(training, "_run_epoch", counting_epoch)
    report = run_ablation(suite, {0: (small_scene, small_oracles)})
    assert not any("error" in entry for entry in report.rows)
    # full, wo_ct, wo_clip and wo_sct share one init and two stage-1
    # epochs; wo_sct then runs its other three, and wo_latent shares nothing.
    assert len(inits) == 2
    assert sorted(stage1_epochs) == [0, 0, 1, 1, 2, 3, 4]
    monkeypatch.undo()
    assert len(finished) == len(WARMUP_ROWS)
    for cfg, state in finished.items():
        alone = train(small_scene, small_oracles, cfg, suite.model_config())
        assert state.config == cfg
        assert state.bundle.params.tobytes() == alone.bundle.params.tobytes()
        assert state.history == alone.history
        assert np.array_equal(state.source_counts, alone.source_counts)


def test_a_failed_warm_up_fails_every_row_of_its_group(monkeypatch):
    # Every row but wo_latent trains with the latent loss and shares a warm-up.
    init_state = training.init_state

    def failing(scene, oracles, cfg, *args):
        if cfg.latent_loss_weight > 0:
            raise ValidationError("warm-up failure")
        return init_state(scene, oracles, cfg, *args)

    monkeypatch.setattr(ablation, "init_state", failing)
    monkeypatch.setattr(training, "init_state", failing)
    report = run_ablation(warmup_suite())
    errors = {entry["row"]: entry.get("error") for entry in report.rows}
    assert errors == {row: None if row == "wo_latent" else "warm-up failure"
                      for row in WARMUP_ROWS}


def warmed_up(scene, oracles, config, epochs):
    return training.run_stage1(training.init_state(scene, oracles, config), epochs)


def test_a_warm_up_refuses_a_config_it_does_not_fit(small_scene, small_oracles):
    base = TrainConfig(stage1_epochs=1, total_epochs=2)
    start = warmed_up(small_scene, small_oracles, base, 1)
    train(small_scene, small_oracles, base, start=start)
    for other in (dataclasses.replace(base, lr=0.2),
                  dataclasses.replace(base, stage1_epochs=0)):
        with pytest.raises(ValidationError, match="does not share"):
            train(small_scene, small_oracles, other, start=start)


def _fingerprint(state):
    """Bytes of everything a run changes on its state."""
    return (state.bundle.params.tobytes(), state.epoch, repr(state.history),
            state.labels2d.tobytes(), state.labels3d.tobytes(),
            repr(state.shuffle_rng.bit_generator.state),
            repr(state.source_rng.bit_generator.state),
            state.source_counts.tobytes())


def test_a_run_from_a_warm_up_leaves_it_unchanged(small_scene, small_oracles):
    config = TrainConfig(stage1_epochs=2, total_epochs=4)
    start = warmed_up(small_scene, small_oracles, config, 1)
    before = _fingerprint(start)
    first = train(small_scene, small_oracles, config, start=start)
    assert _fingerprint(start) == before
    second = train(small_scene, small_oracles, config, start=start)
    assert _fingerprint(start) == before
    assert _fingerprint(first) == _fingerprint(second)
    alone = train(small_scene, small_oracles, config)
    assert _fingerprint(first) == _fingerprint(alone)
