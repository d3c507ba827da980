"""The correctness checker must reject broken outputs, not only pass good ones."""

from pathlib import Path

import pytest

from checks import (CheckFailed, Fingerprints, check_bundle_roundtrip,
                    check_refine_csv, check_report, check_train_eval)

METRICS_HEADER = "epoch,stage,l_ce2d,l_ce3d,l_latent,miou2d,miou3d\n"


@pytest.fixture(scope="module")
def small_scene():
    from cnslab.scenesynth import (ClipNoiseConfig, MaskFragConfig, SceneConfig,
                                   generate_scene, standard_oracle_outputs)

    scene = generate_scene(SceneConfig(image_width=32, image_height=32,
                                       focal=24.0, camera_count=2), seed=3)
    oracles = standard_oracle_outputs(scene, ClipNoiseConfig(), MaskFragConfig(),
                                      feat_dim=8, feat_sigma=0.1, embed_dim=64)
    return scene, oracles


def test_bundle_roundtrip_accepts_an_intact_bundle(small_scene, tmp_path):
    from cnslab.bundle import write_bundle

    scene, oracles = small_scene
    write_bundle(scene, oracles, tmp_path / "bundle")
    back = check_bundle_roundtrip(scene, oracles, tmp_path / "bundle")
    assert len(back.cloud) == len(scene.cloud)


def test_bundle_roundtrip_rejects_a_truncated_bundle(small_scene, tmp_path):
    from cnslab.bundle import write_bundle

    scene, oracles = small_scene
    write_bundle(scene, oracles, tmp_path / "bundle")
    victim = tmp_path / "bundle" / "view_1.scores.bin"
    victim.write_bytes(victim.read_bytes()[:-7])
    with pytest.raises(CheckFailed, match="view_1.scores.bin"):
        check_bundle_roundtrip(scene, oracles, tmp_path / "bundle")


def test_bundle_roundtrip_rejects_changed_arrays(small_scene, tmp_path):
    from cnslab.bundle import write_bundle
    from cnslab.scenesynth import MaskMap

    scene, oracles = small_scene
    write_bundle(scene, oracles, tmp_path / "bundle")
    changed = dict(oracles, masks=list(oracles["masks"]))
    changed["masks"][0] = MaskMap(oracles["masks"][0].mask_ids[::-1])
    with pytest.raises(CheckFailed, match="view_0.masks"):
        check_bundle_roundtrip(scene, changed, tmp_path / "bundle")


def _train_eval_files(tmp: Path, last_miou2d: str, eval_miou2d: str,
                      loss: str = "0.5"):
    (tmp / "metrics.csv").write_text(
        METRICS_HEADER
        + "0,1,0.9,0.8,0.7,0.5,0.6\n"
        + f"1,2,{loss},0.4,0.3,{last_miou2d},0.875\n")
    (tmp / "eval.csv").write_text(
        f"domain,miou\npixels,{eval_miou2d}\npoints,0.875\n")
    return tmp / "metrics.csv", tmp / "eval.csv"


def test_train_eval_accepts_matching_miou(tmp_path):
    files = _train_eval_files(tmp_path, "0.8856837269683118", "0.8856837269683118")
    assert check_train_eval(*files) == {"miou2d": 0.8856837269683118,
                                        "miou3d": 0.875}


def test_train_eval_rejects_a_miou_mismatch(tmp_path):
    files = _train_eval_files(tmp_path, "0.8856837269683118", "0.8856837269683119")
    with pytest.raises(CheckFailed, match="pixels"):
        check_train_eval(*files)


def test_train_eval_rejects_a_non_finite_loss(tmp_path):
    files = _train_eval_files(tmp_path, "0.5", "0.5", loss="nan")
    with pytest.raises(CheckFailed, match="l_ce2d"):
        check_train_eval(*files)


def test_refine_csv_must_parse(tmp_path):
    good = ("scope,raw_error,refined_error,mask_purity\n"
            "view_0,0.4,0.2,0.9\nview_1,0.3,0.1,0.95\npoints,0.42,0.27,absent\n")
    (tmp_path / "refine.csv").write_text(good)
    assert check_refine_csv(tmp_path / "refine.csv") == {"refined_err3d": 0.27}
    (tmp_path / "refine.csv").write_text(good.replace("0.27", "absent"))
    with pytest.raises(CheckFailed, match="points refined_error"):
        check_refine_csv(tmp_path / "refine.csv")


def test_report_rejects_error_cells_and_absent_medians(tmp_path):
    header = "row,seed,miou2d,miou3d,err2d,err3d,coverage3d,config_hash,error\n"
    ok = "full,4,0.8,0.7,0.1,0.2,1.0,abc,\n"
    (tmp_path / "report.txt").write_text("full 0.8000 0.7000\n")
    (tmp_path / "report.csv").write_text(header + ok)
    scores = check_report(tmp_path / "report.csv", tmp_path / "report.txt",
                          ["full"], 4)
    assert scores["full"]["err3d"] == 0.2
    (tmp_path / "report.csv").write_text(
        header + "full,4,absent,absent,absent,absent,absent,abc,boom\n")
    with pytest.raises(CheckFailed, match="boom"):
        check_report(tmp_path / "report.csv", tmp_path / "report.txt",
                     ["full"], 4)
    (tmp_path / "report.csv").write_text(header + ok)
    (tmp_path / "report.txt").write_text("full absent absent\n")
    with pytest.raises(CheckFailed, match="absent"):
        check_report(tmp_path / "report.csv", tmp_path / "report.txt",
                     ["full"], 4)


def test_fingerprints_flag_a_repeat_that_differs(tmp_path):
    out = tmp_path / "out.csv"
    prints = Fingerprints()
    out.write_text("a\n")
    first = prints.check("seed0", {"out.csv": out})
    assert prints.check("seed0", {"out.csv": out}) == first
    out.write_text("b\n")
    assert prints.check("seed1", {"out.csv": out}) != first
    with pytest.raises(CheckFailed, match="out.csv"):
        prints.check("seed0", {"out.csv": out})


def test_held_out_seed_is_documented_and_outside_the_tuning_seeds():
    import run

    readme = (Path(run.__file__).parent / "README.md").read_text()
    assert f"held-out seed is {run.HELD_OUT_SEED}" in readme
    assert run.HELD_OUT_SEED not in run.TUNING_SEEDS
