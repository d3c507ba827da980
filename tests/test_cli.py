"""End-to-end tests for the command-line front end.

Everything runs in process through `cli.main(argv)` so exit codes and
artifacts can be asserted directly.  A module-scoped fixture runs the
full synth -> refine -> train -> eval -> ablate flow once on a tiny
scene; individual tests then inspect each stage's outputs.
"""

import hashlib
import os
import re
import shutil
import subprocess
import sys
import textwrap
import typing
import warnings
from pathlib import Path

import numpy as np
import pytest

from cnslab import cli, nncore, training
from cnslab.bundle import read_manifest, read_raster, write_raster
from cnslab.errors import ConfigError
from cnslab.scenesynth import mock_text_embeddings

from conftest import PINS_RECORDED_UNDER, TINY_TRAIN, kernels

TINY_CFG = dict(TINY_TRAIN, feat_dim=8, embed_dim=16, anchor_dim=8,
                hidden="32", latent_dim=24, stage1_epochs=1, total_epochs=2,
                seed=11, seeds="0", rows="baseline,full")


def _write_cfg(path):
    path.write_text("# tiny pipeline configuration\n"
                    + "\n".join(f"{k}={v}" for k, v in TINY_CFG.items()) + "\n")
    return path


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run every subcommand once; return the run directory root."""
    root = tmp_path_factory.mktemp("cli")
    cfg = _write_cfg(root / "tiny.cfg")
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("CNS_LOG", raising=False)
        base = ["--config", str(cfg)]
        bundle_dir = str(root / "synth" / "bundle")
        assert cli.main(["synth", *base, "--out", str(root / "synth")]) == 0
        assert cli.main(["refine", bundle_dir, *base,
                         "--out", str(root / "refine")]) == 0
        assert cli.main(["train", bundle_dir, *base,
                         "--out", str(root / "train")]) == 0
        assert cli.main(["eval", bundle_dir, str(root / "train" / "checkpoint.ckpt"),
                         *base, "--out", str(root / "eval")]) == 0
        assert cli.main(["ablate", *base, "--out", str(root / "ablate")]) == 0
    return root


# ---------------------------------------------------------------------------
# artifacts per stage


def test_synth_outputs(pipeline, small_scene):
    manifest = read_manifest(pipeline / "synth" / "bundle" / "manifest.txt")
    # seed=11 in the config reproduces the shared test scene.
    assert manifest["num_points"] == str(len(small_scene.cloud))
    assert manifest["num_views"] == "3"
    assert manifest["num_classes"] == "5"


def test_resolved_config_echo(pipeline):
    for stage in ("synth", "refine", "train", "eval", "ablate"):
        lines = (pipeline / stage / "resolved.cfg").read_text().splitlines()
        pairs = dict(line.split("=", 1) for line in lines)
        assert list(pairs) == list(cli.SCHEMA), stage
        assert pairs["object_count"] == "4"
        assert pairs["total_epochs"] == "2"
        assert pairs["switch_probs_2d"] == "0.25,0.25,0.25,0.25"
        assert pairs["rows"] == "baseline,full"


def test_resolved_config_round_trips(tmp_path):
    cfg = _write_cfg(tmp_path / "tiny.cfg")
    first, second = tmp_path / "a", tmp_path / "b"
    assert cli.main(["synth", "--config", str(cfg), "--out", str(first),
                     "--switch_per_element", "true", "--feat_sigma", "0.5",
                     "--hidden", "16,8", "--switch_probs_2d", "0.5,0,0.5,0",
                     "--rows", "full,wo_cns"]) == 0
    echoed = (first / "resolved.cfg").read_text().splitlines()
    for line in ("switch_per_element=true", "feat_sigma=0.5", "hidden=16,8",
                 "switch_probs_2d=0.5,0.0,0.5,0.0", "rows=full,wo_cns"):
        assert line in echoed
    assert cli.main(["synth", "--config", str(first / "resolved.cfg"),
                     "--out", str(second)]) == 0
    assert (second / "resolved.cfg").read_bytes() == \
        (first / "resolved.cfg").read_bytes()


def test_every_key_reaches_the_suite_config():
    defaults = {key: entry.default for key, entry in cli.SCHEMA.items()}
    base = cli.RunConfig(defaults).suite_config()
    for key in cli.SCHEMA:
        # A fresh object differs from every default, whatever the key's type.
        changed = cli.RunConfig({**defaults, key: object()}).suite_config()
        assert changed != base, key


def test_refine_outputs(pipeline, small_scene):
    lines = (pipeline / "refine" / "refine.csv").read_text().splitlines()
    assert lines[0] == "scope,raw_error,refined_error,mask_purity"
    scopes = [line.split(",")[0] for line in lines[1:]]
    assert scopes == ["view_0", "view_1", "view_2", "points"]
    for line in lines[1:]:
        _, raw_err, ref_err, _ = line.split(",")
        assert 0.0 <= float(raw_err) <= 1.0
        assert 0.0 <= float(ref_err) <= 1.0
    labels = read_raster(pipeline / "refine" / "view_0.labels.bin")
    assert labels.shape == (32, 32, 1)
    assert labels.min() >= -1 and labels.max() < 5
    points = read_raster(pipeline / "refine" / "point_labels.bin")
    assert points.shape == (len(small_scene.cloud), 1, 1)


def test_refine_prints_its_csv_cells(pipeline, tmp_path, capsys):
    cfg = _write_cfg(tmp_path / "tiny.cfg")
    assert cli.main(["refine", str(pipeline / "synth" / "bundle"), "--config", str(cfg),
                     "--out", str(tmp_path / "r")]) == 0
    header, *rows = [line.split(",") for line in
                     (tmp_path / "r" / "refine.csv").read_text().splitlines()]
    printed = capsys.readouterr().out.splitlines()
    assert printed == [f"{scope}: " + " ".join(f"{name}={cell}" for name, cell
                                               in zip(header[1:], cells))
                       for scope, *cells in rows]
    assert printed[-1].endswith(" mask_purity=absent")


def test_train_outputs(pipeline):
    model, meta = nncore.load_checkpoint(pipeline / "train" / "checkpoint.ckpt")
    assert meta["num_classes"] == "5"
    assert "x_train_hash" in meta
    lines = (pipeline / "train" / "metrics.csv").read_text().splitlines()
    assert lines[0] == "epoch,stage,l_ce2d,l_ce3d,l_latent,miou2d,miou3d"
    assert len(lines) == 1 + TINY_CFG["total_epochs"]
    assert lines[1].split(",")[1] == "1" and lines[-1].split(",")[1] == "2"


def test_eval_outputs(pipeline):
    lines = (pipeline / "eval" / "eval.csv").read_text().splitlines()
    assert lines[0] == "domain,miou"
    values = dict(line.split(",") for line in lines[1:])
    assert set(values) == {"pixels", "points"}
    for text in values.values():
        assert 0.0 <= float(text) <= 1.0


def test_ablate_outputs(pipeline):
    csv_lines = (pipeline / "ablate" / "report.csv").read_text().splitlines()
    assert csv_lines[0].startswith("row,seed,miou2d,miou3d")
    assert [line.split(",")[0] for line in csv_lines[1:]] == ["baseline", "full"]
    text = (pipeline / "ablate" / "report.txt").read_text()
    assert "baseline" in text and "full" in text
    assert "FAILED" not in text


# ---------------------------------------------------------------------------
# gradcheck


def test_gradcheck_passes(capsys):
    assert cli.main(["gradcheck"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "gradcheck passed (tolerance 0.0001)" in lines
    assert "anchor head gradient: identically zero (frozen)" in lines
    # Each line is the check of its kind with the worst error; the full
    # step reads every parameter of GRADCHECK_MODEL and probes each one.
    for kind, line in zip(("ce2d", "ce3d", "latent", "step"), lines):
        assert re.fullmatch(rf"{kind}: max relative error \S+ "
                            rf"\(skipped \d+ of \d+ probe pairs\)", line), line
    assert re.fullmatch(r"step: .* \(skipped 0 of 748 probe pairs\)", lines[3])


def test_gradcheck_failure_is_numerical_exit(monkeypatch, capsys):
    monkeypatch.setattr(nncore, "grad_check", lambda *a, **k: nncore.GradCheck(1.0, 0, 1))
    assert cli.main(["gradcheck"]) == 2
    assert "numerical abort" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# configuration errors


def test_unknown_key_is_rejected(tmp_path, capsys):
    code = cli.main(["synth", "--out", str(tmp_path / "x"), "--bogus", "3"])
    assert code == 1
    assert "unknown config key" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [[], ["bogus"], ["synth"], ["train", "--out", "x"]],
                         ids=["no-command", "bogus-command", "synth-no-out",
                              "train-no-bundle"])
def test_usage_error_is_a_validation_exit(argv, capsys):
    assert cli.main(argv) == 1
    assert "error: cnslab" in capsys.readouterr().err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    assert "usage: cnslab" in capsys.readouterr().out


def test_bad_value_is_rejected(tmp_path, capsys):
    code = cli.main(["synth", "--out", str(tmp_path / "x"),
                     "--object_count", "many"])
    assert code == 1
    assert "bad value" in capsys.readouterr().err
    # Before each network's source probabilities became one plain key, an
    # unset one was echoed as "none"; no key reads that value now.
    old = tmp_path / "old.cfg"
    old.write_text("switch_probs_2d=none\n")
    assert cli.main(["synth", "--config", str(old), "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "bad value 'none' for key 'switch_probs_2d'" in err
    assert "Traceback" not in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("option, value, message", [
    ("--seeds", "0,0,1", "each seed may be given once"),
    ("--rows", "baseline,wo_cns,baseline", "each row may be given once"),
    ("--rows", "", "need at least one row")],
    ids=["repeated-seed", "repeated-row", "no-rows"])
def test_ablate_refuses_a_repeated_seed_or_row_and_no_rows(tmp_path, capsys,
                                                           option, value, message):
    # A repeated seed or row would count one run twice in the medians.
    assert cli.main(["ablate", "--out", str(tmp_path / "x"), option, value]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not (tmp_path / "x").exists()


# Deleted keys, each with its old default.
REMOVED_KEYS = {"margin": "1.0", "multiview": "first-camera",
                "camera_radius": "none", "camera_height": "none",
                "switch_probs": "0.25,0.25,0.25,0.25",
                "refine3d_mode": "transfer-masks", "descriptor_noise": "0.02",
                "temperature": "1.0", "min_box_size": "0.8", "max_box_size": "2.2",
                "placement_margin": "0.25", "max_place_attempts": "1000"}


@pytest.mark.parametrize("key", sorted(REMOVED_KEYS))
def test_an_old_resolved_config_with_a_removed_key_is_refused(pipeline, tmp_path,
                                                              capsys, key):
    old = tmp_path / "resolved.cfg"
    old.write_text((pipeline / "synth" / "resolved.cfg").read_text()
                   + f"{key}={REMOVED_KEYS[key]}\n")
    code = cli.main(["synth", "--config", str(old), "--out", str(tmp_path / "x")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"unknown config key {key!r}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "x").exists()


def _holds_float(hint):
    return hint is float or any(_holds_float(arg) for arg in typing.get_args(hint))


FLOAT_KEYS = [key for key, entry in cli.SCHEMA.items() if _holds_float(entry.hint)]


def test_float_keys_cover_plain_and_tuple_hints():
    assert {"room_size", "switch_probs_2d", "switch_probs_3d"} <= set(FLOAT_KEYS)


def test_every_key_holds_a_value():
    # No key is Optional, so the value codec has no "none".
    assert len(cli.SCHEMA) == 32
    assert not [key for key, entry in cli.SCHEMA.items()
                if typing.get_origin(entry.hint) is typing.Union]


@pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_non_finite_float_is_rejected(tmp_path, capsys, key, text):
    code = cli.main(["synth", "--out", str(tmp_path / "x"), f"--{key}", text])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and repr(key) in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("text", ["0", "-1", "1e300"])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_edge_float_ends_in_an_exit_code(tmp_path, key, text):
    value = ",".join([text] * 4) if key.startswith("switch_probs") else text
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["synth", "--out", str(tmp_path / "x"), f"--{key}", value])
    assert code in (0, 1, 2)


@pytest.mark.parametrize("key", ["feat_sigma"])
def test_float_too_large_for_its_arithmetic_is_rejected(tmp_path, capsys, key):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["synth", "--out", str(tmp_path / "x"), f"--{key}", "1e300"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err
    assert not (tmp_path / "x").exists()


def test_blind_generated_camera_names_its_keys(tmp_path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["synth", "--out", str(tmp_path / "x"), "--focal", "1e300"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: camera 0 sees no point")
    assert "focal" in err


def test_room_too_large_to_sample_is_rejected(tmp_path, capsys):
    code = cli.main(["synth", "--out", str(tmp_path / "x"), "--room_size", "1e300"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "room_size" in err


def test_missing_override_value(tmp_path, capsys):
    assert cli.main(["synth", "--out", str(tmp_path / "x"), "--seed"]) == 1
    assert "missing value" in capsys.readouterr().err


@pytest.mark.parametrize("override", ["--seed=4294967296", "--seed=-1",
                                      "--seeds=0,4294967296", "--seeds=-1"])
def test_seed_outside_32_bits_is_rejected(tmp_path, capsys, override):
    # derive_rng keys streams by the low 32 bits: 2**32 would alias seed 0.
    assert cli.main(["synth", "--out", str(tmp_path / "x"), override]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "[0, 2**32)" in err
    assert not (tmp_path / "x").exists()


def test_largest_seed_is_accepted():
    top = 2 ** 32 - 1
    cfg = cli.RunConfig.resolve(None, ["--seed", str(top), "--seeds", f"0,{top}"])
    assert cfg["seed"] == top and cfg["seeds"] == (0, top)


def test_config_file_errors(tmp_path, capsys):
    missing = tmp_path / "nope.cfg"
    assert cli.main(["synth", "--config", str(missing),
                     "--out", str(tmp_path / "x")]) == 1
    assert "not found" in capsys.readouterr().err
    bad = tmp_path / "bad.cfg"
    for body, message in ((b"object_count 4\n", "bad.cfg:1: expected key=value"),
                          (b"lr=0.1\nlr=0.2\n", "bad.cfg:2: duplicate key 'lr'"),
                          (b"lr=0.1\n\xff\xfe=1\n", "bad.cfg: undecodable byte at offset 7")):
        bad.write_bytes(body)
        assert cli.main(["gradcheck", "--config", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert "Traceback" not in err


@pytest.mark.parametrize("tokens, key", [
    (["--lr", "0.1", "--lr=0.2"], "--lr"),
    (["--seed=1", "--lr", "0.1", "--seed", "1"], "--seed")])
def test_repeated_command_line_option_is_rejected(tmp_path, capsys, tokens, key):
    # As a key repeated in a --config file is: the last one does not win.
    with pytest.raises(ConfigError, match=f"repeated option {key}"):
        cli.RunConfig.resolve(None, tokens)
    assert cli.main(["synth", "--out", str(tmp_path / "x"), *tokens]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"repeated option {key}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "x").exists()


def test_override_beats_config_file(tmp_path):
    cfg = _write_cfg(tmp_path / "tiny.cfg")
    out = tmp_path / "run"
    assert cli.main(["synth", "--config", str(cfg), "--out", str(out),
                     "--object_count=5", "--seed", "3"]) == 0
    pairs = dict(line.split("=", 1)
                 for line in (out / "resolved.cfg").read_text().splitlines())
    assert pairs["object_count"] == "5"
    assert pairs["seed"] == "3"
    assert pairs["num_classes"] == "5"  # from the file


def test_invalid_log_level(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CNS_LOG", "NOISY")
    assert cli.main(["synth", "--out", str(tmp_path / "x")]) == 1
    assert "CNS_LOG" in capsys.readouterr().err


def test_valid_log_level(tmp_path, monkeypatch):
    monkeypatch.setenv("CNS_LOG", "debug")
    cfg = _write_cfg(tmp_path / "tiny.cfg")
    assert cli.main(["synth", "--config", str(cfg),
                     "--out", str(tmp_path / "run")]) == 0


# ---------------------------------------------------------------------------
# pipeline validation errors


def test_refine_rejects_non_bundle(tmp_path, capsys):
    assert cli.main(["refine", str(tmp_path / "nowhere"),
                     "--out", str(tmp_path / "x")]) == 1
    assert "not a bundle directory" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["manifest.txt", "cameras.txt"])
def test_refine_rejects_undecodable_text(pipeline, tmp_path, capsys, name):
    damaged = tmp_path / "bundle"
    shutil.copytree(pipeline / "synth" / "bundle", damaged)
    blob = bytearray((damaged / name).read_bytes())
    blob[5] ^= 0x80
    (damaged / name).write_bytes(bytes(blob))
    code = cli.main(["refine", str(damaged), "--out", str(tmp_path / "x")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and name in err


def test_refine_rejects_non_finite_camera(pipeline, tmp_path, capsys):
    damaged = tmp_path / "bundle"
    shutil.copytree(pipeline / "synth" / "bundle", damaged)
    lines = (damaged / "cameras.txt").read_text().splitlines()
    tokens = lines[0].split()
    tokens[15] = "1e999"  # parses as inf
    lines[0] = " ".join(tokens)
    (damaged / "cameras.txt").write_text("\n".join(lines) + "\n")
    code = cli.main(["refine", str(damaged), "--out", str(tmp_path / "x")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "cameras.txt:1" in err


def test_refine_names_the_line_of_a_camera_that_sees_nothing(pipeline, tmp_path,
                                                             capsys):
    damaged = tmp_path / "bundle"
    shutil.copytree(pipeline / "synth" / "bundle", damaged)
    lines = (damaged / "cameras.txt").read_text().splitlines()
    tokens = lines[1].split()
    tokens[15] = "1e30"  # finite, but every point projects out of view
    lines[1] = " ".join(tokens)
    (damaged / "cameras.txt").write_text("\n".join(lines) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = cli.main(["refine", str(damaged), "--out", str(tmp_path / "x")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cameras.txt:2: camera 1 sees no point")


@pytest.mark.parametrize("command", ["refine", "train"])
def test_cameras_of_unequal_size_are_rejected(pipeline, tmp_path, capsys, command):
    # Camera 1 and its rasters cropped to 32x24 form an otherwise
    # consistent bundle; the views would not stack into one array.
    damaged = tmp_path / "bundle"
    shutil.copytree(pipeline / "synth" / "bundle", damaged)
    lines = (damaged / "cameras.txt").read_text().splitlines()
    tokens = lines[1].split()
    tokens[5] = "24"  # height
    lines[1] = " ".join(tokens)
    (damaged / "cameras.txt").write_text("\n".join(lines) + "\n")
    for kind, dtype in (("scores", "<f4"), ("masks", "<i4"), ("feat", "<f4")):
        path = damaged / f"view_1.{kind}.bin"
        write_raster(path, read_raster(path)[:24], dtype)
    cfg = _write_cfg(tmp_path / "tiny.cfg")
    code = cli.main([command, str(damaged), "--config", str(cfg),
                     "--out", str(tmp_path / "x")])
    assert code == 1
    err = capsys.readouterr().err
    assert err == "error: cameras.txt:2: camera 1 is 32x24, camera 0 is 32x32\n"


def test_refine_rejects_non_finite_point(pipeline, tmp_path, capsys):
    damaged = tmp_path / "bundle"
    shutil.copytree(pipeline / "synth" / "bundle", damaged)
    blob = (damaged / "points.bin").read_bytes()
    start = blob.index(b"\n") + 1  # point 0's x follows the header line
    (damaged / "points.bin").write_bytes(
        blob[:start] + np.float32(np.nan).tobytes() + blob[start + 4:])
    code = cli.main(["refine", str(damaged), "--out", str(tmp_path / "x")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "points.bin: point 0" in err


def test_zero_epoch_train_is_rejected(pipeline, tmp_path, capsys):
    cfg = _write_cfg(tmp_path / "tiny.cfg")
    code = cli.main(["train", str(pipeline / "synth" / "bundle"),
                     "--config", str(cfg), "--out", str(tmp_path / "x"),
                     "--stage1_epochs", "0", "--total_epochs", "0"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "total_epochs must be >= 1" in err


def test_train_rejects_dim_mismatch(pipeline, tmp_path, capsys):
    cfg = _write_cfg(tmp_path / "tiny.cfg")
    code = cli.main(["train", str(pipeline / "synth" / "bundle"),
                     "--config", str(cfg), "--out", str(tmp_path / "x"),
                     "--feat_dim", "32"])
    assert code == 1
    assert "feat_dim" in capsys.readouterr().err


@pytest.mark.parametrize("override", [["--feat_dim", "16"], ["--embed_dim", "32"]])
def test_dim_mismatch_fails_before_the_descriptor_build(pipeline, tmp_path, capsys,
                                                        monkeypatch, override):
    built = []
    monkeypatch.setattr(training, "scene_descriptors",
                        lambda *args: built.append(args))
    cfg = _write_cfg(tmp_path / "tiny.cfg")
    code = cli.main(["train", str(pipeline / "synth" / "bundle"),
                     "--config", str(cfg), "--out", str(tmp_path / "x"), *override])
    assert code == 1
    assert override[0][2:] in capsys.readouterr().err
    assert built == []


def _abort_message(pipeline, tmp_path, capsys, *flags):
    """stderr of a tiny train with `flags` that must end in a numerical
    abort; any RuntimeWarning is an error."""
    cfg = _write_cfg(tmp_path / "tiny.cfg")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["train", str(pipeline / "synth" / "bundle"),
                         "--config", str(cfg), "--out", str(tmp_path / "x"), *flags])
    assert code == 2
    return capsys.readouterr().err


def test_numerical_abort_names_where_it_happened(pipeline, tmp_path, capsys):
    # At this learning rate the 2D logits overflow within the first epoch
    # once the batches are small enough to take many steps.  The step
    # raises at the overflow, so no RuntimeWarning comes before the abort.
    err = _abort_message(pipeline, tmp_path, capsys, "--lr", "1000",
                         "--total_epochs", "2", "--stage1_epochs", "1",
                         "--batch_pixels", "16", "--batch_points", "16")
    assert err == ("numerical abort: epoch 0 stage 1 step 4: non-finite result "
                   "(overflow encountered in matmul); step aborted\n")


def test_inference_abort_comes_before_any_warning(pipeline, tmp_path, capsys):
    # Parameters scaled by 1e30 are still finite in float32, but the fold
    # of the output layer into the class map overflows.  Eval raises there,
    # so no RuntimeWarning comes before the abort.
    model, _ = nncore.load_checkpoint(pipeline / "train" / "checkpoint.ckpt")
    model.params *= 1e30
    ckpt = tmp_path / "huge.ckpt"
    nncore.save_checkpoint(model, ckpt)
    cfg = _write_cfg(tmp_path / "tiny.cfg")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["eval", str(pipeline / "synth" / "bundle"), str(ckpt),
                         "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert code == 2
    assert capsys.readouterr().err == (
        "numerical abort: enc2d inference: non-finite result "
        "(overflow encountered in matmul)\n")
    assert not (tmp_path / "x" / "eval.csv").exists()


def test_train_refuses_a_checkpoint_that_overflows_float32(pipeline, tmp_path, capsys):
    # Training runs in the checkpoint's float32, so parameters that would
    # overflow it abort the run first: train must exit 2 and write no file.
    cfg = _write_cfg(tmp_path / "tiny.cfg")
    out = tmp_path / "x"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        code = cli.main(["train", str(pipeline / "synth" / "bundle"), "--config", str(cfg),
                         "--out", str(out), "--hidden", "64", "--latent_dim", "48",
                         "--anchor_dim", "16", "--lr", "1e5"])
    assert code == 2
    assert "numerical abort: epoch 0 stage 1 step" in capsys.readouterr().err
    assert not (out / "checkpoint.ckpt").exists()
    assert not (out / "checkpoint.ckpt.tmp").exists()


def test_eval_scores_the_trained_model_exactly(pipeline, tmp_path, monkeypatch):
    # The checkpoint holds the trained float32 parameters to the bit, so
    # eval predicts what the final epoch of training predicted.
    cfg = _write_cfg(tmp_path / "tiny.cfg")
    bundle_dir = str(pipeline / "synth" / "bundle")
    returned = {}

    def recording(name):
        real = getattr(training, name)

        def record(*args, **kwargs):
            returned[name] = real(*args, **kwargs)
            return returned[name]
        monkeypatch.setattr(training, name, record)

    recording("train")
    assert cli.main(["train", bundle_dir, "--config", str(cfg),
                     "--out", str(tmp_path / "train")]) == 0
    state = returned["train"]
    recording("predict_labels_2d")
    recording("predict_labels_3d")
    ckpt = tmp_path / "train" / "checkpoint.ckpt"
    assert cli.main(["eval", bundle_dir, str(ckpt), "--config", str(cfg),
                     "--out", str(tmp_path / "eval")]) == 0
    loaded, _ = nncore.load_checkpoint(ckpt)
    assert state.bundle.params.dtype == loaded.params.dtype == np.float32
    assert loaded.params.tobytes() == state.bundle.params.tobytes()
    pixel, point = training.predictions(state)
    assert np.array_equal(returned["predict_labels_2d"], pixel)
    assert np.array_equal(returned["predict_labels_3d"], point)


def test_eval_rejects_class_count_mismatch(pipeline, tmp_path, capsys):
    config = nncore.ModelConfig(input2d_dim=15, input3d_dim=16, hidden=(8,),
                                latent_dim=8, embed_dim=12, anchor_dim=8,
                                sam_dim=8)
    model = nncore.make_bundle(config, mock_text_embeddings(4, 12, 3), seed=0)
    ckpt = tmp_path / "four.ckpt"
    nncore.save_checkpoint(model, ckpt)
    code = cli.main(["eval", str(pipeline / "synth" / "bundle"), str(ckpt),
                     "--out", str(tmp_path / "x")])
    assert code == 1
    assert "classes" in capsys.readouterr().err


def test_eval_rejects_truncated_checkpoint(pipeline, tmp_path, capsys):
    blob = (pipeline / "train" / "checkpoint.ckpt").read_bytes()
    ckpt = tmp_path / "short.ckpt"
    ckpt.write_bytes(blob[:-5])
    code = cli.main(["eval", str(pipeline / "synth" / "bundle"), str(ckpt),
                     "--out", str(tmp_path / "x")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "short.ckpt" in err


def test_eval_reads_checkpoint_with_train_anchor_head_line(pipeline, tmp_path):
    # Checkpoints from before the anchor head was always frozen carry a
    # train_anchor_head=0 header line; their payload order is the same.
    blob = (pipeline / "train" / "checkpoint.ckpt").read_bytes()
    legacy = blob.replace(b"\nnum_classes=", b"\ntrain_anchor_head=0\nnum_classes=", 1)
    assert legacy != blob
    ckpt = tmp_path / "legacy.ckpt"
    ckpt.write_bytes(legacy)
    cfg = _write_cfg(tmp_path / "tiny.cfg")
    assert cli.main(["eval", str(pipeline / "synth" / "bundle"), str(ckpt),
                     "--config", str(cfg), "--out", str(tmp_path / "x")]) == 0
    assert (tmp_path / "x" / "eval.csv").read_bytes() == \
        (pipeline / "eval" / "eval.csv").read_bytes()


def test_eval_reads_checkpoint_with_descriptor_noise_line(pipeline, tmp_path):
    # Checkpoints from before the descriptor noise became a constant carry
    # an x_descriptor_noise=0.02 extra; it is kept in the metadata and
    # ignored.
    blob = (pipeline / "train" / "checkpoint.ckpt").read_bytes()
    legacy = blob.replace(b"\nx_train_hash=", b"\nx_descriptor_noise=0.02\nx_train_hash=", 1)
    assert legacy != blob
    ckpt = tmp_path / "legacy.ckpt"
    ckpt.write_bytes(legacy)
    assert nncore.load_checkpoint(ckpt)[1]["x_descriptor_noise"] == "0.02"
    cfg = _write_cfg(tmp_path / "tiny.cfg")
    assert cli.main(["eval", str(pipeline / "synth" / "bundle"), str(ckpt),
                     "--config", str(cfg), "--out", str(tmp_path / "x")]) == 0
    digest = hashlib.sha256((tmp_path / "x" / "eval.csv").read_bytes()).hexdigest()
    assert digest == TRAIN_SHA256["eval/eval.csv"]


def test_eval_reads_checkpoint_with_temperature_line(pipeline, tmp_path):
    # Checkpoints from before the class table lost its temperature carry a
    # temperature=1.0 header line after sam_dim; it is kept in the metadata
    # and ignored, as the argmax of the logits does not change under a
    # positive scale.
    blob = (pipeline / "train" / "checkpoint.ckpt").read_bytes()
    legacy = blob.replace(b"\nnum_classes=", b"\ntemperature=1.0\nnum_classes=", 1)
    assert legacy != blob
    ckpt = tmp_path / "legacy.ckpt"
    ckpt.write_bytes(legacy)
    assert nncore.load_checkpoint(ckpt)[1]["temperature"] == "1.0"
    cfg = _write_cfg(tmp_path / "tiny.cfg")
    assert cli.main(["eval", str(pipeline / "synth" / "bundle"), str(ckpt),
                     "--config", str(cfg), "--out", str(tmp_path / "x")]) == 0
    digest = hashlib.sha256((tmp_path / "x" / "eval.csv").read_bytes()).hexdigest()
    assert digest == TRAIN_SHA256["eval/eval.csv"]


def test_synth_restarts_a_layout_that_cannot_place(tmp_path):
    # The first box layout of seed 6 cannot place object 11; a layout
    # restarted from a derived stream can.
    assert cli.main(["synth", "--out", str(tmp_path), "--seed", "6"]) == 0
    assert read_manifest(tmp_path / "bundle" / "manifest.txt")["num_points"] == "9600"


# sha256 of every file of the default-config bundle of `cnslab synth
# --seed <seed>`.  A change to any oracle's output changes one of these.
SYNTH_SHA256 = {
    0: {
        "cameras.txt": "8941d6d65d482ed39d747aa87a90f7ee817475bc0f77a3481a3bfca6dc9b2e6b",
        "manifest.txt": "9c66d402a02fcdec3d5e925dfb7122271e770824d744924778a0aae46d24bc8d",
        "points.bin": "3251d0bbc90e8070a0c9ca2ae311b5fd9f62b7b603bf611baebffae11ad1fecc",
        "view_0.feat.bin": "a6d2ebdf2d072e75c1f830ead65d72be78c8905a8e818ffdfc3db498cba0494c",
        "view_0.masks.bin": "63ef44b3a467694d0aac652a9ac97df63ce864d6c492015b6159259c2a244335",
        "view_0.scores.bin": "66bd18335648743d9361ae3e7f4734814edcbdf3aa59ab0e88a6d2d0b39d9b51",
        "view_1.feat.bin": "bdf93443aa877f14c79724254edf70feb2139186a57cf8d22a4d177a474f2f7c",
        "view_1.masks.bin": "bc3bddbcd8644d046b124247b6d5676fd87679b92e3a2372d69624ed87a22374",
        "view_1.scores.bin": "6a78de8d30b01e48206cdc6f8e34b82f17befdc9246f92a75883b9104170410d",
        "view_2.feat.bin": "03cd638d8526017dea38e355383288d822facffbcbebc6b3c6fc49a7b2d94c7c",
        "view_2.masks.bin": "7eb3615bf70092b9759becbd42c528d4b07c023409701976610ca7d4545540cc",
        "view_2.scores.bin": "6f3343d065f586d9cb33b97520306807a626c3fceeae5c85ac57e614f2da9baa",
        "view_3.feat.bin": "18e66cd8282b55a5e74fb80818292ee44ebc976fe896df90f2b33a6fbd3c808d",
        "view_3.masks.bin": "e808704b0719210f1329797c6ee752d366afec58e5404712f1dfc8d93b30c37b",
        "view_3.scores.bin": "890398e6096ed338cf5a2e49348c48b7ec331faf0a7b0f65e5681e536bdb0ccb",
    },
    1: {
        "cameras.txt": "8941d6d65d482ed39d747aa87a90f7ee817475bc0f77a3481a3bfca6dc9b2e6b",
        "manifest.txt": "b31ef87befa150edde5089f64955377ee16b5ed2a64b733fd93e5154e050118b",
        "points.bin": "a2262e66c5c0ef28ca6d63e0eb3555829e6edadbf2e8fde5147072ef4c6dfb19",
        "view_0.feat.bin": "b21f7fb6ec9d8bec6c953c45fe12f227797373c0d6fcf3ea4d9585ec5f9a9999",
        "view_0.masks.bin": "d7d4071464b42a966ae1f8059363047277260a4b83c552cdbcbbe2ab07b6f755",
        "view_0.scores.bin": "61aa2847b5bceb96bdd591889c1db4d0531e13e771aeca7b459358240a64da25",
        "view_1.feat.bin": "20f66404aa4864b7c55de74e243413c22fbfe5a9191bffc2d7713b2804e8a502",
        "view_1.masks.bin": "23d356103315f74bba8dd3eb8218430f5a8545a4028847475f7e85ca756c845e",
        "view_1.scores.bin": "fe040b35dd4a7b6952c82f57d8d925d6dc87d4342b0b873de073f255845b331d",
        "view_2.feat.bin": "efc2fc3e9d63adb502be1c4fd6acb9ebe087b116b0c571923b0f356913fa993e",
        "view_2.masks.bin": "765f924ea70eeb6e48a83c028af44afdb6cec0d6894b4dd028372f68c2e1b90c",
        "view_2.scores.bin": "012c370e95429f07b3faade3607310663d1fff6e0ff6839bbe75f4ff9cda12a1",
        "view_3.feat.bin": "8affcd6bbcbace5e3fc96a5f8243201d889125ed67b33b92ac7560584213e8ef",
        "view_3.masks.bin": "bb87088b4d4a175105f2e72c4f79bd5b60c4bd3d459858b54500a988e510eba3",
        "view_3.scores.bin": "1d59da0bce80d55d17f2391da179c3daa56378f8fec7ba4d69775bcb5706f998",
    },
}


@pytest.mark.parametrize("seed", sorted(SYNTH_SHA256))
def test_synth_bundle_bytes_are_pinned(tmp_path, seed):
    assert cli.main(["synth", "--out", str(tmp_path), "--seed", str(seed)]) == 0
    bundle_dir = tmp_path / "bundle"
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in bundle_dir.iterdir()}
    assert digests == SYNTH_SHA256[seed]


# sha256 of the outputs of `cnslab refine` on the `synth --seed 0` bundle.
# The files hold only integers and their decimal text, so no BLAS or float
# rounding enters them.
REFINE_SHA256 = {
    "refine.csv": "42995f479d7c3d08032b70d03cafe247df762de2f40ece4564ed9fa9e62b50c8",
    "point_labels.bin": "b9f71a48567398f0d06e727548d0a1d2b965dd609b53626d9caa41f68dbcdf1d",
    "view_0.labels.bin": "d0c91335ccacdf6e52b711e036e31a1e3ad94a52783a2e77e457aaa87155b209",
    "view_1.labels.bin": "89e75751262ad4bab54364a8a4c0780e1f0a6b6ce8ac5118ad5047bc05edb8da",
    "view_2.labels.bin": "413ca54ef978649779cd8cb867a8579bb22b10b1aeb3c9e66daed59cd25ac8d8",
    "view_3.labels.bin": "329fb05fd53e225890a17814284d5164ab047427bd1eb653bbe5106a3c58a88b",
}


@pytest.fixture(scope="module")
def default_refine(tmp_path_factory):
    """Run `cnslab refine` on the default `synth --seed 0` bundle; return its
    output directory."""
    root = tmp_path_factory.mktemp("default")
    assert cli.main(["synth", "--out", str(root / "synth"), "--seed", "0"]) == 0
    assert cli.main(["refine", str(root / "synth" / "bundle"),
                     "--out", str(root / "refine")]) == 0
    return root / "refine"


def test_refine_bytes_are_pinned(default_refine):
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in default_refine.iterdir() if path.name != "resolved.cfg"}
    assert digests == REFINE_SHA256


def test_readme_refine_line_is_the_default_bundle(default_refine):
    # README's quick start states the points row of this refine.csv at two
    # decimals.
    rows = [line.split(",") for line in
            (default_refine / "refine.csv").read_text().splitlines()]
    raw, refined = next(map(float, row[1:3]) for row in rows if row[0] == "points")
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = " ".join(readme.read_text().split())
    assert f"error from {raw:.2f} to {refined:.2f} before any training" in text


# sha256 of the train and eval outputs of the `pipeline` fixture (TINY_CFG),
# recorded under conftest.PINS_RECORDED_UNDER.
TRAIN_SHA256 = {
    "train/checkpoint.ckpt": "35df3ade058e36eea8e8c891447ad3aa8c8627c9d1b72bf515d939ee0abda8a0",
    "train/metrics.csv": "10edea840b806c3c3a8defcf9cb0a55418a42330817b0cbca9467b962ee23604",
    "eval/eval.csv": "50fca71f67d5d6d0e6f006bba9cf48f776bc7cd959a8af1fad95a4b4c2fa29ed",
}


def test_train_and_eval_bytes_are_pinned(pipeline):
    digests = {name: hashlib.sha256((pipeline / name).read_bytes()).hexdigest()
               for name in TRAIN_SHA256}
    assert digests == TRAIN_SHA256, (f"pinned under {PINS_RECORDED_UNDER}, "
                                     f"running under {kernels()}")


def test_noise_sweep_script(tmp_path):
    script = Path(__file__).resolve().parents[1] / "scripts" / "noise_sweep.py"
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, str(script), "--eps", "0,0.4",
                           "--out", str(tmp_path)], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0] == "eps,pixel_raw,pixel_refined,point_raw,point_refined"
    rows = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
    assert [row[0] for row in rows] == [0.0, 0.4]
    _, pixel_raw, pixel_refined, point_raw, point_refined = rows[1]
    assert pixel_refined <= pixel_raw and point_refined <= point_raw
    # README states the jitter floor of mask voting from the eps-0 row:
    # perfect labels, voted inside masks whose boundaries are jittered.
    _, pixel_raw, pixel_refined, point_raw, point_refined = rows[0]
    assert pixel_raw == point_raw == 0
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = " ".join(readme.read_text().split())
    assert (f"voting alone makes {pixel_refined:.1%} of the pixel labels and "
            f"{point_refined:.1%} of the point labels wrong") in text


def test_no_command_imports_scipy(tmp_path):
    # A fresh interpreter: this one has imported scipy already.
    cfg = _write_cfg(tmp_path / "tiny.cfg")
    script = textwrap.dedent("""
        import sys
        import cnslab, cnslab.cli
        out, cfg = sys.argv[1], ["--config", sys.argv[2]]
        bundle = out + "/synth/bundle"
        for argv in (["synth", "--out", out + "/synth"],
                     ["refine", bundle, "--out", out + "/refine"],
                     ["train", bundle, "--out", out + "/train"],
                     ["eval", bundle, out + "/train/checkpoint.ckpt",
                      "--out", out + "/eval"],
                     ["ablate", "--out", out + "/ablate"],
                     ["gradcheck"]):
            assert cnslab.cli.main(argv + cfg) == 0, argv
        try:
            cnslab.cli.main(["--help"])
        except SystemExit:
            pass
        print(sorted(name for name in sys.modules if name.startswith("scipy")))
    """)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, CNS_LOG="WARNING",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path), str(cfg)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
