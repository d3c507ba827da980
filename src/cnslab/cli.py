"""Command-line front end.

One binary with subcommands covering the whole pipeline:

    cnslab synth   --out DIR [--config FILE] [--key value ...]
    cnslab refine  BUNDLE --out DIR [...]
    cnslab train   BUNDLE --out DIR [...]
    cnslab eval    BUNDLE CHECKPOINT --out DIR [...]
    cnslab ablate  --out DIR [...]
    cnslab gradcheck [--out DIR] [...]

Configuration is a flat key=value namespace: defaults, then the optional
`--config` file, then `--key value` overrides, in that order.  Unknown
keys are errors.  Every command echoes the fully resolved configuration
into its output directory as `resolved.cfg`, so a run directory is
self-describing.  The `CNS_LOG` environment variable sets the logging
level (DEBUG/INFO/WARNING/ERROR).  Exit codes: 0 success, 1 validation
error, 2 numerical abort.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import ablation, bundle, evaluation, nncore, pseudolabel, scenesynth, training
from .errors import CnsError, ConfigError, NumericalError, ValidationError
from .seeding import SEED_BOUND, TAG_GRADCHECK, derive_rng

logger = logging.getLogger("cnslab")

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2


# ---------------------------------------------------------------------------
# flat configuration schema


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_opt_float(text: str) -> Optional[float]:
    return None if text.strip().lower() == "none" else float(text)


def _parse_int_tuple(text: str) -> Tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part.strip())


def _parse_float_tuple(text: str) -> Tuple[float, ...]:
    return tuple(float(part) for part in text.split(",") if part.strip())


def _parse_opt_float_tuple(text: str) -> Optional[Tuple[float, ...]]:
    return None if text.strip().lower() == "none" else _parse_float_tuple(text)


def _parse_str_tuple(text: str) -> Tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def format_value(value) -> str:
    """Canonical textual form used by config echoes and manifests."""
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(format_value(v) for v in value)
    return str(value)


class _Key(NamedTuple):
    parse: Callable[[str], object]
    default: object


def _build_schema() -> Dict[str, _Key]:
    scene = scenesynth.SceneConfig()
    clip = scenesynth.ClipNoiseConfig()
    frag = scenesynth.MaskFragConfig()
    suite = ablation.SuiteConfig()
    tr = training.TrainConfig()
    schema: Dict[str, _Key] = {}

    def add(name, parse, default):
        schema[name] = _Key(parse, default)

    # scene geometry
    add("room_size", float, scene.room_size)
    add("object_count", int, scene.object_count)
    add("points_per_object", int, scene.points_per_object)
    add("background_points", int, scene.background_points)
    add("num_classes", int, scene.num_classes)
    add("camera_count", int, scene.camera_count)
    add("image_width", int, scene.image_width)
    add("image_height", int, scene.image_height)
    add("focal", float, scene.focal)
    add("min_box_size", float, scene.min_box_size)
    add("max_box_size", float, scene.max_box_size)
    add("placement_margin", float, scene.placement_margin)
    add("max_place_attempts", int, scene.max_place_attempts)
    add("camera_radius", _parse_opt_float, scene.camera_radius)
    add("camera_height", _parse_opt_float, scene.camera_height)
    # oracle noise
    add("eps", float, clip.eps)
    add("block", int, clip.block)
    add("margin", float, clip.margin)
    add("splits", int, frag.splits_per_object)
    add("jitter", int, frag.boundary_jitter_px)
    add("feat_dim", int, suite.feat_dim)
    add("feat_sigma", float, suite.feat_sigma)
    add("embed_dim", int, suite.embed_dim)
    # model
    add("hidden", _parse_int_tuple, suite.hidden)
    add("latent_dim", int, suite.latent_dim)
    add("anchor_dim", int, suite.anchor_dim)
    add("temperature", float, 1.0)
    # training
    add("stage1_epochs", int, tr.stage1_epochs)
    add("total_epochs", int, tr.total_epochs)
    add("lr", float, tr.lr)
    add("batch_pixels", int, tr.batch_pixels)
    add("batch_points", int, tr.batch_points)
    add("switch_probs", _parse_float_tuple, tr.switch_probs)
    add("switch_probs_2d", _parse_opt_float_tuple, tr.switch_probs_2d)
    add("switch_probs_3d", _parse_opt_float_tuple, tr.switch_probs_3d)
    add("switch_per_element", _parse_bool, tr.switch_per_element)
    add("latent_loss_weight", float, tr.latent_loss_weight)
    add("latent_in_stage1", _parse_bool, tr.latent_in_stage1)
    add("refine_labels", _parse_bool, tr.refine_labels)
    add("refine3d_mode", str, tr.refine3d_mode)
    add("multiview", str, tr.multiview)
    add("descriptor_noise", float, tr.descriptor_noise)
    add("precision", str, tr.precision)
    # run control
    add("seed", int, 0)
    add("seeds", _parse_int_tuple, suite.seeds)
    add("rows", _parse_str_tuple, suite.rows)
    add("threads", int, 1)
    return schema


SCHEMA = _build_schema()


class RunConfig:
    """Flat validated key=value namespace shared by all subcommands."""

    def __init__(self, values: Dict[str, object]):
        self.values = values

    def __getitem__(self, key: str):
        return self.values[key]

    @staticmethod
    def _parse_pair(key: str, text: str, origin: str) -> Tuple[str, object]:
        if key not in SCHEMA:
            raise ConfigError(f"{origin}: unknown config key {key!r}")
        try:
            return key, SCHEMA[key].parse(text)
        except ValueError as exc:
            raise ConfigError(
                f"{origin}: bad value {text!r} for key {key!r}: {exc}") from exc

    @classmethod
    def resolve(cls, config_file: Optional[str],
                overrides: Sequence[str]) -> "RunConfig":
        """defaults <- config file <- --key value overrides."""
        values = {key: entry.default for key, entry in SCHEMA.items()}
        if config_file is not None:
            path = Path(config_file)
            if not path.is_file():
                raise ConfigError(f"config file not found: {path}")
            for lineno, line in enumerate(path.read_text().splitlines(), start=1):
                stripped = line.strip()
                if not stripped or stripped.startswith("#"):
                    continue
                if "=" not in stripped:
                    raise ConfigError(
                        f"{path.name}:{lineno}: expected key=value, got {line!r}")
                key, text = stripped.split("=", 1)
                key, value = cls._parse_pair(key.strip(), text.strip(),
                                             f"{path.name}:{lineno}")
                values[key] = value
        for key, value in _parse_overrides(overrides):
            values[key] = value
        cfg = cls(values)
        cfg.validate()
        return cfg

    def validate(self):
        if self.values["threads"] < 1:
            raise ConfigError("threads must be >= 1")
        if not self.values["seeds"]:
            raise ConfigError("seeds must name at least one seed")
        for seed in (self.values["seed"], *self.values["seeds"]):
            if not 0 <= seed < SEED_BOUND:
                raise ConfigError(f"seed must be in [0, 2**32), got {seed}")
        unknown = set(self.values["rows"]) - set(ablation.ROW_ORDER)
        if unknown:
            raise ConfigError(f"unknown ablation rows: {sorted(unknown)}")
        # Construction validates each sub-config's own invariants.
        self.scene_config()
        self.clip_config()
        self.frag_config()
        self.train_config()

    # -- sub-config builders ------------------------------------------------

    def scene_config(self) -> scenesynth.SceneConfig:
        v = self.values
        return scenesynth.SceneConfig(
            room_size=v["room_size"], object_count=v["object_count"],
            points_per_object=v["points_per_object"],
            background_points=v["background_points"],
            num_classes=v["num_classes"], camera_count=v["camera_count"],
            image_width=v["image_width"], image_height=v["image_height"],
            focal=v["focal"], min_box_size=v["min_box_size"],
            max_box_size=v["max_box_size"],
            placement_margin=v["placement_margin"],
            max_place_attempts=v["max_place_attempts"],
            camera_radius=v["camera_radius"], camera_height=v["camera_height"])

    def clip_config(self) -> scenesynth.ClipNoiseConfig:
        v = self.values
        return scenesynth.ClipNoiseConfig(eps=v["eps"], block=v["block"],
                                          margin=v["margin"])

    def frag_config(self) -> scenesynth.MaskFragConfig:
        v = self.values
        return scenesynth.MaskFragConfig(splits_per_object=v["splits"],
                                         boundary_jitter_px=v["jitter"])

    def train_config(self) -> training.TrainConfig:
        v = self.values
        return training.TrainConfig(
            stage1_epochs=v["stage1_epochs"], total_epochs=v["total_epochs"],
            lr=v["lr"], batch_pixels=v["batch_pixels"],
            batch_points=v["batch_points"], switch_probs=v["switch_probs"],
            switch_probs_2d=v["switch_probs_2d"],
            switch_probs_3d=v["switch_probs_3d"],
            switch_per_element=v["switch_per_element"],
            latent_loss_weight=v["latent_loss_weight"],
            latent_in_stage1=v["latent_in_stage1"],
            refine_labels=v["refine_labels"],
            refine3d_mode=v["refine3d_mode"], multiview=v["multiview"],
            descriptor_noise=v["descriptor_noise"], seed=v["seed"],
            precision=v["precision"])

    def model_config(self) -> nncore.ModelConfig:
        v = self.values
        return nncore.ModelConfig(
            input2d_dim=scenesynth.PIXEL_DESC_DIM,
            input3d_dim=scenesynth.POINT_DESC_DIM,
            hidden=v["hidden"], latent_dim=v["latent_dim"],
            embed_dim=v["embed_dim"], anchor_dim=v["anchor_dim"],
            sam_dim=v["feat_dim"], temperature=v["temperature"])

    def suite_config(self) -> ablation.SuiteConfig:
        v = self.values
        return ablation.SuiteConfig(
            scene=self.scene_config(), clip_noise=self.clip_config(),
            frag=self.frag_config(), feat_dim=v["feat_dim"],
            feat_sigma=v["feat_sigma"], embed_dim=v["embed_dim"],
            anchor_dim=v["anchor_dim"], hidden=v["hidden"],
            latent_dim=v["latent_dim"], train=self.train_config(),
            seeds=v["seeds"], rows=v["rows"])

    def echo(self, out_dir: Path):
        """Write the fully resolved configuration as resolved.cfg."""
        lines = [f"{key}={format_value(self.values[key])}" for key in SCHEMA]
        (out_dir / "resolved.cfg").write_text("\n".join(lines) + "\n")


def _parse_overrides(tokens: Sequence[str]) -> List[Tuple[str, object]]:
    pairs = []
    idx = 0
    while idx < len(tokens):
        token = tokens[idx]
        if not token.startswith("--"):
            raise ConfigError(f"expected --key, got {token!r}")
        body = token[2:]
        if "=" in body:
            key, text = body.split("=", 1)
            idx += 1
        else:
            key = body
            if idx + 1 >= len(tokens):
                raise ConfigError(f"missing value for override --{key}")
            text = tokens[idx + 1]
            idx += 2
        pairs.append(RunConfig._parse_pair(key, text, "command line"))
    return pairs


# ---------------------------------------------------------------------------
# shared helpers


def _prepare_out(cfg: RunConfig, out_dir: str) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cfg.echo(out)
    return out


def _load_bundle(bundle_dir: str):
    path = Path(bundle_dir)
    if not (path / "manifest.txt").is_file():
        raise ValidationError(f"not a bundle directory (no manifest.txt): {path}")
    return bundle.read_bundle(path)


def _miou_value(pred: np.ndarray, gt: np.ndarray, num_classes: int) -> float:
    _, mean = evaluation.miou(evaluation.confusion(pred, gt, num_classes))
    if mean is None:
        raise ValidationError("mIoU undefined: no class present in "
                              "prediction or ground truth")
    return mean


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(cfg: RunConfig, out_dir: str) -> int:
    """Generate one scene plus oracle outputs and store them as a bundle."""
    out = _prepare_out(cfg, out_dir)
    scene = scenesynth.generate_scene(cfg.scene_config(), cfg["seed"])
    oracles = scenesynth.standard_oracle_outputs(
        scene, cfg.clip_config(), cfg.frag_config(), cfg["feat_dim"],
        cfg["feat_sigma"], cfg["embed_dim"])
    manifest = bundle.write_bundle(scene, oracles, out / "bundle")
    print(f"bundle written to {out / 'bundle'}: {manifest['num_points']} points, "
          f"{manifest['num_views']} views, {manifest['num_classes']} classes")
    return EXIT_OK


def cmd_refine(cfg: RunConfig, bundle_dir: str, out_dir: str) -> int:
    """Label-algebra-only pipeline: argmax, transfer, mask voting, report."""
    out = _prepare_out(cfg, out_dir)
    scene, oracles, _ = _load_bundle(bundle_dir)
    corr = scene.correspondences()
    derived = pseudolabel.derive_clip_labels(
        corr, oracles["scores"], oracles["masks"], len(scene.cloud),
        refine3d_mode=cfg["refine3d_mode"], multiview=cfg["multiview"])

    gt_pixel = scenesynth.gt_pixel_stack(scene)
    rows = []
    for k in range(len(scene.cameras)):
        raw_err = evaluation.label_error_rate(derived["pixel_raw"][k], gt_pixel[k])
        ref_err = evaluation.label_error_rate(derived["pixel_refined"][k],
                                              gt_pixel[k])
        purity = scenesynth.mask_purity(oracles["masks"][k], gt_pixel[k])
        rows.append((f"view_{k}", raw_err, ref_err, purity))
        bundle.write_raster(out / f"view_{k}.labels.bin",
                            derived["pixel_refined"][k].labels, "<i4")
    gt_point = scene.cloud.gt_labels
    rows.append(("points",
                 evaluation.label_error_rate(derived["point_raw"], gt_point),
                 evaluation.label_error_rate(derived["point_refined"], gt_point),
                 None))
    bundle.write_raster(out / "point_labels.bin",
                        derived["point_refined"].labels.reshape(-1, 1), "<i4")

    lines = ["scope,raw_error,refined_error,mask_purity"]
    lines += [",".join([scope, *(evaluation.csv_cell(v) for v in values)])
              for scope, *values in rows]
    (out / "refine.csv").write_text("\n".join(lines) + "\n")
    for scope, raw_err, ref_err, purity in rows:
        print(f"{scope}: raw_error={raw_err} refined_error={ref_err} "
              f"mask_purity={purity}")
    return EXIT_OK


def _check_bundle_dims(cfg: RunConfig, oracles: dict):
    embed_dim = oracles["embeddings"].vectors.shape[1]
    feat_dim = oracles["features"][0].features.shape[2]
    if embed_dim != cfg["embed_dim"]:
        raise ConfigError(f"bundle class embeddings have dim {embed_dim} but "
                          f"config says embed_dim={cfg['embed_dim']}")
    if feat_dim != cfg["feat_dim"]:
        raise ConfigError(f"bundle features have dim {feat_dim} but config "
                          f"says feat_dim={cfg['feat_dim']}")


def cmd_train(cfg: RunConfig, bundle_dir: str, out_dir: str) -> int:
    """Train both networks on a bundle; write checkpoint and metrics."""
    out = _prepare_out(cfg, out_dir)
    scene, oracles, _ = _load_bundle(bundle_dir)
    if "embeddings" not in oracles:
        raise ValidationError("bundle lacks embedding metadata; cannot train")
    _check_bundle_dims(cfg, oracles)
    tconf = cfg.train_config()
    state = training.train(scene, oracles, tconf, cfg.model_config())
    nncore.save_checkpoint(state.bundle, out / "checkpoint.ckpt",
                           extra={"train_hash": nncore.config_hash(tconf)})
    training.write_metrics_csv(state.history, out / "metrics.csv")
    last = state.history[-1]
    print(f"trained {tconf.total_epochs} epochs: "
          f"miou2d={last['miou2d']} miou3d={last['miou3d']}")
    print(f"checkpoint: {out / 'checkpoint.ckpt'}")
    return EXIT_OK


def cmd_eval(cfg: RunConfig, bundle_dir: str, checkpoint: str,
             out_dir: str) -> int:
    """Score a checkpoint against a bundle's ground truth (mIoU 2D/3D)."""
    out = _prepare_out(cfg, out_dir)
    scene, _, _ = _load_bundle(bundle_dir)
    model, meta = nncore.load_checkpoint(checkpoint)
    if int(meta["num_classes"]) != scene.num_classes:
        raise ValidationError(
            f"checkpoint predicts {meta['num_classes']} classes but the "
            f"bundle has {scene.num_classes}")
    desc2d, desc3d = training.scene_descriptors(scene, cfg["descriptor_noise"])
    if desc2d.shape[3] != model.config.input2d_dim:
        raise ValidationError(
            f"checkpoint expects {model.config.input2d_dim}-dim pixel "
            f"descriptors, scene yields {desc2d.shape[3]}")
    pred2d = training.predict_labels_2d(model, desc2d)
    pred3d = training.predict_labels_3d(model, desc3d)
    miou2d = _miou_value(pred2d, scenesynth.gt_pixel_stack(scene), scene.num_classes)
    miou3d = _miou_value(pred3d, scene.cloud.gt_labels, scene.num_classes)
    (out / "eval.csv").write_text(
        f"domain,miou\npixels,{miou2d!r}\npoints,{miou3d!r}\n")
    print(f"miou2d={miou2d!r} miou3d={miou3d!r}")
    return EXIT_OK


def cmd_ablate(cfg: RunConfig, out_dir: str) -> int:
    """Run the configured ablation rows over the configured seeds."""
    out = _prepare_out(cfg, out_dir)
    report = ablation.run_ablation(cfg.suite_config())
    ablation.write_report_csv(report, out / "report.csv")
    ablation.write_report_text(report, out / "report.txt")
    failures = [entry for entry in report.rows if entry.get("error")]
    for name in cfg["rows"]:
        med = report.medians[name]
        print(f"{name}: miou2d={med['miou2d']} miou3d={med['miou3d']}")
    if failures:
        print(f"{len(failures)} row runs failed; see report.csv")
    return EXIT_OK


def cmd_gradcheck(cfg: RunConfig, out_dir: Optional[str] = None) -> int:
    """Finite-difference verification of the training-step gradient.

    Each loss term is checked alone, then the full training-shaped step
    (both cross-entropies plus the latent term on distinct paired 3D
    rows) at latent weights 1.0 and 0.5.
    """
    if out_dir is not None:
        _prepare_out(cfg, out_dir)
    tol = 1e-4
    num_classes, batch = 5, 8
    model_config = nncore.ModelConfig(
        input2d_dim=7, input3d_dim=6, hidden=(10,), latent_dim=9,
        embed_dim=12, anchor_dim=8, sam_dim=4)
    worst: Dict[str, float] = {"ce2d": 0.0, "ce3d": 0.0, "latent": 0.0, "step": 0.0}
    for trial in range(10):
        rng = derive_rng(cfg["seed"], TAG_GRADCHECK, trial)
        embeddings = scenesynth.mock_text_embeddings(
            num_classes, model_config.embed_dim, int(rng.integers(1 << 30)))
        model = nncore.make_bundle(model_config, embeddings,
                                   int(rng.integers(1 << 30)))
        x2d = rng.standard_normal((batch, model_config.input2d_dim))
        x3d = rng.standard_normal((batch, model_config.input3d_dim))
        y = rng.integers(0, num_classes, size=batch)
        y[0] = pseudolabel.IGNORE  # the ignore path must be differentiable too
        anchors = rng.standard_normal((batch, model_config.sam_dim))
        pair3d = rng.standard_normal((batch, model_config.input3d_dim))
        y3d = rng.integers(0, num_classes, size=batch)
        y3d[-1] = pseudolabel.IGNORE
        checks = [("ce2d", {"x2d": x2d, "y2d": y}), ("ce3d", {"x3d": x3d, "y3d": y}),
                  ("latent", {"x2d": x2d, "pair3d": x3d, "anchors": anchors,
                              "latent_weight": 1.0})]
        checks += [("step", {"x2d": x2d, "y2d": y, "x3d": x3d, "y3d": y3d,
                             "pair3d": pair3d, "anchors": anchors, "latent_weight": w})
                   for w in (1.0, 0.5)]
        for name, step_batch in checks:
            err = nncore.grad_check(lambda b: nncore.step(b, step_batch), model)
            worst[name] = max(worst[name], err)
        if "anchor_head.w" in nncore.trainable_params(model):
            raise NumericalError("frozen anchor head is a trainable parameter")
    for name, err in worst.items():
        print(f"{name}: max relative error {err:.3e}")
    print("anchor head gradient: identically zero (frozen)")
    if max(worst.values()) >= tol:
        raise NumericalError(
            f"gradient check failed: max relative error "
            f"{max(worst.values()):.3e} >= {tol}")
    print(f"gradcheck passed (tolerance {tol})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cnslab",
        description="Cross-modality noisy-supervision lab: synthetic scenes, "
                    "label refinement, co-training, evaluation.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None,
                       help="key=value config file (defaults apply otherwise)")
        p.add_argument("--out", required=True, help="output directory")

    p_synth = sub.add_parser("synth", help="generate a scene bundle")
    common(p_synth)
    p_refine = sub.add_parser("refine",
                              help="refine oracle labels, report error rates")
    p_refine.add_argument("bundle", help="bundle directory")
    common(p_refine)
    p_train = sub.add_parser("train", help="co-train the 2D and 3D networks")
    p_train.add_argument("bundle", help="bundle directory")
    common(p_train)
    p_eval = sub.add_parser("eval", help="score a checkpoint (mIoU 2D/3D)")
    p_eval.add_argument("bundle", help="bundle directory")
    p_eval.add_argument("checkpoint", help="checkpoint file")
    common(p_eval)
    p_ablate = sub.add_parser("ablate", help="run the ablation suite")
    common(p_ablate)
    p_grad = sub.add_parser("gradcheck",
                            help="verify loss gradients by finite differences")
    p_grad.add_argument("--config", default=None)
    p_grad.add_argument("--out", default=None)
    return parser


def _configure_logging():
    level_name = os.environ.get("CNS_LOG", "WARNING").strip().upper()
    level = logging.getLevelName(level_name)
    if not isinstance(level, int):
        raise ConfigError(f"CNS_LOG={level_name!r} is not a logging level "
                          f"(use DEBUG/INFO/WARNING/ERROR)")
    logging.basicConfig(level=level,
                        format="%(levelname)s %(name)s: %(message)s")


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        _configure_logging()
        args, extra = _build_parser().parse_known_args(argv)
        cfg = RunConfig.resolve(args.config, extra)
        if args.command == "synth":
            return cmd_synth(cfg, args.out)
        if args.command == "refine":
            return cmd_refine(cfg, args.bundle, args.out)
        if args.command == "train":
            return cmd_train(cfg, args.bundle, args.out)
        if args.command == "eval":
            return cmd_eval(cfg, args.bundle, args.checkpoint, args.out)
        if args.command == "ablate":
            return cmd_ablate(cfg, args.out)
        if args.command == "gradcheck":
            return cmd_gradcheck(cfg, args.out)
        raise ValidationError(f"unknown command {args.command!r}")
    except NumericalError as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
