"""Command-line front end.

One binary with subcommands covering the whole pipeline:

    cnslab synth   --out DIR [--config FILE] [--key value ...]
    cnslab refine  BUNDLE --out DIR [...]
    cnslab train   BUNDLE --out DIR [...]
    cnslab eval    BUNDLE CHECKPOINT --out DIR [...]
    cnslab ablate  --out DIR [...]
    cnslab gradcheck [--out DIR] [...]

Configuration is a flat key=value namespace with one key per field of
ablation.SuiteConfig and of the configs nested in it: defaults, then the
optional `--config` file, then `--key value` overrides, in that order.
Unknown keys are errors.  Every command echoes the fully resolved
configuration into its output directory as `resolved.cfg`, so a run
directory is self-describing.  The `CNS_LOG` environment variable sets
the logging level (DEBUG/INFO/WARNING/ERROR).  Exit codes: 0 success,
1 validation error, 2 numerical abort.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys
import typing
from pathlib import Path
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import ablation, bundle, evaluation, nncore, pseudolabel, scenesynth, training
from .errors import ConfigError, NumericalError, ValidationError
from .evaluation import csv_cell, format_value, parse_value, read_text
from .seeding import TAG_GRADCHECK, derive_rng

logger = logging.getLogger("cnslab")

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2


# ---------------------------------------------------------------------------
# flat configuration schema


# Config fields whose CLI key differs from the field name.
_RENAMES = {"splits_per_object": "splits", "boundary_jitter_px": "jitter"}


class _Key(NamedTuple):
    hint: object  # the field's type hint, read by evaluation.parse_value
    default: object


def _fields(cls):
    """(CLI key, field, type hint) of each field of a config dataclass."""
    hints = typing.get_type_hints(cls)
    return [(_RENAMES.get(f.name, f.name), f, hints[f.name])
            for f in dataclasses.fields(cls)]


def _build_schema(cls=ablation.SuiteConfig) -> Dict[str, _Key]:
    """The fields of SuiteConfig, each nested config's fields in its place."""
    schema: Dict[str, _Key] = {}
    for key, f, hint in _fields(cls):
        if dataclasses.is_dataclass(hint):
            schema.update(_build_schema(hint))
        else:
            schema[key] = _Key(hint, f.default)
    return schema


SCHEMA = _build_schema()


def _build_config(cls, values: Dict[str, object]):
    return cls(**{f.name: _build_config(hint, values)
                  if dataclasses.is_dataclass(hint) else values[key]
                  for key, f, hint in _fields(cls)})


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
            return key, parse_value(SCHEMA[key].hint, text)
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
            seen = set()
            for lineno, line in enumerate(read_text(path, ConfigError).splitlines(), start=1):
                stripped = line.strip()
                if not stripped or stripped.startswith("#"):
                    continue
                if "=" not in stripped:
                    raise ConfigError(
                        f"{path.name}:{lineno}: expected key=value, got {line!r}")
                key, text = stripped.split("=", 1)
                key, value = cls._parse_pair(key.strip(), text.strip(),
                                             f"{path.name}:{lineno}")
                if key in seen:
                    raise ConfigError(f"{path.name}:{lineno}: duplicate key {key!r}")
                seen.add(key)
                values[key] = value
        for key, value in _parse_overrides(overrides):
            values[key] = value
        cfg = cls(values)
        cfg.suite_config().validate()
        return cfg

    def suite_config(self) -> ablation.SuiteConfig:
        """The configuration as one SuiteConfig, nested configs included."""
        return _build_config(ablation.SuiteConfig, self.values)

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
        if any(key == seen for seen, _ in pairs):
            raise ConfigError(f"command line: repeated option --{key}")
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
    suite = cfg.suite_config()
    scene = scenesynth.generate_scene(suite.scene, cfg["seed"])
    oracles = scenesynth.standard_oracle_outputs(
        scene, suite.clip_noise, suite.frag, suite.feat_dim, suite.feat_sigma,
        suite.embed_dim)
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
        refine3d_mode=cfg["refine3d_mode"])

    gt_pixel = scenesynth.gt_pixel_stack(scene)
    rows = []
    for k in range(len(scene.cameras)):
        raw_err = evaluation.label_error_rate(derived["pixel_raw"][k], gt_pixel[k])
        ref_err = evaluation.label_error_rate(derived["pixel_refined"][k],
                                              gt_pixel[k])
        purity = scenesynth.mask_purity(oracles["masks"][k], gt_pixel[k])
        rows.append((f"view_{k}", raw_err, ref_err, purity))
        bundle.write_raster(out / f"view_{k}.labels.bin",
                            derived["pixel_refined"][k], "<i4")
    gt_point = scene.cloud.gt_labels
    rows.append(("points",
                 evaluation.label_error_rate(derived["point_raw"], gt_point),
                 evaluation.label_error_rate(derived["point_refined"], gt_point),
                 None))
    bundle.write_raster(out / "point_labels.bin",
                        derived["point_refined"].reshape(-1, 1), "<i4")

    lines = ["scope,raw_error,refined_error,mask_purity"]
    lines += [",".join([scope, *(csv_cell(v) for v in values)])
              for scope, *values in rows]
    (out / "refine.csv").write_text("\n".join(lines) + "\n")
    for scope, raw_err, ref_err, purity in rows:
        print(f"{scope}: raw_error={raw_err} refined_error={ref_err} "
              f"mask_purity={purity}")
    return EXIT_OK


def cmd_train(cfg: RunConfig, bundle_dir: str, out_dir: str) -> int:
    """Train both networks on a bundle; write checkpoint and metrics."""
    out = _prepare_out(cfg, out_dir)
    scene, oracles, _ = _load_bundle(bundle_dir)
    if "embeddings" not in oracles:
        raise ValidationError("bundle lacks embedding metadata; cannot train")
    suite = cfg.suite_config()
    tconf = suite.train
    state = training.train(scene, oracles, tconf, suite.model_config())
    nncore.save_checkpoint(state.bundle, out / "checkpoint.ckpt",
                           extra={"train_hash": nncore.config_hash(tconf),
                                  "descriptor_noise": tconf.descriptor_noise})
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
    # The network only scores right on the descriptors it was trained on.
    # Checkpoints from before this header key was written are not checked.
    trained = meta.get("x_descriptor_noise")
    noise = format_value(cfg["descriptor_noise"])
    if trained is not None and trained != noise:
        raise ValidationError(
            f"checkpoint was trained with descriptor_noise={trained} but eval "
            f"uses descriptor_noise={noise}; pass --descriptor_noise {trained}")
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
        f"domain,miou\npixels,{csv_cell(miou2d)}\npoints,{csv_cell(miou3d)}\n")
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


# The model of every gradient-check trial: small enough that grad_check
# probes every element (no block holds more than 108), with every layer
# kind of the shipped model.
GRADCHECK_MODEL = nncore.ModelConfig(
    input2d_dim=7, input3d_dim=6, hidden=(10,), latent_dim=9,
    embed_dim=12, anchor_dim=8, sam_dim=4)


def gradient_trials(root_seed: int, first_trial: int
                    ) -> Iterator[Tuple[str, nncore.ModelBundle, dict]]:
    """(check name, model, batch) of the checks of ten random trials.

    Trial i draws its model and batch from the stream (root_seed,
    TAG_GRADCHECK, first_trial + i).  Each loss term is checked alone
    ("ce2d", "ce3d", "latent"), then the full training-shaped step (both
    cross-entropies plus the latent term on distinct paired 3D rows) at
    latent weights 1.0 and 0.5 ("step").
    """
    num_classes, batch = 5, 8
    config = GRADCHECK_MODEL
    for trial in range(first_trial, first_trial + 10):
        rng = derive_rng(root_seed, TAG_GRADCHECK, trial)
        embeddings = scenesynth.mock_text_embeddings(
            num_classes, config.embed_dim, int(rng.integers(1 << 30)))
        model = nncore.make_bundle(config, embeddings, int(rng.integers(1 << 30)))
        x2d = rng.standard_normal((batch, config.input2d_dim))
        x3d = rng.standard_normal((batch, config.input3d_dim))
        y = rng.integers(0, num_classes, size=batch)
        y[0] = pseudolabel.IGNORE  # the ignore path must be differentiable too
        anchors = nncore.anchor_units(model, rng.standard_normal((batch, config.sam_dim)))
        pair3d = rng.standard_normal((batch, config.input3d_dim))
        y3d = rng.integers(0, num_classes, size=batch)
        y3d[-1] = pseudolabel.IGNORE
        yield "ce2d", model, {"x2d": x2d, "y2d": y}
        yield "ce3d", model, {"x3d": x3d, "y3d": y}
        yield "latent", model, {"x2d": x2d, "pair3d": x3d, "anchors": anchors,
                                "latent_weight": 1.0}
        for w in (1.0, 0.5):
            yield "step", model, {"x2d": x2d, "y2d": y, "x3d": x3d, "y3d": y3d,
                                  "pair3d": pair3d, "anchors": anchors, "latent_weight": w}


def gradient_errors(root_seed: int, first_trial: int) -> Dict[str, nncore.GradCheck]:
    """Per check name of gradient_trials, the check with the worst error."""
    worst = {}
    for name, model, batch in gradient_trials(root_seed, first_trial):
        result = nncore.grad_check(model, batch)
        if name not in worst or result.error > worst[name].error:
            worst[name] = result
    return worst


def cmd_gradcheck(cfg: RunConfig, out_dir: Optional[str] = None) -> int:
    """Finite-difference verification of the training-step gradient."""
    if out_dir is not None:
        _prepare_out(cfg, out_dir)
    tol = 1e-4
    worst = gradient_errors(cfg["seed"], 0)
    for name, result in worst.items():
        print(f"{name}: max relative error {result.error:.3e} "
              f"(skipped {result.skipped} of {result.pairs} probe pairs)")
    print("anchor head gradient: identically zero (frozen)")
    top = max(result.error for result in worst.values())
    if top >= tol:
        raise NumericalError(
            f"gradient check failed: max relative error {top:.3e} >= {tol}")
    print(f"gradcheck passed (tolerance {tol})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing and dispatch


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 1 through main, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
