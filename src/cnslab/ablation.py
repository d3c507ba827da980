"""Ablation suite: the structural comparison rows on synthetic scenes.

Every row is evaluated on identical scene bundles and seeds:

* baseline   — raw oracle argmax labels, scored directly on pixels and
               carried to points along the correspondences; no training.
* wo_cns     — mask-refined oracle labels, likewise untrained.
* wo_refine  — full training but labels are never mask-refined.
* wo_ct      — stage-2 sources restricted to each network's own modality
               (no cross-training).
* wo_sct     — no stage 2 at all (oracle labels only, no switching).
* wo_clip    — oracle-derived sources disabled in stage 2 (self-training
               only), the co-corruption configuration.
* wo_latent  — no latent alignment loss.
* full       — the complete method.

Reports are deterministic: identical suite configs produce byte-identical
CSV and text output.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from .errors import CnsError, ConfigError
from .evaluation import confusion, coverage, csv_cell, label_error_rate, miou
from .nncore import ModelConfig, config_hash
from .pseudolabel import derive_clip_labels
from .scenesynth import (MAX_FEAT_SIGMA, PIXEL_DESC_DIM, POINT_DESC_DIM,
                         ClipNoiseConfig, MaskFragConfig, Scene, SceneConfig,
                         generate_scene, gt_pixel_stack, standard_oracle_outputs)
from .seeding import SEED_BOUND
from .training import (TrainConfig, TrainState, init_state, predictions,
                       run_stage1, scene_descriptors, train, warmup_key)

logger = logging.getLogger(__name__)

ROW_ORDER = ("baseline", "wo_cns", "wo_refine", "wo_ct", "wo_sct",
             "wo_clip", "wo_latent", "full")


@dataclass(frozen=True)
class SuiteConfig:
    """One ablation campaign: scene, oracles, model, training, seeds, rows.

    It is also the whole flat configuration of the `cnslab` command: every
    field, and every field of the nested configs, is one CLI key.
    """

    scene: SceneConfig = field(default_factory=SceneConfig)
    clip_noise: ClipNoiseConfig = field(default_factory=ClipNoiseConfig)
    frag: MaskFragConfig = field(default_factory=MaskFragConfig)
    feat_dim: int = 32
    feat_sigma: float = 0.1
    embed_dim: int = 64
    anchor_dim: int = 16
    hidden: Tuple[int, ...] = (64,)
    latent_dim: int = 48
    train: TrainConfig = field(default_factory=TrainConfig)
    seeds: Tuple[int, ...] = (0, 1, 2)
    rows: Tuple[str, ...] = ROW_ORDER

    def validate(self):
        self.scene.validate()
        self.clip_noise.validate()
        self.frag.validate()
        self.train.validate()
        self.model_config().validate()
        if not 0 <= self.feat_sigma <= MAX_FEAT_SIGMA:
            raise ConfigError(
                f"feat_sigma must be >= 0 and <= {MAX_FEAT_SIGMA:g}, "
                f"got {self.feat_sigma}")
        if not self.seeds:
            raise ConfigError("need at least one seed")
        if not self.rows:
            raise ConfigError("need at least one row")
        for seed in self.seeds:
            if not 0 <= seed < SEED_BOUND:
                raise ConfigError(f"seed must be in [0, 2**32), got {seed}")
        for row in self.rows:
            if row not in ROW_ORDER:
                raise ConfigError(f"unknown ablation row {row!r}")
        # A repeat would count one run twice in the row medians.
        for name, values in (("seed", self.seeds), ("row", self.rows)):
            if len(set(values)) < len(values):
                raise ConfigError(f"each {name} may be given once, got "
                                  f"{','.join(map(str, values))}")

    def model_config(self) -> ModelConfig:
        """The model every trained run of this configuration builds."""
        return ModelConfig(input2d_dim=PIXEL_DESC_DIM, input3d_dim=POINT_DESC_DIM,
                           hidden=self.hidden, latent_dim=self.latent_dim,
                           embed_dim=self.embed_dim, anchor_dim=self.anchor_dim,
                           sam_dim=self.feat_dim)


def row_train_config(row: str, base: TrainConfig) -> Optional[TrainConfig]:
    """Training configuration of a row; None for the untrained rows."""
    if row in ("baseline", "wo_cns"):
        return None
    if row == "wo_refine":
        return replace(base, refine_labels=False)
    if row == "wo_ct":
        return replace(base,
                       switch_probs_2d=(0.5, 0.0, 0.5, 0.0),
                       switch_probs_3d=(0.0, 0.5, 0.0, 0.5))
    if row == "wo_sct":
        return replace(base, stage1_epochs=base.total_epochs)
    if row == "wo_clip":
        return replace(base, switch_probs_2d=(0.0, 0.0, 0.5, 0.5),
                       switch_probs_3d=(0.0, 0.0, 0.5, 0.5))
    if row == "wo_latent":
        return replace(base, latent_loss_weight=0.0)
    if row == "full":
        return base
    raise ConfigError(f"unknown ablation row {row!r}")


@dataclass
class AblationReport:
    """Per-(row, seed) scores plus per-row medians."""

    rows: List[dict]
    medians: Dict[str, dict]
    suite_hash: str
    row_hashes: Dict[str, str]


def _score_label_row(scene: Scene, pred_pixel: np.ndarray, pred_point: np.ndarray,
                     gt_pixel: np.ndarray, gt_point: np.ndarray) -> dict:
    """Scores of one row's (V, H, W) pixel and (N,) point predictions."""
    num_classes = scene.num_classes
    _, miou2 = miou(confusion(pred_pixel, gt_pixel, num_classes))
    _, miou3 = miou(confusion(pred_point, gt_point, num_classes))
    return {
        "miou2d": miou2, "miou3d": miou3,
        "err2d": label_error_rate(pred_pixel, gt_pixel),
        "err3d": label_error_rate(pred_point, gt_point),
        "coverage3d": coverage(pred_point),
    }


def run_ablation(suite: SuiteConfig, scenes: Optional[dict] = None) -> AblationReport:
    """Evaluate every requested row on every seed's scene.

    `scenes` may carry pre-generated {seed: (scene, oracles)} pairs, for
    example scenes read from on-disk bundles; missing seeds are generated
    from the suite config.  Row failures are recorded in that row's entry
    without aborting the remaining rows.
    """
    suite.validate()
    rows_out: List[dict] = []
    row_hashes: Dict[str, str] = {}
    per_row: Dict[str, Dict[str, List[float]]] = {
        row: {"miou2d": [], "miou3d": []} for row in suite.rows}
    for seed in suite.seeds:
        if scenes is not None and seed in scenes:
            scene, oracles = scenes[seed]
        else:
            scene = generate_scene(suite.scene, seed)
            oracles = standard_oracle_outputs(
                scene, suite.clip_noise, suite.frag, suite.feat_dim,
                suite.feat_sigma, suite.embed_dim)
        corr = scene.correspondences()
        gt_pixel = gt_pixel_stack(scene)
        gt_point = scene.cloud.gt_labels
        labels = derive_clip_labels(corr, oracles["scores"], oracles["masks"],
                                    len(scene.cloud))
        # Built at this seed's first trained row.
        descriptors = None
        configs = {row: row_train_config(row, replace(suite.train, seed=seed))
                   for row in suite.rows}
        # Trained rows that agree up to stage 2 share one warm-up, as long as
        # the group's shortest stage 1, built at the group's first row.
        groups: Dict[TrainConfig, List[int]] = {}
        for cfg in configs.values():
            if cfg is not None:
                groups.setdefault(warmup_key(cfg), []).append(cfg.stage1_epochs)
        warmups: Dict[TrainConfig, TrainState] = {}
        for row in suite.rows:
            entry = {"row": row, "seed": seed}
            try:
                cfg = configs[row]
                if cfg is None:
                    key = "raw" if row == "baseline" else "refined"
                    pred_pixel = labels[f"pixel_{key}"]
                    pred_point = labels[f"point_{key}"]
                    hashed = (row, suite.clip_noise, suite.frag)
                else:
                    if descriptors is None:
                        descriptors = scene_descriptors(scene)
                    group = warmup_key(cfg)
                    if len(groups[group]) > 1 and group not in warmups:
                        warmups[group] = run_stage1(
                            init_state(scene, oracles, cfg, suite.model_config(),
                                       descriptors),
                            min(groups[group]))
                    state = train(scene, oracles, cfg, suite.model_config(),
                                  descriptors, start=warmups.get(group))
                    pred_pixel, pred_point = predictions(state)
                    hashed = replace(cfg, seed=0)
                scored = _score_label_row(scene, pred_pixel, pred_point,
                                          gt_pixel, gt_point)
                row_hashes.setdefault(row, config_hash(hashed))
                entry.update(scored)
                per_row[row]["miou2d"].append(scored["miou2d"])
                per_row[row]["miou3d"].append(scored["miou3d"])
            except CnsError as exc:
                logger.error("row %s seed %d failed: %s", row, seed, exc)
                entry["error"] = str(exc)
            rows_out.append(entry)
    medians = {}
    for row in suite.rows:
        vals2 = [v for v in per_row[row]["miou2d"] if v is not None]
        vals3 = [v for v in per_row[row]["miou3d"] if v is not None]
        medians[row] = {
            "miou2d": float(np.median(vals2)) if vals2 else None,
            "miou3d": float(np.median(vals3)) if vals3 else None,
        }
    return AblationReport(rows_out, medians, config_hash(suite), row_hashes)


def write_report_csv(report: AblationReport, path):
    """One CSV row per configuration per seed, canonical order."""
    columns = ("row", "seed", "miou2d", "miou3d", "err2d", "err3d",
               "coverage3d", "config_hash", "error")
    lines = [",".join(columns)]
    ordered = sorted(report.rows,
                     key=lambda r: (ROW_ORDER.index(r["row"]), r["seed"]))
    for entry in ordered:
        cells = []
        for col in columns:
            if col == "config_hash":
                cells.append(report.row_hashes.get(entry["row"], ""))
            else:
                cells.append(csv_cell(entry.get(col, "")))
        lines.append(",".join(cells))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_report_text(report: AblationReport, path):
    """Human-readable summary: per-row medians plus the suite hash."""
    lines = [f"ablation suite {report.suite_hash}", ""]
    lines.append(f"{'row':<12} {'miou2d':>10} {'miou3d':>10}")
    for row in ROW_ORDER:
        if row not in report.medians:
            continue
        med = report.medians[row]
        lines.append(f"{row:<12} {_fmt_median(med['miou2d']):>10} "
                     f"{_fmt_median(med['miou3d']):>10}")
    errors = [e for e in report.rows if "error" in e]
    if errors:
        lines.append("")
        for entry in errors:
            lines.append(f"FAILED {entry['row']} seed {entry['seed']}: {entry['error']}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _fmt_median(value) -> str:
    return "absent" if value is None else f"{value:.4f}"
