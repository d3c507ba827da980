"""cnslab: cross-modality noisy-supervision laboratory.

Synthetic multi-view scenes with exact pixel-point correspondences,
controllable-noise label/mask/feature oracles, pseudo-label refinement,
numpy co-training of paired 2D/3D encoders, mIoU evaluation, an ablation
harness, and a bit-exact bundle format — all deterministic from a single
root seed.
"""

from .ablation import (ROW_ORDER, AblationReport, SuiteConfig, row_train_config,
                       run_ablation, write_report_csv, write_report_text)
from .bundle import (FORMAT_VERSION, read_bundle, read_manifest, read_raster,
                     write_bundle, write_raster)
from .errors import (BundleFormatError, CnsError, ConfigError, NumericalError,
                     PlacementError, ValidationError)
from .evaluation import confusion, coverage, label_error_rate, miou
from .geometry import (CameraModel, CorrespondenceSet, PointCloud,
                       build_correspondences, look_at, project_points)
from .nncore import (ModelBundle, ModelConfig, anchor_units, ce_loss,
                     class_layer, class_logits, config_hash, cosine_align_loss,
                     feature_major, grad_check,
                     load_checkpoint, make_bundle, save_checkpoint, sgd_step,
                     step)
from .pseudolabel import (IGNORE, VotePlan, argmax_label, derive_clip_labels,
                          refine_by_masks, refine_points_by_view_masks,
                          reproject_refine_points, transfer_labels,
                          transfer_masks, vote_plan)
from .scenesynth import (ClipNoiseConfig, MaskFragConfig, Scene, SceneConfig,
                         generate_scene, mock_clip_scores, mock_sam_features,
                         mock_sam_masks, mock_text_embeddings,
                         pixel_descriptors, point_descriptors, render_view,
                         standard_oracle_outputs)
from .seeding import derive_rng
from .training import (SOURCES, TrainConfig, TrainState, train,
                       write_metrics_csv)

__version__ = "0.1.0"

__all__ = [
    "AblationReport", "BundleFormatError", "CameraModel", "ClipNoiseConfig",
    "CnsError", "ConfigError", "CorrespondenceSet",
    "FORMAT_VERSION", "IGNORE", "MaskFragConfig", "ModelBundle",
    "ModelConfig", "NumericalError", "PlacementError", "PointCloud",
    "ROW_ORDER", "SOURCES", "Scene", "SceneConfig", "SuiteConfig",
    "TrainConfig", "TrainState", "ValidationError", "VotePlan", "anchor_units",
    "argmax_label", "build_correspondences", "ce_loss", "class_layer",
    "class_logits", "config_hash",
    "confusion", "cosine_align_loss", "coverage", "derive_clip_labels",
    "derive_rng", "feature_major", "generate_scene", "grad_check",
    "label_error_rate",
    "load_checkpoint", "look_at", "make_bundle", "miou", "mock_clip_scores",
    "mock_sam_features", "mock_sam_masks", "mock_text_embeddings",
    "pixel_descriptors", "point_descriptors", "project_points",
    "read_bundle", "read_manifest", "read_raster",
    "refine_by_masks", "refine_points_by_view_masks",
    "reproject_refine_points", "render_view", "row_train_config",
    "run_ablation", "save_checkpoint", "sgd_step",
    "standard_oracle_outputs", "step", "train",
    "transfer_labels", "transfer_masks", "vote_plan", "write_bundle",
    "write_metrics_csv", "write_raster", "write_report_csv",
    "write_report_text",
]
