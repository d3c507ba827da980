"""Span tracer that times cnslab from outside, by wrapping module functions.

A wrapped function records one span per call: its name, start, end and
the index of the span that was open when it was called (its parent).
Spans stay in memory and are written out once, at the end of a run.

Functions are patched where their callers look them up.  Modules import
each other's functions by name (``from .nncore import mlp_forward``), so
replacing ``nncore.mlp_forward`` alone would miss ``training``'s calls.
``Patcher`` therefore replaces every reference to the original function
in every loaded ``cnslab`` module, and puts them all back on exit.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

# Functions wrapped by the traced run, by module.  ``ablation._score_label_row``
# is private but is the only boundary around the label-only ablation rows.
# Functions without a metric of their own (``render_view``, ``miou``, ...)
# are wrapped so that their time is not counted as their caller's self time.
TRACED_FUNCTIONS: Dict[str, Tuple[str, ...]] = {
    "cli": ("main",),
    "nncore": ("mlp_forward", "mlp_backward", "class_logits", "ce_loss",
               "cosine_align_loss", "sgd_step", "save_checkpoint",
               "load_checkpoint"),
    "training": ("train", "init_state", "run_stage1", "run_stage2",
                 "compute_self_labels", "predict_labels_2d",
                 "predict_labels_3d"),
    "ablation": ("run_ablation", "_score_label_row"),
    "scenesynth": ("generate_scene", "mock_clip_scores", "mock_sam_masks",
                   "mock_sam_features", "pixel_descriptors",
                   "point_descriptors", "render_view", "mask_purity"),
    "geometry": ("build_correspondences",),
    "pseudolabel": ("derive_clip_labels", "refine_by_masks",
                    "refine_points_by_view_masks", "reproject_refine_points",
                    "transfer_labels", "transfer_masks"),
    "bundle": ("write_bundle", "write_raster", "read_bundle", "read_raster"),
    "evaluation": ("confusion", "miou", "label_error_rate", "coverage"),
}

# Names that must resolve to a wrapper once the tracer is installed: the
# places where the hot callers look their callees up.
REQUIRED_LOOKUPS = (("training", "mlp_forward"), ("training", "sgd_step"),
                    ("ablation", "train"), ("nncore", "class_logits"))

# A span: [name, start, end, parent index (-1 for a root), bytes moved].
Span = list


def _path_bytes(path) -> int:
    """Size of a file, or the summed size of the files in a directory."""
    path = os.fspath(path)
    if os.path.isdir(path):
        return sum(entry.stat().st_size for entry in os.scandir(path)
                   if entry.is_file())
    return os.path.getsize(path) if os.path.exists(path) else 0


# Spans of these functions also record the bytes of the file or directory
# named by the given positional argument, after the call returns.
_BYTES_ARG = {"bundle.write_bundle": 2, "bundle.write_raster": 0,
              "bundle.read_bundle": 0, "bundle.read_raster": 0}


class Patcher:
    """Replace every reference to some cnslab functions; undo on exit."""

    def __init__(self):
        self._undo: List[Tuple[object, str, object]] = []

    def replace(self, module_name: str, attr: str,
                make: Callable[[Callable], Callable]):
        """Swap ``cnslab.<module_name>.<attr>`` for ``make(original)``.

        Every loaded cnslab module whose attribute is the original
        function gets the replacement too.
        """
        module = sys.modules[f"cnslab.{module_name}"]
        original = getattr(module, attr)
        replacement = make(original)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "cnslab" or name.startswith("cnslab.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, original))
                    setattr(mod, key, replacement)

    def restore(self):
        for mod, key, original in reversed(self._undo):
            setattr(mod, key, original)
        self._undo.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()


class Tracer:
    """In-memory span recorder; records only while ``active`` is set."""

    def __init__(self):
        self.spans: List[Span] = []
        self.active = False
        self._stack: List[int] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        tracer = self
        bytes_arg = _BYTES_ARG.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                if bytes_arg is not None and len(args) > bytes_arg:
                    span[4] = _path_bytes(args[bytes_arg])

        return traced

    def install(self, patcher: Patcher,
                functions: Dict[str, Sequence[str]] = TRACED_FUNCTIONS):
        """Wrap every listed function; fail loudly if one is missing."""
        for module_name, names in functions.items():
            module = sys.modules.get(f"cnslab.{module_name}")
            if module is None:
                raise RuntimeError(f"cnslab.{module_name} is not imported")
            for attr in names:
                if not callable(getattr(module, attr, None)):
                    raise RuntimeError(
                        f"cnslab.{module_name}.{attr} is gone; update "
                        f"perfbench/tracer.py before tracing")
                patcher.replace(module_name, attr,
                                functools.partial(self.wrap,
                                                  f"{module_name}.{attr}"))
        for module_name, attr in REQUIRED_LOOKUPS:
            fn = getattr(sys.modules[f"cnslab.{module_name}"], attr)
            if not hasattr(fn, "__wrapped__"):
                raise RuntimeError(f"cnslab.{module_name}.{attr} is not traced")

    def write(self, path):
        """Write the spans as JSON lines: name, start, end, parent, bytes."""
        with open(path, "w") as fh:
            for name, start, end, parent, nbytes in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "bytes": nbytes}) + "\n")


# ---------------------------------------------------------------------------
# span arithmetic


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part of it that its children cover.

    Children of one parent may overlap only if something ran them
    concurrently; their covered time is the union of their intervals.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for idx, (name, start, end, *_rest) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append((end - start) - covered)
    return out


def outermost(spans: Sequence[Span], names: Iterable[str]) -> List[int]:
    """Indices of spans named in ``names`` with no ancestor also named there.

    Summing only these avoids counting a nested call twice, such as
    ``refine_by_masks`` called from ``derive_clip_labels``.
    """
    names = set(names)
    keep = []
    for idx, span in enumerate(spans):
        if span[0] not in names:
            continue
        parent = span[3]
        while parent >= 0 and spans[parent][0] not in names:
            parent = spans[parent][3]
        if parent < 0:
            keep.append(idx)
    return keep


def inference_useful_frac(names: Iterable[str]) -> Tuple[int, int]:
    """(useful, total) ``predict_labels_2d`` calls in call order.

    The parameter version advances with every ``sgd_step``; a prediction
    is useful when no earlier prediction saw the same version.
    """
    version, seen, useful, total = 0, set(), 0, 0
    for name in names:
        if name == "nncore.sgd_step":
            version += 1
        elif name == "training.predict_labels_2d":
            total += 1
            if version not in seen:
                seen.add(version)
                useful += 1
    return useful, total


def layer_metrics(spans: Sequence[Span], ops: int) -> Dict[str, float]:
    """Per-layer metrics, each divided by the number of traced operations."""
    selfs = self_times(spans)

    def dur(idx):
        return spans[idx][2] - spans[idx][1]

    def total(*names):
        return sum(dur(i) for i in outermost(spans, names))

    def calls(name):
        return sum(1 for span in spans if span[0] == name)

    def parent_name(idx):
        parent = spans[idx][3]
        return spans[parent][0] if parent >= 0 else None

    stages = ("training.run_stage1", "training.run_stage2")
    under_stage = [i for i, span in enumerate(spans)
                   if span[0] in ("training.predict_labels_2d",
                                  "training.predict_labels_3d",
                                  "evaluation.confusion")
                   and parent_name(i) in stages]
    trained_runs = [i for i, span in enumerate(spans)
                    if span[0] == "training.train"
                    and parent_name(i) == "ablation.run_ablation"]
    useful, passes = inference_useful_frac(span[0] for span in spans)
    bundle_io = ("bundle.write_bundle", "bundle.write_raster",
                 "bundle.read_bundle", "bundle.read_raster")

    raw = {
        "nncore.forward_s": total("nncore.mlp_forward"),
        "nncore.forward_calls": calls("nncore.mlp_forward"),
        "nncore.backward_s": total("nncore.mlp_backward"),
        "nncore.logits_s": total("nncore.class_logits"),
        "nncore.ce_loss_s": total("nncore.ce_loss"),
        "nncore.align_loss_s": total("nncore.cosine_align_loss"),
        "nncore.sgd_step_s": total("nncore.sgd_step"),
        "nncore.sgd_steps": calls("nncore.sgd_step"),
        "nncore.checkpoint_write_s": total("nncore.save_checkpoint"),
        "nncore.checkpoint_read_s": total("nncore.load_checkpoint"),
        "training.init_s": total("training.init_state"),
        "training.stage1_s": total("training.run_stage1"),
        "training.stage2_s": total("training.run_stage2"),
        "training.loop_self_s": sum(selfs[i] for i, span in enumerate(spans)
                                    if span[0] in stages),
        "training.self_labels_s": total("training.compute_self_labels"),
        "training.inference_s": total("training.predict_labels_2d",
                                      "training.predict_labels_3d"),
        "training.inference_passes": passes,
        "training.epoch_metrics_s": sum(dur(i) for i in under_stage),
        "ablation.trained_run_s": sum(dur(i) for i in trained_runs),
        "ablation.label_rows_s": total("ablation._score_label_row"),
        "ablation.runs": len(trained_runs),
        "scenesynth.scene_s": total("scenesynth.generate_scene"),
        "scenesynth.masks_s": total("scenesynth.mock_sam_masks"),
        "scenesynth.scores_s": total("scenesynth.mock_clip_scores"),
        "scenesynth.features_s": total("scenesynth.mock_sam_features"),
        "scenesynth.descriptors_s": total("scenesynth.pixel_descriptors",
                                          "scenesynth.point_descriptors"),
        "geometry.correspondences_s": total("geometry.build_correspondences"),
        "geometry.correspondences_calls": calls("geometry.build_correspondences"),
        "pseudolabel.derive_s": total("pseudolabel.derive_clip_labels"),
        "pseudolabel.refine_s": total("pseudolabel.refine_by_masks",
                                      "pseudolabel.refine_points_by_view_masks",
                                      "pseudolabel.reproject_refine_points"),
        "pseudolabel.transfer_s": total("pseudolabel.transfer_labels",
                                        "pseudolabel.transfer_masks"),
        "bundle.write_s": total("bundle.write_bundle", "bundle.write_raster"),
        "bundle.read_s": total("bundle.read_bundle", "bundle.read_raster"),
        "bundle.bytes": sum(spans[i][4] for i in outermost(spans, bundle_io)),
        "evaluation.confusion_s": total("evaluation.confusion"),
        "evaluation.confusion_calls": calls("evaluation.confusion"),
        "cli.self_s": sum(selfs[i] for i, span in enumerate(spans)
                          if span[0] == "cli.main"),
    }
    metrics = {key: value / ops for key, value in raw.items()}
    metrics["training.inference_useful_frac"] = useful / passes if passes else 0.0
    return metrics
