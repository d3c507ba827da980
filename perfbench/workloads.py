"""The benchmark's two workloads, run in-process through cnslab's entry points.

Each workload turns the benchmark seed into inputs, runs one operation
at a time and checks every output.  ``Op`` carries what one operation
produced: its timed duration, the key of the input it ran on, the
quality figures it read from the program's own files and the
fingerprints of those files.
"""

from __future__ import annotations

import contextlib
import io
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from checks import (CheckFailed, Fingerprints, check_bundle_roundtrip,
                    check_refine_csv, check_report, check_train_eval)
from tracer import Patcher, Tracer

# Both workloads run on the default scene (scene seed 0: 9600 points, 7053
# correspondences, 840 SGD steps per training run) whatever the benchmark
# seed, which seeds the training instead.  Every seed then does the same
# amount of work: the scene sets the number of SGD steps, and box placement
# fails outright for a few scene seeds (6 and 78 of 0-99).
DEFAULT_SCENE_SEED = 0

# The ablation rows run by ``ablate_standard``: the full method, one other
# trained row (self-training only, the co-corruption case) and both
# label-only rows.  All six trained rows would not fit one run.
ABLATION_ROWS = ("baseline", "wo_cns", "wo_clip", "full")


@dataclass
class Op:
    seconds: float
    key: str
    quality: Dict[str, float]
    fingerprints: Dict[str, str]


def cli(*argv):
    """Run one ``cnslab`` command in-process; its printout is discarded."""
    from cnslab.cli import main

    with contextlib.redirect_stdout(io.StringIO()):
        code = main([str(a) for a in argv])
    if code != 0:
        raise CheckFailed(f"cnslab {argv[0]} exited with code {code}")


class Workload:
    """Base: ``setup_argv`` is timed in fresh interpreters, ``op`` in-process."""

    name = ""
    per_op = 1  # operations one ``op`` call counts for
    # Per-layer metrics (by prefix) that read 0 because the layer does not
    # run on this workload; every other one must be nonzero when traced.
    idle: Tuple[str, ...] = ()

    def __init__(self, seed: int, tracer: Tracer):
        self.seed = seed
        self.tracer = tracer
        self.traced = False  # whether the next operation is traced
        self.fingerprints = Fingerprints()

    def setup_argv(self, out: Path) -> Sequence[str]:
        """``cnslab`` arguments that build the inputs; empty: import only."""
        return ()

    def prepare(self, setup_out: Path, patcher: Patcher):
        """In-process preparation after set-up, before the first operation."""

    def op(self, index: int, out: Path) -> Op:
        raise NotImplementedError

    def _timed(self, fn, *args) -> float:
        """Call ``fn``, traced if this operation is; return its seconds."""
        self.tracer.active = self.traced
        try:
            start = time.perf_counter()
            fn(*args)
            return time.perf_counter() - start
        finally:
            self.tracer.active = False


class TrainDefault(Workload):
    """synth (set-up), then refine, train and eval of the default scene.

    The bundle the operations read is written in-process once, so that
    the arrays passed to ``write_bundle`` can be compared with the ones
    read back; a traced operation runs and checks its own synth.
    """

    name = "train_default"
    idle = ("ablation.",)

    def __init__(self, seed, tracer, synth_in_op: bool = False):
        super().__init__(seed, tracer)
        self.synth_in_op = synth_in_op
        self.bundle: Optional[Path] = None
        self.written: List[Tuple[object, dict]] = []

    def setup_argv(self, out):
        return ("synth", "--out", out, "--seed", DEFAULT_SCENE_SEED)

    def prepare(self, setup_out, patcher):
        written = self.written

        def capture(write_bundle):
            def capturing(scene, oracles, *args, **kwargs):
                written.append((scene, oracles))
                return write_bundle(scene, oracles, *args, **kwargs)
            return capturing

        patcher.replace("bundle", "write_bundle", capture)
        if not self.synth_in_op:
            cli("synth", "--out", setup_out / "checked", "--seed",
                DEFAULT_SCENE_SEED)
            self.bundle = setup_out / "checked" / "bundle"

    def op(self, index, out):
        seed = ("--seed", self.seed)
        seconds = 0.0
        bundle = self.bundle
        if self.synth_in_op:
            seconds += self._timed(cli, "synth", "--out", out / "synth",
                                   "--seed", DEFAULT_SCENE_SEED)
            bundle = out / "synth" / "bundle"
        if self.written:
            scene, oracles = self.written.pop()
            check_bundle_roundtrip(scene, oracles, bundle)
        seconds += self._timed(cli, "refine", bundle, "--out", out / "refine")
        seconds += self._timed(cli, "train", bundle, "--out", out / "train", *seed)
        ckpt = out / "train" / "checkpoint.ckpt"
        seconds += self._timed(cli, "eval", bundle, ckpt, "--out", out / "eval",
                               *seed)
        quality = check_refine_csv(out / "refine" / "refine.csv")
        quality.update(check_train_eval(out / "train" / "metrics.csv",
                                        out / "eval" / "eval.csv"))
        key = f"train{self.seed}"
        prints = self.fingerprints.check(key, {
            "checkpoint.ckpt": ckpt,
            "metrics.csv": out / "train" / "metrics.csv",
            "refine.csv": out / "refine" / "refine.csv",
            "eval.csv": out / "eval" / "eval.csv"})
        return Op(seconds, key, quality, prints)


class AblateStandard(Workload):
    """The standard suite (1-epoch warm-up) on the default scene, four rows.

    This is what ``cnslab ablate --stage1_epochs 1 --seeds <seed>`` runs,
    except that the scene comes from the set-up bundle, the way
    ``run_ablation`` takes on-disk scenes, instead of from the seed.
    """

    name = "ablate_standard"
    per_op = len(ABLATION_ROWS)  # one operation per (row, seed)
    idle = ("nncore.checkpoint_", "bundle.", "scenesynth.scene_s",
            "scenesynth.masks_s", "scenesynth.scores_s", "scenesynth.features_s",
            "geometry.", "cli.")

    def setup_argv(self, out):
        return ("synth", "--out", out, "--seed", DEFAULT_SCENE_SEED)

    def prepare(self, setup_out, patcher):
        from cnslab.bundle import read_bundle
        from cnslab.cli import RunConfig

        scene, oracles, _ = read_bundle(setup_out / "bundle")
        self.scenes = {self.seed: (scene, oracles)}
        self.suite = RunConfig.resolve(None, [
            "--stage1_epochs", "1", "--seeds", str(self.seed),
            "--rows", ",".join(ABLATION_ROWS)]).suite_config()

    def _ablate(self, out: Path):
        from cnslab import ablation

        report = ablation.run_ablation(self.suite, self.scenes)
        out.mkdir(parents=True)
        ablation.write_report_csv(report, out / "report.csv")
        ablation.write_report_text(report, out / "report.txt")

    def op(self, index, out):
        seconds = self._timed(self._ablate, out)
        scores = check_report(out / "report.csv", out / "report.txt",
                              list(ABLATION_ROWS), self.seed)
        key = f"train{self.seed}"
        prints = self.fingerprints.check(key, {"report.csv": out / "report.csv"})
        quality = {"miou2d": scores["full"]["miou2d"],
                   "miou3d": scores["full"]["miou3d"],
                   "refined_err3d": scores["wo_cns"]["err3d"]}
        return Op(seconds, key, quality, prints)


WORKLOADS = {cls.name: cls for cls in (TrainDefault, AblateStandard)}


def make(name: str, seed: int, tracer: Tracer, trace: bool) -> Workload:
    if name == TrainDefault.name:
        # A traced run has no separately timed set-up, so it traces synth too.
        return TrainDefault(seed, tracer, synth_in_op=trace)
    return WORKLOADS[name](seed, tracer)
