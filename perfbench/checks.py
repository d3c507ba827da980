"""Correctness checks on the files cnslab writes, and their fingerprints.

Each check raises ``CheckFailed`` with a reason; the runner counts the
operation as failed.  The checks read the program's outputs only through
its documented file formats and the public bundle reader.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path
from typing import Dict, List

import numpy as np


class CheckFailed(Exception):
    """An output of the program is wrong or missing."""


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _rows(path) -> List[Dict[str, str]]:
    try:
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
    except OSError as exc:
        raise CheckFailed(f"{path}: {exc}") from exc
    if not rows:
        raise CheckFailed(f"{path}: no data rows")
    return rows


def _float(text: str, where: str) -> float:
    try:
        return float(text)
    except (TypeError, ValueError):
        raise CheckFailed(f"{where}: not a number: {text!r}") from None


def check_refine_csv(path) -> Dict[str, float]:
    """refine.csv parses; returns the refined error of the ``points`` row."""
    rows = _rows(path)
    if list(rows[0]) != ["scope", "raw_error", "refined_error", "mask_purity"]:
        raise CheckFailed(f"{path}: unexpected header {list(rows[0])}")
    scopes = [row["scope"] for row in rows]
    views = [s for s in scopes if s.startswith("view_")]
    if scopes != views + ["points"] or \
            views != [f"view_{k}" for k in range(len(views))]:
        raise CheckFailed(f"{path}: unexpected scopes {scopes}")
    for row in rows:
        for col in ("raw_error", "refined_error"):
            value = _float(row[col], f"{path} {row['scope']} {col}")
            if not 0.0 <= value <= 1.0:
                raise CheckFailed(f"{path}: {row['scope']} {col}={value}")
    return {"refined_err3d": float(rows[-1]["refined_error"])}


def check_train_eval(metrics_csv, eval_csv) -> Dict[str, float]:
    """Every loss in the history is finite and eval matches the last epoch.

    ``cnslab eval`` rescores the saved checkpoint from scratch; its mIoU
    must equal the final-epoch mIoU that ``cnslab train`` logged, bit for
    bit (both files write floats with ``repr``).
    """
    history = _rows(metrics_csv)
    for row in history:
        for col in ("l_ce2d", "l_ce3d", "l_latent"):
            if not math.isfinite(_float(row[col], f"{metrics_csv} {col}")):
                raise CheckFailed(f"{metrics_csv}: epoch {row['epoch']} "
                                  f"{col}={row[col]}")
    scored = {row["domain"]: row["miou"] for row in _rows(eval_csv)}
    last = history[-1]
    for domain, col in (("pixels", "miou2d"), ("points", "miou3d")):
        if scored.get(domain) != last[col]:
            raise CheckFailed(f"eval {domain} mIoU {scored.get(domain)} != "
                              f"final-epoch {col} {last[col]}")
    return {"miou2d": _float(last["miou2d"], "miou2d"),
            "miou3d": _float(last["miou3d"], "miou3d")}


def check_report(report_csv, report_txt, rows: List[str],
                 seed: int) -> Dict[str, Dict[str, float]]:
    """Every requested (row, seed) is scored: no error cell, no absent value.

    Returns the scores of each row.
    """
    entries = _rows(report_csv)
    found = [(e["row"], e["seed"]) for e in entries]
    if sorted(found) != sorted((r, str(seed)) for r in rows):
        raise CheckFailed(f"{report_csv}: rows {found}, expected {rows}")
    scores = {}
    for entry in entries:
        if entry["error"]:
            raise CheckFailed(f"{report_csv}: {entry['row']} failed: "
                              f"{entry['error']}")
        scores[entry["row"]] = {
            col: _float(entry[col], f"{report_csv} {entry['row']} {col}")
            for col in ("miou2d", "miou3d", "err2d", "err3d")}
    if "absent" in Path(report_txt).read_text():
        raise CheckFailed(f"{report_txt}: a row median is absent")
    return scores


def check_bundle_roundtrip(scene, oracles, bundle_dir):
    """The arrays read back from ``bundle_dir`` equal those written.

    Float arrays are stored as float32, so the written side is compared
    after the same cast.  Returns the scene as read back.
    """
    from cnslab.bundle import read_bundle
    from cnslab.errors import CnsError

    try:
        back, back_oracles, _ = read_bundle(bundle_dir)
    except CnsError as exc:
        raise CheckFailed(f"{bundle_dir}: {exc}") from exc
    cloud, cloud_back = scene.cloud, back.cloud
    pairs = [("positions", cloud.positions, cloud_back.positions, np.float32),
             ("gt_labels", cloud.gt_labels, cloud_back.gt_labels, np.int32),
             ("object_ids", cloud.object_ids, cloud_back.object_ids, np.int32)]
    if len(scene.cameras) != len(back.cameras):
        raise CheckFailed(f"{bundle_dir}: {len(back.cameras)} cameras read, "
                          f"{len(scene.cameras)} written")
    for k, (cam, cam_back) in enumerate(zip(scene.cameras, back.cameras)):
        for field in ("fx", "fy", "cx", "cy", "width", "height",
                      "rotation", "translation"):
            if not np.array_equal(getattr(cam, field), getattr(cam_back, field)):
                raise CheckFailed(f"{bundle_dir}: camera {k} {field} differs")
        pairs += [
            (f"view_{k}.scores", oracles["scores"][k].scores,
             back_oracles["scores"][k].scores, np.float32),
            (f"view_{k}.masks", oracles["masks"][k].mask_ids,
             back_oracles["masks"][k].mask_ids, np.int32),
            (f"view_{k}.feat", oracles["features"][k].features,
             back_oracles["features"][k].features, np.float32)]
    for name, written, read, dtype in pairs:
        if not np.array_equal(np.asarray(written, dtype=dtype), read):
            raise CheckFailed(f"{bundle_dir}: {name} read back differs")
    return back


class Fingerprints:
    """sha256 of each output per key; later repeats must match the first."""

    def __init__(self):
        self.first: Dict[str, Dict[str, str]] = {}

    def check(self, key: str, files: Dict[str, Path]) -> Dict[str, str]:
        prints = {name: sha256(path) for name, path in files.items()}
        expected = self.first.setdefault(key, prints)
        if prints != expected:
            changed = sorted(n for n in prints if prints[n] != expected.get(n))
            raise CheckFailed(f"{key}: output differs from the first run: "
                              f"{changed}")
        return prints
