"""Sweep the label-oracle flip rate and measure what refinement recovers.

For each flip probability the script generates one scene, derives raw
argmax labels and mask-refined labels, and reports pixel/point error
rates.  The point columns show derive_clip_labels' default 2D -> 3D
path: the raw pixel labels are carried onto points (a point takes the
label of the lowest camera index that sees it), and the point labels
are then voted inside each view's masks carried onto the points.

Usage:
    python3 scripts/noise_sweep.py
    python3 scripts/noise_sweep.py --eps 0,0.2,0.4,0.6,0.8 --seed 7
"""

import argparse
from pathlib import Path

import numpy as np

from cnslab import (ClipNoiseConfig, MaskFragConfig, SceneConfig,
                    derive_clip_labels, generate_scene, label_error_rate,
                    mock_clip_scores, mock_sam_masks)
from cnslab.evaluation import format_value
from cnslab.scenesynth import gt_pixel_stack


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=Path("runs/noise_sweep"),
                        help="output directory (default: runs/noise_sweep)")
    parser.add_argument("--eps", default="0.0,0.1,0.2,0.3,0.4,0.5,0.6,0.8",
                        help="comma-separated flip probabilities")
    parser.add_argument("--block", type=int, default=4,
                        help="noise block size in pixels")
    parser.add_argument("--splits", type=int, default=3,
                        help="mask fragments per object")
    parser.add_argument("--jitter", type=int, default=1,
                        help="mask boundary jitter in pixels")
    parser.add_argument("--seed", type=int, default=0)
    return parser.parse_args()


def main():
    args = parse_args()
    scene = generate_scene(SceneConfig(), args.seed)
    corr = scene.correspondences()
    gt_pixel = gt_pixel_stack(scene)
    frag = MaskFragConfig(splits_per_object=args.splits,
                          boundary_jitter_px=args.jitter)
    masks = [mock_sam_masks(scene, k, frag, scene.seed)
             for k in range(len(scene.cameras))]

    rows = []
    for eps in (float(e) for e in args.eps.split(",")):
        noise = ClipNoiseConfig(eps=eps, block=args.block)
        scores = [mock_clip_scores(scene, k, noise, scene.seed)
                  for k in range(len(scene.cameras))]
        derived = derive_clip_labels(corr, scores, masks, len(scene.cloud))
        pixel_raw = np.mean([label_error_rate(m, g) for m, g in
                             zip(derived["pixel_raw"], gt_pixel)])
        pixel_ref = np.mean([label_error_rate(m, g) for m, g in
                             zip(derived["pixel_refined"], gt_pixel)])
        point_raw = label_error_rate(derived["point_raw"],
                                     scene.cloud.gt_labels)
        point_ref = label_error_rate(derived["point_refined"],
                                     scene.cloud.gt_labels)
        rows.append((eps, pixel_raw, pixel_ref, point_raw, point_ref))

    args.out.mkdir(parents=True, exist_ok=True)
    lines = ["eps,pixel_raw,pixel_refined,point_raw,point_refined"]
    lines += [",".join(format_value(v) for v in row) for row in rows]
    (args.out / "sweep.csv").write_text("\n".join(lines) + "\n")

    print(f"{'eps':>5} {'px raw':>8} {'px ref':>8} {'pt raw':>8} {'pt ref':>8}")
    for eps, pixel_raw, pixel_ref, point_raw, point_ref in rows:
        print(f"{eps:>5.2f} {pixel_raw:>8.4f} {pixel_ref:>8.4f} "
              f"{point_raw:>8.4f} {point_ref:>8.4f}")
    print(f"-> {args.out / 'sweep.csv'}")


if __name__ == "__main__":
    main()
