"""Acceptance gate: nine end-to-end criteria with pinned tolerances.

Each criterion is one test that prints a single "[acceptance N]
PASS/FAIL" line with the measured quantities, then asserts.  Criteria
with a wall-clock budget include the elapsed time in the verdict.  The
standard ablation suite is run once in a module fixture and shared by
the two criteria that read it and by the check of README's table.
"""

import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from cnslab import ablation, cli, evaluation, pseudolabel, training
from cnslab.bundle import read_bundle, write_bundle
from cnslab.geometry import build_correspondences
from cnslab.nncore import (ModelConfig, feature_major, make_bundle, mlp_forward,
                           param_views, step)
from cnslab.scenesynth import (PIXEL_DESC_DIM, POINT_DESC_DIM, ClipNoiseConfig,
                               MaskFragConfig, SceneConfig, generate_scene,
                               mock_clip_scores, mock_sam_masks,
                               mock_text_embeddings, pixel_descriptors,
                               point_descriptors, render_view,
                               standard_oracle_outputs)
from cnslab.training import TrainConfig

from conftest import project_point


def _report(num: int, description: str, ok: bool):
    verdict = "PASS" if ok else "FAIL"
    print(f"[acceptance {num}] {verdict}: {description}")
    assert ok, f"acceptance criterion {num} failed: {description}"


# ---------------------------------------------------------------------------
# 1. voting oracle equivalence


def test_ac1_mask_vote_matches_recount():
    start = time.perf_counter()
    rng = np.random.default_rng(20260824)
    exact = 0
    for _ in range(100):
        h, w = (int(rng.integers(4, 65)) for _ in range(2))
        num_classes = int(rng.integers(2, 17))
        num_masks = int(rng.integers(1, 13))
        labels = rng.integers(-1, num_classes, size=(h, w)).astype(np.int32)
        masks = rng.integers(-1, num_masks, size=(h, w)).astype(np.int32)
        got = pseudolabel.refine_by_masks(labels, masks)
        # Independent recount: one histogram per mask, plurality with
        # lowest-class tie break, IGNORE never votes or changes.
        expect = labels.copy()
        for m in range(num_masks):
            member = (masks == m) & (labels != pseudolabel.IGNORE)
            votes = Counter(int(v) for v in labels[member])
            if not votes:
                continue
            top = max(votes.values())
            expect[member] = min(c for c, n in votes.items() if n == top)
        exact += int(np.array_equal(got, expect))
    elapsed = time.perf_counter() - start
    _report(1, f"mask-vote refinement equals per-mask recount on {exact}/100 "
               f"random instances in {elapsed:.2f}s (budget 5s)",
            exact == 100 and elapsed < 5.0)


# ---------------------------------------------------------------------------
# 2. refinement reduces pixel label noise


def test_ac2_refinement_beats_raw_labels():
    start = time.perf_counter()
    cfg = SceneConfig(object_count=8, points_per_object=300,
                      background_points=1200, num_classes=8, camera_count=1)
    noise = ClipNoiseConfig(eps=0.4, block=1)
    frag = MaskFragConfig(splits_per_object=3, boundary_jitter_px=0)
    wins = 0
    min_mean_mask = float("inf")
    for seed in range(100):
        scene = generate_scene(cfg, seed)
        gt = render_view(scene, 0).label
        raw = pseudolabel.argmax_label(mock_clip_scores(scene, 0, noise, seed).scores)
        masks = mock_sam_masks(scene, 0, frag, seed)
        refined = pseudolabel.refine_by_masks(raw, masks.mask_ids)
        raw_err = evaluation.label_error_rate(raw, gt)
        ref_err = evaluation.label_error_rate(refined, gt)
        wins += int(ref_err < raw_err)
        mean_mask = masks.mask_ids.size / float(masks.mask_ids.max() + 1)
        min_mean_mask = min(min_mean_mask, mean_mask)
    elapsed = time.perf_counter() - start
    _report(2, f"refined pixel error beat raw error in {wins}/100 seeds "
               f"(need >= 95; mean mask size >= {min_mean_mask:.1f} px, "
               f"need >= 9) in {elapsed:.1f}s (budget 30s)",
            wins >= 95 and min_mean_mask >= 9.0 and elapsed < 30.0)


# ---------------------------------------------------------------------------
# 3. projection oracle equivalence


def test_ac3_correspondences_match_exhaustive_scan():
    start = time.perf_counter()
    matches = 0
    for trial in range(20):
        cfg = SceneConfig(object_count=2 + trial % 4, points_per_object=80,
                          background_points=250, num_classes=5,
                          camera_count=1 + trial % 3, image_width=40,
                          image_height=40, focal=30.0)
        scene = generate_scene(cfg, 100 + trial)
        assert len(scene.cloud) <= 1000
        corr = build_correspondences(scene.cameras, scene.cloud)
        # Exhaustive scan: per camera and pixel keep the nearest point,
        # ties to the lowest point index.
        rows = []
        for k, cam in enumerate(scene.cameras):
            best = {}
            for i, pos in enumerate(scene.cloud.positions):
                hit = project_point(cam, pos)
                if hit is None:
                    continue
                u, v, depth = hit
                if (u, v) not in best or depth < best[(u, v)][0]:
                    best[(u, v)] = (depth, i)
            rows.extend((i, k, u, v, depth)
                        for (u, v), (depth, i) in best.items())
        rows.sort(key=lambda r: (r[1], r[3], r[2]))
        quads = [(int(p), int(k), int(u), int(v))
                 for p, k, u, v, _ in rows]
        got = list(zip(corr.point_index.tolist(), corr.camera_index.tolist(),
                       corr.u.tolist(), corr.v.tolist()))
        depth = np.array([r[4] for r in rows])
        # The winner structure must match exactly; depth values may differ
        # in the last bits (vectorized vs per-point matmul ordering).
        same = (quads == got and len(depth) == len(corr.depth)
                and np.allclose(depth, corr.depth, rtol=1e-12, atol=0.0))
        matches += int(same)
    elapsed = time.perf_counter() - start
    _report(3, f"correspondence builder equals exhaustive z-buffer scan on "
               f"{matches}/20 scenes (winner sets exact, depth to 1e-12 "
               f"relative) in {elapsed:.1f}s (budget 10s)",
            matches == 20 and elapsed < 10.0)


# ---------------------------------------------------------------------------
# 4. gradient verification


def test_ac4_gradients_match_finite_differences():
    start = time.perf_counter()
    worst = cli.gradient_errors(7, 1000)
    config = cli.GRADCHECK_MODEL
    model = make_bundle(config, mock_text_embeddings(5, config.embed_dim, 0), 0)
    anchor_frozen = "anchor_head.w" not in param_views(model.config, model.params)
    elapsed = time.perf_counter() - start
    errors = ", ".join(f"{kind} {result.error:.2e}" for kind, result in worst.items())
    _report(4, f"max relative gradient error {errors} over 10 batches "
               f"(tolerance 1e-4), frozen-anchor gradient identically zero: "
               f"{anchor_frozen}, in {elapsed:.1f}s (budget 30s)",
            max(result.error for result in worst.values()) < 1e-4
            and anchor_frozen and elapsed < 30.0)


def test_ac4_loss_only_step_matches_the_full_step():
    # The probes of AC4 read step(..., grad=False).  On every AC4 batch, at
    # the drawn parameters and at shifted ones as a probe sees them, its
    # losses must be those of the full step to the bit.
    rng = np.random.default_rng(0)
    for _, model, batch in cli.gradient_trials(7, 1000):
        saved = model.params.copy()
        for _ in range(3):
            full = step(model, batch)[0]
            assert step(model, batch, grad=False)[0] == full
            model.params[rng.integers(model.params.size)] += 1e-5
        model.params[...] = saved


# ---------------------------------------------------------------------------
# 5-7. the standard ablation suite


@pytest.fixture(scope="module")
def standard_report():
    # One warm-up epoch, so stage-2 source dynamics, not the warm-up, decide each row.
    suite = ablation.SuiteConfig(train=TrainConfig(stage1_epochs=1))
    start = time.perf_counter()
    report = ablation.run_ablation(suite)
    elapsed = time.perf_counter() - start
    assert not any(entry.get("error") for entry in report.rows), \
        "ablation rows failed; see report entries"
    return report, elapsed


def test_ac5_ablation_ordering(standard_report):
    report, elapsed = standard_report
    med = report.medians
    margin = 0.01  # one percentage point of mIoU
    parts = []
    ok = True
    for key in ("miou2d", "miou3d"):
        base, wo, full = (med[row][key]
                          for row in ("baseline", "wo_cns", "full"))
        ok &= (wo > base + margin) and (full > wo + margin)
        parts.append(f"{key} {base:.3f} -> {wo:.3f} -> {full:.3f}")
    _report(5, f"median mIoU ordering baseline -> wo_cns -> full with "
               f"margin {margin} holds ({'; '.join(parts)}); suite took "
               f"{elapsed:.0f}s (budget 600s)", ok and elapsed < 600.0)


def test_readme_ablation_table_is_the_standard_suite(standard_report):
    # README's table states this fixture's medians at three decimals.
    report, _ = standard_report
    readme = Path(__file__).resolve().parents[1] / "README.md"
    table = {}
    for line in readme.read_text().splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) == 4 and cells[0] in ablation.ROW_ORDER:
            table[cells[0]] = (cells[2], cells[3])
    assert table == {row: (f"{med['miou2d']:.3f}", f"{med['miou3d']:.3f}")
                     for row, med in report.medians.items()}


def test_ac6_co_corruption_collapse(standard_report):
    report, _ = standard_report
    wo_clip = report.medians["wo_clip"]["miou3d"]
    wo_cns = report.medians["wo_cns"]["miou3d"]
    _report(6, f"without external 2D supervision the co-trained 3D mIoU "
               f"({wo_clip:.3f}) falls below the no-co-training row "
               f"({wo_cns:.3f})", wo_clip < wo_cns)


def _cosine_gap(features: np.ndarray, groups: np.ndarray, rng) -> float:
    """Mean within-group minus mean cross-group cosine similarity."""
    keep = []
    for g in np.unique(groups):
        idx = np.flatnonzero(groups == g)
        if len(idx) > 100:
            idx = rng.choice(idx, size=100, replace=False)
        keep.append(idx)
    idx = np.concatenate(keep)
    feats, groups = features[idx], groups[idx]
    norms = np.linalg.norm(feats, axis=1, keepdims=True)
    unit = feats / np.maximum(norms, 1e-12)
    gram = unit @ unit.T
    same = groups[:, None] == groups[None, :]
    off_diag = ~np.eye(len(idx), dtype=bool)
    return float(gram[same & off_diag].mean() - gram[~same].mean())


def test_ac7_latent_anchoring():
    suite = ablation.SuiteConfig(train=TrainConfig(stage1_epochs=1))
    model_cfg = ModelConfig(
        input2d_dim=PIXEL_DESC_DIM, input3d_dim=POINT_DESC_DIM,
        hidden=suite.hidden, latent_dim=suite.latent_dim,
        embed_dim=suite.embed_dim, anchor_dim=suite.anchor_dim,
        sam_dim=suite.feat_dim)
    rng = np.random.default_rng(77)
    gaps2d, gaps3d = [], []
    for seed in suite.seeds:
        scene = generate_scene(suite.scene, seed)
        oracles = standard_oracle_outputs(scene, suite.clip_noise, suite.frag,
                                          suite.feat_dim, suite.feat_sigma,
                                          suite.embed_dim)
        state = training.train(scene, oracles,
                               replace(suite.train, seed=seed), model_cfg)
        model = state.bundle
        feats, groups = [], []
        for k in range(len(scene.cameras)):
            view = render_view(scene, k)
            visible = view.point_index >= 0
            latent = mlp_forward(model.enc2d, feature_major(
                pixel_descriptors(scene, k)[visible]))[0].T
            feats.append(latent @ model.head_f2d[:-1] + model.head_f2d[-1])
            groups.append(view.object_id[visible])
        gaps2d.append(_cosine_gap(np.concatenate(feats),
                                  np.concatenate(groups), rng))
        latent = mlp_forward(model.enc3d, feature_major(point_descriptors(scene)))[0].T
        feats3d = latent @ model.head_f3d[:-1] + model.head_f3d[-1]
        gaps3d.append(_cosine_gap(feats3d, scene.cloud.object_ids, rng))
    gap2d, gap3d = np.median(gaps2d), np.median(gaps3d)
    _report(7, f"median within-object minus cross-object cosine gap: "
               f"2D features {gap2d:.3f}, 3D features {gap3d:.3f} "
               f"(both need >= 0.1)", gap2d >= 0.1 and gap3d >= 0.1)


# ---------------------------------------------------------------------------
# 8. determinism


def test_ac8_determinism(tmp_path):
    # (a) two identical ablation CLI runs produce byte-identical reports.
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("object_count=4\npoints_per_object=120\n"
                   "background_points=500\nnum_classes=5\ncamera_count=3\n"
                   "image_width=32\nimage_height=32\nfocal=24.0\n"
                   "feat_dim=8\nembed_dim=16\nanchor_dim=8\nhidden=32\n"
                   "latent_dim=24\nstage1_epochs=1\ntotal_epochs=2\n"
                   "seeds=0\nrows=baseline,full\n")
    for name in ("a", "b"):
        assert cli.main(["ablate", "--config", str(cfg),
                         "--out", str(tmp_path / name)]) == 0
    reports_equal = all(
        (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        for name in ("report.csv", "report.txt"))
    # (b) bundle round trips on 20 random scenes: every stored array is
    # recovered exactly (positions at their declared float32 storage
    # precision) and a rewrite of the loaded bundle is byte-identical.
    round_trips = 0
    for trial in range(20):
        cfg_s = SceneConfig(object_count=2 + trial % 3, points_per_object=60,
                            background_points=200, num_classes=4,
                            camera_count=1 + trial % 2, image_width=32,
                            image_height=32, focal=24.0)
        scene = generate_scene(cfg_s, 500 + trial)
        oracles = standard_oracle_outputs(
            scene, ClipNoiseConfig(eps=0.3, block=1 + trial % 3),
            MaskFragConfig(1 + trial % 3, trial % 2), feat_dim=4,
            feat_sigma=0.1, embed_dim=8)
        first = tmp_path / f"rt{trial}a"
        second = tmp_path / f"rt{trial}b"
        write_bundle(scene, oracles, first)
        loaded, oracles2, _ = read_bundle(first)
        same = (np.array_equal(loaded.cloud.positions,
                               scene.cloud.positions.astype("<f4"))
                and np.array_equal(loaded.cloud.gt_labels, scene.cloud.gt_labels)
                and np.array_equal(loaded.cloud.object_ids, scene.cloud.object_ids)
                and all(np.array_equal(a.scores, b.scores) for a, b in
                        zip(oracles2["scores"], oracles["scores"]))
                and all(np.array_equal(a.mask_ids, b.mask_ids) for a, b in
                        zip(oracles2["masks"], oracles["masks"]))
                and all(np.array_equal(a.features, b.features) for a, b in
                        zip(oracles2["features"], oracles["features"]))
                and np.array_equal(oracles2["embeddings"], oracles["embeddings"]))
        write_bundle(loaded, oracles2, second)
        same &= all((first / p.name).read_bytes() == p.read_bytes()
                    for p in second.iterdir())
        round_trips += int(same)
    _report(8, f"ablation reports byte-identical across reruns: "
               f"{reports_equal}; exact bundle round trips: {round_trips}/20",
            reports_equal and round_trips == 20)


# ---------------------------------------------------------------------------
# 9. source-draw audit


def test_ac9_source_draw_frequencies(small_scene, small_oracles):
    probs = (0.4, 0.3, 0.2, 0.1)
    config = TrainConfig(stage1_epochs=0, total_epochs=10, lr=0.05,
                         switch_probs_2d=probs, switch_probs_3d=probs,
                         switch_per_element=True, seed=3)
    model_cfg = ModelConfig(
        input2d_dim=PIXEL_DESC_DIM, input3d_dim=POINT_DESC_DIM, hidden=(16,),
        latent_dim=12, embed_dim=16, anchor_dim=8, sam_dim=8)
    state = training.train(small_scene, small_oracles, config, model_cfg)
    per_net = state.source_counts.sum(axis=1)
    draws = int(per_net.min())
    freq = state.source_counts / per_net[:, None]
    deviation = float(np.abs(freq - np.array(probs)).max())
    _report(9, f"stage-2 source frequencies within {deviation:.4f} of "
               f"configured probabilities over >= {draws} draws per network "
               f"(need <= 0.02 over >= 10000)",
            draws >= 10_000 and deviation <= 0.02)
