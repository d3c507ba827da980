"""Tests for the numpy encoders, losses, the training step, SGD, and checkpoints.

Analytic gradients are verified against central finite differences;
loss values are checked against closed-form cases (uniform softmax,
perfectly aligned or anti-aligned features) worked out by hand.
"""

import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cnslab import cli, nncore, training
from cnslab.errors import NumericalError, ValidationError
from cnslab.nncore import (Mlp, ModelConfig, anchor_units, ce_loss, class_layer,
                           class_logits, cosine_align_loss, fold_output, grad_check,
                           load_checkpoint, make_bundle, mlp_backward, mlp_forward,
                           param_views, save_checkpoint, sgd_step, softmax_rows, step)
from cnslab.pseudolabel import IGNORE
from cnslab.scenesynth import mock_text_embeddings

from conftest import class_map, mutate


def tiny_bundle(temperature=1.0, seed=5, hidden=(8,)):
    cfg = ModelConfig(input2d_dim=5, input3d_dim=6, hidden=hidden, latent_dim=7,
                      embed_dim=9, anchor_dim=7, sam_dim=3,
                      temperature=temperature)
    emb = mock_text_embeddings(5, 9, seed=1)
    return make_bundle(cfg, emb, seed=seed)


def he_mlp(widths, rng):
    """He-initialized MLP with zero biases."""
    return Mlp([rng.standard_normal((a, b)) * np.sqrt(2.0 / a)
                for a, b in zip(widths[:-1], widths[1:])],
               [np.zeros(b) for b in widths[1:]])


# ---------------------------------------------------------------------------
# MLP mechanics


def test_mlp_zero_net_maps_to_zero():
    mlp = Mlp([np.zeros((3, 4)), np.zeros((4, 2))],
              [np.zeros(4), np.zeros(2)])
    out, _ = mlp_forward(mlp, np.ones((5, 3)))
    assert np.array_equal(out, np.zeros((5, 2)))


def test_mlp_identity_layer():
    mlp = Mlp([np.eye(3)], [np.zeros(3)])
    x = np.array([[1.0, -2.0, 0.5]])
    out, _ = mlp_forward(mlp, x)
    # Single layer means linear output: negatives pass through.
    assert np.array_equal(out, x)


def test_mlp_forward_brute_force(rng):
    mlp = he_mlp([4, 6, 5, 3], rng)
    x = rng.standard_normal((7, 4))
    x_before = x.copy()
    out, cache = mlp_forward(mlp, x)
    assert np.array_equal(x, x_before)
    assert cache[0] is x
    h = x
    for i, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        h = h @ w + b
        if i < len(mlp.weights) - 1:
            h = np.where(h > 0, h, 0.0)
            # The cache holds each hidden layer's post-ReLU activations.
            assert np.allclose(cache[i + 1], h, atol=1e-12)
            assert (cache[i + 1] >= 0).all()
    assert np.allclose(out, h, atol=1e-12)
    assert cache[-1] is out


def test_mlp_backward_matches_finite_difference(rng):
    mlp = he_mlp([3, 5, 2], rng)
    x = rng.standard_normal((4, 3))
    d_out = rng.standard_normal((4, 2))

    def scalar_loss():
        out, _ = mlp_forward(mlp, x)
        return float(np.sum(out * d_out))

    out, cache = mlp_forward(mlp, x)
    d_w, d_b = mlp_backward(mlp, cache, d_out)
    eps = 1e-6
    for arrs, grads in ((mlp.weights, d_w), (mlp.biases, d_b)):
        for arr, grad in zip(arrs, grads):
            flat = arr.reshape(-1)
            gflat = grad.reshape(-1)
            for j in range(flat.size):
                orig = flat[j]
                flat[j] = orig + eps
                hi = scalar_loss()
                flat[j] = orig - eps
                lo = scalar_loss()
                flat[j] = orig
                assert abs((hi - lo) / (2 * eps) - gflat[j]) < 1e-5


def test_mlp_validation():
    with pytest.raises(ValidationError):
        Mlp([], [])
    with pytest.raises(ValidationError):
        Mlp([np.zeros((3, 4))], [np.zeros(5)])
    with pytest.raises(ValidationError):
        Mlp([np.zeros((3, 4)), np.zeros((5, 2))], [np.zeros(4), np.zeros(2)])


def test_make_bundle_initial_weights():
    bundle = tiny_bundle()
    for mlp, fan_in in ((bundle.enc2d, 5), (bundle.enc3d, 6)):
        assert [w.shape for w in mlp.weights] == [(fan_in, 8), (8, 7)]
        assert all(np.array_equal(b, np.zeros_like(b)) for b in mlp.biases)


# ---------------------------------------------------------------------------
# bundle construction


def test_make_bundle_deterministic():
    a = tiny_bundle(seed=5)
    b = tiny_bundle(seed=5)
    c = tiny_bundle(seed=6)
    views_a = param_views(a.config, a.params)
    views_b = param_views(b.config, b.params)
    for name in views_a:
        assert np.array_equal(views_a[name], views_b[name])
    assert not np.array_equal(a.enc2d.weights[0], c.enc2d.weights[0])
    assert np.array_equal(a.anchor_head, b.anchor_head)


def test_param_views_order_and_views():
    bundle = tiny_bundle()
    views = param_views(bundle.config, bundle.params)
    names = list(views)
    assert names == ["enc2d.w0", "enc2d.b0", "enc2d.w1", "enc2d.b1",
                     "enc3d.w0", "enc3d.b0", "enc3d.w1", "enc3d.b1",
                     "head_s2d.w", "head_s2d.b", "head_s3d.w", "head_s3d.b",
                     "head_f2d.w", "head_f2d.b", "head_f3d.w", "head_f3d.b"]
    # Entries are live views onto the bundle arrays and its one vector.
    views["head_s2d.b"][0] = 42.0
    assert bundle.head_s2d["b"][0] == 42.0
    assert sum(v.size for v in views.values()) == bundle.params.size
    assert all(np.shares_memory(v, bundle.params) for v in views.values())


def test_anchor_head_frozen_by_default():
    bundle = tiny_bundle()
    assert "anchor_head.w" not in param_views(bundle.config, bundle.params)
    assert not bundle.anchor_head.flags.writeable
    with pytest.raises(ValueError):
        bundle.anchor_head[0, 0] = 1.0


def test_make_bundle_rejects_dim_mismatch():
    cfg = ModelConfig(input2d_dim=5, input3d_dim=6, embed_dim=9)
    with pytest.raises(ValidationError):
        make_bundle(cfg, mock_text_embeddings(5, 16, seed=1), seed=0)
    with pytest.raises(ValidationError):
        ModelConfig(input2d_dim=0, input3d_dim=6).validate()
    with pytest.raises(ValidationError):
        ModelConfig(input2d_dim=5, input3d_dim=6, temperature=0.0).validate()


# The class embedding table is checked where every bundle is built.

@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_bundle_rejects_non_finite_embeddings(bad):
    cfg = tiny_bundle().config
    emb = mock_text_embeddings(5, 9, seed=1)
    emb[1, 2] = bad
    with pytest.raises(ValidationError, match="finite"):
        make_bundle(cfg, emb, seed=0)
    with pytest.raises(ValidationError, match="finite"):
        make_bundle(cfg, np.full((2, 9), bad), seed=0)


def test_bundle_rejects_embeddings_without_rows():
    with pytest.raises(ValidationError, match=r"\(L, D\) with L >= 1"):
        make_bundle(tiny_bundle().config, np.zeros((0, 9)), seed=0)


def test_bundle_rejects_one_dimensional_embeddings():
    row = mock_text_embeddings(1, 9, seed=1)[0]
    with pytest.raises(ValidationError, match=r"\(L, D\)"):
        make_bundle(tiny_bundle().config, row, seed=0)


def test_bundle_rejects_non_unit_embeddings():
    cfg = tiny_bundle().config
    emb = mock_text_embeddings(5, 9, seed=1)
    make_bundle(cfg, emb * (1 + 1e-11), seed=0)  # within 1e-9 of unit
    with pytest.raises(ValidationError, match="unit"):
        make_bundle(cfg, emb * (1 + 1e-8), seed=0)


# ---------------------------------------------------------------------------
# cross-entropy


def test_ce_loss_uniform_equals_log_num_classes(rng):
    bundle = tiny_bundle()
    bundle.head_s2d["w"][:] = 0.0
    bundle.head_s2d["b"][:] = 0.0
    feats = rng.standard_normal((10, 7))
    y = rng.integers(0, 5, size=10).astype(np.int32)
    loss, _ = ce_loss(class_logits(feats, class_map(bundle, "s2d")), y)
    assert loss == pytest.approx(np.log(5), abs=1e-12)


def test_ce_loss_single_element_eight_classes(rng):
    cfg = ModelConfig(input2d_dim=4, input3d_dim=4, hidden=(6,), latent_dim=5,
                      embed_dim=64, anchor_dim=4, sam_dim=3)
    bundle = make_bundle(cfg, mock_text_embeddings(8, 64, seed=2), seed=0)
    bundle.head_s3d["w"][:] = 0.0
    bundle.head_s3d["b"][:] = 0.0
    logits = class_logits(rng.standard_normal((1, 5)), class_map(bundle, "s3d"))
    loss, _ = ce_loss(logits, np.array([3], dtype=np.int32))
    assert loss == pytest.approx(2.0794415416798357, abs=1e-12)


def test_ce_loss_skips_ignore(rng):
    logits = rng.standard_normal((6, 5))
    before = logits.copy()
    y = np.array([1, IGNORE, 3, IGNORE, 0, 2], dtype=np.int32)
    loss, d_logits = ce_loss(logits, y)
    assert np.array_equal(logits, before)
    keep = y != IGNORE
    ref, ref_d_logits = ce_loss(logits[keep], y[keep])
    # The masked batch and its all-valid sub-batch agree bit for bit.
    assert loss == ref
    assert np.array_equal(d_logits[keep], ref_d_logits)
    # Ignored rows get zero gradient.
    assert np.array_equal(d_logits[~keep], np.zeros((2, 5)))


def test_ce_loss_all_ignore_is_zero(rng):
    loss, d_logits = ce_loss(rng.standard_normal((3, 5)),
                             np.full(3, IGNORE, dtype=np.int32))
    assert loss == 0.0
    assert np.array_equal(d_logits, np.zeros((3, 5)))


def test_ce_loss_validation(rng):
    logits = rng.standard_normal((2, 5))
    with pytest.raises(ValidationError):
        ce_loss(logits, np.array([0, 5]))  # class 5 of 5
    with pytest.raises(ValidationError):
        ce_loss(logits, np.array([0, 1, 2]))


def test_ce_loss_gradients_match_finite_difference(rng):
    # Without a hidden layer the folded layer reads the input rows; the
    # semantic head's gradient passes through E / T.
    bundle = tiny_bundle(temperature=0.7, hidden=())
    y = np.array([0, 4, IGNORE, 2, 1, 3], dtype=np.int32)
    batch = {"x2d": rng.standard_normal((6, 5)), "y2d": y}
    views = param_views(bundle.config, step(bundle, batch)[1])
    assert views["head_s2d.w"].any() and views["enc2d.w0"].any()
    assert grad_check(bundle, batch, eps=1e-5).error < 1e-4


def test_ce_loss_logit_gradient_matches_finite_difference(rng):
    logits = rng.standard_normal((4, 5))
    y = np.array([0, 1, IGNORE, 3], dtype=np.int32)
    _, d_logits = ce_loss(logits, y)
    eps = 1e-6
    flat = logits.reshape(-1)
    grad = d_logits.reshape(-1)
    for j in range(flat.size):
        orig = flat[j]
        flat[j] = orig + eps
        hi, _ = ce_loss(logits, y)
        flat[j] = orig - eps
        lo, _ = ce_loss(logits, y)
        flat[j] = orig
        assert abs((hi - lo) / (2 * eps) - grad[j]) < 1e-5


def test_ce_loss_end_to_end_gradients(rng):
    bundle = tiny_bundle()
    x = rng.standard_normal((6, 5))
    y = np.array([0, 1, IGNORE, 3, 4, 2], dtype=np.int32)
    batch = {"x2d": x, "y2d": y}
    _, grad = step(bundle, batch)
    views = param_views(bundle.config, grad)
    assert views["enc2d.w0"].any() and not views["enc3d.w0"].any()
    assert grad_check(bundle, batch).error < 1e-4


def _unfolded_ce(bundle, feats, head, y):
    """Reference cross-entropy through z = f @ W + b and logits z @ E.T / T.

    Returns the loss and its gradient w.r.t. z.
    """
    h = getattr(bundle, f"head_{head}")
    emb = bundle.embeddings
    keep = y != IGNORE
    n = int(keep.sum())
    z = feats @ h["w"] + h["b"]
    d_z = np.zeros_like(z)
    if n == 0:
        return 0.0, d_z
    logits = (z[keep] @ emb.T) / bundle.config.temperature
    probs = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    labels = y[keep]
    loss = -np.log(probs[np.arange(n), labels]).mean()
    d_logits = probs.copy()
    d_logits[np.arange(n), labels] -= 1.0
    d_z[keep] = (d_logits / n) @ emb / bundle.config.temperature
    return loss, d_z


def test_folded_ce_loss_matches_unfolded_form(rng):
    # The encoder's output layer folded into the class map gives the
    # logits of the unfolded chain x -> f -> z -> z @ E.T / T.
    x = rng.standard_normal((40, 5))
    y = rng.integers(0, 5, size=40).astype(np.int32)
    y[[0, 7, 39]] = IGNORE
    for temperature in (2.0, 1.0, 0.5):
        bundle = tiny_bundle(temperature=temperature)
        bundle.params[:] = rng.standard_normal(bundle.params.shape)
        feats = mlp_forward(bundle.enc2d, x)[0]
        for head in ("s2d", "s3d"):
            logits = mlp_forward(fold_output(bundle.enc2d, *class_map(bundle, head)), x)[0]
            loss, _ = ce_loss(logits, y)
            ref_loss, _ = _unfolded_ce(bundle, feats, head, y)
            assert loss == pytest.approx(ref_loss, rel=1e-12, abs=0)


def test_class_logits_formula(rng):
    # class_logits applies the head folded into the embedding; it must
    # agree with the unfolded (f @ W + b) @ E.T / T.
    feats = rng.standard_normal((200, 7))
    for temperature in (2.0, 1.0, 0.5):
        bundle = tiny_bundle(temperature=temperature)
        bundle.params[:] = rng.standard_normal(bundle.params.shape)
        for head in ("s2d", "s3d"):
            h = getattr(bundle, f"head_{head}")
            logits = class_logits(feats, class_map(bundle, head))
            z = feats @ h["w"] + h["b"]
            expected = (z @ bundle.embeddings.T) / temperature
            np.testing.assert_allclose(logits, expected, rtol=1e-12, atol=0)
            assert np.array_equal(logits.argmax(axis=1), expected.argmax(axis=1))


@pytest.mark.parametrize("hidden", [(), (8,), (8, 7)])
def test_training_and_inference_score_the_same_logits(rng, hidden):
    # Inference folds through the step plan's semantic-only passes, so a
    # loss-only step's cross-entropy is that of inference's logits, to the
    # bit, and inference predicts their argmax.
    for temperature in (0.5, 1.0, 2.0):
        bundle = tiny_bundle(temperature=temperature, hidden=hidden)
        bundle.params[:] = rng.standard_normal(bundle.params.shape)  # biases too
        for enc, width in (("2d", 5), ("3d", 6)):
            x = rng.standard_normal((40, width))
            y = rng.integers(0, 5, size=40).astype(np.int32)
            y[[3, 17]] = IGNORE
            rows = mlp_forward(getattr(bundle, f"enc{enc}"), x, hidden_only=True)[0]
            logits = class_logits(rows, class_layer(bundle, f"enc{enc}"))
            losses = step(bundle, {f"x{enc}": x, f"y{enc}": y}, grad=False)[0]
            assert losses[f"l_ce{enc}"] == ce_loss(logits, y)[0]
            assert np.array_equal(training._predict_rows(bundle, f"enc{enc}", x),
                                  logits.argmax(axis=1))


def test_fold_output_skips_the_output_layer(rng):
    x = rng.standard_normal((30, 5))
    for hidden in ((8,), (8, 7), ()):
        bundle = tiny_bundle(hidden=hidden)
        bundle.params[:] = rng.standard_normal(bundle.params.shape)
        enc = bundle.enc2d
        a, c = rng.standard_normal((7, 4)), rng.standard_normal(4)
        net = fold_output(enc, a, c)
        assert len(net.weights) == len(enc.weights)
        assert all(w is v for w, v in zip(net.weights[:-1], enc.weights[:-1]))
        out, cache = mlp_forward(net, x)
        np.testing.assert_allclose(out, mlp_forward(enc, x)[0] @ a + c, rtol=1e-12)
        hidden_rows, _ = mlp_forward(enc, x, hidden_only=True)
        # hidden_only stops at the rows the output layer reads.
        assert np.array_equal(hidden_rows, cache[-2])
        if not hidden:
            assert np.array_equal(hidden_rows, x)


def test_softmax_rows_stable():
    probs = softmax_rows(np.array([[1e4, 1e4 + 1.0], [0.0, 0.0]]))
    assert np.allclose(probs.sum(axis=1), 1.0)
    assert probs[1, 0] == pytest.approx(0.5)
    assert np.isfinite(probs).all()


# ---------------------------------------------------------------------------
# cosine alignment


def test_anchor_units_normalize_the_anchor_projection(rng):
    bundle = tiny_bundle()
    feats = rng.standard_normal((6, 3))
    feats[2] = 0.0  # a degenerate projection becomes a zero row
    a_raw = feats @ bundle.anchor_head
    units = anchor_units(bundle, feats.astype(np.float32))
    keep = np.arange(6) != 2
    np.testing.assert_allclose(
        units[keep], a_raw[keep] / np.linalg.norm(a_raw[keep], axis=1, keepdims=True),
        rtol=1e-6)
    assert not units[2].any()


def _anchors(rng, n=4):
    return anchor_units(tiny_bundle(), rng.standard_normal((n, 3)))


def test_align_loss_zero_when_aligned(rng):
    a_unit = _anchors(rng)
    loss, d_x, d_p, zero_count = cosine_align_loss(a_unit, a_unit, a_unit)
    assert loss == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(d_x, 0.0, atol=1e-12) and np.allclose(d_p, 0.0, atol=1e-12)
    assert zero_count == 0


def test_align_loss_four_when_anti_aligned(rng):
    a_unit = _anchors(rng)
    loss, *_ = cosine_align_loss(-a_unit, -a_unit, a_unit)
    assert loss == pytest.approx(4.0, abs=1e-12)


def test_align_loss_range(rng):
    loss, *_ = cosine_align_loss(rng.standard_normal((20, 7)),
                                 rng.standard_normal((20, 7)), _anchors(rng, 20))
    assert 0.0 <= loss <= 4.0


def test_align_loss_zero_norm_row_counts(rng):
    a_unit = _anchors(rng, n=2)
    x = a_unit.copy()
    x[1] = 0.0  # degenerate 2D head output: cosine treated as 0
    loss, d_x, _, zero_count = cosine_align_loss(x, a_unit, a_unit)
    assert zero_count == 1
    assert loss == pytest.approx(0.5, abs=1e-12)  # one miss of 1.0 over 2 pairs
    # Degenerate rows must not produce gradients.
    assert np.isfinite(d_x).all() and not d_x[1].any()


def test_align_loss_degenerate_anchor(rng):
    a_unit = _anchors(rng, n=1)
    loss, _, _, zero_count = cosine_align_loss(
        a_unit, a_unit, anchor_units(tiny_bundle(), np.zeros((1, 3))))
    assert loss == pytest.approx(2.0, abs=1e-12)  # both sides miss
    assert zero_count == 1


def test_align_loss_positive_rescaling_invariant(rng):
    x = rng.standard_normal((5, 7))
    p = rng.standard_normal((5, 7))
    s = _anchors(rng, 5)
    base, *_ = cosine_align_loss(x, p, s)
    scales = rng.uniform(0.1, 10.0, size=(5, 1))
    scaled, *_ = cosine_align_loss(x * scales, p * scales, s)
    assert scaled == pytest.approx(base, abs=1e-10)


def test_align_loss_no_anchor_gradient_by_default(rng):
    x, p, s = rng.standard_normal((4, 7)), rng.standard_normal((4, 7)), _anchors(rng)
    inputs = [arr.copy() for arr in (x, p, s)]
    result = cosine_align_loss(x, p, s)
    # A gradient for each head output and none for the frozen anchors.
    assert len(result) == 4 and result[1].shape == x.shape and result[2].shape == p.shape
    assert all(np.array_equal(a, b) for a, b in zip((x, p, s), inputs))


def test_align_loss_gradients_match_finite_difference(rng):
    outs = [rng.standard_normal((5, 7)), rng.standard_normal((5, 7))]
    s = _anchors(rng, 5)
    grads = cosine_align_loss(*outs, s)[1:3]
    eps = 1e-6
    for out, grad in zip(outs, grads):
        flat, gflat = out.reshape(-1), grad.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + eps
            hi = cosine_align_loss(*outs, s)[0]
            flat[j] = orig - eps
            lo = cosine_align_loss(*outs, s)[0]
            flat[j] = orig
            assert abs((hi - lo) / (2 * eps) - gflat[j]) < 1e-6
    # The feature heads' gradients, through a folded layer that reads the
    # input rows directly.
    bundle = tiny_bundle(hidden=())
    batch = {"x2d": rng.standard_normal((5, 5)), "pair3d": rng.standard_normal((5, 6)),
             "anchors": s, "latent_weight": 0.5}
    views = param_views(bundle.config, step(bundle, batch)[1])
    assert views["head_f2d.w"].any() and views["head_f3d.w"].any()
    assert grad_check(bundle, batch).error < 1e-4


def test_align_loss_end_to_end_gradients(rng):
    bundle = tiny_bundle()
    x2d = rng.standard_normal((4, 5))
    x3d = rng.standard_normal((4, 6))
    s = anchor_units(bundle, rng.standard_normal((4, 3)))
    batch = {"x2d": x2d, "pair3d": x3d, "anchors": s, "latent_weight": 1.0}
    _, grad = step(bundle, batch)
    views = param_views(bundle.config, grad)
    assert views["enc2d.w0"].any() and views["enc3d.w0"].any()
    assert grad_check(bundle, batch).error < 1e-4


def test_align_loss_validates_lengths(rng):
    with pytest.raises(ValidationError):
        cosine_align_loss(rng.standard_normal((3, 7)), rng.standard_normal((2, 7)),
                          rng.standard_normal((3, 7)))


def test_align_loss_empty_batch():
    loss, d_x, d_p, zero_count = cosine_align_loss(np.zeros((0, 7)), np.zeros((0, 7)),
                                                   np.zeros((0, 7)))
    assert loss == 0.0
    assert zero_count == 0
    assert d_x.shape == d_p.shape == (0, 7)


# ---------------------------------------------------------------------------
# the losses against their plain formulas, bit for bit


def reference_ce_loss(logits, targets):
    """Mean cross-entropy and its logit gradient, in the plain formulation:
    int64 labels, and the kept rows gathered and scattered back."""
    targets = np.asarray(targets).ravel()
    valid = targets != IGNORE
    if not valid.any():
        return 0.0, np.zeros_like(logits)
    masked = not valid.all()
    labels = (targets[valid] if masked else targets).astype(np.int64)
    probs = softmax_rows(logits[valid] if masked else logits.copy())
    n = len(labels)
    loss = float(-np.log(np.maximum(probs[np.arange(n), labels], 1e-300)).mean())
    probs[np.arange(n), labels] -= 1.0
    probs /= n
    if masked:
        d_logits, d_kept = np.zeros_like(logits), probs
        d_logits[valid] = d_kept
        return loss, d_logits
    return loss, probs


def reference_align_loss(x_out, p_out, a_unit):
    """cosine_align_loss in the plain formulation: np.linalg.norm on a copy,
    live rows gathered, the gradient negated in its own pass."""
    n = len(x_out)
    a_degen = ~a_unit.any(axis=1)
    total, zero_count, grads = 0.0, int(a_degen.sum()), []
    for out in (x_out, p_out):
        unit = out.copy()
        norms = np.linalg.norm(unit, axis=1)
        degen = norms < 1e-12
        unit /= np.where(degen, 1.0, norms)[:, None]
        unit[degen] = 0.0
        cos = np.einsum("ij,ij->i", unit, a_unit)
        dead = degen | a_degen
        live = ~dead
        cos[dead] = 0.0
        zero_count += int(degen.sum())
        total += float(np.sum(1.0 - cos))
        d_out = np.zeros_like(unit)
        d_out[live] = -(a_unit[live] - cos[live, None] * unit[live]) / norms[live, None] / n
        grads.append(d_out)
    return total / n, grads[0], grads[1], zero_count


@pytest.mark.parametrize("trial", range(8))
def test_ce_loss_matches_the_plain_formula_bit_for_bit(trial):
    rng = np.random.default_rng(trial)
    n, classes = int(rng.integers(1, 40)), int(rng.integers(2, 9))
    # A column view of a wider array, as the training step passes it.
    wide = rng.standard_normal((n, classes + 5)) * 10.0 ** rng.uniform(-3, 3)
    logits = wide[:, 2:2 + classes]
    targets = rng.integers(0, classes, size=n).astype(np.int32)
    if trial % 4:
        targets[rng.random(n) < 0.3 * (trial % 4)] = IGNORE
    loss, d_logits = ce_loss(logits, targets)
    ref_loss, ref_d = reference_ce_loss(logits, targets)
    assert loss == ref_loss
    assert d_logits.tobytes() == ref_d.tobytes()
    assert ce_loss(logits, targets, grad=False)[0] == ref_loss


@pytest.mark.parametrize("trial", range(8))
def test_align_loss_matches_the_plain_formula_bit_for_bit(trial):
    rng = np.random.default_rng(100 + trial)
    n, k = int(rng.integers(1, 40)), int(rng.integers(1, 17))
    scale = 10.0 ** rng.uniform(-3, 3)
    # The x and p outputs are column views of wider forward outputs.
    x_wide = rng.standard_normal((n, k + 3)) * scale
    p_wide = rng.standard_normal((n, 2 * k)) * scale
    x_out, p_out = x_wide[:, 3:], p_wide[:, k:]
    anchors = rng.standard_normal((n, k))
    anchors /= np.linalg.norm(anchors, axis=1, keepdims=True)
    if trial % 2:
        x_out[rng.random(n) < 0.2] = 0.0
        p_out[rng.random(n) < 0.2] = 0.0
        anchors[rng.random(n) < 0.2] = 0.0
    if trial == 7:
        x_out[0] = 1e-13  # below the norm floor, but not zero
    got = cosine_align_loss(x_out, p_out, anchors)
    ref = reference_align_loss(x_out, p_out, anchors)
    assert got[0] == ref[0] and got[3] == ref[3]
    assert got[1].tobytes() == ref[1].tobytes()
    assert got[2].tobytes() == ref[2].tobytes()
    assert cosine_align_loss(x_out, p_out, anchors, grad=False)[0] == ref[0]


# ---------------------------------------------------------------------------
# SGD and the gradient checker


def _training_batch(bundle, rng, weight=1.0, n=6):
    """CE2d and CE3d rows with IGNORE labels plus a latent term on other 3D rows."""
    y2d = rng.integers(0, 5, size=n)
    y3d = rng.integers(0, 5, size=n)
    y2d[0] = y3d[-1] = IGNORE
    return {"x2d": rng.standard_normal((n, 5)), "y2d": y2d,
            "x3d": rng.standard_normal((n, 6)), "y3d": y3d,
            "pair3d": rng.standard_normal((n, 6)),
            "anchors": anchor_units(bundle, rng.standard_normal((n, 3))),
            "latent_weight": weight}


def test_step_combines_its_terms(rng):
    bundle = tiny_bundle()
    batch = _training_batch(bundle, rng, weight=0.5)
    losses, grad = step(bundle, batch)
    ce2d = step(bundle, {k: batch[k] for k in ("x2d", "y2d")})
    ce3d = step(bundle, {k: batch[k] for k in ("x3d", "y3d")})
    latent = step(bundle, {**{k: batch[k] for k in ("x2d", "pair3d", "anchors")},
                           "latent_weight": 1.0})
    assert losses["l_ce2d"] == ce2d[0]["l_ce2d"] and ce2d[0]["l_ce3d"] == 0.0
    assert losses["l_ce3d"] == ce3d[0]["l_ce3d"] and ce3d[0]["l_latent"] == 0.0
    assert losses["l_latent"] == latent[0]["l_latent"] and latent[0]["l_ce2d"] == 0.0
    assert losses["loss"] == (losses["l_ce2d"] + losses["l_ce3d"]
                              + 0.5 * losses["l_latent"])
    assert np.allclose(grad, ce2d[1] + ce3d[1] + 0.5 * latent[1], atol=1e-14)
    empty, zero = step(bundle, {})
    assert set(empty.values()) == {0.0} and not zero.any()


def test_loss_only_step_matches_the_full_step(rng):
    bundle = tiny_bundle()
    batch = _training_batch(bundle, rng, weight=0.5)
    ignored = {**batch, "y2d": np.full(6, IGNORE), "y3d": np.full(6, IGNORE)}
    empty = {key: value[:0] if key != "latent_weight" else value
             for key, value in batch.items()}
    for b in (batch, ignored, empty, {k: batch[k] for k in ("x3d", "y3d")}, {}):
        full = step(bundle, b)[0]
        assert step(bundle, b, grad=False)[0] == full
    assert ce_loss(rng.standard_normal((6, 5)), batch["y2d"], grad=False)[1] is None
    assert ce_loss(rng.standard_normal((6, 5)), np.full(6, IGNORE),
                   grad=False) == (0.0, None)
    assert cosine_align_loss(np.zeros((0, 7)), np.zeros((0, 7)), np.zeros((0, 7)),
                             grad=False) == (0.0, None, None, 0)


def _unfolded_step(bundle, batch):
    """Reference step with nothing folded: latent rows f = mlp(x), then the
    heads, then the losses, and back through each of them in turn."""
    grads = {name: np.zeros_like(view)
             for name, view in param_views(bundle.config, bundle.params).items()}
    losses = {"l_ce2d": 0.0, "l_ce3d": 0.0, "l_latent": 0.0}
    weight = batch["latent_weight"] if "anchors" in batch else 0.0

    def encode(enc, rows):
        feats, cache = mlp_forward(getattr(bundle, enc), rows)
        return feats, cache, np.zeros_like(feats)

    def back(enc, cache, d_feats):
        d_w, d_b = mlp_backward(getattr(bundle, enc), cache, d_feats)
        for i, (dw, db) in enumerate(zip(d_w, d_b)):
            grads[f"{enc}.w{i}"] += dw
            grads[f"{enc}.b{i}"] += db

    def head_back(head, feats, d_z):
        h = getattr(bundle, f"head_{head}")
        grads[f"head_{head}.w"] += feats.T @ d_z
        grads[f"head_{head}.b"] += d_z.sum(axis=0)
        return d_z @ h["w"].T

    def cosine_side(head, feats, anchors):
        h = getattr(bundle, f"head_{head}")
        z = feats @ h["w"] + h["b"]
        norms = np.linalg.norm(z, axis=1)
        live = (norms >= 1e-12) & anchors.any(axis=1)
        cos = np.where(live, np.einsum("ij,ij->i", z, anchors) / np.maximum(norms, 1e-300), 0.0)
        d_z = -(anchors - cos[:, None] * z / norms[:, None]) / norms[:, None]
        d_z[~live] = 0.0
        return float(np.sum(1.0 - cos)), d_z * (weight / len(feats))

    if "y2d" in batch or "anchors" in batch:
        f2d, c2d, d2d = encode("enc2d", batch["x2d"])
    if "y2d" in batch:
        losses["l_ce2d"], d_z = _unfolded_ce(bundle, f2d, "s2d", batch["y2d"])
        d2d += head_back("s2d", f2d, d_z)
    if "y3d" in batch:
        f3d, c3d, d3d = encode("enc3d", batch["x3d"])
        losses["l_ce3d"], d_z = _unfolded_ce(bundle, f3d, "s3d", batch["y3d"])
        back("enc3d", c3d, d3d + head_back("s3d", f3d, d_z))
    if "anchors" in batch:
        fp, cp, dp = encode("enc3d", batch["pair3d"])
        miss2d, d_z2d = cosine_side("f2d", f2d, batch["anchors"])
        miss3d, d_z3d = cosine_side("f3d", fp, batch["anchors"])
        losses["l_latent"] = (miss2d + miss3d) / len(fp)
        d2d += head_back("f2d", f2d, d_z2d)
        back("enc3d", cp, dp + head_back("f3d", fp, d_z3d))
    if "y2d" in batch or "anchors" in batch:
        back("enc2d", c2d, d2d)
    losses["loss"] = losses["l_ce2d"] + losses["l_ce3d"] + weight * losses["l_latent"]
    return losses, np.concatenate([g.ravel() for g in grads.values()])


@pytest.mark.parametrize("hidden", [(8,), (8, 7), ()])
@pytest.mark.parametrize("terms", ["full", "ce2d", "ce3d", "latent"])
def test_step_matches_the_unfolded_reference(hidden, terms):
    rng = np.random.default_rng(2024 + len(hidden))
    bundle = tiny_bundle(temperature=0.8, hidden=hidden)
    bundle.params[:] = 0.5 * rng.standard_normal(bundle.params.shape)  # biases too
    keys = {"full": ("x2d", "y2d", "x3d", "y3d", "pair3d", "anchors"),
            "ce2d": ("x2d", "y2d"), "ce3d": ("x3d", "y3d"),
            "latent": ("x2d", "pair3d", "anchors")}[terms]
    for weight in (0.0, 0.5, 1.0):
        full = _training_batch(bundle, rng, weight=weight, n=9)
        batch = {key: full[key] for key in keys}
        if "anchors" in batch:
            batch["latent_weight"] = weight
        losses, grad = step(bundle, batch)
        ref_losses, ref_grad = _unfolded_step(bundle, batch)
        for key, value in ref_losses.items():
            assert losses[key] == pytest.approx(value, rel=1e-12, abs=0), key
        # Entries that are sums with cancellation are held to the same
        # 1e-12 relative to the gradient's largest entry.
        np.testing.assert_allclose(grad, ref_grad, rtol=1e-12,
                                   atol=1e-12 * np.abs(ref_grad).max())


# ---------------------------------------------------------------------------
# the step against a frozen copy of its earlier per-call form, byte for byte
#
# _frozen_step and _frozen_unfold_grads are the step as it was before the
# per-model plan, verbatim but for the names of what they call: the
# plain-formula CE above, and the backward pass and head maps as they
# were then.  Any change to the step must keep every loss and every
# gradient byte equal to theirs.


def _frozen_mlp_backward(mlp, cache, d_out):
    d_w = [None] * len(mlp.weights)
    d_b = [None] * len(mlp.biases)
    grad = np.asarray(d_out, dtype=np.float64)
    last = len(mlp.weights) - 1
    for i in range(last, -1, -1):
        if i < last:
            grad *= cache[i + 1] > 0
        d_w[i] = cache[i].T @ grad
        d_b[i] = grad.sum(axis=0)
        if i:
            grad = grad @ mlp.weights[i].T
    return d_w, d_b


def _frozen_side_by_side(arrays):
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays, axis=-1)


def _frozen_head_map(bundle, head):
    if head in ("s2d", "s3d"):
        return class_map(bundle, head)
    h = getattr(bundle, f"head_{head}")
    return h["w"], h["b"]


def _frozen_ce_loss(logits, targets, grad=True):
    loss, d_logits = reference_ce_loss(np.asarray(logits, dtype=np.float64), targets)
    return loss, d_logits if grad else None


def _frozen_unfold_grads(bundle, views, enc, a, cols, g, s):
    mlp = getattr(bundle, enc)
    last = len(mlp.weights) - 1
    views[f"{enc}.w{last}"] += g @ a.T
    views[f"{enc}.b{last}"] += s @ a.T
    d_a = mlp.weights[-1].T @ g
    d_a += np.outer(mlp.biases[-1], s)
    for head, span in cols.items():
        d_w, d_b = d_a[:, span], s[span]
        if head in ("s2d", "s3d"):
            emb = bundle.embeddings / bundle.config.temperature
            d_w, d_b = d_w @ emb, d_b @ emb
        views[f"head_{head}.w"] += d_w
        views[f"head_{head}.b"] += d_b


def _frozen_step(bundle, batch, grad=True):
    latent = "anchors" in batch
    weight = batch["latent_weight"] if latent else 0.0
    # (encoder, rows, the heads that read those rows' latent features)
    plan = (("enc2d", "x2d", [h for h, used in (("s2d", "y2d" in batch), ("f2d", latent))
                              if used]),
            ("enc3d", "x3d", ["s3d"] if "y3d" in batch else []),
            ("enc3d", "pair3d", ["f3d"] if latent else []))
    passes, outs = [], {}
    for enc, rows, heads in plan:
        if not heads:
            continue
        maps = [_frozen_head_map(bundle, head) for head in heads]
        a = _frozen_side_by_side([m for m, _ in maps])
        net = fold_output(getattr(bundle, enc), a, _frozen_side_by_side([c for _, c in maps]))
        out, cache = mlp_forward(net, batch[rows])
        cols, lo = {}, 0
        for head, (m, _) in zip(heads, maps):
            cols[head] = slice(lo, lo + m.shape[1])
            outs[head] = out[:, cols[head]]
            lo += m.shape[1]
        passes.append((enc, a, cols, net, cache))

    losses = {"l_ce2d": 0.0, "l_ce3d": 0.0, "l_latent": 0.0}
    d_outs = {}
    for head, labels, key in (("s2d", "y2d", "l_ce2d"), ("s3d", "y3d", "l_ce3d")):
        if head in outs:
            losses[key], d_outs[head] = _frozen_ce_loss(outs[head], batch[labels], grad=grad)
    if latent:
        losses["l_latent"], d_x, d_p, _ = cosine_align_loss(
            outs["f2d"], outs["f3d"], batch["anchors"], grad=grad)
        if grad:  # the gradients are fresh arrays, scaled in place
            d_x *= weight
            d_p *= weight
            d_outs["f2d"], d_outs["f3d"] = d_x, d_p
    losses["loss"] = losses["l_ce2d"] + losses["l_ce3d"] + weight * losses["l_latent"]
    if not grad:
        # The branch pattern: per pass, the sign of each hidden unit per
        # row, then whether each feature-head output row has zero norm.
        parts = []
        for _, _, cols, _, cache in passes:
            parts += [h > 0 for h in cache[1:-1]]
            parts += [np.linalg.norm(outs[head], axis=1) < 1e-12
                      for head in cols if head in ("f2d", "f3d")]
        return losses, b"".join(part.tobytes() for part in parts)

    total = np.zeros_like(bundle.params)
    views = param_views(bundle.config, total)
    for enc, a, cols, net, cache in passes:
        d_w, d_b = _frozen_mlp_backward(net, cache,
                                        _frozen_side_by_side([d_outs[head] for head in cols]))
        for i in range(len(d_w) - 1):
            views[f"{enc}.w{i}"] += d_w[i]
            views[f"{enc}.b{i}"] += d_b[i]
        _frozen_unfold_grads(bundle, views, enc, a, cols, d_w[-1], d_b[-1])
    return losses, total


def _shipped_bundle(seed):
    """A bundle of the shipped model dimensions (SuiteConfig defaults, 8 classes)."""
    from cnslab.ablation import SuiteConfig

    suite = SuiteConfig()
    return make_bundle(suite.model_config(),
                       mock_text_embeddings(8, suite.embed_dim, seed=seed), seed=seed)


def _random_batch(bundle, rng, n, weight, case):
    """All three terms on n rows; `case` plants IGNORE labels, zero head
    outputs (all-zero input rows into a bundle with zero biases) or zero
    anchor rows."""
    cfg = bundle.config
    classes = len(bundle.embeddings)
    batch = {"x2d": rng.standard_normal((n, cfg.input2d_dim)).astype(np.float32),
             "y2d": rng.integers(0, classes, size=n).astype(np.int32),
             "x3d": rng.standard_normal((n, cfg.input3d_dim)),
             "y3d": rng.integers(0, classes, size=n).astype(np.int32),
             "pair3d": rng.standard_normal((n, cfg.input3d_dim)).astype(np.float32),
             "anchors": anchor_units(bundle, rng.standard_normal((n, cfg.sam_dim))),
             "latent_weight": weight}
    some = rng.random(n) < 0.3
    if case == "ignore":
        batch["y2d"][some] = IGNORE
        batch["y3d"][~some] = IGNORE
    elif case == "all_ignore":
        batch["y2d"][:] = IGNORE
        batch["y3d"][:] = IGNORE
    elif case == "zero_heads":
        batch["x2d"][some] = 0.0
        batch["pair3d"][~some] = 0.0
    elif case == "zero_anchors":
        batch["anchors"][some] = 0.0
    return batch


_TERM_KEYS = {"ce2d": ("x2d", "y2d"), "ce3d": ("x3d", "y3d"),
              "latent": ("x2d", "pair3d", "anchors", "latent_weight")}


@pytest.mark.parametrize("model", ["shipped", "hidden_10_7"])
@pytest.mark.parametrize("case", ["plain", "ignore", "all_ignore", "zero_heads",
                                  "zero_anchors"])
def test_step_matches_its_frozen_form_byte_for_byte(model, case):
    rng = np.random.default_rng(7 + len(case) + len(model))
    if model == "shipped":
        bundle = _shipped_bundle(seed=3)
    else:
        bundle = tiny_bundle(temperature=0.7, hidden=(10, 7))
    if case != "zero_heads":  # trained-looking parameters, biases too
        bundle.params[:] = 0.3 * rng.standard_normal(bundle.params.shape)
    subsets = [terms for k in range(4)
               for terms in itertools.combinations(("ce2d", "ce3d", "latent"), k)]
    for n in (1, 5, 64):
        for weight in (0.5, 1.0):
            full = _random_batch(bundle, rng, n, weight, case)
            for terms in subsets:
                batch = {key: full[key] for term in terms for key in _TERM_KEYS[term]}
                losses, grad = step(bundle, batch)
                ref_losses, ref_grad = _frozen_step(bundle, batch)
                assert losses == ref_losses, (terms, n, weight)
                assert grad.tobytes() == ref_grad.tobytes(), (terms, n, weight)
                losses, pattern = step(bundle, batch, grad=False)
                assert losses == ref_losses, (terms, n, weight)
                assert pattern == _frozen_step(bundle, batch, grad=False)[1], \
                    (terms, n, weight)


def test_each_step_returns_a_fresh_gradient(rng):
    bundle = tiny_bundle()
    batch = _training_batch(bundle, rng)
    _, first = step(bundle, batch)
    kept = first.copy()
    _, second = step(bundle, batch)
    assert second is not first and not np.shares_memory(first, second)
    assert first.tobytes() == kept.tobytes() == second.tobytes()
    sgd_step(bundle, second, lr=0.1)
    _, third = step(bundle, batch)
    assert first.tobytes() == kept.tobytes()
    assert not np.shares_memory(third, first) and not np.shares_memory(third, second)


@pytest.mark.parametrize("hidden", [(), (8,), (8, 7)])
def test_float32_step_agrees_with_the_float64_step(hidden):
    # On float32-representable parameters and rows, a float32 bundle and a
    # float64 copy compute the same losses and gradient up to float32
    # round-off, IGNORE labels and zero anchor rows included.
    rng = np.random.default_rng(len(hidden))
    wide = tiny_bundle(hidden=hidden)
    wide.params[:] = (0.3 * rng.standard_normal(wide.params.shape)).astype(np.float32)
    narrow = wide.astype(np.float32)
    assert narrow.params.dtype == narrow.anchor_head.dtype == np.float32
    assert wide.params.dtype == np.float64
    n = 64
    y2d, y3d = rng.integers(0, 5, size=n), rng.integers(0, 5, size=n)
    y2d[rng.random(n) < 0.3] = IGNORE
    y3d[rng.random(n) < 0.3] = IGNORE
    anchors = anchor_units(narrow, rng.standard_normal((n, 3)))
    assert anchors.dtype == np.float32
    anchors[rng.random(n) < 0.3] = 0.0
    batch = {"x2d": rng.standard_normal((n, 5)).astype(np.float32), "y2d": y2d,
             "x3d": rng.standard_normal((n, 6)).astype(np.float32), "y3d": y3d,
             "pair3d": rng.standard_normal((n, 6)).astype(np.float32),
             "anchors": anchors, "latent_weight": 0.5}
    losses, grad = step(narrow, batch)
    ref_losses, ref_grad = step(wide, batch)
    assert grad.dtype == np.float32 and ref_grad.dtype == np.float64
    for key, ref in ref_losses.items():
        assert abs(losses[key] - ref) <= 2e-6 * abs(ref), key
    assert np.abs(grad - ref_grad).max() <= 2e-6 * np.abs(ref_grad).max()

    # Rows whose logit gap exceeds 104, labelled with their smallest logit:
    # the float32 probability of the label underflows to 0, and the loss
    # reads the log floor, finfo(float32).tiny, not infinity.
    x2d = 1000.0 * batch["x2d"]
    logits = class_logits(mlp_forward(narrow.enc2d, x2d, hidden_only=True)[0],
                          class_layer(narrow, "enc2d"))
    far = np.ptp(logits, axis=1) > 104
    assert far.sum() >= n // 2
    far_batch = {"x2d": x2d[far], "y2d": np.argmin(logits[far], axis=1)}
    losses, grad = step(narrow, far_batch)
    assert losses["l_ce2d"] == pytest.approx(-np.log(np.finfo(np.float32).tiny))
    assert np.isfinite(grad).all()
    assert step(wide, far_batch)[0]["l_ce2d"] > 104


def test_grad_check_flags_wrong_latent_weight(monkeypatch, rng):
    bundle = tiny_bundle()
    batch = _training_batch(bundle, rng, weight=0.5)

    def wrong(b, probed, grad=True):
        losses, _ = step(b, {**probed, "latent_weight": 1.0}, grad=False)
        return losses, step(b, probed)[1] if grad else None

    monkeypatch.setattr(nncore, "step", wrong)
    assert grad_check(bundle, batch).error > 1e-2


def test_grad_check_runs_each_pass_once_per_probe(monkeypatch, rng):
    bundle = tiny_bundle()
    batch = _training_batch(bundle, rng, weight=0.5)
    forward, calls = nncore.mlp_forward, []

    def counted(*args, **kwargs):
        calls.append(1)
        return forward(*args, **kwargs)

    monkeypatch.setattr(nncore, "mlp_forward", counted)
    result = grad_check(bundle, batch)
    blocks = len(param_views(bundle.config, bundle.params))
    # Each step runs the batch's 3 passes: the full step and a loss-only
    # one at the base point, one loss-only step per block to see whether
    # the loss reads it, and one per probe, which also gives its pattern.
    assert result.pairs > 0
    assert len(calls) == 3 * (2 + blocks + 2 * result.pairs)


def test_sgd_step_hand_example():
    bundle = tiny_bundle()
    bundle.head_s2d["w"][:] = 1.0
    grad = np.zeros_like(bundle.params)
    param_views(bundle.config, grad)["head_s2d.w"][:] = 0.5
    sgd_step(bundle, grad, lr=0.1)
    assert np.allclose(bundle.head_s2d["w"], 0.95, atol=1e-15)


def test_sgd_step_validation():
    bundle = tiny_bundle()
    with pytest.raises(ValidationError):
        sgd_step(bundle, np.zeros(3), lr=0.1)
    with pytest.raises(ValidationError):
        sgd_step(bundle, np.zeros(bundle.params.size + 1), lr=0.1)
    nan = np.zeros_like(bundle.params)
    param_views(bundle.config, nan)["head_s2d.b"][:] = np.nan
    with pytest.raises(NumericalError):
        sgd_step(bundle, nan, lr=0.1)
    with pytest.raises(ValidationError):
        sgd_step(bundle, np.zeros_like(bundle.params), lr=0.0)
    # A rejected step must not have touched anything.
    assert np.array_equal(bundle.head_s2d["b"], np.zeros(9))


def test_sgd_never_touches_frozen_anchor(rng):
    bundle = tiny_bundle()
    frozen = bundle.anchor_head.copy()
    x2d = rng.standard_normal((8, 5))
    x3d = rng.standard_normal((8, 6))
    s = anchor_units(bundle, rng.standard_normal((8, 3)))
    y = rng.integers(0, 5, size=8).astype(np.int32)
    for _ in range(5):
        _, grad = step(bundle, {"x2d": x2d, "y2d": y})
        sgd_step(bundle, grad, lr=0.05)
        _, grad = step(bundle, {"x2d": x2d, "pair3d": x3d, "anchors": s,
                                "latent_weight": 1.0})
        sgd_step(bundle, grad, lr=0.05)
    assert np.array_equal(bundle.anchor_head, frozen)


def _linear_step(monkeypatch, direction, claimed):
    """Patch step to the loss b . direction over head_s2d.b, with a chosen
    analytic gradient."""
    def fake(bundle, batch, grad=True):
        g = np.zeros_like(bundle.params)
        param_views(bundle.config, g)["head_s2d.b"][:] = claimed
        return {"loss": float(bundle.head_s2d["b"] @ direction)}, g if grad else None
    monkeypatch.setattr(nncore, "step", fake)


def test_grad_check_exact_for_linear_loss(monkeypatch):
    bundle = tiny_bundle()
    direction = np.arange(9, dtype=np.float64) / 3.0
    _linear_step(monkeypatch, direction, direction)
    assert grad_check(bundle, {}) == (pytest.approx(0.0, abs=1e-10), 0, 9)


def test_grad_check_flags_wrong_gradient(monkeypatch):
    bundle = tiny_bundle()
    direction = np.ones(9)
    _linear_step(monkeypatch, direction, 2.0 * direction)
    assert grad_check(bundle, {}).error > 0.4


def test_grad_check_skips_and_counts_a_relu_kink(monkeypatch, rng):
    bundle = tiny_bundle()
    x = rng.standard_normal((1, 5))
    batch = {"x2d": x, "y2d": np.array([2])}
    # Hidden unit 0 of the one row sits eps / 2 above its kink, so the -eps
    # probe of its bias crosses it, and so does that of each of its
    # weights whose input exceeds 1/2.  The central difference of a
    # crossing pair averages two slopes: a quarter off for the bias.
    bundle.enc2d.biases[0][0] = 0.5e-5 - x[0] @ bundle.enc2d.weights[0][:, 0]
    result = grad_check(bundle, batch)
    assert result.skipped == 1 + np.count_nonzero(np.abs(x[0]) > 0.5)
    assert result.error < 1e-4
    monkeypatch.setattr(nncore, "_branch_pattern", lambda *args: b"")
    assert grad_check(bundle, batch).error > 0.2


def _zero_row_batch(bundle, rng, n=4):
    """A latent batch whose pair3d row 1 is zero: without a hidden layer and
    with zero biases its f3d output row is zero, and every bias probe of
    enc3d or head_f3d gives it a direction."""
    pair3d = rng.standard_normal((n, bundle.config.input3d_dim))
    pair3d[1] = 0.0
    return {"x2d": rng.standard_normal((n, bundle.config.input2d_dim)),
            "pair3d": pair3d,
            "anchors": anchor_units(bundle, rng.standard_normal((n, 3))),
            "latent_weight": 1.0}


def test_grad_check_skips_and_counts_a_zero_feature_row(monkeypatch, rng):
    bundle = tiny_bundle(hidden=())
    batch = _zero_row_batch(bundle, rng)
    f3d = batch["pair3d"] @ bundle.enc3d.weights[0] @ bundle.head_f3d["w"]
    assert not f3d[1].any() and f3d[0].any()
    result = grad_check(bundle, batch)
    assert result.skipped == 7 + 7  # enc3d.b0 and head_f3d.b
    assert result.error < 1e-4
    # Scored, such a pair measures the jump of the row's cosine, not a slope.
    monkeypatch.setattr(nncore, "_branch_pattern", lambda *args: b"")
    assert grad_check(bundle, batch).error > 0.5


def test_grad_check_fails_past_its_skip_cap(rng):
    # The zero row's 4 bias probes are 4 of 20 probe pairs here, over 10%.
    config = ModelConfig(input2d_dim=1, input3d_dim=1, hidden=(), latent_dim=2,
                         embed_dim=9, anchor_dim=2, sam_dim=3)
    bundle = make_bundle(config, mock_text_embeddings(5, 9, seed=1), seed=5)
    with pytest.raises(NumericalError, match="skipped 4 of 20 probe pairs"):
        grad_check(bundle, _zero_row_batch(bundle, rng))


@pytest.mark.parametrize("name, old, new", [
    ("cosine_align_loss", "d_out /= -divisor", "d_out /= divisor"),
    ("ce_loss", "    d_logits /= n\n", ""),
], ids=["cosine-sign-flipped", "ce-not-averaged"])
def test_grad_check_fails_a_wrong_loss_gradient_on_one_ac4_trial(monkeypatch, name,
                                                                 old, new):
    mutate(monkeypatch, nncore, name, old, new)
    first_trial = itertools.islice(cli.gradient_trials(7, 1000), 5)
    assert max(grad_check(model, batch).error for _, model, batch in first_trial) > 1e-4


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip(tmp_path):
    bundle = tiny_bundle(seed=9)
    path = tmp_path / "model.ckpt"
    save_checkpoint(bundle, path, extra={"note": "hello"})
    loaded, meta = load_checkpoint(path)
    assert meta["x_note"] == "hello"
    assert loaded.config == bundle.config
    assert loaded.seed == bundle.seed
    orig = param_views(bundle.config, bundle.params)
    back = param_views(loaded.config, loaded.params)
    for name in orig:
        assert np.array_equal(back[name],
                              orig[name].astype("<f4").astype(np.float64)), name
    assert np.allclose(loaded.anchor_head, bundle.anchor_head, atol=1e-6)
    assert not loaded.anchor_head.flags.writeable
    # Embeddings come back unit-normalized.
    norms = np.linalg.norm(loaded.embeddings, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-9
    assert np.allclose(loaded.embeddings, bundle.embeddings,
                       atol=1e-6)


def test_checkpoint_save_is_deterministic(tmp_path):
    bundle = tiny_bundle(seed=3)
    save_checkpoint(bundle, tmp_path / "a.ckpt")
    save_checkpoint(bundle, tmp_path / "b.ckpt")
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


def test_checkpoint_reload_is_stable(tmp_path):
    bundle = tiny_bundle(seed=3)
    save_checkpoint(bundle, tmp_path / "a.ckpt")
    first, _ = load_checkpoint(tmp_path / "a.ckpt")
    save_checkpoint(first, tmp_path / "b.ckpt")
    second, _ = load_checkpoint(tmp_path / "b.ckpt")
    a = param_views(first.config, first.params)
    b = param_views(second.config, second.params)
    for name in a:
        assert np.array_equal(a[name], b[name]), name


def test_checkpoint_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"not a checkpoint")
    with pytest.raises(ValidationError):
        load_checkpoint(bad)
    good = tmp_path / "good.ckpt"
    save_checkpoint(tiny_bundle(), good)
    blob = good.read_bytes()
    truncated = tmp_path / "short.ckpt"
    truncated.write_bytes(blob[:-8])
    expected = len(blob) - blob.index(b"END\n") - 4
    with pytest.raises(ValidationError, match=f"short.ckpt: payload has "
                                              f"{expected - 8} bytes, header "
                                              f"implies {expected}"):
        load_checkpoint(truncated)
    for old, new in ((b"\nseed=", b"\nsead="), (b"latent_dim=7", b"latent_dim=x"),
                     (b"embed_dim=9", b"embed_dim=\xff")):
        broken = tmp_path / "broken.ckpt"
        broken.write_bytes(blob.replace(old, new, 1))
        with pytest.raises(ValidationError, match="broken.ckpt"):
            load_checkpoint(broken)
    # Every header line is key=value, and no key is repeated.
    for old, new, message in ((b"\nseed=5\n", b"\nseed=7\nseed=9\n", "duplicate key 'seed'"),
                              (b"\nEND\n", b"\ngarbage line\nEND\n", "expected key=value")):
        broken.write_bytes(blob.replace(old, new, 1))
        with pytest.raises(ValidationError, match=f"broken.ckpt: bad header: .*{message}"):
            load_checkpoint(broken)


def test_checkpoint_round_trip_of_a_float32_model_is_exact(tmp_path):
    # A header value ending in END does not end the header, and a value
    # may hold "=".
    bundle = tiny_bundle(seed=9).astype(np.float32)
    path = tmp_path / "model.ckpt"
    save_checkpoint(bundle, path, extra={"note": "THE END", "pair": "a=b"})
    loaded, meta = load_checkpoint(path)
    assert meta["x_note"] == "THE END" and meta["x_pair"] == "a=b"
    assert loaded.params.dtype == loaded.anchor_head.dtype == np.float32
    assert loaded.params.tobytes() == bundle.params.tobytes()
    assert loaded.anchor_head.tobytes() == bundle.anchor_head.tobytes()
    assert loaded.step_plan.emb.tobytes() == bundle.step_plan.emb.tobytes()
    assert loaded.params.flags.writeable


@pytest.mark.parametrize("value", [1e39, np.nan])
def test_checkpoint_save_refuses_values_not_finite_in_float32(tmp_path, value):
    bundle = tiny_bundle()
    bundle.params[3] = value  # finite in float64, or not at all
    with pytest.raises(NumericalError, match="not finite in float32"):
        save_checkpoint(bundle, tmp_path / "model.ckpt")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("extra", [
    {"note": "a\nb"}, {"note": "a\rb"}, {"note": "p\u2028q"}, {"note": "x\nEND\ny"},
    {"a=b": 1}, {"a\nb": 1}, {"note\x85": 1}, {"note": "\ud800"}])
def test_checkpoint_save_refuses_extras_that_do_not_read_back(tmp_path, extra):
    with pytest.raises(ValidationError, match="would not read back"):
        save_checkpoint(tiny_bundle(), tmp_path / "model.ckpt", extra=extra)
    assert not list(tmp_path.iterdir())


def test_checkpoint_rejects_signalling_nan_without_a_warning(tmp_path):
    good = tmp_path / "good.ckpt"
    save_checkpoint(tiny_bundle(), good)
    blob = good.read_bytes()
    start = blob.index(b"END\n") + 4
    snan = np.array([0x7F800001], dtype="<u4").tobytes()
    for offset in (start, len(blob) - 4):  # a parameter, an embedding entry
        bad = tmp_path / "snan.ckpt"
        bad.write_bytes(blob[:offset] + snan + blob[offset + 4:])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="non-finite"):
                load_checkpoint(bad)


def test_checkpoint_rejects_zero_embedding_row_without_a_warning(tmp_path):
    bundle = tiny_bundle()
    good = tmp_path / "good.ckpt"
    save_checkpoint(bundle, good)
    blob = good.read_bytes()
    row = 4 * bundle.config.embed_dim  # the last class's row ends the payload
    bad = tmp_path / "zero.ckpt"
    bad.write_bytes(blob[:-row] + bytes(row))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError,
                           match=r"zero\.ckpt: class embedding row 4 has zero norm"):
            load_checkpoint(bad)


@pytest.fixture(scope="module")
def checkpoint_blob(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
    save_checkpoint(tiny_bundle(), path)
    return path.read_bytes()


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_damaged_checkpoint_loads_or_raises_validation_error(checkpoint_blob,
                                                             tmp_path_factory,
                                                             data):
    blob = checkpoint_blob
    if data.draw(st.booleans(), label="truncate"):
        blob = blob[:data.draw(st.integers(0, len(blob) - 1), label="length")]
    else:
        pos = data.draw(st.integers(0, len(blob) - 1), label="position")
        flip = data.draw(st.integers(1, 255), label="xor")
        blob = blob[:pos] + bytes([blob[pos] ^ flip]) + blob[pos + 1:]
    path = tmp_path_factory.getbasetemp() / "damaged.ckpt"
    path.write_bytes(blob)
    try:
        load_checkpoint(path)
    except ValidationError:
        pass
