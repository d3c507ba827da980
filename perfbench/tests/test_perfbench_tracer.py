"""Span arithmetic, the inference-reuse ratio and function patching."""

import sys

import pytest

import tracer as tracing
from tracer import (Patcher, Tracer, inference_useful_frac, layer_metrics,
                    outermost, self_times)


def span(name, start, end, parent):
    return [name, start, end, parent, 0]


def test_self_times_subtract_children():
    spans = [span("root", 0.0, 10.0, -1),
             span("a", 1.0, 4.0, 0),
             span("a.inner", 2.0, 3.0, 1),
             span("b", 5.0, 9.0, 0)]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_times_count_overlapping_children_once():
    spans = [span("root", 0.0, 10.0, -1),
             span("x", 1.0, 5.0, 0),
             span("y", 3.0, 7.0, 0)]
    assert self_times(spans)[0] == pytest.approx(4.0)


def test_outermost_skips_nested_spans_of_the_same_group():
    spans = [span("derive", 0.0, 4.0, -1),
             span("refine", 1.0, 2.0, 0),
             span("other", 5.0, 8.0, -1),
             span("refine", 6.0, 7.0, 2)]
    assert outermost(spans, ["derive", "refine"]) == [0, 3]


def _one_training_run(names, stage1, stage2, steps):
    sgd, predict = "nncore.sgd_step", "training.predict_labels_2d"
    for _ in range(stage1):
        names += [sgd] * steps + [predict]        # epoch, epoch metrics
    for _ in range(stage2):
        names += [predict] + [sgd] * steps + [predict]  # self-labels first


def test_inference_useful_frac_counts_parameter_versions():
    sgd, predict = "nncore.sgd_step", "training.predict_labels_2d"
    names = [sgd, sgd, predict, predict, "nncore.mlp_forward", sgd, predict]
    assert inference_useful_frac(names) == (2, 3)
    assert inference_useful_frac([predict, predict]) == (1, 2)


def test_inference_useful_frac_of_train_then_eval_is_30_of_51():
    names = []
    _one_training_run(names, stage1=10, stage2=20, steps=28)
    names.append("training.predict_labels_2d")  # eval of the saved checkpoint
    assert inference_useful_frac(names) == (30, 51)


def test_layer_metrics_attribute_epoch_metrics_and_self_time():
    spans = [span("cli.main", 0.0, 20.0, -1),
             span("training.run_stage2", 1.0, 19.0, 0),
             span("training.compute_self_labels", 2.0, 6.0, 1),
             span("training.predict_labels_2d", 2.0, 5.0, 2),
             span("nncore.sgd_step", 7.0, 8.0, 1),
             span("training.predict_labels_2d", 9.0, 12.0, 1),
             span("evaluation.confusion", 12.0, 13.0, 1)]
    metrics = layer_metrics(spans, ops=2)
    assert metrics["training.epoch_metrics_s"] == pytest.approx(4.0 / 2)
    assert metrics["training.inference_s"] == pytest.approx(6.0 / 2)
    assert metrics["training.self_labels_s"] == pytest.approx(4.0 / 2)
    # run_stage2 lasts 18 s; its wrapped children cover 4 + 1 + 3 + 1.
    assert metrics["training.loop_self_s"] == pytest.approx(9.0 / 2)
    assert metrics["cli.self_s"] == pytest.approx(2.0 / 2)
    assert metrics["nncore.sgd_steps"] == pytest.approx(0.5)
    assert metrics["training.inference_useful_frac"] == pytest.approx(1.0)


def test_wrapped_calls_record_parents_only_while_active():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4 and tracer.spans == []
    tracer.active = True
    assert outer(1) == 4
    assert [(s[0], s[3]) for s in tracer.spans] == [("outer", -1), ("inner", 0)]
    assert all(s[2] >= s[1] > 0 for s in tracer.spans)


def test_install_patches_names_where_callers_look_them_up():
    import cnslab.cli  # noqa: F401  (loads every cnslab module)
    from cnslab import ablation, nncore, training

    originals = (training.mlp_forward, training.sgd_step, ablation.train,
                 nncore.class_logits)
    with Patcher() as patcher:
        Tracer().install(patcher)
        for module, attr in tracing.REQUIRED_LOOKUPS:
            fn = getattr(sys.modules[f"cnslab.{module}"], attr)
            assert hasattr(fn, "__wrapped__"), (module, attr)
        assert nncore.mlp_forward is training.mlp_forward
    assert (training.mlp_forward, training.sgd_step, ablation.train,
            nncore.class_logits) == originals


def test_install_fails_loudly_on_a_missing_function():
    import cnslab.cli  # noqa: F401

    with Patcher() as patcher, pytest.raises(RuntimeError, match="is gone"):
        Tracer().install(patcher, {"nncore": ("no_such_function",)})
