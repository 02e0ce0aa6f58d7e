"""Objective, metrics, optimizers, and cross-validation behavior."""

import ctypes
import json
import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import numpy.testing as npt
import pytest

from hybridgnn import autodiff as ad
from hybridgnn import cli
from hybridgnn import data as dat
from hybridgnn import model as mdl
from hybridgnn import training as tr

from test_model import tiny_config


def _one(probs, label, lam, *assign):
    """batch_loss on a batch of one sample, one (N, N_r) matrix per `assign`."""
    return tr.batch_loss(
        ad.constant(np.asarray([probs], dtype=np.float64)), np.array([label]),
        [ad.constant(np.asarray([a], dtype=np.float64)) for a in assign], lam,
    )


# --- loss --------------------------------------------------------------------


def test_loss_zero_when_confident_and_one_hot_assignments():
    out = _one([0.0, 1.0], 1, 0.5, [[1.0, 0.0], [0.0, 1.0]])
    npt.assert_allclose(out.value, 0.0, atol=1e-12)


def test_loss_uniform_assignment_entropy_value():
    # entropy term with uniform rows: lam * N * log(N_r)
    n, n_r, lam = 6, 3, 0.25
    out = _one([0.0, 1.0], 1, lam, np.full((n, n_r), 1.0 / n_r))
    npt.assert_allclose(out.value, lam * n * math.log(n_r), atol=1e-12)


def test_loss_reduces_to_cross_entropy_when_lambda_zero():
    out = _one([0.3, 0.7], 0, 0.0, [[0.5, 0.5]])
    npt.assert_allclose(out.value, -math.log(0.3), atol=1e-12)


def test_loss_label_out_of_range():
    with pytest.raises(ValueError, match="label"):
        _one([0.5, 0.5], 2, 0.0)
    with pytest.raises(ValueError, match="label"):
        _one([0.5, 0.5], -1, 0.0)


def test_batch_loss_is_mean_of_per_sample_losses():
    rng = np.random.default_rng(0)
    raw = rng.uniform(0.1, 1.0, size=(4, 2))
    probs = raw / raw.sum(axis=1, keepdims=True)
    labels = np.array([0, 1, 1, 0])
    assign = rng.dirichlet(np.ones(3), size=(4, 5))
    lam = 1e-2
    batched = tr.batch_loss(ad.constant(probs), labels, [ad.constant(assign)], lam)
    # per sample: -log p[y] - lam * sum(R log R)
    singles = [
        -np.log(probs[i, labels[i]]) - lam * np.sum(assign[i] * np.log(assign[i]))
        for i in range(4)
    ]
    npt.assert_allclose(batched.value, np.mean(singles), atol=1e-12)


def test_loss_gradient_through_entropy_term():
    rng = np.random.default_rng(1)
    logits = rng.normal(size=(2, 2))
    scores = rng.normal(size=(2, 3, 2))

    def f(leaves):
        probs = ad.softmax(leaves[0], axis=-1)
        assign = ad.softmax(leaves[1], axis=-1)
        return tr.batch_loss(probs, np.array([1, 0]), [assign], lam=1e-2)

    assert ad.gradient_check(f, [logits, scores], eps=1e-5) < 1e-4


# --- metrics -----------------------------------------------------------------


def test_metrics_hand_case():
    m = tr.Metrics(tp=50, fp=10, fn=5, tn=35)
    npt.assert_allclose([m.acc, m.rec, m.pre, m.f1], [0.85, 0.9091, 0.8333, 0.8696], atol=1e-4)


def test_metrics_all_correct():
    m = tr.Metrics(tp=7, fp=0, fn=0, tn=3)
    assert m.acc == m.rec == m.pre == m.f1 == 1.0


def test_metrics_zero_denominator_conventions():
    m = tr.Metrics(tp=0, fp=0, fn=0, tn=12)
    assert m.pre == 0.0 and m.rec == 0.0 and m.f1 == 0.0
    assert m.acc == 1.0


def test_metrics_identities_on_random_counts():
    rng = np.random.default_rng(2)
    for _ in range(100):
        tp, fp, fn, tn = (int(v) for v in rng.integers(0, 40, size=4))
        if tp + fp + fn + tn == 0:
            continue
        m = tr.Metrics(tp=tp, fp=fp, fn=fn, tn=tn)
        assert m.acc == (tp + tn) / (tp + fp + fn + tn)
        if m.pre + m.rec > 0:
            npt.assert_allclose(m.f1, 2 * m.pre * m.rec / (m.pre + m.rec), atol=1e-15)


# --- config validation ---------------------------------------------------------


def test_train_config_validation():
    with pytest.raises(ValueError):
        tr.TrainConfig(learning_rate=0.0)
    for lr in (math.nan, math.inf):
        with pytest.raises(ValueError, match="learning_rate"):
            tr.TrainConfig(learning_rate=lr)
    for lam in (math.nan, math.inf):
        with pytest.raises(ValueError, match="lam"):
            tr.TrainConfig(lam=lam)
    with pytest.raises(ValueError):
        tr.TrainConfig(batch_size=0)
    for epochs in (0, -1):
        with pytest.raises(ValueError, match="max_epochs"):
            tr.TrainConfig(max_epochs=epochs)
    with pytest.raises(ValueError):
        tr.TrainConfig(lam=-1e-9)
    with pytest.raises(ValueError):
        tr.TrainConfig(optimizer="lbfgs")


# --- training loop -------------------------------------------------------------


def _toy_dataset(seed=0, n_per_class=4, seconds=16.0, fs=64.0):
    recs = dat.synth_generate(n_per_class, seconds, n_channels=4, fs=fs, seed=seed)
    return dat.build_segments(recs, 4.0, 0.0)


def test_training_runs_are_bit_identical():
    ss = _toy_dataset()
    cfg = tiny_config()
    tcfg = tr.TrainConfig(seed=5, max_epochs=2, batch_size=8, learning_rate=1e-3)
    _p1, h1 = tr.train_model(ss.x, ss.y, cfg, tcfg)
    _p2, h2 = tr.train_model(ss.x, ss.y, cfg, tcfg)
    assert h1 == h2


def test_zero_lr_optimizer_is_a_no_op():
    ss = _toy_dataset()
    cfg = tiny_config()
    tcfg = tr.TrainConfig(seed=6, max_epochs=1, batch_size=8)
    params = mdl.init_model(cfg, 1)
    before = [n.value.copy() for n in params.values()]
    opt = tr._Sgd(0.0)
    rng = np.random.default_rng(0)
    first = tr.train_epoch(params, cfg, tcfg, ss.x, ss.y, opt, rng)
    second = tr.train_epoch(params, cfg, tcfg, ss.x, ss.y, opt, rng)
    for node, old in zip(params.values(), before):
        npt.assert_array_equal(node.value, old)
    npt.assert_allclose(first["mean_loss"], second["mean_loss"], atol=1e-12)


def test_loss_decreases_on_separable_data():
    # median over 5 seeds of the epoch-over-epoch change, first 5 epochs
    ss = _toy_dataset(seed=3, n_per_class=6, seconds=20.0)
    cfg = tiny_config()
    histories = []
    for seed in range(5):
        tcfg = tr.TrainConfig(seed=seed, max_epochs=5, batch_size=16, learning_rate=5e-3)
        _params, history = tr.train_model(ss.x, ss.y, cfg, tcfg)
        histories.append([h["mean_loss"] for h in history])
    losses = np.array(histories)
    deltas = np.diff(losses, axis=1)
    assert np.all(np.median(deltas, axis=0) < 0)


def test_divergence_aborts_with_diagnostics():
    ss = _toy_dataset()
    cfg = tiny_config()
    tcfg = tr.TrainConfig(seed=7, max_epochs=1, batch_size=8)
    params = mdl.init_model(cfg, 2)
    params["head.w"].value = params["head.w"].value + np.inf
    with pytest.raises(tr.TrainingDivergedError) as info, np.errstate(invalid="ignore"):
        tr.train_epoch(params, cfg, tcfg, ss.x, ss.y, tr._Sgd(1e-3), np.random.default_rng(0))
    assert info.value.batch_index == 0
    assert "head.w" in info.value.param_norms


def test_empty_shards_rejected():
    cfg = tiny_config()
    params = mdl.init_model(cfg, 3)
    with pytest.raises(ValueError, match="empty"):
        tr.evaluate(params, cfg, np.zeros((0, 4, 32)), np.zeros(0, dtype=int))
    with pytest.raises(ValueError, match="empty"):
        tr.train_epoch(
            params, cfg, tr.TrainConfig(), np.zeros((0, 4, 32)), np.zeros(0, dtype=int),
            tr._Sgd(1e-3), np.random.default_rng(0),
        )


@pytest.mark.parametrize("batch_size", [5, 40])
def test_epoch_batches_are_the_shuffled_rows_read_in_place(monkeypatch, batch_size):
    # 32 rows in batches of 5 end in a short batch; a batch of 40 takes them all
    ss = _toy_dataset()
    x, y = ss.x, ss.y
    x_orig, y_orig = x.copy(), y.copy()
    seen = []
    forward, loss = tr.forward_batch, tr.batch_loss

    def forward_spy(segments, *args):
        assert np.shares_memory(segments, x), "the batch was copied out of x"
        seen.append([segments.tobytes()])
        return forward(segments, *args)

    def loss_spy(probs, labels, *args):
        seen[-1].append(np.asarray(labels).tobytes())
        return loss(probs, labels, *args)

    monkeypatch.setattr(tr, "forward_batch", forward_spy)
    monkeypatch.setattr(tr, "batch_loss", loss_spy)
    cfg = tiny_config()
    tcfg = tr.TrainConfig(batch_size=batch_size)
    params, optimizer = mdl.init_model(cfg, 8), tr._make_optimizer(tcfg)
    rng, twin = np.random.default_rng(9), np.random.default_rng(9)
    expected = []
    for _epoch in range(3):
        tr.train_epoch(params, cfg, tcfg, x, y, optimizer, rng)
        order = twin.permutation(len(x))
        for start in range(0, len(x), batch_size):
            idx = order[start : start + batch_size]
            expected.append([x_orig[idx].tobytes(), y_orig[idx].tobytes()])
    assert len(x) == 32
    assert seen == expected
    assert (x.tobytes(), y.tobytes()) == (x_orig.tobytes(), y_orig.tobytes())


def test_training_leaves_the_rows_in_the_callers_order(monkeypatch):
    ss = _toy_dataset()
    x, y = ss.x, ss.y
    x_bytes, y_bytes = x.tobytes(), y.tobytes()
    cfg = tiny_config()
    tr.train_model(x, y, cfg, tr.TrainConfig(seed=2, max_epochs=3, batch_size=5))
    assert (x.tobytes(), y.tobytes()) == (x_bytes, y_bytes)
    # the loss turns non-finite at the third of seven batches
    params = mdl.init_model(cfg, 2)
    forward, calls = tr.forward_batch, []

    def diverging(segments, params, mcfg):
        calls.append(len(segments))
        if len(calls) == 3:
            params["head.w"].value += np.inf
        return forward(segments, params, mcfg)

    monkeypatch.setattr(tr, "forward_batch", diverging)
    with pytest.raises(tr.TrainingDivergedError) as info, np.errstate(invalid="ignore"):
        tr.train_epoch(params, cfg, tr.TrainConfig(batch_size=5), x, y, tr._Sgd(1e-3), np.random.default_rng(0))
    assert info.value.batch_index == 2
    assert (x.tobytes(), y.tobytes()) == (x_bytes, y_bytes)


def test_step_graph_is_freed_before_the_next_forward(monkeypatch):
    ss = _toy_dataset()
    cfg = tiny_config()
    tcfg = tr.TrainConfig(batch_size=8)
    params = mdl.init_model(cfg, 3)
    outputs = []  # weak references to every array the forwards returned
    live_at_forward = []
    forward = tr.forward_batch

    def forward_spy(*args):
        live_at_forward.append(sum(ref() is not None for ref in outputs))
        probs, diag = forward(*args)
        outputs.extend(weakref.ref(node.value) for node in [probs, diag["adj_inst"], *diag["assign"]])
        return probs, diag

    monkeypatch.setattr(tr, "forward_batch", forward_spy)
    tr.train_epoch(params, cfg, tcfg, ss.x, ss.y, tr._make_optimizer(tcfg), np.random.default_rng(0))
    assert live_at_forward == [0, 0, 0, 0]


def test_train_step_holds_no_copy_of_its_batch(monkeypatch):
    # one batch of 64 windows of 4 x 2048 samples, 4 MiB, against a tiny
    # model: the step peaked at 6.2 MiB with its batch copied out of x and at
    # 2.2 MiB reading x in place; on one conv thread the peak does not depend
    # on how threads interleave
    monkeypatch.setattr(ad, "CONV_THREADS", 1)
    cfg = tiny_config()
    tcfg = tr.TrainConfig(batch_size=64)
    rng = np.random.default_rng(0)
    x, y = rng.normal(size=(64, 4, 2048)), rng.integers(0, 2, 64)
    params, optimizer = mdl.init_model(cfg, 0), tr._make_optimizer(tcfg)
    tracemalloc.start()
    try:
        tr.train_epoch(params, cfg, tcfg, x, y, optimizer, np.random.default_rng(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < x.nbytes, f"train_epoch peaked at {peak} B; x is {x.nbytes} B"


def _overlapping_set(n_per_class=3, seconds=12.0):
    recs = dat.synth_generate(n_per_class, seconds, n_channels=4, fs=32.0, seed=21)
    return dat.build_segments(recs, 2.0, 0.75)


def test_evaluate_reads_a_segment_set_batch_by_batch(monkeypatch):
    # batches of 7 over 6 x 21 windows: several full batches and a short one;
    # a budget a byte short of 8 windows holds 7
    ss = _overlapping_set()
    monkeypatch.setattr(tr, "EVAL_BATCH_BYTES", 8 * 8 * math.prod(ss.shape[1:]) - 1)
    cfg = tiny_config()
    params = mdl.init_model(cfg, 4)
    runs = []
    for x in (ss, ss.x):
        seen = []

        def on_batch(start, diag, seen=seen):
            seen.append((start, diag["adj_inst"].tobytes(), [a.tobytes() for a in diag["assign"]]))

        runs.append((tr.evaluate(params, cfg, x, ss.y, on_batch=on_batch), seen))
    (streamed, streamed_diag), (whole, whole_diag) = runs
    assert streamed == whole
    assert [start for start, *_ in streamed_diag] == list(range(0, len(ss), 7))
    assert streamed_diag == whole_diag
    assert tr.mean_assignment_entropy(params, cfg, ss) == tr.mean_assignment_entropy(params, cfg, ss.x)


@pytest.mark.parametrize("variant", ["full", "e"])
def test_predict_gives_the_same_bytes_at_any_byte_budget(monkeypatch, variant):
    # a budget below one window still reads one; 5 windows' worth splits the
    # 126 windows with a short last batch; the default reads them all at once
    ss = _overlapping_set()
    window_bytes = 8 * math.prod(ss.shape[1:])
    cfg = tiny_config(variant)
    params = mdl.init_model(cfg, 4)
    runs = []
    for budget, per_batch in ((1, 1), (5 * window_bytes + 7, 5), (tr.EVAL_BATCH_BYTES, len(ss))):
        monkeypatch.setattr(tr, "EVAL_BATCH_BYTES", budget)
        starts, stacks = [], []

        def on_batch(start, diag):
            starts.append(start)
            stacks.append([diag["adj_inst"], *diag["assign"]])

        preds = tr.predict(params, cfg, ss, on_batch=on_batch)
        assert starts == list(range(0, len(ss), per_batch))
        diag = [np.concatenate(stage).tobytes() for stage in zip(*stacks)]
        entropy = tr.mean_assignment_entropy(params, cfg, ss).hex()
        runs.append((preds.tobytes(), diag, entropy))
    assert runs[1] == runs[0] and runs[2] == runs[0]


def test_evaluate_holds_one_byte_budget_of_windows():
    # 64 windows of 19 x 1024 (9.5 MiB; 256 such windows are 40 MB): evaluate
    # holds one batch of at most EVAL_BATCH_BYTES of windows, and each conv
    # thread a block's rows of its largest layer and that layer's input, each
    # at most CONV_BLOCK_BYTES; 11 MiB when a batch held 256 windows
    recs = dat.synth_generate(2, 64.0, n_channels=19, fs=256.0, seed=23)
    ss = dat.build_segments(recs, 4.0, 0.0)
    cfg = mdl.ModelConfig()
    params = mdl.init_model(cfg, 5)
    tracemalloc.start()
    try:
        tr.evaluate(params, cfg, ss, ss.y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = tr.EVAL_BATCH_BYTES + 2 * ad.CONV_THREADS * ad.CONV_BLOCK_BYTES
    assert ss.shape == (64, 19, 1024)
    assert peak < bound, f"evaluate peaked at {peak} B against {bound} B"


def test_no_segments_give_no_predictions_and_no_entropy():
    cfg = tiny_config()
    params = mdl.init_model(cfg, 4)
    empty = _overlapping_set()[[]]
    assert tr.predict(params, cfg, empty).shape == (0,)
    assert np.isnan(tr.mean_assignment_entropy(params, cfg, empty))


def test_evaluate_over_a_segment_set_holds_one_batch():
    # 16 recordings at 75 % overlap: 912 windows, 7.5 MB when read out whole,
    # against batches of EVAL_BATCH_BYTES (512 windows, 4.2 MB) and a forward
    # that keeps no graph
    recs = dat.synth_generate(8, 60.0, n_channels=4, fs=64.0, seed=22)
    ss = dat.build_segments(recs, 4.0, 0.75)
    x_bytes = int(np.prod(ss.shape)) * 8
    cfg = tiny_config()
    params = mdl.init_model(cfg, 5)
    tracemalloc.start()
    try:
        tr.evaluate(params, cfg, ss, ss.y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(ss) == 912
    assert peak < x_bytes, f"evaluate peaked at {peak} B; the set's x is {x_bytes} B"


NO_GRAPH_CONFIGS = {
    **{variant: dict(variant=variant) for variant in mdl.VARIANTS},
    "row": dict(inst_softmax_axis="row"),
    "hidden2": dict(classifier_hidden=2),
}


@pytest.mark.parametrize("over", NO_GRAPH_CONFIGS.values(), ids=NO_GRAPH_CONFIGS.keys())
def test_forward_values_record_no_graph(monkeypatch, over):
    cfg = tiny_config(**over)
    params = mdl.init_model(cfg, 6)
    x = _overlapping_set().x[:5]
    recorded = []
    forward_batch = mdl.forward_batch

    def spy(*args):
        recorded.append(ad.recording())
        return forward_batch(*args)

    # model.forward looks forward_batch up in its own module, and predict
    # runs model.forward
    monkeypatch.setattr(mdl, "forward_batch", spy)
    probs, diag = mdl.forward(x, params, cfg)
    preds = tr.predict(params, cfg, x)
    assert recorded == [False, False] and ad.recording()
    graph_probs, graph_diag = forward_batch(x, params, cfg)
    assert probs.tobytes() == graph_probs.value.tobytes()
    assert preds.tolist() == np.argmax(probs, axis=-1).tolist()
    if graph_diag["adj_inst"] is None:
        assert diag["adj_inst"] is None
    else:
        assert diag["adj_inst"].tobytes() == graph_diag["adj_inst"].value.tobytes()
    assert [a.tobytes() for a in diag["assign"]] == [a.value.tobytes() for a in graph_diag["assign"]]


def test_folds_read_only_their_own_rows(monkeypatch):
    ss = _toy_dataset(seed=10, n_per_class=6, seconds=12.0)

    def whole_set(_self):
        raise AssertionError("a fold read the whole segment set")

    monkeypatch.setattr(dat.SegmentSet, "x", property(whole_set))
    tcfg = tr.TrainConfig(seed=11, max_epochs=1, batch_size=16)
    [report] = tr.ten_fold_cv(ss, [(tiny_config(), tcfg)], n_jobs=1)
    assert report.pooled.tp + report.pooled.fp + report.pooled.fn + report.pooled.tn == len(ss)


def test_adam_and_sgd_update_parameters():
    ss = _toy_dataset()
    cfg = tiny_config()
    for optimizer in ("adam", "sgd"):
        tcfg = tr.TrainConfig(seed=8, max_epochs=1, batch_size=8, optimizer=optimizer)
        params, _ = tr.train_model(ss.x, ss.y, cfg, tcfg)
        fresh = mdl.init_model(cfg, tr.subseed(tcfg.seed, "params"))
        moved = [not np.array_equal(params[name].value, node.value) for name, node in fresh.items()]
        assert any(moved)


# --- cross-validation ----------------------------------------------------------


def test_partition_sizes_for_53_subjects():
    subjects = [f"s{i}" for i in range(53)]
    groups = tr.partition_subjects(subjects, seed=0)
    sizes = sorted(len(g) for g in groups)
    assert sizes == [5] * 7 + [6] * 3
    flat = [s for g in groups for s in g]
    assert sorted(flat) == sorted(subjects)


def test_partition_is_seeded_and_exact():
    subjects = [f"s{i}" for i in range(17)]
    g1 = tr.partition_subjects(subjects, seed=4)
    g2 = tr.partition_subjects(subjects, seed=4)
    assert g1 == g2
    g3 = tr.partition_subjects(subjects, seed=5)
    assert g1 != g3


def test_partition_property_random_subject_counts():
    rng = np.random.default_rng(9)
    for _ in range(25):
        n = int(rng.integers(10, 80))
        subjects = [f"subj{i}" for i in range(n)]
        groups = tr.partition_subjects(subjects, seed=int(rng.integers(1 << 30)))
        assert len(groups) == 10
        flat = [s for g in groups for s in g]
        assert len(flat) == n and len(set(flat)) == n
        sizes = {len(g) for g in groups}
        assert max(sizes) - min(sizes) <= 1


def test_partition_needs_ten_subjects():
    with pytest.raises(ValueError, match="10"):
        tr.partition_subjects([f"s{i}" for i in range(9)], seed=0)


def test_cv_folds_are_subject_exclusive():
    ss = _toy_dataset(seed=10, n_per_class=6, seconds=12.0)
    cfg = tiny_config()
    tcfg = tr.TrainConfig(seed=11, max_epochs=1, batch_size=16)
    [report] = tr.ten_fold_cv(ss, [(cfg, tcfg)])
    all_subjects = set(ss.subjects)
    seen = []
    for fold_subjects in report.fold_subjects:
        assert set(fold_subjects) <= all_subjects
        seen.extend(fold_subjects)
    assert sorted(seen) == sorted(all_subjects)  # disjoint and covering


def test_fold_report_structure():
    ss = _toy_dataset(seed=12, n_per_class=5, seconds=12.0)
    cfg = tiny_config()
    tcfg = tr.TrainConfig(seed=13, max_epochs=1, batch_size=16)
    [report] = tr.ten_fold_cv(ss, [(cfg, tcfg)])
    as_json = report.to_json_dict()
    assert len(as_json["folds"]) == 10
    for fold in as_json["folds"]:
        assert {"tp", "fp", "fn", "tn", "acc", "rec", "pre", "f1", "test_subjects"} <= set(fold)
    assert as_json["train_config"]["lam"] == tcfg.lam
    table = report.to_table()
    assert "ACC" in table and "mean" in table and len(table.splitlines()) == 14


# --- fold pool -------------------------------------------------------------------


def _blas_threads(_):
    return ad.openblas().scipy_openblas_get_num_threads64_()


@pytest.mark.skipif(ad.openblas() is None, reason="numpy's bundled OpenBLAS not found")
def test_fold_worker_runs_blas_on_one_thread():
    with ProcessPoolExecutor(
        max_workers=1, initializer=tr._worker_init, initargs=(None,)
    ) as pool:
        assert pool.submit(_blas_threads, None).result() == 1


def _conv_in_worker(_):
    """The worker's conv thread count, and the pools it holds after running a
    conv of 16 chunks of one signal per block."""
    ad.CONV_BLOCK_BYTES = 1
    rng = np.random.default_rng(0)
    w, b = ad.param(rng.normal(size=(3, 1, 2))), ad.param(rng.normal(size=(2,)))
    ad.backward(ad.reduce_sum(ad.conv1d(rng.normal(size=(16 * ad.CONV_CHUNK, 8, 1)), [(w, b, 1)])))
    return ad.CONV_THREADS, sorted(ad._POOLS)


def test_fold_worker_runs_the_conv_on_one_thread(monkeypatch):
    # a forked worker starts from the parent's setting, 2 threads here
    monkeypatch.setattr(ad, "CONV_THREADS", 2)
    with ProcessPoolExecutor(
        max_workers=1, initializer=tr._worker_init, initargs=(None,)
    ) as pool:
        assert pool.submit(_conv_in_worker, None).result() == (1, [])


# `train_model` in a fresh process on one CPU (argv[1] "1") or on every CPU,
# printing the hex of its parameter bytes: its batches of 3 19-electrode
# windows span one chunk of conv blocks, so the conv starts no thread pool
LIBRARY_TRAIN_ON_CPUS = """
import hashlib, os, sys
if sys.argv[1] == "1":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from hybridgnn.data import build_segments, synth_generate
from hybridgnn.model import ModelConfig
from hybridgnn.training import TrainConfig, train_model
segs = build_segments(synth_generate(2, 16.0, seed=0), 4.0, 0.0)
params, _ = train_model(segs.x, segs.y, ModelConfig(), TrainConfig(batch_size=3, max_epochs=1))
print(hashlib.sha256(b"".join(p.value.tobytes() for p in params.values())).hexdigest())
"""


def _fresh_process(code, *args):
    """stdout of `code` run in a new interpreter that imports this tree's package."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(ad.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env=env, timeout=300, check=True).stdout


@pytest.mark.skipif(ad.openblas() is None or ad.usable_cpus() < 2, reason="needs OpenBLAS and 2 CPUs")
def test_library_training_gives_the_same_params_on_one_cpu_and_on_every_cpu():
    # no entry point sets the BLAS thread count; importing the engine does
    one_cpu, every_cpu = (_fresh_process(LIBRARY_TRAIN_ON_CPUS, cpus) for cpus in ("1", "all"))
    assert one_cpu == every_cpu


# a train step as a cv_hd128 fold worker runs it: B=32 windows of 128
# electrodes x 128 samples, variant e, 8 regions, conv and BLAS on one
# thread; the allocator policy is the one importing the engine set
WORKER_STEP_FAULTS = """
import json, resource
import numpy as np
from hybridgnn import autodiff as ad
from hybridgnn.model import ModelConfig, init_model
from hybridgnn.training import TrainConfig, _make_optimizer, train_epoch
ad.CONV_THREADS = 1
mcfg, tcfg = ModelConfig(n_channels=128, variant="e", n_regions=8), TrainConfig(batch_size=32)
rng = np.random.default_rng(0)
x, y = rng.normal(size=(32, 128, 128)), rng.integers(0, 2, 32)
params, optimizer = init_model(mcfg, 0), _make_optimizer(tcfg)
faults = []
for _ in range(8):  # one epoch of one batch is one step
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    train_epoch(params, mcfg, tcfg, x, y, optimizer, rng)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps(faults))
"""


@pytest.mark.skipif(not hasattr(ctypes.CDLL(None), "mallopt"), reason="no glibc mallopt")
def test_worker_step_reuses_freed_memory_after_warm_up():
    # glibc's default policy unmaps or trims each step's freed 0.2-4 MB
    # blocks, and the next step faults them in again: 3800-6600 minor faults
    # in each of steps 4-8; kept in the process, they fault in only during
    # the warm-up steps
    faults = json.loads(_fresh_process(WORKER_STEP_FAULTS))
    assert max(faults[3:]) < 75, faults


def test_default_fold_workers(monkeypatch):
    assert tr.FOLD_WORKERS == min(tr.N_FOLDS, ad.usable_cpus())
    if ad.openblas() is not None:
        assert ad.usable_cpus() == len(os.sched_getaffinity(0))
    # without the BLAS thread setter, workers would oversubscribe the CPUs
    monkeypatch.setattr(ad, "openblas", lambda: None)
    assert ad.usable_cpus() == 1


def _multi_runs():
    """Runs that differ in variant and in seed, and so in partition."""
    return [
        (tiny_config("full"), tr.TrainConfig(seed=11, max_epochs=1, batch_size=16)),
        (tiny_config("a"), tr.TrainConfig(seed=12, max_epochs=1, batch_size=16)),
        (tiny_config("e"), tr.TrainConfig(seed=11, max_epochs=1, batch_size=16, lam=1e-3)),
    ]


@pytest.mark.parametrize("n_jobs", [1, 2])
def test_multi_run_cv_reports_each_run_as_a_single_run_call(n_jobs):
    ss = _toy_dataset(seed=10, n_per_class=6, seconds=12.0)
    runs = _multi_runs()
    reports = tr.ten_fold_cv(ss, runs, n_jobs=n_jobs)
    assert len(reports) == len(runs)
    assert reports[0].fold_subjects != reports[1].fold_subjects  # the seeds partition differently
    for run, report in zip(runs, reports):
        [single] = tr.ten_fold_cv(ss, [run], n_jobs=1)
        assert report.to_json_dict() == single.to_json_dict()


class _InlinePool:
    """A fold pool that records its size and runs its tasks in this process."""

    sizes = []

    def __init__(self, max_workers, initializer, initargs):
        self.sizes.append(max_workers)
        self.segset = initargs[0]

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return (tr._run_fold(self.segset, *task) for task in tasks)


def test_fold_pool_has_at_most_one_worker_per_fold(monkeypatch, tmp_path):
    monkeypatch.setattr(_InlinePool, "sizes", [])
    monkeypatch.setattr(tr, "ProcessPoolExecutor", _InlinePool)
    ss = _toy_dataset(seed=10, n_per_class=6, seconds=12.0)
    tcfg = tr.TrainConfig(seed=11, max_epochs=1, batch_size=16)
    tr.ten_fold_cv(ss, [(tiny_config(), tcfg)], n_jobs=64)
    assert _InlinePool.sizes == [tr.N_FOLDS]
    tr.ten_fold_cv(ss, [(tiny_config(), tcfg)], n_jobs=1)  # serial: no pool
    assert _InlinePool.sizes == [tr.N_FOLDS]
    # every fold of every run goes to one pool, of at most one worker per task
    runs = _multi_runs()
    for n_jobs in (64, 3):
        _InlinePool.sizes.clear()
        tr.ten_fold_cv(ss, runs, n_jobs=n_jobs)
        assert _InlinePool.sizes == [min(n_jobs, len(runs) * tr.N_FOLDS)]
    # and so does each fold command: ablation's six variants, sweep's values
    tiny = [
        "--synth", "--synth-subjects", "5", "--synth-seconds", "12", "--synth-fs", "32",
        "--n-channels", "4", "--feature-dim", "4", "--proj-dim", "4", "--out-dim", "3",
        "--n-regions", "2", "--epochs", "1", "--batch-size", "8", "--seed", "4",
    ]
    commands = [
        (["cv"], tr.N_FOLDS),
        (["ablation"], len(mdl.VARIANTS) * tr.N_FOLDS),
        (["sweep", "--param", "lambda", "--values", "1e-5,1e-3"], 2 * tr.N_FOLDS),
    ]
    for argv, n_tasks in commands:
        for n_jobs in (64, 3):
            _InlinePool.sizes.clear()
            out = str(tmp_path / f"{argv[0]}_{n_jobs}")
            assert cli.main([*argv, "--out", out, *tiny, "--folds-parallel", str(n_jobs)]) == 0
            assert _InlinePool.sizes == [min(n_jobs, n_tasks)], argv[0]
