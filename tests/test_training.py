"""Objective, metrics, optimizers, and cross-validation behavior."""

import math
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import numpy.testing as npt
import pytest

from hybridgnn import autodiff as ad
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
    report = tr.ten_fold_cv(ss, cfg, tcfg)
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
    report = tr.ten_fold_cv(ss, cfg, tcfg)
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
        max_workers=1, initializer=tr._worker_init, initargs=(None, None, None)
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
        max_workers=1, initializer=tr._worker_init, initargs=(None, None, None)
    ) as pool:
        assert pool.submit(_conv_in_worker, None).result() == (1, [])


def test_default_fold_workers(monkeypatch):
    assert tr.FOLD_WORKERS == min(tr.N_FOLDS, ad.usable_cpus())
    if ad.openblas() is not None:
        assert ad.usable_cpus() == len(os.sched_getaffinity(0))
    # without the BLAS thread setter, workers would oversubscribe the CPUs
    monkeypatch.setattr(ad, "openblas", lambda: None)
    assert ad.usable_cpus() == 1


class _PoolStarted(Exception):
    pass


def test_fold_pool_has_at_most_one_worker_per_fold(monkeypatch):
    requested = []

    def spy(max_workers, **_kwargs):
        requested.append(max_workers)
        raise _PoolStarted

    monkeypatch.setattr(tr, "ProcessPoolExecutor", spy)
    ss = _toy_dataset(seed=10, n_per_class=6, seconds=12.0)
    tcfg = tr.TrainConfig(seed=11, max_epochs=1, batch_size=16)
    with pytest.raises(_PoolStarted):
        tr.ten_fold_cv(ss, tiny_config(), tcfg, n_jobs=64)
    assert requested == [tr.N_FOLDS]
    tr.ten_fold_cv(ss, tiny_config(), tcfg, n_jobs=1)  # serial: no pool
    assert requested == [tr.N_FOLDS]
