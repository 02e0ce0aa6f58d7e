"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The heavyweight end-to-end criteria (7, 8, 9) train real models and dominate
the runtime of the whole test suite; everything else is seconds.
"""

import json
import os
import time

import numpy as np
import pytest

from hybridgnn import autodiff as ad
from hybridgnn import data as dat
from hybridgnn import gcn
from hybridgnn import model as mdl
from hybridgnn import pooling as pl
from hybridgnn import training as tr
from hybridgnn.cli import main as cli_main
from hybridgnn.extractor import extract_features
from hybridgnn.graphs import individual_adjacency, normalize_adjacency
from hybridgnn.rng import substream

from test_extractor import extractor_of

TINY = mdl.ModelConfig(
    n_channels=4, feature_dim=4, proj_dim=4, out_dim=3, steps=2, region_steps=1,
    n_regions=2, variant="full", extractor_layers=((5, 2, 1, 8), (3, 2, 8, 4)),
)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def test_criterion_01_full_model_gradient_integrity():
    # eps = 1e-4 balances central-difference truncation against cancellation
    # for this objective; the relu-kink margin is rechecked per draw
    eps = 1e-4
    started = time.monotonic()
    worst = 0.0
    for seed in range(10):
        params = mdl.init_model(TINY, seed=seed)
        groups = {}
        for i, name in enumerate(params):
            groups.setdefault(name.split(".")[0], []).append(i)
        arrays = [node.value.copy() for node in params.values()]

        # resample the probe segment away from relu kinks
        data_rng = substream(seed, "gradcheck-data")
        for _attempt in range(20):
            seg = data_rng.normal(size=(1, 4, 32))

            def f(leaves):
                probs, diag = mdl.forward_batch(seg, mdl.bind_params(TINY, leaves), TINY)
                return tr.batch_loss(probs, np.array([1]), diag["assign"], lam=1e-3)

            root = f([ad.param(a) for a in arrays])
            if ad.kink_margin(root) >= 10 * eps:
                break

        for group, indices in groups.items():
            fixed = [ad.constant(a) for a in arrays]

            def f_group(leaves, indices=indices):
                nodes = list(fixed)
                for leaf, i in zip(leaves, indices):
                    nodes[i] = leaf
                probs, diag = mdl.forward_batch(seg, mdl.bind_params(TINY, nodes), TINY)
                return tr.batch_loss(probs, np.array([1]), diag["assign"], lam=1e-3)

            err = ad.gradient_check(f_group, [arrays[i] for i in indices], eps=eps)
            worst = max(worst, err)
            assert err < 1e-4, f"seed {seed} group {group}: rel err {err}"
    elapsed = time.monotonic() - started
    _report(
        1, worst < 1e-4 and elapsed < 60,
        f"gradient integrity, worst rel err {worst:.2e} over 10 seeds x 8 groups "
        f"in {elapsed:.1f}s",
    )


def test_criterion_02_propagation_matches_power_oracle():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        steps = int(rng.integers(0, 5))
        a = rng.uniform(0, 1, size=(n, n))
        tilde = a + np.eye(n)
        deg = tilde.sum(axis=1)
        a_hat = tilde / np.sqrt(np.outer(deg, deg))
        x = rng.normal(size=(n, 3))
        ws = [rng.normal(size=(3, 2)) for _ in range(steps + 1)]
        oracle = sum(np.linalg.matrix_power(a_hat, l) @ x @ w for l, w in enumerate(ws))
        out = gcn.gcn_propagate(
            ad.constant(a_hat), ad.constant(x), [ad.constant(w) for w in ws]
        ).value
        worst = max(worst, float(np.abs(out - oracle).max()))
    _report(2, worst < 1e-10, f"incremental vs matrix-power oracle, max dev {worst:.2e}")


def test_criterion_03_pooling_matches_triple_product_oracle():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(100):
        n, n_r = int(rng.integers(2, 9)), int(rng.integers(1, 5))
        assign = rng.dirichlet(np.ones(n_r), size=n)
        adj = rng.uniform(0, 1, size=(n, n))
        feats = rng.normal(size=(n, 3))
        a_r, x_r = pl.pool(ad.constant(assign), ad.constant(adj), ad.constant(feats))
        oracle_a = np.einsum("ia,ij,jb->ab", assign, adj, assign)
        oracle_x = np.einsum("ia,if->af", assign, feats)
        worst = max(worst, float(np.abs(a_r.value - oracle_a).max()))
        worst = max(worst, float(np.abs(x_r.value - oracle_x).max()))
    _report(3, worst < 1e-12, f"coarsening vs dense oracle, max dev {worst:.2e}")


def test_criterion_04_stochasticity_invariants():
    rng = np.random.default_rng(4)
    worst_col = 0.0
    for _ in range(1000):
        n, f, m = int(rng.integers(2, 8)), int(rng.integers(1, 5)), int(rng.integers(1, 5))
        feats = ad.constant(rng.normal(size=(n, f)))
        w1 = ad.constant(rng.normal(size=(f, m)))
        w2 = ad.constant(rng.normal(size=(f, m)))
        adj = individual_adjacency(feats, w1, w2).value
        worst_col = max(worst_col, float(np.abs(adj.sum(axis=0) - 1).max()))
    worst_row = 0.0
    for _ in range(1000):
        n, f, n_r = int(rng.integers(2, 8)), int(rng.integers(1, 5)), int(rng.integers(1, 4))
        a_hat = ad.constant(np.eye(n))
        feats = ad.constant(rng.normal(size=(n, f)))
        proj = ad.constant(rng.normal(size=(f, n_r)))
        assign = pl.assignment_matrix(a_hat, feats, proj).value
        worst_row = max(worst_row, float(np.abs(assign.sum(axis=1) - 1).max()))
    ok = worst_col < 1e-12 and worst_row < 1e-12
    _report(
        4, ok,
        f"adjacency column sums dev {worst_col:.2e}, assignment row sums dev {worst_row:.2e} "
        f"(1000 inputs each)",
    )


def test_criterion_05_hand_computed_similarity_case():
    feats = ad.constant(np.array([[1.0], [2.0]]))
    w = ad.constant(np.array([[1.0]]))
    adj = individual_adjacency(feats, w, w).value
    expected = np.array([[0.2689, 0.1192], [0.7311, 0.8808]])
    dev = float(np.abs(adj - expected).max())
    _report(5, dev < 1e-3, f"two-node bilinear similarity case, max dev {dev:.2e}")


def _ignn_gpum_pipeline(n_channels=6):
    """Standalone individualized branch with pooling and a node-mean head."""
    cfg = dict(f=4, m=3, d=3, n_r=2)
    ex_cfg = mdl.ModelConfig(
        n_channels=n_channels, feature_dim=cfg["f"], n_regions=cfg["n_r"],
        extractor_layers=((5, 2, 1, 8), (3, 2, 8, cfg["f"])),
    )
    extractor = extractor_of(mdl.init_model(ex_cfg, 60), ex_cfg.extractor_layers)
    gen = substream(60, "w")
    w1 = ad.param(gen.normal(size=(cfg["f"], cfg["m"])))
    w2 = ad.param(gen.normal(size=(cfg["f"], cfg["m"])))
    weights = [ad.param(gen.normal(size=(cfg["f"], cfg["d"]))) for _ in range(3)]
    proj = ad.param(gen.normal(size=(cfg["f"], cfg["n_r"])))
    region = [ad.param(gen.normal(size=(cfg["f"], cfg["d"]))) for _ in range(2)]
    head_w = ad.param(gen.normal(size=(cfg["d"], 2)))
    head_b = ad.param(gen.normal(size=(2,)))

    def run(segment):
        feats = extract_features(segment[None], extractor)
        adj = individual_adjacency(feats, w1, w2)
        adj_hat = normalize_adjacency(adj)
        y = gcn.gcn_propagate(adj_hat, feats, weights)
        assign = pl.assignment_matrix(adj_hat, feats, proj)
        a_r, x_r = pl.pool(assign, adj, feats)
        y_prime = ad.add(y, pl.unpool(assign, pl.region_conv(a_r, x_r, region)))
        pooled = ad.mean(ad.relu(y_prime), axis=-2)
        probs = ad.softmax(ad.add(ad.matmul(pooled, head_w), head_b), axis=-1)
        return y_prime.value[0], probs.value[0]

    return run


def test_criterion_06_permutation_equivariance_and_invariance():
    rng = np.random.default_rng(6)
    run = _ignn_gpum_pipeline()
    seg = rng.normal(size=(6, 64))
    y_base, probs_base = run(seg)
    worst_eq = worst_inv = 0.0
    for _ in range(50):
        perm = rng.permutation(6)
        y_perm, probs_perm = run(seg[perm])
        worst_eq = max(worst_eq, float(np.abs(y_perm - y_base[perm]).max()))
        worst_inv = max(worst_inv, float(np.abs(probs_perm - probs_base).max()))
    ok = worst_eq < 1e-10 and worst_inv < 1e-10
    _report(
        6, ok,
        f"pooled-branch equivariance dev {worst_eq:.2e}, "
        f"class-prob invariance dev {worst_inv:.2e} over 50 permutations",
    )


@pytest.mark.slow
def test_criterion_07_entropy_regularizer_effect():
    recs = dat.synth_generate(20, 60.0, n_channels=19, fs=64.0, seed=700)
    segs = dat.build_segments(recs, 4.0, 0.0)
    mcfg = mdl.ModelConfig()
    gaps = []
    for seed in range(5):
        entropies = {}
        for lam in (1e-3, 0.0):
            tcfg = tr.TrainConfig(seed=seed, max_epochs=20, lam=lam)
            params, _ = tr.train_model(segs.x, segs.y, mcfg, tcfg)
            entropies[lam] = tr.mean_assignment_entropy(params, mcfg, segs.x)
        gaps.append(entropies[0.0] - entropies[1e-3])
    median_gap = float(np.median(gaps))
    _report(
        7, median_gap > 0.0,
        f"median assignment-entropy drop with regularization {median_gap:.4f} "
        f"(per-seed drops {['%.4f' % g for g in gaps]})",
    )


@pytest.mark.slow
def test_criterion_08_synthetic_benchmark():
    started = time.monotonic()
    recs = dat.synth_generate(20, 60.0, n_channels=19, fs=256.0, seed=0)
    segs = dat.build_segments(recs, 4.0, 0.0)
    assert segs.x.shape == (600, 19, 1024)
    report = tr.ten_fold_cv(segs, mdl.ModelConfig(), tr.TrainConfig(seed=0))
    elapsed = time.monotonic() - started
    assert all(len(subjects) == 4 for subjects in report.fold_subjects)
    ok = report.mean["acc"] >= 0.90 and report.mean["f1"] >= 0.90 and elapsed <= 900
    _report(
        8, ok,
        f"synthetic ten-fold benchmark ACC {report.mean['acc']:.4f}, "
        f"F1 {report.mean['f1']:.4f} in {elapsed / 60:.1f} min",
    )


@pytest.mark.slow
def test_criterion_09_ablation_ordering():
    recs = dat.synth_generate(10, 30.0, n_channels=19, fs=64.0, seed=900)
    segs = dat.build_segments(recs, 4.0, 0.0)
    medians = {}
    for variant in ("full", "a", "b"):
        accs = []
        for seed in range(3):
            mcfg = mdl.ModelConfig(variant=variant)
            tcfg = tr.TrainConfig(seed=seed, max_epochs=10, batch_size=32)
            accs.append(tr.ten_fold_cv(segs, mcfg, tcfg).mean["acc"])
        medians[variant] = float(np.median(accs))
    ok = medians["full"] >= medians["a"] and medians["full"] >= medians["b"]
    _report(
        9, ok,
        "median mean-ACC full=%.4f a=%.4f b=%.4f" % (medians["full"], medians["a"], medians["b"]),
    )


def test_criterion_10_cv_determinism(tmp_path):
    flags = [
        "--synth", "--synth-subjects", "5", "--synth-seconds", "12", "--synth-fs", "32",
        "--n-channels", "4", "--feature-dim", "4", "--proj-dim", "4", "--out-dim", "3",
        "--n-regions", "2", "--epochs", "2", "--batch-size", "8", "--seed", "10",
    ]
    outs = [str(tmp_path / n) for n in ("a", "b", "par")]
    assert cli_main(["cv", "--out", outs[0], *flags]) == 0
    assert cli_main(["cv", "--out", outs[1], *flags]) == 0
    blobs = [open(os.path.join(o, "report.json"), "rb").read() for o in outs[:2]]
    byte_identical = blobs[0] == blobs[1]
    assert cli_main(["cv", "--out", outs[2], "--folds-parallel", "4", *flags]) == 0
    serial = json.loads(blobs[0])
    parallel = json.load(open(os.path.join(outs[2], "report.json")))
    parallel_equal = serial["folds"] == parallel["folds"] and serial["mean"] == parallel["mean"]
    _report(
        10, byte_identical and parallel_equal,
        f"rerun byte-identical={byte_identical}, parallel metrics identical={parallel_equal}",
    )


def test_criterion_11_segmentation_counts():
    rec = dat.Recording("s", "HC", 100.0, np.zeros((2, 30000)), ["a", "b"])
    counts = (
        len(dat.segment_recording(rec, 4.0, 0.75)),
        len(dat.segment_recording(rec, 4.0, 0.0)),
    )
    _report(11, counts == (297, 75), f"300s -> {counts[0]} segments at 75%, {counts[1]} at 0%")


def _write_corpus_like_manifest(tmp_path, flavor: str) -> str:
    rng_seed = 120 if flavor == "modma" else 121
    recs = []
    if flavor == "modma":
        base = dat.synth_generate(6, 10.0, n_channels=19, fs=64.0, seed=rng_seed)
        recs = base[:11]  # 11 subjects, one recording each
    else:
        base = dat.synth_generate(5, 8.0, n_channels=19, fs=64.0, seed=rng_seed)
        for rec in base:  # two sessions per subject, merged at CV time
            for session in ("EC", "EO"):
                copy = dat.Recording(
                    rec.subject_id, rec.label, rec.sampling_rate,
                    rec.signal.copy(), list(rec.channel_names), session=session,
                )
                recs.append(copy)
    out = str(tmp_path / flavor)
    return dat.save_dataset(recs, out)


def test_criterion_12_corpus_shaped_reports(tmp_path):
    ok = True
    details = []
    for flavor, expected in (("modma", (0.09, 100, 5, 0.75)), ("husm", (0.001, 60, 4, 0.0))):
        manifest = _write_corpus_like_manifest(tmp_path, flavor)
        out = str(tmp_path / f"{flavor}-cv")
        rc = cli_main([
            "cv", "--out", out, "--preset", flavor, "--manifest", manifest,
            "--epochs", "1",  # structural check only; preset epochs stay in the echo contract
        ])
        ok &= rc == 0
        echo = json.load(open(os.path.join(out, "config.json")))
        lr, _epochs, n_regions, overlap = expected
        ok &= echo["learning_rate"] == lr and echo["n_regions"] == n_regions
        ok &= echo["overlap"] == overlap and echo["preset"] == flavor
        report = json.load(open(os.path.join(out, "report.json")))
        ok &= len(report["folds"]) == 10
        ok &= all(
            {"acc", "rec", "pre", "f1", "tp", "fp", "fn", "tn"} <= set(f) for f in report["folds"]
        )
        ok &= {"acc", "rec", "pre", "f1"} <= set(report["mean"])
        details.append(f"{flavor} cv rows 10")
        # preset epochs are selectable via config (no flag override)
        from hybridgnn.cli import build_parser, resolve_config

        args = build_parser().parse_args(["cv", "--out", "unused", "--preset", flavor])
        ok &= resolve_config(args)["max_epochs"] == expected[1]

    # ablation report shape on the husm-style corpus
    manifest = _write_corpus_like_manifest(tmp_path / "ab", "husm")
    out = str(tmp_path / "husm-ablation")
    rc = cli_main([
        "ablation", "--out", out, "--preset", "husm", "--manifest", manifest, "--epochs", "1",
    ])
    ok &= rc == 0
    table = open(os.path.join(out, "ablation.txt")).read().splitlines()
    ok &= len(table) == 7 and table[0].split() == ["variant", "ACC", "REC", "PRE", "F1"]
    details.append("husm ablation rows 6")
    _report(12, ok, "; ".join(details))
