"""End-to-end command-line tests on tiny synthetic problems."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from hybridgnn import autodiff as ad
from hybridgnn import data as dat
from hybridgnn.cli import DEFAULTS, MODEL_KEYS, _export_graphs, main, resolve_config, build_parser
from hybridgnn.graphs import common_adjacency
from hybridgnn.model import load_params
from hybridgnn.training import FOLD_WORKERS

from test_model import _rewrite_header, unchain_extractor

TINY_FLAGS = [
    "--synth", "--synth-subjects", "5", "--synth-seconds", "12", "--synth-fs", "32",
    "--n-channels", "4", "--feature-dim", "4", "--proj-dim", "4", "--out-dim", "3",
    "--n-regions", "2", "--epochs", "1", "--batch-size", "8",
]


def run(*argv):
    return main(list(argv))


def test_train_is_deterministic(tmp_path):
    out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
    for out in (out1, out2):
        assert run("train", "--out", out, "--seed", "3", *TINY_FLAGS) == 0
    log1 = open(os.path.join(out1, "training_log.txt"), "rb").read()
    log2 = open(os.path.join(out2, "training_log.txt"), "rb").read()
    assert log1 == log2
    p1 = open(os.path.join(out1, "params.bin"), "rb").read()
    p2 = open(os.path.join(out2, "params.bin"), "rb").read()
    assert p1 == p2


def test_train_variant_a_has_no_individualized_groups(tmp_path):
    out = str(tmp_path / "a")
    assert run("train", "--out", out, "--variant", "a", *TINY_FLAGS) == 0
    params, cfg = load_params(os.path.join(out, "params.bin"))
    names = list(params)
    assert cfg.variant == "a"
    assert not any(n.startswith(("ignn", "inst_adj", "pool_")) for n in names)


def test_missing_manifest_is_config_error(tmp_path, capsys):
    rc = run("train", "--out", str(tmp_path / "x"), "--manifest", "/no/such/manifest.json")
    assert rc == 2
    assert "/no/such/manifest.json" in capsys.readouterr().err


def test_manifest_entry_missing_key_exits_2(tmp_path, capsys):
    recs = dat.synth_generate(1, 12.0, n_channels=4, fs=32.0, seed=0)
    manifest = dat.save_dataset(recs, str(tmp_path / "data"))
    entries = json.load(open(manifest))
    del entries[1]["sampling_rate"]
    json.dump(entries, open(manifest, "w"))
    rc = run("train", "--out", str(tmp_path / "x"), "--manifest", manifest)
    assert rc == 2
    err = capsys.readouterr().err
    assert "entry 1" in err and "'sampling_rate'" in err and entries[1]["subject_id"] in err


def _tiny_manifest(tmp_path):
    """Manifest path and entries of two 4-channel synthetic recordings."""
    recs = dat.synth_generate(1, 12.0, n_channels=4, fs=32.0, seed=0)
    manifest = dat.save_dataset(recs, str(tmp_path / "data"))
    return manifest, json.load(open(manifest))


@pytest.mark.parametrize("key, value", [
    ("n_samples", "abc"),
    ("channels", 4),
    ("sampling_rate", "fast"),
    ("label", ["MDD"]),
    ("channels", "reversed"),
    ("sampling_rate", 64.0),
], ids=["n_samples-str", "channels-int", "sampling_rate-str", "label-list", "channels-reversed",
        "sampling_rate-other"])
def test_manifest_value_refused_naming_entry_and_key(tmp_path, capsys, key, value):
    # a wrong type, or channels or a sampling rate that differ from entry 0's
    manifest, entries = _tiny_manifest(tmp_path)
    entries[1][key] = entries[0]["channels"][::-1] if value == "reversed" else value
    json.dump(entries, open(manifest, "w"))
    with pytest.raises(dat.ManifestValueError):
        dat.load_dataset(manifest)
    assert run("train", "--out", str(tmp_path / "x"), "--manifest", manifest, *TINY_FLAGS) == 2
    err = capsys.readouterr().err
    assert manifest in err and "entry 1" in err and repr(key) in err
    assert repr(entries[1]["subject_id"]) in err


def test_batch_size_zero_exits_2(tmp_path, capsys):
    assert run("train", "--out", str(tmp_path / "x"), *TINY_FLAGS, "--batch-size", "0") == 2
    assert "batch_size must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()  # not even the config.json echo


V1_FIXTURE = os.path.join(os.path.dirname(__file__), "data", "params_v1_tiny_e.bin")
TOO_FEW_SUBJECTS = "need at least 10 subjects for 10-fold CV, have 4"


@pytest.mark.parametrize("argv, message", [
    (["train", "--epochs", "0"], "max_epochs must be >= 1"),
    (["train", "--epochs", "-1"], "max_epochs must be >= 1"),
    (["train", "--lr", "nan"], "learning_rate must be > 0 and finite"),
    (["train", "--lambda", "nan"], "lam must be >= 0 and finite"),
    (["cv", "--folds-parallel", "0"], "folds_parallel must be >= 1"),
    (["cv", "--folds-parallel", "-2"], "folds_parallel must be >= 1"),
    (["train", "--window-seconds", "0"], "window_s must be > 0"),
    (["train", "--window-seconds", "-1"], "window_s must be > 0"),
    (["train", "--window-seconds", "inf"], "window_s must be > 0 and finite"),
    (["train", "--window-seconds", "0.25"], "segment too short: layer 1"),
    (["eval", "--params", V1_FIXTURE, "--window-seconds", "0.25"], "segment too short: layer 1"),
    (["train", "--synth-fs", "0"], "all arguments must be positive"),
    (["train", "--synth-fs", "inf"], "all arguments must be positive and finite"),
    (["train", "--synth-seconds", "0"], "all arguments must be positive"),
    (["train", "--synth-subjects", "0"], "all arguments must be positive"),
    (["train", "--synth-seconds", "1e200", "--synth-fs", "1e200"], "need a finite count of at least 2"),
    (["synth", "--synth-seconds", "1e200", "--synth-fs", "1e200"], "need a finite count of at least 2"),
    (["train", "--synth-seconds", "1", "--synth-fs", "1"], "need a finite count of at least 2"),
    (["train", "--synth-seconds", "0.01", "--synth-fs", "32"], "need a finite count of at least 2"),
    (["cv", "--synth-subjects", "2"], TOO_FEW_SUBJECTS),
    (["ablation", "--synth-subjects", "2"], TOO_FEW_SUBJECTS),
    (["sweep", "--param", "lambda", "--values", "1e-5", "--synth-subjects", "2"], TOO_FEW_SUBJECTS),
    (["sweep", "--param", "n_regions", "--values", "2,9"], "n_regions must be in [1, n_channels]"),
    (["sweep", "--param", "lambda", "--values", "abc"], "--values"),
    (["train", "--overlap", "0.999"], "windows would repeat"),
    (["eval", "--params", V1_FIXTURE, "--overlap", "0.999"], "windows would repeat"),
    (["train", "--seed", "-1"], "seed must be >= 0, got -1"),
    (["synth", "--seed", "-3"], "seed must be >= 0, got -3"),
], ids=[
    "epochs-0", "epochs-neg", "lr-nan", "lambda-nan", "folds-parallel-0", "folds-parallel-neg",
    "window-0", "window-neg", "window-inf", "window-below-receptive-field",
    "eval-window-below-receptive-field", "synth-fs-0", "synth-fs-inf", "synth-seconds-0",
    "synth-subjects-0", "synth-size-overflow", "synth-command-size-overflow", "synth-1-sample",
    "synth-0-samples", "cv-4-subjects", "ablation-4-subjects", "sweep-4-subjects",
    "sweep-value-refused", "sweep-values-unparsable", "overlap-below-one-sample",
    "eval-overlap-below-one-sample", "seed-neg", "synth-seed-neg",
])
def test_refused_run_exits_2_and_writes_nothing(tmp_path, capsys, argv, message):
    # later flags win, so argv's settings override the TINY ones
    out = tmp_path / "refused"
    assert run(argv[0], "--out", str(out), *TINY_FLAGS, *argv[1:]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, flag, content", [
    ("train", "--manifest", "[\n"),
    ("train", "--manifest", b"\xff\xfe[]"),
    ("train", "--manifest", None),
    ("train", "--config", b'{"seed": "\xff"}'),
    ("train", "--config", None),
    ("eval", "--params", None),
    ("train", "--out", "kept\n"),
], ids=[
    "manifest-malformed-json", "manifest-not-utf8", "manifest-is-directory", "config-not-utf8",
    "config-is-directory", "params-is-directory", "out-is-a-file",
])
def test_unreadable_input_exits_2_naming_the_path(tmp_path, capsys, command, flag, content):
    # content None makes the path a directory
    path = tmp_path / "input"
    if content is None:
        path.mkdir()
    elif isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    manifest, _entries = _tiny_manifest(tmp_path)
    args = {"--out": str(tmp_path / "refused"), "--manifest": manifest, flag: str(path)}
    flags = TINY_FLAGS[TINY_FLAGS.index("--n-channels"):]
    assert main([command, *[a for pair in args.items() for a in pair], *flags]) == 2
    assert str(path) in capsys.readouterr().err
    assert not (tmp_path / "refused").exists()
    if flag == "--out":
        assert path.read_text() == "kept\n"


@pytest.mark.parametrize("command", ["train", "cv"])
def test_negative_seed_from_config_or_with_manifest_exits_2_and_writes_nothing(
    tmp_path, capsys, command
):
    # a seed from a config file, and with data that needs no seed to load
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"seed": -2}')
    manifest, _entries = _tiny_manifest(tmp_path)
    flags = TINY_FLAGS[TINY_FLAGS.index("--n-channels"):]
    out = tmp_path / "refused"
    assert main([command, "--out", str(out), "--manifest", manifest, "--config", str(cfg_path), *flags]) == 2
    assert "seed must be >= 0, got -2" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "cv", "eval"])
def test_non_finite_data_exits_2_and_writes_nothing(tmp_path, capsys, command):
    recs = dat.synth_generate(5, 12.0, n_channels=4, fs=32.0, seed=0)  # enough subjects for cv
    manifest = dat.save_dataset(recs, str(tmp_path / "data"))
    path = tmp_path / "data" / f"{recs[3].subject_id}.f64"
    signal = np.fromfile(path, "<f8").reshape(4, -1)
    signal[2, 100] = np.nan
    signal.tofile(path)
    out = tmp_path / "refused"
    flags = TINY_FLAGS[TINY_FLAGS.index("--n-channels"):]
    params = ["--params", V1_FIXTURE] if command == "eval" else []
    assert run(command, "--out", str(out), "--manifest", manifest, *params, *flags) == 2
    assert f"{path}: channel 'ch02' holds a non-finite sample (nan) at index 100" in capsys.readouterr().err
    assert not out.exists()


def test_more_regions_than_channels_exits_2(tmp_path, capsys):
    i = TINY_FLAGS.index("--n-regions")
    flags = TINY_FLAGS[:i] + TINY_FLAGS[i + 2 :]  # the default 5 regions on 4 channels
    assert run("train", "--out", str(tmp_path / "x"), *flags) == 2
    assert "n_regions must be in [1, n_channels]" in capsys.readouterr().err


def test_config_inst_softmax_axis_refused_exits_2_and_writes_nothing(tmp_path, capsys):
    cfg_path = str(tmp_path / "cfg.json")
    json.dump({"inst_softmax_axis": "diag"}, open(cfg_path, "w"))
    out = tmp_path / "refused"
    assert run("train", "--out", str(out), "--config", cfg_path, *TINY_FLAGS) == 2
    assert "inst_softmax_axis must be 'col' or 'row', got 'diag'" in capsys.readouterr().err
    assert not out.exists()


def test_config_value_of_wrong_type_exits_2(tmp_path, capsys):
    cfg_path = str(tmp_path / "cfg.json")
    json.dump({"lam": "abc"}, open(cfg_path, "w"))
    assert run("train", "--out", str(tmp_path / "x"), "--config", cfg_path, *TINY_FLAGS) == 2
    assert "'lam'" in capsys.readouterr().err


def test_n_channels_disagreeing_with_data_exits_2(tmp_path, capsys):
    manifest, _entries = _tiny_manifest(tmp_path)
    flags = TINY_FLAGS[TINY_FLAGS.index("--feature-dim"):]
    rc = run("train", "--out", str(tmp_path / "x"), "--manifest", manifest, "--n-channels", "5", *flags)
    assert rc == 2
    assert "the data has 4 channels, but n_channels is 5" in capsys.readouterr().err


def test_no_data_source_is_config_error(tmp_path):
    assert run("train", "--out", str(tmp_path / "x")) == 2


def test_cv_report_structure_and_defaults_echo(tmp_path):
    out = str(tmp_path / "cv")
    assert run("cv", "--out", out, "--seed", "1", *TINY_FLAGS) == 0
    report = json.load(open(os.path.join(out, "report.json")))
    assert len(report["folds"]) == 10
    assert all(len(f["test_subjects"]) == 1 for f in report["folds"])
    # package defaults mirror the published configuration
    echo = json.load(open(os.path.join(out, "config.json")))
    assert echo["lam"] == 1e-5 and echo["steps"] == 2 and echo["region_steps"] == 1
    assert echo["batch_size"] == 8  # the explicit flag wins over the default 128
    assert os.path.exists(os.path.join(out, "report.txt"))


def test_cv_byte_identical_reruns_and_parallel_equality(tmp_path):
    outs = [str(tmp_path / n) for n in ("s1", "s2", "par")]
    assert run("cv", "--out", outs[0], "--seed", "2", "--folds-parallel", "1", *TINY_FLAGS) == 0
    assert run("cv", "--out", outs[1], "--seed", "2", "--folds-parallel", "1", *TINY_FLAGS) == 0
    blob1 = open(os.path.join(outs[0], "report.json"), "rb").read()
    blob2 = open(os.path.join(outs[1], "report.json"), "rb").read()
    assert blob1 == blob2
    assert run("cv", "--out", outs[2], "--seed", "2", "--folds-parallel", "2", *TINY_FLAGS) == 0
    serial = json.load(open(os.path.join(outs[0], "report.json")))
    parallel = json.load(open(os.path.join(outs[2], "report.json")))
    assert serial["folds"] == parallel["folds"]
    assert serial["mean"] == parallel["mean"]


def test_cv_default_fold_pool_report_is_byte_identical_to_serial(tmp_path):
    outs = [str(tmp_path / n) for n in ("default", "serial")]
    assert run("cv", "--out", outs[0], "--seed", "5", *TINY_FLAGS) == 0
    assert run("cv", "--out", outs[1], "--seed", "5", "--folds-parallel", "1", *TINY_FLAGS) == 0
    blobs = [open(os.path.join(out, "report.json"), "rb").read() for out in outs]
    assert blobs[0] == blobs[1]
    echo = json.load(open(os.path.join(outs[0], "config.json")))
    assert echo["folds_parallel"] == DEFAULTS["folds_parallel"] == FOLD_WORKERS


def test_ablation_table_and_shared_partitions(tmp_path):
    out = str(tmp_path / "ab")
    assert run("ablation", "--out", out, "--seed", "4", *TINY_FLAGS) == 0
    table = open(os.path.join(out, "ablation.txt")).read().splitlines()
    assert len(table) == 7  # header + six variants
    assert table[1].split()[0] == "a" and table[6].split()[0] == "full"
    reports = json.load(open(os.path.join(out, "ablation.json")))
    assert sorted(reports) == ["a", "b", "c", "d", "e", "full"]
    partitions = {
        v: [f["test_subjects"] for f in rep["folds"]] for v, rep in reports.items()
    }
    baseline = partitions["a"]
    assert all(p == baseline for p in partitions.values())


def test_sweep_writes_csv(tmp_path):
    out = str(tmp_path / "sw")
    assert run(
        "sweep", "--out", out, "--seed", "5", "--param", "n_regions", "--values", "2,3",
        *TINY_FLAGS,
    ) == 0
    rows = open(os.path.join(out, "sweep.csv")).read().splitlines()
    assert rows[0] == "n_regions,mean_acc,std_acc"
    assert len(rows) == 3
    out2 = str(tmp_path / "sw2")
    assert run(
        "sweep", "--out", out2, "--seed", "5", "--param", "n_regions", "--values", "2,3",
        *TINY_FLAGS,
    ) == 0
    assert open(os.path.join(out, "sweep.csv")).read() == open(
        os.path.join(out2, "sweep.csv")
    ).read()


def test_eval_roundtrip_and_graph_export(tmp_path):
    train_out = str(tmp_path / "tr")
    assert run("train", "--out", train_out, "--seed", "6", *TINY_FLAGS) == 0
    eval_out = str(tmp_path / "ev")
    assert run(
        "eval", "--out", eval_out, "--params", os.path.join(train_out, "params.bin"),
        "--seed", "6", "--export-graphs", *TINY_FLAGS,
    ) == 0
    train_metrics = json.load(open(os.path.join(train_out, "train_metrics.json")))
    eval_metrics = json.load(open(os.path.join(eval_out, "metrics.json")))
    assert train_metrics == eval_metrics
    graphs = os.path.join(eval_out, "graphs")
    assigns = sorted(f for f in os.listdir(graphs) if "assign" in f)
    assert assigns
    for name in assigns[:5]:
        mat = np.loadtxt(os.path.join(graphs, name))
        np.testing.assert_allclose(mat.sum(axis=1), 1.0, atol=1e-9)
    common = np.loadtxt(os.path.join(graphs, "common_adj.txt"))
    assert common.shape == (4, 4) and common.min() >= 0.0


def test_graph_export_bytes_match_row_by_row_savetxt(tmp_path):
    special = [-1.5, 1e-300, 5e-324, -2.5e-310, 1e300, -1.7976931348623157e308, np.nan, -0.0, 0.0]
    rng = np.random.default_rng(0)
    adj = rng.normal(size=(2, 3, 3))
    adj.flat[: len(special)] = special
    assign = rng.normal(scale=1e-12, size=(2, 3, 2))
    assign[1, 0] = [np.nan, -1e200]
    _export_graphs(str(tmp_path), 7, {"adj_inst": adj, "assign": [assign]})
    for name, stack in (("adj_inst", adj), ("assign_0", assign)):
        for offset, matrix in enumerate(stack):
            path = tmp_path / f"sample_{7 + offset:05d}_{name}.txt"
            np.savetxt(tmp_path / "reference.txt", matrix, fmt="%.18e")
            assert path.read_bytes() == (tmp_path / "reference.txt").read_bytes()
    # eval writes the common adjacency with the same writer
    fixture = os.path.join(os.path.dirname(__file__), "data", "params_v1_tiny_e.bin")
    eval_out = tmp_path / "ev"
    assert run("eval", "--out", str(eval_out), "--params", fixture, "--export-graphs", *TINY_FLAGS) == 0
    params, _cfg = load_params(fixture)
    np.savetxt(tmp_path / "reference.txt", common_adjacency(params["common_adj.raw"]).value, fmt="%.18e")
    common = eval_out / "graphs" / "common_adj.txt"
    assert common.read_bytes() == (tmp_path / "reference.txt").read_bytes()


def test_export_rerun_leaves_no_file_of_the_earlier_export(tmp_path):
    # variant e exports a common adjacency and, for each of 90 windows at 75 %
    # overlap, an adjacency and two assignments; variant b, rerun into the
    # same directory without overlap, exports one adjacency for each of 30
    fixture = os.path.join(os.path.dirname(__file__), "data", "params_v1_tiny_e.bin")
    assert run("train", "--out", str(tmp_path / "b"), "--variant", "b", *TINY_FLAGS) == 0
    params_b = str(tmp_path / "b" / "params.bin")
    out, fresh = tmp_path / "ev", tmp_path / "fresh"
    assert run("eval", "--out", str(out), "--params", fixture, "--overlap", "0.75",
               "--export-graphs", *TINY_FLAGS) == 0
    (out / "graphs" / "notes.txt").write_text("not the export's")
    for target in (out, fresh):
        assert run("eval", "--out", str(target), "--params", params_b, "--overlap", "0",
                   "--export-graphs", *TINY_FLAGS) == 0
    written = sorted(os.listdir(fresh / "graphs"))
    assert len(written) == 30 and "common_adj.txt" not in written
    assert sorted(os.listdir(out / "graphs")) == sorted(written + ["notes.txt"])
    for name in written:
        assert (out / "graphs" / name).read_bytes() == (fresh / "graphs" / name).read_bytes()
    assert (out / "graphs" / "notes.txt").read_text() == "not the export's"


def test_eval_echoes_the_model_of_its_parameter_file(tmp_path):
    # the fixture is a 4-channel variant-e model with feature_dim 4: the echo
    # names it, not the flags' variant or the defaults' 19 channels and 32
    # features, and still runs as --config, with --params left out of it
    synth = ["--synth", "--synth-subjects", "5", "--synth-seconds", "12", "--synth-fs", "32"]
    out, again = tmp_path / "ev", tmp_path / "again"
    assert run("eval", "--out", str(out), "--params", V1_FIXTURE, "--variant", "a", *synth) == 0
    echo = json.load(open(out / "config.json"))
    _params, mcfg = load_params(V1_FIXTURE)
    assert {k: echo[k] for k in MODEL_KEYS} == {k: getattr(mcfg, k) for k in MODEL_KEYS}
    assert (echo["variant"], echo["n_channels"], echo["feature_dim"]) == ("e", 4, 4)
    assert "params" not in echo
    assert run("eval", "--out", str(again), "--params", V1_FIXTURE, "--config", str(out / "config.json")) == 0
    for name in ("config.json", "metrics.json"):
        assert (again / name).read_bytes() == (out / name).read_bytes()


def test_eval_refuses_params_with_trailing_bytes(tmp_path, capsys):
    fixture = os.path.join(os.path.dirname(__file__), "data", "params_v1_tiny_e.bin")
    path = str(tmp_path / "params.bin")
    with open(path, "wb") as fh:
        fh.write(open(fixture, "rb").read() + bytes(24))
    assert run("eval", "--out", str(tmp_path / "ev"), "--params", path, *TINY_FLAGS) == 2
    assert "trailing bytes" in capsys.readouterr().err


def test_eval_refuses_params_with_unchained_extractor(tmp_path, capsys):
    fixture = os.path.join(os.path.dirname(__file__), "data", "params_v1_tiny_e.bin")
    path = str(tmp_path / "params.bin")
    with open(path, "wb") as fh:
        fh.write(open(fixture, "rb").read())
    _rewrite_header(path, lambda h: unchain_extractor(h, 1, (6, 2, 4, 4)))
    assert run("eval", "--out", str(tmp_path / "ev"), "--params", path, *TINY_FLAGS) == 2
    assert "does not chain" in capsys.readouterr().err


def test_synth_command_writes_loadable_manifest(tmp_path):
    out = str(tmp_path / "ds")
    assert run(
        "synth", "--out", out, "--seed", "7", "--synth-subjects", "3",
        "--synth-seconds", "8", "--synth-fs", "32", "--n-channels", "4",
    ) == 0
    recs = dat.load_dataset(os.path.join(out, "manifest.json"))
    assert len(recs) == 6
    assert {r.label for r in recs} == {"HC", "MDD"}


# `train` in a fresh process on one CPU (argv[1] "1") or on every CPU: its
# batches of 3 19-electrode windows span one chunk of conv blocks, so the
# conv starts no thread pool
TRAIN_ON_CPUS = """
import os, sys
if sys.argv[1] == "1":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from hybridgnn.cli import main
sys.exit(main(["train", "--manifest", sys.argv[2], "--out", sys.argv[3], "--epochs", "1", "--batch-size", "3"]))
"""


@pytest.mark.skipif(ad.openblas() is None or ad.usable_cpus() < 2, reason="needs OpenBLAS and 2 CPUs")
def test_train_writes_the_same_params_on_one_cpu_and_on_every_cpu(tmp_path):
    manifest = dat.save_dataset(dat.synth_generate(2, 16.0, seed=0), str(tmp_path / "data"))
    src = os.path.dirname(os.path.dirname(os.path.abspath(ad.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    blobs = []
    for cpus in ("1", "all"):
        out = str(tmp_path / cpus)
        subprocess.run([sys.executable, "-c", TRAIN_ON_CPUS, cpus, manifest, out], env=env,
                       capture_output=True, timeout=300, check=True)
        with open(os.path.join(out, "params.bin"), "rb") as fh:
            blobs.append(fh.read())
    assert blobs[0] == blobs[1]


COMMAND_ARGV = {
    "train": [], "cv": [], "ablation": [], "sweep": ["--param", "lambda"],
    "eval": ["--params", V1_FIXTURE], "synth": [],
}


def test_folds_parallel_is_echoed_only_by_the_fold_commands(tmp_path):
    # train, eval and synth run no folds, so their echo leaves out the
    # CPU-count default; a config file that holds the key is still accepted
    cfg_path = str(tmp_path / "cfg.json")
    json.dump({"folds_parallel": 1}, open(cfg_path, "w"))
    for command, extra in COMMAND_ARGV.items():
        for config in ([], ["--config", cfg_path]):
            args = build_parser().parse_args([command, "--out", "unused", *extra, *config])
            cfg = resolve_config(args)
            if command in ("cv", "ablation", "sweep"):
                assert cfg["folds_parallel"] == (1 if config else FOLD_WORKERS)
            else:
                assert "folds_parallel" not in cfg, command
    train_out, eval_out = str(tmp_path / "tr"), str(tmp_path / "ev")
    assert run("train", "--out", train_out, "--config", cfg_path, *TINY_FLAGS) == 0
    assert run("eval", "--out", eval_out, "--config", cfg_path, *TINY_FLAGS,
               "--params", os.path.join(train_out, "params.bin")) == 0
    for out in (train_out, eval_out):
        assert "folds_parallel" not in json.load(open(os.path.join(out, "config.json")))


@pytest.mark.parametrize("command", ["cv", "ablation", "sweep"])
def test_help_of_each_fold_command_describes_folds_parallel(command, capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args([command, "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert ("--folds-parallel FOLDS_PARALLEL run folds in this many worker processes; "
            f"1 runs them serially (default here: {FOLD_WORKERS})") in text


def test_eval_refuses_params_whose_header_was_edited(tmp_path, capsys):
    train_out = str(tmp_path / "tr")
    assert run("train", "--out", train_out, "--seed", "8", *TINY_FLAGS) == 0
    path = os.path.join(train_out, "params.bin")
    _rewrite_header(path, lambda h: h["config"].update(inst_softmax_axis="row"), seal=False)
    assert run("eval", "--out", str(tmp_path / "ev"), "--params", path, *TINY_FLAGS) == 2
    assert "CRC-32 mismatch" in capsys.readouterr().err
    assert not (tmp_path / "ev").exists()


def test_config_file_and_flag_precedence(tmp_path):
    cfg_path = str(tmp_path / "cfg.json")
    json.dump({"seed": 11, "max_epochs": 2, "n_regions": 3}, open(cfg_path, "w"))
    args = build_parser().parse_args(
        ["cv", "--out", "unused", "--config", cfg_path, "--n-regions", "4"]
    )
    cfg = resolve_config(args)
    assert cfg["seed"] == 11  # from file
    assert cfg["max_epochs"] == 2  # from file
    assert cfg["n_regions"] == 4  # flag wins
    assert cfg["batch_size"] == 128  # default


def test_preset_supplies_published_hyperparameters():
    args = build_parser().parse_args(["cv", "--out", "unused", "--preset", "modma"])
    cfg = resolve_config(args)
    assert cfg["learning_rate"] == 0.09 and cfg["max_epochs"] == 100
    assert cfg["n_regions"] == 5 and cfg["overlap"] == 0.75 and cfg["optimizer"] == "sgd"
    args = build_parser().parse_args(["cv", "--out", "unused", "--preset", "husm"])
    cfg = resolve_config(args)
    assert cfg["learning_rate"] == 0.001 and cfg["max_epochs"] == 60
    assert cfg["n_regions"] == 4 and cfg["overlap"] == 0.0
    # flags still beat the preset
    args = build_parser().parse_args(
        ["cv", "--out", "unused", "--preset", "modma", "--epochs", "3"]
    )
    assert resolve_config(args)["max_epochs"] == 3


def test_unknown_config_key_rejected(tmp_path):
    cfg_path = str(tmp_path / "bad.json")
    json.dump({"momentum": 0.9}, open(cfg_path, "w"))
    assert run("cv", "--out", str(tmp_path / "o"), "--config", cfg_path, *TINY_FLAGS) == 2


def test_default_sweep_grids_match_published_ranges():
    from hybridgnn.cli import SWEEP_GRIDS

    assert SWEEP_GRIDS["n_regions"] == [2, 3, 4, 5, 6, 7, 8]
    assert SWEEP_GRIDS["lambda"] == [1e-7, 1e-6, 1e-5, 1e-4, 1e-3]


def test_sweep_default_region_grid_produces_seven_rows(tmp_path):
    out = str(tmp_path / "grid")
    rc = main([
        "sweep", "--out", out, "--seed", "8", "--param", "n_regions",
        "--synth", "--synth-subjects", "5", "--synth-seconds", "12", "--synth-fs", "32",
        "--n-channels", "8", "--feature-dim", "4", "--proj-dim", "4", "--out-dim", "3",
        "--epochs", "1", "--batch-size", "8",
    ])
    assert rc == 0
    rows = open(os.path.join(out, "sweep.csv")).read().splitlines()
    assert len(rows) == 8 and rows[0] == "n_regions,mean_acc,std_acc"
    assert [r.split(",")[0] for r in rows[1:]] == ["2", "3", "4", "5", "6", "7", "8"]
