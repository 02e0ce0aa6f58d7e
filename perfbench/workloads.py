"""The benchmark's workloads: their inputs, command lines and output checks.

Every input is a synthetic recording set from `synth_generate`, written to
disk with `save_dataset` (and, for `eval`, a parameter file written with
`save_params`), all derived from the run's seed. The program then receives
only the manifest, the parameter file and its argv. Why each workload exists
is recorded in BENCHMARK.json and NOTES.md.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from hybridgnn.data import build_segments, load_dataset, save_dataset, synth_generate
from hybridgnn.model import ModelConfig, init_model, load_params, save_params
from hybridgnn.training import evaluate

SUM_TOLERANCE = 1e-9  # exported assignment rows and adj_inst columns sum to 1
MIN_TRAIN_ACC = 0.9


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "train", "cv" or "export"
    per_class: int  # synthetic subjects per class, one recording each
    seconds: float  # recording length
    channels: int
    fs: float
    window_s: float
    overlap: float
    argv: tuple  # "{manifest}", "{params}" and "{out}" are filled in per run
    epochs: int = 0
    reference: str | None = None  # workload whose report this one must reproduce
    warmup: int = 0  # untimed commands before the timed ones (checked, not reported)

    def command(self, inputs: dict, out: str) -> list:
        fields = {**inputs, "out": out, "epochs": str(self.epochs)}
        return [arg.format(**fields) for arg in self.argv]


_CV_ARGV = (
    "cv", "--manifest", "{manifest}", "--out", "{out}", "--n-channels", "128",
    "--window-seconds", "1", "--variant", "e", "--batch-size", "32",
    "--n-regions", "8", "--epochs", "{epochs}",
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "train_t1024", "train", per_class=4, seconds=64.0, channels=19, fs=256.0,
            window_s=4.0, overlap=0.0, epochs=30,
            argv=("train", "--manifest", "{manifest}", "--out", "{out}",
                  "--window-seconds", "4", "--epochs", "{epochs}", "--batch-size", "128",
                  "--variant", "full", "--optimizer", "adam"),
        ),
        Workload(
            "cv_hd128", "cv", per_class=5, seconds=6.0, channels=128, fs=128.0,
            window_s=1.0, overlap=0.0, epochs=1, argv=_CV_ARGV, warmup=1,
        ),
        Workload(
            "cv_hd128_par2", "cv", per_class=5, seconds=6.0, channels=128, fs=128.0,
            window_s=1.0, overlap=0.0, epochs=1, argv=_CV_ARGV + ("--folds-parallel", "2"),
            reference="cv_hd128",
        ),
        Workload(
            "export_ov75", "export", per_class=10, seconds=33.0, channels=19, fs=256.0,
            window_s=4.0, overlap=0.75, warmup=1,
            argv=("eval", "--params", "{params}", "--manifest", "{manifest}", "--out", "{out}",
                  "--overlap", "0.75", "--export-graphs"),
        ),
    )
}

# The harness self-test runs every workload at these sizes, with unchanged argv.
TINY = {
    "train_t1024": dict(per_class=2, seconds=16.0, fs=64.0),
    "cv_hd128": dict(seconds=2.0),
    "cv_hd128_par2": dict(seconds=2.0),
    "export_ov75": dict(per_class=2, seconds=8.0),
}


def tiny(workload: Workload) -> Workload:
    return replace(workload, **TINY[workload.name])


# --- set-up ------------------------------------------------------------------


def setup(workload: Workload, seed: int, directory: str) -> dict:
    """Generate and write the workload's inputs; returns their paths."""
    recordings = synth_generate(
        workload.per_class, workload.seconds, n_channels=workload.channels,
        fs=workload.fs, seed=seed,
    )
    inputs = {"manifest": save_dataset(recordings, directory)}
    if workload.kind == "export":
        config = ModelConfig(n_channels=workload.channels)
        inputs["params"] = os.path.join(directory, "params.bin")
        save_params(inputs["params"], init_model(config, seed), config)
    return inputs


def segments_per_subject(workload: Workload, manifest: str) -> dict:
    """Closed-form window count per subject, from the manifest alone."""
    with open(manifest) as fh:
        entries = json.load(fh)
    counts = {}
    for entry in entries:
        window = round(workload.window_s * entry["sampling_rate"])
        stride = round(window * (1.0 - workload.overlap))
        n = entry["n_samples"]
        counts[entry["subject_id"]] = (n - window) // stride + 1 if n >= window else 0
    return counts


# --- output checks -------------------------------------------------------------
# Each returns (failures, facts): a list of failed-check messages and the
# numbers the benchmark reports from the output (work done, final loss).


def check_train(workload: Workload, inputs: dict, out: str):
    failures = []
    n_segments = sum(segments_per_subject(workload, inputs["manifest"]).values())
    losses = []
    with open(os.path.join(out, "training_log.txt")) as fh:
        for line in fh:
            words = line.split()
            if len(words) >= 4 and words[0] == "epoch" and words[2] == "loss":
                losses.append(float(words[3]))
    if len(losses) != workload.epochs:
        failures.append(f"training log has {len(losses)} epochs, expected {workload.epochs}")
    if not all(math.isfinite(v) for v in losses):
        failures.append(f"non-finite training loss: {losses}")
    with open(os.path.join(out, "train_metrics.json")) as fh:
        saved = json.load(fh)
    params, config = load_params(os.path.join(out, "params.bin"))
    segs = build_segments(load_dataset(inputs["manifest"]), workload.window_s, workload.overlap)
    recomputed = json.loads(json.dumps(evaluate(params, config, segs.x, segs.y).to_dict()))
    if recomputed != saved:
        failures.append(f"params.bin gives {recomputed}, train_metrics.json says {saved}")
    if saved["tp"] + saved["fp"] + saved["fn"] + saved["tn"] != n_segments:
        failures.append(f"train_metrics.json counts do not sum to {n_segments} segments")
    if not saved["acc"] >= MIN_TRAIN_ACC:
        failures.append(f"training-set ACC {saved['acc']} < {MIN_TRAIN_ACC}")
    facts = {"work": n_segments * workload.epochs, "final_train_loss": losses[-1] if losses else None}
    return failures, facts


def check_cv(workload: Workload, inputs: dict, out: str, reference_out: str | None = None):
    failures = []
    per_subject = segments_per_subject(workload, inputs["manifest"])
    n_segments = sum(per_subject.values())
    with open(os.path.join(out, "report.json")) as fh:
        report = json.load(fh)
    seen = set()
    work = 0
    for k, fold in enumerate(report["folds"]):
        subjects = set(fold["test_subjects"])
        if subjects & seen:
            failures.append(f"fold {k} shares test subjects with an earlier fold")
        seen |= subjects
        tested = fold["tp"] + fold["fp"] + fold["fn"] + fold["tn"]
        if tested != sum(per_subject[s] for s in subjects):
            failures.append(f"fold {k} tested {tested} segments, its subjects have more or fewer")
        work += (n_segments - tested) * workload.epochs
    if seen != set(per_subject):
        failures.append("test folds do not cover every subject exactly")
    pooled = report["pooled"]
    if pooled["tp"] + pooled["fp"] + pooled["fn"] + pooled["tn"] != n_segments:
        failures.append(f"pooled counts do not sum to {n_segments} segments")
    if reference_out is not None:
        with open(os.path.join(reference_out, "report.json")) as fh:
            serial = json.load(fh)
        for key in ("folds", "mean"):
            if report[key] != serial[key]:
                failures.append(f"report.json {key!r} differs from the serial run's")
    return failures, {"work": work}


def check_export(workload: Workload, inputs: dict, out: str):
    failures = []
    n_segments = sum(segments_per_subject(workload, inputs["manifest"]).values())
    with open(os.path.join(out, "metrics.json")) as fh:
        metrics = json.load(fh)
    if metrics["tp"] + metrics["fp"] + metrics["fn"] + metrics["tn"] != n_segments:
        failures.append(f"metrics.json counts do not sum to {n_segments} segments")
    graphs = os.path.join(out, "graphs")
    expected = {"common_adj.txt"}
    for i in range(n_segments):
        expected |= {f"sample_{i:05d}_adj_inst.txt", f"sample_{i:05d}_assign_0.txt"}
    found = set(os.listdir(graphs))
    if found != expected:
        failures.append(f"{len(found)} exported files, expected {len(expected)} (2 per segment + 1)")
    worst_row = worst_col = 0.0
    for name in sorted(found & expected - {"common_adj.txt"}):
        matrix = np.loadtxt(os.path.join(graphs, name), ndmin=2)
        axis = 1 if "_assign_" in name else 0  # assignment rows, adj_inst columns
        err = float(np.abs(matrix.sum(axis=axis) - 1.0).max())
        if axis == 1:
            worst_row = max(worst_row, err)
        else:
            worst_col = max(worst_col, err)
    if not worst_row <= SUM_TOLERANCE:
        failures.append(f"an exported assignment row sums to 1 +- {worst_row:.3e}")
    if not worst_col <= SUM_TOLERANCE:
        failures.append(f"an exported adj_inst column sums to 1 +- {worst_col:.3e}")
    return failures, {"work": n_segments}


def check(workload: Workload, inputs: dict, out: str, reference_out: str | None = None):
    if workload.kind == "train":
        return check_train(workload, inputs, out)
    if workload.kind == "cv":
        return check_cv(workload, inputs, out, reference_out)
    return check_export(workload, inputs, out)
