"""Command-line interface: train, cv, ablation, sweep, eval, synth.

Configuration is resolved in layers: package defaults, then an optional
preset, then an optional JSON config file, then explicit command-line flags
(flags win). Every command echoes its fully resolved configuration into the
output directory so any result can be reproduced from the echo alone.

Exit codes: 0 success, 1 runtime/pipeline failure, 2 configuration/IO error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import fields

import numpy as np

from .data import (
    DatasetError,
    build_segments,
    load_dataset,
    save_dataset,
    synth_generate,
)
from .model import (
    ModelConfig,
    ParamsFileError,
    VARIANTS,
    forward,  # not called here; kept as cli.forward, which perfbench/tracer.py wraps
    load_params,
    save_params,
)
from .graphs import common_adjacency
from .training import TrainConfig, evaluate, format_table, ten_fold_cv, train_model
from .rng import subseed

# dataset presets: hyperparameters and windowing as published for each corpus
PRESETS = {
    "modma": {
        "learning_rate": 0.09,
        "optimizer": "sgd",
        "max_epochs": 100,
        "n_regions": 5,
        "window_seconds": 4.0,
        "overlap": 0.75,
    },
    "husm": {
        "learning_rate": 0.001,
        "optimizer": "adam",
        "max_epochs": 60,
        "n_regions": 4,
        "window_seconds": 4.0,
        "overlap": 0.0,
    },
}

# model and training defaults are the config dataclasses' own; extractor_layers
# follows feature_dim and is not a CLI key
_MODEL_FIELDS = [f for f in fields(ModelConfig) if f.name != "extractor_layers"]
MODEL_KEYS = tuple(f.name for f in _MODEL_FIELDS)
TRAIN_KEYS = tuple(f.name for f in fields(TrainConfig))

DEFAULTS = {
    **{f.name: f.default for f in _MODEL_FIELDS + list(fields(TrainConfig))},
    # data
    "manifest": None,
    "synth": False,
    "synth_subjects_per_class": 20,
    "synth_seconds": 60.0,
    "synth_fs": 256.0,
    "window_seconds": 4.0,
    "overlap": 0.0,
    # run
    "preset": None,
    "folds_parallel": 1,
}

SWEEP_GRIDS = {
    "n_regions": [2, 3, 4, 5, 6, 7, 8],
    "lambda": [1e-7, 1e-6, 1e-5, 1e-4, 1e-3],
}


class ConfigError(ValueError):
    pass


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--preset", choices=sorted(PRESETS), help="dataset hyperparameter preset")
    p.add_argument("--seed", type=int)
    # model
    p.add_argument("--variant", choices=VARIANTS)
    p.add_argument("--n-channels", type=int, dest="n_channels")
    p.add_argument("--feature-dim", type=int, dest="feature_dim")
    p.add_argument("--proj-dim", type=int, dest="proj_dim")
    p.add_argument("--out-dim", type=int, dest="out_dim")
    p.add_argument("--steps", type=int)
    p.add_argument("--region-steps", type=int, dest="region_steps")
    p.add_argument("--n-regions", type=int, dest="n_regions")
    p.add_argument("--classifier-hidden", type=int, dest="classifier_hidden")
    p.add_argument("--inst-softmax-axis", choices=("col", "row"), dest="inst_softmax_axis")
    # training
    p.add_argument("--lr", type=float, dest="learning_rate")
    p.add_argument("--epochs", type=int, dest="max_epochs")
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--lambda", type=float, dest="lam")
    p.add_argument("--optimizer", choices=("sgd", "adam"))
    # data
    p.add_argument("--manifest", help="dataset manifest path")
    p.add_argument("--synth", action="store_const", const=True, default=None,
                   help="use an in-memory synthetic dataset")
    p.add_argument("--synth-subjects", type=int, dest="synth_subjects_per_class")
    p.add_argument("--synth-seconds", type=float, dest="synth_seconds")
    p.add_argument("--synth-fs", type=float, dest="synth_fs")
    p.add_argument("--window-seconds", type=float, dest="window_seconds")
    p.add_argument("--overlap", type=float)


def resolve_config(args: argparse.Namespace) -> dict:
    """Layered merge: defaults < preset < config file < explicit flags."""
    cfg = dict(DEFAULTS)
    file_cfg = {}
    config_path = getattr(args, "config", None)
    if config_path:
        if not os.path.exists(config_path):
            raise ConfigError(f"config file not found: {config_path}")
        with open(config_path) as fh:
            try:
                file_cfg = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config file {config_path}: {exc}") from None
        unknown = set(file_cfg) - set(DEFAULTS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    preset_name = getattr(args, "preset", None) or file_cfg.get("preset")
    if preset_name:
        if preset_name not in PRESETS:
            raise ConfigError(f"unknown preset {preset_name!r}")
        cfg["preset"] = preset_name
        cfg.update(PRESETS[preset_name])
    cfg.update(file_cfg)
    for key in DEFAULTS:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    return cfg


def model_config(cfg: dict) -> ModelConfig:
    return ModelConfig(**{k: cfg[k] for k in MODEL_KEYS})


def train_config(cfg: dict) -> TrainConfig:
    return TrainConfig(**{k: cfg[k] for k in TRAIN_KEYS})


def load_segments(cfg: dict):
    """Materialize the configured data source as a stacked segment set."""
    if cfg["manifest"]:
        recordings = load_dataset(cfg["manifest"])
    elif cfg["synth"]:
        recordings = synth_generate(
            cfg["synth_subjects_per_class"],
            cfg["synth_seconds"],
            n_channels=cfg["n_channels"],
            fs=cfg["synth_fs"],
            seed=subseed(cfg["seed"], "synth"),
        )
    else:
        raise ConfigError("no data source: pass --manifest PATH or --synth")
    return build_segments(recordings, cfg["window_seconds"], cfg["overlap"])


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _prepare_out(cfg: dict, out: str) -> None:
    os.makedirs(out, exist_ok=True)
    _write_json(os.path.join(out, "config.json"), cfg)


# --- commands ----------------------------------------------------------------


def cmd_train(args) -> int:
    cfg = resolve_config(args)
    _prepare_out(cfg, args.out)
    segs = load_segments(cfg)
    mcfg, tcfg = model_config(cfg), train_config(cfg)
    log_lines = []

    def log(line):
        print(line, flush=True)
        log_lines.append(line)

    params, _history = train_model(segs.x, segs.y, mcfg, tcfg, log=log)
    with open(os.path.join(args.out, "training_log.txt"), "w") as fh:
        fh.write("\n".join(log_lines) + "\n")
    save_params(os.path.join(args.out, "params.bin"), params, mcfg)
    metrics = evaluate(params, mcfg, segs.x, segs.y)
    _write_json(os.path.join(args.out, "train_metrics.json"), metrics.to_dict())
    print(f"trained on {len(segs)} segments; params -> {args.out}/params.bin")
    return 0


def cmd_cv(args) -> int:
    cfg = resolve_config(args)
    _prepare_out(cfg, args.out)
    segs = load_segments(cfg)
    report = ten_fold_cv(
        segs, model_config(cfg), train_config(cfg),
        n_jobs=cfg["folds_parallel"], log=lambda s: print(s, flush=True),
    )
    table = report.to_table()
    with open(os.path.join(args.out, "report.txt"), "w") as fh:
        fh.write(table + "\n")
    _write_json(os.path.join(args.out, "report.json"), report.to_json_dict())
    print(table)
    return 0


def cmd_ablation(args) -> int:
    cfg = resolve_config(args)
    _prepare_out(cfg, args.out)
    segs = load_segments(cfg)
    tcfg = train_config(cfg)
    rows = []
    reports = {}
    for variant in VARIANTS:
        mcfg = model_config({**cfg, "variant": variant})
        report = ten_fold_cv(segs, mcfg, tcfg, n_jobs=cfg["folds_parallel"])
        reports[variant] = report.to_json_dict()
        rows.append((variant, report.mean))
        print(f"variant {variant}: mean acc {report.mean['acc']:.4f}", flush=True)
    table = format_table("variant", 8, rows)
    with open(os.path.join(args.out, "ablation.txt"), "w") as fh:
        fh.write(table + "\n")
    _write_json(os.path.join(args.out, "ablation.json"), reports)
    print(table)
    return 0


def cmd_sweep(args) -> int:
    cfg = resolve_config(args)
    _prepare_out(cfg, args.out)
    segs = load_segments(cfg)
    values = args.values
    if values is None:
        values = SWEEP_GRIDS[args.param]
    else:
        cast = int if args.param == "n_regions" else float
        values = [cast(v) for v in values.split(",")]
    rows = []
    for value in values:
        local = dict(cfg)
        if args.param == "n_regions":
            local["n_regions"] = value
        else:
            local["lam"] = value
        report = ten_fold_cv(segs, model_config(local), train_config(local),
                             n_jobs=cfg["folds_parallel"])
        rows.append((value, report.mean["acc"], report.std["acc"]))
        print(f"{args.param}={value}: mean acc {report.mean['acc']:.4f}", flush=True)
    csv_path = os.path.join(args.out, "sweep.csv")
    with open(csv_path, "w") as fh:
        fh.write(f"{args.param},mean_acc,std_acc\n")
        for value, acc, std in rows:
            fh.write(f"{value!r},{acc!r},{std!r}\n")
    print(f"sweep results -> {csv_path}")
    return 0


def cmd_eval(args) -> int:
    cfg = resolve_config(args)
    _prepare_out(cfg, args.out)
    params, mcfg = load_params(args.params)
    cfg_for_data = {**cfg, "n_channels": mcfg.n_channels}
    segs = load_segments(cfg_for_data)
    export = None
    if args.export_graphs:
        graph_dir = os.path.join(args.out, "graphs")
        os.makedirs(graph_dir, exist_ok=True)
        if "common_adj.raw" in params:
            np.savetxt(
                os.path.join(graph_dir, "common_adj.txt"),
                common_adjacency(params["common_adj.raw"]).value, fmt="%.18e",
            )
        export = functools.partial(_export_graphs, graph_dir)
    # the export is written from the same batched pass that gives the metrics
    metrics = evaluate(params, mcfg, segs.x, segs.y, on_batch=export)
    _write_json(os.path.join(args.out, "metrics.json"), metrics.to_dict())
    print(json.dumps(metrics.to_dict(), sort_keys=True))
    if args.export_graphs:
        print(f"graph exports -> {graph_dir}")
    return 0


def _export_graphs(graph_dir: str, start: int, diag: dict) -> None:
    """Write each segment's individualized adjacency and assignment matrices
    from one batch's diagnostics; segment `start` is the batch's first."""
    stacks = [] if diag["adj_inst"] is None else [("adj_inst", diag["adj_inst"])]
    stacks += [(f"assign_{j}", assign) for j, assign in enumerate(diag["assign"])]
    for name, stack in stacks:
        rows, cols = stack.shape[1:]
        # one format call per file, with the bytes of row-by-row "%.18e" output
        fmt = "\n".join([" ".join(["%.18e"] * cols)] * rows)
        for offset, matrix in enumerate(stack):
            np.savetxt(
                os.path.join(graph_dir, f"sample_{start + offset:05d}_{name}.txt"),
                matrix.reshape(1, -1), fmt=fmt,
            )


def cmd_synth(args) -> int:
    cfg = resolve_config(args)
    _prepare_out(cfg, args.out)
    recordings = synth_generate(
        cfg["synth_subjects_per_class"],
        cfg["synth_seconds"],
        n_channels=cfg["n_channels"],
        fs=cfg["synth_fs"],
        seed=subseed(cfg["seed"], "synth"),
    )
    manifest = save_dataset(recordings, args.out)
    print(f"wrote {len(recordings)} recordings -> {manifest}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hybridgnn",
        description="Dual-branch graph neural network for EEG depression detection",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train one model on the full dataset")
    _add_common_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("cv", help="subject-exclusive ten-fold cross-validation")
    _add_common_flags(p)
    p.add_argument("--folds-parallel", type=int, dest="folds_parallel",
                   help="run folds in this many worker processes")
    p.set_defaults(func=cmd_cv)

    p = sub.add_parser("ablation", help="cross-validate every architecture variant")
    _add_common_flags(p)
    p.add_argument("--folds-parallel", type=int, dest="folds_parallel")
    p.set_defaults(func=cmd_ablation)

    p = sub.add_parser("sweep", help="cross-validate over a hyperparameter grid")
    _add_common_flags(p)
    p.add_argument("--param", choices=sorted(SWEEP_GRIDS), required=True)
    p.add_argument("--values", help="comma-separated grid (default: built-in grid)")
    p.add_argument("--folds-parallel", type=int, dest="folds_parallel")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("eval", help="evaluate a saved model on a dataset")
    _add_common_flags(p)
    p.add_argument("--params", required=True, help="parameter file from `train`")
    p.add_argument("--export-graphs", action="store_true",
                   help="write per-sample adjacency/assignment matrices")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("synth", help="write a synthetic dataset in the manifest format")
    _add_common_flags(p)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DatasetError, ParamsFileError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pipeline failure
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
