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
import re
import sys
from dataclasses import fields

from . import autodiff as ad
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
from .extractor import output_lengths
from .graphs import common_adjacency
from .training import (
    FOLD_WORKERS, N_FOLDS, TrainConfig, evaluate, format_table, ten_fold_cv, train_model,
)
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
    "folds_parallel": FOLD_WORKERS,
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
        with open(config_path, encoding="utf-8") as fh:
            try:
                file_cfg = json.load(fh)
            except ValueError as exc:  # not UTF-8, or not JSON
                raise ConfigError(f"config file {config_path}: {exc}") from None
        if not isinstance(file_cfg, dict):
            raise ConfigError(f"config file {config_path}: expected a JSON object")
        unknown = set(file_cfg) - set(DEFAULTS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key, value in file_cfg.items():
            if not _same_kind(DEFAULTS[key], value):
                raise ConfigError(f"config file {config_path}: {key!r} has the wrong type: {value!r}")
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
    if not hasattr(args, "folds_parallel"):
        # a command without --folds-parallel runs no folds, and its echo
        # should not depend on the CPU count
        del cfg["folds_parallel"]
    return cfg


def _same_kind(default, value) -> bool:
    """Whether a config-file value has the JSON type of the key's default:
    a string where the default is None, any number where it is a float."""
    if default is None:
        return value is None or isinstance(value, str)
    if isinstance(default, float) and type(value) is int:
        return True
    return type(value) is type(default)


def model_config(cfg: dict) -> ModelConfig:
    try:
        return ModelConfig(**{k: cfg[k] for k in MODEL_KEYS})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"model configuration: {exc}") from None


def train_config(cfg: dict) -> TrainConfig:
    try:
        return TrainConfig(**{k: cfg[k] for k in TRAIN_KEYS})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"training configuration: {exc}") from None


def synth_recordings(cfg: dict):
    """The configured synthetic recordings; non-positive or non-finite sizes are refused."""
    if cfg["seed"] < 0:
        raise ConfigError(f"seed must be >= 0, got {cfg['seed']}")
    try:
        return synth_generate(
            cfg["synth_subjects_per_class"],
            cfg["synth_seconds"],
            n_channels=cfg["n_channels"],
            fs=cfg["synth_fs"],
            seed=subseed(cfg["seed"], "synth"),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def load_segments(cfg: dict, extractor_layers):
    """The configured data source as a segment set whose windows are long
    enough for every layer of `extractor_layers`."""
    if cfg["manifest"]:
        recordings = load_dataset(cfg["manifest"])
    elif cfg["synth"]:
        recordings = synth_recordings(cfg)
    else:
        raise ConfigError("no data source: pass --manifest PATH or --synth")
    segs = build_segments(recordings, cfg["window_seconds"], cfg["overlap"])
    _m, n_channels, window = segs.shape
    if n_channels != cfg["n_channels"]:
        raise ConfigError(f"the data has {n_channels} channels, but n_channels is {cfg['n_channels']}")
    try:
        output_lengths(window, extractor_layers)
    except ValueError as exc:
        raise ConfigError(f"window_seconds {cfg['window_seconds']}: {exc}") from None
    return segs


def cv_segments(cfg: dict, extractor_layers):
    """`load_segments` for cross-validation: also refuses fewer subjects than
    folds and a `folds_parallel` below 1."""
    if cfg["folds_parallel"] < 1:
        raise ConfigError(f"folds_parallel must be >= 1, got {cfg['folds_parallel']}")
    segs = load_segments(cfg, extractor_layers)
    n_subjects = len(set(segs.subjects))
    if n_subjects < N_FOLDS:
        raise ConfigError(f"need at least {N_FOLDS} subjects for {N_FOLDS}-fold CV, have {n_subjects}")
    return segs


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _prepare_out(cfg: dict, out: str) -> None:
    os.makedirs(out, exist_ok=True)
    _write_json(os.path.join(out, "config.json"), cfg)


# --- commands ----------------------------------------------------------------
# Each command builds every configuration it will run and loads its data
# before `_prepare_out`, so a refused run writes nothing.


def cmd_train(args) -> int:
    cfg = resolve_config(args)
    mcfg, tcfg = model_config(cfg), train_config(cfg)
    segs = load_segments(cfg, mcfg.extractor_layers)
    _prepare_out(cfg, args.out)
    # training reads every window each epoch, so they are read out once, and
    # the recordings behind them are let go
    x, y = segs.x, segs.y
    del segs
    log_lines = []

    def log(line):
        print(line, flush=True)
        log_lines.append(line)

    params, _history = train_model(x, y, mcfg, tcfg, log=log)
    with open(os.path.join(args.out, "training_log.txt"), "w") as fh:
        fh.write("\n".join(log_lines) + "\n")
    save_params(os.path.join(args.out, "params.bin"), params, mcfg)
    metrics = evaluate(params, mcfg, x, y)
    _write_json(os.path.join(args.out, "train_metrics.json"), metrics.to_dict())
    print(f"trained on {len(x)} segments; params -> {args.out}/params.bin")
    return 0


def cmd_cv(args) -> int:
    cfg = resolve_config(args)
    mcfg, tcfg = model_config(cfg), train_config(cfg)
    segs = cv_segments(cfg, mcfg.extractor_layers)
    _prepare_out(cfg, args.out)
    [report] = ten_fold_cv(
        segs, [(mcfg, tcfg)], n_jobs=cfg["folds_parallel"], log=lambda s: print(s, flush=True),
    )
    table = report.to_table()
    with open(os.path.join(args.out, "report.txt"), "w") as fh:
        fh.write(table + "\n")
    _write_json(os.path.join(args.out, "report.json"), report.to_json_dict())
    print(table)
    return 0


def cmd_ablation(args) -> int:
    cfg = resolve_config(args)
    tcfg = train_config(cfg)
    runs = [(model_config({**cfg, "variant": variant}), tcfg) for variant in VARIANTS]
    segs = cv_segments(cfg, runs[0][0].extractor_layers)  # one extractor in every variant
    _prepare_out(cfg, args.out)
    rows = []
    reports = {}
    for variant, report in zip(VARIANTS, ten_fold_cv(segs, runs, n_jobs=cfg["folds_parallel"])):
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
    values = args.values
    if values is None:
        values = SWEEP_GRIDS[args.param]
    else:
        cast = int if args.param == "n_regions" else float
        try:
            values = [cast(v) for v in values.split(",")]
        except ValueError as exc:
            raise ConfigError(f"--values: {exc}") from None
    key = "n_regions" if args.param == "n_regions" else "lam"
    runs = [(model_config(c), train_config(c)) for c in ({**cfg, key: value} for value in values)]
    segs = cv_segments(cfg, runs[0][0].extractor_layers)
    _prepare_out(cfg, args.out)
    reports = ten_fold_cv(segs, runs, n_jobs=cfg["folds_parallel"])
    csv_path = os.path.join(args.out, "sweep.csv")
    with open(csv_path, "w") as fh:
        fh.write(f"{args.param},mean_acc,std_acc\n")
        for value, report in zip(values, reports):
            print(f"{args.param}={value}: mean acc {report.mean['acc']:.4f}", flush=True)
            fh.write(f"{value!r},{report.mean['acc']!r},{report.std['acc']!r}\n")
    print(f"sweep results -> {csv_path}")
    return 0


def cmd_eval(args) -> int:
    cfg = resolve_config(args)
    params, mcfg = load_params(args.params)
    segs = load_segments({**cfg, "n_channels": mcfg.n_channels}, mcfg.extractor_layers)
    _prepare_out(cfg, args.out)
    export = None
    if args.export_graphs:
        graph_dir = os.path.join(args.out, "graphs")
        os.makedirs(graph_dir, exist_ok=True)
        # an earlier export into this directory may hold more segments or a
        # common adjacency this model lacks: its files go, and no other file
        for name in os.listdir(graph_dir):
            if _EXPORT_NAME.fullmatch(name):
                os.remove(os.path.join(graph_dir, name))
        if "common_adj.raw" in params:
            common = common_adjacency(params["common_adj.raw"]).value
            _write_matrices([os.path.join(graph_dir, "common_adj.txt")], common[None])
        export = functools.partial(_export_graphs, graph_dir)
    # the export is written from the same batched pass that gives the metrics;
    # evaluate reads the windows from segs one batch at a time
    metrics = evaluate(params, mcfg, segs, segs.y, on_batch=export)
    _write_json(os.path.join(args.out, "metrics.json"), metrics.to_dict())
    print(json.dumps(metrics.to_dict(), sort_keys=True))
    if args.export_graphs:
        print(f"graph exports -> {graph_dir}")
    return 0


# the names of the files that `eval --export-graphs` writes
_EXPORT_NAME = re.compile(r"common_adj\.txt|sample_\d{5,}_(adj_inst|assign_\d+)\.txt")


def _export_graphs(graph_dir: str, start: int, diag: dict) -> None:
    """Write each segment's individualized adjacency and assignment matrices
    from one batch's diagnostics; segment `start` is the batch's first."""
    stacks = [] if diag["adj_inst"] is None else [("adj_inst", diag["adj_inst"])]
    stacks += [(f"assign_{j}", assign) for j, assign in enumerate(diag["assign"])]
    for name, stack in stacks:
        paths = [os.path.join(graph_dir, f"sample_{start + i:05d}_{name}.txt") for i in range(len(stack))]
        _write_matrices(paths, stack)


def _write_matrices(paths, stack) -> None:
    """Write each matrix of `stack` (K, rows, cols) as text to its path of the
    K `paths`, with the bytes of np.savetxt(path, matrix, fmt="%.18e")."""
    rows, cols = stack.shape[1:]
    # one format of the whole file, with the bytes of np.savetxt's row-by-row
    # output; Python floats format faster than numpy's
    fmt = "\n".join([" ".join(["%.18e"] * cols)] * rows) + "\n"
    for path, values in zip(paths, stack.reshape(len(stack), -1).tolist()):
        with open(path, "w") as fh:
            fh.write(fmt % tuple(values))


def cmd_synth(args) -> int:
    cfg = resolve_config(args)
    recordings = synth_recordings(cfg)
    _prepare_out(cfg, args.out)
    manifest = save_dataset(recordings, args.out)
    print(f"wrote {len(recordings)} recordings -> {manifest}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hybridgnn",
        description="Dual-branch graph neural network for EEG depression detection",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the flag of the commands that cross-validate
    folds = argparse.ArgumentParser(add_help=False)
    folds.add_argument("--folds-parallel", type=int, dest="folds_parallel",
                       help="run folds in this many worker processes; 1 runs them "
                            f"serially (default here: {FOLD_WORKERS})")

    p = sub.add_parser("train", help="train one model on the full dataset")
    _add_common_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("cv", parents=[folds], help="subject-exclusive ten-fold cross-validation")
    _add_common_flags(p)
    p.set_defaults(func=cmd_cv)

    p = sub.add_parser("ablation", parents=[folds], help="cross-validate every architecture variant")
    _add_common_flags(p)
    p.set_defaults(func=cmd_ablation)

    p = sub.add_parser("sweep", parents=[folds], help="cross-validate over a hyperparameter grid")
    _add_common_flags(p)
    p.add_argument("--param", choices=sorted(SWEEP_GRIDS), required=True)
    p.add_argument("--values", help="comma-separated grid (default: built-in grid)")
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
    ad.keep_freed_memory()  # before the first train step's temporaries are freed
    # a GEMM summed on several BLAS threads can differ in its last bit, so
    # BLAS runs on one thread, as on a 1-CPU machine, whether or not a batch
    # spans enough conv chunks to start the conv's thread pool
    ad.pin_blas()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DatasetError, ParamsFileError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pipeline failure
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
