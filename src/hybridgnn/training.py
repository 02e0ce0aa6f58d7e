"""Loss, optimizers, metrics, and subject-exclusive cross-validation.

The training objective is cross-entropy on the class probabilities plus an
entropy-minimization term on every region-assignment matrix, pushing each
channel's membership distribution toward one-hot. Folds split by subject so
no individual contributes segments to both sides of a fold.
"""

from __future__ import annotations

import contextlib
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import autodiff as ad
from .data import SegmentSet
from .model import ModelConfig, forward, forward_batch, init_model
from .rng import subseed, substream

# bytes of windows per forward pass of predict: a batch stays far below the
# kept heap's 32 MiB mmap threshold, so it reuses freed memory
EVAL_BATCH_BYTES = 4 << 20
N_FOLDS = 10
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 5e-3
    max_epochs: int = 10
    batch_size: int = 128
    lam: float = 1e-5  # entropy regularization coefficient
    seed: int = 0
    optimizer: str = "adam"

    def __post_init__(self):
        if not (self.learning_rate > 0 and math.isfinite(self.learning_rate)):
            raise ValueError(f"learning_rate must be > 0 and finite, got {self.learning_rate}")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not (self.lam >= 0 and math.isfinite(self.lam)):
            raise ValueError(f"lam must be >= 0 and finite, got {self.lam}")
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError(f"optimizer must be 'sgd' or 'adam', got {self.optimizer!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    def to_dict(self) -> dict:
        return asdict(self)


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite; carries the batch index and parameter norms."""

    def __init__(self, batch_index: int, param_norms: dict):
        self.batch_index = batch_index
        self.param_norms = param_norms
        worst = max(param_norms.items(), key=lambda kv: kv[1])
        super().__init__(
            f"non-finite loss at batch {batch_index}; largest parameter norm "
            f"{worst[0]}={worst[1]:.3e}"
        )


def batch_loss(probs: ad.Node, labels: np.ndarray, r_list, lam: float) -> ad.Node:
    """Batch mean of the per-sample objective -log p[label] - lam * sum(R log R),
    the entropy term summed over every assignment matrix (probs shaped (B, C))."""
    n, n_classes = probs.value.shape
    labels = np.asarray(labels)
    if labels.min() < 0 or labels.max() >= n_classes:
        raise ValueError("label out of range")
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), labels] = 1.0
    out = ad.scale(ad.reduce_sum(ad.mul(ad.constant(onehot), ad.log(probs))), -1.0 / n)
    for r in r_list:
        out = ad.add(out, ad.scale(ad.reduce_sum(ad.mul(r, ad.log(r))), -lam / n))
    return out


def _make_optimizer(tcfg: TrainConfig):
    if tcfg.optimizer == "sgd":
        return _Sgd(tcfg.learning_rate)
    return _Adam(tcfg.learning_rate)


class _Sgd:
    def __init__(self, lr: float):
        self.lr = lr

    def step(self, named):
        for _name, node in named:
            if node.grad is not None:
                node.value -= self.lr * node.grad


class _Adam:
    def __init__(self, lr: float):
        self.lr = lr
        self.t = 0
        self.state = {}

    def step(self, named):
        self.t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        correct1 = 1.0 - b1**self.t
        correct2 = 1.0 - b2**self.t
        for name, node in named:
            if node.grad is None:
                continue
            if name not in self.state:
                self.state[name] = (np.zeros_like(node.grad), np.zeros_like(node.grad))
            m, v = self.state[name]
            np.add(b1 * m, (1 - b1) * node.grad, out=m)
            np.add(b2 * v, (1 - b2) * node.grad**2, out=v)
            node.value -= self.lr * (m / correct1) / (np.sqrt(v / correct2) + ADAM_EPS)


def _permute_rows(arrays, order) -> None:
    """Reorder the rows of every array in place so that row i holds what row
    order[i] held, walking the permutation's cycles with one row of scratch
    per array."""
    order = order.tolist()
    done = [False] * len(order)
    for first in range(len(order)):
        if done[first] or order[first] == first:
            continue
        held = [a[first].copy() for a in arrays]
        i = first
        while order[i] != first:
            for a in arrays:
                a[i] = a[order[i]]
            done[i] = True
            i = order[i]
        for a, row in zip(arrays, held):
            a[i] = row
        done[i] = True


def train_epoch(
    params: dict,
    mcfg: ModelConfig,
    tcfg: TrainConfig,
    x: np.ndarray,
    y: np.ndarray,
    optimizer,
    shuffle_rng: np.random.Generator,
) -> dict:
    """One shuffled pass over the data; returns mean loss and mean grad norm.

    x and y are reordered in place for the epoch and put back in their order
    before it returns or raises, so the caller sees them unchanged."""
    if len(x) == 0:
        raise ValueError("train_epoch: empty shard")
    order = shuffle_rng.permutation(len(x))
    losses = []
    grad_norms = []
    # in shuffled order each batch is a contiguous slice of x, a view that the
    # forward reads in place, so no batch is copied out of the windows
    _permute_rows((x, y), order)
    try:
        for start in range(0, len(x), tcfg.batch_size):
            batch = slice(start, start + tcfg.batch_size)
            probs, diag = forward_batch(x[batch], params, mcfg)
            objective = batch_loss(probs, y[batch], diag["assign"], tcfg.lam)
            value = float(objective.value)
            if not math.isfinite(value):
                norms = {name: float(np.linalg.norm(node.value)) for name, node in params.items()}
                raise TrainingDivergedError(start // tcfg.batch_size, norms)
            ad.backward(objective)
            sq = 0.0
            for node in params.values():
                if node.grad is not None:
                    sq += float((node.grad**2).sum())
            grad_norms.append(math.sqrt(sq))
            optimizer.step(params.items())
            # with in-place updates and the gradients freed here, every step
            # starts from the heap the last one started from, so it stops
            # growing after the first step; the step's graph goes too, so it
            # does not live through the next step's forward
            ad.zero_grads(params.values())
            del probs, diag, objective
            losses.append(value)
    finally:
        _permute_rows((x, y), np.argsort(order))
    return {"mean_loss": float(np.mean(losses)), "grad_norm": float(np.mean(grad_norms))}


def train_model(x: np.ndarray, y: np.ndarray, mcfg: ModelConfig, tcfg: TrainConfig, log=None):
    """Train a fresh model on segments x z-scored as a `SegmentSet` reads
    them out; returns (params, per-epoch history). Each epoch reorders the
    writable arrays x and y in place and puts them back (`train_epoch`)."""
    params = init_model(mcfg, subseed(tcfg.seed, "params"))
    optimizer = _make_optimizer(tcfg)
    shuffle_rng = substream(tcfg.seed, "shuffle")
    history = []
    for epoch in range(tcfg.max_epochs):
        summary = train_epoch(params, mcfg, tcfg, x, y, optimizer, shuffle_rng)
        summary = {"epoch": epoch, **summary}
        history.append(summary)
        if log is not None:
            log(f"epoch {epoch} loss {summary['mean_loss']:.6f} grad {summary['grad_norm']:.6f}")
    return params, history


@dataclass
class Metrics:
    tp: int
    fp: int
    fn: int
    tn: int
    acc: float = field(init=False)
    rec: float = field(init=False)
    pre: float = field(init=False)
    f1: float = field(init=False)

    def __post_init__(self):
        total = self.tp + self.fp + self.fn + self.tn
        self.acc = (self.tp + self.tn) / total if total else 0.0
        self.rec = self.tp / (self.tp + self.fn) if (self.tp + self.fn) else 0.0
        self.pre = self.tp / (self.tp + self.fp) if (self.tp + self.fp) else 0.0
        self.f1 = (
            2 * self.pre * self.rec / (self.pre + self.rec) if (self.pre + self.rec) else 0.0
        )

    def to_dict(self) -> dict:
        return {
            "tp": self.tp, "fp": self.fp, "fn": self.fn, "tn": self.tn,
            "acc": self.acc, "rec": self.rec, "pre": self.pre, "f1": self.f1,
        }


def evaluate(params: dict, mcfg: ModelConfig, x, y: np.ndarray, on_batch=None) -> Metrics:
    """Argmax predictions over a shard of z-scored segments, as `train_model`
    takes them; positive class is index 1 (patient). x is an array or a
    `SegmentSet`, which is read one batch at a time. `on_batch` is passed to
    `predict`."""
    if len(x) == 0:
        raise ValueError("evaluate: empty shard")
    preds = predict(params, mcfg, x, on_batch)
    y = np.asarray(y)
    tp = int(np.sum((preds == 1) & (y == 1)))
    fp = int(np.sum((preds == 1) & (y == 0)))
    fn = int(np.sum((preds == 0) & (y == 1)))
    tn = int(np.sum((preds == 0) & (y == 0)))
    return Metrics(tp=tp, fp=fp, fn=fn, tn=tn)


def predict(params: dict, mcfg: ModelConfig, x, on_batch=None):
    """Argmax class per segment of x, an array or a `SegmentSet`, in batches
    of as many windows as fit in EVAL_BATCH_BYTES, at least one.
    `on_batch(start, diag)`, if given, receives each batch's first segment
    index and its diagnostics from `model.forward`."""
    batch = max(1, EVAL_BATCH_BYTES // (8 * math.prod(x.shape[1:])))
    preds = [np.empty(0, np.intp)]  # an empty x predicts nothing
    for start in range(0, len(x), batch):
        probs, diag = forward(x[start : start + batch], params, mcfg)
        preds.append(np.argmax(probs, axis=-1))
        if on_batch is not None:
            on_batch(start, diag)
    return np.concatenate(preds)


def mean_assignment_entropy(params: dict, mcfg: ModelConfig, x) -> float:
    """Mean over samples, pooling stages, and channels of the entropy of each
    assignment row, over x, an array or a `SegmentSet`. Returns nan for
    variants without pooling."""
    rows = []

    def add(_start, diag):
        for rv in diag["assign"]:
            rows.append(-(rv * np.log(np.maximum(rv, ad.LOG_FLOOR))).sum(axis=-1).ravel())

    predict(params, mcfg, x, on_batch=add)
    count = sum(r.size for r in rows)
    # one exact sum, so the mean does not depend on where the batches split
    return math.fsum(np.concatenate(rows)) / count if count else float("nan")


# the metrics that fold summaries and tables report, in column order
SUMMARY_KEYS = ("acc", "rec", "pre", "f1")


@dataclass
class FoldReport:
    folds: list  # Metrics per fold
    fold_subjects: list  # test subjects per fold
    pooled: Metrics
    mean: dict
    std: dict
    model_config: dict
    train_config: dict

    @classmethod
    def from_folds(cls, folds, fold_subjects, mcfg: ModelConfig, tcfg: TrainConfig):
        mean = {k: float(np.mean([getattr(m, k) for m in folds])) for k in SUMMARY_KEYS}
        std = {k: float(np.std([getattr(m, k) for m in folds])) for k in SUMMARY_KEYS}
        pooled = Metrics(
            tp=sum(m.tp for m in folds),
            fp=sum(m.fp for m in folds),
            fn=sum(m.fn for m in folds),
            tn=sum(m.tn for m in folds),
        )
        return cls(
            folds=list(folds),
            fold_subjects=[sorted(s) for s in fold_subjects],
            pooled=pooled,
            mean=mean,
            std=std,
            model_config=mcfg.to_dict(),
            train_config=tcfg.to_dict(),
        )

    def to_json_dict(self) -> dict:
        return {
            "folds": [
                {**m.to_dict(), "test_subjects": subj}
                for m, subj in zip(self.folds, self.fold_subjects)
            ],
            "mean": self.mean,
            "std": self.std,
            "pooled": self.pooled.to_dict(),
            "model_config": self.model_config,
            "train_config": self.train_config,
        }

    def to_table(self) -> str:
        rows = [(i, m.to_dict()) for i, m in enumerate(self.folds)]
        rows += [("mean", self.mean), ("std", self.std), ("pool", self.pooled.to_dict())]
        return format_table("fold", 4, rows)


def format_table(label_header: str, label_width: int, rows) -> str:
    """Fixed-width metrics table; rows are (label, mapping with acc/rec/pre/f1)."""
    lines = [f"{label_header:>{label_width}}  " + "  ".join(f"{k.upper():>8}" for k in SUMMARY_KEYS)]
    for label, values in rows:
        lines.append(f"{label:>{label_width}}  " + "  ".join(f"{values[k]:8.4f}" for k in SUMMARY_KEYS))
    return "\n".join(lines)


def partition_subjects(subjects, seed: int):
    """Shuffle the unique subject list by seed and split into N_FOLDS near-equal groups."""
    unique = sorted(set(subjects))
    if len(unique) < N_FOLDS:
        raise ValueError(f"need at least {N_FOLDS} subjects for {N_FOLDS}-fold CV, have {len(unique)}")
    order = substream(seed, "folds").permutation(len(unique))
    shuffled = [unique[i] for i in order]
    return [list(part) for part in np.array_split(shuffled, N_FOLDS)]


def _run_fold(segset: SegmentSet, mcfg: ModelConfig, tcfg: TrainConfig, test_subjects, k: int):
    test_mask = np.isin(segset.subjects, list(test_subjects))
    fold_cfg = replace(tcfg, seed=subseed(tcfg.seed, "fold", str(k)))
    # each side's windows are read from the recordings here, so no process
    # holds the whole set
    params, _history = train_model(segset[~test_mask], segset.y[~test_mask], mcfg, fold_cfg)
    return evaluate(params, mcfg, segset[test_mask], segset.y[test_mask])


# one fold worker per CPU, at most N_FOLDS; where BLAS cannot be pinned to
# one thread, the workers' BLAS threads would oversubscribe the CPUs, so
# folds run serially
FOLD_WORKERS = min(N_FOLDS, ad.usable_cpus())
_WORKER_STATE = {}


def _worker_init(segset):
    # the workers already use every CPU between them; more conv threads per
    # worker only contend (importing the engine set BLAS to one thread)
    ad.CONV_THREADS = 1
    _WORKER_STATE["segset"] = segset


def _worker_run(task):
    return _run_fold(_WORKER_STATE["segset"], *task)


def ten_fold_cv(segset: SegmentSet, runs, n_jobs: int = FOLD_WORKERS, log=None) -> list:
    """Subject-exclusive cross-validation with per-fold re-initialization: one
    `FoldReport` per `(ModelConfig, TrainConfig)` of `runs`, in order. Each fold
    of each run is one task; `n_jobs > 1` runs every task on one pool of up to
    `n_jobs` worker processes (no more than there are tasks) and produces
    metrics identical to the serial order."""
    partitions = [partition_subjects(segset.subjects, tcfg.seed) for _mcfg, tcfg in runs]
    tasks = [(*run, group, k) for run, groups in zip(runs, partitions) for k, group in enumerate(groups)]
    n_workers = min(n_jobs, len(tasks))
    folds = []
    with contextlib.ExitStack() as stack:
        if n_workers > 1:
            pool = ProcessPoolExecutor(max_workers=n_workers, initializer=_worker_init, initargs=(segset,))
            results = stack.enter_context(pool).map(_worker_run, tasks)
        else:
            results = (_run_fold(segset, *task) for task in tasks)
        for (*_run, k), metrics in zip(tasks, results):
            folds.append(metrics)
            if log is not None:
                log(f"fold {k} acc {metrics.acc:.4f}")
    return [
        FoldReport.from_folds(folds[i * N_FOLDS : (i + 1) * N_FOLDS], groups, *run)
        for i, (run, groups) in enumerate(zip(runs, partitions))
    ]
