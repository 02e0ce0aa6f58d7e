"""Loss, optimizers, metrics, and subject-exclusive cross-validation.

The training objective is cross-entropy on the class probabilities plus an
entropy-minimization term on every region-assignment matrix, pushing each
channel's membership distribution toward one-hot. Folds split by subject so
no individual contributes segments to both sides of a fold.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import autodiff as ad
from .data import SegmentSet
from .model import ModelConfig, forward_batch, init_model
from .rng import subseed, substream

EVAL_BATCH_SIZE = 256  # segments per forward pass of evaluate, predict and mean_assignment_entropy
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
                node.value = node.value - self.lr * node.grad


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
            m, v = self.state.get(name, (0.0, 0.0))
            m = b1 * m + (1 - b1) * node.grad
            v = b2 * v + (1 - b2) * node.grad**2
            self.state[name] = (m, v)
            node.value = node.value - self.lr * (m / correct1) / (np.sqrt(v / correct2) + ADAM_EPS)


def train_epoch(
    params: dict,
    mcfg: ModelConfig,
    tcfg: TrainConfig,
    x: np.ndarray,
    y: np.ndarray,
    optimizer,
    shuffle_rng: np.random.Generator,
) -> dict:
    """One shuffled pass over the data; returns mean loss and mean grad norm."""
    if len(x) == 0:
        raise ValueError("train_epoch: empty shard")
    order = shuffle_rng.permutation(len(x))
    losses = []
    grad_norms = []
    for start in range(0, len(order), tcfg.batch_size):
        idx = order[start : start + tcfg.batch_size]
        probs, diag = forward_batch(x[idx], params, mcfg)
        objective = batch_loss(probs, y[idx], diag["assign"], tcfg.lam)
        value = float(objective.value)
        if not math.isfinite(value):
            norms = {name: float(np.linalg.norm(node.value)) for name, node in params.items()}
            raise TrainingDivergedError(start // tcfg.batch_size, norms)
        ad.zero_grads(params.values())
        ad.backward(objective)
        sq = 0.0
        for node in params.values():
            if node.grad is not None:
                sq += float((node.grad**2).sum())
        grad_norms.append(math.sqrt(sq))
        optimizer.step(params.items())
        losses.append(value)
    return {"mean_loss": float(np.mean(losses)), "grad_norm": float(np.mean(grad_norms))}


def train_model(x: np.ndarray, y: np.ndarray, mcfg: ModelConfig, tcfg: TrainConfig, log=None):
    """Train a fresh model; returns (params, per-epoch history)."""
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


def evaluate(params: dict, mcfg: ModelConfig, x: np.ndarray, y: np.ndarray,
             on_batch=None) -> Metrics:
    """Argmax predictions over a shard; positive class is index 1 (patient).
    `on_batch` is passed to `predict`."""
    if len(x) == 0:
        raise ValueError("evaluate: empty shard")
    preds = predict(params, mcfg, x, on_batch)
    y = np.asarray(y)
    tp = int(np.sum((preds == 1) & (y == 1)))
    fp = int(np.sum((preds == 1) & (y == 0)))
    fn = int(np.sum((preds == 0) & (y == 1)))
    tn = int(np.sum((preds == 0) & (y == 0)))
    return Metrics(tp=tp, fp=fp, fn=fn, tn=tn)


def _forward_values(segments: np.ndarray, params: dict, mcfg: ModelConfig):
    """`forward_batch` reduced to numpy arrays: probs (B, C) and the
    diagnostics, "adj_inst" (B, N, N) or None and "assign" as a list of
    (B, N, N_r). The batch's autodiff graph is freed on return, so it is
    not held while the next batch runs."""
    probs, diag = forward_batch(segments, params, mcfg)
    adj_inst = None if diag["adj_inst"] is None else diag["adj_inst"].value
    return probs.value, {"adj_inst": adj_inst, "assign": [r.value for r in diag["assign"]]}


def predict(params: dict, mcfg: ModelConfig, x: np.ndarray, on_batch=None):
    """Argmax class per segment. `on_batch(start, diag)`, if given, receives
    each batch's first segment index and its diagnostics from `_forward_values`."""
    preds = []
    for start in range(0, len(x), EVAL_BATCH_SIZE):
        probs, diag = _forward_values(x[start : start + EVAL_BATCH_SIZE], params, mcfg)
        preds.append(np.argmax(probs, axis=-1))
        if on_batch is not None:
            on_batch(start, diag)
    return np.concatenate(preds)


def mean_assignment_entropy(params: dict, mcfg: ModelConfig, x: np.ndarray) -> float:
    """Mean over samples, pooling stages, and channels of the entropy of each
    assignment row. Returns nan for variants without pooling."""
    total = 0.0
    count = 0
    for start in range(0, len(x), EVAL_BATCH_SIZE):
        _probs, diag = _forward_values(x[start : start + EVAL_BATCH_SIZE], params, mcfg)
        for rv in diag["assign"]:
            ent = -(rv * np.log(np.maximum(rv, ad.LOG_FLOOR))).sum(axis=-1)
            total += float(ent.sum())
            count += ent.size
    return total / count if count else float("nan")


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
    params, _history = train_model(segset.x[~test_mask], segset.y[~test_mask], mcfg, fold_cfg)
    return evaluate(params, mcfg, segset.x[test_mask], segset.y[test_mask])


# one fold worker per CPU, at most N_FOLDS; where BLAS cannot be pinned to
# one thread, the workers' BLAS threads would oversubscribe the CPUs, so
# folds run serially
FOLD_WORKERS = min(N_FOLDS, ad.usable_cpus())
_WORKER_STATE = {}


def _worker_init(segset, mcfg, tcfg):
    # the workers already use every CPU between them; more BLAS or conv
    # threads per worker only contend, and extra BLAS threads made the pool's
    # wall time bimodal, at times several times the serial run's
    ad.pin_blas()
    ad.CONV_THREADS = 1
    _WORKER_STATE["args"] = (segset, mcfg, tcfg)


def _worker_run(test_subjects, k):
    segset, mcfg, tcfg = _WORKER_STATE["args"]
    m = _run_fold(segset, mcfg, tcfg, test_subjects, k)
    return (m.tp, m.fp, m.fn, m.tn)


def ten_fold_cv(
    segset: SegmentSet,
    mcfg: ModelConfig,
    tcfg: TrainConfig,
    n_jobs: int = FOLD_WORKERS,
    log=None,
) -> FoldReport:
    """Subject-exclusive cross-validation with per-fold re-initialization.

    Folds are independent; `n_jobs > 1` runs them in up to `n_jobs` worker
    processes (no more than there are folds) and produces metrics identical
    to the serial order.
    """
    groups = partition_subjects(segset.subjects, tcfg.seed)
    n_workers = min(n_jobs, len(groups))
    folds = []
    if n_workers > 1:
        with ProcessPoolExecutor(
            max_workers=n_workers, initializer=_worker_init, initargs=(segset, mcfg, tcfg)
        ) as pool:
            for k, counts in enumerate(pool.map(_worker_run, groups, range(len(groups)))):
                folds.append(Metrics(*counts))
                if log is not None:
                    log(f"fold {k} acc {folds[-1].acc:.4f}")
    else:
        for k, group in enumerate(groups):
            folds.append(_run_fold(segset, mcfg, tcfg, group, k))
            if log is not None:
                log(f"fold {k} acc {folds[-1].acc:.4f}")
    return FoldReport.from_folds(folds, groups, mcfg, tcfg)
