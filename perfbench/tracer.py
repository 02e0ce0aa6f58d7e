"""Out-of-package tracing for the benchmark's traced runs.

The tracer wraps the public functions of `hybridgnn` where their callers look
them up (for example `hybridgnn.model.extract_features`, which is what
`forward_batch` calls), so nothing inside the package changes. Each wrapped
call becomes a span: name, start, end, parent span and run id. Spans stay in
memory and are returned by `summary` when the run ends.

Backward time is attributed to the layer that built each graph node: when a
wrapped call that builds autodiff nodes returns, the tracer walks from its
outputs back to its inputs and replaces the `_backward` closure of every node
not yet claimed by an inner call with a timed one. The closure's time is then
charged to the innermost layer (self) and to every traced call around it
(inclusive).
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from statistics import median

import numpy as np

from hybridgnn import autodiff as ad
from hybridgnn import cli, model, pooling, training

perf_counter = time.perf_counter

# (metric prefix, [(module, attribute), ...], builds autodiff nodes)
LAYER_FUNCTIONS = [
    ("extractor.extract_features", [(model, "extract_features")], True),
    ("graphs.common_adjacency", [(model, "common_adjacency")], True),
    ("graphs.individual_adjacency", [(model, "individual_adjacency")], True),
    ("graphs.normalize_adjacency",
     [(model, "normalize_adjacency"), (pooling, "normalize_adjacency")], True),
    ("gcn.gcn_propagate", [(model, "gcn_propagate"), (pooling, "gcn_propagate")], True),
    ("pooling.assignment_matrix", [(model, "assignment_matrix")], True),
    ("pooling.pool", [(model, "pool")], True),
    ("pooling.region_conv", [(model, "region_conv")], True),
    ("pooling.unpool", [(model, "unpool")], True),
    ("model.forward_batch", [(model, "forward_batch"), (training, "forward_batch")], True),
    ("model.forward", [(cli, "forward")], False),
    ("training.batch_loss", [(training, "batch_loss")], True),
    ("training.train_epoch", [(training, "train_epoch")], False),
    ("training.evaluate", [(cli, "evaluate"), (training, "evaluate")], False),
    ("training.optimizer", [(training._Adam, "step"), (training._Sgd, "step")], False),
    ("model.save_params", [(cli, "save_params")], False),
    ("cli.export.savetxt", [(np, "savetxt")], False),
]

# Wrapped in every traced run, including the one that only times the fold pool.
OUTER_FUNCTIONS = [
    ("data.load_dataset", [(cli, "load_dataset")], False),
    ("data.build_segments", [(cli, "build_segments")], False),
    ("model.load_params", [(cli, "load_params")], False),
    ("training.ten_fold_cv", [(cli, "ten_fold_cv")], False),
    ("training.run_fold", [(training, "_run_fold")], False),
]

GRAPH_SIDE = ("graphs.", "gcn.", "pooling.")


def _nodes(obj):
    """Autodiff nodes held directly or in tuples, lists and dict values."""
    if isinstance(obj, ad.Node):
        yield obj
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _nodes(item)
    elif isinstance(obj, dict):
        for item in obj.values():
            yield from _nodes(item)


class _Span:
    __slots__ = ("name", "start", "end", "parent", "run_id", "excluded", "info")

    def __init__(self, name, start, parent, run_id):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.run_id = run_id
        self.excluded = 0.0  # child spans, backward closures and tracer bookkeeping
        self.info = None


class _TimedBackward:
    """A node's backward closure, timed and charged to the layers that built it."""

    __slots__ = ("fn", "path", "tracer")

    def __init__(self, fn, path, tracer):
        self.fn = fn
        self.path = path  # traced calls open when the node was claimed, innermost last
        self.tracer = tracer

    def __call__(self, g):
        start = perf_counter()
        out = self.fn(g)
        elapsed = perf_counter() - start
        tracer = self.tracer
        for key in self.path:
            tracer.bwd_inclusive[key] += elapsed
        tracer.bwd_self[self.path[-1]] += elapsed
        if tracer.stack:
            tracer.spans[tracer.stack[-1]].excluded += elapsed
        return out


class Tracer:
    def __init__(self, run_id: str, busy_log: str):
        self.run_id = run_id
        self.busy_log = busy_log  # fold workers append their busy intervals here
        self.pid = os.getpid()
        self.spans: list[_Span] = []
        self.stack: list[int] = []
        self.bwd_inclusive = defaultdict(float)
        self.bwd_self = defaultdict(float)
        self.bookkeeping = 0.0
        self.nodes_per_step: list[int] = []
        self.im2col_bytes = 0

    # -- installation -------------------------------------------------------

    def install(self, layers: bool) -> None:
        """Wrap the outer functions, and with `layers` every layer function.
        The wrappers stay for the life of the process."""
        table = OUTER_FUNCTIONS + (LAYER_FUNCTIONS if layers else [])
        for key, sites, builds_nodes in table:
            for owner, attr in sites:
                setattr(owner, attr, self._wrap(key, getattr(owner, attr), builds_nodes))
        if layers:
            ad.backward = self._wrap_backward(ad.backward)

    def _open(self, key):
        parent = self.stack[-1] if self.stack else None
        self.spans.append(_Span(key, perf_counter(), parent, self.run_id))
        self.stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def _close(self, span, end, bookkeeping=0.0):
        span.end = end
        self.stack.pop()
        if span.parent is not None:
            self.spans[span.parent].excluded += end - span.start + bookkeeping

    def _wrap(self, key, fn, builds_nodes):
        tracer = self

        def traced(*args, **kwargs):
            if key == "extractor.extract_features":
                tracer._count_im2col(args[0], args[1])
            span = tracer._open(key)
            path = tuple(tracer.spans[i].name for i in tracer.stack)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tracer._close(span, perf_counter())
                raise
            end = perf_counter()
            if key == "training.ten_fold_cv":
                span.info = {"n_jobs": kwargs.get("n_jobs", 1)}
            elif key == "data.build_segments":
                span.info = {"segments": len(out)}
            elif key == "training.run_fold" and os.getpid() != tracer.pid:
                tracer._log_busy(span.start, end)
            bookkeeping = 0.0
            if builds_nodes:
                tracer._claim(path, (args, kwargs), out)
                bookkeeping = perf_counter() - end
                tracer.bookkeeping += bookkeeping
            tracer._close(span, end, bookkeeping)
            return out

        return traced

    def _wrap_backward(self, fn):
        tracer = self

        def traced_backward(root):
            started = perf_counter()
            tracer.nodes_per_step.append(len(ad.graph_nodes(root)))
            bookkeeping = perf_counter() - started
            tracer.bookkeeping += bookkeeping
            if tracer.stack:
                tracer.spans[tracer.stack[-1]].excluded += bookkeeping
            span = tracer._open("autodiff.backward")
            try:
                return fn(root)
            finally:
                tracer._close(span, perf_counter())

        return traced_backward

    def _claim(self, path, inputs, outputs) -> None:
        stop = {id(n) for n in _nodes(inputs)}
        seen = set()
        todo = list(_nodes(outputs))
        while todo:
            node = todo.pop()
            if id(node) in seen or id(node) in stop:
                continue
            seen.add(id(node))
            if node._backward is None:
                continue
            if not isinstance(node._backward, _TimedBackward):
                node._backward = _TimedBackward(node._backward, path, self)
            todo.extend(node.parents)

    def _count_im2col(self, segments, params) -> None:
        """Largest im2col buffer of one extractor call, from the input shape."""
        shape = np.shape(segments)
        lead, t = int(np.prod(shape[:-1])), shape[-1]
        for (k, stride, c_in, _c_out), _w, _b in params.layers:
            t = (t - k) // stride + 1
            self.im2col_bytes = max(self.im2col_bytes, lead * t * k * c_in * 8)

    def _log_busy(self, start, end) -> None:
        with open(self.busy_log, "a") as fh:
            fh.write(json.dumps({"pid": os.getpid(), "start": start, "end": end}) + "\n")

    # -- results ------------------------------------------------------------

    def _busy_intervals(self):
        if os.path.exists(self.busy_log):
            with open(self.busy_log) as fh:
                return [json.loads(line) for line in fh if line.strip()]
        return [{"pid": self.pid, "start": s.start, "end": s.end}
                for s in self.spans if s.name == "training.run_fold"]

    def summary(self, wall_s: float) -> dict:
        """Per-layer metrics of this traced command, plus its spans."""
        fwd = defaultdict(float)
        self_time = defaultdict(float)
        calls = defaultdict(int)
        for span in self.spans:
            duration = span.end - span.start
            fwd[span.name] += duration
            self_time[span.name] += duration - span.excluded
            calls[span.name] += 1

        def under(span, name):
            while span.parent is not None:
                span = self.spans[span.parent]
                if span.name == name:
                    return True
            return False

        # Step time: the training steps if any, else every batched forward.
        scope = "training.train_epoch" if calls["training.train_epoch"] else "model.forward_batch"
        step_fwd = defaultdict(float)
        for span in self.spans:
            if under(span, scope):
                step_fwd[span.name] += span.end - span.start - span.excluded
        step_s = fwd[scope]
        bwd_self_total = sum(self.bwd_self.values())
        extractor_s = step_fwd["extractor.extract_features"] + self.bwd_self["extractor.extract_features"]
        graph_s = sum(v for k, v in step_fwd.items() if k.startswith(GRAPH_SIDE))
        graph_s += sum(v for k, v in self.bwd_self.items() if k.startswith(GRAPH_SIDE))
        attributed = sum(self_time.values()) + bwd_self_total

        cv_spans = [s for s in self.spans if s.name == "training.ten_fold_cv"]
        busy_share = 0.0
        if cv_spans:
            cv = cv_spans[-1]
            busy = sum(b["end"] - b["start"] for b in self._busy_intervals())
            busy_share = busy / (cv.info["n_jobs"] * (cv.end - cv.start))

        ms = 1000.0
        metrics = {}
        for key, _sites, builds_nodes in LAYER_FUNCTIONS:
            if key.startswith(("extractor.", "graphs.", "gcn.", "pooling.")):
                metrics[f"{key}.fwd_ms"] = fwd[key] * ms
                metrics[f"{key}.bwd_ms"] = self.bwd_inclusive[key] * ms
        metrics.update({
            "extractor.extract_features.calls": calls["extractor.extract_features"],
            "extractor.im2col_mb": self.im2col_bytes / 2**20,
            "gcn.gcn_propagate.calls": calls["gcn.gcn_propagate"],
            "autodiff.backward.ms": fwd["autodiff.backward"] * ms,
            "autodiff.backward.self_ms": self_time["autodiff.backward"] * ms,
            "autodiff.nodes_per_step": median(self.nodes_per_step) if self.nodes_per_step else 0,
            "model.forward_batch.ms": fwd["model.forward_batch"] * ms,
            "model.forward_batch.self_ms": self_time["model.forward_batch"] * ms,
            "model.forward_batch.calls": calls["model.forward_batch"],
            "model.forward.ms": fwd["model.forward"] * ms,
            "model.forward.calls": calls["model.forward"],
            "model.load_params.ms": fwd["model.load_params"] * ms,
            "model.save_params.ms": fwd["model.save_params"] * ms,
            "training.batch_loss.fwd_ms": fwd["training.batch_loss"] * ms,
            "training.batch_loss.bwd_ms": self.bwd_inclusive["training.batch_loss"] * ms,
            "training.train_epoch.ms": fwd["training.train_epoch"] * ms,
            "training.optimizer.ms": fwd["training.optimizer"] * ms,
            "training.evaluate.ms": fwd["training.evaluate"] * ms,
            "training.ten_fold_cv.ms": fwd["training.ten_fold_cv"] * ms,
            "training.ten_fold_cv.worker_busy_share": busy_share,
            "data.load_dataset.ms": fwd["data.load_dataset"] * ms,
            "data.build_segments.ms": fwd["data.build_segments"] * ms,
            "data.segments": sum(s.info["segments"] for s in self.spans
                                 if s.name == "data.build_segments"),
            "cli.export.savetxt_ms": fwd["cli.export.savetxt"] * ms,
            "cli.export.files": calls["cli.export.savetxt"],
            "trace.step_ms": step_s * ms,
            "trace.extractor_share": extractor_s / step_s if step_s else 0.0,
            "trace.graph_share": graph_s / step_s if step_s else 0.0,
            "trace.traced_wall_ms": wall_s * ms,
            "trace.unattributed_ms": (wall_s - attributed) * ms,
            "trace.bookkeeping_ms": self.bookkeeping * ms,
        })
        spans = [
            {"id": i, "name": s.name, "start": s.start, "end": s.end,
             "parent": s.parent, "run_id": s.run_id}
            for i, s in enumerate(self.spans)
        ]
        return {"metrics": metrics, "spans": spans, "step_scope": scope}
