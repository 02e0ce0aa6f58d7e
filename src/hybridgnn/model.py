"""Full dual-branch model: extractor, graph branches, region pooling, head.

Each branch is the same block over a different graph: the common branch uses
one learned adjacency shared by all inputs, the individualized branch builds
an adjacency per input, and either block can add region pooling. Ablation
variants a..e plus the default "full" arrangement (pooling on the
individualized branch only) switch branches and pooling on or off, which
fixes the parameter groups; `param_shapes` derives every tensor's name and
shape from the config alone.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from .extractor import ExtractorParams, default_extractor_layers, extract_features
from .gcn import gcn_propagate
from .graphs import common_adjacency, individual_adjacency, normalize_adjacency
from .pooling import assignment_matrix, pool, region_conv, unpool
from .rng import substream

N_CLASSES = 2

VARIANTS = ("a", "b", "c", "d", "e", "full")

# which structural pieces each variant trains
_VARIANT_LAYOUT = {
    "a": {"common": True, "inst": False, "pool_inst": False, "pool_common": False},
    "b": {"common": False, "inst": True, "pool_inst": False, "pool_common": False},
    "c": {"common": True, "inst": True, "pool_inst": False, "pool_common": False},
    "d": {"common": True, "inst": True, "pool_inst": False, "pool_common": True},
    "e": {"common": True, "inst": True, "pool_inst": True, "pool_common": True},
    "full": {"common": True, "inst": True, "pool_inst": True, "pool_common": False},
}


@dataclass(frozen=True)
class ModelConfig:
    n_channels: int = 19
    feature_dim: int = 32  # per-electrode features out of the extractor
    proj_dim: int = 16  # width of the bilinear similarity projections
    out_dim: int = 16  # per-branch graph convolution output width
    steps: int = 2  # propagation steps L in each branch
    region_steps: int = 1  # propagation steps L' at region level
    n_regions: int = 5
    variant: str = "full"
    classifier_hidden: int = 0  # 0 = linear head
    inst_softmax_axis: str = "col"  # adjacency normalization axis ("col" or "row")
    extractor_layers: tuple = None  # defaults derived from feature_dim

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")
        if min(self.n_channels, self.feature_dim, self.proj_dim, self.out_dim) < 1:
            raise ValueError("n_channels, feature_dim, proj_dim, out_dim must be positive")
        if self.steps < 0 or self.region_steps < 0:
            raise ValueError("steps and region_steps must be >= 0")
        if self.classifier_hidden < 0:
            raise ValueError("classifier_hidden must be >= 0")
        if self.n_regions < 1 or self.n_regions > self.n_channels:
            raise ValueError(f"n_regions must be in [1, n_channels], got {self.n_regions}")
        if self.inst_softmax_axis not in ("col", "row"):
            raise ValueError(f"inst_softmax_axis must be 'col' or 'row', got {self.inst_softmax_axis!r}")
        layers = self.extractor_layers
        if layers is None:
            layers = default_extractor_layers(self.feature_dim)
        layers = tuple(tuple(int(v) for v in spec) for spec in layers)
        if not layers:
            raise ValueError("extractor_layers must hold at least one layer")
        prev_out = 1  # the extractor's input is one sample per time step
        for i, (k, stride, c_in, c_out) in enumerate(layers):
            if c_in != prev_out:
                raise ValueError(f"extractor layer {i}: in_channels {c_in} does not chain from {prev_out}")
            if min(k, stride, c_out) < 1:
                raise ValueError(f"extractor layer {i}: kernel, stride and out_channels must be >= 1")
            prev_out = c_out
        if prev_out != self.feature_dim:
            raise ValueError(
                f"last extractor layer emits {prev_out} channels, expected feature_dim={self.feature_dim}"
            )
        object.__setattr__(self, "extractor_layers", layers)

    @property
    def layout(self) -> dict:
        return _VARIANT_LAYOUT[self.variant]

    @property
    def head_input_dim(self) -> int:
        return 2 * self.out_dim if (self.layout["common"] and self.layout["inst"]) else self.out_dim

    def to_dict(self) -> dict:
        return {**asdict(self), "extractor_layers": [list(s) for s in self.extractor_layers]}

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        d = dict(d)
        if d.get("extractor_layers") is not None:
            d["extractor_layers"] = tuple(tuple(s) for s in d["extractor_layers"])
        return cls(**d)


def param_shapes(config: ModelConfig) -> dict:
    """Name -> shape of every tensor the config trains, in parameter order.

    This is the one place that knows the tensors' names, shapes and order:
    `init_model`, `bind_params`, `load_params` and `save_params` all follow it.
    """
    f, d, layout = config.feature_dim, config.out_dim, config.layout
    shapes = {}
    for i, (k, _stride, c_in, c_out) in enumerate(config.extractor_layers):
        shapes[f"extractor.{i}.w"] = (k, c_in, c_out)
        shapes[f"extractor.{i}.b"] = (c_out,)
    if layout["common"]:
        shapes["common_adj.raw"] = (config.n_channels, config.n_channels)
        shapes.update({f"cgnn.{l}": (f, d) for l in range(config.steps + 1)})
    if layout["inst"]:
        shapes["inst_adj.w1"] = (f, config.proj_dim)
        shapes["inst_adj.w2"] = (f, config.proj_dim)
        shapes.update({f"ignn.{l}": (f, d) for l in range(config.steps + 1)})
    for tag in ("pool_inst", "pool_common"):
        if layout[tag]:
            shapes[f"{tag}.proj"] = (f, config.n_regions)
            shapes.update({f"{tag}.region.{l}": (f, d) for l in range(config.region_steps + 1)})
    width = config.head_input_dim
    if config.classifier_hidden > 0:
        shapes["head.hidden_w"] = (width, config.classifier_hidden)
        shapes["head.hidden_b"] = (config.classifier_hidden,)
        width = config.classifier_hidden
    shapes["head.w"] = (width, N_CLASSES)
    shapes["head.b"] = (N_CLASSES,)
    return shapes


def glorot(rng: np.random.Generator, shape, fan_in: int, fan_out: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


def init_model(config: ModelConfig, seed: int) -> dict:
    """Fresh parameters, name -> node in `param_shapes` order.

    Each group (the name up to its first ".") draws from its own stream
    `substream(seed, "init", group)`, in name order. Biases (1-D) start at
    zero, the raw common adjacency is uniform [0, 0.05], extractor kernels
    (k, c_in, c_out) are Glorot-uniform with fans c_in*k and c_out*k, and
    every other matrix is Glorot-uniform over its two dimensions.
    """
    streams = {}
    params = {}
    for name, shape in param_shapes(config).items():
        group = name.split(".")[0]
        if group not in streams:
            streams[group] = substream(seed, "init", group)
        gen = streams[group]
        if len(shape) == 1:
            value = np.zeros(shape)
        elif name == "common_adj.raw":
            value = gen.uniform(0.0, 0.05, size=shape)
        elif len(shape) == 3:
            k, c_in, c_out = shape
            value = glorot(gen, shape, c_in * k, c_out * k)
        else:
            value = glorot(gen, shape, *shape)
        params[name] = ad.param(value)
    return params


def bind_params(config: ModelConfig, nodes: list) -> dict:
    """Parameters whose tensors ARE the given nodes.

    Nodes must match `param_shapes(config)` in order and shape; used by
    gradient checking, which supplies its own leaf nodes.
    """
    shapes = param_shapes(config)
    if len(nodes) != len(shapes):
        raise ValueError(f"expected {len(shapes)} tensors, got {len(nodes)}")
    for (name, shape), node in zip(shapes.items(), nodes):
        if node.value.shape != shape:
            raise ValueError(f"tensor {name}: shape {node.value.shape} != {shape}")
    return dict(zip(shapes, nodes))


def _stack(params: dict, prefix: str, steps: int) -> list:
    """The propagation weights `prefix`.0 .. `prefix`.`steps`."""
    return [params[f"{prefix}.{l}"] for l in range(steps + 1)]


def _head(y_all: ad.Node, params: dict) -> ad.Node:
    """relu, mean over the channel axis, linear stack, softmax."""
    h = ad.mean(ad.relu(y_all), axis=-2)
    if "head.hidden_w" in params:
        h = ad.relu(ad.add(ad.matmul(h, params["head.hidden_w"]), params["head.hidden_b"]))
    logits = ad.add(ad.matmul(h, params["head.w"]), params["head.b"])
    return ad.softmax(logits, axis=-1)


def forward_batch(segments: np.ndarray, params: dict, config: ModelConfig):
    """Run the model on a (B, N, T_s) stack of segments.

    Returns (probs node of shape (B, C), diagnostics dict with graph nodes:
    "adj_inst" when the individualized branch exists and "assign" as the
    list of assignment matrices, individualized branch first).
    """
    segments = np.asarray(segments, dtype=np.float64)
    if segments.ndim != 3 or segments.shape[1] != config.n_channels:
        raise ValueError(
            f"expected segments shaped (B, {config.n_channels}, T), got {segments.shape}"
        )
    layout = config.layout
    extractor = ExtractorParams([
        (spec, params[f"extractor.{i}.w"], params[f"extractor.{i}.b"])
        for i, spec in enumerate(config.extractor_layers)
    ])
    feats = extract_features(segments, extractor)  # (B, N, F_d)

    diag = {"adj_inst": None, "assign": []}
    branches = []  # (raw adjacency, propagation group, pooling group)
    if layout["inst"]:
        adj_inst = individual_adjacency(
            feats, params["inst_adj.w1"], params["inst_adj.w2"], config.inst_softmax_axis
        )
        diag["adj_inst"] = adj_inst
        branches.append((adj_inst, "ignn", "pool_inst"))
    if layout["common"]:
        branches.append((common_adjacency(params["common_adj.raw"]), "cgnn", "pool_common"))

    outputs = []
    for adj, gnn, pooling in branches:
        adj_hat = normalize_adjacency(adj)
        y = gcn_propagate(adj_hat, feats, _stack(params, gnn, config.steps))
        if layout[pooling]:
            assign = assignment_matrix(adj_hat, feats, params[f"{pooling}.proj"])
            adj_r, feats_r = pool(assign, adj, feats)
            region = _stack(params, f"{pooling}.region", config.region_steps)
            y = ad.add(y, unpool(assign, region_conv(adj_r, feats_r, region)))
            diag["assign"].append(assign)
        outputs.append(y)
    y_all = outputs[0] if len(outputs) == 1 else ad.concat(outputs, axis=-1)
    return _head(y_all, params), diag


def forward(segment: np.ndarray, params: dict, config: ModelConfig):
    """Single-segment forward: (N, T_s) -> (class probs (C,), diagnostics arrays)."""
    segment = np.asarray(segment, dtype=np.float64)
    if segment.ndim != 2:
        raise ValueError(f"expected one (N, T) segment, got shape {segment.shape}")
    probs, diag = forward_batch(segment[None], params, config)
    out_diag = {
        "adj_inst": None if diag["adj_inst"] is None else diag["adj_inst"].value[0],
        "assign": [a.value[0] for a in diag["assign"]],
    }
    return probs.value[0], out_diag


# ---------------------------------------------------------------------------
# parameter file format (documented in README): little-endian throughout,
#   magic "HGNP" | u32 version | u64 header length | header JSON | payload
# header JSON = {"config": ..., "tensors": [{"name", "shape", "offset"}, ...]}
# payload = concatenated row-major float64 tensor data.
# ---------------------------------------------------------------------------

MAGIC = b"HGNP"
FORMAT_VERSION = 1


class ParamsFileError(ValueError):
    """Base class for parameter-file problems."""


class ParamsCorruptError(ParamsFileError):
    """File is not a parameter file or is truncated/damaged."""


class ParamsVersionError(ParamsFileError):
    """File uses an unsupported format version."""


class ParamsShapeError(ParamsFileError):
    """Tensor table disagrees with the embedded model config."""


def save_params(path: str, params: dict, config: ModelConfig) -> None:
    """Atomically write params + config; round-trips bit-exactly."""
    table = []
    offset = 0
    chunks = []
    for name in param_shapes(config):
        arr = np.ascontiguousarray(params[name].value, dtype="<f8")
        table.append({"name": name, "shape": list(arr.shape), "offset": offset})
        chunks.append(arr.tobytes())
        offset += arr.nbytes
    header = json.dumps({"config": config.to_dict(), "tensors": table}).encode("utf-8")
    blob = MAGIC + struct.pack("<I", FORMAT_VERSION) + struct.pack("<Q", len(header)) + header
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(blob)
        for chunk in chunks:
            fh.write(chunk)
    os.replace(tmp, path)


def load_params(path: str):
    """Read a parameter file; returns (params dict, its embedded ModelConfig).

    Raises ParamsVersionError / ParamsShapeError / ParamsCorruptError as
    distinct failures; never returns partially loaded state.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < len(MAGIC) + 12 or data[: len(MAGIC)] != MAGIC:
        raise ParamsCorruptError(f"{path}: not a parameter file")
    pos = len(MAGIC)
    (version,) = struct.unpack_from("<I", data, pos)
    pos += 4
    if version != FORMAT_VERSION:
        raise ParamsVersionError(f"{path}: format version {version}, expected {FORMAT_VERSION}")
    (header_len,) = struct.unpack_from("<Q", data, pos)
    pos += 8
    if len(data) < pos + header_len:
        raise ParamsCorruptError(f"{path}: truncated header")
    try:
        header = json.loads(data[pos : pos + header_len].decode("utf-8"))
        config = ModelConfig.from_dict(header["config"])
        table = [(t["name"], tuple(t["shape"]), t["offset"]) for t in header["tensors"]]
    except (ValueError, KeyError, TypeError) as exc:
        raise ParamsCorruptError(f"{path}: unreadable header ({exc})") from None
    pos += header_len

    shapes = param_shapes(config)
    if [name for name, _shape, _offset in table] != list(shapes):
        raise ParamsShapeError(f"{path}: tensor names disagree with embedded config")
    payload = 8 * sum(math.prod(shape) for shape in shapes.values())
    if len(data) - pos < payload:
        raise ParamsCorruptError(f"{path}: truncated payload ({len(data) - pos} of {payload} bytes)")
    if len(data) - pos > payload:
        raise ParamsCorruptError(f"{path}: {len(data) - pos - payload} trailing bytes after the payload")
    nodes = {}
    offset = 0
    for name, shape, file_offset in table:
        if shape != shapes[name]:
            raise ParamsShapeError(f"{path}: tensor {name} has shape {shape}, config implies {shapes[name]}")
        if file_offset != offset:
            raise ParamsCorruptError(f"{path}: tensor {name} at offset {file_offset}, expected {offset}")
        count = math.prod(shape)
        nodes[name] = ad.param(np.frombuffer(data, "<f8", count, pos + offset).reshape(shape).copy())
        offset += 8 * count
    return nodes, config
