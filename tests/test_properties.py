"""Property tests: window starts against an exact enumeration, the
parameter file's round trip and its refusal of corrupted bytes, and the
in-place row order of a training epoch.

Examples are derandomized, so every run checks the same cases and a failure
replays."""

import math
import os
import tempfile
from fractions import Fraction

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hybridgnn import data as dat
from hybridgnn import model as mdl
from hybridgnn import training as tr

from test_data import zscored

REPLAY = settings(derandomize=True, deadline=None)


# --- window starts -------------------------------------------------------------


def exact_starts(total, window, stride):
    """Oracle: walk the exact offsets k * stride while a full window fits."""
    starts, k = [], 0
    while k * stride <= total - window:
        starts.append(math.floor(k * stride))
        k += 1
    return starts


@REPLAY
@given(
    eighths=st.integers(1, 32),  # window_s = eighths / 8, exact in binary
    rate=st.integers(1, 16),  # fs = 8 * rate, so the window is eighths * rate samples
    overlap=st.floats(0.0, 0.95),
    total=st.integers(0, 600),
    n=st.integers(1, 3),
)
@example(eighths=8, rate=16, overlap=0.3, total=600, n=2)  # a stride of 89.6 samples
@example(eighths=1, rate=2, overlap=0.75, total=5, n=1)  # a stride of half a sample: refused
def test_window_starts_match_exact_enumeration(eighths, rate, overlap, total, n):
    window_s, fs = eighths / 8, 8.0 * rate
    rec = dat.Recording("s", "MDD", fs, np.random.default_rng(total).normal(size=(n, total)),
                        [f"c{i}" for i in range(n)])
    window = eighths * rate
    # the overlap as the decimal it prints as, as segment_recording takes it
    stride = window * (1 - Fraction(str(overlap)))
    if stride < 1:
        # windows would repeat a start, so the overlap is refused
        with pytest.raises(dat.WindowStrideError, match="windows would repeat"):
            dat.segment_recording(rec, window_s, overlap)
        return
    starts = dat.segment_recording(rec, window_s, overlap)
    assert starts == exact_starts(total, window, stride)
    if not starts:
        assert total < window
        return
    assert (np.diff(starts) >= 1).all()  # strictly increasing
    assert starts[-1] + window <= total  # the last window fits
    assert len(starts) * stride > total - window  # and the next one would not
    ss = dat.build_segments([rec], window_s, overlap)
    assert ss.x.shape == (len(starts), n, window)
    for row, start in zip(ss.x, starts):
        npt.assert_array_equal(row, zscored(rec.signal[:, start : start + window]))
    assert list(ss.y) == [1] * len(starts) and list(ss.subjects) == ["s"] * len(starts)


# --- params.bin ------------------------------------------------------------------


@st.composite
def small_configs(draw):
    n_channels = draw(st.integers(1, 4))
    feature_dim = draw(st.integers(1, 3))
    hidden = draw(st.integers(1, 3))
    return mdl.ModelConfig(
        n_channels=n_channels,
        feature_dim=feature_dim,
        proj_dim=draw(st.integers(1, 3)),
        out_dim=draw(st.integers(1, 3)),
        steps=draw(st.integers(0, 2)),
        region_steps=draw(st.integers(0, 1)),
        n_regions=draw(st.integers(1, n_channels)),
        variant=draw(st.sampled_from(mdl.VARIANTS)),
        classifier_hidden=draw(st.integers(0, 2)),
        extractor_layers=((draw(st.integers(1, 5)), draw(st.integers(1, 3)), 1, hidden),
                          (draw(st.integers(1, 3)), 1, hidden, feature_dim)),
    )


def _saved(config, seed):
    """The bytes `save_params` writes for a fresh model of `config`."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "params.bin")
        mdl.save_params(path, mdl.init_model(config, seed), config)
        with open(path, "rb") as fh:
            return fh.read()


def _load(blob):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "params.bin")
        with open(path, "wb") as fh:
            fh.write(blob)
        return mdl.load_params(path)


@REPLAY
@given(config=small_configs(), seed=st.integers(0, 2**32 - 1))
def test_params_round_trip_bit_exact(config, seed):
    params = mdl.init_model(config, seed)
    loaded, loaded_config = _load(_saved(config, seed))
    assert loaded_config == config
    assert list(loaded) == list(params) == list(mdl.param_shapes(config))
    for name, node in params.items():
        assert loaded[name].value.tobytes() == node.value.tobytes()


CORRUPT_CONFIG = mdl.ModelConfig(
    n_channels=3, feature_dim=2, proj_dim=2, out_dim=2, n_regions=2, classifier_hidden=2,
    extractor_layers=((3, 2, 1, 2), (2, 1, 2, 2)),
)
CORRUPT_BLOB = _saved(CORRUPT_CONFIG, 0)
# the same file in format version 1: version field 1, no CRC-32
CORRUPT_BLOBS = {2: CORRUPT_BLOB, 1: CORRUPT_BLOB[:4] + (1).to_bytes(4, "little") + CORRUPT_BLOB[8:-4]}
CORRUPT_SHAPES = mdl.param_shapes(CORRUPT_CONFIG)


@REPLAY
@given(
    version=st.sampled_from((1, 2)),
    position=st.integers(0, len(CORRUPT_BLOB) - 1),
    value=st.integers(0, 255),
)
@example(version=2, position=4, value=1)  # read as version 1, the CRC-32 trails the payload
@example(version=1, position=4, value=2)  # read as version 2, the payload's end is no CRC-32
@example(version=2, position=15, value=255)  # the top byte of the header length
@example(version=2, position=len(CORRUPT_BLOB) - 1, value=0)  # the CRC-32 itself
def test_params_file_with_one_changed_byte_loads_intact_or_is_refused(version, position, value):
    # a ParamsFileError is the only exception allowed to leave load_params;
    # a version-2 file refuses every changed byte, as a CRC-32 detects them all
    blob = bytearray(CORRUPT_BLOBS[version])
    position %= len(blob)
    changed = blob[position] != value
    blob[position] = value
    try:
        loaded, _config = _load(bytes(blob))
    except mdl.ParamsFileError:
        return
    assert not (version == 2 and changed), f"byte {position} changed to {value} and the file loaded"
    assert [(name, node.value.shape) for name, node in loaded.items()] == list(CORRUPT_SHAPES.items())


@REPLAY
@given(length=st.integers(0, len(CORRUPT_BLOB) - 1))
def test_truncated_params_file_is_refused(length):
    try:
        _load(CORRUPT_BLOB[:length])
    except mdl.ParamsCorruptError:
        return
    raise AssertionError(f"a file cut to {length} of {len(CORRUPT_BLOB)} bytes loaded")


# --- in-place row order ----------------------------------------------------------


@REPLAY
@given(order=st.integers(1, 12).flatmap(lambda n: st.permutations(range(n))))
@example(order=list(range(7)))  # the identity
@example(order=[*range(1, 9), 0])  # one cycle through every row
@example(order=[1, 0, 3, 2, 5, 4, 7, 6])  # only 2-cycles
def test_rows_permuted_in_place_match_fancy_indexing(order):
    order = np.array(order, dtype=np.intp)
    rng = np.random.default_rng(len(order))
    x, y = rng.normal(size=(len(order), 3, 5)), rng.integers(0, 2, len(order))
    x_orig, y_orig = x.copy(), y.copy()
    tr._permute_rows((x, y), order)
    assert (x.tobytes(), y.tobytes()) == (x_orig[order].tobytes(), y_orig[order].tobytes())
    tr._permute_rows((x, y), np.argsort(order))
    assert (x.tobytes(), y.tobytes()) == (x_orig.tobytes(), y_orig.tobytes())
