"""Dataset format, segmentation, and synthetic generator tests."""

import json
import os
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from hybridgnn import data as dat
from hybridgnn import extractor as ex


def zscored(w):
    """Reference for a window as a segment set reads it: each electrode's
    (w - mean) / max(std, Z_SCORE_STD_FLOOR), computed apart from the package."""
    mean = w.mean(axis=-1, keepdims=True)
    std = w.std(axis=-1, keepdims=True)
    return (w - mean) / np.maximum(std, ex.Z_SCORE_STD_FLOOR)


def _recording(seconds=300.0, fs=100.0, n=3, subject="s1", label="HC", seed=0):
    rng = np.random.default_rng(seed)
    return dat.Recording(
        subject_id=subject,
        label=label,
        sampling_rate=fs,
        signal=rng.normal(size=(n, int(seconds * fs))),
        channel_names=[f"c{i}" for i in range(n)],
    )


def enumerate_windows(total, window, stride_samples):
    # oracle: walk offsets until a full window no longer fits
    count, k = 0, 0
    while k * stride_samples <= total - window:
        count += 1
        k += 1
    return count


# --- segmentation --------------------------------------------------------------


def test_modma_style_counts():
    rec = _recording(300.0, 100.0)
    assert len(dat.segment_recording(rec, 4.0, 0.75)) == 297


def test_non_overlapping_counts():
    rec = _recording(300.0, 100.0)
    assert len(dat.segment_recording(rec, 4.0, 0.0)) == 75


def test_too_short_recording_is_empty_not_error():
    rec = _recording(3.0, 100.0)
    assert dat.segment_recording(rec, 4.0, 0.75) == []


def test_non_positive_window_rejected():
    rec = _recording(10.0, 32.0)
    for window_s in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(dat.DatasetError, match="window_s must be > 0"):
            dat.segment_recording(rec, window_s, 0.0)


def test_non_integral_window_rejected():
    rec = _recording(10.0, 7.0)
    with pytest.raises(dat.DatasetError, match="7"):
        dat.segment_recording(rec, 0.3, 0.0)


def test_decimal_window_is_a_whole_number_of_samples():
    # 0.3 s at 250 Hz is 75 samples; the binary value nearest 0.3, times 250,
    # is not a whole number
    rec = _recording(2.0, 250.0)
    starts = dat.segment_recording(rec, 0.3, 0.0)
    assert starts == list(range(0, 426, 75))
    assert dat.build_segments([rec], 0.3, 0.0).shape == (len(starts), 3, 75)


@pytest.mark.parametrize("overlap", [0.1, np.float64(0.1)], ids=["float", "numpy_float"])
def test_decimal_overlap_strides_whole_samples(overlap):
    # 10 % overlap of 100-sample windows is a stride of 90 samples: windows
    # start at 0, 90, 180, ..., not at the floors 0, 89, 179, ... of the
    # stride that the binary value nearest 0.1 gives
    rec = _recording(10.0, 100.0)
    assert dat.segment_recording(rec, 1.0, overlap) == list(range(0, 901, 90))


def test_counts_match_enumeration_oracle():
    rng = np.random.default_rng(0)
    for _ in range(60):
        fs = float(rng.integers(10, 200))
        window_s = float(rng.integers(1, 6))
        overlap = float(rng.choice([0.0, 0.25, 0.5, 0.75]))
        seconds = float(rng.integers(1, 60))
        rec = _recording(seconds, fs, n=2, seed=int(rng.integers(1 << 30)))
        segs = dat.segment_recording(rec, window_s, overlap)
        window = int(window_s * fs)
        stride = window * (1 - overlap)
        expected = enumerate_windows(rec.signal.shape[1], window, stride)
        assert len(segs) == expected


def test_overlapping_segments_share_exact_samples():
    fs = 128.0
    rec = _recording(20.0, fs)
    starts = dat.segment_recording(rec, 4.0, 0.75)
    shared = round(0.75 * 4.0 * fs)
    window = int(4.0 * fs)
    assert all(b - a == window - shared for a, b in zip(starts, starts[1:]))
    x = dat.build_segments([rec], 4.0, 0.75).x
    # each row is its own window of the signal, z-scored per electrode
    for row, start in zip(x, starts):
        npt.assert_array_equal(row, zscored(rec.signal[:, start : start + window]))


def test_segments_carry_subject_and_offsets():
    rec = _recording(12.0, 50.0, subject="patient9", label="MDD")
    assert dat.segment_recording(rec, 4.0, 0.5) == [0, 100, 200, 300, 400]
    ss = dat.build_segments([rec], 4.0, 0.5)
    assert list(ss.subjects) == ["patient9"] * 5
    assert ss.y.dtype == np.int64 and list(ss.y) == [1] * 5


def test_segment_rows_are_copies_of_the_signal_windows():
    recs = [
        _recording(20.0, 64.0, subject="a", label="MDD", seed=1),
        _recording(9.0, 64.0, subject="b", label="HC", seed=2),
        _recording(13.0, 64.0, subject="c", label="MDD", seed=3),
    ]
    ss = dat.build_segments(recs, 4.0, 0.5)
    rows = [(rec, s) for rec in recs for s in dat.segment_recording(rec, 4.0, 0.5)]
    assert ss.x.shape == (len(rows), 3, 256)
    for row, (rec, start) in zip(ss.x, rows):
        npt.assert_array_equal(row, zscored(rec.signal[:, start : start + 256]))
    assert not np.shares_memory(ss.x, recs[0].signal)
    assert list(ss.subjects) == [rec.subject_id for rec, _ in rows]
    assert list(ss.y) == [dat.LABEL_INDEX[rec.label] for rec, _ in rows]


def test_build_segments_copies_each_window_once():
    # 180 windows of 19 x 1024 at 75 % overlap: building the set copies no
    # window, reading x copies each once, and the z-score in place adds no
    # temporary near the size of the set
    recs = [
        dat.Recording(f"s{i}", "HC", 256.0, np.random.default_rng(i).normal(size=(19, 16128)),
                      [f"c{j}" for j in range(19)])
        for i in range(3)
    ]
    tracemalloc.start()
    try:
        ss = dat.build_segments(recs, 4.0, 0.75)
        built = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        x = ss.x
        peak = tracemalloc.get_traced_memory()[1] - built
    finally:
        tracemalloc.stop()
    assert ss.shape == x.shape == (180, 19, 1024) and x.flags.c_contiguous
    assert built < 64 * 1024, f"build_segments allocated {built} B"
    assert peak < 1.25 * x.nbytes, f"peak {peak} B for {x.nbytes} B of segments"


@pytest.mark.parametrize("rows", [
    3, -1, slice(None), slice(2, 9), slice(None, None, -3), [7, 0, 7, 12],
    np.arange(13) % 3 == 0, [], slice(5, 5),
], ids=["int", "negative_int", "all", "slice", "step", "index_array", "mask",
        "empty_list", "empty_slice"])
def test_segment_rows_are_read_from_the_recordings(rows):
    recs = [
        _recording(10.0, 32.0, subject="a", label="MDD", seed=1),
        _recording(9.0, 32.0, subject="b", label="HC", seed=2),
    ]
    ss = dat.build_segments(recs, 4.0, 0.75)
    windows = [rec.signal[:, s : s + 128] for rec in recs for s in dat.segment_recording(rec, 4.0, 0.75)]
    assert len(ss) == len(windows) == 13
    expected = np.array([zscored(w) for w in windows])[rows]
    got = ss[rows]
    assert got.dtype == np.float64 and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()
    assert got.tobytes() == ss.x[rows].tobytes()
    assert not any(np.shares_memory(got, rec.signal) for rec in recs)


# --- manifest format -----------------------------------------------------------


def test_save_load_roundtrip_bit_exact(tmp_path):
    recs = [
        _recording(10.0, 64.0, subject="a", label="HC", seed=1),
        _recording(10.0, 64.0, subject="b", label="MDD", seed=2),
    ]
    manifest = dat.save_dataset(recs, str(tmp_path))
    loaded = dat.load_dataset(manifest)
    assert len(loaded) == 2
    for orig, back in zip(recs, loaded):
        assert orig.subject_id == back.subject_id
        assert orig.label == back.label
        assert orig.sampling_rate == back.sampling_rate
        assert orig.channel_names == back.channel_names
        npt.assert_array_equal(orig.signal, back.signal)
    # second save of the loaded data produces identical signal files
    manifest2 = dat.save_dataset(loaded, str(tmp_path / "again"))
    for name in os.listdir(tmp_path):
        if name.endswith(".f64"):
            a = open(tmp_path / name, "rb").read()
            b = open(tmp_path / "again" / name, "rb").read()
            assert a == b


def test_missing_manifest_and_data_file(tmp_path):
    with pytest.raises(dat.DataFileMissingError):
        dat.load_dataset(str(tmp_path / "nope.json"))
    manifest = dat.save_dataset([_recording(5.0, 50.0)], str(tmp_path))
    os.remove(tmp_path / "s1.f64")
    with pytest.raises(dat.DataFileMissingError):
        dat.load_dataset(manifest)


def test_size_mismatch_detected(tmp_path):
    manifest = dat.save_dataset([_recording(5.0, 50.0)], str(tmp_path))
    blob = open(tmp_path / "s1.f64", "rb").read()
    open(tmp_path / "s1.f64", "wb").write(blob[:-8])
    with pytest.raises(dat.DataSizeMismatchError):
        dat.load_dataset(manifest)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_sample_names_file_channel_and_index(tmp_path, bad):
    manifest = dat.save_dataset([_recording(5.0, 50.0, n=3)], str(tmp_path))
    signal = np.fromfile(tmp_path / "s1.f64", "<f8").reshape(3, 250)
    signal[1, 40] = signal[2, 7] = bad  # the first in file order is channel c1, index 40
    signal.tofile(tmp_path / "s1.f64")
    with pytest.raises(dat.NonFiniteSampleError, match=r"s1\.f64: channel 'c1' .* at index 40$"):
        dat.load_dataset(manifest)


def test_duplicate_subject_rejected(tmp_path):
    recs = [_recording(5.0, 50.0, subject="dup"), _recording(5.0, 50.0, subject="dup", seed=9)]
    with pytest.raises(dat.DuplicateSubjectError):
        manifest = dat.save_dataset(recs, str(tmp_path))
        dat.load_dataset(manifest)


def test_same_subject_distinct_sessions_allowed(tmp_path):
    eyes_open = _recording(5.0, 50.0, subject="s7")
    eyes_open.session = "EO"
    eyes_closed = _recording(5.0, 50.0, subject="s7", seed=3)
    eyes_closed.session = "EC"
    manifest = dat.save_dataset([eyes_open, eyes_closed], str(tmp_path))
    loaded = dat.load_dataset(manifest)
    assert [r.session for r in loaded] == ["EO", "EC"]
    assert {r.subject_id for r in loaded} == {"s7"}


def test_unknown_label_rejected(tmp_path):
    manifest = dat.save_dataset([_recording(5.0, 50.0)], str(tmp_path))
    entries = json.load(open(manifest))
    entries[0]["label"] = "SCZ"
    json.dump(entries, open(manifest, "w"))
    with pytest.raises(dat.UnknownLabelError):
        dat.load_dataset(manifest)
    with pytest.raises(dat.UnknownLabelError):
        _recording(5.0, 50.0, label="SCZ")


def test_missing_manifest_key_names_entry_and_key(tmp_path):
    recs = [_recording(5.0, 50.0, subject="a"), _recording(5.0, 50.0, subject="b", seed=1)]
    manifest = dat.save_dataset(recs, str(tmp_path))
    entries = json.load(open(manifest))
    for key in dat.MANIFEST_KEYS:
        broken = [dict(e) for e in entries]
        del broken[1][key]
        json.dump(broken, open(manifest, "w"))
        with pytest.raises(dat.ManifestKeyError, match=f"entry 1.*{key!r}") as info:
            dat.load_dataset(manifest)
        assert ("'b'" in str(info.value)) == (key != "subject_id")
    json.dump([entries[0], "b.f64"], open(manifest, "w"))
    with pytest.raises(dat.DatasetError, match="entry 1 is not a JSON object"):
        dat.load_dataset(manifest)


# --- synthetic generator ---------------------------------------------------------


def test_synth_is_deterministic():
    a = dat.synth_generate(3, 8.0, n_channels=5, fs=64.0, seed=21)
    b = dat.synth_generate(3, 8.0, n_channels=5, fs=64.0, seed=21)
    for ra, rb in zip(a, b):
        assert ra.subject_id == rb.subject_id
        npt.assert_array_equal(ra.signal, rb.signal)
    c = dat.synth_generate(3, 8.0, n_channels=5, fs=64.0, seed=22)
    assert not np.array_equal(a[0].signal, c[0].signal)


def test_synth_shapes():
    recs = dat.synth_generate(1, 60.0, n_channels=19, fs=256.0, seed=0)
    assert recs[0].signal.shape == (19, 15360)
    assert len(recs) == 2 and {r.label for r in recs} == {"HC", "MDD"}


def test_synth_frontal_correlation_gap():
    recs = dat.synth_generate(10, 30.0, n_channels=19, fs=128.0, seed=5)
    n_front = dat.frontal_channels(19)

    def mean_pair_corr(rec):
        c = np.corrcoef(rec.signal[:n_front])
        return c[np.triu_indices(n_front, 1)].mean()

    hc = np.mean([mean_pair_corr(r) for r in recs if r.label == "HC"])
    mdd = np.mean([mean_pair_corr(r) for r in recs if r.label == "MDD"])
    assert hc - mdd > 0.2


def test_synth_rejects_bad_arguments():
    with pytest.raises(ValueError):
        dat.synth_generate(0, 10.0)
    with pytest.raises(ValueError):
        dat.synth_generate(2, -1.0)
    with pytest.raises(ValueError, match="finite"):
        dat.synth_generate(2, float("inf"))
    with pytest.raises(ValueError, match="finite"):
        dat.synth_generate(2, 10.0, fs=float("inf"))
    # sizes whose product overflows, or rounds below two samples
    for seconds, fs in ((1e200, 1e200), (1.0, 1.0), (0.5, 1.0), (0.01, 10.0)):
        with pytest.raises(ValueError, match="need a finite count of at least 2"):
            dat.synth_generate(2, seconds, fs=fs)
    for rec in dat.synth_generate(1, 2.0, n_channels=2, fs=1.0):
        assert rec.signal.shape == (2, 2) and np.isfinite(rec.signal).all()


# --- segment sets ----------------------------------------------------------------


def test_segment_set_grouping_integrity():
    recs = dat.synth_generate(2, 12.0, n_channels=4, fs=32.0, seed=1)
    ss = dat.build_segments(recs, 4.0, 0.0)
    assert len(ss) == 4 * 3
    for rec in recs:
        mask = ss.subjects == rec.subject_id
        assert mask.sum() == 3
        assert set(ss.y[mask]) == {dat.LABEL_INDEX[rec.label]}


def test_segment_set_rejects_mixed_shapes():
    three = _recording(5.0, 10.0, n=3, subject="x")
    four = _recording(5.0, 10.0, n=4, subject="y")
    with pytest.raises(dat.DatasetError, match="mixed"):
        dat.build_segments([three, four], 1.0, 0.0)
    with pytest.raises(dat.DatasetError, match="no segments"):
        dat.build_segments([], 1.0, 0.0)
    with pytest.raises(dat.DatasetError, match="no segments"):
        dat.build_segments([three, four], 6.0, 0.0)  # both shorter than one window
