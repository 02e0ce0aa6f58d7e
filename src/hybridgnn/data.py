"""Dataset loading, windowing, and the synthetic verification generator.

On-disk format: a JSON manifest (array of entries) next to raw binary signal
files. Each entry carries subject_id, label ("MDD" or "HC"), sampling_rate,
channels (names), n_samples, data_file, and an optional session tag so one
subject may contribute several recordings (they are regrouped by subject at
cross-validation time). Signal files are row-major little-endian float64 of
shape (len(channels), n_samples).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .rng import substream

LABEL_INDEX = {"HC": 0, "MDD": 1}


class DatasetError(ValueError):
    """Base class for dataset-format problems."""


class DataFileMissingError(DatasetError):
    pass


class DataSizeMismatchError(DatasetError):
    pass


class DuplicateSubjectError(DatasetError):
    pass


class UnknownLabelError(DatasetError):
    pass


class ManifestKeyError(DatasetError):
    """A manifest entry lacks a required key."""


class NonFiniteSampleError(DatasetError):
    """A signal file holds a NaN or an infinite sample."""


class ManifestValueError(DatasetError):
    """A manifest value has the wrong type or range, or an entry's channels or
    sampling rate differ from the first entry's."""


class WindowStrideError(DatasetError):
    """The overlap leaves a window stride under one sample, so windows would
    repeat."""


MANIFEST_NAME = "manifest.json"
MANIFEST_KEYS = ("subject_id", "label", "sampling_rate", "channels", "n_samples", "data_file")

# what each manifest value must be: (test, description for the error)
_STRING = (lambda v: isinstance(v, str), "a string")
_MANIFEST_VALUES = {
    "subject_id": _STRING,
    "label": _STRING,
    "sampling_rate": (
        lambda v: type(v) in (int, float) and math.isfinite(v) and v > 0, "a positive number"
    ),
    "channels": (
        lambda v: isinstance(v, list) and v and all(isinstance(c, str) for c in v),
        "a non-empty list of channel names",
    ),
    "n_samples": (lambda v: type(v) is int and v > 0, "a positive integer"),
    "data_file": _STRING,
    "session": _STRING,
}


@dataclass
class Recording:
    subject_id: str
    label: str  # "MDD" or "HC"
    sampling_rate: float
    signal: np.ndarray  # (N, total samples)
    channel_names: list
    session: str = ""

    def __post_init__(self):
        if self.label not in LABEL_INDEX:
            raise UnknownLabelError(f"unknown label {self.label!r} for subject {self.subject_id}")
        if self.sampling_rate <= 0:
            raise DatasetError(f"sampling_rate must be > 0, got {self.sampling_rate}")
        if self.signal.shape[0] != len(self.channel_names):
            raise DatasetError(
                f"subject {self.subject_id}: {self.signal.shape[0]} signal rows vs "
                f"{len(self.channel_names)} channel names"
            )


@dataclass
class SegmentSet:
    """Stacked segments ready for training: x (M, N, T_s), y (M,), subjects (M,)."""

    x: np.ndarray
    y: np.ndarray
    subjects: np.ndarray

    def __len__(self) -> int:
        return len(self.x)


def _window_samples(window_s: float, sampling_rate: float) -> int:
    """Samples in a window of `window_s` seconds; refuses a fractional count."""
    window = Fraction(window_s) * Fraction(sampling_rate)
    if window.denominator != 1:
        raise DatasetError(
            f"window of {window_s}s at {sampling_rate}Hz is not a whole number of samples"
        )
    return int(window)


def segment_recording(rec: Recording, window_s: float, overlap_frac: float) -> list:
    """Start offsets, in samples, of a recording's fixed windows.

    Stride is window_s * (1 - overlap_frac) seconds; windows start at the
    floor of 0, stride, 2*stride, ... (exact in samples) as long as a full
    window fits. Returns [] when the recording is shorter than one window.
    Refuses an overlap whose stride is under one sample (WindowStrideError).
    """
    if not (window_s > 0.0 and math.isfinite(window_s)):
        raise DatasetError(f"window_s must be > 0 and finite, got {window_s}")
    if not 0.0 <= overlap_frac < 1.0:
        raise DatasetError(f"overlap_frac must be in [0, 1), got {overlap_frac}")
    window = _window_samples(window_s, rec.sampling_rate)
    stride = window * (1 - Fraction(overlap_frac))  # exact, in samples
    if stride < 1:
        raise WindowStrideError(
            f"overlap_frac {overlap_frac} leaves a stride of {float(stride):.3g} samples "
            f"between {window}-sample windows, so windows would repeat; the stride must "
            "be at least 1 sample"
        )
    total = rec.signal.shape[1]
    if total < window:
        return []
    count = int(Fraction(total - window) / stride) + 1
    return [int(k * stride) for k in range(count)]  # floor of each exact offset


def build_segments(recordings, window_s: float, overlap_frac: float) -> SegmentSet:
    """Every recording's windows, copied once into one stacked SegmentSet."""
    cut = []  # (recording, window length, window starts) of each recording with a window
    for rec in recordings:
        starts = segment_recording(rec, window_s, overlap_frac)
        if starts:
            cut.append((rec, _window_samples(window_s, rec.sampling_rate), starts))
    if not cut:
        raise DatasetError("no segments")
    shapes = {(rec.signal.shape[0], window) for rec, window, _ in cut}
    if len(shapes) != 1:
        raise DatasetError(f"segments have mixed shapes: {sorted(shapes)}")
    counts = [len(starts) for _, _, starts in cut]
    x = np.empty((sum(counts), *shapes.pop()), dtype=cut[0][0].signal.dtype)
    row = 0
    for rec, window, starts in cut:
        for start in starts:
            x[row] = rec.signal[:, start : start + window]
            row += 1
    return SegmentSet(
        x=x,
        y=np.repeat(np.array([LABEL_INDEX[rec.label] for rec, _, _ in cut], dtype=np.int64), counts),
        subjects=np.repeat(np.array([rec.subject_id for rec, _, _ in cut], dtype=object), counts),
    )


def load_dataset(manifest_path: str):
    """Read a manifest and its binary signal files into Recordings."""
    if not os.path.exists(manifest_path):
        raise DataFileMissingError(f"manifest not found: {manifest_path}")
    with open(manifest_path) as fh:
        entries = json.load(fh)
    if not isinstance(entries, list):
        raise DatasetError(f"{manifest_path}: manifest must be a JSON array of entries")
    base = os.path.dirname(os.path.abspath(manifest_path))
    recordings = []
    seen = set()
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise DatasetError(f"{manifest_path}: entry {i} is not a JSON object")
        where = f"{manifest_path}: entry {i}"
        if "subject_id" in entry:
            where += f" (subject {entry['subject_id']!r})"
        for key in MANIFEST_KEYS:
            if key not in entry:
                raise ManifestKeyError(f"{where} lacks required key {key!r}")
        for key, (valid, what) in _MANIFEST_VALUES.items():
            if key in entry and not valid(entry[key]):
                raise ManifestValueError(f"{where}: {key!r} must be {what}, got {entry[key]!r}")
        for key in ("channels", "sampling_rate"):
            if entry[key] != entries[0][key]:
                raise ManifestValueError(
                    f"{where}: {key!r} differs from entry 0's; a dataset has one channel list "
                    "and one sampling rate"
                )
        label = entry["label"]
        if label not in LABEL_INDEX:
            raise UnknownLabelError(f"unknown label {label!r} for subject {entry['subject_id']}")
        key = (entry["subject_id"], entry.get("session", ""))
        if key in seen:
            raise DuplicateSubjectError(
                f"duplicate subject_id {entry['subject_id']!r}"
                + (f" (session {key[1]!r})" if key[1] else "")
            )
        seen.add(key)
        path = os.path.join(base, entry["data_file"])
        if not os.path.exists(path):
            raise DataFileMissingError(f"data file not found: {path}")
        n = len(entry["channels"])
        n_samples = entry["n_samples"]
        expected = 8 * n * n_samples
        actual = os.path.getsize(path)
        if actual != expected:
            raise DataSizeMismatchError(
                f"{path}: {actual} bytes, manifest implies {expected} "
                f"({n} channels x {n_samples} samples x 8 bytes)"
            )
        signal = np.fromfile(path, dtype="<f8").reshape(n, n_samples)
        if not np.isfinite(signal).all():
            channel, index = np.argwhere(~np.isfinite(signal))[0]
            raise NonFiniteSampleError(
                f"{path}: channel {entry['channels'][channel]!r} holds a non-finite sample "
                f"({signal[channel, index]}) at index {index}"
            )
        recordings.append(
            Recording(
                subject_id=entry["subject_id"],
                label=label,
                sampling_rate=float(entry["sampling_rate"]),
                signal=signal,
                channel_names=list(entry["channels"]),
                session=entry.get("session", ""),
            )
        )
    return recordings


def save_dataset(recordings, out_dir: str) -> str:
    """Write recordings in the manifest + raw binary format; returns manifest path."""
    os.makedirs(out_dir, exist_ok=True)
    entries = []
    for rec in recordings:
        stem = rec.subject_id + (f"_{rec.session}" if rec.session else "")
        data_file = f"{stem}.f64"
        arr = np.ascontiguousarray(rec.signal, dtype="<f8")
        arr.tofile(os.path.join(out_dir, data_file))
        entries.append(
            {
                "subject_id": rec.subject_id,
                "label": rec.label,
                "sampling_rate": rec.sampling_rate,
                "channels": list(rec.channel_names),
                "n_samples": int(rec.signal.shape[1]),
                "data_file": data_file,
                **({"session": rec.session} if rec.session else {}),
            }
        )
    manifest_path = os.path.join(out_dir, MANIFEST_NAME)
    with open(manifest_path, "w") as fh:
        json.dump(entries, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return manifest_path


# ---------------------------------------------------------------------------
# synthetic generator: the two classes differ in how strongly a "frontal"
# channel group shares a common alpha-band source. Controls keep a tight
# shared 8-12 Hz component; patients lose most of that coupling and gain an
# independent per-channel 4-7 Hz component, so class separation lives in the
# inter-channel correlation structure the graph branches exploit.
# ---------------------------------------------------------------------------

FRONTAL_FRACTION = 0.35
SHARED_COUPLING_HC = (1.0, 1.2)
SHARED_COUPLING_REST = (0.15, 0.3)
COUPLING_DROP_MDD = 0.25
THETA_AMPLITUDE_MDD = (0.9, 1.1)
NOISE_SCALE = 0.7
BAND_COMPONENTS = 3  # sinusoids summed into one band source


def frontal_channels(n_channels: int) -> int:
    return max(2, round(FRONTAL_FRACTION * n_channels))


def _band_source(rng: np.random.Generator, t: np.ndarray, low: float, high: float) -> np.ndarray:
    freqs = rng.uniform(low, high, size=BAND_COMPONENTS)
    phases = rng.uniform(0.0, 2 * np.pi, size=BAND_COMPONENTS)
    src = np.sin(2 * np.pi * freqs[:, None] * t[None, :] + phases[:, None]).sum(axis=0)
    return src / src.std()


def synth_generate(n_per_class: int, seconds: float, n_channels: int = 19,
                   fs: float = 256.0, seed: int = 0):
    """Deterministic class-conditional synthetic recordings (one per subject)."""
    if not all(v > 0 and math.isfinite(v) for v in (n_per_class, seconds, n_channels, fs)):
        raise ValueError("synth_generate: all arguments must be positive and finite")
    n_samples = seconds * fs
    if not (math.isfinite(n_samples) and round(n_samples) >= 2):
        raise ValueError(
            f"synth_generate: seconds * fs gives {n_samples} samples; need a finite count of at least 2"
        )
    n_samples = round(n_samples)
    t = np.arange(n_samples) / fs
    n_front = frontal_channels(n_channels)
    recordings = []
    for label in ("HC", "MDD"):
        for i in range(n_per_class):
            rng = substream(seed, "synth", label, str(i))
            shared = _band_source(rng, t, 8.0, 12.0)
            gains = rng.uniform(0.8, 1.2, size=n_channels)
            coupling = np.empty(n_channels)
            coupling[:n_front] = rng.uniform(*SHARED_COUPLING_HC, size=n_front)
            coupling[n_front:] = rng.uniform(*SHARED_COUPLING_REST, size=n_channels - n_front)
            signal = np.zeros((n_channels, n_samples))
            if label == "MDD":
                coupling[:n_front] *= COUPLING_DROP_MDD
                for c in range(n_front):
                    amp = rng.uniform(*THETA_AMPLITUDE_MDD)
                    signal[c] += amp * _band_source(rng, t, 4.0, 7.0)
            noise = rng.normal(size=(n_channels, n_samples))
            signal += coupling[:, None] * shared[None, :] + NOISE_SCALE * noise
            signal *= gains[:, None]
            recordings.append(
                Recording(
                    subject_id=f"synth-{label}-{i:03d}",
                    label=label,
                    sampling_rate=float(fs),
                    signal=signal,
                    channel_names=[f"ch{c:02d}" for c in range(n_channels)],
                )
            )
    return recordings
