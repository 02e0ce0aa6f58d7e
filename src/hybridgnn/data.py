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
import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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


MANIFEST_KEYS = ("subject_id", "label", "sampling_rate", "channels", "n_samples", "data_file")


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
class EegSegment:
    data: np.ndarray  # (N, T_s)
    label: str
    subject_id: str
    offset: int  # start position in samples within the source recording

    @property
    def label_index(self) -> int:
        return LABEL_INDEX[self.label]


@dataclass
class SegmentSet:
    """Stacked segments ready for training: x (M, N, T_s), y (M,), subjects (M,)."""

    x: np.ndarray
    y: np.ndarray
    subjects: np.ndarray

    @classmethod
    def from_segments(cls, segments) -> "SegmentSet":
        if not segments:
            raise DatasetError("no segments")
        shapes = {s.data.shape for s in segments}
        if len(shapes) != 1:
            raise DatasetError(f"segments have mixed shapes: {sorted(shapes)}")
        return cls(
            x=np.stack([s.data for s in segments]),
            y=np.array([s.label_index for s in segments], dtype=np.int64),
            subjects=np.array([s.subject_id for s in segments], dtype=object),
        )

    def __len__(self) -> int:
        return len(self.x)


def segment_recording(rec: Recording, window_s: float, overlap_frac: float):
    """Cut a recording into fixed windows.

    Stride is window_s * (1 - overlap_frac) seconds; windows start at
    0, stride, 2*stride, ... as long as a full window fits. Returns [] when
    the recording is shorter than one window. Each segment's data is a
    read-only view into `rec.signal`, not a copy.
    """
    if not 0.0 <= overlap_frac < 1.0:
        raise DatasetError(f"overlap_frac must be in [0, 1), got {overlap_frac}")
    window = Fraction(window_s) * Fraction(rec.sampling_rate)
    if window.denominator != 1:
        raise DatasetError(
            f"window of {window_s}s at {rec.sampling_rate}Hz is not a whole number of samples"
        )
    window = int(window)
    total = rec.signal.shape[1]
    if total < window:
        return []
    stride = window * (1 - Fraction(overlap_frac))  # exact, in samples
    count = int(Fraction(total - window) / stride) + 1
    # read-only views into the signal: stacking into a SegmentSet is the only copy
    views = sliding_window_view(rec.signal, window, axis=1)  # (N, starts, window)
    segments = []
    for k in range(count):
        start = int(k * stride)  # floor of the exact offset
        segments.append(
            EegSegment(
                data=views[:, start],
                label=rec.label,
                subject_id=rec.subject_id,
                offset=start,
            )
        )
    return segments


def build_segments(recordings, window_s: float, overlap_frac: float) -> SegmentSet:
    segments = []
    for rec in recordings:
        segments.extend(segment_recording(rec, window_s, overlap_frac))
    return SegmentSet.from_segments(segments)


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
        for key in MANIFEST_KEYS:
            if key not in entry:
                who = f" (subject {entry['subject_id']!r})" if "subject_id" in entry else ""
                raise ManifestKeyError(f"{manifest_path}: entry {i}{who} lacks required key {key!r}")
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
        n_samples = int(entry["n_samples"])
        expected = 8 * n * n_samples
        actual = os.path.getsize(path)
        if actual != expected:
            raise DataSizeMismatchError(
                f"{path}: {actual} bytes, manifest implies {expected} "
                f"({n} channels x {n_samples} samples x 8 bytes)"
            )
        signal = np.fromfile(path, dtype="<f8").reshape(n, n_samples)
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


def save_dataset(recordings, out_dir: str, manifest_name: str = "manifest.json") -> str:
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
    manifest_path = os.path.join(out_dir, manifest_name)
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


def frontal_channels(n_channels: int) -> int:
    return max(2, round(FRONTAL_FRACTION * n_channels))


def _band_source(rng: np.random.Generator, t: np.ndarray, low: float, high: float,
                 n_components: int = 3) -> np.ndarray:
    freqs = rng.uniform(low, high, size=n_components)
    phases = rng.uniform(0.0, 2 * np.pi, size=n_components)
    src = np.sin(2 * np.pi * freqs[:, None] * t[None, :] + phases[:, None]).sum(axis=0)
    return src / src.std()


def synth_generate(n_per_class: int, seconds: float, n_channels: int = 19,
                   fs: float = 256.0, seed: int = 0):
    """Deterministic class-conditional synthetic recordings (one per subject)."""
    if n_per_class <= 0 or seconds <= 0 or n_channels <= 0 or fs <= 0:
        raise ValueError("synth_generate: all arguments must be positive")
    n_samples = int(round(seconds * fs))
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
