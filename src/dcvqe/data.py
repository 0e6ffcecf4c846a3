"""Feature-file ingestion, manifests, splits, and the synthetic generator.

Feature files are a fixed binary layout: magic ``DCVQ``, u32 version (1),
u32 num_frames, u32 feature_dim, then num_frames * feature_dim little-endian
float32 values, row-major. Values stay float32 in memory as
``FeatureSequence.features`` and on the autodiff tape, 4 bytes each; the
input projection widens them to float64, exactly, only inside its GEMMs.
Manifests are line-delimited JSON: one header record carrying the MOS
scale, then one record per video; feature paths resolve relative to the
manifest's directory.

The synthetic generator stands in for a real feature-extraction backbone:
each video mixes a latent quality direction with contiguous "burst"
segments of localized distortion, and MOS is the latent quality minus a
burst-coverage penalty, so quality is linearly decodable yet has temporal
structure for the hierarchy to exploit.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

MAGIC = b"DCVQ"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sIII")


class FormatError(ValueError):
    """Malformed feature file or manifest; carries the byte offset."""

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message if offset is None else f"{message} (byte offset {offset})")
        self.offset = offset


@dataclass
class FeatureSequence:
    """One video's frame features plus its ground-truth score.

    ``features`` is a C-ordered float32 ``[num_frames, feature_dim]`` array,
    the precision of the feature file. Other input is rounded to float32 on
    construction, so a value beyond float32's range is rejected as
    non-finite.
    """

    video_id: str
    features: np.ndarray  # [num_frames, feature_dim] float32, C-ordered
    mos: float

    def __post_init__(self):
        with np.errstate(over="ignore"):  # an overflow becomes inf, rejected below
            self.features = np.ascontiguousarray(self.features, dtype=np.float32)
        if self.features.ndim != 2 or self.features.shape[0] < 1 or self.features.shape[1] < 1:
            raise ValueError(f"features must be [S>=1, dim>=1], got shape {self.features.shape}")
        if not np.isfinite(self.features).all():
            raise ValueError(f"non-finite feature value in {self.video_id!r} "
                             f"after rounding to float32")
        if not math.isfinite(self.mos):
            raise ValueError(f"non-finite mos for {self.video_id!r}")

    @classmethod
    def _of_finite(cls, video_id: str, features: np.ndarray, mos: float) -> "FeatureSequence":
        """A sequence around C-ordered float32 rows ``[S>=1, dim>=1]`` that are
        already known to be finite: ``read_features`` checked the file's
        values and ``truncate`` cuts a checked sequence, so the rows are not
        scanned a second time. Only ``mos`` is checked."""
        if not math.isfinite(mos):
            raise ValueError(f"non-finite mos for {video_id!r}")
        seq = cls.__new__(cls)
        seq.video_id, seq.features, seq.mos = video_id, features, mos
        return seq

    @property
    def num_frames(self) -> int:
        return self.features.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]


def write_features(path, seq: FeatureSequence) -> None:
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, FORMAT_VERSION, seq.num_frames, seq.feature_dim))
        fh.write(seq.features.astype("<f4", copy=False).tobytes(order="C"))


def _parse_header(raw: bytes, path: Path) -> tuple[int, int]:
    """Validate the header at the start of ``raw``; returns (num_frames, feature_dim)."""
    if len(raw) < _HEADER.size:
        raise FormatError(f"truncated header in {path}: {len(raw)} bytes", offset=len(raw))
    magic, version, num_frames, feature_dim = _HEADER.unpack_from(raw, 0)
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r} in {path}", offset=0)
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported version {version} in {path}", offset=4)
    if num_frames < 1:
        raise FormatError(f"num_frames must be >= 1, got {num_frames}", offset=8)
    if feature_dim < 1:
        raise FormatError(f"feature_dim must be >= 1, got {feature_dim}", offset=12)
    return num_frames, feature_dim


def read_header(path) -> tuple[int, int]:
    """(num_frames, feature_dim) from the header of the feature file at
    ``path``, validated as ``read_features`` validates it; no payload byte
    is read."""
    path = Path(path)
    with open(path, "rb") as fh:
        return _parse_header(fh.read(_HEADER.size), path)


def read_features(path, mos: float = 0.0, video_id: str | None = None) -> FeatureSequence:
    """Parse one feature file, validating magic, version, extents, finiteness.

    The file carries no score; ``mos`` is attached by the caller (usually
    from a manifest entry). The returned features are a read-only float32
    view of the bytes read from the file: the payload is allocated once.
    """
    path = Path(path)
    raw = path.read_bytes()
    num_frames, feature_dim = _parse_header(raw, path)
    expected = _HEADER.size + num_frames * feature_dim * 4
    if len(raw) < expected:
        raise FormatError(f"payload of {path} ends at byte {len(raw)}, header promises "
                          f"{expected} bytes", offset=len(raw))
    if len(raw) > expected:
        raise FormatError(f"{len(raw) - expected} trailing bytes in {path}", offset=expected)
    values = np.frombuffer(raw, dtype="<f4", count=num_frames * feature_dim,
                           offset=_HEADER.size)
    finite = np.isfinite(values)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise FormatError(f"non-finite value at element {bad} of {path}",
                          offset=_HEADER.size + bad * 4)
    return FeatureSequence._of_finite(video_id or path.stem,
                                      values.reshape(num_frames, feature_dim), mos)


def truncate(seq: FeatureSequence, max_len: int) -> FeatureSequence:
    """Keep only the first ``max_len`` frames; shorter sequences pass through.

    The truncated features are a view of the first rows of ``seq.features``,
    not a copy, so they keep the whole original buffer alive.
    """
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    if seq.num_frames <= max_len:
        return seq
    return FeatureSequence._of_finite(seq.video_id, seq.features[:max_len], seq.mos)


# ---------------------------------------------------------------------------
# manifests and splits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ManifestEntry:
    video_id: str
    feature_path: str  # relative to the manifest directory
    mos: float


@dataclass
class DatasetManifest:
    entries: list[ManifestEntry]
    scale_min: float
    scale_max: float
    root: Path

    def __post_init__(self):
        self.root = Path(self.root)
        for key in ("scale_min", "scale_max"):
            if not math.isfinite(getattr(self, key)):
                raise ValueError(f"{key} must be finite, got {getattr(self, key)}")
        if self.scale_min >= self.scale_max:
            raise ValueError(f"scale_min {self.scale_min} must be < scale_max {self.scale_max}")
        seen = set()
        for e in self.entries:
            if e.video_id in seen:
                raise ValueError(f"duplicate video_id {e.video_id!r}")
            seen.add(e.video_id)
            if not self.scale_min <= e.mos <= self.scale_max:
                raise ValueError(f"mos {e.mos} of {e.video_id!r} outside "
                                 f"[{self.scale_min}, {self.scale_max}]")

    def __len__(self) -> int:
        return len(self.entries)

    def resolve(self, entry: ManifestEntry) -> Path:
        return self.root / entry.feature_path


def save_manifest(manifest: DatasetManifest, path) -> None:
    path = Path(path)
    with open(path, "w") as fh:
        fh.write(json.dumps({"scale_min": manifest.scale_min,
                             "scale_max": manifest.scale_max}, sort_keys=True) + "\n")
        for e in manifest.entries:
            fh.write(json.dumps({"video_id": e.video_id, "feature_path": e.feature_path,
                                 "mos": e.mos}, sort_keys=True) + "\n")


def _number(record: dict, key: str) -> float:
    if type(record[key]) is not float:  # JSON integers are read as floats; bool is no float
        raise TypeError(f"{key} must be a number in {record}")
    return record[key]


def _manifest_entry(e: dict) -> ManifestEntry:
    if not (type(e["video_id"]) is str and type(e["feature_path"]) is str):
        raise TypeError(f"video_id and feature_path must be strings in {e}")
    return ManifestEntry(e["video_id"], e["feature_path"], _number(e, "mos"))


def load_manifest(path) -> DatasetManifest:
    path = Path(path)
    try:
        lines = path.read_bytes().decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise FormatError(f"manifest {path} is not UTF-8: {exc}") from exc
    if not lines:
        raise FormatError(f"empty manifest {path}")
    try:  # integers as floats: one past the float range (or int's digit limit) is inf
        header = json.loads(lines[0], parse_int=float)
        entries = [json.loads(line, parse_int=float) for line in lines[1:] if line.strip()]
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deeply
        raise FormatError(f"manifest {path} is not line-delimited JSON: {exc}") from exc
    try:
        return DatasetManifest(
            entries=[_manifest_entry(e) for e in entries],
            scale_min=_number(header, "scale_min"),
            scale_max=_number(header, "scale_max"),
            root=path.parent,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"manifest {path}: {exc}") from exc


def manifest_feature_dim(manifest: DatasetManifest) -> int:
    """The feature width shared by every file of the manifest, read from the
    file headers alone. A manifest with no entries, or whose entries differ
    in width, is a ``FormatError`` (naming the first video of each width)."""
    if not manifest.entries:
        raise FormatError(f"manifest in {manifest.root} has no entries")
    first = None
    for e in manifest.entries:
        _, dim = read_header(manifest.resolve(e))
        if first is None:
            first = (e.video_id, dim)
        elif dim != first[1]:
            raise FormatError(f"video {e.video_id!r} has feature width {dim}, but "
                              f"{first[0]!r} has {first[1]}; a manifest needs one width")
    return first[1]


def read_sequences(manifest: DatasetManifest, max_len: int) -> Iterator[FeatureSequence]:
    """The manifest's videos, read one at a time and in order, each cut to
    ``max_len`` frames (``truncate``) as it is read."""
    for e in manifest.entries:
        seq = read_features(manifest.resolve(e), mos=e.mos, video_id=e.video_id)
        yield truncate(seq, max_len)


def load_sequences(manifest: DatasetManifest, max_len: int) -> list[FeatureSequence]:
    """Every video of ``read_sequences``, kept for a whole run: a cut
    sequence holds a copy of its first rows rather than a view of the file's
    values that would keep the cut frames resident too."""
    seqs = []
    for seq in read_sequences(manifest, max_len):
        if seq.features.base.size > seq.features.size:  # the file's values were cut
            seq.features = seq.features.copy()
        seqs.append(seq)
    return seqs


def split(manifest: DatasetManifest,
          seed: int) -> tuple[DatasetManifest, DatasetManifest, DatasetManifest]:
    """Seeded shuffle, then contiguous 60/20/20 cuts at floor(0.6*n) and
    floor((0.6+0.2)*n). Deterministic, disjoint, covering."""
    n = len(manifest.entries)
    if n < 5:
        raise ValueError(f"split needs at least 5 entries, got {n}")
    perm = np.random.default_rng(seed).permutation(n)
    cut1 = math.floor(0.6 * n)
    cut2 = math.floor((0.6 + 0.2) * n)
    shuffled = [manifest.entries[i] for i in perm]

    def part(entries):
        return DatasetManifest(entries=list(entries), scale_min=manifest.scale_min,
                               scale_max=manifest.scale_max, root=manifest.root)

    return part(shuffled[:cut1]), part(shuffled[cut1:cut2]), part(shuffled[cut2:])


# ---------------------------------------------------------------------------
# synthetic data
# ---------------------------------------------------------------------------

def synth_dataset(out_dir, n_videos: int = 500, len_range: tuple[int, int] = (60, 300),
                  dim: int = 64, noise_sigma: float = 0.1, seed: int = 0) -> DatasetManifest:
    """Generate feature files plus a manifest, fully determined by ``seed``.

    Per video: latent quality q ~ U(1, 5), the MOS scale; frames are q * w1
    plus, inside up to 2 contiguous segments, an amplitude on a second unit
    direction w2 (localized distortion), plus N(0, noise_sigma^2) noise.
    MOS is q minus 1.5 times the mean burst amplitude, floored so it never
    leaves the scale: the construction is monotone in the effective
    (post-penalty) quality, which equals the MOS exactly. w2 needs
    ``dim >= 2``; every setting is checked before ``out_dir`` is created.
    """
    if n_videos < 5:
        raise ValueError(f"synth_dataset needs n_videos >= 5, got {n_videos}")
    len_min, len_max = len_range
    if not 1 <= len_min <= len_max:
        raise ValueError(f"bad len_range {len_range}")
    if dim < 2:
        raise ValueError(f"synth_dataset needs dim >= 2, got {dim}")
    # numpy's standard normal draws stay below 14 in magnitude, so up to this
    # noise level every feature value stays finite as float32
    most = float(np.finfo(np.float32).max) / 16
    if not 0 <= noise_sigma <= most:
        raise ValueError(f"synth_dataset needs a finite noise_sigma >= 0, got {noise_sigma} "
                         f"(at most {most:.3g})")
    rng = np.random.default_rng(seed)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    def unit(v):
        return v / np.linalg.norm(v)

    w1 = unit(rng.normal(size=dim))
    w2 = rng.normal(size=dim)
    w2 = unit(w2 - (w2 @ w1) * w1)  # orthogonal to the quality direction

    entries = []
    for i in range(n_videos):
        video_id = f"synth{i:05d}"
        n_frames = int(rng.integers(len_min, len_max + 1))
        q = float(rng.uniform(1.0, 5.0))
        burst = np.zeros(n_frames)
        for _ in range(int(rng.integers(0, 3))):  # 0, 1 or 2 bursts
            length = int(rng.integers(max(1, n_frames // 10), max(2, n_frames // 4 + 1)))
            start = int(rng.integers(0, n_frames - length + 1))
            amp = float(rng.uniform(0.5, 2.0))
            burst[start:start + length] = np.maximum(burst[start:start + length], amp)
        penalty = min(1.5 * float(burst.mean()), q - 1.0)
        mos = q - penalty
        features = (q * w1[None, :] + burst[:, None] * w2[None, :]
                    + rng.normal(0.0, noise_sigma, (n_frames, dim)))
        seq = FeatureSequence(video_id=video_id, features=features, mos=mos)
        write_features(out_dir / f"{video_id}.dcvq", seq)
        entries.append(ManifestEntry(video_id, f"{video_id}.dcvq", mos))

    manifest = DatasetManifest(entries=entries, scale_min=1.0, scale_max=5.0, root=out_dir)
    save_manifest(manifest, out_dir / "manifest.jsonl")
    return manifest
