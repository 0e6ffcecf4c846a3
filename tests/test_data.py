"""Feature-file round trips, corrupt-file offsets, splits, and the synthetic
dataset's determinism and learnability."""

import json
import math
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcvqe import metrics
from dcvqe.data import (DatasetManifest, FeatureSequence, FormatError, ManifestEntry,
                        load_manifest, load_sequences, read_features,
                        save_manifest, split, synth_dataset, truncate, write_features)
from oracles import linear_probe


def owned_nbytes(a: np.ndarray) -> int:
    """Size of the buffer that keeps ``a`` alive: the root of its ``base``
    chain, an array or the bytes read from a file."""
    while isinstance(a, np.ndarray) and a.base is not None:
        a = a.base
    return memoryview(a).nbytes


def make_seq(video_id="v0", frames=3, dim=4, seed=0, mos=2.5):
    rng = np.random.default_rng(seed)
    feats = rng.normal(size=(frames, dim)).astype(np.float32)
    return FeatureSequence(video_id=video_id, features=feats, mos=mos)


class TestFeatureFileRoundTrip:
    def test_minimal_file(self, tmp_path):
        seq = make_seq(frames=1, dim=4)
        path = tmp_path / "one.dcvq"
        write_features(path, seq)
        back = read_features(path, mos=seq.mos)
        assert back.num_frames == 1 and back.feature_dim == 4
        assert np.array_equal(back.features, seq.features)

    def test_round_trip_bit_identical(self, tmp_path):
        seq = make_seq(frames=7, dim=5, seed=3)
        p1, p2 = tmp_path / "a.dcvq", tmp_path / "b.dcvq"
        write_features(p1, seq)
        write_features(p2, read_features(p1))
        assert p1.read_bytes() == p2.read_bytes()

    @settings(max_examples=25)
    @given(st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=8),
           st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_round_trip_property(self, tmp_path_factory, frames, dim, seed):
        tmp = tmp_path_factory.mktemp("rt")
        seq = make_seq(frames=frames, dim=dim, seed=seed)
        write_features(tmp / "f.dcvq", seq)
        back = read_features(tmp / "f.dcvq")
        assert np.array_equal(back.features, seq.features)


class TestCorruptFiles:
    def header(self, frames=2, dim=3, magic=b"DCVQ", version=1):
        return struct.pack("<4sIII", magic, version, frames, dim)

    def test_bad_magic_at_offset_zero(self, tmp_path):
        path = tmp_path / "bad.dcvq"
        path.write_bytes(self.header(magic=b"NOPE") + b"\x00" * 24)
        with pytest.raises(FormatError) as err:
            read_features(path)
        assert err.value.offset == 0

    def test_bad_version_at_offset_four(self, tmp_path):
        path = tmp_path / "bad.dcvq"
        path.write_bytes(self.header(version=9) + b"\x00" * 24)
        with pytest.raises(FormatError) as err:
            read_features(path)
        assert err.value.offset == 4

    def test_truncated_payload_reports_exact_offset(self, tmp_path):
        path = tmp_path / "short.dcvq"
        # header promises 2*3*4 = 24 payload bytes; provide 10
        path.write_bytes(self.header() + b"\x00" * 10)
        with pytest.raises(FormatError) as err:
            read_features(path)
        assert err.value.offset == 16 + 10

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "long.dcvq"
        path.write_bytes(self.header() + b"\x00" * 24 + b"xx")
        with pytest.raises(FormatError) as err:
            read_features(path)
        assert err.value.offset == 16 + 24

    def test_nonfinite_value_offset(self, tmp_path):
        payload = np.zeros(6, dtype="<f4")
        payload[4] = np.inf
        path = tmp_path / "nan.dcvq"
        path.write_bytes(self.header() + payload.tobytes())
        with pytest.raises(FormatError) as err:
            read_features(path)
        assert err.value.offset == 16 + 4 * 4

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "stub.dcvq"
        path.write_bytes(b"DC")
        with pytest.raises(FormatError) as err:
            read_features(path)
        assert err.value.offset == 2


class TestInMemoryDtype:
    def test_read_features_is_float32_c_ordered_read_only(self, tmp_path):
        seq = make_seq(frames=9, dim=5, seed=4)
        write_features(tmp_path / "f.dcvq", seq)
        back = read_features(tmp_path / "f.dcvq")
        assert back.features.dtype == np.float32
        assert back.features.flags.c_contiguous and not back.features.flags.writeable
        # the payload is the one allocation: the file's bytes, header included
        assert owned_nbytes(back.features) == 16 + 4 * 9 * 5

    def test_truncate_is_a_float32_view(self, tmp_path):
        write_features(tmp_path / "f.dcvq", make_seq(frames=30, dim=3, seed=5))
        seq = read_features(tmp_path / "f.dcvq")
        cut = truncate(seq, 10)
        assert cut.features.dtype == np.float32 and cut.features.flags.c_contiguous
        assert np.shares_memory(cut.features, seq.features)

    def test_float64_input_rounds_to_float32(self):
        x = np.asfortranarray([[0.1, 1.0 + 2.0 ** -30], [-3.3, 1e30]])
        seq = FeatureSequence("v", x, 1.0)
        assert seq.features.dtype == np.float32 and seq.features.flags.c_contiguous
        assert np.array_equal(seq.features, x.astype(np.float32))

    def test_float32_overflow_rejected(self):
        with pytest.raises(ValueError, match="float32"):
            FeatureSequence("v", np.array([[1.0, 1e39]]), 1.0)

    @pytest.mark.parametrize("shape", [(1, 3), (7, 5), (60, 64), (300, 64), (901, 4096)])
    def test_probe_mean_equals_mean_of_widened_rows(self, shape):
        # linear_probe pools float32 rows with a float64 accumulator; that must
        # give the bits of the mean over the rows widened to float64
        rows = np.random.default_rng(shape[0]).normal(size=shape).astype(np.float32)
        assert np.array_equal(rows.mean(axis=0, dtype=np.float64),
                              rows.astype(np.float64).mean(axis=0))


class TestTruncate:
    def test_short_sequence_unchanged(self):
        seq = make_seq(frames=100)
        assert truncate(seq, 600) is seq

    def test_long_sequence_cut(self):
        seq = make_seq(frames=700, dim=2)
        cut = truncate(seq, 600)
        assert cut.num_frames == 600
        assert np.array_equal(cut.features, seq.features[:600])

    def test_boundary(self):
        seq = make_seq(frames=600, dim=2)
        assert truncate(seq, 600).num_frames == 600

    def test_retained_values_untouched(self):
        seq = make_seq(frames=50, dim=3, seed=9)
        cut = truncate(seq, 20)
        assert np.array_equal(cut.features, seq.features[:20])

    def test_cut_is_a_view(self):
        seq = make_seq(frames=50, dim=3, seed=10)
        before = seq.features.copy()
        cut = truncate(seq, 20)
        assert np.shares_memory(cut.features, seq.features)
        assert np.array_equal(cut.features, before[:20])
        assert np.array_equal(seq.features, before)


class TestFeatureSequenceValidation:
    def test_nonfinite_rejected(self):
        feats = np.zeros((2, 2))
        feats[1, 1] = np.nan
        with pytest.raises(ValueError):
            FeatureSequence("v", feats, 1.0)

    def test_nonfinite_mos_rejected(self):
        with pytest.raises(ValueError):
            FeatureSequence("v", np.zeros((2, 2)), math.inf)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            FeatureSequence("v", np.zeros((0, 4)), 1.0)


def manifest_of(n, root, scale=(1.0, 5.0)):
    entries = [ManifestEntry(f"v{i}", f"v{i}.dcvq", 1.0 + (i % 4)) for i in range(n)]
    return DatasetManifest(entries=entries, scale_min=scale[0], scale_max=scale[1], root=root)


class TestManifest:
    def test_duplicate_ids_rejected(self, tmp_path):
        entries = [ManifestEntry("v", "a.dcvq", 2.0), ManifestEntry("v", "b.dcvq", 2.0)]
        with pytest.raises(ValueError, match="duplicate"):
            DatasetManifest(entries=entries, scale_min=1, scale_max=5, root=tmp_path)

    def test_mos_outside_scale_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="outside"):
            DatasetManifest(entries=[ManifestEntry("v", "v.dcvq", 9.0)],
                            scale_min=1, scale_max=5, root=tmp_path)

    def test_save_load_round_trip(self, tmp_path):
        m = manifest_of(6, tmp_path)
        save_manifest(m, tmp_path / "m.jsonl")
        back = load_manifest(tmp_path / "m.jsonl")
        assert back.entries == m.entries
        assert (back.scale_min, back.scale_max) == (1.0, 5.0)
        assert back.root == tmp_path

    def test_garbage_manifest(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(FormatError):
            load_manifest(path)

    @pytest.mark.parametrize("field, value", [
        ("video_id", 5), ("feature_path", 5), ("feature_path", None), ("mos", True)])
    def test_entry_of_wrong_type_is_format_error(self, tmp_path, field, value):
        entry = dict({"video_id": "v", "feature_path": "v.dcvq", "mos": 2.0}, **{field: value})
        path = tmp_path / "m.jsonl"
        path.write_text(json.dumps({"scale_min": 1.0, "scale_max": 5.0}) + "\n"
                        + json.dumps(entry) + "\n")
        with pytest.raises(FormatError, match=field):
            load_manifest(path)

    def test_manifest_not_utf8_is_format_error(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_bytes(b'{"scale_min": 1.0, "scale_max": 5.0}\n{"video_id": "\xff"}\n')
        with pytest.raises(FormatError, match="not UTF-8"):
            load_manifest(path)


class TestSplit:
    def test_default_sizes(self, tmp_path):
        tr, va, te = split(manifest_of(10, tmp_path), 1)
        assert (len(tr), len(va), len(te)) == (6, 2, 2)

    def test_floor_rule_on_seven(self, tmp_path):
        tr, va, te = split(manifest_of(7, tmp_path), 1)
        assert (len(tr), len(va), len(te)) == (4, 1, 2)

    def test_same_seed_same_partition(self, tmp_path):
        m = manifest_of(23, tmp_path)
        a = split(m, 7)
        b = split(m, 7)
        for part_a, part_b in zip(a, b):
            assert part_a.entries == part_b.entries

    @settings(max_examples=30)
    @given(st.integers(min_value=5, max_value=60), st.integers(min_value=0, max_value=10 ** 6))
    def test_disjoint_covering(self, tmp_path_factory, n, seed):
        m = manifest_of(n, tmp_path_factory.mktemp("s"))
        tr, va, te = split(m, seed)
        ids = [e.video_id for part in (tr, va, te) for e in part.entries]
        assert sorted(ids) == sorted(e.video_id for e in m.entries)
        assert len(tr) + len(va) + len(te) == n
        assert min(len(tr), len(va), len(te)) >= 1

    def test_too_few_entries(self, tmp_path):
        with pytest.raises(ValueError):
            split(manifest_of(4, tmp_path), 0)


class TestSynthDataset:
    def test_same_seed_byte_identical(self, tmp_path):
        m1 = synth_dataset(tmp_path / "a", n_videos=8, len_range=(5, 12), dim=6, seed=42)
        m2 = synth_dataset(tmp_path / "b", n_videos=8, len_range=(5, 12), dim=6, seed=42)
        files1 = sorted(p.name for p in (tmp_path / "a").iterdir())
        files2 = sorted(p.name for p in (tmp_path / "b").iterdir())
        assert files1 == files2
        for name in files1:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        assert len(m1) == len(m2) == 8

    def test_different_seed_differs(self, tmp_path):
        synth_dataset(tmp_path / "a", n_videos=5, len_range=(5, 8), dim=4, seed=1)
        synth_dataset(tmp_path / "b", n_videos=5, len_range=(5, 8), dim=4, seed=2)
        names = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert any((tmp_path / "a" / n).read_bytes() != (tmp_path / "b" / n).read_bytes()
                   for n in names)

    def test_mos_within_scale(self, tmp_path):
        m = synth_dataset(tmp_path / "d", n_videos=40, len_range=(10, 30), dim=8, seed=3)
        for e in m.entries:
            assert 1.0 <= e.mos <= 5.0

    def test_noiseless_burstless_mos_from_single_frame(self, tmp_path):
        m = synth_dataset(tmp_path / "clean", n_videos=30, len_range=(4, 10), dim=8,
                          noise_sigma=0.0, seed=5)
        # no burst covers a whole video, so without noise the burst-free videos are
        # those with equal frames, each mos * w1 exactly (up to f32): a probe on
        # frame 0 of those videos recovers mos
        seqs = [s for s in load_sequences(m, max_len=10) if (s.features == s.features[0]).all()]
        assert len(seqs) >= 5
        x = np.stack([s.features[0] for s in seqs])
        y = np.array([s.mos for s in seqs])
        coef, *_ = np.linalg.lstsq(np.c_[x, np.ones(len(y))], y, rcond=None)
        pred = np.c_[x, np.ones(len(y))] @ coef
        assert np.abs(pred - y).max() < 1e-5
        assert metrics.srcc(pred, y) == 1.0

    def test_linear_probe_learnability(self, tmp_path):
        m = synth_dataset(tmp_path / "learn", n_videos=200, len_range=(20, 60), dim=32, seed=6)
        assert linear_probe(m, seed=0) >= 0.8

    def test_too_few_videos(self, tmp_path):
        with pytest.raises(ValueError):
            synth_dataset(tmp_path / "x", n_videos=4)


class TestLoadSequences:
    def test_truncation_applied(self, tmp_path):
        m = synth_dataset(tmp_path / "t", n_videos=6, len_range=(20, 30), dim=4, seed=8)
        seqs = load_sequences(m, max_len=10)
        assert all(s.num_frames <= 10 for s in seqs)
        assert {s.video_id for s in seqs} == {e.video_id for e in m.entries}

    def test_resident_bytes_are_four_per_value(self, tmp_path):
        m = synth_dataset(tmp_path / "r", n_videos=6, len_range=(20, 30), dim=4, seed=9)
        for s in load_sequences(m, max_len=30):
            assert s.features.dtype == np.float32
            assert s.features.nbytes == 4 * s.num_frames * 4
            assert owned_nbytes(s.features) == 16 + 4 * s.num_frames * 4

    def test_cut_sequences_keep_only_their_rows(self, tmp_path):
        m = synth_dataset(tmp_path / "c", n_videos=5, len_range=(30, 30), dim=4, seed=10)
        for s in load_sequences(m, max_len=10):
            assert owned_nbytes(s.features) == 4 * 10 * 4
            assert s.features.dtype == np.float32 and s.features.flags.c_contiguous
            whole = read_features(m.root / f"{s.video_id}.dcvq")
            assert np.array_equal(s.features, whole.features[:10])
