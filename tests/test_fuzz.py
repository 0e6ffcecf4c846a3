"""Derandomized fuzzing of the two binary parsers, ``read_features`` and
``load_checkpoint``: a valid file cut short or with one byte changed either
loads or raises ``FormatError`` (CLI exit 2), never anything else, and valid
files round-trip."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dcvqe.data import FeatureSequence, FormatError, read_features, write_features
from dcvqe.model import DCVQEConfig, DCVQEModel
from dcvqe.training import AdamState, Checkpoint, load_checkpoint, save_checkpoint

FUZZ = settings(derandomize=True, max_examples=150, deadline=None)
CONFIG = DCVQEConfig(input_dim=6, model_dim=8, num_heads=2, num_layers=2,
                     base_clip_len=4, temporal_range=2, max_seq_len=12)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def feature_bytes(scratch):
    rows = np.random.default_rng(0).normal(size=(5, 3))
    write_features(scratch / "valid.dcvq", FeatureSequence("v", rows, 1.0))
    return (scratch / "valid.dcvq").read_bytes()


@pytest.fixture(scope="module")
def checkpoint_bytes(scratch):
    model = DCVQEModel.initialize(CONFIG, seed=1)
    state = AdamState.for_model(model)
    state.step = 3
    save_checkpoint(scratch / "valid.ckpt", Checkpoint.snapshot(model, state, 0.5, 2))
    return (scratch / "valid.ckpt").read_bytes()


def loads_or_format_error(load, path, raw: bytes) -> None:
    path.write_bytes(raw)
    try:
        load(path)
    except FormatError:
        pass


def changed_byte(data, raw: bytes, focus: int) -> bytes:
    """``raw`` with one byte replaced, half the time within the first
    ``focus`` bytes (the header)."""
    at = data.draw(st.one_of(st.integers(0, focus - 1), st.integers(0, len(raw) - 1)))
    value = data.draw(st.integers(0, 255))
    return raw[:at] + bytes([value]) + raw[at + 1:]


def header_end(raw: bytes) -> int:
    return 12 + int.from_bytes(raw[8:12], "little")


@FUZZ
@given(st.data())
def test_cut_feature_file(scratch, feature_bytes, data):
    cut = data.draw(st.integers(0, len(feature_bytes) - 1))
    loads_or_format_error(read_features, scratch / "cut.dcvq", feature_bytes[:cut])


@FUZZ
@given(st.data())
def test_changed_byte_in_feature_file(scratch, feature_bytes, data):
    loads_or_format_error(read_features, scratch / "byte.dcvq",
                          changed_byte(data, feature_bytes, 16))


@FUZZ
@given(st.data())
def test_cut_checkpoint(scratch, checkpoint_bytes, data):
    cut = data.draw(st.one_of(st.integers(0, header_end(checkpoint_bytes)),
                              st.integers(0, len(checkpoint_bytes) - 1)))
    loads_or_format_error(load_checkpoint, scratch / "cut.ckpt", checkpoint_bytes[:cut])


@FUZZ
@given(st.data())
def test_changed_byte_in_checkpoint(scratch, checkpoint_bytes, data):
    loads_or_format_error(load_checkpoint, scratch / "byte.ckpt",
                          changed_byte(data, checkpoint_bytes, header_end(checkpoint_bytes)))


finite32 = st.floats(width=32, allow_nan=False, allow_infinity=False)
finite64 = st.floats(allow_nan=False, allow_infinity=False)


@settings(derandomize=True, max_examples=50, deadline=None)
@given(arrays(np.float32, st.tuples(st.integers(1, 6), st.integers(1, 5)), elements=finite32))
def test_feature_file_round_trip(scratch, rows):
    write_features(scratch / "rt.dcvq", FeatureSequence("rt", rows, 2.0))
    back = read_features(scratch / "rt.dcvq")
    assert np.array_equal(back.features, rows)
    write_features(scratch / "rt2.dcvq", back)
    assert (scratch / "rt.dcvq").read_bytes() == (scratch / "rt2.dcvq").read_bytes()


@settings(derandomize=True, max_examples=30, deadline=None)
@given(arrays(np.float64, (8, 1), elements=finite64), finite64,
       st.integers(0, 2 ** 31), st.integers(0, 2 ** 31))
def test_checkpoint_round_trip(scratch, regressor, val_loss, step, epoch):
    model = DCVQEModel.initialize(CONFIG, seed=2)
    model.params["regressor.weight"].data = regressor
    state = AdamState.for_model(model)
    state.step = step
    state.m["regressor.weight"] = -regressor
    cp = Checkpoint.snapshot(model, state, val_loss, epoch)
    save_checkpoint(scratch / "rt.ckpt", cp)
    back = load_checkpoint(scratch / "rt.ckpt")
    assert (back.config, back.epoch, back.adam_step_count, back.best_val_loss) == \
        (CONFIG, epoch, step, val_loss)
    for group in ("params", "adam_m", "adam_v"):
        for name, value in getattr(cp, group).items():
            assert np.array_equal(getattr(back, group)[name], value)
    save_checkpoint(scratch / "rt2.ckpt", back)
    assert (scratch / "rt.ckpt").read_bytes() == (scratch / "rt2.ckpt").read_bytes()
