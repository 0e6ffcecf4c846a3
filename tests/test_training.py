"""Optimizer recurrence, training-loop determinism, best-checkpoint retention,
checkpoint round trips, resume replay, and the evaluation path."""

import json
import math
import re
import struct
import threading
import time
import warnings

import numpy as np
import pytest
import scipy.stats

from dcvqe import autodiff as ad
from dcvqe import data as data_io
from dcvqe import training
from dcvqe.autodiff import Tensor
from dcvqe.cli import main
from dcvqe.data import FeatureSequence
from dcvqe.losses import LossConfig, total_loss
from dcvqe.metrics import DegenerateInputError
from dcvqe.model import DCVQEConfig, DCVQEModel, parameter_shapes
from dcvqe.training import (ADAM_BLOCK, AdamState, Checkpoint, TrainConfig, adam_step,
                            evaluate, fit, load_checkpoint, run_repetitions,
                            save_checkpoint, train_epoch, validation_loss)
from oracles import record, train_epoch_one_graph

SMALL_CFG = DCVQEConfig(input_dim=6, model_dim=8, num_heads=2, num_layers=2,
                        base_clip_len=4, temporal_range=2, max_seq_len=12)


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("small")
    manifest = data_io.synth_dataset(root, n_videos=24, len_range=(4, 10), dim=6,
                                     noise_sigma=0.05, seed=11)
    return manifest


@pytest.fixture(scope="module")
def small_splits(small_dataset):
    tr, va, te = data_io.split(small_dataset, 11)
    return (data_io.load_sequences(tr, max_len=12),
            data_io.load_sequences(va, max_len=12),
            data_io.load_sequences(te, max_len=12))


def small_train_cfg(**kwargs):
    defaults = dict(max_epochs=2, batch_size=4, learning_rate=1e-3,
                    loss=LossConfig(0.7, 0.3), seed=11)
    defaults.update(kwargs)
    return TrainConfig(**defaults)


class TestAdam:
    def one_param(self, value=1.0):
        p = Tensor([value], name="theta")
        state = AdamState(step=0, m={"theta": np.zeros(1)}, v={"theta": np.zeros(1)})
        return p, state

    def test_zero_gradient_fresh_state_leaves_params(self):
        p, state = self.one_param()
        before = p.data.copy()
        adam_step([("theta", p)], [np.zeros(1)], state, lr=0.1)
        assert np.array_equal(p.data, before)
        assert state.m["theta"][0] == 0.0 and state.v["theta"][0] == 0.0

    def test_zero_gradient_decays_existing_moments(self):
        p, state = self.one_param()
        state.m["theta"][:] = 0.5
        state.v["theta"][:] = 0.25
        adam_step([("theta", p)], [np.zeros(1)], state, lr=0.1)
        assert state.m["theta"][0] == 0.5 * 0.9
        assert state.v["theta"][0] == 0.25 * 0.999

    def test_constant_gradient_approaches_lr_step(self):
        p, state = self.one_param(0.0)
        lr = 0.01
        for _ in range(300):
            prev = p.data.copy()
            adam_step([("theta", p)], [np.array([2.5])], state, lr=lr)
        # late in training the bias-corrected update tends to lr * sign(g)
        assert math.isclose(abs((p.data - prev)[0]), lr, rel_tol=1e-3)

    def test_three_steps_match_hand_recurrence(self):
        p, state = self.one_param(1.0)
        lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
        grads = [0.3, -1.2, 0.7]
        theta, m, v = 1.0, 0.0, 0.0
        for t, g in enumerate(grads, start=1):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            theta -= lr * (m / (1 - b1 ** t)) / (math.sqrt(v / (1 - b2 ** t)) + eps)
        for g in grads:
            adam_step([("theta", p)], [np.array([g])], state, lr=lr)
        assert math.isclose(p.data[0], theta, rel_tol=1e-15)
        assert state.step == 3

    def test_in_place_update_is_bit_identical_to_formula(self):
        rng = np.random.default_rng(14)
        p = Tensor(rng.normal(size=(4, 3)), name="w")
        state = AdamState(step=0, m={"w": np.zeros((4, 3))}, v={"w": np.zeros((4, 3))})
        model = DCVQEModel(DCVQEConfig(input_dim=1, model_dim=2, num_heads=1), {"w": p})
        before = Checkpoint.snapshot(model, state, val_loss=0.0, epoch=0)
        theta, m, v = p.data.copy(), np.zeros((4, 3)), np.zeros((4, 3))
        initial = p.data.copy()
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        for t in range(1, 4):
            g = rng.normal(size=(4, 3))
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * (g * g)
            theta = theta - lr * (m / (1.0 - b1 ** t)) / (np.sqrt(v / (1.0 - b2 ** t)) + eps)
            adam_step([("w", p)], [g], state, lr=lr)
            assert np.array_equal(p.data, theta)
            assert np.array_equal(state.m["w"], m) and np.array_equal(state.v["w"], v)
        assert np.array_equal(before.adam.m["w"], np.zeros((4, 3)))
        assert np.array_equal(before.adam.v["w"], np.zeros((4, 3)))
        assert np.array_equal(before.params["w"], initial)

    def test_blocked_update_spans_blocks_and_writes_through(self):
        # 4096 x 9 = 36,864 elements: two full blocks plus a remainder, with an
        # F-ordered gradient; every block must see the formula's float order
        assert 2 * ADAM_BLOCK < 4096 * 9 < 3 * ADAM_BLOCK
        rng = np.random.default_rng(15)
        p = Tensor(rng.normal(size=(4096, 9)), name="w")
        small = Tensor(rng.normal(size=(3,)), name="b")
        state = AdamState(step=0, m={"w": np.zeros((4096, 9)), "b": np.zeros(3)},
                          v={"w": np.zeros((4096, 9)), "b": np.zeros(3)})
        model = DCVQEModel(DCVQEConfig(input_dim=1, model_dim=2, num_heads=1),
                           {"w": p, "b": small})
        held = (p.data, state.m["w"], state.v["w"])
        theta, m, v = p.data.copy(), np.zeros((4096, 9)), np.zeros((4096, 9))
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        for t in range(1, 4):
            g = np.asfortranarray(rng.normal(size=(4096, 9)))
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * (g * g)
            theta = theta - lr * (m / (1.0 - b1 ** t)) / (np.sqrt(v / (1.0 - b2 ** t)) + eps)
            adam_step(model.named_parameters(), [g, rng.normal(size=(3,))], state, lr=lr)
            assert np.array_equal(p.data, theta)
            assert np.array_equal(state.m["w"], m) and np.array_equal(state.v["w"], v)
        assert model.params["w"].data is held[0]
        assert state.m["w"] is held[1] and state.v["w"] is held[2]

    def test_nonfinite_gradient_names_parameter(self):
        p, state = self.one_param()
        with pytest.raises(FloatingPointError, match="theta"):
            adam_step([("theta", p)], [np.array([np.nan])], state, lr=0.1)

    def test_nonfinite_gradient_changes_nothing(self):
        # the first parameter's gradient is fine: it must not be updated either
        first = Tensor(np.ones(3), name="a")
        second = Tensor(np.ones(3), name="b")
        grads = [np.full(3, 0.5), np.array([0.5, np.nan, 0.5])]
        state = AdamState(step=4, m={"a": np.full(3, 0.2), "b": np.full(3, 0.2)},
                          v={"a": np.full(3, 0.3), "b": np.full(3, 0.3)})
        with pytest.raises(FloatingPointError, match="'b'"):
            adam_step([("a", first), ("b", second)], grads, state, lr=0.1)
        assert state.step == 4
        for name, p in (("a", first), ("b", second)):
            assert np.array_equal(p.data, np.ones(3))
            assert np.array_equal(state.m[name], np.full(3, 0.2))
            assert np.array_equal(state.v[name], np.full(3, 0.3))


class TestTrainStepOnTwoThreads:
    def test_paper_shape_step_is_bit_identical(self, second_core):
        # a batch of four paper-shape videos: the loss, every gradient, the
        # updated parameters and both Adam moments keep every bit when the
        # input projection and its weight gradient run on two threads
        def step():
            model = DCVQEModel.initialize(DCVQEConfig(), seed=7)
            state = AdamState.for_model(model)
            rng = np.random.default_rng(8)
            videos = [rng.standard_normal((n, 4096), dtype=np.float32) for n in (60, 33, 121, 16)]
            with ad.Graph() as graph:
                preds = [model.forward(v) for v in videos]
                loss = total_loss(preds, Tensor(rng.uniform(1, 5, size=(4, 1))), LossConfig())
            grads = ad.backward(loss, graph, model.parameters())
            adam_step(model.named_parameters(), grads, state, 1e-3)
            return [loss.data, *grads, *(p.data for p in model.parameters()),
                    *state.m.values(), *state.v.values()]

        one_thread = step()
        second_core.force(True)
        two_threads = step()
        assert second_core.splits == 2 * 3  # forward and weight gradient of 3 videos
        assert len(two_threads) == len(one_thread) == 1 + 4 * len(parameter_shapes(DCVQEConfig()))
        assert all(np.array_equal(a, b) for a, b in zip(one_thread, two_threads))


ACCEPTANCE_08 = DCVQEConfig(input_dim=64, model_dim=32, num_heads=4, num_layers=3,
                            base_clip_len=30, temporal_range=15, max_seq_len=600)
LOSSES = {"correlation": LossConfig(0.7, 0.3), "pwrl": LossConfig(0.7, 0.3, "pwrl"),
          "l1": LossConfig(1.0, 0.0, "l1")}


def videos(config, lengths, seed=0):
    rng = np.random.default_rng(seed)
    return [FeatureSequence(f"v{k}", rng.standard_normal((n, config.input_dim),
                                                         dtype=np.float32),
                            float(rng.uniform(1.0, 5.0))) for k, n in enumerate(lengths)]


def trained(epoch, config, seqs, cfgs, path):
    """The losses, Adam step count and checkpoint bytes after one epoch of
    ``epoch`` per train config of ``cfgs``, from one seeded model."""
    model = DCVQEModel.initialize(config, seed=5)
    state = AdamState.for_model(model)
    losses = [epoch(model, seqs, cfg, state, e) for e, cfg in enumerate(cfgs)]
    save_checkpoint(path, Checkpoint.snapshot(model, state, losses[-1], len(cfgs)))
    return losses, state.step, path.read_bytes()


def helper_thread() -> bool:
    return threading.current_thread().name.startswith("dcvqe-linear")


class TestOneTapePerVideo:
    """``train_epoch`` records each video on a graph of its own and seeds its
    backward from the loss: the losses, parameters, Adam moments and
    checkpoint bytes are those of the whole batch on one graph, and so are
    they when the videos run on two threads."""

    @pytest.mark.parametrize("loss, batch_size", [
        ("correlation", 5), ("correlation", 16), ("pwrl", 5), ("pwrl", 16),
        ("l1", 1), ("l1", 5), ("l1", 16)])
    def test_keeps_the_bits_of_one_graph(self, loss, batch_size, tmp_path):
        # 21 videos of 1..600 frames: batches of 5 leave a last batch of 1,
        # and batches of 16 one of 5
        lengths = np.random.default_rng(3).integers(1, 601, size=21)
        seqs = videos(ACCEPTANCE_08, lengths)
        cfg = TrainConfig(batch_size=batch_size, learning_rate=1e-3, loss=LOSSES[loss], seed=4)
        want = trained(train_epoch_one_graph, ACCEPTANCE_08, seqs, [cfg, cfg], tmp_path / "a")
        assert trained(train_epoch, ACCEPTANCE_08, seqs, [cfg, cfg], tmp_path / "b") == want

    @pytest.fixture(scope="class")
    def paper_videos(self):
        # remainder clips at every layer, and a video of 31 frames, whose
        # projection linear never splits: the batch that holds it runs on
        # one thread
        return videos(DCVQEConfig(), [45, 33, 61, 40, 31, 52, 36, 90], seed=6)

    @pytest.mark.parametrize("loss", LOSSES)
    @pytest.mark.parametrize("two_cores", [False, True])
    def test_paper_shape_keeps_the_bits_on_two_threads(self, loss, two_cores, paper_videos,
                                                       second_core, tmp_path):
        cfg = TrainConfig(batch_size=4, learning_rate=1e-3, loss=LOSSES[loss], seed=4)
        want = trained(train_epoch_one_graph, DCVQEConfig(), paper_videos, [cfg],
                       tmp_path / "a")
        assert second_core.splits == 0
        second_core.force(two_cores)
        got = trained(train_epoch, DCVQEConfig(), paper_videos, [cfg], tmp_path / "b")
        # on two cores, one batch runs its forwards and then its backwards on
        # both threads; the other holds the 31-frame video and runs on one,
        # where linear splits the forward and weight gradient of 3 videos
        assert second_core.splits == two_cores * (2 + 2 * 3)
        assert got == want

    def test_a_tape_per_video_and_one_for_the_loss(self, paper_videos, second_core,
                                                   monkeypatch):
        # the loss graph's backward comes first, then each video's, last
        # video first, seeded with the [1, 1] row of its score
        second_core.force(True)
        calls = []
        backward = ad.backward

        def spy(loss, graph, wrt, seed=None):
            calls.append((len(graph), [n.op for n in graph.nodes].count("total_loss"),
                          None if seed is None else seed.shape, len(wrt)))
            return backward(loss, graph, wrt, seed)

        monkeypatch.setattr(ad, "backward", spy)
        model = DCVQEModel.initialize(DCVQEConfig(), seed=2)
        batch = [paper_videos[k] for k in (0, 1, 2, 3)]
        train_epoch(model, batch, TrainConfig(batch_size=4, seed=4, learning_rate=1e-3),
                    AdamState.for_model(model), 0)
        n_params = len(parameter_shapes(DCVQEConfig()))
        # per video: the input projection and the regressor, the positional
        # table, one divide and one conquer node per layer
        assert calls == [(1, 1, None, 4)] + [(9, 0, (1, 1), n_params)] * 4
        assert second_core.splits == 2

    @staticmethod
    def fail_second_video(monkeypatch, fail, on_helper):
        """Patch ``forward`` so that the second video to start runs
        ``fail(features)`` first. With ``on_helper`` that is the helper's first
        video: the calling thread's first video waits until the helper has
        failed, then gives its failure time to land. Returns the names of
        the threads, one per video started."""
        forward = DCVQEModel.forward
        started, failed = [], threading.Event()

        def spy(self, features):
            started.append(threading.current_thread().name)
            second = helper_thread() if on_helper else len(started) == 2
            if second:
                failed.set()
                fail(features)
            elif on_helper:
                assert failed.wait(30)
                time.sleep(0.2)
            return forward(self, features)

        monkeypatch.setattr(DCVQEModel, "forward", spy)
        return started

    def overflow(features):
        np.exp(np.array([1e3]))

    def wrong_width(features):
        DCVQEModel.initialize(DCVQEConfig(), seed=0).project_input(features[:, :-1])

    @pytest.mark.parametrize("fail, code, message", [
        (overflow, 3, "numeric failure: overflow encountered in exp in epoch 1, batch 1\n"),
        (wrong_width, 2, "data error: features must be [S,4096], got ")])
    def test_a_failure_on_the_helper_stops_the_batch(self, fail, code, message, second_core,
                                                     monkeypatch, tmp_path, capsys):
        forward = DCVQEModel.forward
        root = tmp_path / "data"
        data_io.synth_dataset(root, n_videos=16, len_range=(32, 48), dim=4096, seed=8)
        config = tmp_path / "paper.json"
        config.write_text(json.dumps({"epochs": 1, "batch_size": 6, "seed": 8}))
        results = []
        for on_helper in (False, True):
            second_core.force(on_helper)
            started = self.fail_second_video(monkeypatch, fail, on_helper)
            out = tmp_path / f"m{on_helper}.ckpt"
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                results.append(main(["train", "--manifest", str(root / "manifest.jsonl"),
                                     "--out", str(out), "--config", str(config)]))
            assert [str(w.message) for w in caught] == []
            err = capsys.readouterr().err
            assert err.startswith(message)
            results.append(err)
            assert not out.exists() and not (tmp_path / f"m{on_helper}.ckpt.log").exists()
            # the calling thread finishes its video and takes no further one
            assert len(started) == 2
            assert sum(map(str.startswith, started, ["dcvqe-linear"] * 2)) == on_helper
        assert results[0] == code and results[:2] == results[2:]
        # the helper is free: a batch on both threads and a split product run
        monkeypatch.setattr(DCVQEModel, "forward", forward)
        second_core.force(True)
        second_core.splits = 0
        seqs = videos(DCVQEConfig(), [40, 33, 35], seed=9)
        model = DCVQEModel.initialize(DCVQEConfig(), seed=1)
        cfg = TrainConfig(batch_size=3, learning_rate=1e-3, seed=1)
        assert math.isfinite(train_epoch(model, seqs, cfg, AdamState.for_model(model), 0))
        assert second_core.splits == 2
        rows = seqs[0].features
        got = ad.linear(rows, model.params["input.weight"], model.params["input.bias"]).data
        assert second_core.splits == 3
        assert np.array_equal(got, ad.linear(rows.astype(np.float64),
                                             model.params["input.weight"],
                                             model.params["input.bias"]).data)

    def test_paper_shape_training_starts_no_thread_but_the_helper(self, paper_videos,
                                                                  second_core):
        second_core.force(True)
        before = set(threading.enumerate())
        model = DCVQEModel.initialize(DCVQEConfig(), seed=3)
        state = AdamState.for_model(model)
        cfg = TrainConfig(batch_size=4, learning_rate=1e-3, seed=2)
        for epoch in range(2):
            train_epoch(model, paper_videos, cfg, state, epoch)
        assert second_core.splits == 2 * (2 + 2 * 3)
        new = set(threading.enumerate()) - before
        assert len(new) <= 1 and all(t.name.startswith("dcvqe-linear") for t in new)
        assert threading.active_count() <= len(before) + 1


class TestTrainEpoch:
    def test_float32_rows_train_as_their_widened_copy(self, small_splits):
        # features stay float32 until forward wraps them in a float64 Tensor: a
        # step over float32 rows equals one over the same rows widened by hand
        train_seqs, _, _ = small_splits
        assert all(s.features.dtype == np.float32 for s in train_seqs)
        widened = []
        for s in train_seqs:
            w = data_io.FeatureSequence(s.video_id, s.features, s.mos)
            w.features = s.features.astype(np.float64)
            widened.append(w)
        runs = []
        for seqs in (train_seqs, widened):
            model = DCVQEModel.initialize(SMALL_CFG, seed=4)
            state = AdamState.for_model(model)
            loss = train_epoch(model, seqs, small_train_cfg(), state, 0)
            runs.append((loss, model, state))
        (loss32, model32, state32), (loss64, model64, state64) = runs
        assert loss32 == loss64
        for name, p in model32.named_parameters():
            assert np.array_equal(p.data, model64.params[name].data)
            assert np.array_equal(state32.m[name], state64.m[name])
            assert np.array_equal(state32.v[name], state64.v[name])

    def test_zero_lr_keeps_params_bit_identical(self, small_splits):
        train_seqs, _, _ = small_splits
        model = DCVQEModel.initialize(SMALL_CFG, seed=1)
        before = {k: p.data.copy() for k, p in model.named_parameters()}
        cfg = small_train_cfg(learning_rate=0.0)
        train_epoch(model, train_seqs, cfg, AdamState.for_model(model), 0)
        for k, p in model.named_parameters():
            assert np.array_equal(p.data, before[k])

    def test_identical_videos_l1_only(self, small_splits):
        train_seqs, _, _ = small_splits
        video = train_seqs[0]
        batch = [video] * 4
        model = DCVQEModel.initialize(SMALL_CFG, seed=2)
        pred = model.predict(video.features)
        cfg = small_train_cfg(learning_rate=0.0, loss=LossConfig(1.0, 0.0))
        loss = train_epoch(model, batch, cfg, AdamState.for_model(model), 0)
        assert math.isclose(loss, abs(pred - video.mos), rel_tol=1e-12)

    def test_two_epoch_trajectory_replays_bit_identical(self, small_splits):
        train_seqs, _, _ = small_splits
        cfg = small_train_cfg()

        def run():
            model = DCVQEModel.initialize(SMALL_CFG, seed=3)
            state = AdamState.for_model(model)
            return [train_epoch(model, train_seqs, cfg, state, e) for e in range(2)]

        assert run() == run()

    def test_recording_between_steps_changes_no_bit(self, small_splits, tmp_path):
        # one train_epoch over a single batch is one step; the observed run
        # calls record between steps, on the model it trains
        train_seqs, _, _ = small_splits
        cfg = small_train_cfg()
        runs = []
        for observe in (False, True):
            model = DCVQEModel.initialize(SMALL_CFG, seed=5)
            state = AdamState.for_model(model)
            losses = []
            for step in range(3):
                batch = train_seqs[step * cfg.batch_size:(step + 1) * cfg.batch_size]
                losses.append(train_epoch(model, batch, cfg, state, step))
                if observe:
                    acts = record(model, train_seqs[step].features)
                    assert len(acts.video_embeddings) == SMALL_CFG.num_layers
            path = tmp_path / f"observed{observe}.ckpt"
            save_checkpoint(path, Checkpoint.snapshot(model, state, 0.5, 3))
            runs.append((losses, model, state, path.read_bytes()))
        (losses, model, state, raw), (seen_losses, seen, seen_state, seen_raw) = runs
        assert losses == seen_losses and state.step == seen_state.step == 3
        for name, p in model.named_parameters():
            assert np.array_equal(p.data, seen.params[name].data)
            assert np.array_equal(state.m[name], seen_state.m[name])
            assert np.array_equal(state.v[name], seen_state.v[name])
        assert raw == seen_raw

    def test_first_overflow_is_the_failure_and_names_epoch_and_batch(self, small_splits):
        # the first step moves the weights to about 1e308; the second batch
        # overflows, which raises (a RuntimeWarning would fail this test)
        model = DCVQEModel.initialize(SMALL_CFG, seed=4)
        cfg = small_train_cfg(learning_rate=1e308)
        with pytest.raises(FloatingPointError,
                           match=r"^overflow encountered in \w+ in epoch 3, batch 2$"):
            train_epoch(model, small_splits[0], cfg, AdamState.for_model(model), 2)

    def test_empty_training_set_rejected(self):
        model = DCVQEModel.initialize(SMALL_CFG, seed=0)
        with pytest.raises(ValueError):
            train_epoch(model, [], small_train_cfg(), AdamState.for_model(model), 0)


class TestFit:
    def test_single_epoch_returns_epoch_one(self, small_splits):
        train_seqs, val_seqs, _ = small_splits
        model = DCVQEModel.initialize(SMALL_CFG, seed=4)
        history = []
        best = fit(model, train_seqs, val_seqs, small_train_cfg(max_epochs=1),
                   on_epoch=history.append)
        assert best.epoch == 1
        assert len(history) == 1

    def test_retains_first_argmin_of_validation_loss(self, small_splits):
        train_seqs, val_seqs, _ = small_splits
        model = DCVQEModel.initialize(SMALL_CFG, seed=5)
        history = []
        best = fit(model, train_seqs, val_seqs, small_train_cfg(max_epochs=4),
                   on_epoch=history.append)
        val_losses = [r.val_loss for r in history]
        assert best.best_val_loss == min(val_losses)
        assert best.epoch == val_losses.index(min(val_losses)) + 1

    def test_best_no_worse_than_first_epoch(self, small_splits):
        train_seqs, val_seqs, _ = small_splits
        model = DCVQEModel.initialize(SMALL_CFG, seed=6)
        history = []
        best = fit(model, train_seqs, val_seqs, small_train_cfg(max_epochs=3),
                   on_epoch=history.append)
        assert best.best_val_loss <= history[0].val_loss

    def test_nonfinite_validation_loss_names_epoch(self, small_splits, monkeypatch):
        train_seqs, val_seqs, _ = small_splits
        monkeypatch.setattr(training, "validation_loss", lambda *args: math.nan)
        model = DCVQEModel.initialize(SMALL_CFG, seed=4)
        with pytest.raises(FloatingPointError, match="validation loss nan in epoch 1"):
            fit(model, train_seqs, val_seqs, small_train_cfg(max_epochs=2))

    def test_a_validation_overflow_names_the_video_and_the_epoch(self, small_splits,
                                                                  monkeypatch):
        train_seqs, val_seqs, _ = small_splits
        monkeypatch.setattr(training, "train_epoch", lambda *args: 0.0)
        model = DCVQEModel.initialize(SMALL_CFG, seed=4)
        model.params["input.weight"].data[:] = 1e300
        message = (f"overflow encountered in matmul in video {val_seqs[0].video_id!r} "
                   f"in epoch 1, validation")
        with pytest.raises(FloatingPointError, match=f"^{re.escape(message)}$"):
            fit(model, train_seqs, val_seqs, small_train_cfg(max_epochs=2))

    def test_resume_replays_unbroken_trajectory(self, small_splits):
        train_seqs, val_seqs, _ = small_splits
        cfg = small_train_cfg(max_epochs=4)

        model_a, full = DCVQEModel.initialize(SMALL_CFG, seed=7), []
        fit(model_a, train_seqs, val_seqs, cfg, on_epoch=full.append)

        model_b, first = DCVQEModel.initialize(SMALL_CFG, seed=7), []
        state_b = AdamState.for_model(model_b)
        fit(model_b, train_seqs, val_seqs, small_train_cfg(max_epochs=2), state=state_b,
            on_epoch=first.append)
        final = Checkpoint.snapshot(model_b, state_b, first[-1].val_loss, 2)
        resumed_model, second = final.build_model(), []
        fit(resumed_model, train_seqs, val_seqs, cfg, start_epoch=2, state=final.adam,
            on_epoch=second.append)

        joined = [(r.epoch, r.train_loss, r.val_loss) for r in first + second]
        reference = [(r.epoch, r.train_loss, r.val_loss) for r in full]
        assert joined == reference
        for name in model_a.params:
            assert np.array_equal(model_a.params[name].data, resumed_model.params[name].data)


class TestCheckpointIO:
    def make_checkpoint(self, seed=0):
        model = DCVQEModel.initialize(SMALL_CFG, seed=seed)
        state = AdamState.for_model(model)
        state.step = 5
        for k in state.m:
            state.m[k] += 0.25
        return Checkpoint.snapshot(model, state, val_loss=1.25, epoch=3)

    def test_save_load_save_byte_identical(self, tmp_path):
        cp = self.make_checkpoint()
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, cp)
        save_checkpoint(p2, load_checkpoint(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_round_trip_preserves_everything(self, tmp_path):
        cp = self.make_checkpoint(seed=9)
        save_checkpoint(tmp_path / "c.ckpt", cp)
        back = load_checkpoint(tmp_path / "c.ckpt")
        assert back.config == cp.config
        assert back.epoch == 3 and back.adam.step == 5
        assert back.best_val_loss == 1.25
        for k in cp.params:
            assert np.array_equal(back.params[k], cp.params[k])
            assert np.array_equal(back.adam.m[k], cp.adam.m[k])
            assert np.array_equal(back.adam.v[k], cp.adam.v[k])

    def test_build_model_draws_nothing_and_copies_the_payloads(self, monkeypatch):
        cp = self.make_checkpoint(seed=4)
        before = {name: value.copy() for name, value in cp.params.items()}

        def no_draw(*args, **kwargs):
            raise AssertionError("build_model drew a model")

        monkeypatch.setattr(DCVQEModel, "initialize", no_draw)
        model = cp.build_model()
        assert model.config == cp.config and list(model.params) == list(cp.params)
        for name, p in model.named_parameters():
            assert p.name == name
            assert p.data.tobytes() == cp.params[name].tobytes()
        adam_step(model.named_parameters(), [np.ones(p.shape) for p in model.parameters()],
                  AdamState.for_model(model), lr=0.1)
        assert not np.array_equal(model.params["input.weight"].data, before["input.weight"])
        for name, value in before.items():
            assert cp.params[name].tobytes() == value.tobytes(), name

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"JUNKJUNKJUNK")
        with pytest.raises(data_io.FormatError):
            load_checkpoint(path)

    @pytest.mark.parametrize("group", ["params", "adam_m", "adam_v"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_payload_value_rejected_at_its_offset(self, tmp_path, group, bad):
        cp = self.make_checkpoint()
        sentinel = 12345.678  # marks the element's bytes in the file
        {"params": cp.params, "adam_m": cp.adam.m, "adam_v": cp.adam.v}[group][
            "layer2.divide.key"][3, 5] = sentinel
        path = tmp_path / "n.ckpt"
        save_checkpoint(path, cp)
        raw = path.read_bytes()
        at = raw.index(np.float64(sentinel).astype("<f8").tobytes())
        path.write_bytes(raw[:at] + np.float64(bad).astype("<f8").tobytes() + raw[at + 8:])
        with pytest.raises(data_io.FormatError,
                           match=rf"{group} 'layer2.divide.key' at element 29") as err:
            load_checkpoint(path)
        assert err.value.offset == at

    def rewrite_header(self, path, edit):
        raw = path.read_bytes()
        _, length = struct.unpack_from("<II", raw, 4)
        header = json.loads(raw[12:12 + length])
        edit(header)
        blob = json.dumps(header, sort_keys=True).encode()
        path.write_bytes(raw[:8] + struct.pack("<I", len(blob)) + blob + raw[12 + length:])

    @pytest.mark.parametrize("shape", [[2 ** 62, 4], [-1], [6.0, 8], [True, 8], [10 ** 6]],
                             ids=["count_wraps_int64", "negative", "float", "bool",
                                  "larger_than_the_file"])
    def test_impossible_parameter_shape_rejected_at_the_header(self, tmp_path, shape):
        path = tmp_path / "s.ckpt"
        save_checkpoint(path, self.make_checkpoint())
        self.rewrite_header(path, lambda h: h["params"][0].update(shape=shape))
        with pytest.raises(data_io.FormatError, match="parameter 0 of the header") as err:
            load_checkpoint(path)
        assert err.value.offset == 12

    def test_zero_heads_rejected_at_the_header(self, tmp_path):
        path = tmp_path / "h.ckpt"
        save_checkpoint(path, self.make_checkpoint())
        self.rewrite_header(path, lambda h: h["config"].update(num_heads=0))
        with pytest.raises(data_io.FormatError, match="num_heads") as err:
            load_checkpoint(path)
        assert err.value.offset == 12

    def test_repeated_parameter_name_rejected_at_the_header(self, tmp_path):
        path = tmp_path / "d.ckpt"
        save_checkpoint(path, self.make_checkpoint())

        def repeat_first_name(header):
            header["params"][1]["name"] = header["params"][0]["name"]

        self.rewrite_header(path, repeat_first_name)
        with pytest.raises(data_io.FormatError, match="parameter 1 of the header") as err:
            load_checkpoint(path)
        assert err.value.offset == 12

    @pytest.mark.parametrize("edit, message", [
        ({"input_dim": 7}, "lays out {'name': 'input.weight', 'shape': [7, 8]}"),
        ({"input_dim": 2 ** 36}, "lays out {'name': 'input.weight', 'shape': [68719476736, 8]}"),
        ({"model_dim": 16}, "lays out {'name': 'input.weight', 'shape': [6, 16]}"),
        ({"num_layers": 3}, "lays out {'name': 'layer3.divide.query', 'shape': [8, 8]}"),
        ({"num_layers": 2 ** 40}, "1099511627776 layers, but 18 parameters listed"),
    ], ids=["input_dim=7", "input_dim=2**36", "model_dim=16", "num_layers=3", "num_layers=2**40"])
    def test_config_disagreeing_with_the_payloads_rejected_at_the_header(self, tmp_path, edit,
                                                                           message):
        path = tmp_path / "c.ckpt"
        save_checkpoint(path, self.make_checkpoint())
        self.rewrite_header(path, lambda h: h["config"].update(edit))
        with pytest.raises(data_io.FormatError, match=re.escape(message)) as err:
            load_checkpoint(path)
        assert err.value.offset == 12

    @pytest.mark.parametrize("edit", [{"input_dim": 2 ** 36}, {"model_dim": 16},
                                      {"num_layers": 3}],
                             ids=["input_dim=2**36", "model_dim=16", "num_layers=3"])
    def test_predict_with_a_disagreeing_config_is_a_data_error(self, tmp_path, capsys, edit):
        path = tmp_path / "p.ckpt"
        save_checkpoint(path, self.make_checkpoint())
        self.rewrite_header(path, lambda h: h["config"].update(edit))
        rows = np.random.default_rng(0).normal(size=(5, SMALL_CFG.input_dim))
        data_io.write_features(tmp_path / "v.dcvq", FeatureSequence("v", rows, 3.0))
        assert main(["predict", "--checkpoint", str(path), str(tmp_path / "v.dcvq")]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        assert "data error: corrupt checkpoint header" in err

    @pytest.mark.parametrize("field", ["adam_step", "epoch"])
    def test_infinite_counter_rejected_at_the_header(self, tmp_path, field):
        path = tmp_path / "i.ckpt"
        save_checkpoint(path, self.make_checkpoint())
        self.rewrite_header(path, lambda h: h.update({field: math.inf}))
        with pytest.raises(data_io.FormatError, match="must be integers >= 0") as err:
            load_checkpoint(path)
        assert err.value.offset == 12

    @pytest.mark.parametrize("edit", [{"adam_step": 2.5}, {"epoch": -4},
                                      {"best_val_loss": "nan"}, {"best_val_loss": math.nan},
                                      {"adam_step": True}, {"epoch": None}],
                             ids=["fractional_step", "negative_epoch", "text_nan_loss",
                                  "nan_loss", "bool_step", "null_epoch"])
    def test_counter_or_loss_of_the_wrong_kind_rejected_at_the_header(self, tmp_path, edit):
        path = tmp_path / "k.ckpt"
        save_checkpoint(path, self.make_checkpoint())
        self.rewrite_header(path, lambda h: h.update(edit))
        with pytest.raises(data_io.FormatError, match=next(iter(edit))) as err:
            load_checkpoint(path)
        assert err.value.offset == 12

    @pytest.mark.parametrize("epochs", [2, 0], ids=["trained", "no_epoch_infinite_loss"])
    def test_trained_checkpoint_loads_and_saves_byte_identical(self, small_splits, tmp_path,
                                                               epochs):
        train_seqs, val_seqs, _ = small_splits
        model = DCVQEModel.initialize(SMALL_CFG, seed=6)
        best = fit(model, train_seqs, val_seqs, small_train_cfg(max_epochs=2),
                   start_epoch=2 - epochs)
        assert (best.best_val_loss == math.inf) == (epochs == 0)
        first, second = tmp_path / "best.ckpt", tmp_path / "best-again.ckpt"
        save_checkpoint(first, best)
        save_checkpoint(second, load_checkpoint(first))
        assert first.read_bytes() == second.read_bytes()

    def test_a_write_that_fails_leaves_the_previous_checkpoint(self, tmp_path):
        """The bytes go to a temporary file that replaces the checkpoint only
        once it is whole: a write that raises partway, here at the last
        group of the payload, leaves the old file byte for byte and no
        temporary file."""
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, self.make_checkpoint())
        before = path.read_bytes()
        cp = self.make_checkpoint(seed=1)
        cp.adam.v["regressor.bias"] = np.array([["not a number"]])
        with pytest.raises(ValueError, match="could not convert"):
            save_checkpoint(path, cp)
        assert path.read_bytes() == before
        assert sorted(tmp_path.iterdir()) == [path]
        whole = self.make_checkpoint(seed=1)
        save_checkpoint(path, whole)  # a whole write replaces it
        assert np.array_equal(load_checkpoint(path).params["input.weight"],
                              whole.params["input.weight"])
        assert sorted(tmp_path.iterdir()) == [path]

    def test_truncated_payload_rejected(self, tmp_path):
        cp = self.make_checkpoint()
        path = tmp_path / "t.ckpt"
        save_checkpoint(path, cp)
        raw = path.read_bytes()
        path.write_bytes(raw[:len(raw) - 16])
        with pytest.raises(data_io.FormatError):
            load_checkpoint(path)


class _OracleModel:
    """Evaluation stub that answers with the true score of each video."""

    def __init__(self, seqs):
        self.lookup = {s.features.tobytes(): s.mos for s in seqs}

    def predict(self, features):
        return self.lookup[np.asarray(features).tobytes()]


class _ConstantModel:
    def predict(self, features):
        return 3.0


class TestEvaluate:
    def test_oracle_model_perfect_scores(self, small_splits):
        _, _, test_seqs = small_splits
        report = evaluate(_OracleModel(test_seqs), test_seqs)
        assert report.srcc == 1.0 and report.rmse == 0.0
        assert report.n == len(test_seqs)

    def test_constant_model_degenerate(self, small_splits):
        _, _, test_seqs = small_splits
        with pytest.raises(DegenerateInputError):
            evaluate(_ConstantModel(), test_seqs)

    def test_needs_two_videos(self, small_splits):
        _, _, test_seqs = small_splits
        with pytest.raises(ValueError):
            evaluate(_ConstantModel(), test_seqs[:1])

    def test_matches_straight_line_eval_path(self, small_splits):
        """Independent re-run of the evaluation pipeline with scipy metrics."""
        train_seqs, val_seqs, test_seqs = small_splits
        model = DCVQEModel.initialize(SMALL_CFG, seed=8)
        model = fit(model, train_seqs, val_seqs, small_train_cfg(max_epochs=2)).build_model()
        report = evaluate(model, test_seqs)

        preds = np.array([model.forward(s.features).item() for s in test_seqs])
        truth = np.array([s.mos for s in test_seqs])
        assert math.isclose(report.srcc, scipy.stats.spearmanr(preds, truth).statistic,
                            rel_tol=1e-12)
        assert math.isclose(report.krcc,
                            scipy.stats.kendalltau(preds, truth, variant="b").statistic,
                            rel_tol=1e-12)
        assert math.isclose(report.plcc, scipy.stats.pearsonr(preds, truth).statistic,
                            rel_tol=1e-9)
        assert math.isclose(report.rmse, float(np.sqrt(((preds - truth) ** 2).mean())),
                            rel_tol=1e-12)


class TestRunRepetitions:
    def test_single_repetition_median_is_the_run(self, small_dataset):
        cfg = small_train_cfg(max_epochs=1, repetitions=1)
        result = run_repetitions(small_dataset, SMALL_CFG, cfg)
        assert result.median == result.runs[0].report

    def test_deterministic_table(self, small_dataset):
        cfg = small_train_cfg(max_epochs=1, repetitions=2)
        a = run_repetitions(small_dataset, SMALL_CFG, cfg)
        b = run_repetitions(small_dataset, SMALL_CFG, cfg)
        assert [r.report for r in a.runs] == [r.report for r in b.runs]

    def test_median_within_run_range(self, small_dataset):
        cfg = small_train_cfg(max_epochs=1, repetitions=3)
        result = run_repetitions(small_dataset, SMALL_CFG, cfg)
        values = [r.report.srcc for r in result.runs]
        assert min(values) <= result.median.srcc <= max(values)
        assert [r.seed for r in result.runs] == [11, 12, 13]

    def test_small_test_split_fails_before_training(self, tmp_path, monkeypatch):
        # 5 videos split 3/1/1, and evaluate needs two test videos
        manifest = data_io.synth_dataset(tmp_path, n_videos=5, len_range=(4, 6), dim=6,
                                         seed=12)

        def no_fit(*args, **kwargs):
            raise AssertionError("fit ran before the test split was checked")

        monkeypatch.setattr(training, "fit", no_fit)
        with pytest.raises(ValueError, match="evaluate needs >= 2 videos, got 1"):
            run_repetitions(manifest, SMALL_CFG, small_train_cfg(max_epochs=1))


class TestTrainConfigValidation:
    def test_correlation_needs_batch_of_two(self):
        with pytest.raises(ValueError):
            TrainConfig(batch_size=1, loss=LossConfig(0.7, 0.3))

    def test_l1_only_allows_batch_of_one(self):
        TrainConfig(batch_size=1, loss=LossConfig(1.0, 0.0, variant="l1"))

    def test_bad_epochs(self):
        with pytest.raises(ValueError):
            TrainConfig(max_epochs=0)

    @pytest.mark.parametrize("lr", [-1.0, -1e-300, math.nan, math.inf])
    def test_learning_rate_must_be_finite_and_nonnegative(self, lr):
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(learning_rate=lr)
