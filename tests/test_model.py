"""Architecture behavior: masks, clip splitting, both transformer stages,
and the full forward pass against a straight-line numpy reimplementation."""

import json
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcvqe import autodiff as ad
from dcvqe.autodiff import Tensor
from dcvqe.data import FeatureSequence
from dcvqe.losses import LossConfig, total_loss
from dcvqe.model import (AttentionCost, AttentionMask, DCVQEConfig, DCVQEModel,
                         SequenceLengthError, parameter_shapes, split_clips, transformer_c,
                         transformer_d)
from dcvqe.training import TINY_CONFIG, AdamState, Checkpoint, save_checkpoint
from oracles import initial_params

TINY = DCVQEConfig(input_dim=12, model_dim=8, num_heads=2, num_layers=2,
                   base_clip_len=4, temporal_range=2, max_seq_len=16)


def make_model(config=TINY, seed=0, scale=0.5):
    return DCVQEModel.initialize(config, seed=seed, init_scale=scale)


def zero_model(config=TINY):
    model = make_model(config)
    for p in model.parameters():
        p.data[:] = 0.0
    return model


def random_projections(rng, dim, scale=0.5):
    return tuple(Tensor(rng.normal(0, scale, (dim, dim))) for _ in range(3))


# ---------------------------------------------------------------------------
# straight-line reference implementation (independent oracle for forward)
# ---------------------------------------------------------------------------

def reference_forward(config: DCVQEConfig, params: dict, feats: np.ndarray) -> float:
    p = {k: t.data for k, t in params.items()}
    d, n_heads = config.model_dim, config.num_heads
    head_dim = d // n_heads
    n_frames = feats.shape[0]

    def attention(seq, prefix, admissible):
        n = seq.shape[0]
        out = np.zeros((n, d))
        for h in range(n_heads):
            lo, hi = h * head_dim, (h + 1) * head_dim
            q = seq @ p[f"{prefix}.query"][:, lo:hi]
            k = seq @ p[f"{prefix}.key"][:, lo:hi]
            v = seq @ p[f"{prefix}.value"][:, lo:hi]
            scores = q @ k.T / math.sqrt(head_dim)
            w = np.zeros((n, n))
            for i in range(n):
                row = [scores[i, j] for j in range(n) if admissible[i][j]]
                zmax = max(row)
                denom = sum(math.exp(z - zmax) for z in row)
                for j in range(n):
                    if admissible[i][j]:
                        w[i, j] = math.exp(scores[i, j] - zmax) / denom
            out[:, lo:hi] = w @ v
        return out

    frames = feats @ p["input.weight"] + p["input.bias"][0]
    frames = frames + p["positional"][1:n_frames + 1]
    video = (p["video_token"][0] + p["positional"][0])[None, :]
    for layer in range(1, config.num_layers + 1):
        clip_len = config.base_clip_len * 2 ** (layer - 1)
        r = config.temporal_range
        clip_qes = []
        new_frames = np.zeros_like(frames)
        for start in range(0, n_frames, clip_len):
            stop = min(start + clip_len, n_frames)
            seq = np.vstack([video, frames[start:stop]])
            n = seq.shape[0]
            adm = [[i == 0 or j == 0 or r is None or abs(i - j) <= r
                    for j in range(n)] for i in range(n)]
            out = seq + attention(seq, f"layer{layer}.divide", adm)
            clip_qes.append(out[0])
            new_frames[start:stop] = out[1:]
        cq = np.vstack(clip_qes)
        adm_all = [[True] * cq.shape[0] for _ in range(cq.shape[0])]
        video = attention(cq, f"layer{layer}.conquer", adm_all).mean(axis=0, keepdims=True)
        frames = new_frames
    return (video @ p["regressor.weight"] + p["regressor.bias"]).item()


# ---------------------------------------------------------------------------


class TestSplitClips:
    def test_remainder(self):
        assert split_clips(10, 4) == [(0, 4), (4, 8), (8, 10)]

    def test_exact(self):
        assert split_clips(4, 4) == [(0, 4)]

    def test_600_by_30(self):
        bounds = split_clips(600, 30)
        assert len(bounds) == 20
        assert all(b - a == 30 for a, b in bounds)

    @given(st.integers(min_value=1, max_value=400), st.integers(min_value=1, max_value=50))
    def test_consecutive_disjoint_covering(self, length, clip_len):
        bounds = split_clips(length, clip_len)
        assert len(bounds) == math.ceil(length / clip_len)
        assert bounds[0][0] == 0 and bounds[-1][1] == length
        for (a0, b0), (a1, b1) in zip(bounds, bounds[1:]):
            assert b0 == a1 and b0 - a0 == clip_len
        assert 1 <= bounds[-1][1] - bounds[-1][0] <= clip_len

    def test_invalid(self):
        with pytest.raises(ValueError):
            split_clips(0, 4)


class TestAttentionMask:
    def test_banded_structure(self):
        mask = AttentionMask.banded(8, 2)
        adm = mask.admissible
        assert adm[0, :].all() and adm[:, 0].all()
        assert np.array_equal(adm, adm.T)
        assert adm.diagonal().all()
        for i in range(1, 8):
            for j in range(1, 8):
                assert adm[i, j] == (abs(i - j) <= 2)

    def test_unlimited_range(self):
        assert AttentionMask.banded(5, None).admissible.all()

    def test_shared_and_read_only(self):
        mask = AttentionMask.banded(9, 3)
        assert AttentionMask.banded(9, 3) is mask
        assert AttentionMask.banded(9, None) is not mask
        with pytest.raises(ValueError, match="read-only"):
            mask.admissible[1, 8] = True
        assert not mask.admissible[1, 8]

    def test_frame_pair_outside_window_gets_zero_weight(self):
        # clip of 6 frames, radius 2: frame 2 -> frame 5 distance 3, masked
        rng = np.random.default_rng(0)
        proj = random_projections(rng, 8)
        video = Tensor(rng.normal(size=(1, 8)))
        frames = Tensor(rng.normal(size=(6, 8)))
        mask = AttentionMask.banded(7, 2)
        sink = []
        transformer_d(proj, 2, video, frames, mask, attn_sink=sink)
        weights = sink[0]  # (heads, 7, 7); frame f sits at position f+1
        assert (weights[:, 2 + 1, 5 + 1] == 0.0).all()
        assert (weights[:, 5 + 1, 2 + 1] == 0.0).all()
        assert (weights[:, 0, :] > 0).all() and (weights[:, :, 0] > 0).all()


class TestTransformerD:
    def test_zero_weights_is_identity(self):
        rng = np.random.default_rng(1)
        dim = 8
        proj = (Tensor(np.zeros((dim, dim))),) * 3
        video = Tensor(rng.normal(size=(1, dim)))
        frames = Tensor(rng.normal(size=(5, dim)))
        sink = []
        clip_qe, out = transformer_d(proj, 2, video, frames,
                                     AttentionMask.banded(6, 2), attn_sink=sink)
        assert np.array_equal(clip_qe.data, video.data)
        assert np.array_equal(out.data, frames.data)
        # with zero scores the attention is uniform over admitted positions
        weights = sink[0]
        adm = AttentionMask.banded(6, 2).admissible
        expected = adm / adm.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(weights[0], expected, atol=1e-15)

    def test_single_frame_fully_admissible(self):
        rng = np.random.default_rng(2)
        proj = random_projections(rng, 8)
        sink = []
        transformer_d(proj, 2, Tensor(rng.normal(size=(1, 8))),
                      Tensor(rng.normal(size=(1, 8))),
                      AttentionMask.banded(2, 1), attn_sink=sink)
        assert sink[0].shape == (2, 2, 2)
        assert (sink[0] > 0).all()

    def test_mask_size_check(self):
        rng = np.random.default_rng(3)
        proj = random_projections(rng, 8)
        with pytest.raises(ad.ShapeError):
            transformer_d(proj, 2, Tensor(rng.normal(size=(1, 8))),
                          Tensor(rng.normal(size=(4, 8))), AttentionMask.banded(4, 2))


    def test_clip_len_form_matches_one_call_per_clip(self):
        rng = np.random.default_rng(5)
        proj = random_projections(rng, 8)
        video = Tensor(rng.normal(size=(1, 8)))
        frames = Tensor(rng.normal(size=(10, 8)))
        sink = []
        clip_qes, out = transformer_d(proj, 2, video, frames, AttentionMask.banded(5, 2),
                                      attn_sink=sink, clip_len=4)
        want_sink = []
        for c, (start, stop) in enumerate(split_clips(10, 4)):
            clip_frames = Tensor(frames.data[start:stop])
            qe, f = transformer_d(proj, 2, video, clip_frames,
                                  AttentionMask.banded(stop - start + 1, 2), attn_sink=want_sink)
            np.testing.assert_allclose(clip_qes.data[c:c + 1], qe.data, rtol=0, atol=1e-12)
            np.testing.assert_allclose(out.data[start:stop], f.data, rtol=0, atol=1e-12)
        assert [w.shape for w in sink] == [w.shape for w in want_sink]
        for got, want in zip(sink, want_sink):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


class TestSoftmaxFallback:
    def test_fallback_agrees_with_the_fast_path_on_a_training_batch(self, monkeypatch):
        """``_EXP_SAFE`` = 0 sends every masked softmax down the shifted
        fallback; on a train-small-shaped batch, loss, scores and every
        parameter gradient stay within 1e-12 relative of the fast path."""
        cfg = DCVQEConfig(input_dim=64, model_dim=32, num_heads=4, num_layers=3,
                          base_clip_len=30, temporal_range=15, max_seq_len=600)
        model = DCVQEModel.initialize(cfg, seed=11)
        rng = np.random.default_rng(12)
        videos = [rng.normal(size=(n, 64)) for n in (1, 61, 137, 300)]
        mos = Tensor(rng.uniform(1, 5, (4, 1)))

        def run():
            ad.zero_grads(model.parameters())
            with ad.Graph() as graph:
                preds = ad.concat_rows([model.forward(v) for v in videos])
                loss = total_loss(preds, mos, LossConfig(0.7, 0.3))
            ad.backward(loss, graph)
            return loss.item(), preds.data.copy(), {n: p.grad for n, p in
                                                    model.named_parameters()}

        fast = run()
        monkeypatch.setattr(ad, "_EXP_SAFE", 0.0)
        fallback = run()
        assert fast[0] == pytest.approx(fallback[0], rel=1e-12, abs=0)
        np.testing.assert_allclose(fast[1], fallback[1], rtol=1e-12, atol=0)
        assert fast[2].keys() == fallback[2].keys()
        for name, grad in fallback[2].items():
            assert np.abs(fast[2][name] - grad).max() <= 1e-12 * np.abs(grad).max(), name


class TestTapeSize:
    def test_training_batch_at_acceptance_08_shape_records_146_nodes(self):
        cfg = DCVQEConfig(input_dim=64, model_dim=32, num_heads=4, num_layers=3,
                          base_clip_len=30, temporal_range=15, max_seq_len=600)
        model = DCVQEModel.initialize(cfg, seed=7)
        rng = np.random.default_rng(8)
        videos = [rng.normal(size=(int(n), 64)) for n in rng.integers(60, 301, size=16)]
        with ad.Graph() as graph:
            preds = ad.concat_rows([model.forward(v) for v in videos])
            loss = total_loss(preds, Tensor(rng.uniform(1, 5, (16, 1))), LossConfig(0.7, 0.3))
        ops = [node.op for node in graph.nodes]
        assert len(ops) == 146
        # per video: input projection and regressor, the positional table, and
        # one divide and one conquer node per layer; per batch: the loss
        assert Counter(ops) == {"linear": 32, "positional": 16, "divide_attention": 48,
                                "conquer_attention": 48, "concat_rows": 1, "total_loss": 1}
        ad.backward(loss, graph)
        assert all(p.grad is not None for p in model.parameters())

    def test_tape_keeps_float32_rows_without_a_float64_copy(self):
        # the float64 rows exist only inside the input projection's GEMMs
        model = DCVQEModel.initialize(DCVQEConfig(), seed=3)
        rows = np.random.default_rng(4).standard_normal((600, 4096), dtype=np.float32)
        tracemalloc.start()
        try:
            with ad.Graph() as graph:
                score = model.forward(rows)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert graph.nodes[-1].outputs == (score,)
        assert held < rows.size * 8


class TestTransformerC:
    def test_records_one_node(self):
        rng = np.random.default_rng(8)
        proj = random_projections(rng, 8)
        with ad.Graph() as graph:
            out = transformer_c(proj, 2, Tensor(rng.normal(size=(3, 8))))
        assert [node.op for node in graph.nodes] == ["conquer_attention"]
        assert out.shape == (1, 8)

    def test_single_clip_is_value_projection(self):
        rng = np.random.default_rng(4)
        proj = random_projections(rng, 8)
        x = rng.normal(size=(1, 8))
        out = transformer_c(proj, 2, Tensor(x))
        np.testing.assert_allclose(out.data, x @ proj[2].data, atol=1e-12)

    def test_identical_rows_pool_to_common_row(self):
        rng = np.random.default_rng(5)
        proj = random_projections(rng, 8)
        row = rng.normal(size=(1, 8))
        x = np.repeat(row, 5, axis=0)
        out = transformer_c(proj, 2, Tensor(x))
        np.testing.assert_allclose(out.data, row @ proj[2].data, atol=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(6)
        proj = random_projections(rng, 8)
        x = rng.normal(size=(4, 8))
        base = transformer_c(proj, 2, Tensor(x)).data
        for _ in range(10):
            perm = rng.permutation(4)
            out = transformer_c(proj, 2, Tensor(x[perm])).data
            np.testing.assert_allclose(out, base, atol=1e-9)

    def test_zero_weights_not_identity(self):
        dim = 8
        proj = (Tensor(np.zeros((dim, dim))),) * 3
        x = np.random.default_rng(7).normal(size=(3, dim))
        out = transformer_c(proj, 2, Tensor(x)).data
        assert np.array_equal(out, np.zeros((1, dim)))  # no residual path


class TestProjectAndPositional:
    def test_zero_weight_projection_gives_bias(self):
        model = zero_model()
        model.params["input.bias"].data[:] = 1.5
        out = model.project_input(Tensor(np.random.default_rng(8).normal(size=(5, 12))))
        assert np.array_equal(out.data, np.full((5, 8), 1.5))

    def test_identity_projection(self):
        cfg = DCVQEConfig(input_dim=8, model_dim=8, num_heads=2, num_layers=1,
                          base_clip_len=4, temporal_range=2, max_seq_len=16)
        model = zero_model(cfg)
        model.params["input.weight"].data[:] = np.eye(8)
        x = np.random.default_rng(9).normal(size=(6, 8))
        assert np.array_equal(model.project_input(Tensor(x)).data, x)

    def test_wrong_width_raises(self):
        model = make_model()
        with pytest.raises(ad.ShapeError):
            model.project_input(Tensor(np.zeros((4, 5))))

    def test_zero_table_leaves_input_unchanged(self):
        model = make_model()
        model.params["positional"].data[:] = 0.0
        model.params["video_token"].data[:] = 0.0
        x = np.random.default_rng(10).normal(size=(4, 8))
        video, frames = model.add_positional(Tensor(x))
        assert np.array_equal(frames.data, x)
        assert np.array_equal(video.data, np.zeros((1, 8)))

    def test_positional_rows_consumed(self):
        model = make_model()
        table = model.params["positional"].data
        x = np.zeros((1, 8))
        model.params["video_token"].data[:] = 0.0
        video, frames = model.add_positional(Tensor(x))
        assert np.array_equal(video.data, table[0:1])
        assert np.array_equal(frames.data, table[1:2])

    def test_max_length_boundary(self):
        model = make_model()
        x = np.zeros((16, 8))
        video, frames = model.add_positional(Tensor(x))  # consumes row 16, in range
        assert frames.shape == (16, 8)
        with pytest.raises(SequenceLengthError):  # the projection checks the length first
            model.project_input(np.zeros((17, 12)))
        with pytest.raises(ad.ShapeError, match="n < L"):  # the table has no row 17
            model.add_positional(Tensor(np.zeros((17, 8))))


class TestForward:
    def test_zero_model_outputs_bias(self):
        model = zero_model()
        model.params["regressor.bias"].data[:] = 2.25
        rng = np.random.default_rng(11)
        for _ in range(3):
            score = model.forward(rng.normal(size=(int(rng.integers(1, 16)), 12)))
            assert score.item() == 2.25

    def test_deterministic(self):
        model = make_model()
        feats = np.random.default_rng(12).normal(size=(10, 12))
        assert model.predict(feats) == model.predict(feats.copy())

    @pytest.mark.parametrize("input_dim,model_dim,frames", [(64, 32, 75), (4096, 128, 90)])
    def test_float32_rows_score_as_their_widened_copy(self, input_dim, model_dim, frames):
        # forward widens float32 rows exactly, so the GEMMs see the same operands
        cfg = DCVQEConfig(input_dim=input_dim, model_dim=model_dim, num_heads=4, num_layers=3,
                          base_clip_len=30, temporal_range=15, max_seq_len=600)
        model = make_model(cfg, seed=21)
        seq = FeatureSequence("v", np.random.default_rng(22).normal(size=(frames, input_dim)),
                              2.0)
        assert seq.features.dtype == np.float32
        wide = seq.features.astype(np.float64)
        assert np.array_equal(model.forward(seq.features).data, model.forward(wide).data)
        acts32, acts64 = model.record(seq.features), model.record(wide)
        for a32, a64 in zip(acts32.frame_embeddings, acts64.frame_embeddings):
            assert np.array_equal(a32, a64)

    def test_matches_reference_reimplementation(self):
        cfg = DCVQEConfig(input_dim=12, model_dim=8, num_heads=2, num_layers=2,
                          base_clip_len=4, temporal_range=2, max_seq_len=16)
        rng = np.random.default_rng(13)
        for seed in range(3):
            model = make_model(cfg, seed=seed)
            feats = rng.normal(size=(10, 12))
            got = model.predict(feats)
            want = reference_forward(cfg, model.params, feats)
            assert abs(got - want) <= 1e-10 * max(1.0, abs(want))

    def test_clip_counts_double_in_coverage(self):
        cfg = DCVQEConfig(input_dim=4, model_dim=8, num_heads=2, num_layers=3,
                          base_clip_len=30, temporal_range=15, max_seq_len=600)
        model = make_model(cfg, scale=0.05)
        acts = model.record(np.zeros((600, 4)))
        assert [len(b) for b in acts.clip_boundaries] == [20, 10, 5]
        acts = model.record(np.zeros((10, 4)))
        assert [len(b) for b in acts.clip_boundaries] == [1, 1, 1]

    def test_short_sequence_single_clip(self):
        model = make_model()
        acts = model.record(np.random.default_rng(14).normal(size=(2, 12)))
        assert acts.clip_boundaries[0] == [(0, 2)]
        assert acts.clip_embeddings[0].shape == (1, 8)

    def test_activation_shapes(self):
        model = make_model()
        s = 10
        acts = model.record(np.random.default_rng(15).normal(size=(s, 12)))
        for layer in range(2):
            assert acts.frame_embeddings[layer].shape == (s, 8)
            assert acts.video_embeddings[layer].shape == (1, 8)

    def test_length_errors(self):
        model = make_model()
        with pytest.raises(SequenceLengthError):
            model.forward(np.zeros((17, 12)))
        with pytest.raises(SequenceLengthError):
            model.forward(np.zeros((0, 12)))


class TestObservation:
    """``forward`` is the regression of ``embed``, whose final layer evaluates
    its clip rows only; ``record`` evaluates every layer in full, off the
    tape, and must not change a score."""

    @pytest.mark.parametrize("input_dim,model_dim,frames", [
        (64, 32, 1), (64, 32, 31), (64, 32, 121), (64, 32, 600), (4096, 128, 300)])
    def test_observing_leaves_the_score_unchanged(self, input_dim, model_dim, frames):
        cfg = DCVQEConfig(input_dim=input_dim, model_dim=model_dim, num_heads=4, num_layers=3,
                          base_clip_len=30, temporal_range=15, max_seq_len=600)
        model = make_model(cfg, seed=31, scale=0.3)
        feats = np.random.default_rng(32).normal(size=(frames, input_dim))
        want = model.predict(feats)
        acts = model.record(feats)
        score = model.forward(feats, cost=AttentionCost())
        assert np.array_equal(score.data, [[want]])
        embedding = model.embed(feats)
        regressed = ad.linear(embedding, model.params["regressor.weight"],
                              model.params["regressor.bias"])
        assert np.array_equal(regressed.data, score.data)
        # the full final layer agrees with the clip-row path to rounding
        np.testing.assert_allclose(acts.video_embeddings[-1], embedding.data,
                                   rtol=1e-12, atol=1e-12 * np.abs(embedding.data).max())

    def test_final_layer_records_clip_rows_and_keeps_full_activations(self):
        model = make_model()
        feats = np.random.default_rng(33).normal(size=(10, 12))
        with ad.Graph() as graph:
            model.forward(feats)
            ops = [node.op for node in graph.nodes]
            acts = model.record(feats)
        assert [node.op for node in graph.nodes] == ops
        divides = [node for node in graph.nodes if node.op == "divide_attention"]
        assert [len(node.outputs) for node in divides] == [2, 1]
        # the record's final frames are those of a full evaluation of that layer
        wq, wk, wv = model._projections(2, "divide")
        clips, want = ad.divide_attention(Tensor(acts.frame_embeddings[0]),
                                          Tensor(acts.video_embeddings[0]), wq, wk, wv, 2, 8,
                                          AttentionMask.banded(9, 2).admissible)
        assert np.array_equal(acts.frame_embeddings[-1], want.data)
        assert np.array_equal(acts.clip_embeddings[-1], clips.data)
        assert [w.shape for w in acts.divide_attention[-1]] == [(2, 9, 9), (2, 3, 3)]
        assert [w.shape for w in acts.conquer_attention] == [(2, 3, 3), (2, 2, 2)]


    def test_record_stays_off_an_outer_tape(self):
        model = make_model()
        feats = np.random.default_rng(34).normal(size=(10, 12))
        want = model.record(feats)
        with ad.Graph() as graph:
            got = model.record(feats)
        assert len(graph) == 0
        assert all(p.grad is None for p in model.parameters())
        for field in ("clip_boundaries", "frame_embeddings", "clip_embeddings",
                      "video_embeddings", "conquer_attention"):
            for a, b in zip(getattr(got, field), getattr(want, field), strict=True):
                assert np.array_equal(a, b)
        for a, b in zip(got.divide_attention, want.divide_attention, strict=True):
            assert all(np.array_equal(u, v) for u, v in zip(a, b, strict=True))


class TestLocality:
    def test_layer1_influence_confined_to_window(self):
        cfg = DCVQEConfig(input_dim=6, model_dim=8, num_heads=2, num_layers=1,
                          base_clip_len=8, temporal_range=2, max_seq_len=32)
        model = make_model(cfg, seed=3)
        rng = np.random.default_rng(16)
        feats = rng.normal(size=(16, 6))
        base = model.record(feats)
        t = 4  # inside the first clip (frames 0..7)
        bumped = feats.copy()
        bumped[t] += 1.0
        pert = model.record(bumped)
        changed = np.flatnonzero(
            np.abs(base.frame_embeddings[0] - pert.frame_embeddings[0]).max(axis=1))
        expected = {i for i in range(8) if abs(i - t) <= 2}
        assert set(changed.tolist()) <= expected
        assert t in changed  # the perturbed frame itself moves


class TestResidualAsymmetry:
    def test_divide_identity_conquer_not(self):
        rng = np.random.default_rng(17)
        dim = 8
        zero = (Tensor(np.zeros((dim, dim))),) * 3
        video = Tensor(rng.normal(size=(1, dim)))
        frames = Tensor(rng.normal(size=(6, dim)))
        clip_qe, out = transformer_d(zero, 2, video, frames, AttentionMask.banded(7, 2))
        assert np.array_equal(np.vstack([clip_qe.data, out.data]),
                              np.vstack([video.data, frames.data]))
        pooled = transformer_c(zero, 2, Tensor(rng.normal(size=(3, dim))))
        assert np.array_equal(pooled.data, np.zeros((1, dim)))


class TestAttentionCost:
    """Per layer, divide counts 2 * D * (L + 1)^2 over the layer's clips of L
    frames and conquer 2 * C^2 * D over its C clip embeddings."""

    def test_short_last_clip(self):
        cost = AttentionCost()
        cost.count_video(TINY, 10)  # clips 4+4+2 at layer 1, 8+2 at layer 2
        assert cost.macs == {(1, "divide"): 2 * 8 * (2 * 5 ** 2 + 3 ** 2),
                             (1, "conquer"): 2 * 3 ** 2 * 8,
                             (2, "divide"): 2 * 8 * (9 ** 2 + 3 ** 2),
                             (2, "conquer"): 2 * 2 ** 2 * 8}

    def test_one_frame_video(self):
        cost = AttentionCost()
        cost.count_video(TINY, 1)
        for layer in (1, 2):
            assert cost.layer_stage(layer, "divide") == 2 * 8 * 2 ** 2
            assert cost.layer_stage(layer, "conquer") == 2 * 8
        assert cost.layer_stage(3, "divide") == 0

    def test_unsplit_config_and_accumulation(self):
        cfg = DCVQEConfig(input_dim=4, model_dim=16, num_heads=4, num_layers=1,
                          base_clip_len=600, temporal_range=None, max_seq_len=600)
        cost = AttentionCost()
        cost.count_video(cfg, 600)
        cost.count_video(cfg, 600)
        assert cost.macs == {(1, "divide"): 2 * 2 * 16 * 601 ** 2,
                             (1, "conquer"): 2 * 2 * 16}

    def test_forward_counts_only_a_finished_forward(self):
        model = make_model()
        cost, want = AttentionCost(), AttentionCost()
        model.forward(np.zeros((10, 12)), cost=cost)
        want.count_video(TINY, 10)
        assert cost.macs == want.macs
        with pytest.raises(SequenceLengthError):
            model.forward(np.zeros((17, 12)), cost=cost)
        assert cost.macs == want.macs


class TestConfigValidation:
    def test_heads_must_divide_width(self):
        with pytest.raises(ValueError, match="divisible"):
            DCVQEConfig(model_dim=10, num_heads=4)

    @pytest.mark.parametrize("kwargs", [
        {"num_layers": 0}, {"base_clip_len": 0}, {"temporal_range": 0},
        {"max_seq_len": 10, "base_clip_len": 30}, {"input_dim": 0},
        {"num_heads": 0}, {"model_dim": -8, "num_heads": 4},
    ])
    def test_invalid_fields(self, kwargs):
        with pytest.raises(ValueError):
            DCVQEConfig(**kwargs)


# the paper's shape, the benchmark's train-small shape (acceptance 08) and the gradcheck shape
LAYOUT_CONFIGS = {"paper": DCVQEConfig(),
                  "train-small": DCVQEConfig(input_dim=64, model_dim=32, num_heads=4,
                                             num_layers=3, base_clip_len=30,
                                             temporal_range=15, max_seq_len=600),
                  "tiny": TINY_CONFIG}


@pytest.mark.parametrize("config", LAYOUT_CONFIGS.values(), ids=LAYOUT_CONFIGS)
class TestParameterLayout:
    def test_initialize_builds_the_layout(self, config):
        model = DCVQEModel.initialize(config, seed=0)
        assert [(name, p.shape) for name, p in model.named_parameters()] == \
            list(parameter_shapes(config).items())
        assert all(p.name == name for name, p in model.named_parameters())

    @pytest.mark.parametrize("seed", [0, 13])
    def test_initialize_is_the_seeded_draw_bit_for_bit(self, config, seed):
        model = DCVQEModel.initialize(config, seed=seed, init_scale=0.3)
        want = initial_params(config, seed, init_scale=0.3)
        assert list(model.params) == list(want)
        for name, value in want.items():
            assert model.params[name].data.tobytes() == value.tobytes(), name

    def test_checkpoint_header_lists_the_layout(self, tmp_path, config):
        model = DCVQEModel.initialize(config, seed=0)
        path = tmp_path / "layout.ckpt"
        save_checkpoint(path, Checkpoint.snapshot(model, AdamState.for_model(model), 1.0, 1))
        raw = path.read_bytes()
        header = json.loads(raw[12:12 + int.from_bytes(raw[8:12], "little")])
        assert header["params"] == [{"name": name, "shape": list(shape)}
                                    for name, shape in parameter_shapes(config).items()]
