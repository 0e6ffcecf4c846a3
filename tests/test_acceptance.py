"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and the reported (non-gated) ablation table. The heavyweight criteria
(4, 8, 9) stay within their stated budgets on a desktop CPU.
"""

import math
import time

import numpy as np
import pytest

from dcvqe import autodiff as ad
from dcvqe import data as data_io
from dcvqe.autodiff import Tensor
from dcvqe.losses import LossConfig, total_loss
from dcvqe.model import (AttentionCost, AttentionMask, DCVQEConfig, DCVQEModel,
                         transformer_c, transformer_d)
from dcvqe.training import (TrainConfig, evaluate, fit, gradcheck_suite,
                            run_repetitions, save_checkpoint)
from oracles import correlation_loss_raw, linear_probe, record


def _line(num: str, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"acceptance {num} {name}: {status}{suffix}")


@pytest.fixture(scope="module")
def synth500(tmp_path_factory):
    root = tmp_path_factory.mktemp("accept500")
    return data_io.synth_dataset(root, n_videos=500, len_range=(60, 300), dim=64, seed=7)


def test_criterion_01_loss_equivalence_oracle():
    rng = np.random.default_rng(0)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 33))
        p = rng.uniform(-10, 10, n)
        g = rng.uniform(-10, 10, n)
        raw = correlation_loss_raw(p, g)
        simplified = total_loss(p, g, LossConfig(alpha=0.0, beta=1.0)).item()
        rel = abs(raw - simplified) / max(1.0, abs(raw), abs(simplified))
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 1.0
    _line("01", "raw/simplified correlation-loss equivalence", ok,
          f"max rel diff {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-9
    assert elapsed < 1.0


def test_criterion_02_positive_affine_annihilation():
    rng = np.random.default_rng(1)
    values = []
    for _ in range(100):
        n = int(rng.integers(2, 20))
        g = rng.uniform(-10, 10, n)
        a = float(rng.uniform(1e-3, 10.0))
        b = float(rng.uniform(-10, 10))
        values.append(total_loss(a * g + b, g, LossConfig(alpha=0.0, beta=1.0)).item())
    ok = all(v == 0.0 for v in values)
    _line("02", "correlation loss vanishes on positive affine transforms", ok)
    assert ok


def test_criterion_03a_reversed_order_anchor():
    simplified = total_loss([1, 2, 3], [3, 2, 1], LossConfig(alpha=0.0, beta=1.0)).item()
    raw = correlation_loss_raw([1, 2, 3], [3, 2, 1])
    ok = simplified == 6.0 and raw == 6.0
    _line("03a", "hand anchor: reversed triple gives 6.0 in both forms", ok,
          f"simplified {simplified}, raw {raw}")
    assert ok


def test_criterion_03b_weighted_total_anchor():
    """Stated anchor: total(alpha=0.7, beta=0.3) on p=[1,2], g=[2,1] equals 1.3.

    Direct evaluation of the loss definitions gives 1.0: the L1 term is 1,
    and both correlation forms give 1 (deviations (-0.5, 0.5) against
    (0.5, -0.5) yield hinge terms 0.25 each, times N=2; the literal
    double-sum form agrees, as criterion 01 enforces everywhere). The
    stated 1.3 would need the correlation term to be 2, which contradicts
    this criterion's own 6.0 anchor and criterion 01. Kept as stated and
    left red; see the repetition of the arithmetic in test_losses.
    """
    total = total_loss([1.0, 2.0], [2.0, 1.0], LossConfig(alpha=0.7, beta=0.3)).item()
    ok = abs(total - 1.3) <= 1e-12
    _line("03b", "hand anchor: weighted total on swapped pair equals 1.3", ok,
          f"computed {total}")
    assert ok, (f"computed total {total}; the 1.3 anchor is arithmetically "
                f"inconsistent with the 6.0 anchor and the raw/simplified "
                f"equivalence (criterion 01), which force this value to 1.0")


def test_criterion_04_gradient_check_tiny_model():
    t0 = time.perf_counter()
    report = gradcheck_suite(seed=0)
    elapsed = time.perf_counter() - t0
    ok = report.passes(1e-4) and elapsed < 30.0
    _line("04", "finite-difference gradient check on tiny model", ok,
          f"max rel err {report.max_rel_error:.2e}, {elapsed:.1f}s")
    assert report.max_rel_error <= 1e-4
    assert elapsed < 30.0


def test_criterion_05_mask_properties():
    cfg = DCVQEConfig(input_dim=8, model_dim=16, num_heads=4, num_layers=3,
                      base_clip_len=8, temporal_range=2, max_seq_len=32)
    model = DCVQEModel.initialize(cfg, seed=0, init_scale=0.1)
    feats = np.random.default_rng(2).normal(size=(20, 8))
    acts = record(model, feats)

    ok = True
    for layer_weights, layer_bounds in zip(acts.divide_attention, acts.clip_boundaries):
        for weights, (start, stop) in zip(layer_weights, layer_bounds):
            heads, n, _ = weights.shape
            assert n == stop - start + 1
            for i in range(n):
                for j in range(n):
                    if i >= 1 and j >= 1 and abs(i - j) > 2:
                        ok &= bool((weights[:, i, j] == 0.0).all())
            ok &= bool(np.abs(weights.sum(axis=2) - 1.0).max() <= 1e-9)
            mask = AttentionMask.banded(n, 2)
            ok &= bool(mask.admissible[0, :].all() and mask.admissible[:, 0].all())
            ok &= bool((weights[:, 0, :] > 0).all() and (weights[:, :, 0] > 0).all())
    _line("05", "attention masked outside radius, rows normalized, slot 0 open", ok)
    assert ok


def test_criterion_06_permutation_invariance():
    rng = np.random.default_rng(3)
    proj = tuple(Tensor(rng.normal(0, 0.5, (16, 16))) for _ in range(3))
    clips = rng.normal(size=(8, 16))
    base = transformer_c(proj, 4, Tensor(clips)).data
    worst = 0.0
    for _ in range(20):
        perm = rng.permutation(8)
        out = transformer_c(proj, 4, Tensor(clips[perm])).data
        worst = max(worst, float(np.abs(out - base).max()))
    ok = worst <= 1e-9
    _line("06", "conquer stage + pooling invariant to clip order", ok,
          f"max abs drift {worst:.2e}")
    assert ok


def test_criterion_07_architecture_arithmetic_and_residual_asymmetry():
    cfg = DCVQEConfig(input_dim=4, model_dim=16, num_heads=4, num_layers=3,
                      base_clip_len=30, temporal_range=15, max_seq_len=600)
    model = DCVQEModel.initialize(cfg, seed=0, init_scale=0.05)
    acts = record(model, np.zeros((600, 4)))
    counts = [len(b) for b in acts.clip_boundaries]
    counts_ok = counts == [20, 10, 5]

    rng = np.random.default_rng(4)
    zero = (Tensor(np.zeros((16, 16))),) * 3
    video = Tensor(rng.normal(size=(1, 16)))
    frames = Tensor(rng.normal(size=(10, 16)))
    clip_qe, out_frames = transformer_d(zero, 4, video, frames,
                                        AttentionMask.banded(11, 15))
    divide_identity = (np.array_equal(clip_qe.data, video.data)
                       and np.array_equal(out_frames.data, frames.data))
    clips = Tensor(rng.normal(size=(4, 16)))
    pooled = transformer_c(zero, 4, clips)
    conquer_not_identity = not np.allclose(pooled.data, clips.data.mean(axis=0))

    ok = counts_ok and divide_identity and conquer_not_identity
    _line("07", "clip counts [20,10,5]; divide residual is identity, conquer is not",
          ok, f"counts {counts}")
    assert ok


def test_criterion_08_synthetic_end_to_end(synth500):
    t0 = time.perf_counter()
    probe = linear_probe(synth500, seed=0)
    assert probe >= 0.8, f"dataset not linearly learnable (probe SRCC {probe:.3f})"

    cfg = DCVQEConfig(input_dim=64, model_dim=32, num_heads=4, num_layers=3,
                      base_clip_len=30, temporal_range=15, max_seq_len=600)
    train_cfg = TrainConfig(max_epochs=12, batch_size=16, learning_rate=1e-3,
                            loss=LossConfig(0.7, 0.3), seed=7)
    tr, va, te = data_io.split(synth500, 7)
    train_seqs = data_io.load_sequences(tr, max_len=600)
    val_seqs = data_io.load_sequences(va, max_len=600)
    test_seqs = data_io.load_sequences(te, max_len=600)

    model = DCVQEModel.initialize(cfg, seed=7)
    best = fit(model, train_seqs, val_seqs, train_cfg)
    report = evaluate(best.build_model(), test_seqs)
    elapsed = time.perf_counter() - t0

    ok = report.srcc >= 0.90 and report.plcc >= 0.90 and elapsed <= 600.0
    _line("08", "synthetic 500-video end-to-end training", ok,
          f"probe {probe:.3f}, srcc {report.srcc:.3f}, plcc {report.plcc:.3f}, "
          f"rmse {report.rmse:.3f}, {elapsed:.0f}s")
    assert report.srcc >= 0.90
    assert report.plcc >= 0.90
    assert elapsed <= 600.0


def test_criterion_09_loss_ablation_grid(tmp_path_factory):
    """Soft criterion: the grid harness must produce the five-row table with
    5 repetitions each; medians are reported, no ordering asserted. Runs on
    a reduced-size dataset so the 25 fits stay desk-scale."""
    root = tmp_path_factory.mktemp("ablate")
    manifest = data_io.synth_dataset(root, n_videos=150, len_range=(30, 90),
                                     dim=32, seed=5)
    cfg = DCVQEConfig(input_dim=32, model_dim=16, num_heads=4, num_layers=2,
                      base_clip_len=30, temporal_range=15, max_seq_len=600)
    grid = [(1.0, 0.0), (0.7, 0.3), (0.5, 0.5), (0.3, 0.7), (0.0, 1.0)]
    rows = []
    for alpha, beta in grid:
        train_cfg = TrainConfig(max_epochs=5, batch_size=8, learning_rate=1e-3,
                                loss=LossConfig(alpha, beta), seed=5, repetitions=5)
        result = run_repetitions(manifest, cfg, train_cfg)
        rows.append(((alpha, beta), result))

    ok = len(rows) == 5
    print("acceptance 09 ablation table (median over 5 repetitions, not gated):")
    print(f"  {'alpha':>6s} {'beta':>6s} {'srcc':>8s} {'krcc':>8s} {'plcc':>8s} {'rmse':>8s}")
    for (alpha, beta), result in rows:
        ok &= len(result.runs) == 5
        med = result.median
        ok &= all(math.isfinite(v) for v in (med.srcc, med.krcc, med.plcc, med.rmse))
        run_srcc = [r.report.srcc for r in result.runs]
        ok &= min(run_srcc) <= med.srcc <= max(run_srcc)
        print(f"  {alpha:6.1f} {beta:6.1f} {med.srcc:8.4f} {med.krcc:8.4f} "
              f"{med.plcc:8.4f} {med.rmse:8.4f}")
    _line("09", "five-point loss-weight grid with repetition medians", ok)
    assert ok


def test_criterion_10_attention_cost_instrumentation():
    feats = np.random.default_rng(6).normal(size=(600, 4))
    base = dict(input_dim=4, model_dim=16, num_heads=4, num_layers=1, max_seq_len=600)
    split_cfg = DCVQEConfig(base_clip_len=30, temporal_range=15, **base)
    unsplit_cfg = DCVQEConfig(base_clip_len=600, temporal_range=None, **base)
    cost_split, cost_unsplit = AttentionCost(), AttentionCost()
    DCVQEModel.initialize(split_cfg, seed=0).forward(feats, cost=cost_split)
    DCVQEModel.initialize(unsplit_cfg, seed=0).forward(feats, cost=cost_unsplit)
    ratio = cost_split.layer_stage(1, "divide") / cost_unsplit.layer_stage(1, "divide")
    target = (30 + 1) / 600
    rel = abs(ratio - target) / target
    ok = rel <= 0.10
    _line("10", "clip attention cost ~5.2% of unsplit attention", ok,
          f"measured {ratio:.4f}, target {target:.4f}, rel diff {rel:.1%}")
    assert ok


def test_criterion_11_determinism(tmp_path_factory):
    root = tmp_path_factory.mktemp("determinism")
    manifest = data_io.synth_dataset(root, n_videos=40, len_range=(6, 14), dim=8, seed=9)
    cfg = DCVQEConfig(input_dim=8, model_dim=8, num_heads=2, num_layers=2,
                      base_clip_len=4, temporal_range=2, max_seq_len=16)
    train_cfg = TrainConfig(max_epochs=2, batch_size=4, learning_rate=1e-3,
                            loss=LossConfig(0.7, 0.3), seed=9)
    tr, va, _ = data_io.split(manifest, 9)
    train_seqs = data_io.load_sequences(tr, max_len=16)
    val_seqs = data_io.load_sequences(va, max_len=16)

    def run(path):
        model = DCVQEModel.initialize(cfg, seed=9)
        history = []
        save_checkpoint(path, fit(model, train_seqs, val_seqs, train_cfg,
                                  on_epoch=history.append))
        return history

    h1 = run(root / "run1.ckpt")
    h2 = run(root / "run2.ckpt")
    losses_identical = (h1[0].train_loss == h2[0].train_loss
                        and h1[0].val_loss == h2[0].val_loss)
    bytes_identical = (root / "run1.ckpt").read_bytes() == (root / "run2.ckpt").read_bytes()
    ok = losses_identical and bytes_identical
    _line("11", "bit-identical epoch-1 losses and retained checkpoints", ok)
    assert losses_identical
    assert bytes_identical
