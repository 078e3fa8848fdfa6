"""Acceptance gate: ten end-to-end criteria, one test per criterion.

Each test is self-contained and deterministic. The two training-based
criteria (06 and 09) share one desk-scale training run through a module
fixture; everything else runs in seconds. Criterion 02 scores the four-
sequence benchmark set when a copy is available (VIDSET4_DIR env var, or a
vidset4/ directory next to the repo root) and otherwise falls back to the
scale-monotonicity property on synthetic footage.
"""

import os

import numpy as np
import pytest

from vsr3d.bicubic import bicubic_resize, degrade_clip, resize_plane
from vsr3d.checkpoint import save_checkpoint
from vsr3d.cli import main
from vsr3d.frames import Frame, VideoClip
from vsr3d.metrics import psnr, ssim
from vsr3d.model import (ARCH_NAMES, LayerSpec, ModelSpec, build_architecture,
                         count_parameters, forward)
from vsr3d.reference import (GRAD_TOLERANCES, MID_STACK_SPEC, REFERENCE_WEIGHT_COUNTS,
                             check_conv, check_gradients, check_replacement, check_stack)
from vsr3d.scene import SceneLabel, build_sf_net, make_sf_dataset, replace_frames, train_sf
from vsr3d.tensor_core import ConvWeights, TemporalPad
from vsr3d.training import DatasetRecipe, extract_dataset, train, xavier_init
from vsr3d.video_io import read_clip, write_clip

VIDSET4_TARGETS = {  # scale: (mean PSNR dB, mean SSIM) for the bicubic chain
    2: (28.43, 0.8685),
    3: (25.29, 0.7341),
    4: (23.79, 0.6342),
}
VIDSET4_SEQUENCES = ("calendar", "city", "foliage", "walk")


def textured(seed: int, frames: int, w: int, h: int) -> VideoClip:
    """Drifting multi-frequency texture under a slow luminance envelope.

    Mid/high spatial frequencies give an SR net headroom over bicubic; the
    envelope keeps local luma varying the way real footage does.
    """
    rng = np.random.default_rng(seed)
    k = 12
    amp = 0.24 / np.arange(1, k + 1) ** 0.7
    fx = rng.uniform(-0.20, 0.20, k)
    fy = rng.uniform(-0.20, 0.20, k)
    ph = rng.uniform(0, 2 * np.pi, k)
    om = rng.uniform(-0.35, 0.35, k)
    ex, ey = rng.uniform(-0.008, 0.008, 2)
    e0, ew = rng.uniform(0, 2 * np.pi), rng.uniform(-0.2, 0.2)
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    out = []
    for t in range(frames):
        dc = 0.68 + 0.18 * np.sin(2 * np.pi * (ex * xx + ey * yy) + e0 + ew * t)
        p = dc + sum(a * np.sin(2 * np.pi * (fxi * xx + fyi * yy) + p0 + o * t)
                     for a, fxi, fyi, p0, o in zip(amp, fx, fy, ph, om))
        out.append(Frame(np.clip(p, 0, 1).astype(np.float32)))
    return VideoClip(out, frame_rate=(25, 1))


def bicubic_patch_psnr(data, scale: int) -> float:
    vals = []
    for lr, hr in zip(*data):
        p = hr.shape[-1]
        base = np.clip(resize_plane(lr[2], p, p), 0, 1).astype(np.float32)
        vals.append(psnr(Frame(base), Frame(hr), border=scale))
    return float(np.mean(vals))


@pytest.fixture(scope="module")
def desk_model():
    """One desk-scale run of the full architecture, shared by 06 and 09."""
    clip = textured(0, 48, 160, 120)
    train_clip = VideoClip(list(clip)[:36], frame_rate=(25, 1))
    val_clip = VideoClip(list(clip)[36:], frame_rate=(25, 1))
    tr = extract_dataset([train_clip], DatasetRecipe(2, 1, 15, 16), seed=0)
    va = extract_dataset([val_clip], DatasetRecipe(2, 3, 6, 16), seed=1)
    spec = build_architecture("full", 2)
    result = train(spec, tr, epochs=2, batch_size=32, lr=5e-4,
                   weight_decay=5e-4, seed=0, val_samples=va)
    return {"spec": spec, "result": result, "n_train": len(tr[0]),
            "steps": len(result.log_rows), "bicubic": bicubic_patch_psnr(va, 2)}


def test_01_reference_parameter_counts():
    got = {a: count_parameters(build_architecture(a, 2)) for a in ARCH_NAMES}
    assert got == REFERENCE_WEIGHT_COUNTS


def _find_vidset4():
    roots = [os.environ.get("VIDSET4_DIR", ""), "vidset4",
             os.path.join("data", "vidset4")]
    for root in roots:
        if root and os.path.isdir(root):
            return root
    return None


def test_02_bicubic_baseline():
    root = _find_vidset4()
    if root is None:
        # fallback: PSNR of the bicubic chain must fall as the scale grows
        clip = textured(2, 6, 192, 144)
        means = {}
        for s in (2, 3, 4):
            lr = degrade_clip(clip, s)
            h, w = lr.height * s, lr.width * s
            vals = [psnr(Frame(r.luma[:h, :w]), bicubic_resize(f, w, h), border=s)
                    for r, f in zip(clip, lr)]
            means[s] = float(np.mean(vals))
        assert means[2] > means[3] > means[4]
        return
    for s, (want_psnr, want_ssim) in VIDSET4_TARGETS.items():
        ps, ss = [], []
        for name in VIDSET4_SEQUENCES:
            matches = [fn for fn in sorted(os.listdir(root))
                       if fn.lower().startswith(name)]
            assert matches, f"sequence {name} missing under {root}"
            ref = read_clip(os.path.join(root, matches[0]))
            lr = degrade_clip(ref, s)
            h, w = lr.height * s, lr.width * s
            for rf, lf in zip(ref, lr):
                up = bicubic_resize(lf, w, h)
                ps.append(psnr(Frame(rf.luma[:h, :w]), up, border=s))
                ss.append(ssim(Frame(rf.luma[:h, :w]), up, border=s))
        assert abs(float(np.mean(ps)) - want_psnr) <= 0.5
        assert abs(float(np.mean(ss)) - want_ssim) <= 0.01


def test_03_gradient_checks_all_architectures():
    for arch in ARCH_NAMES:
        for dtype in GRAD_TOLERANCES:
            ok, detail = check_gradients(arch, seed=0, dtype=dtype)
            assert ok, detail


def _stack_concat_specs():
    z, d, n = TemporalPad.ZERO, TemporalPad.DUPLICATE, TemporalPad.NONE
    c3, c2 = "conv3d", "conv2d"
    return [
        ModelSpec([LayerSpec(c2, 5, 6, (1, 3, 3)),
                   LayerSpec(c2, 6, 5, (1, 1, 3)),
                   LayerSpec(c2, 5, 4, (1, 3, 3), activation="none")],
                  concat_after=0, scale=2),
        ModelSpec([LayerSpec(c3, 1, 3, (3, 3, 3), z),
                   LayerSpec(c2, 15, 6, (1, 3, 3)),
                   LayerSpec(c2, 6, 4, (1, 1, 1), activation="none")],
                  concat_after=1, scale=2),
        ModelSpec([LayerSpec(c3, 1, 4, (3, 3, 3), n),
                   LayerSpec(c2, 12, 5, (1, 3, 3)),
                   LayerSpec(c2, 5, 1, (1, 3, 3), activation="none")],
                  concat_after=1, scale=1),
        MID_STACK_SPEC,
        ModelSpec([LayerSpec(c3, 1, 3, (3, 3, 3), n),
                   LayerSpec(c3, 3, 2, (3, 3, 3), n),
                   LayerSpec(c2, 2, 9, (1, 3, 3), activation="none")],
                  concat_after=2, scale=3),
        ModelSpec([LayerSpec(c3, 1, 2, (3, 3, 3), d),
                   LayerSpec(c3, 2, 3, (3, 3, 3), n),
                   LayerSpec(c3, 3, 2, (3, 3, 3), n),
                   LayerSpec(c2, 2, 4, (1, 3, 3), activation="none")],
                  concat_after=3, scale=2),
    ]


def test_04_vectorized_conv_matches_loop_oracle():
    # single layers (2D/3D kernels, pads, strides), then whole-stack concats
    ok, detail = check_conv(seeds=range(1000, 1044), tolerance=1e-5)
    assert ok, detail
    ok, detail = check_stack(specs=_stack_concat_specs(), tolerance=1e-5)
    assert ok, detail


def test_05_zero_model_reduces_to_bicubic_exactly():
    spec = build_architecture("full", 2)
    params = [ConvWeights(np.zeros_like(w.kernel), np.zeros_like(w.bias))
              for w in xavier_init(spec, 0)]
    window = list(textured(3, 5, 36, 28))
    out = forward(params, spec, window)
    mid = window[2]
    base = bicubic_resize(mid, mid.width * 2, mid.height * 2)
    assert np.array_equal(out.luma, np.clip(base.luma, 0.0, 1.0))


def test_06_desk_training_beats_bicubic(desk_model):
    assert desk_model["n_train"] >= 500
    assert desk_model["steps"] <= 20_000
    net, base = desk_model["result"].final_val, desk_model["bicubic"]
    assert net >= base + 0.2, f"net {net:.2f} dB vs bicubic {base:.2f} dB"


def test_07_frame_replacement_truth_table():
    ok, detail = check_replacement()
    assert ok, detail


def test_08_scene_classifier_heldout_accuracy():
    pool_a = [textured(20 + i, 24, 96, 54) for i in range(3)]
    pool_b = [textured(30 + i, 24, 96, 54) for i in range(3)]
    tr = make_sf_dataset(pool_a, pool_b, per_class=200, seed=0)
    va = make_sf_dataset(pool_a, pool_b, per_class=50, seed=1)
    assert len(tr[1]) == 5 * 200
    result = train_sf(build_sf_net(3), tr, epochs=20, batch_size=64, lr=1e-3,
                      seed=0, val_samples=va)
    assert result.final_val >= 0.95, result.final_val


def test_09_replacement_helps_zeros_hurt(desk_model):
    spec, params = desk_model["spec"], desk_model["result"].params
    hr_a = textured(7, 9, 96, 96)
    hr_b = textured(8, 9, 96, 96)
    lr_a, lr_b = degrade_clip(hr_a, 2), degrade_clip(hr_b, 2)
    zero = Frame(np.zeros((48, 48), np.float32))
    scores = {"replaced": [], "raw": [], "zeros": []}
    cases = [(1, SceneLabel.CHANGE_AFTER_1), (2, SceneLabel.CHANGE_AFTER_2),
             (3, SceneLabel.CHANGE_AFTER_3), (4, SceneLabel.CHANGE_AFTER_4)]
    for k, label in cases:
        for off in range(4):
            window = [lr_a[off + i] if i < k else lr_b[off + i] for i in range(5)]
            target = (hr_a if k > 2 else hr_b)[off + 2]
            variants = {
                "raw": window,
                "replaced": replace_frames(window, label),
                # same slots the replacement rewrites, but filled with black
                "zeros": [f if (i < k) == (k > 2) else zero
                          for i, f in enumerate(window)],
            }
            for name, win in variants.items():
                scores[name].append(psnr(forward(params, spec, win), target,
                                         border=2))
    means = {n: float(np.mean(v)) for n, v in scores.items()}
    assert means["replaced"] >= means["raw"], means
    assert means["raw"] > means["zeros"], means
    assert means["replaced"] > means["zeros"], means


def test_10_seeded_runs_are_bit_identical(tmp_path, capsys):
    clip_path = tmp_path / "c.y4m"
    write_clip(textured(5, 12, 96, 64), str(clip_path))
    train_argv = ["train", "--data", str(clip_path), "--arch", "v1",
                  "--epochs", "1", "--batch-size", "4", "--lr-patch-size", "16",
                  "--subimages-per-frame", "4", "--frame-stride", "4",
                  "--seed", "7"]
    for tag in ("a", "b"):
        assert main(train_argv + ["--out", str(tmp_path / f"{tag}.ckpt"),
                                  "--log", str(tmp_path / f"{tag}.csv")]) == 0
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    spec = build_architecture("v1", 2)
    params = [ConvWeights(np.zeros_like(w.kernel), np.zeros_like(w.bias))
              for w in xavier_init(spec, 0)]
    save_checkpoint(params, spec, {}, str(tmp_path / "z.ckpt"))
    for tag in ("a", "b"):
        assert main(["upscale", str(clip_path), str(tmp_path / f"u{tag}.y4m"),
                     "--checkpoint", str(tmp_path / "z.ckpt")]) == 0
    assert (tmp_path / "ua.y4m").read_bytes() == (tmp_path / "ub.y4m").read_bytes()

    capsys.readouterr()
    assert main(["verify"]) == 0
    first = capsys.readouterr().out
    assert main(["verify"]) == 0
    assert capsys.readouterr().out == first
