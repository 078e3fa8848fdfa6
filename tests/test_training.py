import math
import sys
import threading

import numpy as np
import pytest

from vsr3d import tensor_core, training
from vsr3d.bicubic import resize_plane
from vsr3d.frames import Frame, VideoClip
from vsr3d.model import (ARCH_NAMES, SCALES, LayerSpec, ModelSpec, backward_stack,
                         build_architecture, forward_stack)
from vsr3d.reference import GRAD_TOLERANCES, check_gradients
from vsr3d.tensor_core import ConvWeights, TemporalPad, pixel_shuffle, pixel_unshuffle
from vsr3d.training import (LR_PATCH_SIZES, DatasetRecipe, OptimState, adam_step,
                            extract_dataset, fit, grad_check, init_optim, loss_mse,
                            miniature_spec, sr_batch_step, train, xavier_init, TrainingDiverged)


def synthetic_clip(frames=12, h=48, w=48, seed=0):
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:h, 0:w]
    base = 0.5 + 0.25 * np.sin(xx / 5.0) * np.cos(yy / 7.0)
    out = []
    for t in range(frames):
        drift = 0.2 * np.sin((xx + 2.0 * t) / 9.0)
        noise = 0.02 * rng.standard_normal((h, w))
        out.append(Frame(np.clip(base + drift + noise, 0.0, 1.0)))
    return VideoClip(out)


class TestExtractDataset:
    def test_sample_arithmetic(self):
        clip = synthetic_clip(frames=100, h=96, w=96)
        recipe = DatasetRecipe(scale=2, frame_stride=5, subimages_per_frame=10,
                               lr_patch_size=8)
        samples = extract_dataset([clip], recipe, seed=0)
        assert len(samples) == 20 * 10

    def test_patch_geometry(self):
        recipe = DatasetRecipe(scale=2, lr_patch_size=8, subimages_per_frame=2)
        samples = extract_dataset([synthetic_clip()], recipe, seed=1)
        s = samples[0]
        assert s.lr_frames.shape == (5, 8, 8)
        assert s.hr_target.shape == (16, 16)

    def test_default_patch_sizes_follow_scale(self):
        assert DatasetRecipe(scale=2).lr_patch_size == 80
        assert DatasetRecipe(scale=3).lr_patch_size == 60
        assert DatasetRecipe(scale=4).lr_patch_size == 40

    def test_patch_sizes_are_keyed_by_exactly_the_scales(self):
        assert sorted(LR_PATCH_SIZES) == sorted(SCALES)

    def test_same_seed_reproduces(self):
        recipe = DatasetRecipe(scale=2, lr_patch_size=8, subimages_per_frame=3)
        a = extract_dataset([synthetic_clip()], recipe, seed=9)
        b = extract_dataset([synthetic_clip()], recipe, seed=9)
        assert [s.source_id for s in a] == [s.source_id for s in b]
        assert all(np.array_equal(x.lr_frames, y.lr_frames) for x, y in zip(a, b))

    def test_crops_do_not_overlap(self):
        recipe = DatasetRecipe(scale=2, lr_patch_size=8, subimages_per_frame=4)
        samples = extract_dataset([synthetic_clip(h=64, w=64)], recipe, seed=2)
        p = recipe.hr_patch_size
        by_frame = {}
        for s in samples:
            by_frame.setdefault(s.source_id[:2], []).append(s.source_id[2])
        for origins in by_frame.values():
            for i, (y1, x1) in enumerate(origins):
                for y2, x2 in origins[i + 1:]:
                    assert abs(y1 - y2) >= p or abs(x1 - x2) >= p

    def test_lr_is_downscaled_hr_crop(self):
        from vsr3d.bicubic import resize_plane
        recipe = DatasetRecipe(scale=2, lr_patch_size=8, subimages_per_frame=1)
        clip = synthetic_clip()
        s = extract_dataset([clip], recipe, seed=3)[0]
        ci, centre, (y, x) = s.source_id
        crop = clip[centre].luma[y:y + 16, x:x + 16]
        assert np.array_equal(s.lr_frames[2],
                              resize_plane(crop, 8, 8).astype(np.float32))
        assert np.array_equal(s.hr_target, crop)

    def test_infeasible_patch_count_rejected(self):
        # 40x40 admits at most four non-overlapping 16x16 crops
        with pytest.raises(ValueError, match="cannot place"):
            extract_dataset([synthetic_clip(h=40, w=40)],
                            DatasetRecipe(scale=2, lr_patch_size=8,
                                          subimages_per_frame=5), seed=0)

    def test_patch_larger_than_frame_rejected(self):
        with pytest.raises(ValueError, match="smaller"):
            extract_dataset([synthetic_clip(h=16, w=16)],
                            DatasetRecipe(scale=2, lr_patch_size=16), seed=0)

    def test_unsupported_scale_rejected(self):
        with pytest.raises(ValueError, match="scale"):
            DatasetRecipe(scale=5)

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            extract_dataset([], DatasetRecipe(scale=2, lr_patch_size=8), seed=0)
        with pytest.raises(ValueError, match="at least 5"):
            extract_dataset([synthetic_clip(frames=3)],
                            DatasetRecipe(scale=2, lr_patch_size=8), seed=0)


class TestLoss:
    def test_zero_at_match(self):
        x = np.ones((2, 3))
        loss, grad = loss_mse(x, x)
        assert loss == 0.0
        assert np.all(grad == 0.0)

    def test_uniform_offset(self):
        pred = np.ones((4, 4))
        loss, grad = loss_mse(pred, np.zeros((4, 4)))
        assert loss == pytest.approx(0.5)
        assert np.all(grad == pytest.approx(1.0 / 16.0))

    def test_sum_form(self):
        pred = np.ones((4, 4))
        loss, grad = loss_mse(pred, np.zeros((4, 4)), form="sum")
        assert loss == pytest.approx(8.0)
        assert np.all(grad == 1.0)

    @pytest.mark.parametrize("form", ["mean", "sum"])
    def test_gradient_against_finite_differences(self, form):
        rng = np.random.default_rng(0)
        pred = rng.random((3, 5))
        target = rng.random((3, 5))
        _, grad = loss_mse(pred, target, form)
        eps = 1e-6
        for j in [(0, 0), (1, 3), (2, 4)]:
            p = pred.copy()
            p[j] += eps
            hi = loss_mse(p, target, form)[0]
            p[j] -= 2 * eps
            lo = loss_mse(p, target, form)[0]
            assert grad[j] == pytest.approx((hi - lo) / (2 * eps), rel=1e-6)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            loss_mse(np.zeros((2, 2)), np.zeros((2, 3)))


class TestXavier:
    def test_bound_formula(self):
        spec = build_architecture("full", 2)
        params = xavier_init(spec, seed=0)
        bound = math.sqrt(6.0 / (1 * 27 + 32 * 27))
        k = params[0].kernel
        assert k.max() <= bound and k.min() >= -bound
        assert k.max() > 0.8 * bound  # actually fills the range

    def test_biases_zero_and_seed_stable(self):
        spec = build_architecture("v1", 2)
        a = xavier_init(spec, seed=5)
        b = xavier_init(spec, seed=5)
        c = xavier_init(spec, seed=6)
        assert all(np.all(w.bias == 0.0) for w in a)
        assert all(np.array_equal(x.kernel, y.kernel) for x, y in zip(a, b))
        assert not np.array_equal(a[0].kernel, c[0].kernel)


class TestAdam:
    def one_layer_spec(self):
        return ModelSpec([LayerSpec("conv3d", 1, 1, (3, 3, 3), TemporalPad.ZERO, "none")],
                         concat_after=1, scale=1)

    def test_zero_grad_zero_decay_is_identity(self):
        spec = self.one_layer_spec()
        params = xavier_init(spec, seed=1)
        state = init_optim(spec, weight_decay=0.0)
        zero = [ConvWeights(np.zeros_like(params[0].kernel), np.zeros_like(params[0].bias))]
        after = adam_step(params, zero, state)
        assert np.array_equal(after[0].kernel, params[0].kernel)
        assert state.step == 1

    def test_single_step_matches_hand_recurrence(self):
        spec = self.one_layer_spec()
        w0 = 1.0
        params = [ConvWeights(np.full((1, 1, 3, 3, 3), w0, dtype=np.float32),
                              np.zeros(1, dtype=np.float32))]
        grads = [ConvWeights(np.ones((1, 1, 3, 3, 3), dtype=np.float32),
                             np.zeros(1, dtype=np.float32))]
        state = init_optim(spec, base_lr=0.1, weight_decay=0.0)
        after = adam_step(params, grads, state)
        # mhat = vhat = 1 at step 1, so w -> w - lr/(1 + eps)
        assert after[0].kernel.flat[0] == pytest.approx(1.0 - 0.1 / (1.0 + 1e-8), rel=1e-7)

    def test_bias_update_is_ten_times_smaller(self):
        spec = self.one_layer_spec()
        params = [ConvWeights(np.ones((1, 1, 3, 3, 3), dtype=np.float32),
                              np.ones(1, dtype=np.float32))]
        grads = [ConvWeights(np.full((1, 1, 3, 3, 3), 0.3, dtype=np.float32),
                             np.full(1, 0.3, dtype=np.float32))]
        state = init_optim(spec, base_lr=0.1, weight_decay=0.0)
        after = adam_step(params, grads, state)
        dk = 1.0 - after[0].kernel.flat[0]
        db = 1.0 - after[0].bias[0]
        assert db == pytest.approx(dk / 10.0, rel=1e-5)

    def test_weight_decay_only_touches_filters(self):
        spec = self.one_layer_spec()
        params = [ConvWeights(np.ones((1, 1, 3, 3, 3), dtype=np.float32),
                              np.ones(1, dtype=np.float32))]
        zero = [ConvWeights(np.zeros((1, 1, 3, 3, 3), dtype=np.float32),
                            np.zeros(1, dtype=np.float32))]
        state = init_optim(spec, base_lr=0.1, weight_decay=5e-4)
        after = adam_step(params, zero, state)
        assert after[0].kernel.flat[0] < 1.0   # decay pulled the filter down
        assert after[0].bias[0] == 1.0         # bias untouched

    def test_non_finite_gradient_names_layer(self):
        spec = build_architecture("v1", 2)
        params = xavier_init(spec, seed=0)
        grads = [ConvWeights(np.zeros_like(w.kernel), np.zeros_like(w.bias))
                 for w in params]
        grads[2].kernel[0, 0, 0, 0, 0] = np.nan
        state = init_optim(spec)
        with pytest.raises(TrainingDiverged, match="layer 2"):
            adam_step(params, grads, state)


def small_dataset(n_clips=1, seed=0):
    recipe = DatasetRecipe(scale=2, frame_stride=3, subimages_per_frame=4, lr_patch_size=8)
    clips = [synthetic_clip(seed=seed + i) for i in range(n_clips)]
    return extract_dataset(clips, recipe, seed=seed)


class TestTrainLoop:
    def test_loss_decreases_on_fixed_batch(self):
        spec = miniature_spec("full")
        samples = small_dataset()[:8]
        result = train(spec, samples, epochs=50, batch_size=8, lr=5e-4, seed=0)
        losses = [r[1] for r in result.log_rows]
        assert losses[-1] < losses[0] * 0.7

    def test_zero_epochs_returns_initialization(self, tmp_path):
        spec = miniature_spec("v1")
        out = str(tmp_path / "init.ckpt")
        result = train(spec, small_dataset(), epochs=0, seed=3, out_path=out)
        want = xavier_init(spec, seed=3)
        for a, b in zip(result.params, want):
            assert np.array_equal(a.kernel, b.kernel)
        from vsr3d.checkpoint import load_checkpoint
        loaded, _, meta = load_checkpoint(out)
        assert meta["step"] == "0"
        assert np.array_equal(loaded[0].kernel, want[0].kernel)

    def test_same_seed_same_curve_and_checkpoint(self, tmp_path):
        spec = miniature_spec("v2")
        samples = small_dataset()
        p1, p2 = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
        l1, l2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        r1 = train(spec, samples, epochs=2, batch_size=8, seed=11, out_path=p1, log_path=l1)
        r2 = train(spec, samples, epochs=2, batch_size=8, seed=11, out_path=p2, log_path=l2)
        assert [r[1] for r in r1.log_rows] == [r[1] for r in r2.log_rows]
        assert open(p1, "rb").read() == open(p2, "rb").read()
        assert open(l1, "rb").read() == open(l2, "rb").read()

    def test_different_seed_diverges(self):
        spec = miniature_spec("v1")
        samples = small_dataset()
        r1 = train(spec, samples, epochs=1, batch_size=8, seed=1)
        r2 = train(spec, samples, epochs=1, batch_size=8, seed=2)
        assert [r[1] for r in r1.log_rows] != [r[1] for r in r2.log_rows]

    def test_log_format(self, tmp_path):
        spec = miniature_spec("v1")
        samples = small_dataset()
        log = str(tmp_path / "log.csv")
        train(spec, samples[:8], epochs=2, batch_size=8, seed=0,
              val_samples=samples[8:12], val_every=2, log_path=log)
        lines = open(log).read().strip().split("\n")
        assert lines[0] == "step,loss,val_psnr_db"
        first = lines[1].split(",")
        assert first[0] == "1" and first[2] == ""
        second = lines[2].split(",")
        assert second[0] == "2" and float(second[2]) > 0

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            train(miniature_spec("v1"), [], epochs=1)

    def test_divergence_aborts_with_checkpoint_kept(self, tmp_path):
        spec = miniature_spec("v1")
        samples = small_dataset()[:8]
        out = str(tmp_path / "diverge.ckpt")
        with pytest.raises(TrainingDiverged), np.errstate(over="ignore", invalid="ignore"):
            # absurd learning rate with sum loss blows up quickly
            train(spec, samples, epochs=200, batch_size=8, lr=5e3,
                  loss_form="sum", seed=0, out_path=out, checkpoint_every=1)
        from vsr3d.checkpoint import load_checkpoint
        params, _, _ = load_checkpoint(out)  # last good state is on disk
        assert all(np.all(np.isfinite(w.kernel)) for w in params)

    def test_constant_residual_target_drives_loss_to_zero(self):
        # targets sit a fixed 0.05 above each sample's own bicubic base, so a
        # constant residual, reachable by the last bias alone, is an exact fit
        spec = miniature_spec("v1")
        rng = np.random.default_rng(0)
        from vsr3d.training import WindowSample
        samples = []
        for i in range(8):
            lr = rng.random((5, 8, 8)).astype(np.float32)
            hr = resize_plane(lr[2], 16, 16).astype(np.float32) + 0.05
            samples.append(WindowSample(lr, hr, (0, i, (0, 0))))
        result = train(spec, samples, epochs=2000, batch_size=8, lr=2e-3,
                       weight_decay=0.0, seed=4)
        assert result.log_rows[-1][1] < 1e-6


class TestMicroBatches:
    """sr_batch_step runs its batch as micro-batches, possibly on worker
    threads with OpenBLAS held at one thread, and sums them in order."""

    needs_blas = pytest.mark.skipif(tensor_core._blas_threads() is None,
                                    reason="no OpenBLAS thread control found")

    @staticmethod
    def batch(dtype=np.float32, n=7, seed=5):
        # an odd batch, so the last micro-batch is a short one
        spec = miniature_spec("full")
        params = [ConvWeights(w.kernel.astype(dtype), w.bias.astype(dtype))
                  for w in xavier_init(spec, seed)]
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.1, 0.9, (n, 1, 5, 8, 8)).astype(dtype)
        bases, target = rng.uniform(0.0, 1.0, (2, n, 1, 1, 16, 16)).astype(dtype)
        return params, spec, x, bases, target

    @needs_blas
    @pytest.mark.parametrize("workers", [1, 4])
    def test_worker_count_does_not_change_a_bit(self, monkeypatch, workers):
        args = self.batch()
        loss, grads = sr_batch_step(*args)
        monkeypatch.setattr(tensor_core, "_workers", lambda: workers)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            other_loss, other = sr_batch_step(*args)
        finally:
            sys.setswitchinterval(switch)
        assert other_loss == loss
        for g, h in zip(grads, other):
            assert np.array_equal(g.kernel, h.kernel) and np.array_equal(g.bias, h.bias)

    @pytest.mark.parametrize("blas_control", [True, False])
    @pytest.mark.parametrize("form", ["mean", "sum"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_matches_one_whole_batch_pass(self, monkeypatch, blas_control, form, dtype):
        if not blas_control:  # the fallback: micro-batches one after another
            monkeypatch.setattr(tensor_core, "_blas_threads", lambda: None)
        params, spec, x, bases, target = self.batch(dtype)
        loss, grads = sr_batch_step(params, spec, x, bases, target, form)
        out, caches = forward_stack(params, spec, x, want_caches=True)
        want_loss, g = loss_mse(pixel_shuffle(out, spec.scale) + bases, target, form)
        want, _ = backward_stack(params, spec, x, caches, pixel_unshuffle(g, spec.scale),
                                 input_grad=False)
        assert loss == pytest.approx(want_loss, rel=1e-12)
        for got, ref in zip(grads, want):
            for a, b in ((got.kernel, ref.kernel), (got.bias, ref.bias)):
                assert a.dtype == dtype
                scale = np.abs(b).max()
                if dtype == np.float64:
                    np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12 * scale)
                else:
                    assert np.abs(a - b).max() <= 1e-6 * scale

    @needs_blas
    def test_blas_thread_count_is_restored_even_on_an_error(self):
        get, put = tensor_core._blas_threads()
        before = get()
        params, spec, x, bases, target = self.batch()
        try:
            put(2)
            sr_batch_step(params, spec, x, bases, target)
            assert get() == 2
            with pytest.raises(ValueError, match="shape mismatch"):
                # one sample short: only the last micro-batch fails
                sr_batch_step(params, spec, x, bases, target[:-1])
            assert get() == 2
        finally:
            put(before)

    def test_callers_errstate_holds_in_every_micro_batch(self, monkeypatch):
        seen = []

        def recording(*args):
            seen.append((np.geterr()["over"], threading.current_thread().name))
            return loss_mse(*args)

        monkeypatch.setattr(training, "loss_mse", recording)
        with np.errstate(over="raise"):
            sr_batch_step(*self.batch())
        assert [over for over, _ in seen] == ["raise"] * 4
        if tensor_core._blas_threads() is not None:
            caller = threading.current_thread().name
            assert all(name in (caller, "vsr3d-step") for _, name in seen)

    def test_bad_loss_form_is_refused(self):
        with pytest.raises(ValueError, match="loss form"):
            sr_batch_step(*self.batch(), form="median")


class TestFit:
    def scripted(self, spec, losses, seen):
        # batch_loss replaying `losses` with zero gradients, recording batches
        def batch_loss(params, idx):
            seen.append(list(idx))
            return losses[len(seen) - 1], [ConvWeights(np.zeros_like(w.kernel),
                                                       np.zeros_like(w.bias)) for w in params]
        return batch_loss

    def test_batches_cover_each_epoch_and_max_steps_caps(self):
        spec, seen = miniature_spec("v1"), []
        _, rows, final = fit(spec, 10, self.scripted(spec, [1.0] * 9, seen),
                             epochs=3, batch_size=4)
        assert [len(b) for b in seen] == [4, 4, 2] * 3
        for epoch in range(3):
            assert sorted(sum(seen[3 * epoch: 3 * epoch + 3], [])) == list(range(10))
        assert [r[0] for r in rows] == list(range(1, 10)) and final is None
        capped = []
        _, rows, _ = fit(spec, 10, self.scripted(spec, [1.0] * 9, capped),
                         epochs=3, batch_size=4, max_steps=5)
        assert len(rows) == 5 and capped == seen[:5]

    def test_non_finite_loss_aborts_keeping_periodic_checkpoint(self, tmp_path):
        spec, out = miniature_spec("v1"), str(tmp_path / "m.ckpt")
        loop = self.scripted(spec, [1.0, 0.5, math.nan], [])
        with pytest.raises(TrainingDiverged, match=r"step 3 \(checkpoint kept\)"):
            fit(spec, 8, loop, epochs=5, batch_size=2, out_path=out, checkpoint_every=1)
        from vsr3d.checkpoint import load_checkpoint
        assert load_checkpoint(out)[2]["step"] == "2"

    @pytest.mark.parametrize("bad", ["loss", "gradient"])
    def test_divergence_keeps_the_log_so_far(self, tmp_path, bad):
        spec, log = miniature_spec("v1"), tmp_path / "log.csv"
        scripted = self.scripted(spec, [1.0, 0.5, math.nan if bad == "loss" else 0.25], [])

        def loop(params, idx):
            loss, grads = scripted(params, idx)
            if loss == 0.25:
                grads[0].bias[0] = np.nan
            return loss, grads
        with pytest.raises(TrainingDiverged, match=bad):
            fit(spec, 8, loop, epochs=5, batch_size=2, log_path=str(log))
        assert [line.split(",")[0] for line in log.read_text().splitlines()] == \
            ["step", "1", "2"]


class TestMiniatures:
    @pytest.mark.parametrize("name", ARCH_NAMES)
    def test_miniature_keeps_the_architecture(self, name):
        mini, real = miniature_spec(name), build_architecture(name, 2)
        assert len(mini.layers) == len(real.layers)
        for m, r in zip(mini.layers, real.layers):
            assert (m.kind, m.kernel, m.temporal_pad, m.stride, m.activation) == \
                (r.kind, r.kernel, r.temporal_pad, r.stride, r.activation)
        assert mini.concat_after == real.concat_after
        assert mini.depth_trace() == real.depth_trace()
        assert all(m.out_groups <= 4 for m in mini.layers[:-1])
        assert mini.layers[-1].out_groups == real.layers[-1].out_groups


class TestGradCheck:
    @pytest.mark.parametrize("name", ["v1", "full"])
    def test_float64_tight(self, name):
        ok, detail = check_gradients(name, dtype=np.float64)
        assert ok, detail

    def test_float32_loose(self):
        ok, detail = check_gradients("cnn2d", dtype=np.float32)
        assert ok, detail

    def test_linear_net_is_near_machine_precision(self):
        # no ReLU anywhere, so nothing is skipped and only FD roundoff remains
        spec = ModelSpec([LayerSpec("conv3d", 1, 2, (3, 3, 3), TemporalPad.ZERO, "none")],
                         concat_after=1, scale=1, kind="sf")
        report = grad_check(spec, seed=0, tolerance=1e-8, dtype=np.float64, name="linear")
        assert report.passed, report.summary()
        assert report.skipped == 0

    def test_fault_injection_is_caught_and_named(self, monkeypatch):
        import vsr3d.training as training
        real = training.backward_stack

        def biased_layer_2(*args):
            grads, gx = real(*args)
            grads[2].bias[...] += 1.0
            return grads, gx
        monkeypatch.setattr(training, "backward_stack", biased_layer_2)
        report = grad_check(miniature_spec("v1"), seed=0, dtype=np.float64, name="v1",
                            tolerance=GRAD_TOLERANCES[np.float64])
        assert not report.passed
        worst_label = max(report.per_tensor, key=lambda t: t[1])[0]
        assert worst_label == "layer 2 bias"

    def test_kernel_gradient_fault_is_caught_and_named(self, monkeypatch):
        # the kernel probes run through the one-hot window bank, not the
        # bias path the test above corrupts
        import vsr3d.training as training
        real = training.backward_stack

        def off_by_one_tap(*args):
            grads, gx = real(*args)
            grads[1].kernel[0, 0, 1, 1, 1] += 1.0
            return grads, gx
        monkeypatch.setattr(training, "backward_stack", off_by_one_tap)
        report = grad_check(miniature_spec("v1"), seed=0, dtype=np.float64, name="v1",
                            tolerance=GRAD_TOLERANCES[np.float64])
        assert not report.passed
        assert max(report.per_tensor, key=lambda t: t[1])[0] == "layer 1 kernel"

    def test_full_training_gradient_matches_finite_differences(self):
        # the whole pipeline: stack + pixel shuffle + bicubic base + loss
        spec = miniature_spec("full")
        rng = np.random.default_rng(3)
        params = [ConvWeights(w.kernel.astype(np.float64), w.bias.astype(np.float64))
                  for w in xavier_init(spec, seed=3)]
        lr = rng.uniform(0.2, 0.8, (2, 1, 5, 6, 6))
        bases = rng.uniform(0.2, 0.8, (2, 1, 1, 12, 12))
        target = rng.uniform(0.0, 1.0, (2, 1, 1, 12, 12))
        _, grads = sr_batch_step(params, spec, lr, bases, target)
        eps = 1e-6
        k = params[1].kernel
        for j in [(0, 0, 0, 0, 0), (3, 2, 1, 1, 2)]:
            keep = k[j]
            k[j] = keep + eps
            hi = sr_batch_step(params, spec, lr, bases, target)[0]
            k[j] = keep - eps
            lo = sr_batch_step(params, spec, lr, bases, target)[0]
            k[j] = keep
            assert grads[1].kernel[j] == pytest.approx((hi - lo) / (2 * eps), abs=1e-9)
