import sys
import threading

import numpy as np
import pytest

from vsr3d import scene, tensor_core, training
from vsr3d.bicubic import resize_plane
from vsr3d.checkpoint import load_checkpoint
from vsr3d.cli import _scene_verdict
from vsr3d.frames import Frame, VideoClip
from vsr3d.model import (LayerSpec, ModelSpec, backward_stack, count_parameters, forward_stack,
                         zero_params)
from vsr3d.reference import GRAD_TOLERANCES
from vsr3d.scene import (SF_HEIGHT, SF_WIDTH, SceneLabel, build_sf_net,
                         confusion_csv, confusion_matrix, loss_cross_entropy,
                         make_sf_dataset, replace_frames, sf_accuracy, sf_batch_step,
                         sf_input_from_window, sf_logits, softmax, train_sf)
from vsr3d.tensor_core import ConvWeights
from vsr3d.training import grad_check, xavier_init


def constant_clip(value, frames=8, h=27, w=48):
    return VideoClip([Frame(np.full((h, w), value, dtype=np.float32))
                      for _ in range(frames)])


def scene_pool(seed, base, frames=24, h=54, w=96):
    """Two textured clips sharing a brightness band, drifting over time."""
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    fa, fb = rng.uniform(0.05, 0.6, 2)
    clips = []
    for _ in range(2):
        drift = rng.uniform(0.0, 0.4)
        fs = []
        for t in range(frames):
            p = base + 0.2 * np.sin(fa * xx + drift * t) * np.cos(fb * yy + 0.1 * t)
            p += 0.03 * rng.standard_normal(p.shape)
            fs.append(Frame(np.clip(p, 0, 1).astype(np.float32)))
        clips.append(VideoClip(fs))
    return clips


class TestLabels:
    def test_five_classes_in_boundary_order(self):
        assert [l.value for l in SceneLabel] == [0, 1, 2, 3, 4]
        assert list(SceneLabel)[-1] is SceneLabel.NO_CHANGE


class TestNet:
    @pytest.mark.parametrize("layers,n_params", [(2, 2), (3, 3)])
    def test_emits_five_logits(self, layers, n_params):
        spec = build_sf_net(layers)
        assert spec.kind == "sf"
        assert len(spec.layers) == n_params
        params = xavier_init(spec, 0)
        x = np.random.default_rng(1).random((5, SF_HEIGHT, SF_WIDTH)).astype(np.float32)
        logits = sf_logits(params, spec, np.stack([x, x]))
        assert logits.shape == (2, 5)

    def test_input_geometry_enforced(self):
        spec = build_sf_net(2)
        params = zero_params(spec)
        assert sf_logits(params, spec, np.zeros((3, 5, SF_HEIGHT, SF_WIDTH), np.float32)).shape \
            == (3, 5)
        for shape in ((3, 5, SF_WIDTH, SF_HEIGHT), (3, 4, SF_HEIGHT, SF_WIDTH),
                      (5, SF_HEIGHT, SF_WIDTH), (3, 1, 5, SF_HEIGHT, SF_WIDTH)):
            with pytest.raises(ValueError, match="27, 48"):
                sf_logits(params, spec, np.zeros(shape, np.float32))

    def test_counts_are_modest(self):
        # lightweight by construction; nothing pins the exact figure
        assert count_parameters(build_sf_net(3)) < 30_000

    def test_bad_depth_rejected(self):
        with pytest.raises(ValueError, match="2 or 3"):
            build_sf_net(4)

    def test_sr_spec_rejected_by_logits(self):
        from vsr3d.model import build_architecture
        spec = build_architecture("v1")
        x = np.zeros((1, 5, SF_HEIGHT, SF_WIDTH), dtype=np.float32)
        with pytest.raises(ValueError, match="SF spec"):
            sf_logits(zero_params(spec), spec, x)

    def test_strided_stack_gradients_match_finite_differences(self):
        # narrow stand-in keeps the stride-2 + full-extent-head structure
        spec = ModelSpec([
            LayerSpec("conv2d", 5, 6, (1, 3, 3), stride=(2, 2)),
            LayerSpec("conv2d", 6, 5, (1, 3, 3), activation="none", spatial_pad=0),
        ], concat_after=0, scale=1, kind="sf")
        report = grad_check(spec, seed=0, dtype=np.float64, name="sf_mini",
                            tolerance=GRAD_TOLERANCES[np.float64])
        assert report.passed, report.summary()


class TestSoftmaxLoss:
    def test_softmax_normalizes(self):
        p = softmax(np.random.default_rng(0).normal(size=(7, 5)))
        assert np.allclose(p.sum(axis=1), 1.0, atol=1e-6)
        assert np.all(p > 0)

    def test_softmax_survives_huge_logits(self):
        p = softmax(np.array([[1e4, 0.0, -1e4, 0.0, 0.0]]))
        assert np.isfinite(p).all() and p[0, 0] == pytest.approx(1.0)

    def test_uniform_logits_cost_log_k(self):
        loss, _ = loss_cross_entropy(np.zeros((3, 5)), np.array([0, 2, 4]))
        assert loss == pytest.approx(np.log(5.0))

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        logits = rng.normal(size=(4, 5))
        labels = rng.integers(0, 5, size=4)
        _, grad = loss_cross_entropy(logits, labels)
        eps = 1e-6
        for i in range(4):
            for j in range(5):
                keep = logits[i, j]
                logits[i, j] = keep + eps
                hi, _ = loss_cross_entropy(logits, labels)
                logits[i, j] = keep - eps
                lo, _ = loss_cross_entropy(logits, labels)
                logits[i, j] = keep
                assert grad[i, j] == pytest.approx((hi - lo) / (2 * eps), abs=1e-8)

    def test_grad_rows_sum_to_zero(self):
        logits = np.random.default_rng(4).normal(size=(6, 5))
        _, grad = loss_cross_entropy(logits, np.arange(5, dtype=int).repeat(2)[:6])
        assert np.allclose(grad.sum(axis=1), 0.0, atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            loss_cross_entropy(np.zeros((2, 5)), np.zeros(3, dtype=int))


class TestSceneVerdict:
    def test_tie_breaks_to_lowest_index(self):
        spec = build_sf_net(2)
        window = [Frame(np.full((SF_HEIGHT, SF_WIDTH), 0.5, dtype=np.float32))] * 5
        # all-zero parameters emit identical logits for every class
        label, conf = _scene_verdict((zero_params(spec), spec, {}), window)
        assert label is SceneLabel.CHANGE_AFTER_1 and conf == pytest.approx(0.2)

    def test_small_source_rejected(self):
        tiny = [Frame(np.zeros((20, 40), dtype=np.float32))] * 5
        with pytest.raises(ValueError, match="smaller"):
            sf_input_from_window(tiny)

    def test_window_length_checked(self):
        with pytest.raises(ValueError, match="five-frame"):
            sf_input_from_window([Frame(np.zeros((27, 48), dtype=np.float32))] * 4)


class TestShrinkOncePerFrame:
    def test_each_frame_is_shrunk_once(self, monkeypatch):
        calls = []

        def counting(plane, out_h, out_w):
            calls.append(plane)
            return resize_plane(plane, out_h, out_w)

        monkeypatch.setattr(scene, "resize_plane", counting)
        clip = scene_pool(7, 0.5, frames=25)[0]
        inputs = [sf_input_from_window(clip.window(c)) for c in range(len(clip))]
        assert len(calls) == 25
        assert all(a is f.luma for a, f in zip(calls, clip))
        assert scene._shrink.cache_info().currsize <= 5
        for c, got in enumerate(inputs):
            want = np.stack([resize_plane(f.luma, SF_HEIGHT, SF_WIDTH)
                             for f in clip.window(c)]).astype(np.float32)
            assert np.array_equal(got, want)

    def test_interleaved_windows_match_serial_ones(self):
        # a window shrunk while another is part-way through its frames, as a
        # second thread may do, changes neither result
        class PausingFrame(Frame):
            """Runs `pause` once, at the first read of its luma after it is set."""
            pause = None

            @property
            def luma(self):
                pause, self.pause = self.pause, None
                if pause:
                    pause()
                return self._luma

            @luma.setter
            def luma(self, plane):
                self._luma = plane

        planes = [f.luma for f in scene_pool(8, 0.5, frames=12)[0]]
        serial = VideoClip([Frame(p) for p in planes])
        clip = VideoClip([PausingFrame(p) for p in planes])
        want = [sf_input_from_window(serial.window(c)) for c in range(len(serial))]
        inner = []
        clip[6].pause = lambda: inner.append(sf_input_from_window(clip.window(7)))
        got = [sf_input_from_window(clip.window(c)) for c in range(len(clip))]
        assert len(inner) == 1 and np.array_equal(inner[0], want[7])
        assert all(np.array_equal(a, b) for a, b in zip(got, want))

    def test_threads_sliding_over_one_clip_match_serial(self):
        clip = scene_pool(9, 0.5, frames=12)[0]
        want = [sf_input_from_window(clip.window(c)) for c in range(len(clip))]
        scene._shrink.cache_clear()
        errors, mismatches = [], []

        def slide(order):
            try:
                for _ in range(20):
                    for c in order:
                        if not np.array_equal(sf_input_from_window(clip.window(c)), want[c]):
                            mismatches.append(c)
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        orders = [range(12), range(11, -1, -1), range(0, 12, 2)]
        threads = [threading.Thread(target=slide, args=(o,)) for o in orders]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors and not mismatches


class TestReplaceFrames:
    def window(self):
        return [Frame(np.full((8, 8), 0.1 * (i + 1), dtype=np.float32)) for i in range(5)]

    @pytest.mark.parametrize("label,expected", [
        (SceneLabel.CHANGE_AFTER_1, [2, 2, 3, 4, 5]),
        (SceneLabel.CHANGE_AFTER_2, [3, 3, 3, 4, 5]),
        (SceneLabel.CHANGE_AFTER_3, [1, 2, 3, 3, 3]),
        (SceneLabel.CHANGE_AFTER_4, [1, 2, 3, 4, 4]),
        (SceneLabel.NO_CHANGE, [1, 2, 3, 4, 5]),
    ])
    def test_truth_table(self, label, expected):
        win = self.window()
        got = [round(float(f.luma[0, 0]) / 0.1) for f in replace_frames(win, label)]
        assert got == expected

    def test_middle_frame_always_survives(self):
        win = self.window()
        for label in SceneLabel:
            assert replace_frames(win, label)[2] is win[2]

    def test_pure_and_idempotent(self):
        win = self.window()
        snapshot = [f.luma.copy() for f in win]
        for label in SceneLabel:
            once = replace_frames(win, label)
            twice = replace_frames(once, label)
            assert all(a is b for a, b in zip(once, twice))
        assert all(np.array_equal(f.luma, s) for f, s in zip(win, snapshot))

    def test_window_length_checked(self):
        with pytest.raises(ValueError, match="five-frame"):
            replace_frames(self.window()[:3], SceneLabel.NO_CHANGE)


class TestDataset:
    def test_balanced_and_shaped(self):
        inputs, labels = make_sf_dataset([constant_clip(0.2)], [constant_clip(0.8)],
                                         per_class=3, seed=0)
        assert inputs.shape == (15, 5, SF_HEIGHT, SF_WIDTH) and inputs.dtype == np.float32
        assert labels.shape == (15,)
        counts = {lab: 0 for lab in SceneLabel}
        for lab in labels:
            counts[SceneLabel(lab)] += 1
        assert all(c == 3 for c in counts.values())

    def test_boundary_position_by_construction(self):
        # constant-luma scenes make the splice point directly readable
        data = make_sf_dataset([constant_clip(0.2)], [constant_clip(0.8)],
                               per_class=4, seed=1)
        for x, value in zip(*data):
            lab = SceneLabel(value)
            means = x.mean(axis=(1, 2))
            sides = np.isclose(means, means[0], atol=1e-3)
            if lab is SceneLabel.NO_CHANGE:
                assert sides.all()
            else:
                k = lab.value + 1
                assert sides[:k].all() and not sides[k:].any()

    def test_same_seed_reproduces(self):
        pools = (scene_pool(1, 0.3), scene_pool(2, 0.6))
        a = make_sf_dataset(*pools, per_class=2, seed=7)
        b = make_sf_dataset(*pools, per_class=2, seed=7)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_short_scene_rejected(self):
        with pytest.raises(ValueError, match="at least 5"):
            make_sf_dataset([constant_clip(0.2, frames=4)], [constant_clip(0.8)],
                            per_class=1, seed=0)

    def test_each_drawn_frame_is_shrunk_once(self, monkeypatch):
        # 30 windows from 96 frames: some frames are drawn twice, some never
        pools = (scene_pool(1, 0.3), scene_pool(2, 0.6))
        frames = {id(f.luma): f for pool in pools for clip in pool for f in clip}
        # each frame's shrink as the classifier input always made it, by content
        want = {resize_plane(f.luma, SF_HEIGHT, SF_WIDTH).astype(np.float32).tobytes(): f
                for f in frames.values()}
        calls = []

        def counting(plane, out_h, out_w):
            calls.append(id(plane))
            return resize_plane(plane, out_h, out_w)

        monkeypatch.setattr(scene, "resize_plane", counting)
        inputs, _ = make_sf_dataset(*pools, per_class=6, seed=3)
        windows = [[want[p.tobytes()] for p in x] for x in inputs]
        drawn = {id(f.luma) for window in windows for f in window}
        assert sorted(calls) == sorted(drawn)
        assert len(drawn) < min(len(frames), 5 * len(windows))
        for x, window in zip(inputs, windows):
            assert np.array_equal(x, sf_input_from_window(window))

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError, match="pools"):
            make_sf_dataset([], [constant_clip(0.8)], per_class=1, seed=0)


@pytest.fixture(scope="module")
def trained_sf(tmp_path_factory):
    pool_a = scene_pool(1, 0.25)
    pool_b = scene_pool(2, 0.7)
    train_set = make_sf_dataset(pool_a, pool_b, per_class=40, seed=5)
    val_set = make_sf_dataset(pool_a, pool_b, per_class=10, seed=6)
    spec = build_sf_net(2)
    path = str(tmp_path_factory.mktemp("sf") / "sf.ckpt")
    result = train_sf(spec, train_set, epochs=25, batch_size=32, lr=1e-3, seed=0,
                      val_samples=val_set, val_every=0, out_path=path,
                      meta={"arch": "sf2"})
    return spec, result, val_set, path, (pool_a, pool_b, train_set)


class TestTrainedClassifier:
    def test_heldout_accuracy(self, trained_sf):
        spec, result, val_set, _, _ = trained_sf
        assert result.log_rows[-1][1] < 0.25 * result.log_rows[0][1]
        assert result.final_val >= 0.95

    def test_hard_cut_and_steady_windows(self, trained_sf):
        spec, result, _, _, _ = trained_sf
        blk = Frame(np.zeros((54, 96), dtype=np.float32))
        wht = Frame(np.full((54, 96), 1.0, dtype=np.float32))
        windows = np.stack([sf_input_from_window(w) for w in ([blk, blk, wht, wht, wht],
                                                              [wht] * 5)])
        labels = np.argmax(sf_logits(result.params, spec, windows), axis=1)
        assert [SceneLabel(int(v)) for v in labels] == [SceneLabel.CHANGE_AFTER_2,
                                                        SceneLabel.NO_CHANGE]

    def test_confusion_matrix_concentrates_on_diagonal(self, trained_sf):
        spec, result, val_set, _, _ = trained_sf
        counts = confusion_matrix(result.params, spec, val_set)
        assert counts.sum() == len(val_set[1])
        assert np.all(counts.sum(axis=1) == 10)
        assert np.trace(counts) >= 0.95 * len(val_set[1])

    def test_confusion_csv_layout(self, trained_sf):
        spec, result, val_set, _, _ = trained_sf
        text = confusion_csv(confusion_matrix(result.params, spec, val_set))
        lines = text.strip().split("\n")
        assert lines[0] == ("true_label,change_after_1,change_after_2,"
                            "change_after_3,change_after_4,no_change")
        assert len(lines) == 6
        assert lines[1].startswith("change_after_1,")

    def test_checkpoint_roundtrip_keeps_predictions(self, trained_sf):
        spec, result, val_set, path, _ = trained_sf
        params, spec2, meta = load_checkpoint(path)
        assert spec2.kind == "sf"
        assert meta["arch"] == "sf2"
        assert sf_accuracy(params, spec2, val_set) == sf_accuracy(result.params, spec, val_set)

    def test_loop_options_pass_through(self, trained_sf, tmp_path):
        _, _, val_set, _, (_, _, train_set) = trained_sf
        out = str(tmp_path / "capped.ckpt")
        result = train_sf(build_sf_net(2), train_set, epochs=5, batch_size=32, seed=0,
                          max_steps=3, checkpoint_every=2, val_samples=val_set,
                          val_every=2, out_path=out)
        assert [r[0] for r in result.log_rows] == [1, 2, 3]
        assert [r[2] is None for r in result.log_rows] == [True, False, True]
        assert load_checkpoint(out)[2]["step"] == "3"

    def test_retrain_is_byte_identical(self, trained_sf, tmp_path):
        spec, _, _, path, (_, _, train_set) = trained_sf
        other = str(tmp_path / "again.ckpt")
        train_sf(build_sf_net(2), train_set, epochs=25, batch_size=32, lr=1e-3,
                 seed=0, out_path=other, meta={"arch": "sf2"})
        with open(path, "rb") as a, open(other, "rb") as b:
            assert a.read() == b.read()


class TestClassifierStep:
    """sf_batch_step runs its batch through training.batch_step as two
    contiguous halves, possibly on worker threads with OpenBLAS held at one
    thread, and sums them in order."""

    needs_blas = pytest.mark.skipif(tensor_core._blas_threads() is None,
                                    reason="no OpenBLAS thread control found")

    @staticmethod
    def batch(dtype=np.float32, n=9, seed=6):
        # an odd batch, so the second half is the short one
        spec = build_sf_net(3)
        params = [ConvWeights(w.kernel.astype(dtype), w.bias.astype(dtype))
                  for w in xavier_init(spec, seed)]
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.0, 1.0, (n, 1, 5, SF_HEIGHT, SF_WIDTH)).astype(dtype)
        return params, spec, x, rng.integers(0, len(SceneLabel), n)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_matches_one_whole_batch_pass(self, dtype):
        params, spec, x, labels = self.batch(dtype)
        loss, grads = sf_batch_step(params, spec, x, labels)
        out, caches = forward_stack(params, spec, x, want_caches=True)
        want_loss, g = loss_cross_entropy(out.reshape(len(x), -1), labels)
        want, _ = backward_stack(params, spec, x, caches, g.reshape(out.shape), input_grad=False)
        assert loss == pytest.approx(want_loss, rel=1e-12 if dtype == np.float64 else 1e-6)
        for got, ref in zip(grads, want):
            for a, b in ((got.kernel, ref.kernel), (got.bias, ref.bias)):
                assert a.dtype == dtype
                scale = np.abs(b).max()
                if dtype == np.float64:
                    np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12 * scale)
                else:
                    assert np.abs(a - b).max() <= 1e-6 * scale

    @needs_blas
    @pytest.mark.parametrize("workers", [1, 4])
    def test_worker_count_does_not_change_a_bit(self, monkeypatch, workers):
        args = self.batch()
        loss, grads = sf_batch_step(*args)
        monkeypatch.setattr(tensor_core, "_workers", lambda: workers)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            other_loss, other = sf_batch_step(*args)
        finally:
            sys.setswitchinterval(switch)
        assert other_loss == loss
        for g, h in zip(grads, other):
            assert np.array_equal(g.kernel, h.kernel) and np.array_equal(g.bias, h.bias)

    def test_train_sf_steps_run_as_two_parts(self, monkeypatch):
        # whatever the core count: batches of 9 and 3 split as 5 + 4 and 2 + 1
        calls = []

        def recording(fn, items):
            calls.append(list(items))
            return tensor_core.run_parts(fn, items)

        monkeypatch.setattr(training, "run_parts", recording)
        _, spec, x, labels = self.batch(n=12)
        train_sf(spec, (x[:, 0], labels), epochs=1, batch_size=9)
        assert calls == [[0, 5], [0, 2]]
