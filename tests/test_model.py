import numpy as np
import pytest

from vsr3d import tensor_core
from vsr3d.bicubic import bicubic_resize
from vsr3d.frames import Frame
from vsr3d.model import (ARCH_NAMES, LayerSpec, ModelSpec, backward_stack,
                         build_architecture, count_parameters, dump_feature_maps,
                         forward, forward_stack, stack_windows, zero_params)
from vsr3d.reference import REFERENCE_WEIGHT_COUNTS, forward_stack_loop
from vsr3d.scene import build_sf_net
from vsr3d.tensor_core import ConvWeights, TemporalPad, conv_forward


def random_params(spec, seed=0, scale=0.1, dtype=np.float32):
    rng = np.random.default_rng(seed)
    return [ConvWeights(
        (scale * rng.standard_normal((l.out_groups, l.in_groups) + l.kernel)).astype(dtype),
        (scale * rng.standard_normal(l.out_groups)).astype(dtype))
        for l in spec.layers]


def random_window(h=12, w=10, seed=0, n=5):
    rng = np.random.default_rng(seed)
    return [Frame(rng.random((h, w))) for _ in range(n)]


class TestArchitectures:
    @pytest.mark.parametrize("name", ARCH_NAMES)
    def test_weight_counts(self, name):
        spec = build_architecture(name, scale=2)
        assert count_parameters(spec) == REFERENCE_WEIGHT_COUNTS[name]

    def test_bias_counting(self):
        spec = build_architecture("full", scale=2)
        want = REFERENCE_WEIGHT_COUNTS["full"] + 32 * 5 + 4
        assert count_parameters(spec, include_bias=True) == want

    def test_single_layer_count(self):
        spec = ModelSpec([LayerSpec("conv3d", 1, 1, (3, 3, 3), TemporalPad.ZERO, "none")],
                         concat_after=1, scale=1)
        assert count_parameters(spec) == 27

    def test_depth_traces(self):
        assert build_architecture("full", 2).depth_trace() == (5, 5, 5, 5, 3, 1)
        assert build_architecture("v1", 2).depth_trace() == (5, 5, 5, 1, 1, 1)
        assert build_architecture("cnn2d", 2).depth_trace() == (1,) * 6

    def test_final_groups_follow_scale(self):
        for s in (2, 3, 4):
            assert build_architecture("v3", s).layers[-1].out_groups == s * s

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            build_architecture("resnet", 2)
        with pytest.raises(ValueError):
            build_architecture("full", 5)


class TestSpecValidation:
    def test_channel_chain_checked(self):
        with pytest.raises(ValueError, match="input groups"):
            ModelSpec([LayerSpec("conv3d", 1, 8, (3, 3, 3), TemporalPad.ZERO),
                       LayerSpec("conv2d", 99, 4, (1, 3, 3), activation="none")],
                      concat_after=1)

    def test_depth_must_reach_one(self):
        # no concat anywhere, so depth is still 5 at the end
        with pytest.raises(ValueError, match="depth"):
            ModelSpec([LayerSpec("conv3d", 1, 4, (3, 3, 3), TemporalPad.ZERO, "none")],
                      concat_after=None, scale=2)

    def test_trailing_concat_resolves_depth(self):
        spec = ModelSpec([LayerSpec("conv3d", 1, 1, (3, 3, 3), TemporalPad.ZERO, "none")],
                         concat_after=1, scale=1)
        assert spec.depth_trace() == (5,)

    def test_activation_placement(self):
        with pytest.raises(ValueError, match="activation"):
            ModelSpec([LayerSpec("conv2d", 5, 8, (1, 3, 3)),
                       LayerSpec("conv2d", 8, 4, (1, 3, 3))],
                      concat_after=0)

    def test_layer_kind_must_match_concat(self):
        with pytest.raises(ValueError, match="conv2d"):
            ModelSpec([LayerSpec("conv3d", 5, 4, (3, 3, 3), TemporalPad.ZERO, "none")],
                      concat_after=0)

    def test_conv2d_constraints(self):
        with pytest.raises(ValueError):
            LayerSpec("conv2d", 4, 4, (3, 3, 3))
        with pytest.raises(ValueError):
            LayerSpec("conv2d", 4, 4, (1, 3, 3), TemporalPad.ZERO)


class TestForwardStack:
    def test_flatten_is_group_major(self):
        from vsr3d.model import _flatten_depth
        x = np.arange(6, dtype=np.float64).reshape(1, 2, 3, 1, 1)
        flat = _flatten_depth(x)
        assert flat.shape == (1, 6, 1, 1, 1)
        for g in range(2):
            for d in range(3):
                assert flat[0, g * 3 + d, 0, 0, 0] == x[0, g, d, 0, 0]

    def test_whole_net_matches_loop_oracle(self):
        layers = [LayerSpec("conv3d", 1, 2, (3, 3, 3), TemporalPad.ZERO),
                  LayerSpec("conv3d", 2, 2, (3, 3, 3), TemporalPad.DUPLICATE),
                  LayerSpec("conv2d", 10, 4, (1, 3, 3), activation="none")]
        spec = ModelSpec(layers, concat_after=2, scale=2)
        params = random_params(spec, seed=3, dtype=np.float64)
        rng = np.random.default_rng(4)
        x = rng.random((1, 1, 5, 6, 6))

        got, _ = forward_stack(params, spec, x)

        ref = forward_stack_loop(params, spec, x)
        assert np.max(np.abs(got - ref)) < 1e-10

    @pytest.mark.parametrize("arch", ["cnn2d", "v1"])
    def test_resuming_from_a_preactivation_matches_the_whole_stack(self, arch):
        spec = build_architecture(arch, 2)
        params = random_params(spec, seed=5)
        x = stack_windows([random_window(8, 8, seed=6)])
        whole, caches = forward_stack(params, spec, x, want_caches=True)
        for i, pre in enumerate(caches):
            out, tail = forward_stack(params, spec, pre, want_caches=True, start=i)
            assert np.array_equal(out, whole)
            assert len(tail) == len(spec.layers) - i and tail[0] is pre

    def test_backward_shapes_roundtrip(self):
        spec = build_architecture("v1", 2)
        params = random_params(spec, seed=1)
        x = stack_windows([random_window(8, 8, seed=2)])
        out, caches = forward_stack(params, spec, x, want_caches=True)
        grads, gx = backward_stack(params, spec, x, caches, np.ones_like(out))
        assert gx.shape == x.shape
        for g, w in zip(grads, params):
            assert g.kernel.shape == w.kernel.shape
            assert g.bias.shape == w.bias.shape

    def test_training_step_gathers_once_per_layer_and_pass(self, monkeypatch):
        # the backward of every layer but layer 0 gathers the dilated output
        # gradient once, for both its GEMMs; layer 0 gathers its input once
        from vsr3d import tensor_core

        real, calls = tensor_core._column_bands, []

        def counting(*args):
            calls.append(args)
            return real(*args)
        monkeypatch.setattr(tensor_core, "_column_bands", counting)
        spec = build_architecture("full", 2)
        params = random_params(spec, seed=9)
        x = stack_windows([random_window(8, 8, seed=10)] * 2)
        out, caches = forward_stack(params, spec, x, want_caches=True)
        assert len(calls) == 6
        backward_stack(params, spec, x, caches, np.ones_like(out), input_grad=False)
        assert len(calls) == 6 + 6


def _layout_spec():
    # DUPLICATE layers back to back share a buffer whose edge slices must be
    # refreshed; a spatial_pad=0 layer followed by a padded one of the same
    # buffer shape hands over a buffer whose border holds activations
    def conv3(i, o, tpad, s=1):
        return LayerSpec("conv3d", i, o, (3, 3, 3), tpad, spatial_pad=s)
    layers = [conv3(1, 3, TemporalPad.ZERO), conv3(3, 3, TemporalPad.ZERO, s=0),
              conv3(3, 3, TemporalPad.ZERO), conv3(3, 3, TemporalPad.DUPLICATE),
              conv3(3, 3, TemporalPad.DUPLICATE),
              LayerSpec("conv2d", 15, 4, (1, 3, 3), activation="none")]
    return ModelSpec(layers, concat_after=5, scale=2)


def _stacks():
    sr = (1, 1, 5, 9, 11)
    cases = [(f"{name}-x{s}", build_architecture(name, s), sr)
             for name in ARCH_NAMES for s in (2, 3, 4)]
    cases += [(f"sf{n}", build_sf_net(n), (2, 1, 5, 27, 48)) for n in (2, 3)]
    # the depth flatten after the last layer
    flat = ModelSpec([LayerSpec("conv3d", 1, 2, (3, 3, 3), TemporalPad.ZERO),
                      LayerSpec("conv3d", 2, 3, (3, 3, 3), activation="none")],
                     concat_after=2, kind="sf")
    return cases + [("duplicate", _layout_spec(), sr), ("flatten-last", flat, sr)]


def _conv_chain(params, spec, x):
    # the stack as separate conv_forward calls on fresh arrays, with the
    # C-order depth flatten: (output, every layer's preactivation)
    def flatten(a):
        return a.reshape(a.shape[0], -1, 1, *a.shape[3:])
    pres = []
    for i, (layer, w) in enumerate(zip(spec.layers, params)):
        if i == spec.concat_after:
            x = flatten(x)
        pres.append(conv_forward(x, w, layer.pad, layer.stride))
        x = np.maximum(pres[-1], 0) if layer.activation == "relu" else pres[-1]
    return (flatten(x) if spec.concat_after == len(spec.layers) else x), pres


class TestInPlaceStack:
    """forward_stack runs each layer in the next one's padded buffer, with
    or without caches. It must agree bit for bit with itself and with a
    chain of conv_forward calls."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("name,spec,shape", _stacks(), ids=[c[0] for c in _stacks()])
    def test_matches_caching_stack(self, name, spec, shape, dtype):
        params = random_params(spec, seed=7, dtype=dtype)
        x = np.random.default_rng(8).random(shape).astype(dtype)
        want, caches = forward_stack(params, spec, x, want_caches=True)
        got, no_caches = forward_stack(params, spec, x)
        assert no_caches == [] and got.dtype == dtype
        assert np.array_equal(got, want)
        for i, pre in enumerate(caches):
            resumed, _ = forward_stack(params, spec, pre.copy(), start=i)
            assert np.array_equal(resumed, want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("name,spec,shape", _stacks(), ids=[c[0] for c in _stacks()])
    def test_matches_conv_forward_chain(self, name, spec, shape, dtype):
        params = random_params(spec, seed=7, dtype=dtype)
        x = np.random.default_rng(8).random(shape).astype(dtype)
        want, pres = _conv_chain(params, spec, x)
        got, caches = forward_stack(params, spec, x, want_caches=True)
        plain, _ = forward_stack(params, spec, x)
        assert np.array_equal(got, want) and np.array_equal(plain, want)
        assert len(caches) == len(pres)
        for pre, ref in zip(caches, pres):
            assert pre.dtype == dtype and np.array_equal(pre, ref)

    def test_training_caches_hold_preactivations_only(self):
        import tracemalloc

        from vsr3d.training import sr_batch_step

        spec = build_architecture("full", 2)
        params = random_params(spec, seed=3)
        rng = np.random.default_rng(4)
        x = rng.random((8, 1, 5, 40, 40)).astype(np.float32)
        bases, target = rng.random((2, 8, 1, 1, 80, 80)).astype(np.float32)
        out, caches = forward_stack(params, spec, x, want_caches=True)
        assert len(caches) == len(spec.layers) and caches[-1] is out
        for layer, depth, pre in zip(spec.layers, spec.depth_trace(), caches):
            assert isinstance(pre, np.ndarray)
            assert pre.shape == (8, layer.out_groups, depth, 40, 40)
        del out, caches
        sr_batch_step(params, spec, x, bases, target)
        tracemalloc.start()
        try:
            sr_batch_step(params, spec, x, bases, target)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # keeping each layer's input beside its preactivation peaks at 15.06
        # activations; preactivations alone at 11.46
        activation = 8 * 32 * 5 * 40 * 40 * 4
        assert peak < 13 * activation

    def test_peak_memory_is_two_activations(self):
        import tracemalloc

        spec = build_architecture("full", 2)
        params = random_params(spec, seed=1)
        x = np.random.default_rng(2).random((1, 1, 5, 144, 176)).astype(np.float32)
        forward_stack(params, spec, x)
        tracemalloc.start()
        try:
            forward_stack(params, spec, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one 32-group activation in the padded layout of the 3D layers
        activation = 32 * 5 * 146 * 178 * 4
        assert peak < 2.5 * activation


class TestForward:
    @pytest.mark.parametrize("name", ARCH_NAMES)
    def test_zero_params_reproduce_bicubic_exactly(self, name):
        spec = build_architecture(name, scale=2)
        window = random_window(10, 8, seed=5)
        out = forward(zero_params(spec), spec, window)
        base = bicubic_resize(window[2], 16, 20)
        assert np.array_equal(out.luma, base.luma)

    @pytest.mark.parametrize("name", ["full", "v1", "cnn2d"])
    def test_bytes_do_not_depend_on_workers_or_blas_threads(self, monkeypatch, name):
        # at QCIF every layer spans many bands, so each one is split into
        # parts; v1's used to differ between one and two BLAS threads in
        # most of its outputs
        spec = build_architecture(name, 2)
        params = random_params(spec, seed=3)
        x = stack_windows([random_window(144, 176, seed=4)])
        want = forward_stack(params, spec, x)[0]
        for workers in (1, 2, 4):
            monkeypatch.setattr(tensor_core, "_workers", lambda: workers)
            assert np.array_equal(forward_stack(params, spec, x)[0], want)
        monkeypatch.undo()
        blas = tensor_core._blas_threads()
        if blas is None:
            pytest.skip("no OpenBLAS thread control found")
        get, put = blas
        before = get()
        try:
            for threads in (1, 2):
                put(threads)
                assert np.array_equal(forward_stack(params, spec, x)[0], want)
        finally:
            put(before)

    @pytest.mark.parametrize("bias, level", [(2.0, 1.0), (-2.0, 0.0)])
    def test_output_is_clamped_to_unit_range(self, bias, level):
        spec = build_architecture("full", scale=2)
        params = zero_params(spec)
        params[-1].bias[:] = bias
        out = forward(params, spec, random_window(10, 8, seed=5))
        assert np.all(out.luma == level)

    def test_output_geometry(self):
        spec = build_architecture("full", scale=2)
        out = forward(random_params(spec, seed=6), spec, random_window(16, 16, seed=6))
        assert (out.height, out.width) == (32, 32)

    def test_deterministic(self):
        spec = build_architecture("v2", scale=2)
        params = random_params(spec, seed=7)
        window = random_window(8, 10, seed=8)
        a = forward(params, spec, window)
        b = forward(params, spec, window)
        assert np.array_equal(a.luma, b.luma)

    def test_window_validation(self):
        spec = build_architecture("full", scale=2)
        params = zero_params(spec)
        with pytest.raises(ValueError):
            forward(params, spec, random_window()[0:3])
        bad = random_window()
        bad[3] = Frame(np.zeros((20, 20)))
        with pytest.raises(ValueError):
            forward(params, spec, bad)

    def test_translation_equivariance_interior(self):
        spec = build_architecture("full", scale=2)
        params = random_params(spec, seed=9, scale=0.05)
        rng = np.random.default_rng(10)
        tall = rng.random((25, 24))
        out_a = forward(params, spec, [Frame(tall[:24]) for _ in range(5)])
        out_b = forward(params, spec, [Frame(tall[1:]) for _ in range(5)])
        # shifting the scene down one LR pixel shifts the result by `scale`;
        # borders corrupt one LR row per conv layer, so compare well inside
        a = out_a.luma[14:36, 12:36]
        b = out_b.luma[12:34, 12:36]
        assert np.max(np.abs(a - b)) < 1e-5


class TestMultiscale:
    def test_scale_two_degenerates_to_forward(self):
        spec = build_architecture("full", 2)
        params = random_params(spec, seed=11)
        window = random_window(8, 8, seed=11)
        a = forward(params, spec, window, 2)
        b = forward(params, spec, window)
        assert np.array_equal(a.luma, b.luma)

    def test_scale_four_geometry(self):
        spec = build_architecture("full", 2)
        out = forward(zero_params(spec), spec, random_window(20, 20, seed=12), 4)
        assert (out.height, out.width) == (80, 80)

    def test_zero_params_equal_bicubic_chain(self):
        spec = build_architecture("full", 2)
        window = random_window(10, 12, seed=13)
        out = forward(zero_params(spec), spec, window, 3)
        pre = bicubic_resize(window[2], 18, 15)
        chain = bicubic_resize(pre, 36, 30)
        assert np.array_equal(out.luma, chain.luma)

    def test_own_scale_given_equals_default(self):
        spec = build_architecture("full", 3)
        params = random_params(spec, seed=16)
        window = random_window(8, 8, seed=16)
        assert np.array_equal(forward(params, spec, window, 3).luma,
                              forward(params, spec, window).luma)

    def test_scale_validation(self):
        spec2 = build_architecture("full", 2)
        spec3 = build_architecture("full", 3)
        with pytest.raises(ValueError):
            forward(zero_params(spec3), spec3, random_window(), 2)
        with pytest.raises(ValueError):
            forward(zero_params(spec2), spec2, random_window(), 5)
        with pytest.raises(ValueError):
            forward(zero_params(spec2), spec2, random_window(h=9, w=9), 3)


class TestFeatureDumps:
    def test_full_layer_one_emits_all_slices(self, tmp_path):
        spec = build_architecture("full", 2)
        paths = dump_feature_maps(random_params(spec, seed=14), spec,
                                  random_window(8, 8, seed=14), 1, str(tmp_path))
        assert len(paths) == 32 * 5

    def test_cnn2d_layer_one_has_no_temporal_axis(self, tmp_path):
        spec = build_architecture("cnn2d", 2)
        paths = dump_feature_maps(random_params(spec, seed=15), spec,
                                  random_window(8, 8, seed=15), 1, str(tmp_path))
        assert len(paths) == 32

    def test_zero_weights_yield_uniform_images(self, tmp_path):
        spec = build_architecture("cnn2d", 2)
        window = [Frame(np.full((8, 8), 0.5))] * 5
        paths = dump_feature_maps(zero_params(spec), spec, window, 2, str(tmp_path))
        payload = open(paths[0], "rb").read().split(b"255\n", 1)[1]
        assert len(set(payload)) == 1

    def test_maps_at_the_geometry_the_net_runs_on(self, tmp_path):
        spec = build_architecture("cnn2d", 2)
        paths = dump_feature_maps(zero_params(spec), spec, random_window(8, 6, seed=17), 1,
                                  str(tmp_path), scale=4)
        assert open(paths[0], "rb").read().startswith(b"P5\n12 16\n")

    def test_unservable_scale_creates_no_directory(self, tmp_path):
        spec = build_architecture("cnn2d", 3)
        with pytest.raises(ValueError, match="cannot serve"):
            dump_feature_maps(zero_params(spec), spec, random_window(), 1,
                              str(tmp_path / "maps"), scale=4)
        assert not (tmp_path / "maps").exists()

    def test_layer_out_of_range(self, tmp_path):
        spec = build_architecture("v1", 2)
        with pytest.raises(ValueError):
            dump_feature_maps(zero_params(spec), spec, random_window(), 7, str(tmp_path))
