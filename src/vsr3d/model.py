"""Network description, the five reference architectures, and inference.

A ModelSpec is an ordered list of conv layers plus the index at which the
temporal axis is flattened into channels (group-major: the depth slices of
group 0 come first). SR specs end in scale^2 output groups that pixel-shuffle
into the residual added to the bicubic-upscaled middle frame; classifier
("sf") specs end in one logit group per class.

forward_stack is the one layer loop: it holds two padded input buffers,
used in turn, each hidden layer writing its ReLU into the other as the
next layer's input, and makes no hidden preactivation unless asked for
caches. Training asks for them, and they keep each layer's preactivation
only; backward_stack rebuilds each layer's input from them (layer_input),
trading one ReLU per layer for a stored activation (Chen et al. 2016,
"Training Deep Nets with Sublinear Memory Cost"). layer_input is also how
forward_stack resumes from a layer's preactivation.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .bicubic import bicubic_resize, bicubic_upscale
from .frames import INPUT_FRAMES, MIDDLE_FRAME, Frame
from .tensor_core import (DEFAULT_DTYPE, ConvWeights, PadPolicy, TemporalPad,
                          conv_backward, conv_out_shape, conv_padded, padded, padded_shape,
                          pixel_shuffle, relu, relu_backward, zero_border)

ARCH_NAMES = ("cnn2d", "v1", "v2", "v3", "full")
SCALES = (2, 3, 4)


@dataclass(frozen=True)
class LayerSpec:
    kind: str                      # conv3d | conv2d
    in_groups: int
    out_groups: int
    kernel: tuple[int, int, int]
    temporal_pad: TemporalPad = TemporalPad.NONE
    activation: str = "relu"       # relu | none
    stride: tuple[int, int] = (1, 1)
    spatial_pad: int = 1

    def __post_init__(self):
        if self.kind not in ("conv3d", "conv2d"):
            raise ValueError(f"unknown layer kind {self.kind!r}")
        if self.kind == "conv2d" and (self.kernel[0] != 1 or self.temporal_pad is not TemporalPad.NONE):
            raise ValueError("conv2d layers need kernel depth 1 and no temporal padding")
        if self.activation not in ("relu", "none"):
            raise ValueError(f"unknown activation {self.activation!r}")
        sizes = (self.in_groups, self.out_groups, *self.kernel, *self.stride)
        if min(sizes) < 1 or self.spatial_pad < 0:
            raise ValueError(f"sizes and strides must be positive in {self!r}")

    @functools.cached_property  # built once: the layer loop reads it per layer
    def pad(self) -> PadPolicy:
        return PadPolicy(spatial=self.spatial_pad, temporal=self.temporal_pad)

    @property
    def weight_count(self) -> int:
        kd, kh, kw = self.kernel
        return self.in_groups * self.out_groups * kd * kh * kw


@dataclass(frozen=True)
class ModelSpec:
    """Layer stack + concat position. kind 'sr' nets must consume the whole
    temporal axis (depth 1 at the output) and end in scale^2 groups."""

    layers: tuple[LayerSpec, ...]
    concat_after: int | None
    scale: int = 2
    kind: str = "sr"

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        if self.kind not in ("sr", "sf"):
            raise ValueError(f"unknown model kind {self.kind!r}")
        if not self.layers:
            raise ValueError("a model needs at least one layer")
        if self.scale < 1:
            raise ValueError("scale must be >= 1")
        if self.concat_after is not None and not 0 <= self.concat_after <= len(self.layers):
            raise ValueError("concat_after out of range")
        chans, depth = (INPUT_FRAMES, 1) if self.concat_after == 0 else (1, INPUT_FRAMES)
        trace = []
        for i, layer in enumerate(self.layers):
            want_2d = self.concat_after is not None and i >= self.concat_after
            if (layer.kind == "conv2d") != want_2d:
                raise ValueError(
                    f"layer {i} must be {'conv2d' if want_2d else 'conv3d'} "
                    f"given concat_after={self.concat_after}")
            if (layer.activation == "none") != (i == len(self.layers) - 1):
                raise ValueError("exactly the final layer must have no activation")
            if layer.in_groups != chans:
                raise ValueError(
                    f"layer {i} expects {layer.in_groups} input groups but receives {chans}")
            if layer.temporal_pad is TemporalPad.NONE:
                depth = depth - layer.kernel[0] + 1
            if depth < 1:
                raise ValueError(f"temporal depth exhausted at layer {i}")
            chans = layer.out_groups
            trace.append(depth)
            if i + 1 == self.concat_after:
                chans, depth = chans * depth, 1
        if self.kind == "sr":
            if depth != 1:
                raise ValueError(f"temporal depth must reach 1 at the output, trace {trace}")
            last = self.layers[-1].out_groups
            if last != self.scale * self.scale:
                raise ValueError(
                    f"final layer emits {last} groups, expected scale^2 = "
                    f"{self.scale * self.scale}")
        object.__setattr__(self, "_depth_trace", tuple(trace))

    def depth_trace(self) -> tuple[int, ...]:
        """Temporal depth after each layer (before any flatten)."""
        return self._depth_trace


def _conv3(i, o, tpad=TemporalPad.ZERO):
    return LayerSpec("conv3d", i, o, (3, 3, 3), tpad)


def _conv2(i, o, act="relu"):
    return LayerSpec("conv2d", i, o, (1, 3, 3), TemporalPad.NONE, act)


def build_architecture(name: str, scale: int = 2) -> ModelSpec:
    """One of the five reference configurations, all 3x3(x3) kernels."""
    if scale not in SCALES:
        raise ValueError(f"scale must be one of {SCALES}")
    s2 = scale * scale
    if name == "cnn2d":
        layers = [_conv2(5, 32), _conv2(32, 64), _conv2(64, 64), _conv2(64, 64),
                  _conv2(64, 35), _conv2(35, s2, act="none")]
        return ModelSpec(layers, concat_after=0, scale=scale)
    if name == "v1":
        layers = [_conv3(1, 32), _conv3(32, 32), _conv3(32, 16),
                  _conv2(80, 64), _conv2(64, 32), _conv2(32, s2, act="none")]
        return ModelSpec(layers, concat_after=3, scale=scale)
    if name == "v2":
        layers = [_conv3(1, 32), _conv3(32, 32), _conv3(32, 32), _conv3(32, 16),
                  _conv2(80, 64), _conv2(64, s2, act="none")]
        return ModelSpec(layers, concat_after=4, scale=scale)
    if name == "v3":
        layers = [_conv3(1, 32), _conv3(32, 32), _conv3(32, 32), _conv3(32, 32),
                  _conv3(32, 16), _conv2(80, s2, act="none")]
        return ModelSpec(layers, concat_after=5, scale=scale)
    if name == "full":
        # the last 3D layer runs without extrapolation, shedding depth 5 -> 3
        layers = [_conv3(1, 32), _conv3(32, 32), _conv3(32, 32), _conv3(32, 32),
                  _conv3(32, 32, tpad=TemporalPad.NONE),
                  _conv2(96, s2, act="none")]
        return ModelSpec(layers, concat_after=5, scale=scale)
    raise ValueError(f"unknown architecture {name!r}; expected one of {ARCH_NAMES}")


def count_parameters(spec: ModelSpec, include_bias: bool = False) -> int:
    total = sum(layer.weight_count for layer in spec.layers)
    if include_bias:
        total += sum(layer.out_groups for layer in spec.layers)
    return total


def zero_params(spec: ModelSpec) -> list[ConvWeights]:
    return [ConvWeights(np.zeros((l.out_groups, l.in_groups) + l.kernel, dtype=DEFAULT_DTYPE),
                        np.zeros(l.out_groups, dtype=DEFAULT_DTYPE))
            for l in spec.layers]


def check_params(params, spec: ModelSpec):
    if len(params) != len(spec.layers):
        raise ValueError(f"{len(params)} parameter sets for {len(spec.layers)} layers")
    for i, (w, l) in enumerate(zip(params, spec.layers)):
        if w.kernel.shape != (l.out_groups, l.in_groups) + l.kernel:
            raise ValueError(f"layer {i} kernel shape {w.kernel.shape} does not match its spec")


def _flatten_depth(x: np.ndarray) -> np.ndarray:
    # (N, C, D, H, W) -> (N, C*D, 1, H, W); C-order reshape is exactly the
    # group-major layout written into checkpoints
    n, c, d, h, w = x.shape
    return x.reshape(n, c * d, 1, h, w)


def layer_input(spec: ModelSpec, i: int, prev: np.ndarray) -> np.ndarray:
    """Layer i's input from `prev`, the stack input for i == 0, else layer
    i-1's preactivation (every layer but the last has a ReLU), whose ReLU it
    is; depth-flattened when i == concat_after. The one spelling of that
    rule: forward_stack resumes with it, backward_stack and grad_check
    rebuild each layer's input from the caches with it."""
    act = prev if i == 0 else relu(prev)
    return _flatten_depth(act) if i == spec.concat_after else act


def forward_stack(params, spec: ModelSpec, x: np.ndarray, want_caches: bool = False,
                  start: int | None = None):
    """Apply the layer stack to an (N, 1, INPUT_FRAMES, H, W) input.

    With `start`, x is instead layer `start`'s preactivation, (N, its out
    groups, its depth, H, W), and the stack runs on from there, which lets
    gradient checks probe one layer at a time. Any other shape of x is a
    ValueError.
    Returns (out, caches); with `want_caches`, caches hold the preactivation
    of each layer run (x itself for `start`), for backward_stack, and are
    empty otherwise.

    Each layer reads its input in the padded layout it needs, from one of
    two buffers used in turn. A hidden layer writes its ReLU into the
    other, band by band, as the next layer's input: the depth flatten at
    concat_after and DUPLICATE's edge slices included. So only the first
    layer run gets a padded copy of its input, padded(layer_input(x)). A
    buffer's zero border is written when it is made; the next layer but one
    reuses it when its shape and border match. Without caches no hidden
    preactivation is made: a 32->32 layer holds two padded activations and
    its parts' bands. The caches hold conv outputs, never a buffer.
    """
    check_params(params, spec)
    layers, first = spec.layers, 0 if start is None else start + 1
    reads = ((1, INPUT_FRAMES) if start is None else
             (layers[start].out_groups, spec.depth_trace()[start]))
    if x.ndim != 5 or x.shape[1:3] != reads:
        raise ValueError(f"input shape {x.shape} does not match the (N, {reads[0]}, {reads[1]}, "
                         f"H, W) the spec reads")
    caches = [x] if want_caches and start is not None else []
    out = x  # resumed after the last layer, x is the output
    if first < len(layers):
        buf = padded(layer_input(spec, first, x), layers[first].kernel[0], layers[first].pad)
        spare = None  # layer i-1's input buffer
        for i in range(first, len(layers) - 1):
            layer, nxt = layers[i], layers[i + 1]
            n, c, d, h, w = conv_out_shape(buf.shape, params[i].kernel.shape, layer.pad,
                                           layer.stride)
            shape = padded_shape((n, c * d, 1, h, w) if i + 1 == spec.concat_after else
                                 (n, c, d, h, w), nxt.kernel[0], nxt.pad)
            if spare is None or spare.shape != shape or layers[i - 1].spatial_pad != nxt.spatial_pad:
                spare = None  # let the old buffer go before the new one is made
                spare = zero_border(np.empty(shape, x.dtype), nxt.spatial_pad)
            pre = conv_padded(buf, params[i], layer.pad, layer.stride, relu_into=spare,
                              keep=want_caches)
            if want_caches:
                caches.append(pre)
            buf, spare = spare, buf
        out = conv_padded(buf, params[-1], layers[-1].pad, layers[-1].stride)
        if want_caches:
            caches.append(out)
    # the last layer has no activation
    return (_flatten_depth(out) if spec.concat_after == len(layers) else out), caches


def backward_stack(params, spec: ModelSpec, x: np.ndarray, caches, grad_out: np.ndarray,
                   input_grad: bool = True):
    """Gradients of a scalar loss wrt every parameter and, with `input_grad`,
    the stack input x (else None: training needs only the parameters').
    Each layer's input is rebuilt from the caches by layer_input."""
    grads: list = [None] * len(spec.layers)
    g = grad_out
    for i in reversed(range(len(spec.layers))):
        layer, pre = spec.layers[i], caches[i]
        g = g.reshape(pre.shape)  # undoes the depth flatten after layer concat_after
        if layer.activation == "relu":
            g = relu_backward(pre, g)
        g, grads[i] = conv_backward(layer_input(spec, i, caches[i - 1] if i else x), params[i],
                                    layer.pad, g, layer.stride, input_grad=input_grad or i > 0)
    if input_grad and spec.concat_after == 0:
        g = g.reshape(x.shape)
    return grads, g


def stack_windows(windows) -> np.ndarray:
    """Luma of a batch of five-frame windows as an (N, 1, 5, H, W) tensor."""
    return np.stack([np.stack([f.luma for f in win]) for win in windows])[:, None]


def _net_window(spec: ModelSpec, window, scale: int | None):
    """Check a five-frame window and return the window the net runs on to
    upscale it by `scale` (default: the model's own). A scale-2 model also
    serves 3 and 4 by bicubic pre-upscaling each frame (x1.5 and x2)."""
    if len(window) != INPUT_FRAMES:
        raise ValueError(f"expected {INPUT_FRAMES} frames, got {len(window)}")
    if any((f.height, f.width) != (window[0].height, window[0].width) for f in window):
        raise ValueError("window frames disagree on geometry")
    if scale is None or scale == spec.scale:
        return window
    if spec.scale != 2 or scale not in SCALES:
        raise ValueError(f"the model upsamples x{spec.scale}; cannot serve x{scale}")
    if scale == 3 and (window[0].height % 2 or window[0].width % 2):
        raise ValueError("scale 3 needs even input geometry (x1.5 pre-upscale)")
    return [bicubic_resize(f, f.width * scale // 2, f.height * scale // 2) for f in window]


def forward(params, spec: ModelSpec, window, scale: int | None = None) -> Frame:
    """Upscale the middle frame of a five-frame window by `scale` (default: the model's)."""
    if spec.kind != "sr":
        raise ValueError("forward needs an SR spec")
    window = _net_window(spec, window, scale)
    out, _ = forward_stack(params, spec, stack_windows([window]))
    residual = pixel_shuffle(out, spec.scale)[0, 0, 0]
    base = bicubic_upscale(window[MIDDLE_FRAME], spec.scale)
    return Frame(base.luma + residual)   # Frame clamps to [0, 1]


def dump_feature_maps(params, spec: ModelSpec, window, layer: int, out_dir: str,
                      scale: int | None = None) -> list[str]:
    """Write every temporal slice of every group at a layer (1-based index)
    as a min-max normalized PGM; returns the written paths. The net runs on
    the window `forward` would give it at `scale`."""
    import os

    from .video_io import write_pgm

    if not 1 <= layer <= len(spec.layers):
        raise ValueError(f"layer must be in 1..{len(spec.layers)}")
    x = stack_windows([_net_window(spec, window, scale)])
    _, caches = forward_stack(params, spec, x, want_caches=True)
    pre = caches[layer - 1]
    act = relu(pre) if spec.layers[layer - 1].activation == "relu" else pre
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    _, groups, depth, _, _ = act.shape
    for gi in range(groups):
        for ti in range(depth):
            img = np.asarray(act[0, gi, ti], dtype=np.float64)
            spread = img.max() - img.min()
            img = (img - img.min()) / spread if spread > 0 else np.zeros_like(img)
            path = os.path.join(out_dir, f"layer{layer}_g{gi:03d}_t{ti}.pgm")
            write_pgm(img, path)
            paths.append(path)
    return paths
