"""Dataset extraction, loss, initialization, Adam, the training loop, and
gradient verification.

Every entry point is seeded and deterministic: the same (data, seed, hyper)
triple reproduces every logged loss and checkpoint byte. Each input clip is
treated as a single scene, so extracted windows never straddle a cut. The SR
training set is one (lr, hr) array pair, as the classifier's is (inputs,
labels): it copies its crops out of the clips, so they can go before training
starts, and it stores no bicubic base, since a base is a function of its LR
stack and each batch makes its own.

Both nets train through one step (batch_step): its batch runs as parts
(Huang et al. 2019, GPipe) on every usable core, OpenBLAS at one thread,
summed in a fixed order, so where OpenBLAS's thread control is found those
bytes do not depend on the core or BLAS thread count either.
"""

import math
from dataclasses import dataclass, replace
from itertools import islice
from typing import NamedTuple

import numpy as np

from .bicubic import bicubic_upscale, resize_plane
from .checkpoint import save_checkpoint
from .frames import INPUT_FRAMES, MIDDLE_FRAME, Frame, VideoClip
from .metrics import mean_psnr, psnr
from .model import (SCALES, ModelSpec, backward_stack, build_architecture, forward,
                    forward_stack, layer_input, zero_params)
from .tensor_core import (DEFAULT_DTYPE, ConvWeights, conv_forward, pixel_shuffle, pixel_unshuffle,
                          run_parts)
from .video_io import atomic_write

DEFAULT_LR = 5e-4
DEFAULT_BATCH = 32
DEFAULT_WEIGHT_DECAY = 5e-4
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
BIAS_LR_FACTOR = 0.1
LR_PATCH_SIZES = {2: 80, 3: 60, 4: 40}
LOSS_FORMS = ("mean", "sum")   # how the squared error is reduced (sr_batch_step)
# Samples per micro-batch of sr_batch_step, by measurement on two cores: a
# `full` step of 8 LR patches of 40x40 took 405 ms in micro-batches of 2,
# 410 ms of 1 and 740 ms as one; at 32 of 80x80, 1 halved 2's 163 MB peak
_MICRO_BATCH = 2


class TrainingDiverged(RuntimeError):
    """Loss or a gradient stopped being finite."""


@dataclass(frozen=True)
class DatasetRecipe:
    scale: int = 2
    frame_stride: int = 5
    subimages_per_frame: int = 10
    lr_patch_size: int | None = None   # default depends on scale

    def __post_init__(self):
        if self.scale not in SCALES:
            raise ValueError(f"scale must be one of {SCALES}, got {self.scale}")
        if self.frame_stride < 1 or self.subimages_per_frame < 1:
            raise ValueError("stride and subimages/frame must be >= 1")
        if self.lr_patch_size is None:
            object.__setattr__(self, "lr_patch_size", LR_PATCH_SIZES[self.scale])
        if self.lr_patch_size < 1:
            raise ValueError(f"lr_patch_size must be >= 1, got {self.lr_patch_size}")

    @property
    def hr_patch_size(self) -> int:
        return self.lr_patch_size * self.scale


def _cell_edges(extent: int, cells: int) -> list[int]:
    # partition [0, extent) into `cells` near-equal contiguous spans
    base, extra = divmod(extent, cells)
    edges = [0]
    for i in range(cells):
        edges.append(edges[-1] + base + (1 if i < extra else 0))
    return edges


def extract_dataset(clips: list[VideoClip], recipe: DatasetRecipe,
                    seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded patch windows: every frame_stride-th centre frame contributes
    subimages_per_frame non-overlapping HR crops whose five co-located
    neighbours are bicubic-downscaled into the LR input stack. Edge windows
    replicate the first/last frame. Returns (lr, hr), clip by clip and centre
    by centre: an (N, 5, p, p) and an (N, p*scale, p*scale) float32 array,
    each owning its data, so no clip frame outlives the call through them."""
    if not clips:
        raise ValueError("no clips supplied")
    p_hr, p_lr = recipe.hr_patch_size, recipe.lr_patch_size
    per_frame = recipe.subimages_per_frame
    grids = []   # every clip is checked before anything is allocated
    for ci, clip in enumerate(clips):
        if len(clip) < INPUT_FRAMES:
            raise ValueError(f"clip {ci} has {len(clip)} frames; need at least {INPUT_FRAMES}")
        if clip.height < p_hr or clip.width < p_hr:
            raise ValueError(
                f"clip {ci} is {clip.width}x{clip.height}, smaller than the "
                f"{p_hr}x{p_hr} HR patch")
        gy, gx = clip.height // p_hr, clip.width // p_hr
        if per_frame > gy * gx:
            raise ValueError(
                f"cannot place {per_frame} non-overlapping "
                f"{p_hr}x{p_hr} patches on a {clip.width}x{clip.height} frame")
        grids.append((gy, gx))
    count = per_frame * sum(len(range(0, len(clip), recipe.frame_stride)) for clip in clips)
    lr = np.empty((count, INPUT_FRAMES, p_lr, p_lr), DEFAULT_DTYPE)
    hr = np.empty((count, p_hr, p_hr), DEFAULT_DTYPE)
    rng = np.random.default_rng(seed)
    n = 0
    for clip, (gy, gx) in zip(clips, grids):
        ey, ex = _cell_edges(clip.height, gy), _cell_edges(clip.width, gx)
        for centre in range(0, len(clip), recipe.frame_stride):
            window = clip.window(centre)
            # one crop per randomly chosen grid cell, jittered inside the
            # cell: seeded, spread over the frame, and never overlapping
            cells = rng.choice(gy * gx, size=per_frame, replace=False)
            for cell in sorted(int(c) for c in cells):
                r, c = divmod(cell, gx)
                y = int(rng.integers(ey[r], ey[r + 1] - p_hr + 1))
                x = int(rng.integers(ex[c], ex[c + 1] - p_hr + 1))
                for k, f in enumerate(window):
                    lr[n, k] = resize_plane(f.luma[y:y + p_hr, x:x + p_hr], p_lr, p_lr)
                hr[n] = window[MIDDLE_FRAME].luma[y:y + p_hr, x:x + p_hr]
                n += 1
    return lr, hr


def loss_mse(pred: np.ndarray, target: np.ndarray):
    """Half summed squared error 0.5 * sum(d^2), d = pred - target, summed in
    float64, and its gradient d. The mean of LOSS_FORMS divides both by the
    element count afterwards (sr_batch_step's norm)."""
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch {pred.shape} vs {target.shape}")
    d = pred - target
    d64 = np.asarray(d, dtype=np.float64)
    return 0.5 * float(np.sum(d64 * d64)), d


def xavier_init(spec: ModelSpec, seed: int) -> list[ConvWeights]:
    """Uniform on +/- sqrt(6 / (fanIn + fanOut)) with fan counted over
    groups x kernel volume; biases start at zero."""
    rng = np.random.default_rng(seed)
    params = []
    for l in spec.layers:
        vol = l.kernel[0] * l.kernel[1] * l.kernel[2]
        bound = math.sqrt(6.0 / (l.in_groups * vol + l.out_groups * vol))
        kernel = rng.uniform(-bound, bound, (l.out_groups, l.in_groups) + l.kernel)
        params.append(ConvWeights(kernel.astype(DEFAULT_DTYPE),
                                  np.zeros(l.out_groups, dtype=DEFAULT_DTYPE)))
    return params


@dataclass
class OptimState:
    m: list[ConvWeights]
    v: list[ConvWeights]
    step: int = 0
    base_lr: float = DEFAULT_LR
    weight_decay: float = DEFAULT_WEIGHT_DECAY   # filters only; biases always decay-free


def init_optim(spec: ModelSpec, base_lr: float = DEFAULT_LR,
               weight_decay: float = DEFAULT_WEIGHT_DECAY) -> OptimState:
    return OptimState(m=zero_params(spec), v=zero_params(spec),
                      base_lr=base_lr, weight_decay=weight_decay)


def _adam_update(w, g, m, v, state: OptimState, lr: float, decay: float, where: str):
    if not np.all(np.isfinite(g)):
        raise TrainingDiverged(f"non-finite gradient in {where}")
    if decay:
        g = g + decay * w
    m[...] = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
    v[...] = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * (g * g)
    mhat = m / (1.0 - ADAM_BETA1 ** state.step)
    vhat = v / (1.0 - ADAM_BETA2 ** state.step)
    return (w - lr * mhat / (np.sqrt(vhat) + ADAM_EPS)).astype(w.dtype)


def adam_step(params, grads, state: OptimState) -> list[ConvWeights]:
    """One bias-corrected Adam step. Filters see the full learning rate and
    L2 decay folded into the gradient before the moment update; biases run
    at a tenth of the rate with no decay."""
    state.step += 1
    out = []
    for i, (w, g) in enumerate(zip(params, grads)):
        kernel = _adam_update(w.kernel, g.kernel, state.m[i].kernel, state.v[i].kernel,
                              state, state.base_lr, state.weight_decay, f"layer {i} kernel")
        bias = _adam_update(w.bias, g.bias, state.m[i].bias, state.v[i].bias,
                            state, state.base_lr * BIAS_LR_FACTOR, 0.0, f"layer {i} bias")
        out.append(ConvWeights(kernel, bias))
    return out


def batch_step(params, spec: ModelSpec, x, head, norm, size: int = _MICRO_BATCH):
    """Loss / norm and parameter gradients of one batch, for either net, as
    parts of `size` consecutive samples on run_parts summed in part order:
    each a forward, `head(out, lo, hi) -> (summed loss, its gradient wrt
    out)` for samples lo:hi, and a backward of that gradient / norm."""
    def part(lo):
        hi = lo + size
        out, caches = forward_stack(params, spec, x[lo:hi], want_caches=True)
        loss, grad = head(out, lo, hi)
        grads, _ = backward_stack(params, spec, x[lo:hi], caches, grad / norm, input_grad=False)
        return loss, grads

    parts = run_parts(part, range(0, len(x), size))
    loss, grads = parts[0]
    for part_loss, part_grads in parts[1:]:
        loss += part_loss
        for g, p in zip(grads, part_grads):
            g.kernel += p.kernel
            g.bias += p.bias
    return loss / norm, grads


def sr_batch_step(params, spec: ModelSpec, x, bases, target, form: str = "mean"):
    """Loss and gradients of one batch in micro-batches of _MICRO_BATCH.
    Prediction is base + pixel-shuffled residual, unclamped; training never
    clamps, only inference does."""
    if form not in LOSS_FORMS:
        raise ValueError(f"unknown loss form {form!r}")

    def head(out, lo, hi):
        loss, grad = loss_mse(pixel_shuffle(out, spec.scale) + bases[lo:hi], target[lo:hi])
        return loss, pixel_unshuffle(grad, spec.scale)

    return batch_step(params, spec, x, head, target.size if form == "mean" else 1)


class TrainResult(NamedTuple):
    params: list
    log_rows: list              # (step, loss, val or None)
    final_val: float | None     # the last validation, None without one


def fit(spec: ModelSpec, count: int, batch_loss, validate=None, *, epochs: int = 1,
        batch_size: int = DEFAULT_BATCH, lr: float = DEFAULT_LR, seed: int = 0,
        weight_decay: float = DEFAULT_WEIGHT_DECAY, val_every: int = 0,
        out_path: str | None = None, log_path: str | None = None,
        val_column: str = "val_psnr_db", checkpoint_every: int = 0,
        max_steps: int = 0, meta: dict | None = None) -> TrainResult:
    """The seeded mini-batch Adam loop every network trains through.

    Starts from xavier_init(spec, seed), shuffles the `count` sample indices
    per epoch from the seed, and hands each batch of indices to
    `batch_loss(params, idx) -> (loss, grads)`. Logs (step, loss, periodic
    `validate(params)`), writes periodic and final checkpoints to out_path,
    and aborts on a non-finite loss or gradient keeping the last checkpoint.
    However the run ends, log_path then holds the rows logged so far; a run
    that logs none (one that fails in its first step) leaves it as it was.
    """
    if not count:
        raise ValueError("empty dataset")
    params = xavier_init(spec, seed)
    state = init_optim(spec, base_lr=lr, weight_decay=weight_decay)
    shuffle = np.random.default_rng((seed, 1))
    rows = []
    meta = dict(meta or {})
    saved = False  # whether this run has written a checkpoint yet

    def checkpoint(step):
        nonlocal saved
        if out_path:
            save_checkpoint(params, spec, {**meta, "step": step, "seed": seed}, out_path)
            saved = True

    def batches():
        for _ in range(epochs):
            order = shuffle.permutation(count)
            for lo in range(0, count, batch_size):
                yield order[lo: lo + batch_size]

    step = 0
    try:
        for idx in islice(batches(), max_steps or None):
            loss, grads = batch_loss(params, idx)
            if not math.isfinite(loss):
                checkpoint_note = " (checkpoint kept)" if saved else ""
                raise TrainingDiverged(f"loss {loss} at step {step + 1}{checkpoint_note}")
            params = adam_step(params, grads, state)
            step += 1
            due = validate and val_every and step % val_every == 0
            rows.append((step, loss, validate(params) if due else None))
            if checkpoint_every and step % checkpoint_every == 0:
                checkpoint(step)
        final_val = validate(params) if validate else None
        checkpoint(step)
    finally:  # a diverged or interrupted run's rows stay beside its last checkpoint
        if log_path and rows:
            write_log(rows, log_path, val_column)
    return TrainResult(params, rows, final_val)


def train(spec: ModelSpec, data: tuple[np.ndarray, np.ndarray], *, loss_form: str = "mean",
          val_samples: tuple[np.ndarray, np.ndarray] | None = None, **loop) -> TrainResult:
    """Seeded mini-batch training of an SR spec through `fit`, which takes
    the loop options (epochs, batch_size, lr, seed, weight_decay, val_every,
    out_path, log_path, checkpoint_every, max_steps, meta), on
    extract_dataset's (lr, hr) pair. A batch's bases are its middle LR
    frames through bicubic_upscale, made per batch as `forward` makes its
    base. Validation is the mean PSNR of `forward` on val_samples, another
    such pair (none if it is empty), with the scale as border, skipping
    infinite values (exact predictions).
    """
    if spec.kind != "sr":
        raise ValueError("train needs an SR spec")
    lr, hr = data

    def batch_loss(params, idx):
        x = lr[idx]                                                      # (N,5,p,p)
        bases = np.stack([bicubic_upscale(Frame(m), spec.scale).luma for m in x[:, MIDDLE_FRAME]])
        return sr_batch_step(params, spec, x[:, None], bases[:, None, None],
                             hr[idx][:, None, None], loss_form)

    def validate(params):
        return mean_psnr([psnr(forward(params, spec, [Frame(p) for p in x]), Frame(y),
                               border=spec.scale) for x, y in zip(*val_samples)])

    return fit(spec, len(lr), batch_loss,
               validate if val_samples and len(val_samples[0]) else None, **loop)


def write_log(rows, path: str, val_column: str):
    """The (step, loss, val) rows as CSV, replacing `path` only once written."""
    text = f"step,loss,{val_column}\n" + "".join(
        f"{step},{loss:.8e},{'' if val is None else f'{val:.4f}'}\n" for step, loss, val in rows)
    with atomic_write(path) as fh:
        fh.write(text.encode("utf-8"))


# ---------------------------------------------------------------------------
# gradient verification

def miniature_spec(name: str) -> ModelSpec:
    """Reference architecture `name` at scale 2 with every layer but the
    last narrowed to at most 4 groups: the same structure, cheap enough for
    exhaustive finite differences."""
    spec = build_architecture(name, 2)
    trace, last = spec.depth_trace(), len(spec.layers) - 1
    chans, layers = (INPUT_FRAMES if spec.concat_after == 0 else 1), []
    for i, layer in enumerate(spec.layers):
        out = layer.out_groups if i == last else min(layer.out_groups, 4)
        layers.append(replace(layer, in_groups=chans, out_groups=out))
        chans = out * trace[i] if i + 1 == spec.concat_after else out
    return replace(spec, layers=layers)


@dataclass
class GradCheckReport:
    name: str
    dtype: str
    tolerance: float
    per_tensor: list    # (label, max relative error)
    skipped: int = 0    # probes discarded for straddling a ReLU kink

    @property
    def worst(self) -> float:
        return max(err for _, err in self.per_tensor)

    @property
    def passed(self) -> bool:
        return self.worst < self.tolerance

    def summary(self) -> str:
        state = "pass" if self.passed else "FAIL"
        return (f"{self.name} [{self.dtype}]: max rel err {self.worst:.3e} "
                f"(tol {self.tolerance:.0e}, {self.skipped} kink probes skipped) {state}")


def _rel_err(a: np.ndarray, b: np.ndarray) -> float:
    """Elementwise relative error with the denominator floored at a tenth of
    the tensor's largest magnitude, so finite-difference roundoff on
    near-zero entries is judged against the tensor scale."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = max(np.abs(a).max(), np.abs(b).max(), 1e-12)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 0.1 * scale)
    return float(np.max(np.abs(a - b) / denom))


def grad_check(spec: ModelSpec, seed: int = 0, *, tolerance: float,
               dtype=np.float32, name: str = "spec") -> GradCheckReport:
    """Compare every analytic parameter and input gradient of the layer
    stack against central differences, taken on a float64 replica of the
    parameters so the reference is limited by truncation error, not by the
    forward dtype; the float32 run then measures only the rounding of the
    analytic backward path.

    Each tensor's probes run as one batch along N, +eps items then their
    -eps twins. Input and bias probes are unit directions; a kernel tap
    moves its layer's preactivation by eps times the window under that tap
    (gathered by one convolution with a one-hot filter bank), and the stack
    runs on from that layer. A probe that flips any ReLU between its two
    evaluations straddles a kink, where the finite difference does not
    estimate the gradient; such probes are skipped and counted.
    """
    rng = np.random.default_rng(seed)
    params = [ConvWeights(k.kernel.astype(dtype), k.bias.astype(dtype))
              for k in xavier_init(spec, seed)]
    for w in params:  # nonzero biases so their gradients are exercised off the origin
        w.bias[...] = (0.05 * rng.standard_normal(w.bias.shape)).astype(dtype)
    x = rng.uniform(0.1, 0.9, (1, 1, INPUT_FRAMES, 6, 6)).astype(dtype)
    out, caches = forward_stack(params, spec, x, want_caches=True)
    target = rng.uniform(0.0, 1.0, out.shape).astype(dtype)
    _, grad = loss_mse(out, target)
    grads, gx = backward_stack(params, spec, x, caches, grad)

    params64 = [ConvWeights(w.kernel.astype(np.float64), w.bias.astype(np.float64))
                for w in params]
    x64 = x.astype(np.float64)
    target64 = target.astype(np.float64)
    _, caches64 = forward_stack(params64, spec, x64, want_caches=True)

    eps = 1e-5
    report = []
    skipped = 0

    def check(label, analytic, base, directions, start=None):
        # central differences of the loss along each direction from base
        # (the stack input, or layer `start`'s preactivation)
        nonlocal skipped
        p = len(directions)
        batch = np.concatenate([base + eps * directions, base - eps * directions])
        o, cs = forward_stack(params64, spec, batch, want_caches=True, start=start)
        loss = 0.5 * np.sum(((o - target64) ** 2).reshape(2 * p, -1), axis=1)
        kink = np.zeros(p, dtype=bool)
        for pre in cs:
            mask = (pre > 0).reshape(2 * p, -1)
            kink |= (mask[:p] != mask[p:]).any(axis=1)
        skipped += int(kink.sum())
        fd, ok = (loss[:p] - loss[p:]) / (2.0 * eps), ~kink
        # with every probe on a kink nothing is comparable; surface as a failure
        report.append((label, _rel_err(analytic.reshape(-1)[ok], fd[ok]) if ok.any() else math.inf))

    for i, (layer, w) in enumerate(zip(spec.layers, params64)):
        pre = caches64[i]
        out_g, taps = w.kernel.shape[0], w.kernel[0].size
        bank = ConvWeights(np.eye(taps).reshape((taps,) + w.kernel.shape[1:]), np.zeros(taps))
        windows = conv_forward(layer_input(spec, i, caches64[i - 1] if i else x64), bank,
                               layer.pad, layer.stride)[0]
        unit = np.eye(out_g).reshape(out_g, out_g, 1, 1, 1)
        # direction o*taps + j puts tap j's window on output group o
        kernel_dirs = (unit[:, None] * windows[None, :, None]).reshape((-1,) + pre.shape[1:])
        bias_dirs = np.broadcast_to(unit, (out_g,) + pre.shape[1:])
        check(f"layer {i} kernel", grads[i].kernel, pre, kernel_dirs, start=i)
        check(f"layer {i} bias", grads[i].bias, pre, bias_dirs, start=i)
    check("input", gx, x64, np.eye(x64.size).reshape((x64.size,) + x64.shape[1:]))
    return GradCheckReport(name, np.dtype(dtype).name, tolerance, report, skipped)
