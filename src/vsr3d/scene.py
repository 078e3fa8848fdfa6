"""Scene-change detection and frame replacement.

A five-frame window that straddles a cut feeds the SR net frames from two
unrelated scenes. A shallow five-class 2D-CNN locates the cut (after frame
1..4, or nowhere) on heavily downscaled luma, and `replace_frames` rewrites
the cross-scene frames with the nearest frame on the middle frame's side of
the boundary, so the SR net only ever sees one scene.

The classifier reads plain arrays: a window's input is a (5, 27, 48) float32
stack of shrunk lumas, a batch or a dataset an (N, 5, 27, 48) array beside
its (N,) SceneLabel values. One function, `shrink`, shrinks a frame, and
each frame is shrunk once, through a lookup keyed by the frame (frames are
immutable and hash by identity). Consecutive windows share four of five
frames, so `sf_input_from_window` reads by default `_shrink`, an LRU cache
of the last five, as single windows and `upscale` do; the `scene` command
instead walks its whole clip, and `shrinks_ahead` shrinks its frames in
order on map_parts, on every core, ahead of the window that waits on them.
`make_sf_dataset`'s random draws read a cache made for the call.
"""

from contextlib import closing, contextmanager
from enum import Enum
from functools import cache, lru_cache

import numpy as np

from .bicubic import resize_plane
from .frames import INPUT_FRAMES, VideoClip
from .model import LayerSpec, ModelSpec, forward_stack
from .tensor_core import DEFAULT_DTYPE, conv_out_shape, map_parts, padded_shape
from .training import TrainResult, batch_step, fit

SF_WIDTH = 48
SF_HEIGHT = 27
SF_LR = 1e-3
SF_BATCH = 64
SF_LAYERS = (2, 3)   # classifier depths build_sf_net makes
_SF_WIDTHS = (16, 32)   # output groups of its stride-2 layers, first to last
_SCORE_CHUNK = 256   # samples per classifier pass when scoring
_SF_SHAPE = (INPUT_FRAMES, SF_HEIGHT, SF_WIDTH)   # one window's classifier input


class SceneLabel(Enum):
    """Position of the cut inside a five-frame window.

    CHANGE_AFTER_K: frames 1..K and K+1..5 belong to different scenes.
    Values double as class indices; ties resolve to the lowest value.
    """
    CHANGE_AFTER_1 = 0
    CHANGE_AFTER_2 = 1
    CHANGE_AFTER_3 = 2
    CHANGE_AFTER_4 = 3
    NO_CHANGE = 4


def shrink(frame) -> np.ndarray:
    """The frame's luma on the 48x27 classifier grid. Sources smaller than
    the target carry no extra detail to pool and are rejected."""
    if frame.width < SF_WIDTH or frame.height < SF_HEIGHT:
        raise ValueError(f"{frame.width}x{frame.height} frame is smaller than the "
                         f"{SF_WIDTH}x{SF_HEIGHT} classifier input")
    return resize_plane(frame.luma, SF_HEIGHT, SF_WIDTH).astype(DEFAULT_DTYPE)


_shrink = lru_cache(maxsize=INPUT_FRAMES)(shrink)   # a sliding window's frames


@contextmanager
def shrinks_ahead(frames):
    """A lookup of each frame's shrink for windows taken along `frames` in
    order: one map_parts call shrinks the frames in order, ahead of the
    window that waits on the lookup, and the last five are kept."""
    kept = {}
    with closing(map_parts(shrink, frames)) as shrunk:
        ahead = zip(frames, shrunk)

        def lookup(frame):
            while frame not in kept:
                done, plane = next(ahead)
                kept.pop(done, None)   # a frame the clip repeats counts as new
                kept[done] = plane
                if len(kept) > INPUT_FRAMES:
                    del kept[next(iter(kept))]
            return kept[frame]
        yield lookup


def sf_input_from_window(window, lookup=None) -> np.ndarray:
    """A five-frame window's (5, 27, 48) classifier input, each frame's
    shrink taken from `lookup` (by default `_shrink`)."""
    if len(window) != INPUT_FRAMES:
        raise ValueError(f"expected a five-frame window, got {len(window)}")
    return np.stack([(lookup or _shrink)(f) for f in window])


def build_sf_net(layers: int) -> ModelSpec:
    """Shallow classifier over the 5x27x48 input: the first `layers - 1` of
    _SF_WIDTHS as 3x3 stride-2 convolutions, then a full-extent final
    convolution (a linear head over whatever spatial extent remains). The
    widths are sized for cheapness; nothing about them is load-bearing
    beyond emitting five logits.
    """
    if layers not in SF_LAYERS:
        raise ValueError(f"SF net comes in {' or '.join(map(str, SF_LAYERS))} layers, "
                         f"not {layers}")
    stack, shape = [], (1, INPUT_FRAMES, 1, SF_HEIGHT, SF_WIDTH)   # depth turned into channels
    for width in _SF_WIDTHS[:layers - 1]:
        layer = LayerSpec("conv2d", shape[1], width, (1, 3, 3), stride=(2, 2))
        stack.append(layer)
        shape = conv_out_shape(padded_shape(shape, 1, layer.pad), (width, shape[1], 1, 3, 3),
                               layer.pad, layer.stride)
    _, chans, _, h, w = shape
    stack.append(LayerSpec("conv2d", chans, len(SceneLabel), (1, h, w), activation="none",
                           spatial_pad=0))
    return ModelSpec(stack, concat_after=0, scale=1, kind="sf")


def sf_logits(params, spec: ModelSpec, inputs: np.ndarray) -> np.ndarray:
    """(N, 5) logits of an (N, 5, 27, 48) batch of classifier inputs."""
    if spec.kind != "sf":
        raise ValueError("sf_logits needs an SF spec")
    x = np.asarray(inputs)
    if x.shape[1:] != _SF_SHAPE:
        raise ValueError(f"sf_logits wants (N, {INPUT_FRAMES}, {SF_HEIGHT}, {SF_WIDTH}) inputs, "
                         f"got {x.shape}")
    out, _ = forward_stack(params, spec, x[:, None])   # concat at 0: depth into channels
    return out.reshape(out.shape[0], -1)


def softmax(logits: np.ndarray) -> np.ndarray:
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def loss_cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean softmax cross-entropy and its gradient w.r.t. the logits."""
    labels = np.asarray(labels)
    if logits.ndim != 2 or labels.shape != (logits.shape[0],):
        raise ValueError(f"logits {logits.shape} do not pair with labels {labels.shape}")
    p = softmax(logits)
    n = logits.shape[0]
    picked = p[np.arange(n), labels]
    loss = float(-np.mean(np.log(np.maximum(picked, 1e-300))))
    grad = p.copy()
    grad[np.arange(n), labels] -= 1.0
    return loss, (grad / n).astype(logits.dtype)


_REPLACEMENT = {
    SceneLabel.CHANGE_AFTER_1: (1, 1, 2, 3, 4),
    SceneLabel.CHANGE_AFTER_2: (2, 2, 2, 3, 4),
    SceneLabel.CHANGE_AFTER_3: (0, 1, 2, 2, 2),
    SceneLabel.CHANGE_AFTER_4: (0, 1, 2, 3, 3),
    SceneLabel.NO_CHANGE: (0, 1, 2, 3, 4),
}


def replace_frames(window, label: SceneLabel) -> list:
    """Rewrite frames on the far side of the cut with the boundary-adjacent
    frame from the middle frame's scene. Pure: returns a new list, the input
    is untouched, and reapplying with the same label changes nothing."""
    if len(window) != INPUT_FRAMES:
        raise ValueError(f"expected a five-frame window, got {len(window)}")
    return [window[i] for i in _REPLACEMENT[label]]


def make_sf_dataset(clips_a: list[VideoClip], clips_b: list[VideoClip],
                    per_class: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Balanced labeled windows: CHANGE_AFTER_K splices K consecutive frames
    of a clip from one pool with 5-K consecutive frames of a clip from the
    other; NO_CHANGE takes five consecutive frames of a single clip. The two
    pools are treated as disjoint scenes. Returns (inputs, labels): an (N, 5,
    27, 48) float32 array and the (N,) SceneLabel values, class by class."""
    if not clips_a or not clips_b:
        raise ValueError("need two non-empty scene pools")
    for name, pool in (("A", clips_a), ("B", clips_b)):
        for i, clip in enumerate(pool):
            if len(clip) < INPUT_FRAMES:
                raise ValueError(f"pool {name} clip {i} has {len(clip)} frames; "
                                 f"need at least {INPUT_FRAMES}")
    rng = np.random.default_rng(seed)
    shrunk = cache(shrink)   # draws revisit frames in any order

    def segment(pool, count):
        clip = pool[int(rng.integers(len(pool)))]
        start = int(rng.integers(len(clip) - count + 1))
        return [shrunk(clip[start + i]) for i in range(count)]

    labels = np.repeat([label.value for label in SceneLabel], per_class)
    inputs = np.empty((len(labels), *_SF_SHAPE), dtype=DEFAULT_DTYPE)
    for i, value in enumerate(labels):
        k = int(value) + 1   # frames before the cut: all five for NO_CHANGE
        first, second = (clips_a, clips_b) if rng.integers(2) == 0 else (clips_b, clips_a)
        inputs[i] = segment(first, k) + (segment(second, INPUT_FRAMES - k)
                                         if k < INPUT_FRAMES else [])
    return inputs, labels


def sf_accuracy(params, spec: ModelSpec, data) -> float:
    """Share of a make_sf_dataset (inputs, labels) pair classified right."""
    if not len(data[1]):
        raise ValueError("no samples to score")
    counts = confusion_matrix(params, spec, data)
    return float(np.trace(counts) / counts.sum())


def confusion_matrix(params, spec: ModelSpec, data) -> np.ndarray:
    """counts[true, predicted] over the five classes of an (inputs, labels) pair."""
    inputs, labels = data
    counts = np.zeros((len(SceneLabel),) * 2, dtype=np.int64)
    for lo in range(0, len(labels), _SCORE_CHUNK):
        preds = np.argmax(sf_logits(params, spec, inputs[lo:lo + _SCORE_CHUNK]), axis=1)
        np.add.at(counts, (labels[lo:lo + _SCORE_CHUNK], preds), 1)
    return counts


def confusion_csv(counts: np.ndarray) -> str:
    names = [lab.name.lower() for lab in SceneLabel]
    lines = ["true_label," + ",".join(names)]
    for lab in SceneLabel:
        row = ",".join(str(int(v)) for v in counts[lab.value])
        lines.append(f"{names[lab.value]},{row}")
    return "\n".join(lines) + "\n"


def sf_batch_step(params, spec: ModelSpec, x, labels):
    """Mean cross-entropy and gradients of one batch, in two halves (its
    parts are small: micro-batches of two lost to one pass)."""
    def head(out, lo, hi):  # the part's mean turned into a sum
        loss, grad = loss_cross_entropy(out.reshape(len(out), -1), labels[lo:hi])
        return loss * len(out), grad.reshape(out.shape) * len(out)

    return batch_step(params, spec, x, head, len(x), size=-(-len(x) // 2))


def train_sf(spec: ModelSpec, data: tuple[np.ndarray, np.ndarray], *,
             batch_size: int = SF_BATCH, lr: float = SF_LR,
             val_samples=None, **loop) -> TrainResult:
    """Cross-entropy training of the scene classifier through `training.fit`,
    the loop the SR net trains through too, which takes the remaining loop
    options, on make_sf_dataset's (inputs, labels) pair. No weight decay;
    validation is the accuracy on val_samples, another such pair."""
    if spec.kind != "sf":
        raise ValueError("train_sf needs an SF spec")
    inputs, labels = data

    def batch_loss(params, idx):
        return sf_batch_step(params, spec, inputs[idx][:, None], labels[idx])

    def validate(params):
        return sf_accuracy(params, spec, val_samples)

    return fit(spec, len(labels), batch_loss, validate if val_samples else None,
               batch_size=batch_size, lr=lr, weight_decay=0.0, val_column="val_accuracy",
               **loop)
