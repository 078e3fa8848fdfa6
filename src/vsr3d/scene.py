"""Scene-change detection and frame replacement.

A five-frame window that straddles a cut feeds the SR net frames from two
unrelated scenes. A shallow five-class 2D-CNN locates the cut (after frame
1..4, or nowhere) on heavily downscaled luma, and `replace_frames` rewrites
the cross-scene frames with the nearest frame on the middle frame's side of
the boundary, so the SR net only ever sees one scene.

Consecutive windows share four of their five frames, so each frame's luma is
shrunk once: `sf_input_from_window` keeps the last five shrunk planes in a
ring keyed by the identity of the luma array (frames are immutable, and the
ring holds each array, so its id cannot be reused while the entry lives).
"""

from collections import deque
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .bicubic import resize_plane
from .frames import INPUT_FRAMES, VideoClip
from .model import LayerSpec, ModelSpec, forward_stack
from .tensor_core import DEFAULT_DTYPE
from .training import TrainResult, batch_step, fit

SF_WIDTH = 48
SF_HEIGHT = 27
SF_LR = 1e-3
SF_BATCH = 64
SF_LAYERS = (2, 3)   # classifier depths build_sf_net makes
_SF_WIDTHS = (16, 32)   # output groups of its stride-2 layers, first to last
_SCORE_CHUNK = 256   # samples per classifier pass when scoring
_SHRUNK = deque(maxlen=INPUT_FRAMES)   # (luma array, its 27x48 plane), newest last


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


@dataclass(frozen=True)
class SFInput:
    """Five luma frames shrunk to the fixed 48x27 classifier geometry and
    stacked as channels."""
    planes: np.ndarray     # (5, 27, 48) float32

    def __post_init__(self):
        p = np.asarray(self.planes)
        if p.shape != (INPUT_FRAMES, SF_HEIGHT, SF_WIDTH):
            raise ValueError(
                f"SFInput wants ({INPUT_FRAMES}, {SF_HEIGHT}, {SF_WIDTH}), got {p.shape}")
        object.__setattr__(self, "planes", p.astype(DEFAULT_DTYPE, copy=False))


def sf_input_from_window(window) -> SFInput:
    """Downscale a five-frame window onto the classifier grid. Sources
    smaller than the 48x27 target carry no extra detail to pool and are
    rejected."""
    if len(window) != INPUT_FRAMES:
        raise ValueError(f"expected a five-frame window, got {len(window)}")
    for f in window:
        if f.width < SF_WIDTH or f.height < SF_HEIGHT:
            raise ValueError(
                f"{f.width}x{f.height} frame is smaller than the "
                f"{SF_WIDTH}x{SF_HEIGHT} classifier input")
    planes = []
    for f in window:
        plane = next((p for src, p in _SHRUNK if src is f.luma), None)
        if plane is None:
            plane = resize_plane(f.luma, SF_HEIGHT, SF_WIDTH)
            _SHRUNK.append((f.luma, plane))
        planes.append(plane)
    return SFInput(np.stack(planes).astype(DEFAULT_DTYPE))


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
    stack, chans, h, w = [], INPUT_FRAMES, SF_HEIGHT, SF_WIDTH
    for width in _SF_WIDTHS[:layers - 1]:
        stack.append(LayerSpec("conv2d", chans, width, (1, 3, 3), stride=(2, 2)))
        # padded by one, a 3-tap stride-2 conv keeps (n - 1) // 2 + 1 of n positions
        chans, h, w = width, (h - 1) // 2 + 1, (w - 1) // 2 + 1
    stack.append(LayerSpec("conv2d", chans, len(SceneLabel), (1, h, w), activation="none",
                           spatial_pad=0))
    return ModelSpec(stack, concat_after=0, scale=1, kind="sf")


def _sf_batch(inputs: list[SFInput]) -> np.ndarray:
    # (N, 1, 5, 27, 48); the concat at position 0 turns depth into channels
    return np.stack([s.planes for s in inputs])[:, None]


def sf_logits(params, spec: ModelSpec, inputs: list[SFInput]) -> np.ndarray:
    if spec.kind != "sf":
        raise ValueError("sf_logits needs an SF spec")
    out, _ = forward_stack(params, spec, _sf_batch(inputs))
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


def classify_window(params, spec: ModelSpec, window) -> SceneLabel:
    """Argmax class for one window; ties resolve to the lowest index."""
    logits = sf_logits(params, spec, [sf_input_from_window(window)])[0]
    return SceneLabel(int(np.argmax(logits)))


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
                    per_class: int, seed: int) -> list[tuple[SFInput, SceneLabel]]:
    """Balanced labeled windows: CHANGE_AFTER_K splices K consecutive frames
    of a clip from one pool with 5-K consecutive frames of a clip from the
    other; NO_CHANGE takes five consecutive frames of a single clip. The two
    pools are treated as disjoint scenes."""
    if not clips_a or not clips_b:
        raise ValueError("need two non-empty scene pools")
    for name, pool in (("A", clips_a), ("B", clips_b)):
        for i, clip in enumerate(pool):
            if len(clip) < INPUT_FRAMES:
                raise ValueError(f"pool {name} clip {i} has {len(clip)} frames; "
                                 f"need at least {INPUT_FRAMES}")
    rng = np.random.default_rng(seed)

    def segment(pool, count):
        clip = pool[int(rng.integers(len(pool)))]
        start = int(rng.integers(len(clip) - count + 1))
        return [clip[start + i] for i in range(count)]

    samples = []
    for label in SceneLabel:
        for _ in range(per_class):
            if label is SceneLabel.NO_CHANGE:
                pool = clips_a if rng.integers(2) == 0 else clips_b
                frames = segment(pool, INPUT_FRAMES)
            else:
                k = label.value + 1
                first, second = ((clips_a, clips_b) if rng.integers(2) == 0
                                 else (clips_b, clips_a))
                frames = segment(first, k) + segment(second, INPUT_FRAMES - k)
            samples.append((sf_input_from_window(frames), label))
    return samples


def sf_accuracy(params, spec: ModelSpec, samples) -> float:
    if not samples:
        raise ValueError("no samples to score")
    counts = confusion_matrix(params, spec, samples)
    return float(np.trace(counts) / counts.sum())


def confusion_matrix(params, spec: ModelSpec, samples) -> np.ndarray:
    """counts[true, predicted] over the five classes."""
    counts = np.zeros((len(SceneLabel),) * 2, dtype=np.int64)
    for lo in range(0, len(samples), _SCORE_CHUNK):
        chunk = samples[lo:lo + _SCORE_CHUNK]
        preds = np.argmax(sf_logits(params, spec, [s for s, _ in chunk]), axis=1)
        np.add.at(counts, ([lab.value for _, lab in chunk], preds), 1)
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


def train_sf(spec: ModelSpec, samples: list[tuple[SFInput, SceneLabel]], *,
             batch_size: int = SF_BATCH, lr: float = SF_LR,
             val_samples=None, **loop) -> TrainResult:
    """Cross-entropy training of the scene classifier through `training.fit`,
    the loop the SR net trains through too, which takes the remaining loop
    options. No weight decay; validation is the accuracy on val_samples."""
    if spec.kind != "sf":
        raise ValueError("train_sf needs an SF spec")

    def batch_loss(params, idx):
        return sf_batch_step(params, spec, _sf_batch([samples[i][0] for i in idx]),
                             np.array([samples[i][1].value for i in idx]))

    def validate(params):
        return sf_accuracy(params, spec, val_samples)

    return fit(spec, len(samples), batch_loss, validate if val_samples else None,
               batch_size=batch_size, lr=lr, weight_decay=0.0, val_column="val_accuracy",
               **loop)
