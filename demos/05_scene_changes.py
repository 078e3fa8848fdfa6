"""Scene-change handling: train the classifier on synthetic two-scene
splices, read out its per-window verdicts around a hard cut, and show the
frame replacement that keeps disparate frames out of the SR window.

Takes about a minute. Run: python3 demos/05_scene_changes.py
"""

import numpy as np

from vsr3d.frames import Frame, VideoClip
from vsr3d.scene import (SceneLabel, build_sf_net, confusion_csv,
                         confusion_matrix, make_sf_dataset, replace_frames,
                         sf_input_from_window, sf_logits, train_sf)


def drifting(seed: int, frames: int, base: float) -> VideoClip:
    rng = np.random.default_rng(seed)
    fx, fy = rng.uniform(1, 3, 2)
    yy, xx = np.mgrid[0:54, 0:96].astype(np.float64)
    out = []
    for t in range(frames):
        p = base + 0.2 * np.sin(2 * np.pi * (fx * xx / 96 + fy * yy / 54) + 0.3 * t)
        out.append(Frame(np.clip(p, 0, 1).astype(np.float32)))
    return VideoClip(out, frame_rate=(25, 1))


pool_a = [drifting(s, 24, base=0.3) for s in range(3)]
pool_b = [drifting(10 + s, 24, base=0.7) for s in range(3)]

# Balanced dataset: four cut positions plus steady windows, spliced from the
# two pools in random order so the classifier learns the discontinuity, not
# which pool is brighter.
train_set = make_sf_dataset(pool_a, pool_b, per_class=60, seed=0)
val_set = make_sf_dataset(pool_a, pool_b, per_class=15, seed=1)
spec = build_sf_net(2)
result = train_sf(spec, train_set, epochs=15, batch_size=32, lr=1e-3, seed=0,
                  val_samples=val_set)
print(f"validation accuracy {result.final_val:.3f} "
      f"on {len(val_set[1])} windows\n")
print(confusion_csv(confusion_matrix(result.params, spec, val_set)))

# Slide across a hard cut: frames 0-9 from one scene, 10-19 from another.
spliced = VideoClip(list(pool_a[0])[:10] + list(pool_b[0])[:10],
                    frame_rate=(25, 1))
print("window verdicts around the cut (cut lands after frame 9):")
windows = np.stack([sf_input_from_window(spliced.window(c)) for c in range(6, 14)])
for centre, logits in zip(range(6, 14), sf_logits(result.params, spec, windows)):
    print(f"  frame {centre:>2}: {SceneLabel(int(np.argmax(logits))).name.lower()}")

# Replacement copies the temporally closest same-scene frame over the
# disparate ones; the middle frame never changes.
window = spliced.window(10)  # frames 8..12, first two from the old scene
fixed = replace_frames(window, SceneLabel.CHANGE_AFTER_2)
means_before = [float(f.luma.mean()) for f in window]
means_after = [float(f.luma.mean()) for f in fixed]
print("\nmean luma before replacement:", [f"{m:.2f}" for m in means_before])
print("mean luma after  replacement:", [f"{m:.2f}" for m in means_after])
