"""A small but real training run: extract patch windows from a synthetic
clip, train the v1 model for a few epochs, and compare held-out PSNR with
the bicubic baseline. Also shows the finite-difference gradient check that
guards the backward pass.

Takes a minute or two. Run: python3 demos/04_training_small.py
"""

import numpy as np

from vsr3d.bicubic import bicubic_upscale
from vsr3d.frames import MIDDLE_FRAME, Frame, VideoClip
from vsr3d.metrics import psnr
from vsr3d.model import build_architecture
from vsr3d.reference import GRAD_TOLERANCES
from vsr3d.training import (DatasetRecipe, extract_dataset, grad_check,
                            miniature_spec, train)

rng = np.random.default_rng(4)
freqs = rng.uniform(-0.2, 0.2, (10, 2))
phases = rng.uniform(0, 2 * np.pi, 10)
drifts = rng.uniform(-0.3, 0.3, 10)
yy, xx = np.mgrid[0:96, 0:128].astype(np.float64)


def frame_at(t: int) -> Frame:
    p = 0.6 + sum(0.2 / (k + 1) ** 0.6
                  * np.sin(2 * np.pi * (fx * xx + fy * yy) + p0 + d * t)
                  for k, ((fx, fy), p0, d) in enumerate(zip(freqs, phases, drifts)))
    return Frame(np.clip(p, 0, 1).astype(np.float32))


clip = VideoClip([frame_at(t) for t in range(30)], frame_rate=(25, 1))
train_clip = VideoClip(list(clip)[:24], frame_rate=(25, 1))
val_clip = VideoClip(list(clip)[24:], frame_rate=(25, 1))

recipe = DatasetRecipe(scale=2, frame_stride=1, subimages_per_frame=8,
                       lr_patch_size=16)
lr, hr = extract_dataset([train_clip], recipe, seed=0)
val = extract_dataset([val_clip], DatasetRecipe(2, 2, 4, 16), seed=1)
print(f"{len(lr)} training / {len(val[0])} validation patch windows")

# the bicubic base alone: what the model would give with a zero residual
baseline = float(np.mean([psnr(bicubic_upscale(Frame(x[MIDDLE_FRAME]), 2), Frame(y), border=2)
                          for x, y in zip(*val)]))

spec = build_architecture("v1", 2)
result = train(spec, (lr, hr), epochs=2, batch_size=32, lr=5e-4,
               weight_decay=5e-4, seed=0, val_samples=val)
first_loss, last_loss = result.log_rows[0][1], result.log_rows[-1][1]
print(f"loss {first_loss:.5f} -> {last_loss:.5f} over {len(result.log_rows)} steps")
print(f"held-out PSNR {result.final_val:.2f} dB vs bicubic {baseline:.2f} dB")

# The backward pass is checked against central finite differences on a
# miniature copy of the architecture (full-size checks would be too slow).
report = grad_check(miniature_spec("v1"), seed=0, dtype=np.float64, name="v1 miniature",
                    tolerance=GRAD_TOLERANCES[np.float64])
print("\ngradient check:", report.summary())
