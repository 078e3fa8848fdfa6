"""Write the outputs of seeded vsr3d runs, for a byte comparison of two versions.

Usage:

    PYTHONPATH=src OMP_NUM_THREADS=1 python tools/seeded_outputs.py OUT_DIR

Makes small seeded clips with numpy and vsr3d.write_clip, seeded Xavier
checkpoints with vsr3d.save_checkpoint, and then runs vsr3d.cli.main for
`train` (`full` with the mean loss, `v1` with the sum, and `v1` on two
`--data` clips, which holds out every 20th sample), `sf-train`,
`upscale` (`full` with the trained scene checkpoint, x3 through the
scale-2 checkpoint, a small stack whose 8-group layers feed a DUPLICATE
layer, and bicubic), `scene`, `evaluate` (a candidate clip, and
`--method bicubic`), and `verify` in float32 and float64, whose lines
carry each oracle check's worst difference. The CSVs round PSNR and SSIM,
so each frame of both `evaluate` pairs is scored again through
vsr3d.psnr and vsr3d.ssim and written exactly, as float.hex(), to
`evaluate.hex` and `evaluate_bicubic.hex`; `scene.csv` rounds too, so the
`scene` run's own softmax probabilities, five per window, are taken from
vsr3d.cli.softmax as it runs and written as float.hex() to `scene.hex`.
Every output file and every
command's stdout and exit code land under OUT_DIR, named relative to it,
so that

    diff -r OLD_OUT NEW_OUT

between a run of one version's `src/` and another's, at the same
OMP_NUM_THREADS, lists exactly the outputs that changed. OUT_DIR must not
exist yet.
"""

import contextlib
import io
import os
import sys

import numpy as np

import vsr3d
from vsr3d import cli


def textured(seed: int, frames: int, width: int, height: int, chroma: bool,
             cut: int | None = None) -> vsr3d.VideoClip:
    """A drifting sinusoid with seeded noise; frames from `cut` on switch to
    a second, brighter scene."""
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:height, 0:width] / np.array([height, width])[:, None, None]
    scenes = []
    for base in (0.35, 0.7):
        fy, fx, phase = rng.uniform(1.0, 4.0), rng.uniform(1.0, 4.0), rng.uniform(0, 2 * np.pi)
        scenes.append((base, fy, fx, phase))
    out = []
    for t in range(frames):
        base, fy, fx, phase = scenes[cut is not None and t >= cut]
        luma = base + 0.2 * np.sin(2 * np.pi * (fy * yy + fx * xx) + phase + 0.3 * t)
        luma += 0.03 * rng.standard_normal((height, width))
        uv = None
        if chroma:
            uv = tuple(0.5 + 0.1 * rng.standard_normal((height // 2, width // 2))
                       for _ in range(2))
        out.append(vsr3d.Frame(np.clip(luma, 0, 1).astype(np.float32), uv))
    return vsr3d.VideoClip(out, frame_rate=(25, 1))


def halved(clip: vsr3d.VideoClip) -> vsr3d.VideoClip:
    """Each frame's luma as 2x2 means, in numpy, so the LR input does not
    depend on the resampler under test."""
    frames = []
    for f in clip:
        h, w = f.height // 2 * 2, f.width // 2 * 2
        luma = f.luma[:h, :w].reshape(h // 2, 2, w // 2, 2).mean(axis=(1, 3))
        frames.append(vsr3d.Frame(luma))
    return vsr3d.VideoClip(frames, clip.frame_rate)


RUNS = [
    ("train_full", ["train", "--data", "train.y4m", "--val", "val.y4m", "--arch", "full",
                    "--lr-patch-size", "40", "--subimages-per-frame", "4", "--batch-size", "8",
                    "--max-steps", "2", "--val-every", "1", "--seed", "3",
                    "--out", "train_full.ckpt", "--log", "train_full.csv"]),
    ("train_v1_sum", ["train", "--data", "train.y4m", "--arch", "v1", "--loss-form", "sum",
                      "--lr", "1e-6", "--lr-patch-size", "16", "--subimages-per-frame", "4",
                      "--batch-size", "8", "--max-steps", "3", "--val-every", "1", "--seed", "5",
                      "--out", "train_v1_sum.ckpt", "--log", "train_v1_sum.csv"]),
    ("train_two_clips", ["train", "--data", "train.y4m", "val.y4m", "--arch", "v1",
                         "--lr-patch-size", "16", "--subimages-per-frame", "10",
                         "--batch-size", "8", "--max-steps", "2", "--val-every", "1",
                         "--seed", "7", "--out", "train_two_clips.ckpt",
                         "--log", "train_two_clips.csv"]),
    ("sf_train", ["sf-train", "--scenes-a", "pool_a.y4m", "--scenes-b", "pool_b.y4m",
                  "--per-class", "20", "--epochs", "2", "--seed", "3",
                  "--out", "sf.ckpt", "--log", "sf_train.csv", "--csv", "sf_confusion.csv"]),
    ("upscale_full_sf", ["upscale", "lr.y4m", "up_full_sf.y4m", "--checkpoint", "full.ckpt",
                         "--sf-checkpoint", "sf.ckpt"]),
    ("upscale_x3", ["upscale", "lr.y4m", "up_x3.y4m", "--checkpoint", "full.ckpt",
                    "--scale", "3"]),
    ("upscale_dup", ["upscale", "lr.y4m", "up_dup.y4m", "--checkpoint", "dup.ckpt"]),
    ("upscale_bicubic", ["upscale", "lr.y4m", "up_bicubic.y4m", "--method", "bicubic"]),
    ("scene", ["scene", "lr.y4m", "--sf-checkpoint", "sf.ckpt", "--csv", "scene.csv"]),
    ("evaluate", ["evaluate", "hr.y4m", "up_full_sf.y4m", "--csv", "evaluate.csv"]),
    ("evaluate_bicubic", ["evaluate", "hr.y4m", "--method", "bicubic", "--scale", "2",
                          "--csv", "evaluate_bicubic.csv"]),
    ("verify", ["verify"]),
    ("verify_f64", ["verify", "--f64"]),
]


def write_metric_hex(pairs, path: str):
    """`frame,psnr,ssim` per (reference, candidate) pair, at --border 0."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, (ref, cand) in enumerate(pairs):
            fh.write(f"{i},{float(vsr3d.psnr(ref, cand)).hex()},"
                     f"{float(vsr3d.ssim(ref, cand)).hex()}\n")


@contextlib.contextmanager
def softmax_recorded():
    """Yield a list that collects every result of vsr3d.cli.softmax while
    the context is open."""
    real, seen = cli.softmax, []

    def recording(logits):
        seen.append(real(logits))
        return seen[-1]
    cli.softmax = recording
    try:
        yield seen
    finally:
        cli.softmax = real


def evaluate_pairs():
    """The frame pairs `evaluate` scores: the upscaled clip's, then those of
    `--method bicubic --scale 2` (the reference cropped to what its LR
    frame upsamples to)."""
    hr, up = vsr3d.read_clip("hr.y4m"), vsr3d.read_clip("up_full_sf.y4m")   # 8-bit, as read
    lr = vsr3d.degrade_clip(hr, 2)
    w, h = lr.width * 2, lr.height * 2
    bicubic = [(vsr3d.Frame(ref.luma[:h, :w]), vsr3d.bicubic_resize(low, w, h))
               for ref, low in zip(hr, lr)]
    return list(zip(hr, up)), bicubic


def run(out_dir: str) -> int:
    os.makedirs(out_dir)
    os.chdir(out_dir)  # every path below, and so every printed one, is relative
    vsr3d.write_clip(textured(1, 11, 160, 160, chroma=False), "train.y4m")
    vsr3d.write_clip(textured(5, 6, 160, 160, chroma=False), "val.y4m")
    vsr3d.write_clip(textured(2, 24, 96, 54, chroma=False), "pool_a.y4m")
    vsr3d.write_clip(textured(3, 24, 96, 54, chroma=False), "pool_b.y4m")
    hr = textured(4, 6, 176, 144, chroma=True, cut=3)
    vsr3d.write_clip(hr, "hr.y4m")
    vsr3d.write_clip(halved(hr), "lr.y4m")
    spec = vsr3d.build_architecture("full", 2)
    vsr3d.save_checkpoint(vsr3d.xavier_init(spec, 4), spec, {"arch": "full"}, "full.ckpt")
    # at QCIF's half the 8-group layers split their bands over the parts, and
    # the second one writes the edge slices of the DUPLICATE layer's input
    zero, dup = vsr3d.TemporalPad.ZERO, vsr3d.TemporalPad.DUPLICATE
    dup_spec = vsr3d.ModelSpec([vsr3d.LayerSpec("conv3d", 1, 8, (3, 3, 3), zero),
                                vsr3d.LayerSpec("conv3d", 8, 8, (3, 3, 3), zero),
                                vsr3d.LayerSpec("conv3d", 8, 4, (3, 3, 3), dup),
                                vsr3d.LayerSpec("conv2d", 20, 4, (1, 3, 3), activation="none")],
                               concat_after=3)
    vsr3d.save_checkpoint(vsr3d.xavier_init(dup_spec, 6), dup_spec, {}, "dup.ckpt")
    failed = 0
    for name, argv in RUNS:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), softmax_recorded() as probs:
            code = cli.main(argv)
        with open(f"{name}.stdout", "w", encoding="utf-8") as fh:
            fh.write(f"{stdout.getvalue()}exit {code}\n")
        if name == "scene":
            with open("scene.hex", "w", encoding="utf-8") as fh:
                for i, window in enumerate(probs):
                    fh.write(f"{i}," + ",".join(float(p).hex() for p in window) + "\n")
        print(f"{name}: exit {code}")
        failed += code != 0
    for pairs, name in zip(evaluate_pairs(), ("evaluate", "evaluate_bicubic")):
        write_metric_hex(pairs, f"{name}.hex")
    return 1 if failed else 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(run(sys.argv[1]))
