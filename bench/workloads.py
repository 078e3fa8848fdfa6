"""The three benchmark workloads: their inputs, commands and output checks.

A workload writes its inputs from the seed (`generate`), names the vsr3d
command lines of one pass (`commands`), computes float64 references once the
timed region is over (`reference`), and checks each command's output files
against them (`check`). `self_test` perturbs one output of a pass that
passed and confirms the check then fails.
"""

import csv
import math
from dataclasses import dataclass

import numpy as np

import inputs
import reference as ref


@dataclass(frozen=True)
class Command:
    """One vsr3d invocation of a pass.

    Items are the intervals from each call of `start_marker` to the matching
    return of `end_marker`, both (module, function) lookup sites in vsr3d.
    `units` is the work one pass of the command does (frames or samples),
    reported as `rate_name` per second of item time. `latency_name` names the
    per-item latency, printed in `latency_scale` units per second.
    """
    name: str
    argv: list
    start_marker: tuple
    end_marker: tuple
    units: int
    rate_name: str
    latency_name: str = ""
    latency_unit: str = "s"
    latency_scale: float = 1.0


def _luma_planes(path):
    return [y for y, _, _ in ref.read_y4m(path)]


def _csv_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class Upscale:
    name = "upscale-qcif-full"
    why = ("vsr3d upscale of a QCIF 4:2:0 clip with one cut, full x2 plus the scene "
           "classifier: ~99% conv_forward, so it shows forward-kernel and tiling changes")
    frames, cut, size = 3, 2, (176, 144)
    units = frames   # frames upscaled per pass

    def __init__(self, seed, workdir):
        self.seed = seed
        self.clip = workdir / "qcif.y4m"
        self.sr_ckpt = workdir / "full_x2.ckpt"
        self.sf_ckpt = workdir / "sf3.ckpt"
        self.expected = None

    def generate(self):
        w, h = self.size
        inputs.write_y4m(inputs.clip_with_cuts(self.seed, 1, self.frames, w, h, (self.cut,)),
                         self.clip)
        inputs.write_checkpoints(self.seed, self.sr_ckpt, self.sf_ckpt)

    def commands(self, pass_dir):
        return [Command("upscale", ["upscale", str(self.clip), str(pass_dir / "cif.y4m"),
                                    "--checkpoint", str(self.sr_ckpt),
                                    "--sf-checkpoint", str(self.sf_ckpt), "--scale", "2"],
                        ("cli", "sf_input_from_window"), ("cli", "upscale_chroma"),
                        self.frames, "upscale_fps", "upscale_frame_s")]

    def reference(self):
        """Per frame, the 8-bit lumas the program may produce: one per scene
        label the float64 classifier cannot rule out."""
        lumas = [y / 255.0 for y in _luma_planes(self.clip)]
        small = [ref.resize(y, *ref.SF_GEOMETRY) for y in lumas]
        sr_net, sf_net = ref.read_checkpoint(self.sr_ckpt), ref.read_checkpoint(self.sf_ckpt)
        self.expected = []
        for centre in range(self.frames):
            idx = ref.window(self.frames, centre)
            labels = ref.plausible_labels(ref.sf_logits(sf_net, [small[i] for i in idx]))
            sources = {tuple(idx[j] for j in ref.REPLACEMENT[label]) for label in labels}
            self.expected.append([inputs.quantise(ref.sr_frame(sr_net, [lumas[i] for i in src]))
                                  for src in sources])

    def _matches(self, planes) -> bool:
        return len(planes) == self.frames and all(
            any(p.shape == e.shape and np.abs(p.astype(int) - e).max() <= 1 for e in options)
            for p, options in zip(planes, self.expected))

    def check(self, pass_dir, command) -> bool:
        try:
            return self._matches(_luma_planes(pass_dir / "cif.y4m"))
        except (OSError, ValueError):
            return False

    def self_test(self, pass_dir) -> bool:
        planes = [p.copy() for p in _luma_planes(pass_dir / "cif.y4m")]
        y, x = planes[self.cut].shape[0] // 2, planes[self.cut].shape[1] // 2
        value = int(planes[self.cut][y, x])
        planes[self.cut][y, x] = value + 2 if value < 128 else value - 2
        return not self._matches(planes)


class Train:
    name = "train-full"
    why = ("vsr3d train --arch full x2, batches of 8 LR patches of 40x40: the only "
           "workload running conv_backward, relu_backward, Adam and checkpoint writes")
    frames, size, batch, steps = 10, (480, 320), 8, 3
    units = batch * steps   # samples trained per pass
    # 2 centre frames x 13 crops = 26 windows; every 20th is held out, which
    # leaves 24 training windows, three full batches of 8
    crops_per_frame = 13

    def __init__(self, seed, workdir):
        self.seed = seed
        self.clip = workdir / "train.y4m"

    def generate(self):
        w, h = self.size
        inputs.write_y4m(inputs.clip_with_cuts(self.seed, 2, self.frames, w, h), self.clip)

    def commands(self, pass_dir):
        return [Command("train", ["train", "--data", str(self.clip), "--arch", "full",
                                  "--scale", "2", "--batch-size", str(self.batch),
                                  "--lr-patch-size", "40", "--frame-stride", "5",
                                  "--subimages-per-frame", str(self.crops_per_frame),
                                  "--epochs", "1", "--seed", str(self.seed),
                                  "--out", str(pass_dir / "model.ckpt"),
                                  "--log", str(pass_dir / "train.csv")],
                        ("training", "sr_batch_step"), ("training", "adam_step"),
                        self.batch * self.steps, "train_samples_per_s", "train_step_s")]

    def reference(self):
        pass  # the checks need no precomputed values

    def _log_ok(self, rows) -> bool:
        return ([int(r["step"]) for r in rows] == list(range(1, self.steps + 1))
                and all(math.isfinite(float(r["loss"])) for r in rows))

    def check(self, pass_dir, command) -> bool:
        from vsr3d import load_checkpoint

        try:
            rows = _csv_rows(pass_dir / "train.csv")
            params, spec, meta = load_checkpoint(str(pass_dir / "model.ckpt"))
        except (OSError, ValueError, KeyError):
            return False
        finite = all(np.isfinite(w.kernel).all() and np.isfinite(w.bias).all() for w in params)
        return (self._log_ok(rows) and finite and spec.kind == "sr" and spec.scale == 2
                and len(spec.layers) == 6 and meta.get("step") == str(self.steps))

    def self_test(self, pass_dir) -> bool:
        rows = _csv_rows(pass_dir / "train.csv")
        rows[1]["loss"] = "nan"
        return not self._log_ok(rows)


class Scan:
    name = "scan-720p"
    why = ("vsr3d scene then evaluate --method bicubic on a 720p clip with known cuts: "
           "tensor core nearly idle, time in resizes, SSIM and clip I/O")
    frames, cuts, size = 25, (8, 17), (1280, 720)
    units = frames   # frames scanned (scene and evaluate) per pass
    labels = ("change_after_1", "change_after_2", "change_after_3", "change_after_4",
              "no_change")
    psnr_tol, ssim_tol, prob_tol = 1e-3, 2e-4, 1e-3   # CSVs print 4 decimals

    def __init__(self, seed, workdir):
        self.seed = seed
        self.clip = workdir / "hd.y4m"
        self.sf_ckpt = workdir / "sf3.ckpt"
        # first and last frame, and both sides of every cut
        self.sampled = sorted({0, self.frames - 1, *self.cuts, *(c - 1 for c in self.cuts)})
        self.windows = self.quality = None

    def generate(self):
        w, h = self.size
        inputs.write_y4m(inputs.clip_with_cuts(self.seed, 3, self.frames, w, h, self.cuts),
                         self.clip)
        inputs.write_checkpoints(self.seed, sf_path=self.sf_ckpt)

    def commands(self, pass_dir):
        return [
            Command("scene", ["scene", str(self.clip), "--sf-checkpoint", str(self.sf_ckpt),
                              "--csv", str(pass_dir / "scene.csv")],
                    ("cli", "sf_input_from_window"), ("cli", "softmax"),
                    self.frames, "scene_fps", "scene_window_ms", "ms", 1e3),
            Command("evaluate", ["evaluate", str(self.clip), "--method", "bicubic",
                                 "--scale", "2", "--csv", str(pass_dir / "evaluate.csv")],
                    ("cli", "degrade_clip"), ("cli", "metrics_csv"),
                    self.frames, "evaluate_fps"),
        ]

    def reference(self):
        lumas = [y / 255.0 for y in _luma_planes(self.clip)]
        small = [ref.resize(y, *ref.SF_GEOMETRY) for y in lumas]
        sf_net = ref.read_checkpoint(self.sf_ckpt)
        self.windows = []
        for centre in range(self.frames):
            logits = ref.sf_logits(sf_net, [small[i] for i in ref.window(self.frames, centre)])
            self.windows.append((ref.plausible_labels(logits), ref.softmax(logits)))
        self.quality = {}
        for i in self.sampled:
            h, w = lumas[i].shape
            cand = ref.resize(ref.resize(lumas[i], h // 2, w // 2), h, w)
            self.quality[i] = (ref.psnr(lumas[i], cand), ref.ssim(lumas[i], cand))

    def _scene_ok(self, rows) -> bool:
        if [int(r["frame"]) for r in rows] != list(range(self.frames)):
            return False
        for r, (plausible, probs) in zip(rows, self.windows):
            label = self.labels.index(r["label"]) if r["label"] in self.labels else -1
            if label not in plausible or abs(float(r["confidence"]) - probs[label]) > self.prob_tol:
                return False
        return True

    def _quality_ok(self, rows) -> bool:
        if [int(r["frame"]) for r in rows] != list(range(self.frames)):
            return False
        if not all(math.isfinite(float(r["psnr_db"])) for r in rows):
            return False
        return all(abs(float(rows[i]["psnr_db"]) - p) <= self.psnr_tol
                   and abs(float(rows[i]["ssim"]) - s) <= self.ssim_tol
                   for i, (p, s) in self.quality.items())

    def check(self, pass_dir, command) -> bool:
        try:
            if command == "scene":
                return self._scene_ok(_csv_rows(pass_dir / "scene.csv"))
            return self._quality_ok(_csv_rows(pass_dir / "evaluate.csv"))
        except (OSError, ValueError, KeyError):
            return False

    def self_test(self, pass_dir) -> bool:
        scene = _csv_rows(pass_dir / "scene.csv")
        plausible, _ = self.windows[self.cuts[0]]
        scene[self.cuts[0]]["label"] = next(
            name for i, name in enumerate(self.labels) if i not in plausible)
        quality = _csv_rows(pass_dir / "evaluate.csv")
        row = quality[self.cuts[0]]
        row["psnr_db"] = f"{float(row['psnr_db']) + 0.01:.4f}"
        return not self._scene_ok(scene) and not self._quality_ok(quality)


WORKLOADS = {w.name: w for w in (Upscale, Train, Scan)}
