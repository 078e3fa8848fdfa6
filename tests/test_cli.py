"""End-to-end drives of the command line through main(argv)."""

import argparse
import ast
import dataclasses
import hashlib
import inspect
import os
import subprocess
import sys
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest

from vsr3d import metrics, model, reference, tensor_core
from vsr3d.checkpoint import save_checkpoint
from vsr3d.cli import _build_parser, main
from vsr3d.config import RunConfig
from vsr3d.frames import Frame, VideoClip
from vsr3d.model import build_architecture, count_parameters
from vsr3d.reference import REFERENCE_WEIGHT_COUNTS
from vsr3d.scene import build_sf_net
from vsr3d.tensor_core import ConvWeights
from vsr3d.training import DatasetRecipe, extract_dataset, xavier_init
from vsr3d.video_io import read_clip, write_clip

from test_tensor_core import force_pool, no_pool


def textured_clip(seed: int, frames: int, width: int, height: int,
                  base: float = 0.5) -> VideoClip:
    # smooth drifting sinusoid; bicubic-friendly and distinct per seed
    rng = np.random.default_rng(seed)
    fy, fx = rng.uniform(1.0, 3.0, 2)
    phase = rng.uniform(0, 2 * np.pi)
    yy, xx = np.mgrid[0:height, 0:width].astype(np.float64)
    out = []
    for t in range(frames):
        p = base + 0.22 * np.sin(2 * np.pi * (fy * yy / height + fx * xx / width)
                                 + phase + 0.3 * t)
        out.append(Frame(np.clip(p, 0.0, 1.0).astype(np.float32)))
    return VideoClip(out, frame_rate=(25, 1))


def zero_checkpoint(path, arch: str = "v1", scale: int = 2):
    spec = build_architecture(arch, scale)
    params = [ConvWeights(np.zeros_like(w.kernel), np.zeros_like(w.bias))
              for w in xavier_init(spec, 0)]
    save_checkpoint(params, spec, {}, str(path))
    return spec


@pytest.fixture(scope="module")
def clips(tmp_path_factory):
    root = tmp_path_factory.mktemp("clips")
    paths = {
        "hr": root / "hr.y4m",
        "small": root / "small.y4m",
        "tiny": root / "tiny.y4m",
        "pool_a": root / "pool_a.y4m",
        "pool_b": root / "pool_b.y4m",
        "spliced": root / "spliced.y4m",
    }
    write_clip(textured_clip(0, 14, 96, 64), str(paths["hr"]))
    write_clip(textured_clip(1, 7, 48, 32), str(paths["small"]))
    write_clip(textured_clip(2, 7, 24, 16), str(paths["tiny"]))
    a = textured_clip(3, 24, 96, 54, base=0.28)
    b = textured_clip(4, 24, 96, 54, base=0.74)
    write_clip(a, str(paths["pool_a"]))
    write_clip(b, str(paths["pool_b"]))
    write_clip(VideoClip(list(a)[:10] + list(b)[:10], frame_rate=(25, 1)),
               str(paths["spliced"]))
    return paths


def recorded_evaluate(argv) -> tuple:
    """main(argv), recording the LR frames cli.degrade_clip returns (as
    digests of their bytes) and the rows cli.metrics_csv is given (floats as
    float.hex): (exit code, LR digests or None, rows or None)."""
    import vsr3d.cli as cli
    seen = {}
    real_degrade, real_csv = cli.degrade_clip, cli.metrics_csv

    def degrade(clip, scale):
        lr = real_degrade(clip, scale)
        seen["lr"] = [(f.luma.dtype.str, f.luma.shape,
                       hashlib.sha256(f.luma.tobytes()).hexdigest()) for f in lr]
        return lr

    def rows_csv(rows):
        seen["rows"] = [(seq, i, p.hex(), q.hex()) for seq, i, p, q in rows]
        return real_csv(rows)
    cli.degrade_clip, cli.metrics_csv = degrade, rows_csv
    try:
        code = main(argv)
    finally:
        cli.degrade_clip, cli.metrics_csv = real_degrade, real_csv
    return code, seen.get("lr"), seen.get("rows")


# recorded_evaluate(argv[3:]) in a fresh process, its result written to argv[2]
_RECORDED_MAIN = """
import sys
sys.path.insert(0, sys.argv[1])
from test_cli import recorded_evaluate
result = recorded_evaluate(sys.argv[3:])
with open(sys.argv[2], "w") as fh:
    fh.write(repr(result))
"""


class TestParamCount:
    def test_all_five_reference_counts(self, capsys):
        assert main(["param-count"]) == 0
        table = {}
        for line in capsys.readouterr().out.splitlines()[1:]:
            name, weights = line.split()
            table[name] = int(weights)
        assert table == REFERENCE_WEIGHT_COUNTS

    def test_bias_column(self, capsys):
        assert main(["param-count", "v1", "--bias"]) == 0
        row = capsys.readouterr().out.splitlines()[1].split()
        want = REFERENCE_WEIGHT_COUNTS["v1"]
        assert row == ["v1", str(want), "180", str(want + 180)]

    def test_unknown_arch_is_usage_error(self, capsys):
        assert main(["param-count", "vgg"]) == 2

    def test_scale_changes_upsample_head(self, tmp_path, capsys):
        cfg = tmp_path / "s3.cfg"
        cfg.write_text("scale = 3\n")
        assert main(["param-count", "v1", "--config", str(cfg)]) == 0
        got = int(capsys.readouterr().out.splitlines()[1].split()[1])
        assert got == count_parameters(build_architecture("v1", 3))
        assert got != REFERENCE_WEIGHT_COUNTS["v1"]


class TestUsageErrors:
    def test_no_command(self, capsys):
        assert main([]) == 2

    def test_unknown_command(self, capsys):
        assert main(["transcode"]) == 2

    def test_train_without_data(self, capsys):
        assert main(["train"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("learning_rate = 0.1\n")
        assert main(["verify", "--config", str(cfg)]) == 2

    def test_invalid_scale_flag(self, clips, tmp_path, capsys):
        out = tmp_path / "x.y4m"
        assert main(["upscale", str(clips["small"]), str(out),
                     "--method", "bicubic", "--scale", "7"]) == 2

    def test_missing_input_clip(self, tmp_path, capsys):
        assert main(["upscale", str(tmp_path / "ghost.y4m"),
                     str(tmp_path / "o.y4m"), "--method", "bicubic"]) == 2

    def test_upscale_without_checkpoint_or_method(self, clips, tmp_path, capsys):
        assert main(["upscale", str(clips["small"]), str(tmp_path / "o.y4m")]) == 2


@pytest.fixture(scope="module")
def train_run(clips, tmp_path_factory):
    root = tmp_path_factory.mktemp("train")
    argv = ["train", "--data", str(clips["hr"]), "--arch", "v1",
            "--epochs", "2", "--batch-size", "4", "--lr", "1e-4",
            "--lr-patch-size", "16", "--subimages-per-frame", "4",
            "--frame-stride", "4", "--seed", "7",
            "--out", str(root / "m.ckpt"), "--log", str(root / "m.csv")]
    return root, argv


class TestTrain:
    def test_run_artifacts_and_banner(self, train_run, capsys):
        root, argv = train_run
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert f"vsr3d train: arch v1 x2, {REFERENCE_WEIGHT_COUNTS['v1']:,} weights, seed 7" in out
        assert "bicubic baseline" in out and "checkpoint written" in out
        head = (root / "m.csv").read_text().splitlines()[0]
        assert head == "step,loss,val_psnr_db"

    def test_repeat_run_is_byte_identical(self, train_run, capsys, tmp_path):
        root, argv = train_run
        argv2 = argv[:-3] + [str(tmp_path / "m2.ckpt"), "--log",
                             str(tmp_path / "m2.csv")]
        assert main(argv2) == 0
        assert (tmp_path / "m2.ckpt").read_bytes() == (root / "m.ckpt").read_bytes()
        assert (tmp_path / "m2.csv").read_bytes() == (root / "m.csv").read_bytes()

    def test_val_clips_hold_out_nothing(self, clips, tmp_path, monkeypatch, capsys):
        # with --val every extracted sample trains, and the validation
        # samples come from the --val clips at seed + 1
        import vsr3d.cli as cli
        real, calls = cli.train, []

        def recording(spec, samples, *, val_samples, **loop):
            calls.append((samples, val_samples))
            return real(spec, samples, val_samples=val_samples, **loop)
        monkeypatch.setattr(cli, "train", recording)
        argv = ["train", "--data", str(clips["hr"]), "--val", str(clips["pool_a"]),
                "--arch", "v1", "--lr-patch-size", "16", "--subimages-per-frame", "2",
                "--frame-stride", "4", "--batch-size", "4", "--max-steps", "1", "--seed", "7",
                "--out", str(tmp_path / "m.ckpt")]
        recipe = DatasetRecipe(scale=2, frame_stride=4, subimages_per_frame=2, lr_patch_size=16)
        want = extract_dataset([read_clip(str(clips["hr"]))], recipe, seed=7)
        want_val = extract_dataset([read_clip(str(clips["pool_a"]))], recipe, seed=8)
        assert main(argv) == 0
        assert f"{len(want)} training / {len(want_val)} validation samples" in \
            capsys.readouterr().out
        (samples, val), = calls
        for got, exp in ((samples, want), (val, want_val)):
            assert [s.source_id for s in got] == [s.source_id for s in exp]
            assert all(np.array_equal(g.lr_frames, e.lr_frames) for g, e in zip(got, exp))

    def test_too_small_to_hold_out_is_config_error(self, clips, tmp_path, capsys):
        # one extracted sample and no --val: nothing would be left to train on
        out, log = tmp_path / "m.ckpt", tmp_path / "m.csv"
        assert main(["train", "--data", str(clips["small"]), "--lr-patch-size", "16",
                     "--subimages-per-frame", "1", "--frame-stride", "7",
                     "--out", str(out), "--log", str(log)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("config error:"), err
        assert not out.exists() and not log.exists()


class TestUpscale:
    def test_zero_checkpoint_equals_bicubic(self, clips, tmp_path, capsys):
        ckpt = tmp_path / "zero.ckpt"
        zero_checkpoint(ckpt)
        net_out = tmp_path / "net.y4m"
        bi_out = tmp_path / "bi.y4m"
        assert main(["upscale", str(clips["small"]), str(net_out),
                     "--checkpoint", str(ckpt)]) == 0
        assert main(["upscale", str(clips["small"]), str(bi_out),
                     "--method", "bicubic"]) == 0
        assert net_out.read_bytes() == bi_out.read_bytes()
        assert "7 frames" in capsys.readouterr().out

    def test_geometry_line(self, clips, tmp_path, capsys):
        out = tmp_path / "o.y4m"
        assert main(["upscale", str(clips["small"]), str(out),
                     "--method", "bicubic", "--scale", "3"]) == 0
        assert "(144x96)" in capsys.readouterr().out

    def test_multiscale_x4_through_scale2_checkpoint(self, clips, tmp_path, capsys):
        ckpt = tmp_path / "zero.ckpt"
        zero_checkpoint(ckpt)
        out = tmp_path / "x4.y4m"
        assert main(["upscale", str(clips["tiny"]), str(out),
                     "--checkpoint", str(ckpt), "--scale", "4"]) == 0
        assert "(96x64)" in capsys.readouterr().out

    def test_scale_mismatch_is_runtime_error(self, clips, tmp_path, capsys):
        ckpt = tmp_path / "s3.ckpt"
        zero_checkpoint(ckpt, scale=3)
        assert main(["upscale", str(clips["small"]), str(tmp_path / "o.y4m"),
                     "--checkpoint", str(ckpt), "--scale", "2"]) == 1
        assert "cannot serve" in capsys.readouterr().err

    def test_non_finite_checkpoint_is_runtime_error(self, clips, tmp_path, capsys):
        ckpt = tmp_path / "nan.ckpt"
        zero_checkpoint(ckpt)
        blob = ckpt.read_bytes()
        ckpt.write_bytes(blob[:-4] + np.float32(np.nan).astype("<f4").tobytes())
        out = tmp_path / "o.y4m"
        assert main(["upscale", str(clips["small"]), str(out),
                     "--checkpoint", str(ckpt)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "layer 5 holds non-finite weights" in err
        assert not out.exists()

    def test_other_window_length_is_runtime_error(self, clips, tmp_path, capsys):
        ckpt = tmp_path / "four.ckpt"
        zero_checkpoint(ckpt)
        ckpt.write_bytes(ckpt.read_bytes().replace(b"input_frames = 5", b"input_frames = 4", 1))
        out = tmp_path / "o.y4m"
        assert main(["upscale", str(clips["small"]), str(out),
                     "--checkpoint", str(ckpt)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "fixed at five frames" in err
        assert not out.exists()

    def test_overflowing_model_output_is_runtime_error(self, clips, tmp_path, capsys):
        # finite weights, so the checkpoint loads, whose activations overflow
        spec = build_architecture("v1", 2)
        ckpt = tmp_path / "huge.ckpt"
        save_checkpoint([ConvWeights(w.kernel * np.float32(1e12), w.bias)
                         for w in xavier_init(spec, 0)], spec, {}, str(ckpt))
        out = tmp_path / "o.y4m"
        with np.errstate(over="ignore", invalid="ignore"):
            rc = main(["upscale", str(clips["small"]), str(out), "--checkpoint", str(ckpt)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error:") and "non-finite" in err
        assert not out.exists()
        assert list(tmp_path.iterdir()) == [ckpt]  # no temp file either

    def test_overflowing_activations_print_one_error_line(self, clips, tmp_path):
        # in a fresh interpreter numpy's floating-point warnings reach stderr
        spec = build_architecture("v1", 2)
        ckpt = tmp_path / "huge.ckpt"
        save_checkpoint([ConvWeights(w.kernel * np.float32(1e12), w.bias)
                         for w in xavier_init(spec, 0)], spec, {}, str(ckpt))
        out = tmp_path / "o.y4m"
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "vsr3d.cli", "upscale", str(clips["small"]), str(out),
             "--checkpoint", str(ckpt)],
            capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr
        assert not out.exists()

    def test_zero_frame_rate_is_refused(self, tmp_path, capsys):
        clip = tmp_path / "z.y4m"
        clip.write_bytes(b"YUV4MPEG2 W16 H8 F30:0 C420\nFRAME\n" + bytes(16 * 8 * 3 // 2))
        out = tmp_path / "o.y4m"
        assert main(["upscale", str(clip), str(out), "--method", "bicubic"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error:") and "F30:0" in err
        assert not out.exists()

    def test_missing_output_directory_names_the_destination(self, clips, tmp_path, capsys):
        out = tmp_path / "nodir" / "o.y4m"
        assert main(["upscale", str(clips["small"]), str(out), "--method", "bicubic"]) == 1
        err = capsys.readouterr().err
        assert err == f"error: [Errno 2] No such file or directory: '{out}'\n"

    @pytest.mark.parametrize("flag", ["--checkpoint", "--sf-checkpoint", "--dump-features"])
    def test_bicubic_refuses_model_inputs(self, clips, tmp_path, capsys, flag):
        out = tmp_path / "o.y4m"
        assert main(["upscale", str(clips["small"]), str(out), "--method", "bicubic",
                     flag, str(tmp_path / "bogus")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("config error:") and flag in err
        assert not out.exists()

    def test_bicubic_to_extensionless_path_writes_pgm_frames(self, clips, tmp_path, capsys):
        out = tmp_path / "frames"
        assert main(["upscale", str(clips["small"]), str(out), "--method", "bicubic"]) == 0
        assert sorted(p.name for p in out.iterdir()) == [f"{i:06d}.pgm" for i in range(7)]

    def test_dump_features(self, clips, tmp_path, capsys):
        ckpt = tmp_path / "zero.ckpt"
        zero_checkpoint(ckpt)
        maps = tmp_path / "maps"
        assert main(["upscale", str(clips["small"]), str(tmp_path / "o.y4m"),
                     "--checkpoint", str(ckpt), "--dump-features", str(maps),
                     "--dump-layer", "1"]) == 0
        written = list(maps.glob("*.pgm"))
        assert written  # one PGM per channel/frame slice of layer 1
        assert f"wrote {len(written)} feature maps for frame 3" in \
            capsys.readouterr().out

    def test_dump_features_at_x4_from_scale2_checkpoint(self, clips, tmp_path):
        # the maps are of the x2 pre-upscaled window the net runs on
        ckpt = tmp_path / "zero.ckpt"
        zero_checkpoint(ckpt, arch="cnn2d")
        maps = tmp_path / "maps"
        assert main(["upscale", str(clips["tiny"]), str(tmp_path / "o.y4m"),
                     "--checkpoint", str(ckpt), "--scale", "4",
                     "--dump-features", str(maps)]) == 0
        written = sorted(maps.glob("*.pgm"))
        assert len(written) == 32
        assert all(p.read_bytes().startswith(b"P5\n48 32\n") for p in written)

    def test_unservable_scale_with_dump_writes_nothing(self, clips, tmp_path, capsys):
        ckpt = tmp_path / "s3.ckpt"
        zero_checkpoint(ckpt, scale=3)
        out, maps = tmp_path / "o.y4m", tmp_path / "maps"
        assert main(["upscale", str(clips["small"]), str(out), "--checkpoint", str(ckpt),
                     "--scale", "4", "--dump-features", str(maps)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "cannot serve" in err
        assert not out.exists() and not maps.exists()


class TestEvaluate:
    def test_self_comparison_is_perfect(self, clips, capsys):
        assert main(["evaluate", str(clips["small"]), str(clips["small"]),
                     "--border", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1].split() == ["mean", "inf", "1.0000"]

    def test_bicubic_method_and_csv(self, clips, tmp_path, capsys):
        csv = tmp_path / "m.csv"
        assert main(["evaluate", str(clips["hr"]), "--method", "bicubic",
                     "--scale", "2", "--border", "2", "--csv", str(csv)]) == 0
        body = csv.read_text().splitlines()
        assert body[0] == "sequence,frame,psnr_db,ssim"
        assert len(body) == 1 + 14
        mean_line = capsys.readouterr().out.splitlines()[-2]
        assert float(mean_line.split()[1]) > 25.0  # smooth texture upscales well

    def test_bicubic_scores_one_candidate_frame_at_a_time(self, clips, monkeypatch, capsys):
        import vsr3d.cli as cli
        made, most_alive = [], []
        upsample = cli.bicubic_resize

        def tracked(frame, out_w, out_h):
            out = upsample(frame, out_w, out_h)
            made.append(weakref.ref(out))
            most_alive.append(sum(ref() is not None for ref in made))
            return out

        monkeypatch.setattr(cli, "bicubic_resize", tracked)
        # each frame is a part, whose candidate is gone when it returns: at
        # most one alive per worker, and one on a pool of one
        assert main(["evaluate", str(clips["hr"]), "--method", "bicubic"]) == 0
        assert len(made) == 14 and max(most_alive) <= tensor_core._workers()
        made.clear()
        most_alive.clear()
        with force_pool(monkeypatch, 1):
            assert main(["evaluate", str(clips["hr"]), "--method", "bicubic"]) == 0
        assert len(made) == 14 and max(most_alive) == 1

    @pytest.mark.parametrize("method", ["bicubic", "ref-cand"])
    def test_scores_do_not_depend_on_workers_or_threads(self, clips, tmp_path, monkeypatch,
                                                         capsys, method):
        # frames are scored as parts: no pool size, thread switching, inline
        # fallback or BLAS thread count may change a bit of a score, of the
        # CSV or of the LR frames degrade_clip makes
        csv = tmp_path / "m.csv"
        argv = ["evaluate", str(clips["hr"]), "--border", "3", "--csv", str(csv)]
        if method == "bicubic":
            argv += ["--method", "bicubic"]
        else:
            cand = tmp_path / "cand.y4m"
            write_clip(textured_clip(9, 14, 96, 64), str(cand))
            argv.insert(2, str(cand))

        def run():
            result = recorded_evaluate(argv) + (csv.read_bytes(), capsys.readouterr().out)
            csv.unlink()
            return result
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runs = []
            for workers in (1, 2, 4):
                with force_pool(monkeypatch, workers):
                    runs.append(run())
        finally:
            sys.setswitchinterval(switch)
        monkeypatch.setattr(tensor_core, "_blas_threads", lambda: None)
        monkeypatch.setattr(threading.Thread, "start", no_pool)
        runs.append(run())
        tests = Path(__file__).resolve().parent
        path = os.pathsep.join(filter(None, [str(tests.parent / "src"),
                                             os.environ.get("PYTHONPATH")]))
        for threads in ("1", "2"):
            env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=path)
            record = tmp_path / f"threads{threads}.txt"
            proc = subprocess.run(
                [sys.executable, "-c", _RECORDED_MAIN, str(tests), str(record), *argv],
                capture_output=True, text=True, env=env, timeout=300)
            assert proc.returncode == 0, proc.stderr
            runs.append(ast.literal_eval(record.read_text()) + (csv.read_bytes(), proc.stdout))
            csv.unlink()
        code, lr, rows, body, out = runs[0]
        assert code == 0 and len(rows) == 14 and body.count(b"\n") == 15
        assert (lr is not None and len(lr) == 14) == (method == "bicubic")
        assert all(other == runs[0] for other in runs[1:])

    @pytest.mark.parametrize("method", ["bicubic", "ref-cand"])
    def test_error_raised_in_a_part_is_one_line(self, clips, tmp_path, monkeypatch, capsys,
                                                method):
        # a border too wide for the 96x64 frames is refused by each frame's
        # part, on a pool thread where OpenBLAS's thread control is found
        csv = tmp_path / "m.csv"
        scored = ["--method", "bicubic"] if method == "bicubic" else [str(clips["hr"])]
        argv = ["evaluate", str(clips["hr"]), *scored, "--border", "32", "--csv", str(csv)]
        with force_pool(monkeypatch, 2):
            assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: border 32 leaves no pixels on a 96x64 frame\n"
        assert captured.out == "" and not csv.exists()

    def test_a_helper_that_cannot_start_is_done_without(self, clips, tmp_path):
        # every thread start refused (no real flood of threads): the caller
        # scores every frame itself, with the same bytes
        csv = tmp_path / "m.csv"
        argv = ["evaluate", str(clips["hr"]), "--method", "bicubic", "--csv", str(csv)]
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, OMP_NUM_THREADS="2", OPENBLAS_NUM_THREADS="2",
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        runs = []
        for entry in (["-m", "vsr3d.cli"], ["-c", _NO_THREAD_MAIN]):
            proc = subprocess.run([sys.executable, *entry, *argv],
                                  capture_output=True, text=True, env=env, timeout=300)
            assert proc.returncode == 0 and proc.stderr == "", proc.stderr
            runs.append((csv.read_bytes(), proc.stdout))
            csv.unlink()
        assert runs[1] == runs[0]

    @pytest.mark.parametrize("width, height", [(64, 2), (2, 40)])
    def test_clip_smaller_than_scale_is_one_line_error(self, tmp_path, capsys, width, height):
        # degrade_clip refuses it before any resize asks for an empty plane
        clip, csv = tmp_path / "tiny.y4m", tmp_path / "m.csv"
        write_clip(textured_clip(3, 2, width, height), str(clip))
        assert main(["evaluate", str(clip), "--method", "bicubic", "--scale", "4",
                     "--csv", str(csv)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: clip {width}x{height} is smaller than scale 4\n"
        assert captured.out == "" and not csv.exists()

    def test_frame_count_mismatch(self, clips, capsys):
        assert main(["evaluate", str(clips["hr"]), str(clips["small"])]) == 1
        assert "frame count mismatch" in capsys.readouterr().err

    def test_needs_candidate_or_method(self, clips, capsys):
        assert main(["evaluate", str(clips["hr"])]) == 2

    def test_bicubic_refuses_candidate_clip(self, clips, tmp_path, capsys):
        csv = tmp_path / "m.csv"
        assert main(["evaluate", str(clips["small"]), str(clips["small"]), "--method",
                     "bicubic", "--scale", "3", "--csv", str(csv)]) == 2
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1 and "candidate" in captured.err
        assert captured.out == "" and not csv.exists()

    @pytest.mark.parametrize("scale", ["2", "3"])
    def test_scale_refused_with_candidate_clip(self, clips, tmp_path, capsys, scale):
        # --scale only sizes the bicubic baseline; a candidate is scored as given
        csv = tmp_path / "m.csv"
        assert main(["evaluate", str(clips["small"]), str(clips["small"]), "--scale", scale,
                     "--csv", str(csv)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: --scale") and captured.err.count("\n") == 1
        assert captured.out == "" and not csv.exists()

    @pytest.mark.parametrize("scale", ["2", "3"])
    def test_config_scale_refused_with_candidate_clip(self, clips, tmp_path, capsys, scale):
        # a config file's scale is refused like the flag, even at its default
        cfg, csv = tmp_path / "run.cfg", tmp_path / "m.csv"
        cfg.write_text(f"scale = {scale}\n")
        assert main(["evaluate", str(clips["small"]), str(clips["small"]), "--config", str(cfg),
                     "--csv", str(csv)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"config error: scale = {scale} in ")
        assert captured.err.count("\n") == 1
        assert captured.out == "" and not csv.exists()


@pytest.mark.parametrize("command", ["train", "sf-train"])
def test_negative_seed_is_config_error(clips, tmp_path, capsys, command):
    # refused by the seed's rule before anything runs, not by numpy mid-run
    out, log = tmp_path / "m.ckpt", tmp_path / "log.csv"
    inputs = (["--data", str(clips["small"])] if command == "train" else
              ["--scenes-a", str(clips["pool_a"]), "--scenes-b", str(clips["pool_b"])])
    assert main([command, *inputs, "--seed", "-1", "--out", str(out), "--log", str(log)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "config error: seed must be at least 0, got -1\n"
    assert captured.out == "" and os.listdir(tmp_path) == []


@pytest.fixture(scope="module")
def sf_ckpt(clips, tmp_path_factory):
    path = tmp_path_factory.mktemp("sf") / "sf.ckpt"
    rc = main(["sf-train", "--scenes-a", str(clips["pool_a"]),
               "--scenes-b", str(clips["pool_b"]), "--layers", "2",
               "--per-class", "24", "--epochs", "12", "--batch-size", "16",
               "--out", str(path), "--seed", "0"])
    assert rc == 0 and path.exists()
    return path


class TestSceneLane:
    def test_sf_train_report_format(self, clips, tmp_path, capsys):
        # tiny throwaway run just to pin the printed report
        csv = tmp_path / "conf.csv"
        assert main(["sf-train", "--scenes-a", str(clips["pool_a"]),
                     "--scenes-b", str(clips["pool_b"]), "--layers", "2",
                     "--per-class", "5", "--epochs", "2", "--batch-size", "8",
                     "--out", str(tmp_path / "t.ckpt"), "--csv", str(csv)]) == 0
        out = capsys.readouterr().out
        assert "2-layer classifier" in out and "held-out accuracy" in out
        assert csv.read_text().splitlines()[0] == \
            "true_label,change_after_1,change_after_2,change_after_3," \
            "change_after_4,no_change"

    def test_scene_report_ladder(self, clips, sf_ckpt, tmp_path, capsys):
        csv = tmp_path / "scene.csv"
        assert main(["scene", str(clips["spliced"]), "--sf-checkpoint",
                     str(sf_ckpt), "--csv", str(csv)]) == 0
        rows = csv.read_text().splitlines()
        assert rows[0] == "frame,label,confidence"
        labels = {int(r.split(",")[0]): r.split(",")[1] for r in rows[1:]}
        assert len(labels) == 20
        # cut after frame 9: windows centred 8..11 see it at offsets 4..1
        assert labels[8] == "change_after_4"
        assert labels[9] == "change_after_3"
        assert labels[10] == "change_after_2"
        assert labels[11] == "change_after_1"
        assert labels[4] == "no_change" and labels[15] == "no_change"

    def test_scene_needs_sf_checkpoint(self, clips, capsys):
        assert main(["scene", str(clips["spliced"])]) == 2

    def test_sr_checkpoint_rejected_as_classifier(self, clips, tmp_path, capsys):
        ckpt = tmp_path / "sr.ckpt"
        zero_checkpoint(ckpt)
        assert main(["scene", str(clips["spliced"]), "--sf-checkpoint",
                     str(ckpt)]) == 1
        assert "not a scene classifier" in capsys.readouterr().err

    def test_upscale_with_scene_replacement(self, clips, sf_ckpt, tmp_path, capsys):
        sr = tmp_path / "sr.ckpt"
        zero_checkpoint(sr)
        out = tmp_path / "o.y4m"
        assert main(["upscale", str(clips["spliced"]), str(out),
                     "--checkpoint", str(sr), "--sf-checkpoint", str(sf_ckpt)]) == 0
        assert "20 frames" in capsys.readouterr().out

    def test_sf_train_honours_config_step_keys(self, clips, tmp_path, monkeypatch):
        # sf-train has no flags for these keys; a --config file sets them
        import vsr3d.training as training
        real, saved = training.save_checkpoint, []

        def recording(params, spec, meta, path):
            saved.append(meta["step"])
            real(params, spec, meta, path)
        monkeypatch.setattr(training, "save_checkpoint", recording)
        cfg = tmp_path / "sf.cfg"
        cfg.write_text("max_steps = 2\ncheckpoint_every = 1\n")
        log = tmp_path / "sf_log.csv"
        assert main(["sf-train", "--config", str(cfg), "--scenes-a", str(clips["pool_a"]),
                     "--scenes-b", str(clips["pool_b"]), "--layers", "2",
                     "--per-class", "5", "--epochs", "2", "--batch-size", "8",
                     "--out", str(tmp_path / "t.ckpt"), "--log", str(log)]) == 0
        # a checkpoint after each of the two steps, then the final one
        assert saved == [1, 2, 2]
        assert [row.split(",")[0] for row in log.read_text().splitlines()[1:]] == ["1", "2"]

    def test_sf_train_needs_both_pools(self, clips, capsys):
        assert main(["sf-train", "--scenes-a", str(clips["pool_a"])]) == 2


def _nudged_kernel_gradient(real):
    def nudged(*args, **kwargs):
        gx, gw = real(*args, **kwargs)
        gw.kernel.flat[0] += 1e-4 * np.abs(gw.kernel).max()
        return gx, gw
    return nudged


def _wider_window(real):
    @dataclasses.dataclass(frozen=True)
    class Wider(real):  # sigma 1.6, not 1.5
        def weights(self, n_in, n_out):
            idx, _ = super().weights(n_in, n_out)
            g = np.exp(-(np.arange(11) - 5.0) ** 2 / (2 * 1.6 ** 2))
            return idx, np.broadcast_to(g / g.sum(), idx.shape)
    return Wider


class TestVerify:
    def test_all_checks_pass(self, capsys):
        for argv, dtype in ((["verify"], "[float32]"), (["verify", "--f64"], "[float64]")):
            assert main(argv) == 0
            out = capsys.readouterr().out
            assert "13/13 checks passed" in out and out.count(dtype) == 5
            assert "FAIL" not in out

    def test_crashing_gradient_check_is_a_failed_check(self, monkeypatch, capsys):
        def boom(spec, **kwargs):
            raise RuntimeError("boom")
        monkeypatch.setattr(reference, "grad_check", boom)
        assert main(["verify"]) == 1
        out = capsys.readouterr().out
        assert out.count("FAIL gradient check raised RuntimeError: boom") == 5
        assert out.endswith("8/13 checks passed\n")

    def test_stack_check_needs_the_caching_stack_bit_for_bit(self, monkeypatch, capsys):
        # one ulp off the no-cache output is far inside the oracle tolerance
        real = reference.forward_stack

        def nudged(params, spec, x, want_caches=False, start=None):
            out, caches = real(params, spec, x, want_caches, start)
            return (out if want_caches else np.nextafter(out, np.inf)), caches
        monkeypatch.setattr(reference, "forward_stack", nudged)
        assert main(["verify"]) == 1
        out = capsys.readouterr().out
        assert "FAIL layer stack vs chained oracle" in out and "differs from" in out
        assert out.endswith("12/13 checks passed\n")

    @pytest.mark.parametrize("module, name, perturb, line", [
        (reference, "conv_backward", _nudged_kernel_gradient,
         "convolution gradients vs loop oracle"),
        (metrics, "_ValidWindow", _wider_window, "SSIM vs window oracle"),
        (reference, "resize_plane", lambda real: lambda *args: real(*args) + 1e-9,
         "bicubic resize vs dense oracle"),
    ], ids=["kernel-gradient", "ssim-window", "resize"])
    def test_new_checks_fail_on_a_perturbed_fast_path(self, monkeypatch, capsys, module, name,
                                                       perturb, line):
        monkeypatch.setattr(module, name, perturb(getattr(module, name)))
        assert main(["verify"]) == 1
        out = capsys.readouterr().out
        assert f"FAIL {line}" in out and out.endswith("12/13 checks passed\n")

    def test_every_oracle_is_called_by_a_listed_check(self):
        # a public function of reference.py is a listed check, or a check
        # calls it, directly or through another function of the module
        funcs = {name: f for name, f in vars(reference).items()
                 if inspect.isfunction(f) and f.__module__ == reference.__name__}
        listed = {getattr(fn, "func", fn) for _, fn in reference.verify_checks()}
        reached, todo = set(), list(listed)
        while todo:
            for node in ast.walk(ast.parse(inspect.getsource(todo.pop()))):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id in funcs.keys() - reached):
                    reached.add(node.func.id)
                    todo.append(funcs[node.func.id])
        public = {name for name, f in funcs.items() if not name.startswith("_")}
        assert public - reached - {f.__name__ for f in listed} == {"verify_checks"}


# (flag, dest, nargs) of every argument of every subcommand; positionals
# are listed under their dest
_COMMON = {("--config", "config", None), ("--seed", "seed", None)}
_CLIP_IO = _COMMON | {("--size", "size", None), ("--format", "format", None)}
CLI_SURFACE = {
    "train": _CLIP_IO | {
        ("--data", "train_clips", "+"), ("--val", "val_clips", "+"),
        ("--arch", "arch", None), ("--scale", "scale", None),
        ("--epochs", "epochs", None), ("--batch-size", "batch_size", None),
        ("--lr", "lr", None), ("--weight-decay", "weight_decay", None),
        ("--loss-form", "loss_form", None), ("--frame-stride", "frame_stride", None),
        ("--subimages-per-frame", "subimages_per_frame", None),
        ("--lr-patch-size", "lr_patch_size", None), ("--max-steps", "max_steps", None),
        ("--val-every", "val_every", None), ("--checkpoint-every", "checkpoint_every", None),
        ("--out", "out_path", None), ("--log", "log_path", None)},
    "upscale": _CLIP_IO | {
        ("input", "input", None), ("output", "output", None),
        ("--checkpoint", "checkpoint", None), ("--method", "method", None),
        ("--scale", "scale", None), ("--sf-checkpoint", "sf_checkpoint", None),
        ("--dump-features", "dump_features", None), ("--dump-layer", "dump_layer", None)},
    "evaluate": _CLIP_IO | {
        ("reference", "reference", None), ("candidate", "candidate", "?"),
        ("--method", "method", None), ("--scale", "scale", None),
        ("--border", "border", None), ("--csv", "csv_path", None)},
    "scene": _CLIP_IO | {
        ("input", "input", None), ("--sf-checkpoint", "sf_checkpoint", None),
        ("--csv", "csv_path", None)},
    "sf-train": _CLIP_IO | {
        ("--scenes-a", "scenes_a", "+"), ("--scenes-b", "scenes_b", "+"),
        ("--per-class", "per_class", None), ("--layers", "sf_layers", None),
        ("--epochs", "sf_epochs", None), ("--batch-size", "sf_batch_size", None),
        ("--lr", "sf_lr", None), ("--val-every", "val_every", None),
        ("--out", "out_path", None), ("--log", "log_path", None),
        ("--csv", "csv_path", None)},
    "verify": _COMMON | {("--f64", "f64", 0)},
    "param-count": _COMMON | {
        ("archs", "archs", "*"), ("--scale", "scale", None), ("--bias", "bias", 0)},
}


def _surface() -> dict:
    parser = _build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {name: {(a.option_strings[0] if a.option_strings else a.dest, a.dest, a.nargs)
                   for a in p._actions if not isinstance(a, argparse._HelpAction)}
            for name, p in sub.choices.items()}


class TestSurface:
    def test_flags_dests_and_nargs_are_pinned(self):
        surface = _surface()
        assert surface == CLI_SURFACE
        reachable = {dest for table in surface.values() for _, dest, _ in table}
        assert {f.name for f in dataclasses.fields(RunConfig)} <= reachable

    @pytest.mark.parametrize("command", sorted(CLI_SURFACE))
    def test_help_prints(self, command, capsys):
        assert main([command, "--help"]) == 0
        assert "usage: vsr3d " + command in capsys.readouterr().out


# runs the command line under a 3 GB address-space cap set on this child only
_CAPPED_MAIN = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))
from vsr3d.cli import main
sys.exit(main(sys.argv[1:]))
"""


# runs the command line with every thread start refused
_NO_THREAD_MAIN = """
import sys, threading
def refuse(thread):
    raise RuntimeError("can't start new thread")
threading.Thread.start = refuse
from vsr3d.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("name, payload, extra", [
    ("huge.y4m", b"YUV4MPEG2 W60000 H60000 F25:1 C420\nFRAME\n", []),
    ("huge.yuv", bytes(64), ["--size", "60000x60000"]),
])
def test_oversized_geometry_is_one_line_error(tmp_path, name, payload, extra):
    # the declared 60000x60000 frame would need 5.4 GB; the reader must
    # refuse it from the file size instead of trying to allocate it
    clip = tmp_path / name
    clip.write_bytes(payload)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", _CAPPED_MAIN, "upscale", str(clip), str(tmp_path / "o.y4m"),
         "--method", "bicubic", *extra],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 1, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: truncated frame payload"), \
        proc.stderr


@pytest.mark.parametrize("command", ["scene", "evaluate"])
def test_scene_and_evaluate_start_no_worker_thread(clips, tmp_path, monkeypatch, command):
    # the scene classifier's 27x48 layers are one band each, so scene may
    # not split a layer into parts; evaluate's bicubic method scores its
    # frames as parts, but runs no conv layer
    def refuse(*args):
        raise AssertionError("a layer was split into parts")
    args = [command, str(clips["spliced"]), "--csv", str(tmp_path / "out.csv")]
    if command == "scene":
        monkeypatch.setattr(threading.Thread, "start", refuse)
        monkeypatch.setattr(tensor_core, "run_parts", refuse)
        ckpt, spec = tmp_path / "sf.ckpt", build_sf_net(3)
        save_checkpoint(xavier_init(spec, 0), spec, {}, str(ckpt))
        args += ["--sf-checkpoint", str(ckpt)]
    else:
        def no_layer(*args):
            raise AssertionError("a conv layer ran")
        for module in (tensor_core, model):
            monkeypatch.setattr(module, "conv_padded", no_layer)
        args += ["--method", "bicubic", "--scale", "2"]
    assert main(args) == 0


@pytest.mark.parametrize("command", ["upscale", "train", "scene", "evaluate"])
def test_out_of_memory_is_one_line_error(tmp_path, command):
    # under a 512 MiB address-space cap, upscale cannot allocate one float32
    # activation of `full`, (1, 32, 5, 720, 1280) (590 MB); under a 256 MiB
    # cap, train, with its 95 LR 100x100 patches and no helper thread
    # (OMP_NUM_THREADS=1: the calling thread runs every micro-batch), runs out
    # at a micro-batch's first activation, (2, 32, 5, 100, 100) (12.2 MiB),
    # and neither scene nor evaluate can allocate a 61 MiB
    # float32 plane of one 4000x4000 4:2:0 frame (a 24 MB Y4M); the
    # MemoryError must end the command in one line, with nothing written.
    # train stops after one step, so a cap that misses fails fast
    cap = "1 << 29" if command == "upscale" else "1 << 28"
    if command == "upscale":
        clip, ckpt = tmp_path / "hd.y4m", tmp_path / "full.ckpt"
        write_clip(textured_clip(7, 3, 1280, 720), str(clip))
        zero_checkpoint(ckpt, "full")
        args = ["upscale", str(clip), str(tmp_path / "o.y4m"), "--checkpoint", str(ckpt)]
    elif command == "train":
        # 25 centre frames, 4 crops each, every 20th held out for validation
        clip = tmp_path / "sq.y4m"
        write_clip(textured_clip(7, 25, 400, 400), str(clip))
        args = ["train", "--data", str(clip), "--lr-patch-size", "100", "--frame-stride", "1",
                "--subimages-per-frame", "4", "--batch-size", "95", "--max-steps", "1",
                "--out", str(tmp_path / "m.ckpt"), "--log", str(tmp_path / "log.csv")]
    else:
        clip = tmp_path / "big.y4m"
        luma = np.random.default_rng(7).random((4000, 4000), dtype=np.float32)
        write_clip(VideoClip([Frame(luma)]), str(clip))
        args = [command, str(clip), "--csv", str(tmp_path / "out.csv")]
        if command == "evaluate":
            args += ["--method", "bicubic", "--scale", "2"]
        else:
            ckpt, spec = tmp_path / "sf.ckpt", build_sf_net(3)
            save_checkpoint(xavier_init(spec, 0), spec, {}, str(ckpt))
            args += ["--sf-checkpoint", str(ckpt)]
    inputs = sorted(os.listdir(tmp_path))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", _CAPPED_MAIN.replace("3 << 30", cap), *args],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 1, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: Unable to allocate"), proc.stderr
    assert sorted(os.listdir(tmp_path)) == inputs


def test_seeded_train_bytes_do_not_depend_on_blas_threads(tmp_path):
    # 11 frames give centres 0, 5 and 10, four 80x80 HR crops each: one of
    # the 12 windows is held out, and the first step is a full batch of 8
    # LR patches of 40x40, whose band GEMMs (P = 1040) OpenBLAS sums
    # differently on one thread and on two
    clip = tmp_path / "clip.y4m"
    write_clip(textured_clip(5, 11, 160, 160), str(clip))
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for threads in ("1", "2"):
        run = tmp_path / f"threads{threads}"
        run.mkdir()
        env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "vsr3d.cli", "train", "--data", str(clip), "--arch", "full",
             "--lr-patch-size", "40", "--subimages-per-frame", "4", "--batch-size", "8",
             "--epochs", "1", "--seed", "3", "--out", str(run / "m.ckpt"),
             "--log", str(run / "log.csv")],
            capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.append([(run / name).read_bytes() for name in ("m.ckpt", "log.csv")])
    assert outputs[0] == outputs[1]


def test_seeded_upscale_bytes_do_not_depend_on_blas_threads(tmp_path):
    # at QCIF every layer of `full` and `v1` is split into parts, which run
    # their GEMMs on one BLAS thread whatever the process's count; v1's
    # forward used to differ between one and two threads
    clip = tmp_path / "qcif.y4m"
    write_clip(textured_clip(6, 3, 176, 144), str(clip))
    for arch in ("full", "v1"):
        spec = build_architecture(arch, 2)
        save_checkpoint(xavier_init(spec, 4), spec, {}, str(tmp_path / f"{arch}.ckpt"))
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        for arch in ("full", "v1"):
            out = tmp_path / f"{arch}_threads{threads}.y4m"
            proc = subprocess.run(
                [sys.executable, "-m", "vsr3d.cli", "upscale", str(clip), str(out),
                 "--checkpoint", str(tmp_path / f"{arch}.ckpt")],
                capture_output=True, text=True, env=env, timeout=300)
            assert proc.returncode == 0, proc.stderr
            outputs.append(out.read_bytes())
    assert outputs[:2] == outputs[2:]
