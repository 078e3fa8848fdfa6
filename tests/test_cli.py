"""End-to-end drives of the command line through main(argv)."""

import numpy as np
import pytest

from vsr3d.checkpoint import save_checkpoint
from vsr3d.cli import REFERENCE_WEIGHT_COUNTS, main
from vsr3d.frames import Frame, VideoClip
from vsr3d.model import build_architecture, count_parameters
from vsr3d.tensor_core import ConvWeights
from vsr3d.training import xavier_init
from vsr3d.video_io import write_clip


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
        assert row == ["v1", "108000", "180", "108180"]

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
        assert "vsr3d train: arch v1 x2, 108,000 weights, seed 7" in out
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

    def test_frame_count_mismatch(self, clips, capsys):
        assert main(["evaluate", str(clips["hr"]), str(clips["small"])]) == 1
        assert "frame count mismatch" in capsys.readouterr().err

    def test_needs_candidate_or_method(self, clips, capsys):
        assert main(["evaluate", str(clips["hr"])]) == 2


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

    def test_sf_train_needs_both_pools(self, clips, capsys):
        assert main(["sf-train", "--scenes-a", str(clips["pool_a"])]) == 2


class TestVerify:
    def test_all_checks_pass(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "10/10 checks passed" in out
        assert "FAIL" not in out
