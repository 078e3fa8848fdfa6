"""Batch command line tying the toolkit together.

Subcommands: train, upscale, evaluate, scene, sf-train, verify, param-count.
Every run is deterministic given its config and --seed; derived randomness
(dataset extraction, shuffling, validation splits) uses fixed offsets from
that one seed. Exit codes: 0 success, 1 runtime failure, 2 usage or config
error, 130 interrupted (SIGINT).
"""

import argparse
import errno
import os
import sys
from dataclasses import fields
from functools import partial

import numpy as np

from .bicubic import bicubic_resize, bicubic_upscale, degrade_clip, upscale_chroma
from .checkpoint import CheckpointError, load_checkpoint
from .config import COMMANDS, FIELD_TYPES, ConfigError, RunConfig, load_config
from .frames import MIDDLE_FRAME, Frame, VideoClip
from .metrics import format_metric, mean_psnr, metrics_csv, psnr, ssim
from .model import ARCH_NAMES, build_architecture, count_parameters, dump_feature_maps, forward
from .scene import (SceneLabel, build_sf_net, confusion_csv, confusion_matrix,
                    make_sf_dataset, replace_frames, sf_input_from_window,
                    sf_logits, softmax, train_sf)
from .tensor_core import run_parts
from .training import DatasetRecipe, TrainingDiverged, extract_dataset, train
from .video_io import ClipFormatError, atomic_write, detect_format, read_clip, write_clip


def _require(path: str, what: str):
    if not path:
        raise ConfigError(f"{what} is required")
    if not os.path.exists(path):
        raise ConfigError(f"{what} {path!r} does not exist")


def _read(cfg: RunConfig, path: str, chroma: bool = False) -> VideoClip:
    """The clip at `path`; its chroma only if asked for, since only upscale
    writes it (every other command reads luma)."""
    _require(path, "clip")
    return read_clip(path, fmt=cfg.format or None, size=cfg.clip_size(), chroma=chroma)


# model kind -> (what a missing path is called, what the model is called)
_KINDS = {"sr": ("checkpoint", "an SR model"), "sf": ("scene checkpoint", "a scene classifier")}


def _load(path: str, kind: str):
    what, model = _KINDS[kind]
    _require(path, what)
    params, spec, meta = load_checkpoint(path)
    if spec.kind != kind:
        raise ValueError(f"{path} holds a {spec.kind!r} model, not {model}")
    return params, spec, meta


def _check_outputs(*paths: str):
    """Refuse, before any work, a file output whose directory is missing,
    with the error writing it would raise."""
    for path in filter(None, paths):
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)


def _stem(path: str) -> str:
    return os.path.splitext(os.path.basename(os.path.normpath(path)))[0]


def _write_csv(cfg: RunConfig, text: str, what: str = ""):
    """Write text to --csv when given, naming what was written if `what`."""
    if cfg.csv_path:
        with atomic_write(cfg.csv_path) as fh:
            fh.write(text.encode("utf-8"))
        if what:
            print(f"{what} -> {cfg.csv_path}")


def _loop_options(cfg: RunConfig) -> dict:
    """The `fit` options both trainers take from the same fields, their
    output paths checked."""
    if not cfg.out_path:
        raise ConfigError("--out must name the checkpoint file")
    _check_outputs(cfg.out_path, cfg.log_path)
    return {"seed": cfg.seed, "val_every": cfg.val_every, "out_path": cfg.out_path,
            "log_path": cfg.log_path, "checkpoint_every": cfg.checkpoint_every,
            "max_steps": cfg.max_steps}


# ---------------------------------------------------------------------------
# train

def cmd_train(cfg: RunConfig) -> int:
    paths = cfg.path_list("train_clips")
    if not paths:
        raise ConfigError("train needs --data clips (config key train_clips)")
    loop = _loop_options(cfg)
    spec = build_architecture(cfg.arch, cfg.scale)
    print(f"vsr3d train: arch {cfg.arch} x{cfg.scale}, {count_parameters(spec):,} weights, "
          f"seed {cfg.seed}")
    clips = [_read(cfg, p) for p in paths]
    recipe = DatasetRecipe(scale=cfg.scale, frame_stride=cfg.frame_stride,
                           subimages_per_frame=cfg.subimages_per_frame,
                           lr_patch_size=cfg.lr_patch_size or None)
    samples = extract_dataset(clips, recipe, seed=cfg.seed)
    if cfg.val_clips:
        val_clips = [_read(cfg, p) for p in cfg.path_list("val_clips")]
        val = extract_dataset(val_clips, recipe, seed=cfg.seed + 1)
        train_samples = samples
    else:
        # hold out every 20th extracted sample
        val = samples[::20]
        train_samples = [s for i, s in enumerate(samples) if i % 20]
        if not train_samples:
            raise ConfigError("dataset too small to hold out validation samples; "
                              "supply --val clips")
    print(f"{len(train_samples)} training / {len(val)} validation samples")
    result = train(spec, train_samples, epochs=cfg.epochs, batch_size=cfg.batch_size,
                   lr=cfg.lr, weight_decay=cfg.weight_decay, loss_form=cfg.loss_form,
                   val_samples=val, meta={"arch": cfg.arch}, **loop)
    # what the zero model would give, scored as val_psnr scores the model
    baseline = mean_psnr([psnr(bicubic_upscale(Frame(s.lr_frames[MIDDLE_FRAME]), cfg.scale),
                               Frame(s.hr_target), border=cfg.scale) for s in val])
    print(f"final validation PSNR {result.final_val:.2f} dB "
          f"(bicubic baseline {baseline:.2f} dB)")
    print(f"checkpoint written to {cfg.out_path}")
    return 0


# ---------------------------------------------------------------------------
# upscale

def _window_logits(sf, window) -> np.ndarray:
    params, spec, _ = sf
    return sf_logits(params, spec, sf_input_from_window(window)[None])[0]


# activations that overflow surface once, as write_clip's refusal of
# non-finite samples, not as numpy warnings printed before it
@np.errstate(over="ignore", invalid="ignore")
def cmd_upscale(cfg: RunConfig, in_path: str, out_path: str) -> int:
    if (cfg.format or detect_format(out_path)) != "pgmdir":  # a directory makes its parents
        _check_outputs(out_path)
    clip = _read(cfg, in_path, chroma=True)
    rs = cfg.scale
    sf, dump_centre = None, None
    if cfg.method == "bicubic":
        unused = ["--" + key.replace("_", "-")
                  for key in ("checkpoint", "sf_checkpoint", "dump_features")
                  if getattr(cfg, key)]
        if unused:
            raise ConfigError(f"--method bicubic runs no model; drop {', '.join(unused)}")

        def runner(window):
            return bicubic_upscale(window[MIDDLE_FRAME], rs)
    else:
        params, spec, _ = _load(cfg.checkpoint, "sr")
        runner = partial(forward, params, spec, scale=rs)
        sf = _load(cfg.sf_checkpoint, "sf") if cfg.sf_checkpoint else None
        dump_centre = len(clip) // 2 if cfg.dump_features else None
        if cfg.dump_features and not 1 <= cfg.dump_layer <= len(spec.layers):
            raise ValueError(f"layer must be in 1..{len(spec.layers)}")  # before any frame runs
    out_frames = []
    for centre in range(len(clip)):
        window = clip.window(centre)
        if sf is not None:
            window = replace_frames(window, SceneLabel(int(np.argmax(_window_logits(sf, window)))))
        sr = runner(window)
        if centre == dump_centre:
            written = dump_feature_maps(params, spec, window, cfg.dump_layer, cfg.dump_features, rs)
            print(f"wrote {len(written)} feature maps for frame {centre} "
                  f"to {cfg.dump_features}")
        src = clip[centre]
        if src.chroma is not None:
            sr = upscale_chroma(src, sr.luma)
        out_frames.append(sr)
    write_clip(VideoClip(out_frames, frame_rate=clip.frame_rate), out_path,
               fmt=cfg.format or None)
    print(f"{len(out_frames)} frames -> {out_path} "
          f"({out_frames[0].width}x{out_frames[0].height})")
    return 0


# ---------------------------------------------------------------------------
# evaluate

def cmd_evaluate(cfg: RunConfig, ref_path: str, cand_path: str | None,
                 scale_set_by: str | None = None) -> int:
    """`scale_set_by` names the flag or config file that set `scale`, if any."""
    if cand_path and cfg.method == "bicubic":
        raise ConfigError("--method bicubic scores the reference's own bicubic upscale; "
                          "drop the candidate clip")
    if cand_path and scale_set_by:
        raise ConfigError(f"{scale_set_by} sets the bicubic baseline's factor; "
                          "a candidate clip is scored as given")
    _check_outputs(cfg.csv_path)
    ref = _read(cfg, ref_path)
    if cand_path:
        cand = _read(cfg, cand_path)
        if len(ref) != len(cand):
            raise ValueError(f"frame count mismatch: reference {len(ref)}, "
                             f"candidate {len(cand)}")
        name = _stem(cand_path)

        def pair(i):
            return ref[i], cand[i]
    elif cfg.method == "bicubic":
        lr = degrade_clip(ref, cfg.scale)
        h, w = lr.height * cfg.scale, lr.width * cfg.scale
        cropped = (h, w) != (ref.height, ref.width)
        name = _stem(ref_path)

        def pair(i):  # the reference cropped to what the LR frame upsamples to
            rf = Frame(ref[i].luma[:h, :w]) if cropped else ref[i]
            return rf, bicubic_resize(lr[i], w, h)
    else:
        raise ConfigError("evaluate needs a candidate clip or --method bicubic")

    def score(i):  # one part per frame: its candidate is gone when the part returns
        rf, cf = pair(i)
        return psnr(rf, cf, border=cfg.border), ssim(rf, cf, border=cfg.border)
    rows = [(name, i, p, s) for i, (p, s) in enumerate(run_parts(score, range(len(ref))))]
    print(f"{'frame':>5}  {'psnr_db':>9}  {'ssim':>7}")
    for _, i, p, s in rows:
        print(f"{i:>5}  {format_metric(p):>9}  {format_metric(s):>7}")
    mean_db = mean_psnr([p for _, _, p, _ in rows])
    mean_ssim = float(np.mean([s for _, _, _, s in rows]))
    print(f"{'mean':>5}  {format_metric(mean_db):>9}  {format_metric(mean_ssim):>7}")
    _write_csv(cfg, metrics_csv(rows), "per-frame metrics")
    return 0


# ---------------------------------------------------------------------------
# scene detection

def cmd_scene(cfg: RunConfig, in_path: str) -> int:
    sf = _load(cfg.sf_checkpoint, "sf")
    _check_outputs(cfg.csv_path)
    clip = _read(cfg, in_path)
    lines = ["frame,label,confidence"]
    print(f"{'frame':>5}  {'label':<15}  {'confidence':>10}")
    for centre in range(len(clip)):
        logits = _window_logits(sf, clip.window(centre))
        label = SceneLabel(int(np.argmax(logits)))
        conf = float(softmax(logits)[label.value])
        print(f"{centre:>5}  {label.name.lower():<15}  {conf:>10.4f}")
        lines.append(f"{centre},{label.name.lower()},{conf:.4f}")
    _write_csv(cfg, "\n".join(lines) + "\n", "window report")
    return 0


def cmd_sf_train(cfg: RunConfig) -> int:
    pa, pb = cfg.path_list("scenes_a"), cfg.path_list("scenes_b")
    if not pa or not pb:
        raise ConfigError("sf-train needs --scenes-a and --scenes-b clip pools")
    loop = _loop_options(cfg)
    _check_outputs(cfg.csv_path)
    pool_a = [_read(cfg, p) for p in pa]
    pool_b = [_read(cfg, p) for p in pb]
    train_set = make_sf_dataset(pool_a, pool_b, per_class=cfg.per_class, seed=cfg.seed)
    val_set = make_sf_dataset(pool_a, pool_b, per_class=max(1, cfg.per_class // 5),
                              seed=cfg.seed + 1)
    spec = build_sf_net(cfg.sf_layers)
    print(f"vsr3d sf-train: {cfg.sf_layers}-layer classifier, "
          f"{count_parameters(spec):,} weights, {len(train_set[1])} samples, seed {cfg.seed}")
    result = train_sf(spec, train_set, epochs=cfg.sf_epochs, batch_size=cfg.sf_batch_size,
                      lr=cfg.sf_lr, val_samples=val_set, meta={"arch": f"sf{cfg.sf_layers}"},
                      **loop)
    print(f"validation accuracy {result.final_val:.4f} on {len(val_set[1])} samples")
    text = confusion_csv(confusion_matrix(result.params, spec, val_set))
    print(text, end="")
    _write_csv(cfg, text)
    print(f"checkpoint written to {cfg.out_path}")
    return 0


# ---------------------------------------------------------------------------
# self-verification

def cmd_verify(cfg: RunConfig, use_f64: bool) -> int:
    from .reference import verify_checks  # the loop oracles: only verify runs them

    checks = verify_checks(cfg.seed, np.float64 if use_f64 else np.float32)
    passed = 0
    for template, fn in checks:
        try:
            ok, detail = fn()
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        passed += ok
        print(f"{'ok  ' if ok else 'FAIL'} {template.format(detail)}")
    print(f"{passed}/{len(checks)} checks passed")
    return 0 if passed == len(checks) else 1


def cmd_param_count(cfg: RunConfig, archs: list, include_bias: bool) -> int:
    names = archs or list(ARCH_NAMES)
    bad = [n for n in names if n not in ARCH_NAMES]
    if bad:
        raise ConfigError(f"unknown architecture(s): {', '.join(bad)}")
    header = f"{'arch':<7} {'weights':>9}"
    if include_bias:
        header += f" {'biases':>7} {'total':>9}"
    print(header)
    for name in names:
        spec = build_architecture(name, cfg.scale)
        weights = count_parameters(spec)
        line = f"{name:<7} {weights:>9}"
        if include_bias:
            total = count_parameters(spec, include_bias=True)
            line += f" {total - weights:>7} {total:>9}"
        print(line)
    return 0


# ---------------------------------------------------------------------------
# argument plumbing

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vsr3d",
        description="Video super-resolution over five-frame windows: training, "
                    "upscaling, evaluation, and scene-change handling. Windows at "
                    "clip edges replicate the first/last frame.",
        epilog="Exit codes: 0 success, 1 runtime failure, 2 usage/config error. "
               "Config files hold 'key = value' lines; flags override them.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    subs = {name: sub.add_parser(name, help=text) for name, text in COMMANDS.items()}
    for p in subs.values():
        p.add_argument("--config", help="key = value config file")
    subs["upscale"].add_argument("input", help="clip to upscale")
    subs["upscale"].add_argument("output",
                                 help="where the upscaled clip goes (format by extension)")
    subs["evaluate"].add_argument("reference", help="ground-truth clip")
    subs["evaluate"].add_argument("candidate", nargs="?",
                                  help="clip to score (omit with --method bicubic)")
    subs["scene"].add_argument("input", help="clip to scan")
    subs["verify"].add_argument("--f64", action="store_true", help="check gradients in float64")
    subs["param-count"].add_argument("archs", nargs="*",
                                     help="architectures (default: all five)")
    subs["param-count"].add_argument("--bias", action="store_true", help="also count biases")
    # every other flag sets the RunConfig field of the same dest
    for f in fields(RunConfig):
        opt = f.metadata
        for name in opt["commands"]:
            subs[name].add_argument(opt["flag"] or "--" + f.name.replace("_", "-"),
                                    dest=f.name, type=f.type, help=opt["doc"],
                                    nargs="+" if opt["paths"] else None)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # FIELD_TYPES holds the RunConfig keys; the other arguments are passed on below
    overrides = {key: value for key, value in vars(args).items() if key in FIELD_TYPES}
    try:
        file_keys = set()
        cfg = load_config(args.config, overrides, file_keys)
        if args.command == "train":
            return cmd_train(cfg)
        if args.command == "upscale":
            return cmd_upscale(cfg, args.input, args.output)
        if args.command == "evaluate":
            scale_set_by = (f"--scale {args.scale}" if args.scale is not None else
                            f"scale = {cfg.scale} in {args.config}" if "scale" in file_keys
                            else None)
            return cmd_evaluate(cfg, args.reference, args.candidate, scale_set_by)
        if args.command == "scene":
            return cmd_scene(cfg, args.input)
        if args.command == "sf-train":
            return cmd_sf_train(cfg)
        if args.command == "verify":
            return cmd_verify(cfg, args.f64)
        if args.command == "param-count":
            return cmd_param_count(cfg, args.archs, args.bias)
        raise AssertionError(f"unhandled command {args.command}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, MemoryError, CheckpointError, ClipFormatError,
            TrainingDiverged) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:  # a checkpoint or clip being written is left as it was
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
