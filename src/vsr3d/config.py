"""Run configuration: documented defaults, `key = value` files, CLI overrides.

Each RunConfig field is the one declaration of a run option. Its type and
default are the field's; its metadata holds the help text, the subcommands
whose flag sets it, the flag where that is not `--field-name`, whether the
flag takes several paths (kept as a list; a file's value is split at
commas), and its rule: the tuple of values it takes (read from the module
that implements the option; the default stays allowed as "unset"), the
least value of a bounded int, or "positive" or "non-negative" for a float,
which must also be finite. The command line, FIELD_TYPES and validation
are derived from these fields.

A config file holds any subset of RunConfig's fields, one `key = value` per
line, with `#` comments and blank lines ignored. Unknown keys are rejected
rather than silently dropped so typos cannot disable an option. Command-line
flags win over file values, which win over the defaults below.
"""

import math
from dataclasses import dataclass, field, fields

from .model import ARCH_NAMES, SCALES
from .scene import SF_BATCH, SF_LAYERS, SF_LR
from .training import (DEFAULT_BATCH, DEFAULT_LR, DEFAULT_WEIGHT_DECAY, LOSS_FORMS,
                       LR_PATCH_SIZES)
from .video_io import FORMATS

COMMANDS = {
    "train": "train an SR model on clips",
    "upscale": "upscale a clip with a checkpoint or bicubic",
    "evaluate": "PSNR/SSIM of a candidate clip against a reference",
    "scene": "per-window scene-change report for a clip",
    "sf-train": "train the scene-change classifier",
    "verify": "run built-in self-checks",
    "param-count": "weight counts of the reference architectures",
}
CLIP_COMMANDS = ("train", "upscale", "evaluate", "scene", "sf-train")
TRAIN, UPSCALE, SF_TRAIN = ("train",), ("upscale",), ("sf-train",)
TRAINERS = ("train", "sf-train")


def _choices(values) -> str:
    """'a', 'a or b', or 'a, b, or c': the values an option takes, for help and errors."""
    *head, last = (str(v) for v in values)
    return f"{', '.join(head)}{',' * (len(head) > 1)} or {last}" if head else last


def _option(default, doc: str, commands, flag: str | None = None, paths: bool = False,
            rule: tuple | int | None = None):
    return field(default=default, metadata={"doc": doc, "commands": commands,
                                            "flag": flag, "paths": paths, "rule": rule})


class ConfigError(ValueError):
    """Malformed config file or invalid field value."""


@dataclass
class RunConfig:
    arch: str = _option("full", f"SR architecture: {_choices(ARCH_NAMES)}", TRAIN,
                        rule=ARCH_NAMES)
    scale: int = _option(2, f"upscaling factor ({_choices(SCALES)}); a scale-2 checkpoint "
                         "serves 3 and 4 by bicubic pre-upscaling; evaluate --method bicubic "
                         "degrades by it",
                         ("train", "upscale", "evaluate", "param-count"), rule=SCALES)
    seed: int = _option(0, "single seed every random choice derives from", tuple(COMMANDS),
                        rule=0)
    train_clips: str = _option("", "training clip paths (comma-separated in a config file)",
                               TRAIN, "--data", paths=True)
    val_clips: str = _option("", "validation clip paths, comma-separated in a config file "
                             "(empty: hold out training samples)", TRAIN, "--val", paths=True)
    frame_stride: int = _option(5, "extract windows from every Nth frame", TRAIN, rule=1)
    subimages_per_frame: int = _option(10, "random crops per extracted frame", TRAIN, rule=1)
    lr_patch_size: int = _option(0, "LR crop edge in pixels (0: per-scale default "
                                 f"{'/'.join(str(LR_PATCH_SIZES[s]) for s in SCALES)})", TRAIN,
                                 rule=0)
    epochs: int = _option(10, "passes over the extracted dataset", TRAIN, rule=1)
    batch_size: int = _option(DEFAULT_BATCH, "windows per optimizer step", TRAIN, rule=1)
    lr: float = _option(DEFAULT_LR, "Adam learning rate for filters (biases run at a tenth)", TRAIN,
                        rule="positive")
    weight_decay: float = _option(DEFAULT_WEIGHT_DECAY, "L2 penalty folded into filter gradients",
                                  TRAIN, rule="non-negative")
    loss_form: str = _option("mean", f"mse reduction: {_choices(LOSS_FORMS)}", TRAIN,
                             rule=LOSS_FORMS)
    max_steps: int = _option(0, "stop after this many steps (0: no cap)", TRAIN, rule=0)
    val_every: int = _option(0, "steps between validation passes (0: only at the end)", TRAINERS,
                             rule=0)
    checkpoint_every: int = _option(0, "steps between checkpoint rewrites (0: only at the end)",
                                    TRAIN, rule=0)
    border: int = _option(0, "pixels cropped from every edge before PSNR/SSIM", ("evaluate",),
                          rule=0)
    out_path: str = _option("model.ckpt", "checkpoint the run writes", TRAINERS, "--out")
    log_path: str = _option("", "training log CSV (empty: not written)", TRAINERS, "--log")
    csv_path: str = _option("", "per-frame metric, window report, or confusion matrix CSV "
                            "(empty: not written)", ("evaluate", "scene", "sf-train"), "--csv")
    checkpoint: str = _option("", "model checkpoint to run", UPSCALE)
    sf_checkpoint: str = _option("", "scene-change classifier checkpoint", ("upscale", "scene"))
    sf_layers: int = _option(3, f"scene classifier depth ({_choices(SF_LAYERS)})", SF_TRAIN,
                             "--layers", rule=SF_LAYERS)
    per_class: int = _option(200, "scene training samples per class", SF_TRAIN, rule=1)
    scenes_a: str = _option("", "clip paths forming scene pool A (comma-separated in a config "
                            "file)", SF_TRAIN, paths=True)
    scenes_b: str = _option("", "clip paths forming scene pool B (comma-separated in a config "
                            "file)", SF_TRAIN, paths=True)
    sf_epochs: int = _option(20, "passes over the scene training set", SF_TRAIN, "--epochs",
                             rule=1)
    sf_batch_size: int = _option(SF_BATCH, "scene windows per optimizer step", SF_TRAIN,
                                 "--batch-size", rule=1)
    sf_lr: float = _option(SF_LR, "Adam learning rate for the scene classifier", SF_TRAIN, "--lr",
                           rule="positive")
    method: str = _option("", "checkpoint-free baseline (only: bicubic)", ("upscale", "evaluate"),
                          rule=("bicubic",))
    size: str = _option("", "WxH geometry for raw YUV clips, e.g. 704x576", CLIP_COMMANDS)
    format: str = _option("", f"force clip format: {_choices(FORMATS)}", CLIP_COMMANDS,
                          rule=FORMATS)
    dump_features: str = _option("", "directory for feature-map PGMs (empty: off)", UPSCALE)
    dump_layer: int = _option(1, "1-based layer whose feature maps get dumped", UPSCALE, rule=1)

    def clip_size(self):
        """Parse the `size` field into (width, height), or None if unset."""
        if not self.size:
            return None
        parts = self.size.lower().split("x")
        try:
            w, h = (int(p) for p in parts)
        except ValueError:
            raise ConfigError(f"size wants WxH, got {self.size!r}") from None
        if w <= 0 or h <= 0:
            raise ConfigError(f"size wants positive WxH, got {self.size!r}")
        return w, h

    def path_list(self, field_name: str) -> list:
        """A path field's paths: a flag's list as given, a file's text split at commas."""
        raw = getattr(self, field_name)
        if isinstance(raw, list):
            return [p for p in raw if p]
        return [p.strip() for p in raw.split(",") if p.strip()]


FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _coerce(key: str, raw: str):
    try:
        return FIELD_TYPES[key](raw)
    except ValueError:
        raise ConfigError(f"config key {key!r} wants {FIELD_TYPES[key]}, got {raw!r}") from None


def parse_config_text(text: str, source: str = "<config>") -> dict:
    """`key = value` lines into a validated {field: value} dict."""
    values = {}
    for ln, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"{source}:{ln}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in body.split("=", 1))
        if key not in FIELD_TYPES:
            raise ConfigError(f"{source}:{ln}: unknown config key {key!r}")
        if key in values:
            raise ConfigError(f"{source}:{ln}: duplicate config key {key!r}")
        values[key] = _coerce(key, raw)
    return values


def load_config(path: str | None, overrides: dict | None = None,
                file_keys: set | None = None) -> RunConfig:
    """Defaults, then the file (if any), then non-None overrides. The keys
    the file sets are added to `file_keys` when it is given, since a value
    equal to its default cannot tell them apart afterwards."""
    cfg = RunConfig()
    if path:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                text = fh.read()
            except UnicodeDecodeError:
                raise ConfigError(f"{path}: not UTF-8 text") from None
        file_values = parse_config_text(text, source=path)
        if file_keys is not None:
            file_keys.update(file_values)
        for key, value in file_values.items():
            setattr(cfg, key, value)
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key not in FIELD_TYPES:
            raise ConfigError(f"unknown config key {key!r}")
        setattr(cfg, key, value)
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig):
    for f in fields(RunConfig):
        rule, value = f.metadata["rule"], getattr(cfg, f.name)
        if isinstance(rule, tuple) and value not in rule and value != f.default:
            raise ConfigError(f"{f.name} must be {_choices(rule)}, got {value!r}")
        if isinstance(rule, int) and value < rule:
            raise ConfigError(f"{f.name} must be at least {rule}, got {value}")
        # written so that NaN fails too
        if isinstance(rule, str) and not (0 < value < math.inf
                                          or rule == "non-negative" and value == 0):
            raise ConfigError(f"{f.name} must be {rule} and finite, got {value}")
    cfg.clip_size()
