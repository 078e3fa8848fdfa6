"""Multi-frame video super-resolution on a small numpy tensor core.

Five-frame sliding windows go through a 3D-convolutional residual network
that emits scale^2 sub-pixel channels; a companion classifier detects scene
changes inside the window and swaps disparate frames out before upscaling.
Everything (convolutions, Adam, bicubic resampling, metrics, clip I/O) is
implemented on numpy alone, with brute-force oracles and gradient checks
guarding the fast paths.
"""

from .bicubic import bicubic_resize, bicubic_upscale, degrade_clip, resize_plane, upscale_chroma
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .config import ConfigError, RunConfig, load_config
from .frames import Frame, VideoClip
from .metrics import format_metric, metrics_csv, psnr, ssim
from .model import (ARCH_NAMES, LayerSpec, ModelSpec, build_architecture,
                    count_parameters, dump_feature_maps, forward, forward_stack)
from .scene import (SceneLabel, build_sf_net, confusion_csv, confusion_matrix,
                    make_sf_dataset, replace_frames, sf_accuracy, train_sf)
from .tensor_core import (ConvWeights, PadPolicy, TemporalPad, conv_forward,
                          pixel_shuffle, pixel_unshuffle, relu)
from .training import (DatasetRecipe, GradCheckReport, TrainingDiverged,
                       TrainResult, adam_step, extract_dataset,
                       grad_check, init_optim, loss_mse, miniature_spec,
                       train, xavier_init)
from .video_io import ClipFormatError, detect_format, read_clip, write_clip

__version__ = "0.1.0"

__all__ = [
    "ARCH_NAMES", "CheckpointError", "ClipFormatError", "ConfigError",
    "ConvWeights", "DatasetRecipe", "Frame", "GradCheckReport", "LayerSpec",
    "ModelSpec", "PadPolicy", "RunConfig", "SceneLabel",
    "TemporalPad", "TrainResult", "TrainingDiverged", "VideoClip",
    "adam_step", "bicubic_resize", "bicubic_upscale", "build_architecture",
    "build_sf_net", "confusion_csv", "confusion_matrix",
    "conv_forward", "count_parameters", "degrade_clip", "detect_format",
    "dump_feature_maps", "extract_dataset", "format_metric", "forward",
    "forward_stack", "grad_check", "init_optim", "load_checkpoint",
    "load_config", "loss_mse", "make_sf_dataset", "metrics_csv",
    "miniature_spec", "pixel_shuffle", "pixel_unshuffle", "psnr",
    "read_clip", "relu", "replace_frames", "resize_plane",
    "save_checkpoint", "sf_accuracy", "ssim", "train", "train_sf",
    "upscale_chroma", "write_clip", "xavier_init",
]
