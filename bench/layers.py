"""Per-layer metrics computed from the spans of traced passes.

A pass is one run of a workload's commands over its inputs. Each metric is
first computed per traced pass (milliseconds are summed over the pass) and
then reduced to the median over traced passes. Functions a workload never
calls report 0.
"""

import statistics
import time

import numpy as np

SR_LAYERS = 6
# Inclusive time of these spans, summed per pass.
INCLUSIVE = ("bicubic.resize_plane", "bicubic.upscale_chroma", "bicubic.degrade_clip",
             "scene.sf_input_from_window", "scene.sf_logits", "metrics.ssim", "metrics.psnr",
             "video_io.read_clip", "video_io.write_clip", "checkpoint.load_checkpoint",
             "checkpoint.save_checkpoint", "training.extract_dataset", "training.adam_step",
             "training.loss_mse")
# Self time (own duration minus that of wrapped callees), summed per pass.
SELF = ("model.forward", "model.forward_stack", "model.backward_stack")


def _names():
    """(name, unit, better) of every per-layer metric, in report order."""
    sr_layers = [f"L{i}" for i in range(1, SR_LAYERS + 1)]
    out = []
    for op, layers in (("conv_forward", sr_layers + ["sf"]), ("conv_backward", sr_layers)):
        for layer in layers:
            out += [(f"tensor_core.{op}.{layer}.ms", "ms", "lower"),
                    (f"tensor_core.{op}.{layer}.gflops", "GFLOP/s", "higher")]
    out.append(("tensor_core.gemm_ceiling_gflops", "GFLOP/s", "higher"))
    out += [(f"{name}.self_ms", "ms", "lower") for name in SELF]
    out.append(("bicubic.resize_plane.calls", "count", "lower"))
    out += [(f"{name}.ms", "ms", "lower") for name in INCLUSIVE]
    out += [("scene.resize_useful_ratio", "ratio", "higher"),
            ("video_io.read_clip.mb_per_s", "MB/s", "higher"),
            ("cli.self_ms", "ms", "lower"),
            ("trace_overhead_pct", "%", "lower")]
    return out


METRICS = _names()


def pass_metrics(span_lists) -> dict:
    """Metrics of one traced pass; span_lists holds one span list per command."""
    acc = {}

    def add(key, value):
        acc[key] = acc.get(key, 0.0) + value

    resized, resize_calls = set(), 0
    for command, spans in enumerate(span_lists):
        child = [0.0] * len(spans)
        for name, parent, t0, t1, _, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for i, (name, parent, t0, t1, _, extra) in enumerate(spans):
            ms = (t1 - t0) * 1e3
            self_ms = ms - child[i] * 1e3
            if name in INCLUSIVE:
                add(f"{name}.ms", ms)
            if name in SELF:
                add(f"{name}.self_ms", self_ms)
            if name.startswith("cli."):
                add("cli.self_ms", self_ms)
            if name == "bicubic.resize_plane":
                add("bicubic.resize_plane.calls", 1)
                if parent >= 0 and spans[parent][0] == "scene.sf_input_from_window":
                    resized.add((command, extra["src"]))
                    resize_calls += 1
            if name == "video_io.read_clip":
                add("read_bytes", extra["bytes"])
            if name.startswith("tensor_core.conv_"):
                layer = f"L{extra['layer']}" if extra["net"] == "sr" else extra["net"]
                key = f"{name}.{layer}"
                add(f"{key}.ms", ms)
                add(f"{key}.flops", extra["flops"])
    out = {}
    for name, _, _ in METRICS:
        if name.endswith(".gflops"):
            key = name[:-len(".gflops")]
            ms = acc.get(f"{key}.ms", 0.0)
            out[name] = acc.get(f"{key}.flops", 0.0) / ms / 1e6 if ms > 0 else 0.0
        else:
            out[name] = acc.get(name, 0.0)
    read_ms = acc.get("video_io.read_clip.ms", 0.0)
    if read_ms:
        out["video_io.read_clip.mb_per_s"] = acc["read_bytes"] / read_ms / 1e3
    out["scene.resize_useful_ratio"] = len(resized) / resize_calls if resize_calls else 0.0
    return out


def median_metrics(per_pass: list) -> dict:
    return {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}


def gemm_ceiling_gflops(repeats: int = 5) -> float:
    """Best np.matmul rate at the GEMM shape of the dominant 32->32 conv3d
    layer: one 64000 x 864 column block (a training batch of 8 windows of
    5 x 40 x 40) against the 864 x 32 transposed kernel, float32."""
    rng = np.random.default_rng(0)
    cols = rng.random((64000, 864), dtype=np.float32)
    kernel_t = rng.random((32, 864), dtype=np.float32).T
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        cols @ kernel_t
        best = min(best, time.perf_counter() - t0)
    return 2.0 * cols.shape[0] * cols.shape[1] * kernel_t.shape[1] / best / 1e9
