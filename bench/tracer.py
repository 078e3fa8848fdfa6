"""Span tracing of the program from outside: wrap module functions where
their callers look them up.

`install` replaces a function in every `vsr3d` module whose globals hold it,
so `vsr3d.model.conv_forward` and `vsr3d.tensor_core.conv_forward` both reach
the same wrapper. Spans live in memory as lists
[name, parent, start, end, run_id, extra] and are written out by the caller
when the process ends.
"""

import os
import sys
import time
import types

# The layer boundaries the benchmark reports on. Cheap helpers called inside
# these (relu, pixel_shuffle, stack_windows, ...) stay unwrapped so that
# their time lands in the caller's self time. train() and the cmd_* entry
# points are wrapped so loop glue is not counted as CLI time.
TRACED = {
    "tensor_core": ("conv_forward", "conv_backward"),
    "model": ("forward", "forward_stack", "backward_stack"),
    "bicubic": ("resize_plane", "upscale_chroma", "degrade_clip"),
    "scene": ("sf_input_from_window", "sf_logits"),
    "metrics": ("psnr", "ssim"),
    "video_io": ("read_clip", "write_clip"),
    "checkpoint": ("load_checkpoint", "save_checkpoint"),
    "training": ("extract_dataset", "train", "adam_step", "loss_mse"),
    "cli": ("main", "cmd_upscale", "cmd_train", "cmd_scene", "cmd_evaluate"),
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _stack_context(args, kwargs):
    # forward_stack / backward_stack(params, spec, ...): lets the conv spans
    # inside find their layer number
    params, spec = _arg(args, kwargs, 0, "params"), _arg(args, kwargs, 1, "spec")
    return {"net": spec.kind, "layers": {id(w): i + 1 for i, w in enumerate(params)}}


def _conv_extra(parent_extra, weights, out_elems, passes):
    _, cin, kd, kh, kw = weights.kernel.shape
    layers = (parent_extra or {}).get("layers", {})
    return {"net": (parent_extra or {}).get("net", "?"), "layer": layers.get(id(weights), 0),
            "flops": 2 * passes * out_elems * cin * kd * kh * kw}


def _conv_forward_extra(args, kwargs, result, parent_extra):
    return _conv_extra(parent_extra, _arg(args, kwargs, 1, "weights"), result.size, 1)


def _conv_backward_extra(args, kwargs, result, parent_extra):
    # input gradient and kernel gradient: two contractions of forward size
    grad_out = _arg(args, kwargs, 3, "grad_out")
    return _conv_extra(parent_extra, _arg(args, kwargs, 1, "weights"), grad_out.size, 2)


def _resize_extra(args, kwargs, result, parent_extra):
    # identity of the source plane: frames persist for the whole command, so
    # equal ids within one process mean the same frame resized again
    return {"src": id(_arg(args, kwargs, 0, "plane"))}


def _read_extra(args, kwargs, result, parent_extra):
    path = _arg(args, kwargs, 0, "path")
    return {"bytes": os.path.getsize(path) if os.path.isfile(path) else 0}


BEFORE = {"model.forward_stack": _stack_context, "model.backward_stack": _stack_context}
AFTER = {"tensor_core.conv_forward": _conv_forward_extra,
         "tensor_core.conv_backward": _conv_backward_extra,
         "bicubic.resize_plane": _resize_extra,
         "video_io.read_clip": _read_extra}


class Tracer:
    def __init__(self, run_id: int):
        self.run_id = run_id
        self.spans = []
        self._open = []

    def wrap(self, name: str, fn):
        spans, open_, run_id = self.spans, self._open, self.run_id
        before, after = BEFORE.get(name), AFTER.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = open_[-1] if open_ else -1
            span = [name, parent, 0.0, 0.0, run_id,
                    before(args, kwargs) if before else None]
            spans.append(span)
            open_.append(len(spans) - 1)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                open_.pop()
            if after:
                span[5] = after(args, kwargs, result, spans[parent][5] if parent >= 0 else None)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every TRACED function at each of its lookup sites."""
        mapping = {}
        for mod, names in TRACED.items():
            module = sys.modules[f"vsr3d.{mod}"]
            for fn in names:
                original = getattr(module, fn)
                mapping[original] = self.wrap(f"{mod}.{fn}", original)
        replace_everywhere(mapping)

    def export(self) -> list:
        """Spans as JSON-ready rows; contexts only needed in flight are dropped."""
        return [[name, parent, t0, t1, run_id,
                 {k: v for k, v in extra.items() if k != "layers"} if extra else None]
                for name, parent, t0, t1, run_id, extra in self.spans]


def replace_everywhere(mapping: dict):
    """Rebind each key function to its value in every loaded vsr3d module."""
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "vsr3d" and not mod_name.startswith("vsr3d."):
            continue
        for attr, value in list(vars(module).items()):
            if isinstance(value, types.FunctionType) and value in mapping:
                setattr(module, attr, mapping[value])
