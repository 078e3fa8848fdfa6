"""Checkpoint persistence.

Layout: the magic line "3DSR1", a human-readable `key = value` header that
fully determines every blob size (model kind, scale, concat position, one
line per layer) and records the two layout conventions, a lone "end" line,
then little-endian float32 blobs in layer order, kernel before bias. Header
lines end at "\n" alone, which no value may hold; a load refuses a format
other than 1 and layout notes other than the two written here.
Save -> load is bit-exact; a wrong magic and a short payload raise
distinguishable errors. Non-finite weights are refused on both sides, and a
save replaces the destination atomically, so an interrupted save leaves the
previous checkpoint intact.
"""

import math
import re

import numpy as np

from .model import INPUT_FRAMES, LayerSpec, ModelSpec
from .tensor_core import ConvWeights, TemporalPad
from .video_io import atomic_write

MAGIC = b"3DSR1"

PIXEL_SHUFFLE_NOTE = "channel c lands at row-major offset (c div scale, c mod scale)"
CONCAT_NOTE = "group-major depth flatten; channel = group * depth + slice"

_STRUCT_KEYS = {"format", "kind", "scale", "input_frames", "concat_after",
                "layer_count", "pixel_shuffle", "concat_order"}


class CheckpointError(ValueError):
    pass


class BadMagicError(CheckpointError):
    """The file does not start with the checkpoint signature."""


class TruncatedError(CheckpointError):
    """The file ends before the header-declared payload does."""


def _layer_line(l: LayerSpec) -> str:
    kd, kh, kw = l.kernel
    sh, sw = l.stride
    return (f"{l.kind} in={l.in_groups} out={l.out_groups} kernel={kd}x{kh}x{kw} "
            f"tpad={l.temporal_pad.value} act={l.activation} stride={sh}x{sw} "
            f"spad={l.spatial_pad}")


def _parse_layer_line(text: str) -> LayerSpec:
    parts = text.split()
    kv = dict(p.split("=", 1) for p in parts[1:])
    kd, kh, kw = (int(v) for v in kv["kernel"].split("x"))
    sh, sw = (int(v) for v in kv["stride"].split("x"))
    return LayerSpec(parts[0], int(kv["in"]), int(kv["out"]), (kd, kh, kw),
                     TemporalPad(kv["tpad"]), kv["act"], (sh, sw), int(kv["spad"]))


def _require_finite(w: ConvWeights, i: int, path: str):
    if not (np.isfinite(w.kernel).all() and np.isfinite(w.bias).all()):
        raise CheckpointError(f"{path}: layer {i} holds non-finite weights")


def save_checkpoint(params, spec: ModelSpec, meta: dict, path: str):
    lines = [
        "format = 1",
        f"kind = {spec.kind}",
        f"scale = {spec.scale}",
        f"input_frames = {INPUT_FRAMES}",
        f"concat_after = {'none' if spec.concat_after is None else spec.concat_after}",
        f"pixel_shuffle = {PIXEL_SHUFFLE_NOTE}",
        f"concat_order = {CONCAT_NOTE}",
        f"layer_count = {len(spec.layers)}",
    ]
    for i, layer in enumerate(spec.layers):
        lines.append(f"layer_{i} = {_layer_line(layer)}")
    for key in sorted(meta):
        if not re.fullmatch(r"[a-z][a-z0-9_]*", key) or key in _STRUCT_KEYS or key.startswith("layer_"):
            raise CheckpointError(f"unusable meta key {key!r}")
        value = str(meta[key])
        if "\n" in value:
            raise CheckpointError(f"meta value for {key!r} spans lines")
        lines.append(f"{key} = {value}")
    with atomic_write(path) as fh:
        fh.write(MAGIC + b"\n")
        fh.write(("\n".join(lines) + "\nend\n").encode("utf-8"))
        for i, w in enumerate(params):
            _require_finite(w, i, path)
            fh.write(np.ascontiguousarray(w.kernel, dtype="<f4").tobytes())
            fh.write(np.ascontiguousarray(w.bias, dtype="<f4").tobytes())


def load_checkpoint(path: str):
    """Returns (params, spec, meta)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if not blob.startswith(MAGIC + b"\n"):
        raise BadMagicError(f"{path}: not a checkpoint (bad magic)")
    sep = blob.find(b"\nend\n", len(MAGIC))
    if sep < 0:
        raise TruncatedError(f"{path}: header never terminates")
    try:
        header = blob[len(MAGIC) + 1: sep].decode("utf-8")
    except UnicodeDecodeError as e:
        raise CheckpointError(f"{path}: header is not UTF-8 text") from e
    fields: dict[str, str] = {}
    for raw in header.split("\n"):  # the one separator save writes and refuses in values
        key, eq, value = raw.partition(" = ")
        if not eq:
            raise CheckpointError(f"{path}: malformed header line {raw!r}")
        if key in fields:
            raise CheckpointError(f"{path}: header key {key!r} repeats")
        fields[key] = value
    try:
        for key, want in (("format", "1"), ("pixel_shuffle", PIXEL_SHUFFLE_NOTE),
                          ("concat_order", CONCAT_NOTE)):
            if fields[key] != want:
                raise ValueError(f"{key} {fields[key]!r} is not {want!r}")
        n_layers = int(fields["layer_count"])
        layers = [_parse_layer_line(fields[f"layer_{i}"]) for i in range(n_layers)]
        if int(fields["input_frames"]) != INPUT_FRAMES:
            raise ValueError("the sliding window is fixed at five frames")
        concat = fields["concat_after"]
        spec = ModelSpec(layers, None if concat == "none" else int(concat),
                         int(fields["scale"]), fields["kind"])
    except KeyError as e:
        raise CheckpointError(f"{path}: header misses {e}") from e
    except ValueError as e:  # a field that does not parse or a spec that cannot be built
        raise CheckpointError(f"{path}: malformed header: {e}") from e
    meta = {k: v for k, v in fields.items()
            if k not in _STRUCT_KEYS and not re.fullmatch(r"layer_\d+", k)}
    pos = sep + len(b"\nend\n")
    params = []
    for i, layer in enumerate(layers):
        shape = (layer.out_groups, layer.in_groups) + layer.kernel
        kn = math.prod(shape) * 4   # Python ints: a huge header cannot wrap
        bn = layer.out_groups * 4
        if len(blob) - pos < kn + bn:
            raise TruncatedError(f"{path}: blob for layer {i} is cut short")
        kernel = np.frombuffer(blob[pos: pos + kn], dtype="<f4").reshape(shape)
        bias = np.frombuffer(blob[pos + kn: pos + kn + bn], dtype="<f4")
        params.append(ConvWeights(kernel.copy(), bias.copy()))
        _require_finite(params[-1], i, path)
        pos += kn + bn
    if pos != len(blob):
        raise CheckpointError(f"{path}: {len(blob) - pos} trailing bytes beyond the declared blobs")
    return params, spec, meta
