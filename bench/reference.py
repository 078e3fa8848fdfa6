"""Float64 references for the benchmark's output checks.

Nothing here calls the program: the Y4M reader, checkpoint parser, bicubic
resampler, convolution, scene classifier and PSNR/SSIM are written again from
their documented definitions, in a different formulation from the program's
fast path (dense resampling matrices, one matrix product per kernel tap,
shifted-slice Gaussian sums). A check compares the program's output files
against these references after the timed region ends.
"""

import functools
import math

import numpy as np

# Frame replacement per scene label: which window position feeds each slot.
# Labels 0..3 are "cut after frame 1..4", label 4 is "no cut".
REPLACEMENT = ((1, 1, 2, 3, 4), (2, 2, 2, 3, 4), (0, 1, 2, 2, 2),
               (0, 1, 2, 3, 3), (0, 1, 2, 3, 4))
SF_GEOMETRY = (27, 48)
# Top-2 scene logits closer than this may order differently in float32.
LOGIT_TIE = 1e-3


# ---------------------------------------------------------------------------
# files

def read_y4m(path):
    """List of (Y, U, V) uint8 planes of a 4:2:0 Y4M file."""
    with open(path, "rb") as fh:
        data = fh.read()
    head, _, body = data.partition(b"\n")
    fields = {tok[:1]: tok[1:] for tok in head.split(b" ")[1:]}
    w, h = int(fields[b"W"]), int(fields[b"H"])
    sizes = (w * h, (w // 2) * (h // 2), (w // 2) * (h // 2))
    shapes = ((h, w), (h // 2, w // 2), (h // 2, w // 2))
    frames, pos = [], 0
    while pos < len(body):
        if not body.startswith(b"FRAME", pos):
            raise ValueError(f"{path}: expected FRAME at byte {pos}")
        pos = body.index(b"\n", pos) + 1
        planes = []
        for n, shape in zip(sizes, shapes):
            planes.append(np.frombuffer(body, np.uint8, n, pos).reshape(shape))
            pos += n
        frames.append(tuple(planes))
    return frames


def read_checkpoint(path):
    """(layers, concat_after, arrays) of a checkpoint file; each layer is a
    dict of its header fields, arrays a list of float64 (kernel, bias)."""
    with open(path, "rb") as fh:
        data = fh.read()
    head_end = data.index(b"\nend\n") + len(b"\nend\n")
    header = dict(line.split(" = ", 1) for line in data[:head_end].decode().splitlines()[1:-1])
    layers, arrays, pos = [], [], head_end
    for i in range(int(header["layer_count"])):
        tokens = header[f"layer_{i}"].split()
        layer = dict(tok.split("=") for tok in tokens[1:])
        layer["kind"] = tokens[0]
        cin, cout = int(layer["in"]), int(layer["out"])
        ksize = tuple(int(v) for v in layer["kernel"].split("x"))
        n = cout * cin * math.prod(ksize)
        kernel = np.frombuffer(data, "<f4", n, pos).reshape((cout, cin) + ksize)
        bias = np.frombuffer(data, "<f4", cout, pos + 4 * n)
        pos += 4 * (n + cout)
        layers.append(layer)
        arrays.append((kernel.astype(np.float64), bias.astype(np.float64)))
    concat = header["concat_after"]
    return layers, (None if concat == "none" else int(concat)), arrays


# ---------------------------------------------------------------------------
# bicubic resampling (a = -0.5, pixel-centre mapping, antialiased shrink,
# renormalised weights, edge-clamped taps, result clipped to [0, 1])

def _cubic(t):
    t = np.abs(t)
    return np.where(t <= 1, 1.5 * t**3 - 2.5 * t**2 + 1,
                    np.where(t < 2, -0.5 * t**3 + 2.5 * t**2 - 4 * t + 2, 0.0))


@functools.lru_cache(maxsize=None)
def resample_matrix(n_in: int, n_out: int) -> np.ndarray:
    """Dense (n_out, n_in) matrix taking one axis from n_in to n_out samples.
    Cached and shared between callers, which must not modify it."""
    scale = n_out / n_in
    shrink = min(scale, 1.0)
    m = np.zeros((n_out, n_in))
    for i in range(n_out):
        u = (i + 0.5) / scale - 0.5
        src = np.arange(math.floor(u - 2 / shrink), math.ceil(u + 2 / shrink) + 1)
        wts = _cubic(shrink * (u - src))
        np.add.at(m[i], np.clip(src, 0, n_in - 1), wts / wts.sum())
    return m


def resize(plane, out_h: int, out_w: int) -> np.ndarray:
    p = np.asarray(plane, dtype=np.float64)
    out = resample_matrix(p.shape[0], out_h) @ p @ resample_matrix(p.shape[1], out_w).T
    return np.clip(out, 0.0, 1.0)


# ---------------------------------------------------------------------------
# networks

def conv(x, kernel, bias, tpad: str, spad: int, stride=(1, 1)):
    """Correlate x (C, D, H, W) with kernel (O, C, kd, kh, kw), one matrix
    product per tap."""
    out_c, in_c, kd, kh, kw = kernel.shape
    if tpad != "none" and kd > 1:
        mode = "constant" if tpad == "zero" else "edge"
        x = np.pad(x, ((0, 0), (kd // 2, kd // 2), (0, 0), (0, 0)), mode=mode)
    x = np.pad(x, ((0, 0), (0, 0), (spad, spad), (spad, spad)))
    sh, sw = stride
    d = x.shape[1] - kd + 1
    h = (x.shape[2] - kh) // sh + 1
    w = (x.shape[3] - kw) // sw + 1
    out = np.repeat(bias[:, None], d * h * w, axis=1)
    for a in range(kd):
        for b in range(kh):
            for g in range(kw):
                taps = x[:, a:a + d, b:b + (h - 1) * sh + 1:sh, g:g + (w - 1) * sw + 1:sw]
                out += kernel[:, :, a, b, g] @ taps.reshape(in_c, -1)
    return out.reshape(out_c, d, h, w)


def net_forward(net, x):
    """Apply a checkpointed layer stack to x (1, 5, H, W)."""
    layers, concat_after, arrays = net
    if concat_after == 0:
        x = x.reshape(-1, 1, *x.shape[2:])
    for i, (layer, (kernel, bias)) in enumerate(zip(layers, arrays)):
        stride = tuple(int(v) for v in layer["stride"].split("x"))
        x = conv(x, kernel, bias, layer["tpad"], int(layer["spad"]), stride)
        if layer["act"] == "relu":
            x = np.maximum(x, 0.0)
        if i + 1 == concat_after:
            x = x.reshape(-1, 1, *x.shape[2:])
    return x


def sf_logits(sf_net, small_planes) -> np.ndarray:
    """Scene logits for five planes already shrunk to the classifier grid."""
    return net_forward(sf_net, np.stack(small_planes)[None]).reshape(-1)


def plausible_labels(logits) -> list[int]:
    """The argmax, plus the runner-up when the two nearly tie."""
    order = np.argsort(-logits, kind="stable")
    top = [int(order[0])]
    if logits[order[0]] - logits[order[1]] < LOGIT_TIE * max(1.0, abs(logits[order[0]])):
        top.append(int(order[1]))
    return top


def softmax(logits):
    e = np.exp(logits - logits.max())
    return e / e.sum()


def sr_frame(sr_net, lumas, scale: int = 2) -> np.ndarray:
    """Upscaled middle frame of five luma planes (float64 in [0, 1])."""
    res = net_forward(sr_net, np.stack(lumas)[None])[:, 0]
    _, h, w = res.shape
    shuffled = res.reshape(scale, scale, h, w).transpose(2, 0, 3, 1).reshape(h * scale, w * scale)
    base = resize(lumas[2], h * scale, w * scale)
    return np.clip(base + shuffled, 0.0, 1.0)


def window(n: int, centre: int) -> list[int]:
    return [min(max(centre + k, 0), n - 1) for k in range(-2, 3)]


# ---------------------------------------------------------------------------
# quality metrics

def psnr(a, b) -> float:
    mse = float(np.mean((a - b) ** 2))
    return math.inf if mse == 0 else 10 * math.log10(1 / mse)


def ssim(a, b) -> float:
    """Mean SSIM under an 11x11 Gaussian window (sigma 1.5), valid positions."""
    r = np.arange(11) - 5.0
    g = np.exp(-r * r / 4.5)
    g /= g.sum()

    def blur(img):
        rows = sum(g[k] * img[k:img.shape[0] - 10 + k] for k in range(11))
        return sum(g[k] * rows[:, k:rows.shape[1] - 10 + k] for k in range(11))

    c1, c2 = 0.01 ** 2, 0.03 ** 2
    ma, mb = blur(a), blur(b)
    va, vb, cov = blur(a * a) - ma * ma, blur(b * b) - mb * mb, blur(a * b) - ma * mb
    return float(np.mean((2 * ma * mb + c1) * (2 * cov + c2)
                         / ((ma * ma + mb * mb + c1) * (va + vb + c2))))
