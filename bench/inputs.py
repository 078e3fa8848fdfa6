"""Seeded benchmark inputs: synthetic clips with hard cuts, and checkpoints.

Everything here derives from the workload seed, so one seed always gives the
same files. Clips are written by a Y4M writer of this module (not the
program's), so the inputs stay fixed when the program's I/O code changes.
Checkpoints go through the program's public `save_checkpoint`.
"""

import numpy as np

FRAME_RATE = (25, 1)


def _rank2(amp, ycycles, xcycles, phase):
    """Factors (left, right) whose product is the plane-wave sum
    sum_i amp_i sin(2pi (ycycles[y, i] + xcycles[i, x]) + phase_i).

    sin(A + B) = sin(A)cos(B) + cos(A)sin(B) makes every plane wave a rank-2
    outer product, so a whole frame is one small matrix product.
    """
    ay = 2 * np.pi * ycycles
    ax = 2 * np.pi * xcycles + phase[:, None]
    left = np.concatenate([amp * np.cos(ay), amp * np.sin(ay)], axis=1)
    right = np.concatenate([np.sin(ax), np.cos(ax)], axis=0)
    return left, right


def textured_scene(rng, frames: int, w: int, h: int):
    """Drifting multi-frequency texture under a slow luminance envelope,
    with smooth 4:2:0 chroma. Returns a list of (Y, U, V) float planes in [0, 1]."""
    k = 12
    amp = 0.24 / np.arange(1, k + 1) ** 0.7
    fx, fy = rng.uniform(-0.20, 0.20, k), rng.uniform(-0.20, 0.20, k)
    ph, om = rng.uniform(0, 2 * np.pi, k), rng.uniform(-0.35, 0.35, k)
    ex, ey = rng.uniform(-0.008, 0.008, 2)
    e0, ew = rng.uniform(0, 2 * np.pi), rng.uniform(-0.2, 0.2)
    cf = rng.uniform(-0.02, 0.02, (2, 2))
    cph = rng.uniform(0, 2 * np.pi, 2)
    y, x = np.arange(h, dtype=np.float64), np.arange(w, dtype=np.float64)
    cy, cx = np.arange(-(-h // 2), dtype=np.float64), np.arange(-(-w // 2), dtype=np.float64)
    out = []
    for t in range(frames):
        tex = _rank2(amp, np.outer(y, fy), np.outer(fx, x), ph + om * t)
        env = _rank2(np.array([0.18]), np.outer(y, [ey]), np.outer([ex], x),
                     np.array([e0 + ew * t]))
        luma = 0.68 + tex[0] @ tex[1] + env[0] @ env[1]
        chroma = []
        for c in range(2):
            f = _rank2(np.array([0.12]), np.outer(cy, cf[c, :1]), np.outer(cf[c, 1:], cx),
                       np.array([cph[c] + 0.1 * t]))
            chroma.append(np.clip(0.5 + f[0] @ f[1], 0.0, 1.0))
        out.append((np.clip(luma, 0.0, 1.0), chroma[0], chroma[1]))
    return out


def clip_with_cuts(seed, tag: int, frames: int, w: int, h: int, cuts=()):
    """A clip of `frames` frames whose scene changes right before each index in
    `cuts`; each scene is an unrelated texture."""
    bounds = [0, *cuts, frames]
    out = []
    for s, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        out += textured_scene(np.random.default_rng((seed, tag, s)), hi - lo, w, h)
    return out


def quantise(plane) -> np.ndarray:
    """[0, 1] floats to 8-bit, rounding halves up."""
    return np.clip(np.floor(np.asarray(plane) * 255.0 + 0.5), 0, 255).astype(np.uint8)


def write_y4m(frames, path, rate=FRAME_RATE):
    h, w = frames[0][0].shape
    with open(path, "wb") as fh:
        fh.write(f"YUV4MPEG2 W{w} H{h} F{rate[0]}:{rate[1]} Ip A1:1 C420\n".encode("ascii"))
        for planes in frames:
            fh.write(b"FRAME\n")
            for p in planes:
                fh.write(quantise(p).tobytes())


def write_checkpoints(seed, sr_path=None, sf_path=None):
    """Seeded-Xavier `full` x2 SR and 3-layer scene-classifier checkpoints."""
    from vsr3d import build_architecture, build_sf_net, save_checkpoint, xavier_init

    if sr_path:
        spec = build_architecture("full", 2)
        save_checkpoint(xavier_init(spec, seed), spec, {"arch": "full"}, sr_path)
    if sf_path:
        spec = build_sf_net(3)
        save_checkpoint(xavier_init(spec, seed + 1), spec, {"arch": "sf3"}, sf_path)
