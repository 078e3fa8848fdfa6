"""Byte gate: a revision's seeded outputs against the working tree's.

Usage:

    python tools/byte_gate.py REV

Exports REV's src/ with `git archive`, then runs this tree's
tools/seeded_outputs.py against REV's src/ and against this tree's src/,
each at OMP_NUM_THREADS 1 and 2. Prints every output that differs between
REV and this tree at the same thread count, or between this tree's runs at
1 and 2 threads. Exits 1 if any output differs or a seeded run fails, 2 if
REV cannot be exported, and 0 otherwise. It imports nothing from src/: each
run is a fresh interpreter whose PYTHONPATH is one of the two trees.
"""

import io
import os
import subprocess
import sys
import tarfile
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
THREADS = (1, 2)


def tree(root: str) -> dict:
    """{path relative to root: bytes} of every file under root."""
    files = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, root)] = fh.read()
    return files


def differing(old: str, new: str) -> list:
    """Relative paths whose bytes differ between two output directories, or
    that only one of them holds, sorted."""
    a, b = tree(old), tree(new)
    return sorted(name for name in a.keys() | b.keys() if a.get(name) != b.get(name))


def report(runs: dict) -> list:
    """One line per differing output; runs maps ("rev" or "tree", threads)
    to an output directory."""
    pairs = [(("rev", t), ("tree", t)) for t in THREADS] + [(("tree", 1), ("tree", 2))]
    return [f"{name}: {old[0]}-{old[1]} vs {new[0]}-{new[1]}"
            for old, new in pairs for name in differing(runs[old], runs[new])]


def seeded_run(src: str, threads: int, out: str) -> bool:
    """tools/seeded_outputs.py on the vsr3d under src, into out; True if it exits 0."""
    env = dict(os.environ, PYTHONPATH=src, OMP_NUM_THREADS=str(threads))
    script = os.path.join(ROOT, "tools", "seeded_outputs.py")
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, script, out], env=env, capture_output=True, text=True)
    print(f"{os.path.basename(out)}: exit {proc.returncode} in {time.perf_counter() - start:.1f} s")
    if proc.returncode:
        print(proc.stdout + proc.stderr, end="")
    return proc.returncode == 0


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="byte-gate-") as tmp:
        git = subprocess.run(["git", "-C", ROOT, "archive", argv[0], "src"], capture_output=True)
        if git.returncode:
            print(git.stderr.decode(errors="replace"), end="", file=sys.stderr)
            return 2
        safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        with tarfile.open(fileobj=io.BytesIO(git.stdout)) as tar:
            tar.extractall(os.path.join(tmp, "rev"), **safe)
        print(f"rev: {argv[0]}; tree: {ROOT}")
        srcs = {"rev": os.path.join(tmp, "rev", "src"), "tree": os.path.join(ROOT, "src")}
        runs = {(label, t): os.path.join(tmp, f"{label}-{t}") for label in srcs for t in THREADS}
        # a list, not a generator: every run goes, even after one fails
        ok = all([seeded_run(srcs[label], t, out) for (label, t), out in runs.items()])
        lines = report(runs)
    print("\n".join(lines) or "no output differs")
    return 0 if ok and not lines else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
