"""tools/byte_gate.py's comparison of seeded output directories (no run is started)."""

import importlib.util
from pathlib import Path

import pytest

spec = importlib.util.spec_from_file_location(
    "byte_gate", Path(__file__).resolve().parent.parent / "tools" / "byte_gate.py")
byte_gate = importlib.util.module_from_spec(spec)
spec.loader.exec_module(byte_gate)


def canned(root: Path, files: dict) -> str:
    for name, data in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_bytes(data)
    return str(root)


@pytest.fixture
def old_new(tmp_path):
    old = canned(tmp_path / "old", {"same.csv": b"1,2\n", "moved.y4m": b"A", "sub/out.stdout": b"x",
                                    "gone.csv": b""})
    new = canned(tmp_path / "new", {"same.csv": b"1,2\n", "moved.y4m": b"B", "sub/out.stdout": b"x",
                                    "sub/new.ckpt": b"w"})
    return old, new


def test_differing_names_changed_missing_and_added_files(old_new):
    old, new = old_new
    assert byte_gate.differing(old, new) == ["gone.csv", "moved.y4m", "sub/new.ckpt"]
    assert byte_gate.differing(old, old) == []


def test_report_compares_revisions_per_thread_count_and_the_trees_thread_counts(old_new):
    old, new = old_new
    same = {("rev", 1): old, ("rev", 2): old, ("tree", 1): old, ("tree", 2): old}
    assert byte_gate.report(same) == []
    lines = byte_gate.report({**same, ("tree", 2): new})
    assert lines == [f"{name}: {pair}" for pair in ("rev-2 vs tree-2", "tree-1 vs tree-2")
                     for name in ("gone.csv", "moved.y4m", "sub/new.ckpt")]
