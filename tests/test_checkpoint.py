import numpy as np
import pytest

from vsr3d.checkpoint import (CONCAT_NOTE, MAGIC, PIXEL_SHUFFLE_NOTE, BadMagicError,
                              CheckpointError, TruncatedError, load_checkpoint, save_checkpoint)
from vsr3d.model import build_architecture, count_parameters
from vsr3d.reference import REFERENCE_WEIGHT_COUNTS
from vsr3d.tensor_core import ConvWeights

from test_model import random_params


@pytest.fixture
def saved(tmp_path):
    spec = build_architecture("v1", 2)
    params = random_params(spec, seed=21)
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(params, spec, {"step": 123, "seed": 7, "arch": "v1"}, path)
    return params, spec, path


class TestRoundtrip:
    def test_bit_exact(self, saved):
        params, spec, path = saved
        loaded, spec2, meta = load_checkpoint(path)
        assert spec2 == spec
        assert meta["step"] == "123" and meta["seed"] == "7" and meta["arch"] == "v1"
        for a, b in zip(params, loaded):
            assert np.array_equal(a.kernel, b.kernel)
            assert np.array_equal(a.bias, b.bias)
            assert b.kernel.dtype == np.float32

    def test_header_is_readable_text(self, saved):
        _, _, path = saved
        head = open(path, "rb").read().split(b"\nend\n", 1)[0]
        text = head.decode("utf-8")
        assert text.startswith("3DSR1\n")
        assert "kind = sr" in text and "scale = 2" in text
        assert "layer_0 = conv3d in=1 out=32" in text

    def test_loaded_spec_recounts_weights(self, saved):
        _, _, path = saved
        _, spec, _ = load_checkpoint(path)
        assert count_parameters(spec) == REFERENCE_WEIGHT_COUNTS["v1"]

    def test_meta_values_keep_every_line_break_but_newline(self, tmp_path):
        # str.splitlines would also break at these; save joins lines with "\n" only
        spec = build_architecture("v1", 2)
        meta = {"cr": "a\rb", "nel": "a\x85b", "sep": "a\u2028b", "edge": " = \x0b\x1e\u2029"}
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(random_params(spec, seed=23), spec, meta, path)
        assert load_checkpoint(path)[2] == meta

    def test_same_save_twice_is_byte_identical(self, saved, tmp_path):
        params, spec, path = saved
        other = str(tmp_path / "again.ckpt")
        save_checkpoint(params, spec, {"step": 123, "seed": 7, "arch": "v1"}, other)
        assert open(path, "rb").read() == open(other, "rb").read()


class TestCorruption:
    def test_bad_magic_is_its_own_error(self, saved, tmp_path):
        _, _, path = saved
        blob = open(path, "rb").read()
        bad = str(tmp_path / "bad.ckpt")
        open(bad, "wb").write(b"XXXXX" + blob[len(MAGIC):])
        with pytest.raises(BadMagicError):
            load_checkpoint(bad)

    def test_truncation_is_distinguishable(self, saved, tmp_path):
        _, _, path = saved
        blob = open(path, "rb").read()
        cut = str(tmp_path / "cut.ckpt")
        open(cut, "wb").write(blob[:-100])
        with pytest.raises(TruncatedError) as err:
            load_checkpoint(cut)
        assert not isinstance(err.value, BadMagicError)

    def test_header_without_end_marker(self, tmp_path):
        p = str(tmp_path / "noend.ckpt")
        open(p, "wb").write(MAGIC + b"\nkind = sr\n")
        with pytest.raises(TruncatedError):
            load_checkpoint(p)

    def test_trailing_garbage_rejected(self, saved, tmp_path):
        _, _, path = saved
        blob = open(path, "rb").read()
        fat = str(tmp_path / "fat.ckpt")
        open(fat, "wb").write(blob + b"\x00" * 8)
        with pytest.raises(CheckpointError):
            load_checkpoint(fat)

    def test_meta_key_collisions_rejected(self, saved, tmp_path):
        params, spec, _ = saved
        with pytest.raises(CheckpointError):
            save_checkpoint(params, spec, {"scale": 3}, str(tmp_path / "x.ckpt"))
        with pytest.raises(CheckpointError):
            save_checkpoint(params, spec, {"note": "two\nlines"}, str(tmp_path / "y.ckpt"))


class TestNonFiniteAndAtomicSave:
    def test_failed_save_keeps_previous_checkpoint(self, saved, tmp_path):
        params, spec, path = saved
        before = open(path, "rb").read()
        bad = [ConvWeights(w.kernel.copy(), w.bias.copy()) for w in params]
        bad[-1].bias[0] = np.nan
        # the last layer fails after the header and every other blob are out
        with pytest.raises(CheckpointError, match=f"layer {len(bad) - 1} "):
            save_checkpoint(bad, spec, {}, path)
        assert open(path, "rb").read() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_weight_rejected_on_load(self, saved, tmp_path, value):
        _, _, path = saved
        blob = open(path, "rb").read()
        bad = str(tmp_path / "bad.ckpt")
        open(bad, "wb").write(blob[:-4] + np.float32(value).astype("<f4").tobytes())
        with pytest.raises(CheckpointError, match="layer 5 holds non-finite"):
            load_checkpoint(bad)


def test_save_to_missing_directory_names_the_destination(tmp_path):
    spec = build_architecture("v1", 2)
    path = tmp_path / "nodir" / "model.ckpt"
    with pytest.raises(FileNotFoundError) as info:
        save_checkpoint(random_params(spec, seed=22), spec, {}, str(path))
    assert info.value.filename == str(path)
    assert str(info.value) == f"[Errno 2] No such file or directory: '{path}'"


@pytest.mark.parametrize("old, new", [
    (b"kernel=3x3x3", b"kernel=1x3"),
    (b"scale = 2", b"scale = x"),
    (b"in=1 ", b"in=-1 "),
    (b"stride=1x1", b"stride=0x1"),
    (b"tpad=zero", b"tpad=sideways"),
    (b"act=relu", b"act"),
    (b"layer_count = 6", b"layer_count = 7"),
    (b"kind = sr", b"kind = \xff"),
    (b"kernel=3x3x3", b"kernel=3x3000000000x3000000000"),
    (b"input_frames = 5", b"input_frames = 4"),
    (b"kind = sr", b"kind = sr\nkind = sr"),
    (b"format = 1", b"format = 2"),
])
def test_malformed_header_field_is_checkpoint_error(saved, tmp_path, old, new):
    _, _, path = saved
    with open(path, "rb") as fh:
        blob = fh.read()
    assert old in blob
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(blob.replace(old, new, 1))
    with pytest.raises(CheckpointError):
        load_checkpoint(str(bad))


@pytest.mark.parametrize("note", [PIXEL_SHUFFLE_NOTE, CONCAT_NOTE],
                         ids=["pixel_shuffle", "concat_order"])
def test_other_layout_note_is_checkpoint_error(saved, tmp_path, note):
    _, _, path = saved
    blob = open(path, "rb").read()
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(blob.replace(note.encode(), note.encode()[::-1], 1))
    with pytest.raises(CheckpointError, match="is not"):
        load_checkpoint(str(bad))
