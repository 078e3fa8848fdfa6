import numpy as np
import pytest

from vsr3d.checkpoint import (MAGIC, BadMagicError, CheckpointError,
                              TruncatedError, load_checkpoint, save_checkpoint)
from vsr3d.model import build_architecture, count_parameters
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
        assert count_parameters(spec) == 108_000

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
