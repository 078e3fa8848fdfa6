import dataclasses
import math
import re

import pytest

from vsr3d.cli import _build_parser
from vsr3d.config import ConfigError, RunConfig, load_config, parse_config_text


class TestDocs:
    def test_every_field_documented(self):
        assert all(f.metadata["doc"] for f in dataclasses.fields(RunConfig))


class TestParsing:
    def test_comments_blanks_and_spacing(self):
        text = """
        # a comment
        arch = v2

        scale=3   # trailing comment
        lr = 1e-3
        """
        values = parse_config_text(text)
        assert values == {"arch": "v2", "scale": 3, "lr": 1e-3}

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key 'bogus'"):
            parse_config_text("bogus = 1")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("seed = 1\nseed = 2")

    def test_bare_line_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("this is not an assignment")

    def test_type_coercion_failure_names_key(self):
        with pytest.raises(ConfigError, match="'epochs'"):
            parse_config_text("epochs = soon")


class TestLoad:
    def test_defaults_without_file(self):
        cfg = load_config(None)
        assert cfg.arch == "full" and cfg.scale == 2 and cfg.lr == 5e-4

    def test_file_then_overrides(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("arch = v1\nseed = 3\n")
        cfg = load_config(str(path), {"seed": 9, "scale": None})
        assert cfg.arch == "v1"       # from file
        assert cfg.seed == 9          # flag wins
        assert cfg.scale == 2         # None override ignored

    @pytest.mark.parametrize("line", [
        "scale = 7",
        "loss_form = median",
        "sf_layers = 4",
        "method = lanczos",
        "format = avi",
        "border = -1",
        "epochs = 0",
        "lr = 0",
        "size = wide",
        "size = 10x-3",
        "lr = nan",
        "sf_lr = inf",
        "weight_decay = nan",
        "arch = fulll",
    ])
    def test_invalid_values_rejected(self, tmp_path, line):
        path = tmp_path / "bad.cfg"
        path.write_text(line + "\n")
        with pytest.raises(ConfigError):
            load_config(str(path))

    @pytest.mark.parametrize("key,value", [
        ("lr", 0.0), ("lr", math.nan), ("lr", math.inf), ("lr", -1.0),
        ("sf_lr", 0.0), ("sf_lr", math.nan), ("sf_lr", math.inf), ("sf_lr", -1.0),
        ("weight_decay", math.nan), ("weight_decay", math.inf), ("weight_decay", -1.0),
    ])
    def test_bad_float_names_its_field_and_value(self, key, value):
        with pytest.raises(ConfigError, match=rf"^{key} must be .*, got {value}$"):
            load_config(None, {key: value})

    def test_non_utf8_file_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"seed = \xff\n")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_clip_size_and_path_list(self):
        cfg = load_config(None, {"size": "704x576", "train_clips": "a.y4m, b.y4m,"})
        assert cfg.clip_size() == (704, 576)
        assert cfg.path_list("train_clips") == ["a.y4m", "b.y4m"]
        assert load_config(None).clip_size() is None


def _flag_helps(field_name: str) -> list:
    """The --help line of every flag that sets the field, one per command."""
    parser = _build_parser()
    sub = next(a for a in parser._actions if a.dest == "command")
    return [a.help for p in sub.choices.values() for a in p._actions if a.dest == field_name]


@pytest.mark.parametrize("f", dataclasses.fields(RunConfig), ids=lambda f: f.name)
def test_declared_rule_is_the_one_enforced(f):
    # a field's rule is its tuple of allowed values, an int's least value, or
    # a float's sign; its help names every allowed value, and load_config
    # holds it exactly
    rule = f.metadata["rule"]
    if rule is None:  # free-form: nothing declared to guard
        return
    if isinstance(rule, tuple):
        helps = _flag_helps(f.name)
        assert helps
        for value in rule:
            assert all(re.search(rf"\b{re.escape(str(value))}\b", h) for h in helps), value
        accepted = rule
        refused = max(rule) + 1 if f.type is int else rule[0] + "x"
    elif isinstance(rule, str):
        accepted, refused = (f.default, 0.0) if rule == "non-negative" else (f.default,), -1.0
    else:
        accepted, refused = (rule,), rule - 1
    for value in accepted:
        assert getattr(load_config(None, {f.name: value}), f.name) == value
    with pytest.raises(ConfigError, match=f.name):
        load_config(None, {f.name: refused})
