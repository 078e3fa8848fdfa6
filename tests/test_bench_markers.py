"""The benchmark's command lines and item markers fit the program.

Each workload's command lines must parse and pass config validation; a
renamed or retyped flag would otherwise show only as a failed benchmark run.

`bench/worker.py` times the items of a pass by replacing each (module,
function) marker of a command with a wrapper, set on `vsr3d.<module>`. The
wrapper is reached only when that module calls the function through its own
globals, so a marker broken by a rename or a move is never called, and the
benchmark then reports only that no pass completed.
"""

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from vsr3d.cli import _build_parser
from vsr3d.config import FIELD_TYPES, load_config

BENCH = Path(__file__).resolve().parent.parent / "bench"
# top-level modules that loading bench/workloads.py imports from bench/
BENCH_MODULES = ("inputs", "reference")


def load_workloads():
    """bench/workloads.py as a module, leaving sys.path and sys.modules as
    they were: bench's `inputs` and `reference` would otherwise shadow any
    later top-level import of those names."""
    name = "bench_workloads"
    saved_path = list(sys.path)
    saved = {key: sys.modules.get(key) for key in BENCH_MODULES + (name,)}
    sys.path.insert(0, str(BENCH))
    try:
        spec = importlib.util.spec_from_file_location(name, BENCH / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved_path
        for key, value in saved.items():
            if value is None:
                sys.modules.pop(key, None)
            else:
                sys.modules[key] = value
    return module


WORKLOADS = load_workloads().WORKLOADS


def called_names(module) -> set[str]:
    """Names the module's code calls directly, as `name(...)`."""
    tree = ast.parse(inspect.getsource(module))
    return {node.func.id for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}


def test_loading_leaves_no_bench_modules():
    before = {key: sys.modules.get(key) for key in BENCH_MODULES}
    path = list(sys.path)
    load_workloads()
    assert {key: sys.modules.get(key) for key in BENCH_MODULES} == before
    assert sys.path == path


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_markers_are_globals_their_module_calls(name, tmp_path):
    commands = WORKLOADS[name](7, tmp_path).commands(tmp_path / "pass")
    assert commands
    for command in commands:
        for mod, func in (command.start_marker, command.end_marker):
            module = importlib.import_module(f"vsr3d.{mod}")
            assert callable(vars(module).get(func)), f"{command.name}: vsr3d.{mod}.{func} missing"
            assert func in called_names(module), (
                f"{command.name}: vsr3d.{mod} never calls {func} by that name")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_command_lines_parse_and_validate(name, tmp_path):
    # the same parse and config load that `cli.main` runs before any command
    parser = _build_parser()
    for command in WORKLOADS[name](7, tmp_path).commands(tmp_path / "pass"):
        args = parser.parse_args(command.argv)
        assert args.command == command.argv[0]
        overrides = {key: ",".join(value) if isinstance(value, list) else value
                     for key, value in vars(args).items() if key in FIELD_TYPES}
        load_config(args.config, overrides)
