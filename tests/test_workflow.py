"""The CI workflow names tests and script options that tier-1 can check:
the 2-BLAS-thread rerun selects its tests by name with -k, and the script
smoke runs scripts/bench_layers.py with its options, so a renamed test or
flag would drop out of CI or fail only there."""

import importlib.util
import re
import shlex
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"
BENCH_LAYERS = "scripts/bench_layers.py"


def test_two_thread_rerun_selects_defined_tests():
    (command,) = [line for line in WORKFLOW.read_text().splitlines() if ' -k "' in line]
    files = re.findall(r"tests/\w+\.py", command)
    names = re.search(r'-k "([^"]+)"', command).group(1).split(" or ")
    assert files and names
    sources = [(ROOT / path).read_text() for path in files]
    for name in names:
        pattern = rf"^\s*(def|class) {re.escape(name)}\b"
        assert any(re.search(pattern, text, re.MULTILINE) for text in sources), name


def test_bench_layers_runs_pass_defined_options():
    spec = importlib.util.spec_from_file_location("bench_layers", ROOT / BENCH_LAYERS)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    defined = {flag for action in script.build_parser()._actions for flag in action.option_strings}
    commands = [line.split(BENCH_LAYERS, 1)[1] for line in WORKFLOW.read_text().splitlines() if BENCH_LAYERS in line]
    flags = [word.split("=")[0] for command in commands for word in shlex.split(command) if word.startswith("-")]
    assert flags
    for flag in flags:
        assert flag in defined, flag
