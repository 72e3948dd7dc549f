"""The CI workflow's 2-BLAS-thread rerun selects its tests by name with
-k, and a renamed test would drop out of it silently."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"


def test_two_thread_rerun_selects_defined_tests():
    (command,) = [line for line in WORKFLOW.read_text().splitlines() if ' -k "' in line]
    files = re.findall(r"tests/\w+\.py", command)
    names = re.search(r'-k "([^"]+)"', command).group(1).split(" or ")
    assert files and names
    sources = [(ROOT / path).read_text() for path in files]
    for name in names:
        pattern = rf"^\s*(def|class) {re.escape(name)}\b"
        assert any(re.search(pattern, text, re.MULTILINE) for text in sources), name
