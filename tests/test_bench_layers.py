import importlib.util
import json
import pickle
from pathlib import Path

import numpy as np

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_layers.py"


def load_script():
    spec = importlib.util.spec_from_file_location("bench_layers", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def row(rev, layer, case, best):
    return {"layer": layer, "case": case, "best_s": best, "git_rev": rev}


class TestMergeRecords:
    def test_missing_file_takes_the_new_rows(self, tmp_path):
        rows = [row("a", "x", "1", 1.0), row("b", "x", "1", 2.0)]
        assert load_script().merge_records(tmp_path / "BENCH.json", rows) == rows

    def test_replaces_matching_rows_in_place_and_appends_the_rest(self, tmp_path):
        path = tmp_path / "BENCH.json"
        old = [row("a", "x", "1", 1.0), row("a", "y", "1", 2.0), row("b", "x", "1", 3.0)]
        path.write_text(json.dumps(old))
        new = [row("b", "x", "1", 4.0), row("a", "x", "2", 5.0), row("c", "x", "1", 6.0)]
        assert load_script().merge_records(path, new) == [
            row("a", "x", "1", 1.0),
            row("a", "y", "1", 2.0),
            row("b", "x", "1", 4.0),
            row("a", "x", "2", 5.0),
            row("c", "x", "1", 6.0),
        ]


class TestRecordedStacks:
    def test_both_commits_are_timed_on_the_base_stacks(self, tmp_path, monkeypatch):
        import centrotensor
        from centrotensor import eigen

        script = load_script()
        (index,) = [i for i, (_, case, _) in enumerate(script.CASES) if case.startswith("27-cell panel, converged")]
        path = tmp_path / "stacks.pickle"
        base = script.record(centrotensor, [index])
        path.write_bytes(pickle.dumps(base))
        # a head whose solver hands the merge other stacks: every matrix of
        # the panel takes the multistart path
        monkeypatch.setattr(eigen, "ORDER2_GAP", np.inf)
        own = script.record(centrotensor, [index])[index]
        assert len(own) != len(base[index])
        # measure reads the file, so its sizes are the base stacks'
        (row,) = script.measure([index], path)
        assert row["sizes"]["stacks"] == len(base[index])
        assert row["sizes"]["pairs"] == sum(len(stack[0]) for stack in base[index])
