import importlib.util
import json
import pickle
from pathlib import Path

import numpy as np
import pytest

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
        (index,) = [i for i, row in enumerate(script.CASES) if row.case.startswith("27-cell panel, converged")]
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


def case_index(script, case):
    (index,) = [i for i, row in enumerate(script.CASES) if row.case == case]
    return index


class TestCommandLine:
    def test_measure_without_stacks_exits_2(self):
        with pytest.raises(SystemExit) as exit_info:
            load_script().main(["--measure", "0"])
        assert exit_info.value.code == 2

    def test_out_is_refused(self, tmp_path, capsys):
        # a --measure that would get past parsing fails on the missing stacks file instead
        argv = ["--measure", "0", "--stacks", str(tmp_path / "none"), "--out", str(tmp_path / "BENCH_x.json")]
        with pytest.raises(SystemExit) as exit_info:
            load_script().main(argv)
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --out" in capsys.readouterr().err

    def test_record_then_measure_prints_one_row_a_case(self, tmp_path, capsys):
        script = load_script()
        stacks = tmp_path / "stacks.pickle"
        assert script.main(["--record", str(stacks)]) == 0
        recorded = case_index(script, "zero tensor dim 2, 2000 starts")
        plain = case_index(script, "order-2 dim-4 centro tensor, 1000 calls")
        capsys.readouterr()
        assert script.main(["--measure", str(recorded), str(plain), "--stacks", str(stacks)]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [r["case"] for r in rows] == [script.CASES[recorded].case, script.CASES[plain].case]
        assert rows[0]["sizes"]["pairs"] == 2000

    def test_rows_go_to_the_one_layer_record(self):
        script = load_script()
        assert script.RECORD == SCRIPT.parent.parent / "BENCH_layers.json"
        assert script.RECORD.exists()


class TestCaseTable:
    def test_every_layer_is_a_callable_of_the_package(self):
        import centrotensor

        script = load_script()
        for row in script.CASES:
            assert callable(script.layer_callable(centrotensor, row.layer)), row.layer

    def test_no_two_rows_share_a_key(self):
        # merge_records keys rows by (git_rev, layer, case): a shared key
        # would replace one case's row with another's
        keys = [(row.layer, row.case) for row in load_script().CASES]
        assert len(set(keys)) == len(keys)


class TestRecordLayout:
    FIELDS = {"layer", "case", "sizes", "seed", "best_s", "median_s", "reps", "git_rev"}

    def test_record_is_one_array_of_complete_rows(self):
        rows = json.loads(load_script().RECORD.read_text())
        assert isinstance(rows, list) and rows
        for row in rows:
            # best_of is optional: the oldest rows predate it
            assert self.FIELDS <= set(row) <= self.FIELDS | {"best_of"}, row

    def test_record_keeps_one_row_per_line(self):
        script = load_script()
        text = script.RECORD.read_text()
        rows = json.loads(text)
        assert text.splitlines() == ["["] + [json.dumps(r) + "," for r in rows[:-1]] + [json.dumps(rows[-1]), "]"]
        assert script.record_text(rows) == text


class TestOrder2Cases:
    """The order-2 case names count the eig-survey panel's cells and name their path."""

    def test_case_names_match_the_panel(self, monkeypatch):
        from centrotensor import eigen

        script = load_script()
        direct, fallback = script._survey_order2(False), script._survey_order2(True)
        assert len(script._survey_order2()) == 15
        assert (len(direct), len(fallback)) == (13, 2)
        names = {row.case for row in script.CASES}
        assert "order 2: the seed-1 eig-survey panel's 13 direct-path cells" in names
        assert "order 2: the seed-1 eig-survey panel's 2 palindromic Cauchy n=4 cells" in names
        assert "order 2: the seed-1 eig-survey panel's 15 cells, every pair 20 times" in names
        assert all(c.family == "cauchy" and c.dim == 4 for c in fallback)
        answers = []
        matrix_solve = eigen._matrix_solve

        def watched(*args):
            answers.append(matrix_solve(*args))
            return answers[-1]

        monkeypatch.setattr(eigen, "_matrix_solve", watched)
        for cells, takes_direct_path in ((direct, True), (fallback, False)):
            answers.clear()
            for c in cells:
                eigen.solve_eigen(c.tensor, starts=200, seed=c.solve_seed)
            assert [a is not None for a in answers] == [takes_direct_path] * len(cells)
