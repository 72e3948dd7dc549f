import importlib.util
import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_layers.py"
SRC = SCRIPT.parent.parent / "src"
_TREE_NAMES = itertools.count()


def load_script():
    spec = importlib.util.spec_from_file_location("bench_layers", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def trees():
    """A loader of a src directory's package under a fresh module name; the
    modules it loaded leave sys.modules after the test."""
    names = []

    def load(script, src):
        names.append(f"centrotensor_tree_{next(_TREE_NAMES)}")
        return script.load_tree(names[-1], src)

    yield load
    for key in [k for k in sys.modules if k.split(".")[0] in names]:
        del sys.modules[key]


def head_without_direct_path(tmp_path):
    """A copy of src whose solver sends every order-2 matrix to the multistart
    path, so it hands eigen._dedup other stacks than src's does."""
    package = tmp_path / "src" / "centrotensor"
    shutil.copytree(SRC / "centrotensor", package, ignore=shutil.ignore_patterns("__pycache__"))
    eigen = package / "eigen.py"
    text = eigen.read_text()
    assert text.count("\nORDER2_GAP = 1e-6\n") == 1
    eigen.write_text(text.replace("\nORDER2_GAP = 1e-6\n", '\nORDER2_GAP = float("inf")\n'))
    return package.parent


def case_index(script, case):
    (index,) = [i for i, row in enumerate(script.CASES) if row.case == case]
    return index


class TestCaseProcess:
    def test_both_commits_are_timed_on_the_base_stacks(self, tmp_path, trees):
        script = load_script()
        (index,) = [i for i, row in enumerate(script.CASES) if row.case.startswith("27-cell panel, converged")]
        head = head_without_direct_path(tmp_path)
        recorder = script.CASES[index].record
        base_stacks = recorder(trees(script, SRC))
        assert len(recorder(trees(script, head))) != len(base_stacks)
        # the case process records the stacks at the base commit and times both commits on them
        argv = [sys.executable, str(SCRIPT), "--case", str(index), str(SRC), str(head), "--reps", "1"]
        out = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=True).stdout
        rows = json.loads(out)
        case = script.CASES[index].case
        assert [(r["layer"], r["case"], r["reps"]) for r in rows] == [("eigen._dedup", case, 1)] * 2
        for row in rows:
            assert row["sizes"]["stacks"] == len(base_stacks)
            assert row["sizes"]["pairs"] == sum(len(stack[0]) for stack in base_stacks)

    def test_two_trees_share_no_module_state(self, trees):
        from centrotensor import eigen

        script = load_script()
        a, b = trees(script, SRC), trees(script, SRC)
        assert a.eigen is not b.eigen and a.eigen is not eigen
        assert a.core.DenseTensor is not b.core.DenseTensor
        assert a.eigen.core is a.core and b.eigen.core is b.core
        assert script.layer_callable(a, "eigen._dedup") is a.eigen._dedup
        assert script.layer_callable(b, "cli.main") is b.cli.main
        a.eigen.ORDER2_GAP = np.inf
        assert b.eigen.ORDER2_GAP == eigen.ORDER2_GAP == 1e-6

    def test_plain_cases_give_one_row_per_commit(self, trees):
        # each commit builds its own input, so the writer's isinstance test
        # sees its own DenseTensor
        script = load_script()
        libs = [trees(script, SRC), trees(script, SRC)]
        eig = case_index(script, "eig -o on a 4x4 symmetric centro matrix file, 200 starts, 100 calls")
        dumps = case_index(script, "order-2 dim-4 centro DenseTensor, 1000 calls")
        (load,) = [i for i, row in enumerate(script.CASES) if row.layer == "cli._load_tensor"]
        cases = ((eig, "cli.main", 100), (dumps, "serialize.dumps", 1000), (load, "cli._load_tensor", 1))
        for index, layer, calls in cases:
            rows = script.time_case(index, libs, 2)
            assert [(r["layer"], r["sizes"]["calls"], r["reps"]) for r in rows] == [(layer, calls, 2)] * 2
            assert all(0 < r["best_s"] <= r["median_s"] and 1 <= r["best_of"] <= script.BEST_OF_MAX for r in rows)
            # both commits take the best of as many calls
            assert rows[0]["best_of"] == rows[1]["best_of"]

    def test_reps_alternate_which_commit_runs_first(self, monkeypatch):
        script = load_script()
        ran = []

        def build(lib, fn):
            def run():
                ran.append(lib)
                return {"base": 1 / 64, "head": 1 / 4}[lib]

            return {"calls": 1}, run

        monkeypatch.setattr(script, "CASES", [script.Case("eigen.solve_eigen", "one call", build)])
        monkeypatch.setattr(script, "layer_callable", lambda lib, layer: None)
        # a run takes the time it returns: 1 s fits 64 base calls (30 at most) and 4 head calls
        monkeypatch.setattr(script, "_timed", lambda run: run())
        monkeypatch.setattr(script, "BEST_OF_S", 1.0)
        rows = script.time_case(0, ["base", "head"], 4)
        # the two warm-ups, then base first in even reps and head first in
        # odd ones, each the best of the slower warm-up's 4 calls
        rep_pair = ["base"] * 4 + ["head"] * 4 + ["head"] * 4 + ["base"] * 4
        assert ran == ["base", "head"] + rep_pair * 2
        assert [(r["reps"], r["best_of"], r["best_s"]) for r in rows] == [(4, 4, 1 / 64), (4, 4, 1 / 4)]


class TestCommandLine:
    def test_base_is_required(self):
        with pytest.raises(SystemExit) as exit_info:
            load_script().main([])
        assert exit_info.value.code == 2

    @pytest.mark.parametrize("reps", ["0", "-1"])
    def test_reps_below_1_exits_2(self, reps, capsys):
        with pytest.raises(SystemExit) as exit_info:
            load_script().main(["--base", "HEAD", "--reps", reps])
        assert exit_info.value.code == 2
        assert f"--reps must be at least 1, got {reps}" in capsys.readouterr().err

    def test_out_is_refused(self, tmp_path, capsys):
        argv = ["--base", "HEAD", "--out", str(tmp_path / "BENCH_x.json")]
        with pytest.raises(SystemExit) as exit_info:
            load_script().main(argv)
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --out" in capsys.readouterr().err

    def test_head_is_refused(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            load_script().main(["--base", "HEAD", "--head", "worktree"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --head worktree" in capsys.readouterr().err

    @staticmethod
    def fake_subprocess(script, monkeypatch, cases, unknown=()):
        """git rev-parse names abc1234, or fails on a name in unknown, git
        archive and tar do nothing, and a case process, noted in cases,
        prints a row per commit."""
        def run(argv, **kwargs):
            if "rev-parse" in argv and argv[-1] in unknown:
                return subprocess.CompletedProcess(argv, 128, stdout="", stderr="fatal: Needed a single revision\n")
            if argv[0] != sys.executable:
                return subprocess.CompletedProcess(argv, 0, stdout="abc1234\n" if "rev-parse" in argv else b"")
            cases.append((argv[2:], kwargs["env"]["OPENBLAS_NUM_THREADS"]))
            layer, case = script.CASES[int(argv[3])][:2]
            rows = [{"layer": layer, "case": case, "best_s": s, "median_s": s} for s in (1.0, 2.0)]
            return subprocess.CompletedProcess(argv, 0, stdout=json.dumps(rows))

        monkeypatch.setattr(script, "subprocess", SimpleNamespace(run=run, PIPE=subprocess.PIPE))

    def test_an_unknown_base_exits_2_with_gits_message(self, capsys, monkeypatch):
        script, cases = load_script(), []
        self.fake_subprocess(script, monkeypatch, cases, unknown=("nosuchrev",))
        with pytest.raises(SystemExit) as exit_info:
            script.main(["--base", "nosuchrev"])
        assert exit_info.value.code == 2
        assert "nosuchrev: fatal: Needed a single revision" in capsys.readouterr().err
        assert cases == []

    def test_a_run_starts_one_process_per_case(self, tmp_path, monkeypatch):
        script, cases = load_script(), []
        self.fake_subprocess(script, monkeypatch, cases)
        monkeypatch.setattr(script, "RECORD", tmp_path / "BENCH.json")
        assert script.main(["--base", "HEAD", "--reps", "3"]) == 0
        assert len(cases) == len(script.CASES)
        for index, (args, threads) in enumerate(cases):
            assert args[:2] == ["--case", str(index)] and args[4:] == ["--reps", "3"]
            assert Path(args[2]).name == "src" and args[3] == str(SRC)
            assert threads == "1"
        rows = json.loads(script.RECORD.read_text())
        expected = [(rev, row.layer, row.case, s) for rev, s in (("abc1234", 1.0), ("abc1234-dirty", 2.0))
                    for row in script.CASES]
        assert [(r["git_rev"], r["layer"], r["case"], r["best_s"]) for r in rows] == expected

    def test_a_run_rewrites_the_record_as_its_one_comparison(self, tmp_path, monkeypatch):
        script, cases = load_script(), []
        self.fake_subprocess(script, monkeypatch, cases)
        monkeypatch.setattr(script, "RECORD", tmp_path / "BENCH.json")
        old = [{"layer": row.layer, "case": row.case, "best_s": 9.0, "git_rev": rev}
               for rev in ("abc1234", "abc1234-dirty", "0123456") for row in script.CASES]
        script.RECORD.write_text(script.record_text(old))
        for _ in range(2):
            assert script.main(["--base", "HEAD", "--reps", "1"]) == 0
            rows = json.loads(script.RECORD.read_text())
            assert len(rows) == 2 * len(script.CASES)
            assert {r["git_rev"] for r in rows} == {"abc1234", "abc1234-dirty"}
            assert all(r["best_s"] in (1.0, 2.0) for r in rows)

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
        # a record's rows are told apart by (git_rev, layer, case): a shared
        # key would make two cases' rows indistinguishable
        keys = [(row.layer, row.case) for row in load_script().CASES]
        assert len(set(keys)) == len(keys)


class TestRecordLayout:
    FIELDS = {"layer", "case", "sizes", "seed", "best_s", "median_s", "reps", "best_of", "git_rev"}

    def test_record_is_one_array_of_complete_rows(self):
        rows = json.loads(load_script().RECORD.read_text())
        assert isinstance(rows, list) and rows
        for row in rows:
            assert set(row) == self.FIELDS, row

    def test_record_holds_one_comparison(self):
        rows = json.loads(load_script().RECORD.read_text())
        revs = {row["git_rev"] for row in rows}
        assert len(revs) == 2 and sum(rev.endswith("-dirty") for rev in revs) == 1, revs
        keys = [(row["git_rev"], row["layer"], row["case"]) for row in rows]
        assert len(set(keys)) == len(keys)

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
