"""scripts/probe_definiteness.py prints '-' for a cell with no finite value,
under the suite's RuntimeWarning-as-error filter."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "probe_definiteness.py"


def test_all_nan_cells_print_a_dash_without_a_warning(capsys):
    spec = importlib.util.spec_from_file_location("probe_definiteness", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    # at seed 3 one cell has only NaN shifts and another only NaN smallest eigenvalues
    script.main(["--trials", "1", "--samples", "10", "--starts", "5", "--seed", "3"])
    _, *rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    # m, n, definite, min f, min lambda, avg shift
    assert len(rows) == 6 and all(len(row) == 6 for row in rows)
    lambdas, shifts = [row[4] for row in rows], [row[5] for row in rows]
    assert "-" in lambdas and "-" in shifts and "nan" not in lambdas + shifts
