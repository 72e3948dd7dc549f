import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

from centrotensor import (
    CauchySpec,
    DenseTensor,
    check_structure,
    decompose,
    hadamard,
    materialize,
    random_structured,
)
import centrotensor
from centrotensor import cli, core, serialize
from centrotensor.cli import main
from centrotensor.serialize import dumps, tensor_to_obj
from oracles import format_value_oracle


def write_tensor(path, tensor):
    path.write_text(dumps(tensor_to_obj(tensor)) + "\n")
    return str(path)


def process_env(**env):
    """os.environ with these additions, and this package first on PYTHONPATH."""
    package_root = str(Path(centrotensor.__file__).resolve().parents[1])
    search_path = filter(None, [package_root, os.environ.get("PYTHONPATH")])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(search_path), **env)


def run_process(argv, **env):
    """Run the CLI in a fresh Python process with these environment additions."""
    return subprocess.run(
        [sys.executable, "-m", "centrotensor.cli", *argv],
        capture_output=True, text=True, env=process_env(**env), timeout=120,
    )


def run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        import io
        import sys

        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def sym_file(tmp_path, sym_matrix):
    return write_tensor(tmp_path / "sym.json", sym_matrix)


class TestCheck:
    def test_cauchy_tensor_is_centro(self, tmp_path, capsys):
        tensor = materialize(CauchySpec(np.array([1.0, 2.0, 1.0]), 2))
        path = write_tensor(tmp_path / "c.json", tensor)
        code, out, _ = run(capsys, ["check", path])
        assert code == 0
        assert json.loads(out)["verdict"] == "centrosymmetric"

    @pytest.mark.parametrize("method", ["direct", "sandwich", "commutation"])
    def test_matches_library_call(self, method, sym_file, capsys, sym_matrix):
        code, out, _ = run(capsys, ["check", sym_file, "--method", method])
        assert code == 0
        assert json.loads(out) == check_structure(sym_matrix).as_dict()

    def test_reads_stdin(self, capsys, monkeypatch, sym_matrix):
        payload = dumps(tensor_to_obj(sym_matrix))
        code, out, _ = run(capsys, ["check", "-"], stdin=payload, monkeypatch=monkeypatch)
        assert code == 0
        assert json.loads(out)["verdict"] == "centrosymmetric"

    def test_malformed_json_exits_2_with_position(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"order": 2,')
        code, out, err = run(capsys, ["check", str(bad)])
        assert code == 2
        assert "line" in err and "column" in err

    def test_wrong_entry_count_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "short.json"
        bad.write_text('{"order": 2, "dim": 2, "entries": [1, 2, 3]}')
        code, _, err = run(capsys, ["check", str(bad)])
        assert code == 2
        assert "entries" in err or "expected" in err

    def test_huge_integer_entry_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "huge.json"
        bad.write_text('{"order": 1, "dim": 1, "entries": [' + "9" * 400 + "]}")
        code, out, err = run(capsys, ["check", str(bad)])
        assert code == 2
        assert out == ""
        assert "too large for a float" in err and "Traceback" not in err

    def test_absurd_order_exits_2_as_count_mismatch(self, tmp_path, capsys):
        bad = tmp_path / "absurd.json"
        bad.write_text('{"order": 10000000, "dim": 2, "entries": [1.0]}')
        code, out, err = run(capsys, ["check", str(bad)])
        assert code == 2
        assert out == ""
        assert "expected 2**10000000 entries" in err and "Traceback" not in err

    def test_order_past_numpy_limit_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "deep.json"
        bad.write_text('{"order": 1000000, "dim": 1, "entries": [1.0]}')
        code, out, err = run(capsys, ["check", str(bad)])
        assert code == 2
        assert out == ""
        assert "exceeds the limit of 64" in err and "Traceback" not in err

    @pytest.mark.parametrize("method", ["direct", "sandwich", "commutation"])
    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_bad_tolerance_exits_2(self, method, tol, sym_file, capsys):
        code, out, err = run(capsys, ["check", sym_file, "--method", method, "--tol", tol])
        assert code == 2
        assert out == ""
        assert "tol" in err

    @pytest.mark.parametrize("method", ["direct", "sandwich", "commutation"])
    def test_negative_zero_tolerance_is_reported_as_zero(self, method, sym_file, capsys):
        code, out, _ = run(capsys, ["check", sym_file, "--method", method, "--tol", "-0.0"])
        assert code == 0
        assert '"tolerance_used": 0}' in out
        assert math.copysign(1.0, json.loads(out)["tolerance_used"]) == 1.0

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run(capsys, ["check", "/does/not/exist.json"])
        assert code == 2

    @pytest.mark.parametrize("method", ["sandwich", "commutation"])
    def test_order_one_exchange_views_exit_2(self, method, tmp_path, capsys):
        # the product's A*J view names itself, not shao_product's left operand
        path = tmp_path / "v.json"
        path.write_text('{"order": 1, "dim": 3, "entries": [1.0, 2.0, 1.0]}')
        code, out, err = run(capsys, ["check", str(path), "--method", method])
        assert code == 2
        assert out == ""
        assert err == "error: the exchange action A*J needs a tensor of order >= 2, got order 1\n"


class TestGen:
    def test_deterministic_output(self, capsys):
        code1, out1, _ = run(capsys, ["gen", "--dim", "3", "--order", "3", "--kind", "skew", "--seed", "4"])
        code2, out2, _ = run(capsys, ["gen", "--dim", "3", "--order", "3", "--kind", "skew", "--seed", "4"])
        assert code1 == code2 == 0
        assert out1 == out2

    def test_generated_kind_checks_out(self, capsys):
        code, out, _ = run(capsys, ["gen", "--dim", "4", "--order", "2", "--kind", "centro", "--seed", "8"])
        assert code == 0
        obj = json.loads(out)
        tensor = DenseTensor.from_entries(obj["order"], obj["dim"], obj["entries"])
        assert check_structure(tensor).verdict == "centrosymmetric"

    def test_matches_library_generator(self, capsys):
        code, out, _ = run(capsys, ["gen", "--dim", "2", "--order", "2", "--kind", "general", "--seed", "11"])
        expected = random_structured(2, 2, "general", 11)
        assert json.loads(out)["entries"] == expected.entries.tolist()

    def test_identity_and_exchange_kinds(self, capsys):
        code, out, _ = run(capsys, ["gen", "--dim", "2", "--order", "3", "--kind", "identity"])
        assert json.loads(out)["entries"] == [1.0, 0, 0, 0, 0, 0, 0, 1.0]
        code, out, _ = run(capsys, ["gen", "--dim", "2", "--kind", "exchange"])
        assert json.loads(out)["entries"] == [0, 1.0, 1.0, 0]

    @pytest.mark.parametrize("order", ["0", "-1"])
    def test_identity_below_order_1_exits_2(self, order, capsys):
        code, out, err = run(capsys, ["gen", "--dim", "3", "--order", order, "--kind", "identity"])
        assert code == 2
        assert out == ""
        assert err == "error: tensor order must be at least 1\n"

    @pytest.mark.parametrize("kind", ["centro", "skew", "general", "identity", "exchange"])
    @pytest.mark.parametrize("dim", ["0", "-2"])
    def test_dimension_below_1_exits_2(self, dim, kind, capsys):
        code, out, err = run(capsys, ["gen", "--dim", dim, "--kind", kind])
        assert code == 2
        assert out == ""
        assert err == "error: dimension must be positive\n"

    @pytest.mark.parametrize("kind", ["centro", "skew", "general", "identity", "exchange"])
    def test_over_the_entry_cap_exits_1(self, kind, capsys, monkeypatch):
        monkeypatch.setattr(core, "DEFAULT_ENTRY_CAP", 8)
        code, out, err = run(capsys, ["gen", "--dim", "3", "--order", "2", "--kind", kind])
        assert code == 1
        assert out == ""
        assert "9 entries, exceeding the cap 8" in err and "Traceback" not in err

    def test_closed_stdout_exits_quietly(self):
        # 160000 entries, far more than a pipe buffers: the write meets a closed pipe
        argv = ["gen", "--order", "4", "--dim", "20", "--kind", "centro"]
        with subprocess.Popen(
            [sys.executable, "-m", "centrotensor.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=process_env(),
        ) as proc:
            assert len(proc.stdout.read(20)) == 20
            proc.stdout.close()
            _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0
        assert err == b""

    def test_ct_seed_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("CT_SEED", "31")
        _, out_env, _ = run(capsys, ["gen", "--dim", "3", "--order", "2"])
        _, out_zero, _ = run(capsys, ["gen", "--dim", "3", "--order", "2", "--seed", "0"])
        monkeypatch.delenv("CT_SEED")
        _, out_default, _ = run(capsys, ["gen", "--dim", "3", "--order", "2"])
        assert out_env == out_zero == out_default


class TestProducts:
    def test_prod_identity_action(self, tmp_path, capsys, sym_matrix):
        ident = write_tensor(tmp_path / "i.json", DenseTensor.identity(2, 2))
        sym = write_tensor(tmp_path / "a.json", sym_matrix)
        code, out, _ = run(capsys, ["prod", ident, sym])
        assert code == 0
        assert json.loads(out)["entries"] == [2.0, 1.0, 1.0, 2.0]

    def test_prod_cap_exceeded_is_domain_error(self, tmp_path, capsys, monkeypatch):
        a = write_tensor(tmp_path / "a.json", DenseTensor.zeros(3, 2))
        monkeypatch.setattr(core, "DEFAULT_ENTRY_CAP", 8)
        code, _, err = run(capsys, ["prod", a, a])
        assert code == 1
        assert "cap" in err

    def test_prod_over_the_default_cap_exits_1(self, tmp_path, capsys):
        # 41^5 result entries, refused before anything is contracted
        a = write_tensor(tmp_path / "a.json", DenseTensor.zeros(3, 41))
        code, out, err = run(capsys, ["prod", a, a])
        assert code == 1
        assert out == ""
        assert err == (
            "error: product of order 5 dim 41 has 115856201 entries, exceeding the cap 67108864\n"
        )

    def test_prod_takes_no_cap(self, capsys):
        assert main(["prod", "--help"]) == 0
        assert "--cap" not in capsys.readouterr().out

    @pytest.mark.parametrize("dim", [1, 2])
    def test_prod_past_64_axes_exits_2(self, dim, tmp_path, capsys):
        # two order-9 factors give a product of order (9-1)(9-1)+1 = 65
        a = write_tensor(tmp_path / "a.json", DenseTensor.zeros(9, dim))
        code, out, err = run(capsys, ["prod", a, a])
        assert code == 2
        assert out == ""
        assert err == "error: order 65 exceeds the limit of 64 axes\n"

    def test_exchange_products_equal_tensordot_bits_without_negative_zeros(self, tmp_path, capsys):
        # seed 1: the skew tensor's centre entry is -0.0 (at seed 0 it is +0.0)
        outputs = {}
        for name, argv in (
            ("S", ["gen", "--kind", "skew", "--dim", "3", "--seed", "1"]),
            ("J", ["gen", "--kind", "exchange", "--dim", "3"]),
            ("SJ", ["prod", str(tmp_path / "S.json"), str(tmp_path / "J.json")]),
            ("JS", ["prod", str(tmp_path / "J.json"), str(tmp_path / "S.json")]),
        ):
            code, outputs[name], _ = run(capsys, argv)
            assert code == 0
            (tmp_path / f"{name}.json").write_text(outputs[name])
        assert "-0," in outputs["S"]

        def load(name):
            obj = json.loads(outputs[name])
            return np.array(obj["entries"]).reshape((obj["dim"],) * obj["order"])

        s, j = load("S"), load("J")
        for name, want in (("SJ", np.tensordot(s, j, axes=(1, 0))), ("JS", np.tensordot(j, s, axes=(1, 0)))):
            got = load(name)
            assert got.tobytes() == want.tobytes(), name
            assert not np.any(np.signbit(got) & (got == 0)), name
            assert "-0," not in outputs[name] and "-0]" not in outputs[name], name

    def test_hadamard(self, tmp_path, capsys, sym_matrix):
        path = write_tensor(tmp_path / "a.json", sym_matrix)
        code, out, _ = run(capsys, ["hadamard", path, path])
        assert json.loads(out)["entries"] == [4.0, 1.0, 1.0, 4.0]

    def test_shape_mismatch_exits_2(self, tmp_path, capsys, sym_matrix):
        a = write_tensor(tmp_path / "a.json", sym_matrix)
        b = write_tensor(tmp_path / "b.json", DenseTensor.zeros(2, 3))
        code, _, err = run(capsys, ["hadamard", a, b])
        assert code == 2


class TestDecompose:
    def test_split_matches_library(self, tmp_path, capsys):
        path = write_tensor(tmp_path / "t.json", DenseTensor(np.array([[1.0, 2.0], [3.0, 4.0]])))
        code, out, _ = run(capsys, ["decompose", path])
        assert code == 0
        obj = json.loads(out)
        assert obj["centro"]["entries"] == [2.5, 2.5, 2.5, 2.5]
        assert obj["skew"]["entries"] == [-1.5, -0.5, 0.5, 1.5]


class TestNegativeZeroThroughFiles:
    def test_verbs_on_a_written_skew_tensor_match_the_library_bytes(self, tmp_path, capsys):
        # at the default seed the skew tensor's centre entry is -0.0, which
        # the file holds as a bare -0 and every reader must give back
        skew_file, centro_file = str(tmp_path / "S.json"), str(tmp_path / "C.json")
        for kind, path in (("skew", skew_file), ("centro", centro_file)):
            code, _, _ = run(capsys, ["gen", "--order", "3", "--dim", "3", "--kind", kind, "-o", path])
            assert code == 0
        skew, centro = random_structured(3, 3, "skew", 0), random_structured(3, 3, "centro", 0)
        assert np.signbit(skew.data[1, 1, 1]) and skew.data[1, 1, 1] == 0.0
        assert ", -0, " in Path(skew_file).read_text()
        parts = decompose(skew)
        for argv, want in (
            (["decompose", skew_file],
             {"centro": tensor_to_obj(parts.centro), "skew": tensor_to_obj(parts.skew)}),
            (["hadamard", skew_file, centro_file], tensor_to_obj(hadamard(skew, centro))),
        ):
            out = tmp_path / "out.json"
            code, _, _ = run(capsys, [*argv, "-o", str(out)])
            assert code == 0
            assert out.read_text() == dumps(want) + "\n", argv[0]


class TestMirroredFiles:
    """Files the mirrored writer writes and the mirrored reader reads, end to
    end through the verbs: each file holds the per-item "%.17g" text of its
    entries."""

    @staticmethod
    def assert_per_item_text(path):
        data = path.read_text(encoding="utf-8")
        # parse_int keeps the sign of a bare -0
        assert data == format_value_oracle(json.loads(data, parse_int=float)) + "\n", path.name

    def test_skew_decompose_and_palindromic_cauchy_files(self, tmp_path, capsys):
        # order 3 dim 5 (125 entries) takes the plain writer and json's parser;
        # order 4 dim 5 (625 entries, 12 kB, a signed-zero middle entry) takes
        # both kernels and their mirrored paths
        for order in (3, 4):
            tensor, parts = tmp_path / f"S{order}.json", tmp_path / f"D{order}.json"
            code, _, _ = run(capsys, ["gen", "--order", str(order), "--dim", "5", "--kind", "skew",
                                      "--seed", "0", "-o", str(tensor)])
            assert code == 0
            code, out, _ = run(capsys, ["check", str(tensor)])
            assert (code, json.loads(out)["verdict"]) == (0, "skew-centrosymmetric")
            code, _, _ = run(capsys, ["decompose", str(tensor), "-o", str(parts)])
            assert code == 0
            for path in (tensor, parts):
                self.assert_per_item_text(path)
        middle = json.loads((tmp_path / "S4.json").read_text())["entries"][312]
        assert middle == 0
        assert len((tmp_path / "S4.json").read_bytes()) >= serialize._KERNEL_MIN_CHARS
        spec, built = tmp_path / "spec.json", tmp_path / "C.json"
        spec.write_text('{"order": 4, "generating": [0.5, 1.25, 2.0, 0.75, 2.0, 1.25, 0.5]}\n')
        code, _, _ = run(capsys, ["cauchy", str(spec), "-o", str(built)])
        assert code == 0
        self.assert_per_item_text(built)


# finite tensors whose A + rev(A) or A - rev(A) overflows
NEAR_LIMIT = {
    "plus": [1e308, 1e308, 1e308, 1e308],
    "minus": [1e308, -1e308, 1e308, 1e308],
}


def _strict_json(text):
    def refuse(constant):
        raise ValueError(f"non-JSON constant {constant}")

    return json.loads(text, parse_constant=refuse)


class TestNearTheFloatLimit:
    """Overflowing deviations give strict JSON, exit 0 and silent stderr."""

    @staticmethod
    def _run(capsys, tmp_path, name, argv):
        path = write_tensor(tmp_path / "t.json", DenseTensor.from_entries(2, 2, NEAR_LIMIT[name]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, argv[:1] + [path] + argv[1:])
        assert (code, err) == (0, "")
        return _strict_json(out)

    @pytest.mark.parametrize("name", NEAR_LIMIT)
    @pytest.mark.parametrize("method", ["direct", "sandwich", "commutation"])
    def test_check(self, name, method, tmp_path, capsys):
        obj = self._run(capsys, tmp_path, name, ["check", "--method", method])
        if name == "minus":
            assert obj["verdict"] == "neither" and obj["max_violation"] is None
        else:
            assert obj["verdict"] == "centrosymmetric" and obj["max_violation"] == 0

    @pytest.mark.parametrize("name", NEAR_LIMIT)
    def test_decompose(self, name, tmp_path, capsys):
        obj = self._run(capsys, tmp_path, name, ["decompose"])
        centro, skew = np.array(obj["centro"]["entries"]), np.array(obj["skew"]["entries"])
        assert np.array_equal(centro + skew, NEAR_LIMIT[name])


BIG = float(np.finfo(float).max)
# results with no float64 value: each verb must exit 1, silently but for its error
OVERFLOWING = {
    "prod": (
        ["prod", "{0}", "{1}"],
        [[3, 2, [5e-324, -1.0, 1e-308, 0.0, 0.0, 0.0, 1.0, -1e308]],
         [2, 2, [-BIG, 5e-324, -5e-324, -BIG]]],
        "general product overflows float64",
    ),
    "hadamard": (
        ["hadamard", "{0}", "{0}"], [[2, 2, [1e200] * 4]], "entrywise product overflows float64"
    ),
    "inverse-left": (
        ["inverse", "{0}", "--side", "left", "--order", "3"],
        [[3, 2, [1e200, 0, 0, 0, 0, 0, 0, 1e200]]],
        "index 1 overflows or underflows float64",
    ),
    "inverse-right": (
        ["inverse", "{0}", "--side", "right", "--order", "3"],
        [[3, 2, [5e-324, 0, 0, 0, 0, 0, 0, 5e-324]]],
        "index 1 overflows or underflows float64",
    ),
}


@pytest.mark.parametrize("name", OVERFLOWING)
def test_overflowing_result_exits_1(name, tmp_path, capsys):
    argv, tensors, message = OVERFLOWING[name]
    paths = [
        write_tensor(tmp_path / f"t{i}.json", DenseTensor.from_entries(*tensor))
        for i, tensor in enumerate(tensors)
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, [arg.format(*paths) for arg in argv])
    assert (code, out) == (1, "")
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("threads", ["1", "2"])
def test_overflowing_product_exits_1_with_threaded_blas(threads, tmp_path):
    # Row 26 of A is 1e200, so its product with B (entries near 1e100)
    # passes 1e400 in the last contraction.  That gemm is large enough for
    # OpenBLAS to split across threads, and an overflow in a worker thread
    # sets no floating-point flag numpy can see; the product must still
    # exit 1.  On a 1-core machine both runs take the one-thread path, so
    # they cannot tell the two outcomes apart.
    rng = np.random.default_rng(0)
    a = rng.uniform(0.5, 1.0, size=(26,) * 3)
    a[-1] = 1e200
    b = rng.uniform(0.5, 1.0, size=(26,) * 3) * 1e100
    paths = [write_tensor(tmp_path / f"{name}.json", DenseTensor(t)) for name, t in (("a", a), ("b", b))]
    proc = run_process(["prod", *paths], OPENBLAS_NUM_THREADS=threads)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert "general product overflows float64" in proc.stderr
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr


@pytest.mark.parametrize("m,n", [(5, 8), (4, 7), (3, 5)])
def test_eig_stdout_is_the_same_with_1_and_2_blas_threads(m, n, tmp_path):
    # The BLAS thread count is read when numpy loads, so each count needs
    # its own process.  Every contraction's first stage is a gemm on 8-row
    # blocks (of x (x) x when it takes two slots), whose bits must not
    # depend on how OpenBLAS splits the work.
    path = write_tensor(tmp_path / "a.json", random_structured(m, n, "centro", seed=0))
    outs = []
    for threads in ("1", "2"):
        proc = run_process(["eig", path], OPENBLAS_NUM_THREADS=threads)
        assert (proc.returncode, proc.stderr) == (0, "")
        outs.append(proc.stdout)
    assert json.loads(outs[0])["pairs"]
    assert outs[0] == outs[1]


class TestEig:
    def test_finds_matrix_pairs(self, sym_file, capsys):
        code, out, _ = run(capsys, ["eig", sym_file, "--starts", "50", "--seed", "2"])
        assert code == 0
        obj = json.loads(out)
        values = sorted(p["value"] for p in obj["pairs"])
        assert np.allclose(values, [1.0, 3.0], atol=1e-9)
        assert obj["stats"]["attempted"] == 50

    @pytest.mark.parametrize(
        "flags", [["--starts", "-5"], ["--tol", "-1"], ["--tol", "nan"], ["--tol", "inf"]]
    )
    def test_invalid_solver_input_exits_2(self, flags, sym_file, capsys):
        code, out, err = run(capsys, ["eig", sym_file, "--seed", "1"] + flags)
        assert code == 2
        assert out == ""
        assert "starts" in err or "tol" in err

    def test_stack_over_the_cap_exits_1(self, sym_file, capsys, monkeypatch):
        monkeypatch.setattr(core, "DEFAULT_ENTRY_CAP", 339)
        code, out, err = run(capsys, ["eig", sym_file, "--starts", "10"])
        assert code == 1
        assert out == ""
        assert "340 entries, exceeding the cap 339" in err and "Traceback" not in err

    def test_pairs_print_in_value_vector_order(self, tmp_path, capsys):
        # a merge that depended on the visiting order printed these pairs
        # with two inversions
        _, tensor, _ = run(capsys, "gen --order 3 --dim 4 --kind centro --seed 0".split())
        (tmp_path / "centro.json").write_text(tensor)
        code, out, _ = run(capsys, ["eig", str(tmp_path / "centro.json"), "--starts", "200"])
        assert code == 0
        keys = [(p["value"], *p["vector"]) for p in json.loads(out)["pairs"]]
        assert len(keys) == 10
        assert all(a < b for a, b in zip(keys, keys[1:]))

    def test_byte_identical_reruns(self, sym_file, capsys):
        _, out1, _ = run(capsys, ["eig", sym_file, "--starts", "20", "--seed", "3"])
        _, out2, _ = run(capsys, ["eig", sym_file, "--starts", "20", "--seed", "3"])
        assert out1 == out2


# The tensors of the eig contract checks, each as the verb that makes it;
# "{spec}" is a spec file with a palindromic generating vector, whose
# Cauchy tensor has a continuum of pairs at value 0.
EIG_CONTRACT_TENSORS = {
    "centro": ["gen", "--order", "3", "--dim", "4", "--kind", "centro", "--seed", "0"],
    "cauchy": ["cauchy", "{spec}", "--mode", "materialize"],
    "centro-order-4": ["gen", "--order", "4", "--dim", "4", "--kind", "centro", "--seed", "0"],
    "skew-order-5": ["gen", "--order", "5", "--dim", "3", "--kind", "skew", "--seed", "0"],
}
EIG_ENDS = ("converged", "rejected", "stalled", "non_finite", "max_iter")


class TestEigContracts:
    """Start accounting, merge order and residuals of `eig` at its defaults."""

    @staticmethod
    def _tensor(name, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text('{"order": 3, "generating": [0.7, 1.9, 1.9, 0.7]}')
        argv = [str(spec) if arg == "{spec}" else arg for arg in EIG_CONTRACT_TENSORS[name]]
        code, out, _ = run(capsys, argv)
        assert code == 0
        return out

    @pytest.mark.parametrize("name", ["centro"])
    def test_every_start_ends_exactly_one_way(self, name, tmp_path, capsys, monkeypatch):
        tensor = self._tensor(name, tmp_path, capsys)
        code, out, _ = run(capsys, ["eig", "-"], stdin=tensor, monkeypatch=monkeypatch)
        assert code == 0
        stats = json.loads(out)["stats"]
        assert sum(stats[end] for end in EIG_ENDS) == stats["attempted"]

    @pytest.mark.parametrize("name", ["centro", "cauchy"])
    def test_kept_pairs_are_ordered_and_apart(self, name, tmp_path, capsys):
        (tmp_path / "tensor.json").write_text(self._tensor(name, tmp_path, capsys))
        code, out, _ = run(capsys, ["eig", str(tmp_path / "tensor.json")])
        assert code == 0
        obj = json.loads(out)
        pairs, stats = obj["pairs"], obj["stats"]
        # converged starts are merged or kept
        assert stats["converged"] == stats["deduplicated"] + len(pairs)
        keys = [(p["value"], *p["vector"]) for p in pairs]
        assert all(a < b for a, b in zip(keys, keys[1:]))
        for i, p in enumerate(pairs):
            x = np.array(p["vector"])
            for q in pairs[i + 1 :]:
                y = np.array(q["vector"])
                gap = min(np.linalg.norm(x - y), np.linalg.norm(x + y))
                assert not (abs(p["value"] - q["value"]) <= 1e-8 and gap <= 1e-6)

    @pytest.mark.parametrize("name", ["centro-order-4", "skew-order-5"])
    def test_printed_pairs_solve_the_equation(self, name, tmp_path, capsys):
        tensor = self._tensor(name, tmp_path, capsys)
        (tmp_path / "tensor.json").write_text(tensor)
        code, out, _ = run(capsys, ["eig", str(tmp_path / "tensor.json")])
        assert code == 0
        obj = json.loads(tensor)
        m, n = obj["order"], obj["dim"]
        a = np.array(obj["entries"]).reshape((n,) * m)
        pairs = json.loads(out)["pairs"]
        assert pairs
        for p in pairs:
            x = np.array(p["vector"])
            # (A x^{m-1})_i, recomputed with x on every trailing slot
            ax = np.einsum(a, list(range(m)), *[op for k in range(1, m) for op in (x, [k])], [0])
            assert np.max(np.abs(ax - p["value"] * np.power(x, m - 1))) <= 1e-9, p


class TestEigNearTheFloatLimit:
    """Finite tensors whose start values or Jacobians overflow.

    Run as a console process with a timeout: a non-finite Jacobian once
    reached least squares, which spun without returning.
    """

    TENSORS = {
        "order-2": {"order": 2, "dim": 2, "entries": [1e308] * 4},
        "order-3": {
            "order": 3,
            "dim": 2,
            "entries": [1e308, -1e308, 1e308, 1e308, 1e308, 1e308, -1e308, 1e308],
        },
    }

    @pytest.mark.parametrize("name", TENSORS)
    def test_returns_strict_json_with_every_start_counted(self, name, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(json.dumps(self.TENSORS[name]))
        proc = run_process(["eig", str(path), "--starts", "5"])
        assert (proc.returncode, proc.stderr) == (0, "")
        stats = _strict_json(proc.stdout)["stats"]
        ends = ("converged", "rejected", "stalled", "non_finite", "max_iter")
        assert stats["attempted"] == 5
        assert sum(stats[end] for end in ends) == 5
        # solved on A / 2^1023: order 2 keeps its pair (0, (1, -1)/sqrt 2);
        # order 3's values times 2^1023 pass the float maximum, so are rejected
        pairs = _strict_json(proc.stdout)["pairs"]
        assert (len(pairs), stats["rejected"]) == ((1, 3) if name == "order-2" else (0, 5))


class TestCauchyVerb:
    def test_materialize(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text('{"order": 2, "generating": [1.0, 2.0, 1.0]}')
        code, out, _ = run(capsys, ["cauchy", str(spec_path)])
        assert code == 0
        entries = json.loads(out)["entries"]
        assert np.isclose(entries[0], 0.5)

    # name -> spec, and None for a tensor equal bit for bit to the
    # whole-array reciprocals, or the message of a refusal
    BUILDS = {
        # 12^4 rows of 12 sums, in 8 blocks of 2730 rows
        "eight-blocks": (
            '{"order": 5, "generating": [0.3, 1.7, 0.9, 2.2, 0.45, 1.1, 1.1, 0.45, 2.2, 0.9, 1.7, 0.3]}',
            None,
        ),
        # the only vanishing sum is the last index's, whose sorted multiset
        # is in the last block
        "last-block-multiset": (
            '{"order": 5, "generating": [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0]}',
            "multiset (12, 12, 12, 12, 12)",
        ),
        # (1, 3, 1, 3) sums left to right to exactly 0, while every sorted
        # multiset sum overflows or is far from 0
        "zero-sum": (
            '{"order": 4, "generating": [1e308, 1e308, -1e308, -1e308]}',
            "at index (1, 3, 1, 3) has no finite reciprocal",
        ),
        # (1, 2, 2) is the first index whose sum passes the float maximum
        "overflowed-sum": (
            '{"order": 3, "generating": [1e307, 1e308, 1e308]}',
            "at index (1, 2, 2) is not finite",
        ),
    }

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("name", BUILDS)
    def test_materialize_is_the_whole_array_build(self, name, tmp_path, capsys):
        spec, refusal = self.BUILDS[name]
        (tmp_path / "spec.json").write_text(spec)
        code, out, err = run(capsys, ["cauchy", str(tmp_path / "spec.json")])
        if refusal is not None:
            assert (code, out) == (1, "")
            assert refusal in err and "Traceback" not in err
            return
        assert (code, err) == (0, "")
        order, generating = json.loads(spec).values()
        c, obj = np.array(generating), json.loads(out)
        assert (obj["order"], obj["dim"]) == (order, c.size)
        want = 1.0 / reduce(np.add.outer, [c] * order)
        assert np.array(obj["entries"]).tobytes() == want.tobytes()

    # name -> spec, centro, skew: a palindrome is centro, an even
    # anti-palindrome skew, a general vector neither
    CHECKS = {
        "general-order-2": ('{"order": 2, "generating": [1, 2, 3]}', False, False),
        "palindrome": ('{"order": 3, "generating": [1.0, 2.0, 1.0]}', True, False),
        "anti-palindrome": ('{"order": 3, "generating": [1.0, 2.0, -2.0, -1.0]}', False, True),
        "general": ('{"order": 3, "generating": [1.0, 2.0, 3.0]}', False, False),
    }

    @pytest.mark.parametrize("name", CHECKS)
    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_check_mode(self, name, source, tmp_path, capsys, monkeypatch):
        spec, centro, skew = self.CHECKS[name]
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(spec)
        if source == "file":
            code, out, _ = run(capsys, ["cauchy", str(spec_path), "--mode", "check"])
        else:
            code, out, _ = run(capsys, ["cauchy", "-", "--mode", "check"], spec, monkeypatch)
        assert code == 0
        obj = json.loads(out)
        order, generating = json.loads(spec).values()
        assert obj == {"order": order, "dim": len(generating), "centro": centro, "skew": skew}

    def test_invalid_spec_exits_1(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text('{"order": 2, "generating": [1, -1]}')
        code, _, err = run(capsys, ["cauchy", str(spec_path)])
        assert code == 1
        assert "sum" in err

    def test_overflowing_sums_exit_1_without_warning(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text('{"order": 2, "generating": [1e308, 1e308]}')
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, ["cauchy", str(spec_path)])
        assert code == 1
        assert out == ""
        assert "inf at index (1, 1) is not finite" in err and "Traceback" not in err

    def test_check_mode_at_the_float_limit_is_silent(self, tmp_path, capsys):
        # c - Jc overflows; the vector is classified as an order-1 tensor
        spec_path = tmp_path / "spec.json"
        spec_path.write_text('{"order": 3, "generating": [1e308, -1e308]}')
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, ["cauchy", str(spec_path), "--mode", "check"])
        assert (code, err) == (0, "")
        assert _strict_json(out) == {"order": 3, "dim": 2, "centro": False, "skew": True}

    def test_huge_integer_component_exits_2(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text('{"order": 2, "generating": [1, ' + "9" * 400 + "]}")
        code, out, err = run(capsys, ["cauchy", str(spec_path), "--mode", "check"])
        assert code == 2
        assert out == ""
        assert "too large for a float" in err and "Traceback" not in err

    def test_order_past_numpy_limit_exits_2(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text('{"order": 1000000, "generating": [1.0]}')
        code, out, err = run(capsys, ["cauchy", str(spec_path)])
        assert code == 2
        assert out == ""
        assert "exceeds the limit of 64" in err and "Traceback" not in err

    def test_oversized_tensor_is_refused_before_building(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text('{"order": 40, "generating": [1.0, 2.0]}')
        code, out, err = run(capsys, ["cauchy", str(spec_path)])
        assert code == 1
        assert out == ""
        assert "exceeding the cap" in err and "Traceback" not in err


class TestInverseVerb:
    def test_diagonal_left(self, tmp_path, capsys):
        data = np.zeros((2, 2, 2))
        data[0, 0, 0] = 2.0
        data[1, 1, 1] = 2.0
        path = write_tensor(tmp_path / "d.json", DenseTensor(data))
        code, out, _ = run(capsys, ["inverse", path, "--side", "left", "--order", "3"])
        assert code == 0
        obj = json.loads(out)
        assert obj["found"] is True
        assert obj["residual"] <= 1e-13

    def test_diagonal_left_with_an_over_cap_check_product(self, tmp_path, capsys):
        # order 4 dim 16: B*A would have order 7 and 16^7 entries
        diag = np.concatenate([np.arange(1.0, 9.0), np.arange(8.0, 0.0, -1.0)])
        path = write_tensor(tmp_path / "d.json", DenseTensor.diagonal(4, diag))
        code, out, err = run(capsys, ["inverse", path, "--side", "left", "--order", "3"])
        assert (code, err) == (0, "")
        obj = json.loads(out)
        assert obj["found"] is True and obj["order"] == 3
        assert obj["residual"] <= 1e-15

    def test_matrix_recovery_failure_exits_1(self, tmp_path, capsys):
        path = write_tensor(tmp_path / "a.json", random_structured(3, 3, "centro", seed=1))
        code, out, _ = run(capsys, ["inverse", path, "--side", "left", "--order", "2"])
        assert code == 1
        assert json.loads(out)["found"] is False

    def test_identity_recovery(self, tmp_path, capsys):
        path = write_tensor(tmp_path / "i.json", DenseTensor.identity(4, 2))
        code, out, _ = run(capsys, ["inverse", path, "--side", "right", "--order", "2"])
        assert code == 0
        assert json.loads(out)["inverse"]["entries"] == [1.0, 0, 0, 1.0]

    @pytest.mark.parametrize(
        "side,order", [("right", "3"), ("left", "3"), ("left", "2")]
    )
    def test_order_one_tensor_exits_2(self, side, order, tmp_path, capsys):
        path = tmp_path / "v.json"
        path.write_text('{"order": 1, "dim": 3, "entries": [1.0, 2.0, 1.0]}')
        argv = ["inverse", str(path), "--side", side, "--order", order]
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert "order >= 2, got order 1" in err and "Traceback" not in err

    def test_singular_slice_prints_parseable_json(self, tmp_path, capsys):
        path = write_tensor(tmp_path / "z.json", DenseTensor.zeros(4, 2))
        code, out, _ = run(capsys, ["inverse", path, "--side", "left"])
        assert code == 1
        obj = json.loads(out)
        assert obj["found"] is False and obj["condition"] is None
        assert "cond inf" in obj["reason"]

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_overflowing_matrix_inverse_exits_1(self, side, capsys, monkeypatch):
        # the slice is well conditioned, but 1 / 5e-324 overflows float64
        tensor = '{"order": 2, "dim": 2, "entries": [5e-324, 0, 0, 5e-324]}'
        code, out, err = run(capsys, ["inverse", "-", "--side", side], tensor, monkeypatch)
        assert code == 1
        assert err == ""
        assert json.loads(out) == {
            "found": False, "side": side, "reason": "candidate inverse overflows float64",
            "condition": 1.0, "residual": None,
        }

    @pytest.mark.parametrize(
        "side,order",
        [("left", "2"), ("right", "2"), ("left", "3"), ("right", "3")],
        ids=["left", "right", "left-3", "right-3"],
    )
    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_bad_tolerance_exits_2(self, side, order, tol, tmp_path, capsys):
        path = write_tensor(tmp_path / "i.json", DenseTensor.identity(4, 2))
        argv = ["inverse", path, "--side", side, "--order", order, "--tol", tol]
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert "tol must be finite and nonnegative" in err and "Traceback" not in err


class TestVerifyAll:
    def test_small_run_passes(self, capsys):
        code, out, _ = run(capsys, ["verify-all", "--seed", "3", "--trials", "8"])
        assert code == 0
        assert json.loads(out)["all_passed"] is True

    def test_zero_trials(self, capsys):
        code, out, _ = run(capsys, ["verify-all", "--trials", "0"])
        assert code == 0
        assert json.loads(out)["checks"] == []

    def test_corruption_fails_and_names_check(self, capsys, fail_check):
        fail_check("row-sum-reflection")
        code, out, _ = run(capsys, ["verify-all", "--seed", "3", "--trials", "8"])
        assert code == 1
        report = json.loads(out)
        failing = [c["name"] for c in report["checks"] if not c["passed"]]
        assert failing == ["row-sum-reflection"]


class TestOutputFile:
    def test_writes_to_path(self, tmp_path, capsys, sym_matrix):
        src = write_tensor(tmp_path / "a.json", sym_matrix)
        dst = tmp_path / "out.json"
        code, out, _ = run(capsys, ["check", src, "-o", str(dst)])
        assert code == 0
        assert out == ""
        assert json.loads(dst.read_text())["verdict"] == "centrosymmetric"

    # verb arguments, exit code; inverse-none's order-2 recovery finds no
    # inverse and verify-all-fail runs with one check made to fail, the two
    # negative answers printed as data
    VERBS = {
        "gen": ("gen --order 3 --dim 3 --kind skew --seed 2", 0),
        "check": ("check {dir}/centro.json --method sandwich", 0),
        "prod": ("prod {dir}/centro.json {dir}/centro.json", 0),
        "hadamard": ("hadamard {dir}/centro.json {dir}/centro.json", 0),
        "decompose": ("decompose {dir}/centro.json", 0),
        "eig": ("eig {dir}/centro.json --starts 10", 0),
        "cauchy": ("cauchy {dir}/spec.json", 0),
        "inverse": ("inverse {dir}/diag.json --side left --order 3", 0),
        "inverse-none": ("inverse {dir}/centro.json --side left --order 2", 1),
        "verify-all": ("verify-all --seed 3 --trials 2", 0),
        "verify-all-fail": ("verify-all --seed 3 --trials 2", 1),
    }

    @pytest.mark.parametrize("name", VERBS)
    def test_file_holds_the_stdout_bytes(self, name, tmp_path, capsys, fail_check):
        write_tensor(tmp_path / "centro.json", random_structured(3, 3, "centro", seed=1))
        write_tensor(tmp_path / "diag.json", DenseTensor.diagonal(3, np.array([2.0, 2.0])))
        (tmp_path / "spec.json").write_text('{"order": 3, "generating": [0.5, 1.5, 0.5]}')
        if name == "verify-all-fail":
            fail_check("row-sum-reflection")
        command, want = self.VERBS[name]
        argv = command.format(dir=tmp_path).split()
        code, printed, _ = run(capsys, argv)
        assert code == want
        dst = tmp_path / "out.json"
        code, out, _ = run(capsys, argv + ["-o", str(dst)])
        assert (code, out) == (want, "")
        assert printed.endswith("}\n") and dst.read_bytes() == printed.encode()


def test_usage_error_exits_2(capsys):
    assert main(["check"]) == 2
    capsys.readouterr()


class TestOneParser:
    """main builds its parser once per process and reuses it."""

    def test_two_calls_build_one_parser(self, capsys, monkeypatch):
        built = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
        cli._parser.cache_clear()
        assert main(["gen", "--dim", "2"]) == 0
        assert main(["verify-all", "--trials", "0"]) == 0
        assert len(built) == 1
        capsys.readouterr()

    # verbs that set the options the probes leave at their defaults
    SET = (["eig", "{sym}", "--starts", "7", "--seed", "3", "--tol", "1e-9"],
           ["verify-all", "--seed", "2", "--trials", "1"])
    PROBES = {
        "help": ["--help"],
        "verb-help": ["eig", "--help"],
        "usage-error": ["eig", "--starts"],
        "eig-defaults": ["eig", "{sym}"],
        "verify-all-defaults": ["verify-all"],
    }

    @pytest.mark.parametrize("probe", PROBES)
    def test_a_reused_parser_prints_as_a_fresh_one(self, probe, sym_file, capsys):
        def argv(words):
            return [w.format(sym=sym_file) for w in words]

        cli._parser.cache_clear()
        fresh = run(capsys, argv(self.PROBES[probe]))
        parser = cli._parser()
        for words in self.SET:
            assert run(capsys, argv(words))[0] == 0
        assert run(capsys, argv(self.PROBES[probe])) == fresh
        assert cli._parser() is parser
        assert fresh[0] == (2 if probe == "usage-error" else 0)


# sha256 of stdout for fixed inputs, recorded before poly_eval, the
# polynomial reflection and the closed forms moved onto contract_trailing;
# any change to these bytes is a change of output.  prod and the sandwich
# and commutation checks are left out: their last bits depend on the
# machine's BLAS.  verify-all (whose suite solves eigenpairs) was
# recorded with numpy 2.4 on OpenBLAS 0.3.31, before the solver's powers
# became left-to-right products, which keeps every bit below order 4;
# eig at orders 2 and 3 was re-recorded on the same BLAS when
# contract_trailing's first slot became 8-row gemm blocks, and eig at order
# 3 again when its first stage took the last two slots at once, on each
# row's outer product x (x) x.  eig at order 2 was re-recorded when a
# simple-spectrum matrix began taking LAPACK's eigenpairs (np.linalg.eig)
# in place of Newton's.  Another BLAS or LAPACK may round them
# differently.  The order-3 inverse passes a valid --tol, which that path
# accepts and ignores.
GOLDEN = {
    "gen": (
        "gen --order 3 --dim 4 --kind general --seed 5",
        "1111359cea6d2ecb083ee65d0169276d4db5549cec9ab5ed7f01106b01c380ef",
    ),
    "check": (
        "check {dir}/centro.json --method direct",
        "8b0fcd68a636afffd981efb7a87c38e3254c9d944b91d7d082cbb2ee4f35c6e2",
    ),
    "decompose": (
        "decompose {dir}/general.json",
        "333847d0a1978e9d664b8399ccc326bedcc7781cb2c25f753d680ef05d442a46",
    ),
    "cauchy": (
        "cauchy {dir}/spec.json",
        "448ee631bf74e0f1570c7de79ecb3e06f96b37fcf4fef859db4391d7c0f2aec6",
    ),
    "cauchy-check": (
        "cauchy {dir}/spec.json --mode check",
        "f0df9aa8ae05b4e4559fda76052cf57bf0e2665fc8cb532fe59bd9b6779dadc2",
    ),
    "inverse": (
        "inverse {dir}/diag.json --side left --order 3 --tol 1e-3",
        "dec0e6aa56e23e9427fd7dbae6c4a065ed57972b5cf1bfd7ab5c69edd16b4d27",
    ),
    "eig-order2": (
        "eig {dir}/centro2.json",
        "0b1cba856fc10df95bf5c2e06f28c5b2141c92de1b90edb43f4659859656bb1c",
    ),
    "eig-order3": (
        "eig {dir}/centro3.json",
        "7c61783b606d7023c15c70370d0bf8a53d186c646fec67496f162282d6383845",
    ),
    "verify-all": (
        "verify-all --seed 0 --trials 40",
        "e9a822b8e4cdda6d6f09a18bd1d51d44acf022aed773d90684a763d6806a274a",
    ),
}


@pytest.mark.parametrize("name", GOLDEN)
def test_golden_stdout(name, tmp_path, capsys):
    write_tensor(tmp_path / "general.json", random_structured(3, 4, "general", seed=5))
    write_tensor(tmp_path / "centro.json", random_structured(3, 4, "centro", seed=5))
    # the tensors of `gen --order {2,3} --dim 4 --kind centro --seed 0`
    write_tensor(tmp_path / "centro2.json", random_structured(2, 4, "centro", seed=0))
    write_tensor(tmp_path / "centro3.json", random_structured(3, 4, "centro", seed=0))
    (tmp_path / "spec.json").write_text('{"order": 3, "generating": [0.5, 1.5, 2.5, 1.5, 0.5]}')
    write_tensor(tmp_path / "diag.json", DenseTensor.diagonal(3, np.array([2.0, 2.0])))
    command, expected = GOLDEN[name]
    code, out, err = run(capsys, command.format(dir=tmp_path).split())
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == expected
