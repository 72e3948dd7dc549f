#!/usr/bin/env python3
"""Check that the tests kill each mutant of a fixed table.

    python3 scripts/mutants.py

Each row of MUTANTS names a file of the tree, text that occurs in it
exactly once, the text that replaces it, and the tests (pytest node ids)
that must fail once it is replaced.  The script copies ``src`` and
``tests`` of the checked-out tree (uncommitted changes included) into a
temporary directory, runs every row's tests there once unchanged, which
must pass, and then, for one row at a time, applies the row to a fresh
copy of its file, runs only that row's tests and restores the file.  It
prints one line per row, ``killed`` or ``survived``, and exits 1 unless
every row is killed.  No mutation-testing package is needed.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple


_DIRECT = "tests/test_eigen.py::TestOrder2DirectPath::"
_READER = "tests/test_serialize.py::TestTensorReader::"
_MERGE = "tests/test_eigen.py::TestMergeAgainstLoop::"
_SUITE = "tests/test_suite.py::"
_MIRROR_WRITER = "tests/test_serialize.py::TestMirroredWriter::"
_MIRROR_READER = "tests/test_serialize.py::TestMirroredReader::"

MUTANTS = [
    Mutant(
        "ORDER2_GAP lowered below DEDUP_VALUE_TOL",
        "src/centrotensor/eigen.py",
        "ORDER2_GAP = 1e-6\n",
        "ORDER2_GAP = 5e-9\n",
        (
            _DIRECT + "test_pairs_just_past_the_gap_are_what_the_merge_keeps",
            _DIRECT + "test_merge_keeps_values_past_the_gap_whatever_their_vectors",
        ),
    ),
    Mutant(
        "DEDUP_VALUE_TOL raised past ORDER2_GAP",
        "src/centrotensor/eigen.py",
        "DEDUP_VALUE_TOL = 1e-8\n",
        "DEDUP_VALUE_TOL = 2e-6\n",
        (_DIRECT + "test_merge_keeps_values_past_the_gap_whatever_their_vectors",),
    ),
    Mutant(
        "the direct path's value order reversed",
        "src/centrotensor/eigen.py",
        'kept = np.argsort(lams, kind="stable")',
        'kept = np.argsort(-lams, kind="stable")',
        (_DIRECT + "test_direct_path_on_the_matrix_panel",),
    ),
    Mutant(
        "reflect_pair without apply's checks on the caller's vector",
        "src/centrotensor/eigen.py",
        "xs = core._check_stack(a, normalize_eigenvector(flip_vector(pair.vector))[None, :])",
        "xs = normalize_eigenvector(flip_vector(pair.vector))[None, :]",
        ("tests/test_eigen.py::TestReflectPair::test_vector_of_wrong_length_rejected",),
    ),
    Mutant(
        "the reader's tie test dropped, so an exact tie keeps its quotient",
        "src/centrotensor/serialize.py",
        "ok[read[(np.abs(twice) == scale) | ",
        "ok[read[False | ",
        (_READER + "test_midpoints_between_doubles",),
    ),
    Mutant(
        "the reader's power-of-two test dropped, so a value below one steps by the wrong spacing",
        "src/centrotensor/serialize.py",
        " | ((m == _HIDDEN) & (twice < 0))]] = False",
        "]] = False",
        (_READER + "test_hard_cases[powers-of-ten]", _READER + "test_hard_cases[round-up]",
         _READER + "test_hard_cases[powers-of-two]"),
    ),
    Mutant(
        "the reader's remainder scaled by 2^5, not 2^9, so its shift goes negative",
        "src/centrotensor/serialize.py",
        "np.array([5**k << 9 for k in range(23)], np.int64), np.arange(1084, 1061,",
        "np.array([5**k << 5 for k in range(23)], np.int64), np.arange(1080, 1057,",
        (_READER + "test_fixed_seed_sweeps", _READER + "test_integers_up_to_18_digits[near-1e17]"),
    ),
    Mutant(
        "the reader's kernel threshold raised to 20,000 characters",
        "src/centrotensor/serialize.py",
        "_KERNEL_MIN_CHARS = 10_000\n",
        "_KERNEL_MIN_CHARS = 20_000\n",
        ("tests/test_serialize.py::TestReaderThreshold::test_the_kernel_starts_at_ten_thousand_characters",),
    ),
    Mutant(
        "the writer's kernel threshold doubled to 384 floats",
        "src/centrotensor/serialize.py",
        "_KERNEL_MIN_FLOATS = 192\n",
        "_KERNEL_MIN_FLOATS = 384\n",
        ("tests/test_serialize.py::TestWriterThreshold::test_the_kernel_starts_at_192_floats[array]",
         "tests/test_serialize.py::TestWriterThreshold::test_the_kernel_starts_at_192_floats[list]"),
    ),
    Mutant(
        "the reader's leading-zero rule dropped, so 01 is read",
        "src/centrotensor/serialize.py",
        "    ok &= (buf[first] != 48) | (first + 1 == ends) | (buf[first + 1] == 46)\n",
        "",
        (_READER + "test_non_numbers_fail_as_loads_does",),
    ),
    Mutant(
        "the reader's single-digit shortcut accepting a non-digit byte",
        "src/centrotensor/serialize.py",
        "if np.any(digit > 9):",
        "if False:",
        (_READER + "test_non_numbers_fail_as_loads_does",),
    ),
    Mutant(
        "the mirrored back half keeps the front's sign",
        "src/centrotensor/serialize.py",
        "    if flip:\n        out[:, 0] ^= _SIGN_BYTE\n",
        "    if False:\n        out[:, 0] ^= _SIGN_BYTE\n",
        (_MIRROR_WRITER + "test_text_is_the_per_item_join[193-skew]",
         _MIRROR_WRITER + "test_specials_at_mirrored_positions[skew]"),
    ),
    Mutant(
        "the reader's mirrored back half keeps the front's sign",
        "src/centrotensor/serialize.py",
        "-entries[at] if negate else entries[at]",
        "entries[at]",
        (_MIRROR_READER + "test_reads_as_loads[193-skew]",),
    ),
    Mutant(
        "the reader mirrors without comparing bytes",
        "src/centrotensor/serialize.py",
        "    return not np.any(differ & np.take(_reader_tables()[0], size, axis=1).T)\n",
        "    return True\n",
        (_MIRROR_READER + "test_an_edited_back_token[one-digit-centro]",
         _MIRROR_READER + "test_an_edited_back_token[one-digit-skew]"),
    ),
    Mutant(
        "decompose's skew mirror as -(h - hr)",
        "src/centrotensor/structure.py",
        "np.subtract(hr[:k], h[:k], out=",
        "np.negative(h[:k] - hr[:k], out=",
        ("tests/test_structure.py::TestMirroredSplit::"
         "test_an_equal_pair_has_a_positive_zero_skew_part_at_both_ends[default-4]",),
    ),
    Mutant(
        "materialize mirrors a non-palindromic c",
        "src/centrotensor/cauchy.py",
        "_mirror_flip(c.view(np.uint64), _BLOCK) == 0",
        "c[0] == c[-1]",
        ("tests/test_cauchy.py::TestPalindromicBuild::test_bits_and_errors_of_the_full_build[default-c6-3]",),
    ),
    Mutant(
        "materialize mirrors an anti-palindromic c, taking the sign-bit flip",
        "src/centrotensor/cauchy.py",
        "_mirror_flip(c.view(np.uint64), _BLOCK) == 0",
        "_mirror_flip(c.view(np.uint64), _BLOCK) is not None",
        ("tests/test_cauchy.py::TestPalindromicBuild::test_an_anti_palindrome_is_built_in_full[default]",),
    ),
    Mutant(
        "the pair walk counts an odd size's middle entry as a proper pair",
        "src/centrotensor/core.py",
        "min(start + block, size // 2) - start",
        "min(start + block, (size + 1) // 2) - start",
        ("tests/test_core.py::TestMirrorPairing::test_blocks_visit_each_position_once[2]",),
    ),
    Mutant(
        "the CLI's usage errors exiting 1, not 2",
        "src/centrotensor/cli.py",
        "        return 2\n",
        "        return 1\n",
        ("tests/test_cli.py::TestCheck::test_malformed_json_exits_2_with_position",),
    ),
    Mutant(
        "the CLI's domain errors exiting 2, not 1",
        "src/centrotensor/cli.py",
        "        return 1\n    # a negative answer",
        "        return 2\n    # a negative answer",
        ("tests/test_cli.py::TestGen::test_over_the_entry_cap_exits_1",),
    ),
    Mutant(
        "the entry cap refusing a count equal to it",
        "src/centrotensor/core.py",
        "    if count > cap:\n",
        "    if count >= cap:\n",
        ("tests/test_core.py::TestCapMessages::test_message_text",),
    ),
    Mutant(
        "the solver's entry cap without the line search's screen",
        "src/centrotensor/eigen.py",
        "starts * (n + 1) ** 2, starts * 2 * _DAMPS.size)",
        "starts * (n + 1) ** 2)",
        ("tests/test_eigen.py::TestSolveEigen::test_stack_over_the_cap_is_refused_before_drawing[2-2-10-340]",
         "tests/test_eigen.py::TestSolveEigen::test_stack_over_the_cap_is_refused_before_drawing[3-2-11-374]"),
    ),
    Mutant(
        "the solver's entry cap without the Jacobian stack",
        "src/centrotensor/eigen.py",
        "stack = max(_stack_entries(starts, m, n), starts * (n + 1) ** 2, starts * 2 * _DAMPS.size)",
        "stack = max(_stack_entries(starts, m, n), starts * 2 * _DAMPS.size)",
        ("tests/test_eigen.py::TestSolveEigen::test_stack_over_the_cap_is_refused_before_drawing[2-8-8-648]",),
    ),
    Mutant(
        "apply without its entry cap on a stack",
        "src/centrotensor/core.py",
        "        _check_cap(\n"
        "            _stack_entries(rows, a.order, a.dim), \"stack of %s vectors on order %s dim %s\", rows, a.order, a.dim\n"
        "        )\n",
        "        pass\n",
        ("tests/test_core.py::TestApply::test_stack_over_the_cap_is_refused_before_contracting",),
    ),
    Mutant(
        "the diagonal inverse's off-diagonal tolerance raised to 1e-10",
        "src/centrotensor/inverse.py",
        "_DIAGONAL_TOL_FACTOR = 1e-14\n",
        "_DIAGONAL_TOL_FACTOR = 1e-10\n",
        ("tests/test_inverse.py::TestDiagonalLeftInverse::"
         "test_off_diagonal_entries_up_to_1e_14_of_the_entry_scale_pass",),
    ),
    Mutant(
        "DEFAULT_COND_THRESHOLD raised to 1e16",
        "src/centrotensor/inverse.py",
        "DEFAULT_COND_THRESHOLD = 1e12\n",
        "DEFAULT_COND_THRESHOLD = 1e16\n",
        ("tests/test_inverse.py::TestRecoverLeft::test_condition_threshold_is_1e12[2^-40]",),
    ),
    Mutant(
        "the solver's componentwise power one factor short",
        "src/centrotensor/eigen.py",
        "for _ in range(k - 1):",
        "for _ in range(k - 2):",
        ("tests/test_eigen.py::TestPower::test_left_to_right_product_bit_for_bit",),
    ),
    Mutant(
        "J*B's leading index left unreversed",
        "src/centrotensor/product.py",
        "    return data[::-1]\n",
        "    return data\n",
        ("tests/test_product.py::TestPermutationProduct::test_gather_matches_contraction_bit_for_bit",),
    ),
    Mutant(
        "A*J's trailing indices left unreversed",
        "src/centrotensor/product.py",
        "    return data.reshape(data.shape[0], -1)[:, ::-1]\n",
        "    return data.reshape(data.shape[0], -1)\n",
        ("tests/test_product.py::TestPermutationProduct::test_gather_matches_contraction_bit_for_bit",),
    ),
    Mutant(
        "the CLI's negative answers exiting 0, not 1",
        "src/centrotensor/cli.py",
        "    return 1 if negative else 0\n",
        "    return 0\n",
        (
            "tests/test_cli.py::TestInverseVerb::test_matrix_recovery_failure_exits_1",
            "tests/test_cli.py::TestVerifyAll::test_corruption_fails_and_names_check",
        ),
    ),
    Mutant(
        "the Jacobian's lambda diagonal with factor m, not m - 1",
        "src/centrotensor/eigen.py",
        "lam[:, None] * (m - 1) * p",
        "lam[:, None] * m * p",
        ("tests/test_eigen.py::TestJacobian::test_whole_jacobian_matches_central_differences",),
    ),
    Mutant(
        "the Jacobian's last row x, not 2x",
        "src/centrotensor/eigen.py",
        "jac[:, n, :n] = 2.0 * x",
        "jac[:, n, :n] = x",
        ("tests/test_eigen.py::TestJacobian::test_whole_jacobian_matches_central_differences",),
    ),
    Mutant(
        "the line search without its first-hit filter",
        "src/centrotensor/eigen.py",
        "            hits = hits[first]\n",
        "            pass\n",
        ("tests/test_eigen.py::TestAgainstLoopOracle::test_same_pair_set_and_converged_count",),
    ),
    Mutant(
        "the screen without its rounding slack",
        "src/centrotensor/eigen.py",
        "n * 2.0**-50 * (sq + 1.0 + best)",
        "0.0 * (sq + 1.0 + best)",
        ("tests/test_eigen.py::TestOpenTrials::test_rows_within_ulps_of_best[8]",),
    ),
    Mutant(
        "one reflection sign for every tensor",
        "src/centrotensor/structure.py",
        "    sign = _SIGNS.get(a)\n",
        "    sign = next(iter(_SIGNS.values()), None)\n",
        ("tests/test_eigen.py::TestReflectPair::test_alternating_centro_and_skew_keep_their_signs",),
    ),
    Mutant(
        "the product-parity check's tolerance raised to 1e-6",
        "src/centrotensor/suite.py",
        "check_structure(prod, 1e-10 * entry_scale(prod))",
        "check_structure(prod, 1e-6 * entry_scale(prod))",
        (_SUITE + "test_product_parity_tolerance_is_1e_10[past]",),
    ),
    Mutant(
        "the decomposition's centro-part tolerance raised to 1e-10",
        "src/centrotensor/suite.py",
        "check_structure(parts.centro, 1e-13 * scale_a)",
        "check_structure(parts.centro, 1e-10 * scale_a)",
        (_SUITE + "test_decomposition_tolerances[past-centro]",),
    ),
    Mutant(
        "the decomposition's skew-part tolerance raised to 1e-10",
        "src/centrotensor/suite.py",
        "check_structure(parts.skew, 1e-13 * scale_a)",
        "check_structure(parts.skew, 1e-10 * scale_a)",
        (_SUITE + "test_decomposition_tolerances[past-skew]",),
    ),
    Mutant(
        "the decomposition's reconstruction tolerance raised to 1e-12",
        "src/centrotensor/suite.py",
        "if err > 1e-14 * scale_a:",
        "if err > 1e-12 * scale_a:",
        (_SUITE + "test_decomposition_tolerances[past-reconstruction]",),
    ),
    Mutant(
        "the diagonal inverse check's residual tolerance raised to 1e-9",
        "src/centrotensor/suite.py",
        "if result.residual > 1e-13 or",
        "if result.residual > 1e-9 or",
        (_SUITE + "test_diagonal_inverse_residual_tolerance_is_1e_13[past]",),
    ),
    Mutant(
        "the matrix recovery check's error tolerance raised to 1e-5",
        "src/centrotensor/suite.py",
        "if err > 1e-9 or not result.centro_verdict:",
        "if err > 1e-5 or not result.centro_verdict:",
        (_SUITE + "test_recovery_error_tolerance_is_1e_9[past]",),
    ),
    Mutant(
        "the eigen-reflection check's value tolerance raised to 1e-5",
        "src/centrotensor/suite.py",
        "if abs(mirrored.value - expected) > 1e-9:",
        "if abs(mirrored.value - expected) > 1e-5:",
        (_SUITE + "test_eigen_reflection_value_tolerance_is_1e_9[past]",),
    ),
    Mutant(
        "NEAR_ZERO_FACTOR raised to 1e-12",
        "src/centrotensor/cauchy.py",
        "NEAR_ZERO_FACTOR = 1e-14\n",
        "NEAR_ZERO_FACTOR = 1e-12\n",
        ("tests/test_cauchy.py::TestSpecValidation::test_near_zero_bound_is_1e_14[at]",),
    ),
    Mutant(
        "the merge's loop band with a margin of one tolerance",
        "src/centrotensor/eigen.py",
        "[low - margin, math.nextafter(high + margin, math.inf)]",
        "[low - DEDUP_VECTOR_TOL, math.nextafter(high + DEDUP_VECTOR_TOL, math.inf)]",
        (_MERGE + "test_band_edge_stacks",),
    ),
    Mutant(
        "the merge's loop band without the float past its upper end",
        "src/centrotensor/eigen.py",
        "math.nextafter(high + margin, math.inf)",
        "high + margin",
        (_MERGE + "test_band_edge_stacks",),
    ),
    Mutant(
        "the merge's band not widened by the keys of joining pairs",
        "src/centrotensor/eigen.py",
        "                low, high = min(low, float(key[new].min())), max(high, float(key[new].max()))\n",
        "",
        (_MERGE + "test_two_thousand_pairs_at_one_value[default]",),
    ),
    Mutant(
        "DEDUP_VECTOR_TOL raised",
        "src/centrotensor/eigen.py",
        "DEDUP_VECTOR_TOL = 1e-6\n",
        "DEDUP_VECTOR_TOL = 2e-6\n",
        (_MERGE + "test_vector_gap_at_the_literal_tolerance",),
    ),
    Mutant(
        "DEFAULT_CLASS_TOL raised",
        "src/centrotensor/eigen.py",
        "DEFAULT_CLASS_TOL = 1e-8\n",
        "DEFAULT_CLASS_TOL = 2e-8\n",
        ("tests/test_eigen.py::TestClassifyVector::test_literal_tolerance_one_float_either_side",),
    ),
    Mutant(
        "DEFAULT_TOL_FACTOR raised to 1e-10",
        "src/centrotensor/structure.py",
        "DEFAULT_TOL_FACTOR = 1e-12\n",
        "DEFAULT_TOL_FACTOR = 1e-10\n",
        ("tests/test_cauchy.py::TestPredicatesAgainstOracle::test_random_vectors_at_their_own_deviation",),
    ),
    Mutant(
        "the polynomial reflection's sample bound raised to 1e-6",
        "src/centrotensor/structure.py",
        "_POLY_TOL = 1e-10\n",
        "_POLY_TOL = 1e-6\n",
        ("tests/test_structure.py::TestPolyReflection::test_sample_bound_is_pinned[0.0-1.0000000000000002e-10-False]",),
    ),
    Mutant(
        "the structure scan's column offset dropped",
        "src/centrotensor/structure.py",
        "c_at = d.item(i), (row + i // w) * cols + col + i % w\n"
        "            if t.item(j) > s_max:\n"
        "                s_max, s_at = t.item(j), (row + j // w) * cols + col + j % w\n",
        "c_at = d.item(i), (row + i // w) * cols + i % w\n"
        "            if t.item(j) > s_max:\n"
        "                s_max, s_at = t.item(j), (row + j // w) * cols + j % w\n",
        ("tests/test_structure.py::TestStreamedCompare::test_reports_equal_the_full_array_oracle[two-peaks-4-17]",),
    ),
    Mutant(
        "the recovery's residual tolerance raised to 1e-6",
        "src/centrotensor/inverse.py",
        "_RESIDUAL_TOL_FACTOR = 1e-10\n",
        "_RESIDUAL_TOL_FACTOR = 1e-6\n",
        ("tests/test_inverse.py::TestAsDict::test_no_inverse",),
    ),
    Mutant(
        "the entry count without its cap",
        "src/centrotensor/core.py",
        '    _check_cap(dim**order, "%s of order %s dim %s", what, order, dim)\n',
        "",
        # not the Cauchy test of a 2**40-entry spec: without the cap it
        # builds the leading sums, gigabytes of them, before it fails
        ("tests/test_core.py::TestCapMessages::test_message_text[check_entry_count]",),
    ),
    Mutant(
        "the eigen-reflection check's skew skip raised to 1e-6",
        "src/centrotensor/suite.py",
        'if kind == "skew" and abs(pair.value) <= 1e-8:',
        'if kind == "skew" and abs(pair.value) <= 1e-6:',
        (_SUITE + "test_eigen_reflection_skips_only_skew_values_within_the_bound[1.0000000000000002e-08-False]",),
    ),
    Mutant(
        "the Cauchy symmetry check's skip raised to 1e-6",
        "src/centrotensor/suite.py",
        "        if abs(pair.value) <= 1e-8:",
        "        if abs(pair.value) <= 1e-6:",
        (_SUITE + "test_cauchy_symmetry_skips_only_values_within_the_bound[1.0000000000000002e-08-False]",),
    ),
    Mutant(
        "the dim-2 closed form's residual bound raised to 1e-8",
        "src/centrotensor/suite.py",
        "bound = 1e-12 * entry_scale(a)",
        "bound = 1e-8 * entry_scale(a)",
        (_SUITE + "test_closed_form_dim2_residual_tolerance_is_1e_12[past-e]",),
    ),
    Mutant(
        "the dim-3 closed form's residual bound raised to 1e-8",
        "src/centrotensor/suite.py",
        "if pair.residual > 1e-12 * entry_scale(b)",
        "if pair.residual > 1e-8 * entry_scale(b)",
        (_SUITE + "test_closed_form_dim3_residual_tolerance_is_1e_12[past]",),
    ),
]


def _pytest(tree: Path, tests) -> int:
    """pytest's exit status on these tests of the tree: 0 all passed, 1 some failed."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    return proc.returncode


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tree / part, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", tree)
        every = sorted({test for row in MUTANTS for test in row.tests})
        if _pytest(tree, every) != 0:
            print("the rows' tests fail on the unchanged tree", file=sys.stderr)
            return 1
        survived = 0
        for row in MUTANTS:
            path = tree / row.path
            text = path.read_text()
            if text.count(row.old) != 1:
                print(f"error     {row.name}: old text occurs {text.count(row.old)} times in {row.path}")
                survived += 1
                continue
            path.write_text(text.replace(row.old, row.new))
            try:
                status = _pytest(tree, row.tests)
            finally:
                path.write_text(text)
            # 1 is a failed test; any other status (an error, no tests collected) is no kill
            verdict = "killed" if status == 1 else "survived" if status == 0 else f"error {status}"
            survived += verdict != "killed"
            print(f"{verdict:9s} {row.name}")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
