"""Acceptance criteria: one test per criterion, at the stated tolerances.

Each test prints a single pass/fail line (visible with `pytest -s` or in
the captured output on failure) and then asserts.
"""

import time

import numpy as np
import pytest

from centrotensor import (
    CauchySpec,
    ConsistencyError,
    DenseTensor,
    InverseResult,
    cauchy_check_JC,
    cauchy_is_centro,
    cauchy_is_skew,
    check_commutation,
    check_structure,
    check_via_J,
    closed_form_dim2,
    closed_form_dim3_even,
    decompose,
    diagonal_left_inverse,
    diagonal_right_inverse,
    entry_scale,
    materialize,
    palindromize,
    product_parity,
    random_structured,
    recover_order2_left_inverse,
    recover_order2_right_inverse,
    reflect_pair,
    row_sums,
    shao_product,
    solve_eigen,
    verify_poly_reflection,
    verify_row_sum_symmetry,
)


def criterion(num, ok, label):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {status}  {label}")
    assert ok, f"criterion {num:02d} failed: {label}"


def diagonal_tensor(order, dim, diag):
    data = np.zeros((dim,) * order)
    data[(np.arange(dim),) * order] = diag
    return DenseTensor(data)


def well_conditioned_centro(rng, dim, cond_cap=1e3):
    for _ in range(200):
        c = random_structured(2, dim, "centro", rng)
        if np.linalg.cond(c.data) <= cond_cap:
            return c
    raise AssertionError("no well-conditioned centro matrix drawn")


def test_criterion_01_structure_characterization_equivalence():
    rng = np.random.default_rng(101)
    kinds = ("centro", "skew", "general")
    start = time.perf_counter()
    ok = True
    for t in range(1000):
        order = int(rng.integers(2, 5))
        dim = int(rng.integers(2, 6))
        a = random_structured(order, dim, kinds[t % 3], rng)
        tol = 1e-12 * entry_scale(a)
        verdicts = {
            check_structure(a, tol).verdict,
            check_via_J(a, tol).verdict,
            check_commutation(a, tol).verdict,
        }
        if len(verdicts) != 1:
            ok = False
            break
    elapsed = time.perf_counter() - start
    criterion(1, ok and elapsed < 30.0,
              f"three classification paths agree on 1000 tensors ({elapsed:.1f}s)")


def test_criterion_02_product_parity_table():
    rng = np.random.default_rng(102)
    kinds = ("centro", "skew")
    ok = True
    for _ in range(200):
        kind_a = kinds[int(rng.integers(0, 2))]
        kind_b = kinds[int(rng.integers(0, 2))]
        m = int(rng.integers(2, 5))
        k = int(rng.integers(2, 4))
        n = int(rng.integers(2, 5))
        prod = shao_product(
            random_structured(m, n, kind_a, rng), random_structured(k, n, kind_b, rng)
        )
        report = check_structure(prod, 1e-10)
        expected = product_parity(kind_a, kind_b, m)
        if not (report.is_centro if expected == "centro" else report.is_skew):
            ok = False
            break
    criterion(2, ok, "product structure matches the parity table on 200 draws")


def test_criterion_03_decomposition():
    rng = np.random.default_rng(103)
    ok = True
    for _ in range(500):
        order = int(rng.integers(2, 5))
        dim = int(rng.integers(2, 6))
        a = random_structured(order, dim, "general", rng)
        s = entry_scale(a)
        parts = decompose(a)
        if not check_structure(parts.centro, 1e-13 * s).is_centro:
            ok = False
            break
        if not check_structure(parts.skew, 1e-13 * s).is_skew:
            ok = False
            break
        if float(np.max(np.abs(parts.reconstruct().data - a.data))) > 1e-14 * s:
            ok = False
            break
    criterion(3, ok, "centro+skew split classifies and reconstructs on 500 tensors")


def test_criterion_04_row_sums():
    rng = np.random.default_rng(104)
    ok = True
    for t in range(500):
        order = int(rng.integers(2, 5))
        dim = int(rng.integers(2, 6))
        kind = "centro" if t % 2 == 0 else "skew"
        a = random_structured(order, dim, kind, rng)
        tol = 1e-12 * entry_scale(a)
        passed, _ = verify_row_sum_symmetry(a, assume=kind)
        if not passed:
            ok = False
            break
        if kind == "skew" and dim % 2 == 1:
            center = (dim - 1) // 2
            if a.data[(center,) * order] != 0.0 or abs(row_sums(a)[center]) > tol:
                ok = False
                break
    criterion(4, ok, "row-sum reflection laws hold on 500 structured tensors")


def test_criterion_05_polynomial_reflection():
    rng = np.random.default_rng(105)
    ok = True
    for t in range(100):
        order = int(rng.integers(2, 5))
        dim = int(rng.integers(2, 6))
        kind = "centro" if t % 2 == 0 else "skew"
        a = random_structured(order, dim, kind, rng)
        if not verify_poly_reflection(a, trials=20, seed=rng):
            ok = False
            break
    criterion(5, ok, "homogeneous form reflects correctly, 100 tensors x 20 samples")


def test_criterion_06_closed_form_eigenpairs():
    rng = np.random.default_rng(106)
    ok = True
    for _ in range(100):
        a = random_structured(int(rng.integers(2, 6)), 2, "centro", rng)
        bound = 1e-12 * entry_scale(a)
        pair_e, pair_u = closed_form_dim2(a)
        if pair_e.residual > bound or pair_u.residual > bound:
            ok = False
            break
    if ok:
        for _ in range(100):
            m = int(rng.choice([2, 4]))
            a = random_structured(m, 3, "centro", rng)
            pair = closed_form_dim3_even(a)
            if pair.residual > 1e-12 * entry_scale(a) or pair.vector[1] != 0.0:
                ok = False
                break
    criterion(6, ok, "closed-form eigenpair formulas verify on 100+100 tensors")


def test_criterion_07_eigen_reflection():
    rng = np.random.default_rng(107)
    ok = True
    detail = ""
    for kind in ("centro", "skew"):
        for _ in range(100):
            order = int(rng.integers(2, 5))
            dim = int(rng.integers(2, 5))
            a = random_structured(order, dim, kind, rng)
            for pair in solve_eigen(a, starts=16, seed=rng).pairs:
                if kind == "skew" and abs(pair.value) <= 1e-8:
                    continue
                try:
                    mirrored = reflect_pair(a, pair, tol=1e-10)
                except ConsistencyError as exc:
                    ok, detail = False, str(exc)
                    break
                expected = pair.value if kind == "centro" else -pair.value
                if mirrored.value != expected or mirrored.residual > 1e-10:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            break
    criterion(7, ok, f"eigenpair reflection on 100 centro and 100 skew tensors {detail}")


def test_criterion_08_cauchy_equivalences():
    rng = np.random.default_rng(108)
    ok = True
    for t in range(200):
        flavor = ("centro", "general", "skew")[t % 3]
        if flavor == "skew":
            half = rng.uniform(0.2, 3.0, size=int(rng.integers(1, 3)))
            c = np.concatenate([half, -half[::-1]])
            m = int(rng.choice([3, 5]))
        else:
            c = rng.uniform(0.2, 3.0, size=int(rng.integers(2, 6)))
            if flavor == "centro":
                c = palindromize(c)
            m = int(rng.integers(2, 5))
        spec = CauchySpec(c, m)
        p_centro = cauchy_is_centro(spec)
        p_skew = cauchy_is_skew(spec)
        if spec.dim % 2 == 1 and p_skew:
            ok = False
            break
        report = check_structure(materialize(spec))
        if p_centro != report.is_centro or p_skew != report.is_skew:
            ok = False
            break
        if cauchy_check_JC(spec) != p_centro:
            ok = False
            break
    if ok:
        # adversarial near-anti-palindromes with odd dimension
        for _ in range(50):
            n = int(rng.choice([3, 5]))
            c = rng.uniform(0.2, 3.0, size=n)
            c[n // 2 + 1 :] = -c[: n // 2][::-1]
            if cauchy_is_skew(CauchySpec(c, int(rng.integers(2, 5)))):
                ok = False
                break
    criterion(8, ok, "generating-vector predicates match tensor verdicts on 200 specs")


def test_criterion_09_cauchy_eigenvector_symmetry():
    rng = np.random.default_rng(109)
    ok = True
    for _ in range(50):
        m = int(rng.integers(2, 5))
        n = int(rng.integers(2, 5))
        spec = CauchySpec(palindromize(rng.uniform(0.2, 3.0, size=n)), m)
        tensor = materialize(spec)
        for pair in solve_eigen(tensor, starts=16, seed=rng).pairs:
            if abs(pair.value) <= 1e-8:
                continue
            if m % 2 == 0 and pair.classification != "symmetric":
                ok = False
                break
            if m % 2 == 1 and pair.classification == "neither":
                ok = False
                break
        if not ok:
            break
    criterion(9, ok, "Cauchy eigenvectors classify by order parity on 50 specs")


def test_criterion_10_inverse_round_trips():
    rng = np.random.default_rng(110)
    ok = True
    for m in (2, 3, 4):
        for k in (2, 3):
            for n in (2, 3, 4):
                diag = palindromize(rng.uniform(0.5, 4.0, size=n))
                a = diagonal_tensor(m, n, diag)
                left = diagonal_left_inverse(a, k)
                right = diagonal_right_inverse(a, k)
                if left.residual > 1e-13 or right.residual > 1e-13:
                    ok = False
                if not (left.centro_verdict and right.centro_verdict):
                    ok = False
    if ok:
        for t in range(50):
            dim = int(rng.integers(2, 5))
            c = well_conditioned_centro(rng, dim)
            planted = shao_product(c, DenseTensor.identity(int(rng.integers(2, 5)), dim))
            result = recover_order2_left_inverse(planted)
            if not isinstance(result, InverseResult) or not result.centro_verdict:
                ok = False
                break
            if np.max(np.abs(result.inverse.data - np.linalg.inv(c.data))) > 1e-9:
                ok = False
                break
        for t in range(50):
            dim = int(rng.integers(2, 5))
            c = well_conditioned_centro(rng, dim)
            c_inv = DenseTensor(np.linalg.inv(c.data))
            planted = shao_product(DenseTensor.identity(2 * int(rng.integers(1, 3)), dim), c_inv)
            result = recover_order2_right_inverse(planted)
            if not isinstance(result, InverseResult) or not result.centro_verdict:
                ok = False
                break
            if np.max(np.abs(result.inverse.data - c.data)) > 1e-9:
                ok = False
                break
    criterion(10, ok, "diagonal inverse sweep and 100 planted matrix recoveries")


def test_criterion_11_solver_slo():
    rng = np.random.default_rng(111)
    start = time.perf_counter()
    hits = 0
    for trial in range(100):
        a = random_structured(int(rng.integers(2, 6)), 2, "centro", rng)
        closed = closed_form_dim2(a)
        found = solve_eigen(a, starts=200, seed=rng).pairs
        matched = 0
        for target in closed:
            for pair in found:
                if abs(pair.value - target.value) <= 1e-8 and (
                    min(
                        np.linalg.norm(pair.vector - target.vector),
                        np.linalg.norm(pair.vector + target.vector),
                    )
                    <= 1e-6
                ):
                    matched += 1
                    break
        if matched == 2:
            hits += 1
    elapsed = time.perf_counter() - start
    criterion(
        11,
        hits >= 95 and elapsed < 60.0,
        f"multistart solver recovered both closed-form pairs in {hits}/100 trials ({elapsed:.1f}s)",
    )
