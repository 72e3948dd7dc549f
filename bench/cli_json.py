"""cli-json: the CLI verbs run in-process through ``centrotensor.cli.main``.

Inputs are order-4 dim-16 tensors (65,536 entries, about 1.4 MB of JSON)
written in set-up by the ``gen`` verb, plus a skew 16x16 matrix, a Cauchy
spec, a planted invertible centro tensor and, per round, a small
symmetric centro matrix.  Every verb writes with ``-o`` into a scratch directory; the
checks read those files back after the clock stops.  Interpreter start is
left out of every operation: it is mostly numpy's import, which no verb
changes.

The ``eig`` inputs are symmetric centrosymmetric 4x4 matrices: their
H-eigenpairs are their ordinary eigenpairs, four each for every seed, so
the pair count does not swing with the seed.
"""

from __future__ import annotations

import json

import numpy as np

from centrotensor import cli, core, product, serialize, structure

import checks
from eig_survey import palindrome
from harness import Op, Workload, rounds_for

ROUND_SECONDS = 1.6
ORDER, DIM = 4, 16
EIG_DIM, EIG_STARTS = 4, 200
VERIFY_TRIALS = 40
# verify-all runs with the seed the project README documents, the same in
# every round: seeds drawn from the workload seed hit a seed-dependent
# failure of the suite's cauchy-eigen-symmetry check (about 1 seed in 120),
# which would make the failed share differ between runs.
VERIFY_SEED = 0
# Median time of one reference_kernel() call on the reference machine.
REFERENCE_S = 0.0095


def reference_kernel():
    """Float formatting into JSON text and parsing it back, no library code."""
    values = np.random.default_rng(0).uniform(-1.0, 1.0, 6000).tolist()

    def work():
        json.loads("[" + ", ".join(format(v, ".17g") for v in values) + "]")

    return work


def _write(path, obj):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(serialize.dumps(obj) + "\n")


def _cli(*argv):
    code = cli.main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"centrotensor {' '.join(map(str, argv))} exited {code}")


def build(seed: int, seconds: float, tmp) -> Workload:
    rng = np.random.default_rng(seed)
    rounds = rounds_for(seconds, ROUND_SECONDS)
    path = {name: tmp / f"{name}.json" for name in ("A", "S", "G", "Ms", "spec", "P")}

    def seed_arg():
        return int(rng.integers(2**31))

    _cli("gen", "--order", ORDER, "--dim", DIM, "--kind", "centro", "--seed", seed_arg(), "-o", path["A"])
    _cli("gen", "--order", ORDER, "--dim", DIM, "--kind", "skew", "--seed", seed_arg(), "-o", path["S"])
    _cli("gen", "--order", ORDER, "--dim", DIM, "--kind", "general", "--seed", seed_arg(), "-o", path["G"])
    _cli("gen", "--order", 2, "--dim", DIM, "--kind", "skew", "--seed", seed_arg(), "-o", path["Ms"])
    generating = palindrome(rng, DIM)
    _write(path["spec"], {"order": ORDER, "generating": generating.tolist()})
    # Planted left inverse: P = M * I with M centro and diagonally dominant,
    # so B = M^-1 satisfies B * P = I.
    m = core.add(
        structure.random_structured(2, DIM, "centro", seed_arg()),
        core.scale(core.DenseTensor.identity(2, DIM), float(DIM)),
    )
    _write(path["P"], serialize.tensor_to_obj(product.shao_product(m, core.DenseTensor.identity(ORDER, DIM))))
    # A fresh eig input per round: how long the solver takes depends on the
    # matrix, and a median over many of them does not hang on one.
    eig_inputs = []
    for r in range(rounds):
        e = structure.random_structured(2, EIG_DIM, "centro", seed_arg())
        path[f"E{r}"] = tmp / f"E{r}.json"
        _write(path[f"E{r}"], serialize.tensor_to_obj(core.scale(core.add(e, core.DenseTensor(e.data.T)), 0.5)))
        eig_inputs.append(f"E{r}")

    inputs = {}

    def tensor(name):
        if name not in inputs:
            inputs[name] = checks.tensor_from_json(checks.load_json(path[name]))
        return inputs[name]

    ledger = checks.PairLedger()

    def output(verb):
        return checks.load_json(tmp / f"out-{verb}.json")

    def check_gen(_):
        data = checks.tensor_from_json(output("gen"))
        checks.require(data.shape == (DIM,) * ORDER, f"gen shape {data.shape}")
        checks.require(float(np.max(np.abs(data))) <= 1.0, "gen entries outside [-1, 1]")
        checks.check_kind(data, "centro", 1e-12, "gen centro")

    def check_prod(_):
        a, b = tensor("A"), tensor("Ms")
        c = checks.tensor_from_json(output("prod"))
        checks.check_product(a, b, c, range(DIM), "prod A*Ms")
        checks.check_kind(c, checks.expected_parity("centro", "skew", ORDER), 1e-10 * checks.scale(c), "prod parity")

    def check_decompose(_):
        obj, g = output("decompose"), tensor("G")
        centro = checks.tensor_from_json(obj["centro"])
        skew = checks.tensor_from_json(obj["skew"])
        tol = 1e-12 * checks.scale(g)
        checks.require(float(np.max(np.abs(centro + skew - g))) <= tol, "decompose parts miss the input")
        checks.require(checks.flip_deviation(centro)[0] <= tol, "centro part fails flip test")
        checks.require(checks.flip_deviation(skew)[1] <= tol, "skew part fails flip test")

    def check_cauchy(_):
        data = checks.tensor_from_json(output("cauchy"))
        checks.check_cauchy(generating, data, np.random.default_rng(0), "cauchy n=16 m=4")
        checks.check_kind(data, "centro", 1e-12, "cauchy n=16 m=4")

    def check_verdict(method, name, kind):
        def check(_):
            checks.check_kind(tensor(name), kind, 1e-12, f"input {name}")
            verdict = output(f"check-{method}")["verdict"]
            checks.require(verdict == checks.VERDICTS[kind], f"{method} verdict {verdict} for {kind}")
        return check

    def check_inverse(_):
        obj = output("inverse")
        checks.require(obj["found"] is True, f"no inverse found: {obj.get('reason')}")
        b = checks.tensor_from_json(obj["inverse"])
        identity = np.zeros((DIM,) * ORDER)
        identity[(np.arange(DIM),) * ORDER] = 1.0
        dev = float(np.max(np.abs(np.einsum("ip,pjkl->ijkl", b, tensor("P")) - identity)))
        checks.require(dev <= 1e-8, f"B*P deviates from the identity by {dev:.3e}")

    def check_eig(name):
        def check(_):
            obj, e_data = output("eig"), tensor(name)
            checks.check_solver_stats(obj["stats"], EIG_STARTS, len(obj["pairs"]), "eig")
            for pair in obj["pairs"]:
                checks.check_pair(e_data, pair["value"], pair["vector"], "eig")
                checks.check_reflection(e_data, "centro", pair["value"], pair["vector"], "eig")
                ledger.add(name, pair["value"], pair["vector"])
        return check

    def check_verify_all(_):
        obj = output("verify-all")
        failing = [c["name"] for c in obj["checks"] if not c["passed"]]
        checks.require(obj["all_passed"] is True and not failing, f"verify-all failed: {failing}")

    def verb(kind, argv, check):
        out = tmp / f"out-{kind}.json"
        return Op(kind, lambda: _cli(*argv, "-o", out), check)

    ops = []
    for eig_input in eig_inputs:
        round_seed = seed_arg()
        ops += [
            verb("gen", ["gen", "--order", ORDER, "--dim", DIM, "--kind", "centro", "--seed", round_seed], check_gen),
            verb("prod", ["prod", path["A"], path["Ms"]], check_prod),
            verb("decompose", ["decompose", path["G"]], check_decompose),
            verb("cauchy", ["cauchy", path["spec"]], check_cauchy),
            verb("check-direct", ["check", path["A"], "--method", "direct"],
                 check_verdict("direct", "A", "centro")),
            verb("check-sandwich", ["check", path["S"], "--method", "sandwich"],
                 check_verdict("sandwich", "S", "skew")),
            verb("check-commutation", ["check", path["G"], "--method", "commutation"],
                 check_verdict("commutation", "G", "neither")),
            verb("inverse", ["inverse", path["P"], "--side", "left", "--order", 2], check_inverse),
            verb("eig", ["eig", path[eig_input], "--starts", EIG_STARTS, "--seed", round_seed],
                 check_eig(eig_input)),
            verb("verify-all", ["verify-all", "--seed", VERIFY_SEED, "--trials", VERIFY_TRIALS],
                 check_verify_all),
        ]

    small = tmp / "small.json"

    def warmup():
        _cli("gen", "--order", 3, "--dim", 3, "--kind", "centro", "--seed", 0, "-o", small)
        for method in ("direct", "sandwich", "commutation"):
            _cli("check", small, "--method", method, "-o", tmp / "small-check.json")
        _cli("decompose", small, "-o", tmp / "small-decompose.json")
        _cli("verify-all", "--seed", 0, "--trials", 1, "-o", tmp / "small-verify.json")

    def check_inputs():
        checks.check_kind(tensor("Ms"), "skew", 1e-12, "input Ms")
        checks.check_kind(tensor("P"), "centro", 1e-12, "input P")
        for name in eig_inputs:
            e = tensor(name)
            checks.require(np.array_equal(e, e.T), f"eig input {name} is not symmetric")
            checks.check_kind(e, "centro", 1e-12, f"eig input {name}")
        spec = checks.load_json(path["spec"])
        checks.require(spec["generating"] == generating.tolist(), "spec file does not hold the vector")

    return Workload(ops, warmup, check_inputs, ledger)
