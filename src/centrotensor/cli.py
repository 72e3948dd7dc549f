"""Command-line front end.

Every verb is a thin adapter over one library call: JSON in, JSON out,
no numerics of its own.  Data goes to stdout, diagnostics to stderr.
Exit codes: 0 success, 1 domain failure (no inverse, invalid generating
vector, failed verification suite, a result that overflows float64), 2
usage or input error.

Input paths accept "-" for stdin.  Every verb that draws randomness
takes its seed from --seed alone, default 0.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import eigen, inverse, serialize, structure, suite
from .cauchy import cauchy_is_centro, cauchy_is_skew, materialize
from .core import DEFAULT_ENTRY_CAP, DenseTensor, DomainError, check_tolerance, hadamard
from .product import exchange_matrix, shao_product
from .structure import decompose, random_structured


def _read_json(path: str):
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    try:
        return json.loads(text)
    except RecursionError:
        # the decoder recurses once per open bracket
        raise ValueError("malformed JSON: nested too deeply") from None


def _emit(obj, output: str | None):
    text = serialize.dumps(obj)
    if output is None or output == "-":
        print(text)
    else:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")


def _load_tensor(path: str) -> DenseTensor:
    return serialize.tensor_from_obj(_read_json(path))


def _cmd_gen(args) -> int:
    if args.kind == "identity":
        tensor = DenseTensor.identity(args.order, args.dim)
    elif args.kind == "exchange":
        tensor = exchange_matrix(args.dim)
    else:
        tensor = random_structured(args.order, args.dim, args.kind, args.seed)
    _emit(serialize.tensor_to_obj(tensor), args.output)
    return 0


def _cmd_check(args) -> int:
    tensor = _load_tensor(args.tensor)
    checker = {
        "direct": structure.check_structure,
        "sandwich": structure.check_via_J,
        "commutation": structure.check_commutation,
    }[args.method]
    report = checker(tensor, args.tol)
    _emit(report.as_dict(), args.output)
    return 0


def _cmd_prod(args) -> int:
    left = _load_tensor(args.left)
    right = _load_tensor(args.right)
    result = shao_product(left, right, entry_cap=args.cap)
    _emit(serialize.tensor_to_obj(result), args.output)
    return 0


def _cmd_hadamard(args) -> int:
    left = _load_tensor(args.left)
    right = _load_tensor(args.right)
    _emit(serialize.tensor_to_obj(hadamard(left, right)), args.output)
    return 0


def _cmd_decompose(args) -> int:
    parts = decompose(_load_tensor(args.tensor))
    _emit(
        {
            "centro": serialize.tensor_to_obj(parts.centro),
            "skew": serialize.tensor_to_obj(parts.skew),
        },
        args.output,
    )
    return 0


def _cmd_eig(args) -> int:
    tensor = _load_tensor(args.tensor)
    result = eigen.solve_eigen(tensor, starts=args.starts, seed=args.seed, tol=args.tol)
    _emit(result.as_dict(), args.output)
    return 0


def _cmd_cauchy(args) -> int:
    spec = serialize.spec_from_obj(_read_json(args.spec))
    if args.mode == "check":
        _emit(
            {
                "order": spec.order,
                "dim": spec.dim,
                "centro": cauchy_is_centro(spec),
                "skew": cauchy_is_skew(spec),
            },
            args.output,
        )
    else:
        _emit(serialize.tensor_to_obj(materialize(spec)), args.output)
    return 0


def _cmd_inverse(args) -> int:
    # checked on every path, though only the order-2 recovery reads it
    if args.tol is not None:
        check_tolerance(args.tol)
    tensor = _load_tensor(args.tensor)
    left = args.side == "left"
    if args.order == 2:
        recover = (inverse.recover_order2_left_inverse if left
                   else inverse.recover_order2_right_inverse)
        result = recover(tensor, tol=args.tol)
    else:
        construct = inverse.diagonal_left_inverse if left else inverse.diagonal_right_inverse
        result = construct(tensor, args.order)
    _emit(result.as_dict(), args.output)
    return 0 if isinstance(result, inverse.InverseResult) else 1


def _cmd_verify_all(args) -> int:
    report = suite.verify_all(seed=args.seed, trials=args.trials)
    _emit(report.as_dict(), args.output)
    return 0 if report.all_passed else 1


def _add_output(parser):
    parser.add_argument("-o", "--output", default=None, help="output path (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="centrotensor",
        description="Structured-tensor toolkit: generate, classify, multiply, "
        "decompose, invert and eigen-solve centrosymmetric tensors.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("gen", help="generate a tensor")
    p.add_argument("--order", type=int, default=2)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument(
        "--kind",
        choices=("centro", "skew", "general", "identity", "exchange"),
        default="general",
    )
    p.add_argument("--seed", type=int, default=0)
    _add_output(p)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("check", help="classify centro/skew structure")
    p.add_argument("tensor")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument(
        "--method", choices=("direct", "sandwich", "commutation"), default="direct"
    )
    _add_output(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("prod", help="general tensor product")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--cap", type=int, default=DEFAULT_ENTRY_CAP, help="result entry cap")
    _add_output(p)
    p.set_defaults(func=_cmd_prod)

    p = sub.add_parser("hadamard", help="entrywise product")
    p.add_argument("left")
    p.add_argument("right")
    _add_output(p)
    p.set_defaults(func=_cmd_hadamard)

    p = sub.add_parser("decompose", help="centro + skew split")
    p.add_argument("tensor")
    _add_output(p)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("eig", help="multistart H-eigenpair solve")
    p.add_argument("tensor")
    p.add_argument("--starts", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=eigen.DEFAULT_SOLVER_TOL)
    _add_output(p)
    p.set_defaults(func=_cmd_eig)

    p = sub.add_parser("cauchy", help="materialize or check a generating vector")
    p.add_argument("spec")
    p.add_argument("--mode", choices=("materialize", "check"), default="materialize")
    _add_output(p)
    p.set_defaults(func=_cmd_cauchy)

    p = sub.add_parser("inverse", help="left/right inverse construction or recovery")
    p.add_argument("tensor")
    p.add_argument("--side", choices=("left", "right"), required=True)
    p.add_argument("--order", type=int, default=2, help="order of the inverse tensor")
    p.add_argument("--tol", type=float, default=None)
    _add_output(p)
    p.set_defaults(func=_cmd_inverse)

    p = sub.add_parser("verify-all", help="run the full property suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=suite.DEFAULT_TRIALS)
    _add_output(p)
    p.set_defaults(func=_cmd_verify_all)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; keep its code
        return int(exc.code or 0)
    try:
        return args.func(args)
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
