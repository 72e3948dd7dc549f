"""Command-line front end.

Every verb is a thin adapter over one library call: it loads its JSON
input and returns the call's result, with no numerics of its own.  main
alone writes the result, once, as JSON to stdout or -o, and picks the
exit code: 0 success; 1 domain failure, either a negative answer printed
as data (no inverse, failed verification suite) or a DomainError printed
to stderr (invalid generating vector, a result that overflows float64);
2 usage or input error.  An error prints nothing on stdout.  A reader
that closes stdout early (`| head`) ends the run quietly, with the code
its result maps to.

Input paths accept "-" for stdin.  Every verb that draws randomness
takes its seed from --seed alone: a non-negative integer, default 0.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import eigen, inverse, serialize, structure, suite
from .cauchy import cauchy_is_centro, cauchy_is_skew, materialize
from .core import DenseTensor, DomainError, check_tolerance, hadamard
from .product import exchange_matrix, shao_product
from .structure import decompose, random_structured


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _read_json(path: str):
    return serialize.loads(_read_text(path))


def _load_tensor(path: str) -> DenseTensor:
    return serialize.read_tensor(_read_text(path))


def _seed(text: str) -> int:
    """--seed's type: numpy's generators take only non-negative integers."""
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {seed}")
    return seed


def _cmd_gen(args):
    if args.kind == "identity":
        return DenseTensor.identity(args.order, args.dim)
    if args.kind == "exchange":
        if args.order != 2:
            raise ValueError(f"the exchange matrix has order 2, got --order {args.order}")
        return exchange_matrix(args.dim)
    return random_structured(args.order, args.dim, args.kind, args.seed)


def _cmd_check(args):
    tensor = _load_tensor(args.tensor)
    checker = {
        "direct": structure.check_structure,
        "sandwich": structure.check_via_J,
        "commutation": structure.check_commutation,
    }[args.method]
    return checker(tensor, args.tol)


def _cmd_prod(args):
    return shao_product(_load_tensor(args.left), _load_tensor(args.right))


def _cmd_hadamard(args):
    return hadamard(_load_tensor(args.left), _load_tensor(args.right))


def _cmd_decompose(args):
    parts = decompose(_load_tensor(args.tensor))
    return {"centro": parts.centro, "skew": parts.skew}


def _cmd_eig(args):
    tensor = _load_tensor(args.tensor)
    return eigen.solve_eigen(tensor, starts=args.starts, seed=args.seed, tol=args.tol)


def _cmd_cauchy(args):
    spec = serialize.spec_from_obj(_read_json(args.spec))
    if args.mode == "materialize":
        return materialize(spec)
    return {
        "order": spec.order,
        "dim": spec.dim,
        "centro": cauchy_is_centro(spec),
        "skew": cauchy_is_skew(spec),
    }


def _cmd_inverse(args):
    # checked on every path, though only the order-2 recovery reads it
    if args.tol is not None:
        check_tolerance(args.tol)
    tensor = _load_tensor(args.tensor)
    left = args.side == "left"
    if args.order == 2:
        recover = (inverse.recover_order2_left_inverse if left
                   else inverse.recover_order2_right_inverse)
        return recover(tensor, tol=args.tol)
    construct = inverse.diagonal_left_inverse if left else inverse.diagonal_right_inverse
    return construct(tensor, args.order)


def _cmd_verify_all(args):
    return suite.verify_all(seed=args.seed, trials=args.trials)


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
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("check", help="classify centro/skew structure")
    p.add_argument("tensor")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument(
        "--method", choices=("direct", "sandwich", "commutation"), default="direct"
    )
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("prod", help="general tensor product")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=_cmd_prod)

    p = sub.add_parser("hadamard", help="entrywise product")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=_cmd_hadamard)

    p = sub.add_parser("decompose", help="centro + skew split")
    p.add_argument("tensor")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("eig", help="multistart H-eigenpair solve")
    p.add_argument("tensor")
    p.add_argument("--starts", type=int, default=100)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--tol", type=float, default=eigen.DEFAULT_SOLVER_TOL)
    p.set_defaults(func=_cmd_eig)

    p = sub.add_parser("cauchy", help="materialize or check a generating vector")
    p.add_argument("spec")
    p.add_argument("--mode", choices=("materialize", "check"), default="materialize")
    p.set_defaults(func=_cmd_cauchy)

    p = sub.add_parser("inverse", help="left/right inverse construction or recovery")
    p.add_argument("tensor")
    p.add_argument("--side", choices=("left", "right"), required=True)
    p.add_argument("--order", type=int, default=2, help="order of the inverse tensor")
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(func=_cmd_inverse)

    p = sub.add_parser("verify-all", help="run the full property suite")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--trials", type=int, default=suite.DEFAULT_TRIALS)
    p.set_defaults(func=_cmd_verify_all)

    # last, so each verb's usage line lists -o after its own arguments
    for p in sub.choices.values():
        p.add_argument("-o", "--output", default=None, help="output path (default stdout)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; keep its code
        return int(exc.code or 0)
    try:
        result = args.func(args)
        text = serialize.dumps(result)
        if args.output in (None, "-"):
            print(text, flush=True)
        else:
            with open(args.output, "w", encoding="utf-8") as handle:
                # two writes, not a copy of the text with its newline
                handle.write(text)
                handle.write("\n")
    except BrokenPipeError:
        # The reader closed stdout (`| head`); the print flushes inside the
        # try so a short output lands here too.  Point stdout at devnull, so
        # the flush at exit reports no error of its own.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # a negative answer printed as data
    negative = isinstance(result, inverse.NoInverse) or (
        isinstance(result, suite.SuiteReport) and not result.all_passed
    )
    return 1 if negative else 0


if __name__ == "__main__":
    sys.exit(main())
