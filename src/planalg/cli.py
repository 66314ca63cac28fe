"""The `pa` command line tool: compute, verify, dims, tangle.

Exit codes: 0 success, 1 parse error, 2 precondition violation,
3 internal assertion failure, 4 verification failed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import suites
from .config import Config, set_colour_cap
from .diagrams import catalan, enumerate_diagrams
from .elements import Element
from .errors import (ColourMismatchError, InternalError, LevelMismatchError,
                     ModeMismatchError, ParseError, PreconditionError,
                     ValidationError)
from .scalars import Scalar
from .tangles import evaluate, parse, validate
from .tower import (GradedElement, bullet, cond_expect, dagger, dot_action,
                    include, inner_product, phi, psi, sharp, trace_Tr, trace_tk)

EXIT_PARSE = 1
EXIT_PRECONDITION = 2
EXIT_INTERNAL = 3
EXIT_VERIFY_FAILED = 4


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (json.JSONDecodeError, OSError) as exc:
        raise ParseError(f"{path}: {exc}")
    if not isinstance(data, dict):
        raise ParseError(f"{path}: expected a JSON object")
    return data


def _from_json(loader, data, path: str):
    try:
        return loader(data)
    except (AttributeError, KeyError, TypeError, ValueError,
            ArithmeticError) as exc:
        raise ParseError(f"{path}: malformed input ({type(exc).__name__}: {exc})")


def _load_graded(path: str) -> GradedElement:
    data = _load_json(path)
    if "level" in data:
        return _from_json(GradedElement.from_json, data, path)
    element = _from_json(Element.from_json, data, path)
    return GradedElement.of_element(element.colour.n, element)


def _load_element(path: str) -> Element:
    data = _load_json(path)
    if "level" in data:
        raise PreconditionError(f"{path}: expected an element, got a graded element")
    return _from_json(Element.from_json, data, path)


def _emit(data, out: str | None):
    text = json.dumps(data, sort_keys=True, indent=2) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- compute -------------------------------------------------------------------


# op -> (input loader, input count, function); phi/psi take their level first
OPS = {
    "sharp": (_load_graded, 2, sharp),
    "bullet": (_load_graded, 2, bullet),
    "dot": (_load_graded, 2, dot_action),
    "inner": (_load_graded, 2, inner_product),
    "dagger": (_load_graded, 1, dagger),
    "include": (_load_graded, 1, include),
    "expect": (_load_graded, 1, cond_expect),
    "trace-tk": (_load_graded, 1, trace_tk),
    "trace-gr": (_load_graded, 1, trace_Tr),
    "phi": (_load_graded, 1, phi),
    "psi": (_load_graded, 1, psi),
    "multiply": (_load_element, 2, Element.multiply),
    "star": (_load_element, 1, Element.star),
    "tau": (_load_element, 1, Element.tau),
}


def cmd_compute(args) -> int:
    op = args.op
    if args.level is not None and op not in ("phi", "psi"):
        raise PreconditionError(f"{op} takes no --level")
    if op not in OPS:
        raise PreconditionError(f"unknown operation {op!r}")
    loader, count, fn = OPS[op]
    if len(args.inputs) != count:                   # before any file is read
        raise PreconditionError(
            f"{op} takes {count} input file(s), got {len(args.inputs)}")
    inputs = [loader(path) for path in args.inputs]
    if op in ("phi", "psi"):
        inputs.insert(0, inputs[0].level if args.level is None else args.level)
    result = fn(*inputs)
    if isinstance(result, Scalar):
        print(repr(result))
    else:
        _emit(result.to_json(), args.out)
    return 0


def cmd_tangle(args) -> int:
    try:
        with open(args.tangle, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"{args.tangle}: {exc}")
    tangle = parse(text)
    validate(tangle)
    if args.action == "validate":
        print("ok")
        return 0
    inputs = [_load_element(path) for path in args.inputs]
    result = evaluate(tangle, inputs)
    _emit(result.to_json(), args.out)
    return 0


def cmd_dims(args) -> int:
    if args.max_colour < 0:
        raise PreconditionError("max colour must be non-negative")
    if args.max_colour > args.cap:
        raise PreconditionError(
            f"max colour {args.max_colour} exceeds cap {args.cap}")
    print(f"{'colour':>6} {'dim':>8} {'enum_ms':>10}")
    for n in range(args.max_colour + 1):
        start = time.perf_counter()
        count = len(enumerate_diagrams(n))
        ms = (time.perf_counter() - start) * 1000
        if count != catalan(n):
            raise InternalError("enumeration disagrees with the Catalan number")
        print(f"{n:>6} {count:>8} {ms:>10.2f}")
    return 0


def cmd_verify(args) -> int:
    names = list(suites.SUITE_NAMES) if args.suite == "all" else [args.suite]
    cfg = Config(delta=args.delta, level=args.level, max_colour=args.max_colour,
                 seed=args.seed, suites=tuple(names), trials=args.trials)
    cfg.validate()
    report = suites.run_suites(names, cfg, jobs=args.jobs)
    if args.json or args.out:
        _emit(report, args.out)
    if not args.json:
        for row in report["checks"]:
            mark = "PASS" if row["status"] == "pass" else "FAIL"
            params = " ".join(f"{k}={v}" for k, v in sorted(row["params"].items()))
            detail = f"  [{row['details']}]" if row["details"] else ""
            print(f"{mark} {row['check']} {params}{detail}")
        total = len(report["checks"])
        failed = sum(row["status"] != "pass" for row in report["checks"])
        counted = f"{failed} of {total} checks failed" if failed else f"{total} checks"
        print(f"{'FAILURES' if failed else 'all passed'} ({counted}, seed {cfg.seed})")
    return 0 if report["status"] == "pass" else EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="pa",
                                  description="Temperley-Lieb planar algebra workbench")
    top.add_argument("--cap", type=int, default=10,
                     help="colour cap for diagram enumeration")
    sub = top.add_subparsers(dest="command", required=True)

    comp = sub.add_parser("compute", help="apply one operation to JSON inputs")
    comp.add_argument("op", help="one of: " + ", ".join(OPS))
    comp.add_argument("inputs", nargs="*")
    comp.add_argument("--level", type=int, default=None)
    comp.add_argument("--out", default=None)
    comp.set_defaults(func=cmd_compute)

    tang = sub.add_parser("tangle", help="validate or evaluate a DSL tangle")
    tang.add_argument("action", choices=("validate", "eval"))
    tang.add_argument("tangle")
    tang.add_argument("inputs", nargs="*")
    tang.add_argument("--out", default=None)
    tang.set_defaults(func=cmd_tangle)

    dims = sub.add_parser("dims", help="Catalan dimension table with timings")
    dims.add_argument("--max-colour", type=int, default=8)
    dims.set_defaults(func=cmd_dims)

    ver = sub.add_parser("verify", help="run a verification suite")
    ver.add_argument("suite", choices=suites.SUITE_NAMES + ("all",))
    ver.add_argument("--delta", default=Config.delta)
    ver.add_argument("--level", type=int, default=Config.level)
    ver.add_argument("--max-colour", type=int, default=Config.max_colour)
    ver.add_argument("--seed", type=int, default=Config.seed)
    ver.add_argument("--trials", type=int, default=Config.trials)
    ver.add_argument("--jobs", type=int, default=1)
    ver.add_argument("--out", default=None)
    ver.add_argument("--json", action="store_true")
    ver.set_defaults(func=cmd_verify)
    return top


def _float_errors() -> tuple:
    """The float failures `pa` reports in one line; numpy's `LinAlgError`
    only once numpy is loaded, since without numpy none can be raised."""
    numpy = sys.modules.get("numpy")
    return (OverflowError, FloatingPointError) + (
        (numpy.linalg.LinAlgError,) if numpy else ())


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        set_colour_cap(args.cap)
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (PreconditionError, ColourMismatchError, LevelMismatchError,
            ModeMismatchError, ValidationError) as exc:
        print(f"precondition violation: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except _float_errors() as exc:
        print(f"precondition violation: float arithmetic failed at this delta "
              f"({type(exc).__name__}: {exc})", file=sys.stderr)
        return EXIT_PRECONDITION
    except (InternalError, AssertionError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
