"""Command-line surface: stable JSON on stdout, prose on stderr.

Exit codes: 0 all checks pass, 1 a check failed, 2 usage or input error,
3 an internal fault (a sampler built a point outside its group).
"""
from __future__ import annotations

import argparse
import json
import re
import sys

from .generators_gl import Generator, descriptor_to_json, ratio_to_json
from .generators_osp import build_system, eval_family
from .linalg import matrix_from_json, matrix_to_json
from .sampling import (
    InternalConsistencyError,
    Rng,
    defining_equation_holds,
    sample_group_point,
    sample_slice,
    sample_unipotent_radical,
)
from .shapes import FlagShape, GroupKind, ShapeError, dim_unipotent_radical, make_shape
from .verification import orbit_dimension, run_suite

ACCEPTANCE_SHAPES = (
    ("gl", 5, (1, 2, 2)),
    ("gl", 6, (1, 2, 3)),
    ("gl", 6, (3, 3)),
    ("sl", 5, (1, 2, 2)),
    ("o", 5, (1, 3, 1)),
    ("o", 6, (2, 2, 2)),
    ("sp", 4, (1, 2, 1)),
    ("sp", 8, (1, 2, 2, 2, 1)),
)


class UsageError(Exception):
    pass


def _integer(text: str) -> int:
    """A plain decimal integer, the one integer syntax of every flag (int() alone
    would also read "1_2", " 5" and other scripts' digits)."""
    if not re.fullmatch(r"[+-]?[0-9]+", text):
        raise argparse.ArgumentTypeError(f"not a plain decimal integer: {text!r}")
    try:
        return int(text)
    except ValueError as exc:  # more digits than the interpreter converts
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_parts(text: str) -> tuple[int, ...]:
    try:
        return tuple(_integer(p) for p in text.split(","))
    except argparse.ArgumentTypeError:
        raise UsageError(f"cannot parse composition {text!r}; expected e.g. 1,2,2") from None


def _int_in(lo: int, hi: int | None = None):
    """Argument type of an integer in the closed range [lo, hi], unbounded above without hi."""
    def int_in_range(text: str) -> int:
        value = _integer(text)
        if value < lo or (hi is not None and value > hi):
            raise argparse.ArgumentTypeError(f"must be in [{lo}, {'inf' if hi is None else hi}], got {value}")
        return value
    return int_in_range


_CHECK_TRIALS = _int_in(1, 1 << 20)  # each check's stream slice holds 2^20 trials


def _shape_from_args(args) -> FlagShape:
    if args.group is None or args.n is None or args.parts is None:
        raise UsageError("--group, --n and --parts are required")
    try:
        return make_shape(args.group, args.n, _parse_parts(args.parts))
    except ShapeError as exc:
        raise UsageError(str(exc)) from None


def _emit(line_obj, out_lines: list[str]):
    text = json.dumps(line_obj, sort_keys=True, separators=(",", ":"))
    out_lines.append(text)
    sys.stdout.write(text + "\n")


def _cmd_describe(args) -> int:
    shape = _shape_from_args(args)
    lines: list[str] = []
    system = build_system(shape)
    for gen in system.j:
        _emit(descriptor_to_json(gen), lines)
    if system.m0 is not None:
        _emit({**descriptor_to_json(Generator(None, system.m0)), "name": "M0"}, lines)
    for gen in system.ratios:
        _emit(ratio_to_json(gen, system.m0), lines)
    _write_out(args, lines)
    return 0


def _cmd_eval(args) -> int:
    shape = _shape_from_args(args)
    if args.matrix is None:
        raise UsageError("--matrix FILE is required")
    try:
        with open(args.matrix, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        m = matrix_from_json(data)
    except (OSError, ValueError, TypeError, ZeroDivisionError, RecursionError) as exc:
        # a deeply nested array overflows the JSON decoder's recursion
        raise UsageError(f"cannot read matrix file: {exc}") from None
    if m.nrows != shape.n or m.ncols != shape.n:
        raise UsageError(f"matrix is {m.nrows}x{m.ncols}, shape needs {shape.n}x{shape.n}")
    if not defining_equation_holds(shape.kind, m):
        equation = {GroupKind.GL: "equation det != 0", GroupKind.SL: "equation det = 1"}.get(shape.kind, "form equation")
        raise UsageError(f"matrix violates the defining {equation} of {shape.kind.value}({shape.n})")
    system = build_system(shape)
    family = system.family()
    named = dict(zip((label for label, _ in family), eval_family(family, m)))
    # J(i,j) is keyed "(i,j)"; M0 and M(i,j) keep their names
    values: dict[str, object] = {label.removeprefix("J"): str(v) for label, v in named.items()}
    m0 = named.get("M0")
    for gen in system.ratios:
        key = f"({gen.pair.i},{gen.pair.j})"
        values[f"P{key}"] = None if m0 == 0 else str(named[f"M{key}"] / m0)
    if m0 == 0:
        print("ratio undefined at this point (M0 = 0)", file=sys.stderr)
    lines: list[str] = []
    _emit(values, lines)
    _write_out(args, lines)
    return 0


def _cmd_verify(args) -> int:
    shape = _shape_from_args(args)
    report = run_suite(
        shape,
        seed=args.seed,
        trials=args.trials,
        bound=args.bound,
        inject_mutation=args.inject_mutation,
    )
    lines: list[str] = []
    _emit(report.to_json_obj(), lines)
    print(f"duration_ms={report.duration_ms:.1f}", file=sys.stderr)
    _write_out(args, lines)
    return 0 if report.passed else 1


def _cmd_orbit_dim(args) -> int:
    shape = _shape_from_args(args)
    dims = []
    for t in range(args.points):
        rng = Rng(args.seed, stream=t)
        x = sample_group_point(shape, rng, args.bound)
        dims.append(orbit_dimension(shape, x))
    lines: list[str] = []
    _emit({"orbit_dims": dims, "dim_u": dim_unipotent_radical(shape), "points": args.points}, lines)
    _write_out(args, lines)
    return 0


_SAMPLERS = {
    "group": lambda shape, rng, bound: sample_group_point(shape, rng, bound),
    "unipotent": lambda shape, rng, bound: sample_unipotent_radical(shape, rng, bound),
    "slice-s": lambda shape, rng, bound: sample_slice(shape, rng, bound, "s"),
    "slice-s0": lambda shape, rng, bound: sample_slice(shape, rng, bound, "s0"),
    "slice-scirc": lambda shape, rng, bound: sample_slice(shape, rng, bound, "s_circ"),
}


def _cmd_sample(args) -> int:
    shape = _shape_from_args(args)
    sampler = _SAMPLERS[args.what]
    lines: list[str] = []
    for t in range(args.trials):
        rng = Rng(args.seed, stream=t)
        try:
            point = sampler(shape, rng, args.bound)
        except ShapeError as exc:
            raise UsageError(str(exc)) from None
        _emit(matrix_to_json(point), lines)
    _write_out(args, lines)
    return 0


def _cmd_selftest(args) -> int:
    lines: list[str] = []
    all_pass = True
    for kind, n, parts in ACCEPTANCE_SHAPES:
        shape = make_shape(kind, n, parts)
        report = run_suite(shape, seed=args.seed, trials=args.trials, bound=args.bound)
        all_pass = all_pass and report.passed
        _emit(
            {"shape": shape.to_json(), "pass": report.passed,
             "failed": [c.name for c in report.checks if not c.passed]},
            lines,
        )
        print(f"{kind}({n}) parts={parts}: {'ok' if report.passed else 'FAIL'} "
              f"({report.duration_ms:.0f} ms)", file=sys.stderr)
    _write_out(args, lines)
    return 0 if all_pass else 1


def _write_out(args, lines: list[str]):
    if getattr(args, "out", None):
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")
        except OSError as exc:
            raise UsageError(f"cannot write --out file: {exc}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="parinv", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, help, shape=True, sampled=True):
        """A command with --out, the shape flags unless shape is False, and --seed and
        --bound if it draws samples; each command adds the other flags it reads."""
        p = sub.add_parser(name, help=help)
        if shape:
            p.add_argument("--group", choices=[k.value for k in GroupKind])
            p.add_argument("--n", type=_integer)
            p.add_argument("--parts", type=str, help="comma-separated composition, e.g. 1,2,2")
        if sampled:
            p.add_argument("--seed", type=_int_in(0, (1 << 64) - 1), default=1)
            # draws from [-bound, bound] must fit one 64-bit step
            p.add_argument("--bound", type=_int_in(1, (1 << 63) - 1), default=10)
        p.add_argument("--out", type=str, default=None)
        return p

    add_command("describe", "print generator descriptors as JSON lines", sampled=False)
    add_command("eval", "evaluate all generators at a matrix", sampled=False).add_argument(
        "--matrix", type=str, help="JSON matrix file (array of arrays of strings)"
    )
    p_verify = add_command("verify", "run the verification suite")
    p_verify.add_argument("--trials", type=_CHECK_TRIALS, default=100)
    p_verify.add_argument(
        "--inject-mutation",
        action="store_true",
        help="debug: also assert invariance of a known-broken descriptor (must fail)",
    )
    add_command("orbit-dim", "orbit dimensions at sampled points").add_argument(
        "--points", type=_int_in(1), default=3
    )
    p_sample = add_command("sample", "emit sampled matrices as JSON lines")
    p_sample.add_argument("--trials", type=_int_in(1), default=100)
    p_sample.add_argument("--what", choices=sorted(_SAMPLERS), default="group")
    add_command("selftest", "verify all reference shapes", shape=False).add_argument(
        "--trials", type=_CHECK_TRIALS, default=25
    )
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    commands = {
        "describe": _cmd_describe,
        "eval": _cmd_eval,
        "verify": _cmd_verify,
        "orbit-dim": _cmd_orbit_dim,
        "sample": _cmd_sample,
        "selftest": _cmd_selftest,
    }
    try:
        return commands[args.command](args)
    except (UsageError, ShapeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalConsistencyError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
