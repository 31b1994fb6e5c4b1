"""Command-line surface: stable JSON on stdout, prose on stderr.

Exit codes: 0 all checks pass, 1 a check failed, 2 usage or input error.
"""
from __future__ import annotations

import argparse
import json
import sys

from .generators_gl import Generator, descriptor_to_json
from .generators_osp import build_system, eval_family
from .linalg import matrix_from_json, matrix_to_json
from .sampling import GroupPoint, GroupMembershipError, Rng, defining_equation_holds, sample_group_point, sample_slice, sample_unipotent_radical
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


def _parse_parts(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise UsageError(f"cannot parse composition {text!r}; expected e.g. 1,2,2") from None


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _u64(text: str) -> int:
    value = int(text)
    if not 0 <= value < 1 << 64:
        raise argparse.ArgumentTypeError(f"must be in [0, 2^64), got {value}")
    return value


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
        _emit(descriptor_to_json(gen), lines)
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
    except (OSError, ValueError, TypeError, ZeroDivisionError) as exc:
        raise UsageError(f"cannot read matrix file: {exc}") from None
    if m.nrows != shape.n or m.ncols != shape.n:
        raise UsageError(f"matrix is {m.nrows}x{m.ncols}, shape needs {shape.n}x{shape.n}")
    if shape.kind in (GroupKind.O, GroupKind.SP) and not defining_equation_holds(shape.kind, m):
        raise UsageError(f"matrix violates the defining form equation of {shape.kind.value}({shape.n})")
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
    text = report.to_canonical_json()
    lines.append(text)
    sys.stdout.write(text + "\n")
    print(f"duration_ms={report.duration_ms:.1f}", file=sys.stderr)
    _write_out(args, lines)
    return 0 if report.passed else 1


def _cmd_orbit_dim(args) -> int:
    shape = _shape_from_args(args)
    dims = []
    for t in range(args.points):
        rng = Rng(args.seed, stream=t)
        x = sample_group_point(shape, rng, args.bound).matrix
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
            point: GroupPoint = sampler(shape, rng, args.bound)
        except ShapeError as exc:
            raise UsageError(str(exc)) from None
        _emit(matrix_to_json(point.matrix), lines)
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
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="parinv", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, need_shape=True):
        if need_shape:
            p.add_argument("--group", choices=[k.value for k in GroupKind])
            p.add_argument("--n", type=int)
            p.add_argument("--parts", type=str, help="comma-separated composition, e.g. 1,2,2")
        p.add_argument("--seed", type=_u64, default=1)
        p.add_argument("--bound", type=_positive_int, default=10)
        p.add_argument("--trials", type=_positive_int, default=100)
        p.add_argument("--out", type=str, default=None)

    add_common(sub.add_parser("describe", help="print generator descriptors as JSON lines"))
    p_eval = sub.add_parser("eval", help="evaluate all generators at a matrix")
    add_common(p_eval)
    p_eval.add_argument("--matrix", type=str, help="JSON matrix file (array of arrays of strings)")
    p_verify = sub.add_parser("verify", help="run the verification suite")
    add_common(p_verify)
    p_verify.add_argument(
        "--inject-mutation",
        action="store_true",
        help="debug: also assert invariance of a known-broken descriptor (must fail)",
    )
    p_orbit = sub.add_parser("orbit-dim", help="orbit dimensions at sampled points")
    add_common(p_orbit)
    p_orbit.add_argument("--points", type=_positive_int, default=3)
    p_sample = sub.add_parser("sample", help="emit sampled matrices as JSON lines")
    add_common(p_sample)
    p_sample.add_argument("--what", choices=sorted(_SAMPLERS), default="group")
    p_self = sub.add_parser("selftest", help="verify all reference shapes")
    add_common(p_self, need_shape=False)
    p_self.set_defaults(trials=25)
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
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ShapeError, GroupMembershipError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
