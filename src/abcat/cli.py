"""Command-line surface: run constructions on diagram files, verify laws,
generate instances, and run the property selftest.

Exit codes: 0 when every reported verdict holds, 1 when a verdict is false,
2 on invalid input (bad JSON, malformed diagram, bad flags), 3 when an
internal cross-check fails or anything else goes wrong, which is a bug.
Only ``check-exact``, ``square`` and a failing ``selftest`` can exit 1: the
other commands print identities that hold by construction, so each of
their verdict lines reads ``yes`` or the command exits 3.  Output is
canonical: the same input and flags always print the same bytes.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .category import Mor
from .constructions import (
    epi_mono_factorize,
    is_exact_pair,
    pullback,
    pushout,
)
from .diagram_io import (
    MAX_DIM,
    DiagramFile,
    Report,
    diagram_for_pair,
    diagram_for_snake,
    diagram_for_square,
    parse_path,
    serialize,
    snake_from,
    square_from,
)
from .diagrams import GenConfig, gen_exact_pair, gen_semicartesian, gen_snake_input
from .errors import (
    DiagramFormatError,
    GenerationError,
    InternalCheckError,
    PreconditionError,
    ShapeError,
    hold,
)
from .fields import RATIONALS, ScalarField, prime_field
from .snake import SnakeInputError, snake_sequence
from .squares import analyze, decompose_semicartesian


def _field_arg(text: str) -> ScalarField:
    low = text.strip().lower()
    if low == "q":
        return RATIONALS
    if low.startswith("gf:"):
        digits = low[3:]  # ASCII only, as in diagram files; int() takes more
        if not (digits.isascii() and digits.isdigit()):
            raise argparse.ArgumentTypeError(f"P in gf:P must be ASCII digits: {text!r}")
        try:
            return prime_field(int(digits))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
    raise argparse.ArgumentTypeError(f"unknown field {text!r}; use q or gf:P")


def _two_names(text: str) -> tuple[str, str]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2 or not all(parts):
        raise argparse.ArgumentTypeError(
            f"expected two morphism names separated by a comma, got {text!r}")
    return parts[0], parts[1]


def _lookup(df: DiagramFile, name: str) -> Mor:
    if name not in df.morphisms:
        raise DiagramFormatError(f"no morphism named {name!r} in the file")
    return df.mor(name)


def _yes(flag: bool) -> str:
    return "yes" if flag else "no"


def _emit(report: Report) -> int:
    sys.stdout.write(report.to_text())
    return 0 if report.all_true else 1


# ---------------------------------------------------------------------------
# commands

def cmd_factor(args: argparse.Namespace) -> int:
    df = parse_path(args.file)
    f = _lookup(df, args.morphism)
    fac = epi_mono_factorize(f)
    report = Report(
        title=f"factor {args.morphism}: {f.src} -> {f.dst}",
        verdicts=hold("factor", {
            "epi_part_epi": fac.epi_q.is_epi,
            "mono_part_mono": fac.mono_m.is_mono,
            "recomposes": fac.mono_m @ fac.epi_q == f,
        }),
        ranks={"rank": f.rank, "image_dim": fac.mono_m.src.dim},
        derived={"q": str(fac.epi_q.mat), "m": str(fac.mono_m.mat)},
    )
    return _emit(report)


def cmd_check_exact(args: argparse.Namespace) -> int:
    df = parse_path(args.file)
    if df.kind != "pair":
        raise DiagramFormatError(f"check-exact needs a pair diagram, got {df.kind!r}")
    f, g = df.role("f"), df.role("g")
    report = Report(
        title=f"exactness of (f, g) at {f.dst}",
        verdicts={
            "composite_zero": (g @ f).is_zero,
            "exact": is_exact_pair(f, g),
        },
        ranks={"rank_f": f.rank, "rank_g": g.rank, "middle_dim": f.dst.dim},
    )
    return _emit(report)


def cmd_pullback(args: argparse.Namespace) -> int:
    df = parse_path(args.file)
    name_c, name_d = args.of
    pb = pullback(_lookup(df, name_c), _lookup(df, name_d))
    report = Report(
        title=f"pullback of ({name_c}, {name_d})",
        verdicts=hold("pullback", {"square_commutes": pb.c @ pb.f == pb.d @ pb.g}),
        ranks={"apex_dim": pb.p_obj.dim},
        derived={
            "leg_f": str(pb.f.mat),
            "leg_g": str(pb.g.mat),
            "embedding_n": str(pb.n.mat),
        },
    )
    return _emit(report)


def cmd_pushout(args: argparse.Namespace) -> int:
    df = parse_path(args.file)
    name_a, name_b = args.of
    po = pushout(_lookup(df, name_a), _lookup(df, name_b))
    report = Report(
        title=f"pushout of ({name_a}, {name_b})",
        verdicts=hold("pushout", {"square_commutes": po.r @ po.a == po.s @ po.b}),
        ranks={"corner_dim": po.s_obj.dim},
        derived={
            "leg_r": str(po.r.mat),
            "leg_s": str(po.s.mat),
            "projection_t": str(po.t.mat),
        },
    )
    return _emit(report)


def cmd_square(args: argparse.Namespace) -> int:
    df = parse_path(args.file)
    sq = square_from(df)
    res = analyze(sq)
    report = Report(
        title="square analysis",
        verdicts={
            "condition_i": res.cond_i,
            "condition_ii": res.cond_ii,
            "condition_iii": res.cond_iii,
            "condition_iv": res.cond_iv,
            "semi_cartesian": res.is_semicartesian,
        },
        ranks={
            "pullback_dim": res.pb.p_obj.dim,
            "pushout_dim": res.po.s_obj.dim,
        },
        derived={
            "cartesian": _yes(res.is_cartesian),
            "cocartesian": _yes(res.is_cocartesian),
            "comparison_e": str(res.e.mat),
            "comparison_m": str(res.m.mat),
        },
    )
    if args.decompose:
        if res.is_semicartesian:
            first, second = decompose_semicartesian(sq)
            # decompose_semicartesian has checked that the halves recompose to sq
            report.verdicts["decomposition_recomposes"] = True
            report.ranks["middle_top_dim"] = first.right.src.dim
            report.ranks["middle_bottom_dim"] = first.right.dst.dim
            report.derived["first_top"] = str(first.top.mat)
            report.derived["first_bottom"] = str(first.bottom.mat)
            report.derived["middle_vertical"] = str(first.right.mat)
            report.derived["second_top"] = str(second.top.mat)
            report.derived["second_bottom"] = str(second.bottom.mat)
        else:
            report.violations.append(
                "not semi-cartesian: no cocartesian-epi / cartesian-mono decomposition")
    return _emit(report)


def cmd_snake(args: argparse.Namespace) -> int:
    df = parse_path(args.file)
    inp = snake_from(df)
    try:
        out = snake_sequence(inp)
    except SnakeInputError as exc:
        report = Report(title="snake ladder",
                        violations=[f"{v.code}: {v.message}" for v in exc.violations])
        sys.stdout.write(report.to_text())
        return 2
    ku, kv, kw = out.ker_u, out.ker_v, out.ker_w
    cu, cv, cw = out.coker_u, out.coker_v, out.coker_w
    report = Report(
        title="snake ladder",
        # snake_sequence has checked each of these, and delta against the chase
        verdicts=dict.fromkeys(
            ("exact_at_ker_v", "exact_at_ker_w", "exact_at_coker_u", "exact_at_coker_v",
             "kernel_naturality", "cokernel_naturality"), True),
        ranks={
            "ker_u_dim": ku.ker_obj.dim, "ker_v_dim": kv.ker_obj.dim,
            "ker_w_dim": kw.ker_obj.dim, "coker_u_dim": cu.coker_obj.dim,
            "coker_v_dim": cv.coker_obj.dim, "coker_w_dim": cw.coker_obj.dim,
            "rank_s": out.s.rank, "rank_t": out.t.rank,
            "rank_delta": out.delta.rank, "rank_x": out.x.rank,
            "rank_y": out.y.rank,
        },
        derived={
            "s": str(out.s.mat), "t": str(out.t.mat),
            "delta": str(out.delta.mat),
            "x": str(out.x.mat), "y": str(out.y.mat),
        },
    )
    if args.trace:
        tr = out.trace
        report.derived["trace_reduced_a"] = str(tr.mono_a.mat)
        report.derived["trace_reduced_d"] = str(tr.epi_d.mat)
        report.derived["trace_pullback_n"] = str(tr.pb.n.mat)
        report.derived["trace_z"] = str(tr.z.mat)
        report.derived["trace_l"] = str(tr.l.mat)
        report.derived["trace_theta"] = str(tr.theta.mat)
        report.derived["trace_h"] = str(tr.h.mat)
    if args.oracle:
        report.verdicts["oracle_matches_up_to_sign"] = True
        report.derived["chase"] = str(out.delta.mat)
        report.derived["oracle_sign"] = "0" if out.delta.is_zero else "+1"
    return _emit(report)


def cmd_gen(args: argparse.Namespace) -> int:
    # a generated square's corner reaches 2 * max_dim + 2 (a pullback apex
    # and up to two more), so this keeps every generated file readable
    top = (MAX_DIM - 2) // 2
    if args.max_dim > top:
        raise ValueError(f"--max-dim must be at most {top}, got {args.max_dim}")
    cfg = GenConfig(seed=args.seed, field=args.field, max_dim=args.max_dim)
    meta = {"generator": "splitmix64", "seed": args.seed,
            "kind": args.kind, "max_dim": args.max_dim}
    if args.kind == "pair":
        f, g = gen_exact_pair(cfg)
        df = diagram_for_pair(f, g, meta=meta)
    elif args.kind == "square":
        df = diagram_for_square(gen_semicartesian(cfg), meta=meta)
    else:
        df = diagram_for_snake(gen_snake_input(cfg), meta=meta)
    sys.stdout.write(serialize(df))
    return 0


def cmd_selftest(args: argparse.Namespace) -> int:
    from .properties import run_selftest  # here, so that no other command loads the battery

    if args.cases < 1:
        raise ValueError(f"--cases must be at least 1, got {args.cases}")
    fields = tuple(args.field) if args.field else (RATIONALS, prime_field(7))
    results = run_selftest(cases=args.cases, seed=args.seed, fields=fields)
    good = 0
    for res in results:
        sys.stdout.write(res.line() + "\n")
        if res.ok:
            good += 1
        else:
            for message in res.failures:
                sys.stdout.write(f"  {res.name}: {message}\n")
    sys.stdout.write(f"selftest: {good}/{len(results)} suites ok\n")
    return 0 if good == len(results) else 1


# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="abcat",
        description="Exact-arithmetic diagram calculator: factorizations, "
                    "fiber products, square analysis, and the snake lemma "
                    "over Q and prime fields.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("factor", help="epi-mono factorization of one morphism")
    p.add_argument("file")
    p.add_argument("--morphism", required=True, metavar="NAME")
    p.set_defaults(func=cmd_factor)

    p = sub.add_parser("check-exact", help="exactness of a pair diagram")
    p.add_argument("file")
    p.set_defaults(func=cmd_check_exact)

    p = sub.add_parser("pullback", help="pullback of a cospan in the file")
    p.add_argument("file")
    p.add_argument("--of", required=True, type=_two_names, metavar="C,D")
    p.set_defaults(func=cmd_pullback)

    p = sub.add_parser("pushout", help="pushout of a span in the file")
    p.add_argument("file")
    p.add_argument("--of", required=True, type=_two_names, metavar="A,B")
    p.set_defaults(func=cmd_pushout)

    p = sub.add_parser("square", help="semi-cartesian analysis of a square diagram")
    p.add_argument("file")
    p.add_argument("--decompose", action="store_true",
                   help="also factor into a cocartesian-epi square followed "
                        "by a cartesian-mono square")
    p.set_defaults(func=cmd_square)

    p = sub.add_parser("snake", help="six-term sequence of a snake diagram")
    p.add_argument("file")
    p.add_argument("--trace", action="store_true",
                   help="include the intermediate arrows of the construction")
    p.add_argument("--oracle", action="store_true",
                   help="also print the element chase's lines; delta is "
                        "checked against the chase either way")
    p.set_defaults(func=cmd_snake)

    p = sub.add_parser("gen", help="generate a seeded random diagram file")
    p.add_argument("--kind", required=True, choices=("pair", "square", "snake"))
    p.add_argument("--seed", required=True, type=int, metavar="N")
    p.add_argument("--field", type=_field_arg, default=RATIONALS,
                   metavar="{q|gf:P}")
    p.add_argument("--max-dim", type=int, default=5, metavar="D")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("selftest", help="run every property suite")
    p.add_argument("--cases", type=int, default=200, metavar="N")
    p.add_argument("--seed", type=int, default=1, metavar="S")
    p.add_argument("--field", type=_field_arg, action="append",
                   metavar="{q|gf:P}",
                   help="field to test (repeatable; default: q and gf:7)")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DiagramFormatError, PreconditionError, ShapeError,
            GenerationError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (InternalCheckError, SnakeInputError) as exc:
        # cmd_snake reports an invalid input ladder itself, so an invalid
        # ladder that reaches here was built by the library
        sys.stderr.write(f"internal error (this is a bug): {exc}\n")
        return 3
    except Exception as exc:  # noqa: BLE001 - whatever else escapes is a bug
        sys.stderr.write(f"internal error (this is a bug): {type(exc).__name__}: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
