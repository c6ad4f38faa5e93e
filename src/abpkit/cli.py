"""Command-line surface.  Every verb maps onto exactly one library operation
family; no algebra happens here.

Exit codes: 0 success, 2 on any error.  The ``pit`` verb is special: exit 0
means the program computes the zero polynomial, exit 1 means nonzero (the
witness is printed), and errors exit 2.
"""

from __future__ import annotations

import argparse
import random
import sys
from fractions import Fraction

from . import abp as abpio
from .abp import validate
from .algebra import PrimeField
from .corpus import random_roabp
from .evaldim import (eval_dim, k_gap_check, k_gap_to_roabp, k_pass_to_roabp,
                      roabp_synthesize, roabp_width_profile)
from .hardpoly import (block_partition, eliminate_summand,
                       experiment_pn_evaldim, experiment_qn_evaldim,
                       gen_pn, gen_qn)
from .pit import iteration_bound_sweep, read_k_pit
from .sequences import concat_decompose, is_regularly_interleaving, prune


def _ints(text: str) -> list:
    return [int(x) for x in text.replace(",", " ").split()]


def _vars_arg(text: str) -> list:
    """1-based variable list on the command line to 0-based indices."""
    return [v - 1 for v in _ints(text)]


def _print_class(cls) -> None:
    kind = "read-once" if cls.k <= 1 else f"read-{cls.k}"
    print(f"{kind}, width/reads: {dict(sorted(cls.read_counts.items()))}")
    if cls.is_k_pass:
        order = ",".join(str(v + 1) for v in cls.pass_orders[0])
        print(f"{cls.k}-pass, order ({order})")
    elif cls.is_k_pass_varying_order:
        orders = "; ".join(",".join(str(v + 1) for v in pi) for pi in cls.pass_orders)
        print(f"{cls.k}-pass varying-order, orders ({orders})")
    else:
        print("not a k-pass program")


def _cmd_validate(args) -> int:
    program = abpio.load(args.file)
    cls = validate(program)
    _print_class(cls)
    print(f"width {program.width}, degree {program.degree}, "
          f"layers {len(program.layers)}")
    return 0


def _cmd_eval(args) -> int:
    program = abpio.load(args.file)
    point = _ints(args.point)
    print(program.evaluate(point))
    return 0


def _cmd_expand(args) -> int:
    program = abpio.load(args.file)
    print(program.expand(guard=args.guard))
    return 0


def _cmd_pit(args) -> int:
    program = abpio.load(args.file)
    verdict = read_k_pit(program, generator=args.generator, seed=args.seed,
                         count=args.count, path=args.points_file)
    if args.report:
        abpio.write_csv(args.report, ["iteration", "subset", "size_floor", "h_size",
                                      "points_tried", "chosen"],
                        ([i, "+".join(str(v + 1) for v in rec.subset),
                          f"{rec.size_floor:.6f}", rec.h_size, rec.points_tried,
                          " ".join(str(x) for x in rec.chosen) if rec.chosen else ""]
                         for i, rec in enumerate(verdict.iterations, 1)))
    if verdict.is_zero:
        print("zero polynomial")
        return 0
    print("nonzero; witness: " + " ".join(str(x) for x in verdict.witness))
    return 1


def _cmd_evaldim(args) -> int:
    if args.prefix is not None and args.prefix < 0:
        raise ValueError(f"--prefix must be >= 0, got {args.prefix}")
    program = abpio.load(args.file)
    f = program.expand(guard=args.guard)
    if args.prefix is not None:
        order = _vars_arg(args.order) if args.order else list(range(f.num_vars))
        S = order[:args.prefix]
        T = order[args.prefix:]
        R = []
    else:
        if args.S is None or args.T is None:
            raise ValueError("either --prefix or both --S and --T are required")
        S = _vars_arg(args.S)
        T = _vars_arg(args.T)
        R = _vars_arg(args.R) if args.R else []
    report = eval_dim(f, S, T, R, trials=args.trials, seed=args.seed)
    print(f"dimension {report.dimension}")
    if report.trial_dims:
        print("trial dimensions: " + " ".join(str(d) for d in report.trial_dims))
    for a in report.basis_assignments:
        print("basis assignment: " + " ".join(str(x) for x in a))
    return 0


def _cmd_synth_roabp(args) -> int:
    program = abpio.load(args.file)
    f = program.expand(guard=args.guard)
    order = _vars_arg(args.order) if args.order else None
    roabp = roabp_synthesize(f, order)
    profile = roabp_width_profile(f, roabp.order)
    print("order: " + ",".join(str(v + 1) for v in roabp.order))
    print("width profile: " + " ".join(str(w) for w in profile))
    print(f"realized width: {roabp.width}")
    if args.out:
        abpio.save(roabp.abp, args.out)
    return 0


def _cmd_collapse(args) -> int:
    program = abpio.load(args.file)
    if args.mode == "k-pass":
        roabp = k_pass_to_roabp(program, guard=args.guard)
    else:
        roabp = k_gap_to_roabp(program, guard=args.guard)
    print("order: " + ",".join(str(v + 1) for v in roabp.order))
    print(f"input width {program.width} -> read-once width {roabp.width}")
    if args.out:
        abpio.save(roabp.abp, args.out)
    return 0


def _cmd_sequence(args) -> int:
    program = abpio.load(args.file)
    cls = validate(program)
    seq = abpio.read_sequence(cls.normalized)
    print(f"sequence: {seq}")
    if args.action == "show":
        for i in range(1, seq.k + 1):
            labels = " ".join(f"x{seq.labels[e] + 1}" for e in seq.read_order(i))
            print(f"read {i}: {labels} ({seq.read_direction(i) or 'not monotone'})")
        return 0
    if args.action == "check":
        ok, witness = is_regularly_interleaving(seq)
        print(f"per-read-monotone: {seq.is_per_read_monotone()}")
        print(f"regularly interleaving: {ok}")
        if ok:
            for pair, blocks in sorted(witness.items()):
                shown = " | ".join(
                    "{" + ",".join(f"x{seq.labels[e] + 1}" for e in b) + "}"
                    for b in blocks)
                print(f"reads {pair}: blocks {shown}")
        else:
            print(f"failing pair: {witness['failing_pair']}")
        if seq.is_per_read_monotone() and seq.read_direction(1) != "dec":
            for seg in concat_decompose(seq):
                print(f"segment [{seg.start},{seg.end}) reads {seg.reads} "
                      f"{seg.direction}")
        gaps = [k_gap_check(cls.normalized, i) for i in range(1, program.num_vars + 1)]
        print("gap counts per prefix: " + " ".join(str(g) for g in gaps))
        return 0
    mono, regular = prune(seq)
    print("per-read-monotone subset: "
          + " ".join(f"x{seq.labels[e] + 1}" for e in sorted(mono)))
    print("regularly-interleaving subset: "
          + " ".join(f"x{seq.labels[e] + 1}" for e in sorted(regular)))
    return 0


def _cmd_gen(args) -> int:
    field = PrimeField(args.field_prime)
    if args.family == "pn":
        inst = gen_pn(args.n, field, with_poly=args.with_poly)
    else:
        inst = gen_qn(args.n, field, with_poly=args.with_poly)
    abpio.save(inst.realization, args.out)
    print(f"wrote {args.family} n={args.n} program to {args.out}")
    if args.with_poly:
        print(inst.polynomial)
    return 0


def _cmd_experiment(args) -> int:
    # an experiment with nothing in it would pass vacuously
    sizes = {"pn-evaldim": (("--max-size", args.max_size, 0),),
             "qn-evaldim": (("--pairs", args.pairs, 1),),
             "iteration-bound": (("--r-max", args.r_max, 1), ("--n-max", args.n_max, 1))}
    for flag, value, least in sizes.get(args.kind, ()):
        if value < least:
            raise ValueError(f"{flag} must be >= {least} for a non-empty sweep, got {value}")
    if args.kind == "pn-evaldim":
        report = experiment_pn_evaldim(args.n, max_size=args.max_size,
                                       field=PrimeField(args.field_prime))
        bad = [r for r in report.rows if r.lemma_applies and not r.ok]
        print(f"{len(report.rows)} subsets, {len(bad)} floor violations "
              f"inside the guarantee range")
        if args.report:
            report.to_csv(args.report)
        return 0 if not bad else 2
    if args.kind == "qn-evaldim":
        report = experiment_qn_evaldim(args.n, pairs=args.pairs,
                                       trials=args.trials, seed=args.seed,
                                       field=PrimeField(args.field_prime))
        bad = [r for r in report.rows if not r.ok]
        print(f"{len(report.rows)} sampled splits, {len(bad)} floor violations")
        if args.report:
            report.to_csv(args.report)
        return 0 if not bad else 2
    if args.kind == "eliminate":
        rng = random.Random(args.seed)
        field = PrimeField(args.field_prime)
        parts = [random_roabp(rng, field, args.n, args.width, args.entry_degree)
                 for _ in range(args.parts)]
        result = eliminate_summand(parts, args.t)
        print(f"subset: {','.join(str(v + 1) for v in result.subset)}")
        print(f"alpha: {' '.join(str(a) for a in result.alpha)}")
        for i, res in enumerate(result.residuals, start=2):
            print(f"residual part {i}: width {res.width}")
        return 0
    if args.kind == "blocks":
        if args.file is None:
            raise ValueError("experiment blocks needs --file")
        program = abpio.load(args.file)
        part = block_partition(program, args.blocks)
        print(f"chosen blocks: {part.chosen}")
        print(f"|U|={len(part.U)} |V|={len(part.V)} |W|={len(part.W)}")
        if args.report:
            abpio.write_csv(args.report, ["set", "variables"],
                            ([name, " ".join(str(v + 1) for v in sorted(group))]
                             for name, group in (("U", part.U), ("V", part.V),
                                                 ("W", part.W))))
        return 0
    # iteration-bound: the sweep refuses a bad p before the report is opened,
    # and its rows stream to the report, one byte kept per check
    sweep = iteration_bound_sweep([Fraction(x) for x in args.p_grid.split(",")],
                                  range(1, args.r_max + 1), args.n_max)
    oks = bytearray()

    def rows():
        for p, r, n, ok in sweep:
            oks.append(ok)
            yield str(p), r, n, int(ok)
    if args.report:
        abpio.write_csv(args.report, ["p", "r", "n", "ok"], rows())
    else:
        oks.extend(ok for *_, ok in sweep)
    failures = oks.count(False)
    print(f"{len(oks)} grid points checked, {failures} failures")
    return 0 if failures == 0 else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="abpkit",
        description="Read-k oblivious branching programs: validation, "
                    "identity testing, width collapse, and experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="classify a program file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("eval", help="evaluate at a point")
    p.add_argument("file")
    p.add_argument("--point", required=True, help="comma-separated field values")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("expand", help="print the exact polynomial")
    p.add_argument("file")
    p.add_argument("--guard", type=int, default=abpio.DEFAULT_EXPAND_GUARD)
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("pit", help="white-box identity test")
    p.add_argument("file")
    p.add_argument("--generator", choices=["grid", "random", "external"],
                   default="grid")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=None,
                   help="points per round for the random generator")
    p.add_argument("--points-file", default=None,
                   help="external hitting-set file")
    p.add_argument("--report", default=None, help="write the iteration trace CSV")
    p.set_defaults(func=_cmd_pit)

    p = sub.add_parser("evaldim", help="evaluation dimension of the expansion")
    p.add_argument("file")
    p.add_argument("--prefix", type=int, default=None)
    p.add_argument("--order", default=None, help="1-based variable order")
    p.add_argument("--S", default=None)
    p.add_argument("--T", default=None)
    p.add_argument("--R", default=None)
    p.add_argument("--trials", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--guard", type=int, default=abpio.DEFAULT_EXPAND_GUARD)
    p.set_defaults(func=_cmd_evaldim)

    p = sub.add_parser("synth-roabp", help="read-once synthesis from the expansion")
    p.add_argument("file")
    p.add_argument("--order", default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--guard", type=int, default=abpio.DEFAULT_EXPAND_GUARD)
    p.set_defaults(func=_cmd_synth_roabp)

    p = sub.add_parser("collapse", help="k-pass / k-gap width collapse")
    p.add_argument("file")
    p.add_argument("--mode", choices=["k-pass", "k-gap"], required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--guard", type=int, default=abpio.DEFAULT_EXPAND_GUARD)
    p.set_defaults(func=_cmd_collapse)

    p = sub.add_parser("sequence", help="read-sequence inspection and pruning")
    p.add_argument("file")
    p.add_argument("--action", choices=["show", "check", "prune"], default="show")
    p.set_defaults(func=_cmd_sequence)

    p = sub.add_parser("gen", help="write a hard-family fixture")
    p.add_argument("family", choices=["pn", "qn"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--field-prime", type=int, default=101)
    p.add_argument("--out", required=True)
    p.add_argument("--with-poly", action="store_true")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("experiment", help="dimension and bound experiments")
    p.add_argument("kind", choices=["pn-evaldim", "qn-evaldim", "eliminate",
                                    "blocks", "iteration-bound"])
    p.add_argument("--file", default=None, help="program file (blocks)")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--max-size", type=int, default=4)
    p.add_argument("--pairs", type=int, default=50)
    p.add_argument("--trials", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--field-prime", type=int, default=101)
    p.add_argument("--parts", type=int, default=2)
    p.add_argument("--width", type=int, default=3)
    p.add_argument("--t", type=int, default=2)
    p.add_argument("--entry-degree", type=int, default=1)
    p.add_argument("--blocks", type=int, default=4)
    p.add_argument("--p-grid", default="0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9")
    p.add_argument("--r-max", type=int, default=9)
    p.add_argument("--n-max", type=int, default=10000)
    p.add_argument("--report", default=None)
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 2
    except Exception as exc:  # guard violations, parse errors, bad inputs
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
