"""Command-line front end: instance generation, reduction pipelines,
solver and approximation runs, and the property-verification harness.

Every command is a pure function of its flags and --seed; result payloads
are canonical JSON so identical invocations produce identical bytes.
Wall-clock timings go to stderr only.  Exit codes: 0 success, 2 usage
error, 3 cap exceeded, 4 verification failure.
"""

from __future__ import annotations

import argparse
import contextlib
import random
import re
import sys
import time
from fractions import Fraction

from .approx import approx_2unbounded, approx_lp_rounding, approx_sqrt_d
from .csp import Csp2Instance, RcspInstance, SatInstance
from .errors import DEFAULT_NODE_CAP, CapExceededError, ConstructionError
from .generators import (
    gen_csp2,
    gen_rcsp,
    gen_rcsp_planted,
    gen_sat,
    gen_sat_satisfiable,
    gen_vk,
    gen_vk_2bounded,
    gen_vk_2unbounded,
    gen_vk_mixed,
)
from .knapsack import (
    DEFAULT_STATE_CAP,
    VkInstance,
    check_feasible,
    profit,
    solve_bruteforce,
    solve_dp,
)
from .reductions import (
    csp2_to_rcsp,
    rcsp_to_vk_embed,
    rcsp_to_vk_simple,
    sat_to_rcsp_disperser_route,
    sat_to_rcsp_embedding_route,
)
from .serialize import canonical_json, parse_instance, write_instance
from .verify import SUITES, report_csv, report_json_payload, report_text, run_suite

USAGE_EXIT = 2
CAP_EXIT = 3
VERIFY_EXIT = 4

# --epsilon: an integer, a decimal or p/q with q > 0.  Fraction also takes an
# exponent, and "1e-2000000" alone builds a denominator of millions of bits.
RATIONAL = re.compile(r"[+-]?(?:[0-9]+/0*[1-9][0-9]*|[0-9]*\.?[0-9]+)")


def _open_out(out: str | None):
    """The text stream for --out: the named file, or stdout when absent."""
    return open(out, "w", encoding="utf-8") if out else contextlib.nullcontext(sys.stdout)


def _read_instance(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return parse_instance(handle.read())


def _gen_sat(a, rng):
    if a.planted:
        return gen_sat_satisfiable(a.n, a.m, a.bound, rng)[0]
    return gen_sat(a.n, a.m, a.bound, rng)


def _gen_rcsp(a, rng):
    shape = (a.vertices, a.sigma, a.upsilon, rng)
    if a.planted:
        return gen_rcsp_planted(*shape, edge_count=a.edges, regular3=a.regular3)[0]
    return gen_rcsp(*shape, edge_count=a.edges, regular3=a.regular3)


def _sat2rcsp_disperser(phi, a):
    if not RATIONAL.fullmatch(a.epsilon):
        raise ValueError("--epsilon must be an integer, decimal or p/q with q > 0, "
                         f"not {a.epsilon!r}")
    return sat_to_rcsp_disperser_route(phi, a.k, a.r, Fraction(a.epsilon), a.seed)


# vk class: (generator, least --max-cost); the non-plain classes draw each
# budget from 2..max_cost
VK_CLASSES = {
    "plain": (gen_vk, 1),
    "mixed": (gen_vk_mixed, 2),
    "2bounded": (gen_vk_2bounded, 2),
    "2unbounded": (gen_vk_2unbounded, 2),
}

# kind: (its own flag floors given the args, build from (args, rng))
GEN = {
    "sat": (lambda a: (), _gen_sat),
    "csp2": (
        lambda a: (("sigma", 1),),
        lambda a, rng: gen_csp2(
            a.vertices, a.sigma, rng, edge_count=a.edges,
            regular3=a.regular3 or a.edges is None, planted=a.planted,
        ),
    ),
    "rcsp": (lambda a: (("sigma", 1), ("upsilon", 1)), _gen_rcsp),
    "vk": (
        lambda a: (
            ("max-cost", VK_CLASSES[a.vk_class][1], f" for --vk-class {a.vk_class}"),
            ("max-profit", 0),
        ),
        lambda a, rng: VK_CLASSES[a.vk_class][0](a.n, a.dims, a.max_cost, a.max_profit, rng),
    ),
}

# route: (input type, the kind its error names, build from (instance, args));
# AUDITED_ROUTE alone builds an artifacts object beside its target
AUDITED_ROUTE = "rcsp2vk-embed"
REDUCE = {
    "sat2rcsp-embed": (SatInstance, "a sat", lambda phi, a: sat_to_rcsp_embedding_route(phi, a.k)),
    "sat2rcsp-disperser": (SatInstance, "a sat", _sat2rcsp_disperser),
    "csp2rcsp": (Csp2Instance, "a csp2", lambda gamma, a: csp2_to_rcsp(gamma)),
    "rcsp2vk-simple": (RcspInstance, "an rcsp", lambda pi, a: rcsp_to_vk_simple(pi)),
    AUDITED_ROUTE: (RcspInstance, "an rcsp", lambda pi, a: rcsp_to_vk_embed(pi, a.F)),
}

# method: the chosen Solution of (instance, args)
SOLVE = {
    "brute": lambda inst, a: solve_bruteforce(inst, a.cap_nodes)[1],
    "dp": lambda inst, a: solve_dp(inst, a.cap_states)[1],
    "approx": lambda inst, a: approx_sqrt_d(inst, a.seed),
    "approx-unbounded": lambda inst, a: approx_2unbounded(inst),
    "approx-lp": lambda inst, a: approx_lp_rounding(inst, a.seed),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="knapreduce",
        description=(
            "Constraint-problem reductions to vector knapsack, exact oracles, "
            "and a dimension-scaled approximation, with a verification harness."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="write a seeded random instance file")
    gen.set_defaults(run=_cmd_gen)
    gen.add_argument("kind", choices=GEN)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--out", default=None)
    gen.add_argument("--n", type=int, default=6, help="variables (sat) or items (vk)")
    gen.add_argument("--m", type=int, default=4, help="clause count (sat)")
    gen.add_argument("--bound", type=int, default=4, help="occurrence bound (sat)")
    gen.add_argument("--planted", action="store_true", help="plant a full solution")
    gen.add_argument("--vertices", type=int, default=4)
    gen.add_argument("--edges", type=int, default=None)
    gen.add_argument("--regular3", action="store_true", help="3-regular constraint graph")
    gen.add_argument("--sigma", type=int, default=2)
    gen.add_argument("--upsilon", type=int, default=2)
    gen.add_argument("--dims", type=int, default=2)
    gen.add_argument("--max-cost", type=int, default=10)
    gen.add_argument("--max-profit", type=int, default=10)
    gen.add_argument("--vk-class", choices=VK_CLASSES, default="plain")

    red = sub.add_parser("reduce", help="apply a reduction route to an instance file")
    red.set_defaults(run=_cmd_reduce)
    red.add_argument("route", choices=REDUCE)
    red.add_argument("--in", dest="input", required=True)
    red.add_argument("--out", default=None)
    red.add_argument("--artifacts", default=None, help="audit file for the embed route")
    red.add_argument("--k", type=int, default=8, help="host size (sat routes)")
    red.add_argument("--F", type=int, default=1, help="chunk size (rcsp2vk-embed)")
    red.add_argument("--r", type=int, default=2, help="cover count (disperser route)")
    red.add_argument("--epsilon", default="1/4", help="covering slack (disperser route)")
    red.add_argument("--seed", type=int, default=0)

    solve = sub.add_parser("solve", help="run a solver on a knapsack instance file")
    solve.set_defaults(run=_cmd_solve)
    solve.add_argument("method", choices=SOLVE)
    solve.add_argument("--in", dest="input", required=True)
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument("--out", default=None)
    solve.add_argument("--oracle", action="store_true", help="report ratio to brute force")
    solve.add_argument("--cap-nodes", type=int, default=DEFAULT_NODE_CAP)
    solve.add_argument("--cap-states", type=int, default=DEFAULT_STATE_CAP)

    ver = sub.add_parser("verify", help="run a property-verification suite")
    ver.set_defaults(run=_cmd_verify)
    ver.add_argument("suite", choices=SUITES)
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument(
        "--count",
        type=int,
        default=None,
        help="instances per suite (for discretize: the largest budget swept)",
    )
    ver.add_argument("--format", choices=("json", "csv"), default=None)
    ver.add_argument("--out", default=None)
    return parser


def _check_floors(args, floors) -> None:
    """Refuse, with one line, the first (flag, least, *context) below its floor."""
    for flag, least, *context in floors:
        value = getattr(args, flag.replace("-", "_"))
        if value < least:
            bound = f"at least {least}" if least else "nonnegative"
            raise ValueError(f"--{flag} must be {bound}{''.join(context)}, got {value}")


def _cmd_gen(args) -> int:
    own_floors, build = GEN[args.kind]
    _check_floors(args, (("dims", 1), ("n", 0), ("m", 0), ("vertices", 0)) + own_floors(args))
    inst = build(args, random.Random(args.seed))
    with _open_out(args.out) as handle:
        write_instance(inst, handle)
    return 0


def _cmd_reduce(args) -> int:
    if args.artifacts and args.route != AUDITED_ROUTE:
        raise ValueError(f"--artifacts applies only to route {AUDITED_ROUTE}, not {args.route}")
    expects, kind, build = REDUCE[args.route]
    inst = _read_instance(args.input)
    if not isinstance(inst, expects):
        raise ValueError(f"route {args.route} expects {kind} instance")
    target = build(inst, args)
    if args.route == AUDITED_ROUTE:
        target, artifacts = target
    with _open_out(args.out) as handle:
        write_instance(target, handle)
    if args.artifacts:
        with open(args.artifacts, "w", encoding="utf-8") as handle:
            write_instance(artifacts, handle)
    return 0


def _cmd_solve(args) -> int:
    _check_floors(args, (("cap-nodes", 0), ("cap-states", 0)))
    inst = _read_instance(args.input)
    if not isinstance(inst, VkInstance):
        raise ValueError("solve expects a vk instance")
    started = time.perf_counter()
    solution = SOLVE[args.method](inst, args)
    value = profit(inst, solution)
    elapsed = time.perf_counter() - started
    record = {
        "method": args.method,
        "value": str(value),
        "witness": sorted(solution.chosen),
        "feasible": check_feasible(inst, solution),
    }
    if args.oracle:
        try:
            opt, _ = solve_bruteforce(inst, args.cap_nodes)
        except CapExceededError:
            record["oracle_value"] = None
            record["ratio"] = None
        else:
            record["oracle_value"] = str(opt)
            record["ratio"] = str(Fraction(value, opt)) if opt else None
    with _open_out(args.out) as handle:
        handle.write(canonical_json(record))
    print(f"{args.method}: value {value} in {elapsed:.3f}s", file=sys.stderr)
    return 0


def _cmd_verify(args) -> int:
    if args.count is not None and args.count < 1:
        raise ValueError(f"--count must be at least 1, got {args.count}")
    if args.out and args.format is None:
        raise ValueError("--out needs --format json or csv; the text report goes to stdout")
    count = args.count if args.count is not None else SUITES[args.suite][1]
    report = run_suite(args.suite, count, args.seed)
    if args.format == "json":
        rendered = canonical_json(report_json_payload(report))
    elif args.format == "csv":
        rendered = report_csv(report)
    else:
        rendered = None
    # the text report goes to stdout unless the formatted export replaces it
    if rendered is None or args.out:
        sys.stdout.write(report_text(report))
    if rendered is not None:
        with _open_out(args.out) as handle:
            handle.write(rendered)
    return 0 if report.passed else VERIFY_EXIT


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CAP_EXIT
    except (ValueError, ConstructionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
