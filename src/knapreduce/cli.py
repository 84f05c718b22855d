"""Command-line front end: instance generation, reduction pipelines,
solver and approximation runs, and the property-verification harness.

Every command is a pure function of its flags and --seed; result payloads
are canonical JSON so identical invocations produce identical bytes.
Wall-clock timings go to stderr only.  Exit codes: 0 success, 2 usage
error, 3 cap exceeded, 4 verification failure.
"""

from __future__ import annotations

import argparse
import json
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
from .serialize import parse_instance, serialize_artifacts, serialize_instance
from .verify import SUITES, report_csv, report_json_payload, report_text, run_suite

USAGE_EXIT = 2
CAP_EXIT = 3
VERIFY_EXIT = 4

GEN_KINDS = ("sat", "csp2", "rcsp", "vk")
REDUCE_ROUTES = (
    "sat2rcsp-embed",
    "sat2rcsp-disperser",
    "csp2rcsp",
    "rcsp2vk-simple",
    "rcsp2vk-embed",
)
SOLVE_METHODS = ("brute", "dp", "approx", "approx-unbounded", "approx-lp")
# --epsilon: an integer, a decimal or p/q with q > 0.  Fraction also takes an
# exponent, and "1e-2000000" alone builds a denominator of millions of bits.
RATIONAL = re.compile(r"[+-]?(?:[0-9]+/0*[1-9][0-9]*|[0-9]*\.?[0-9]+)")


def _write_out(text: str, out: str | None):
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _read_instance(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return parse_instance(handle.read())


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
    gen.add_argument("kind", choices=GEN_KINDS)
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
    gen.add_argument(
        "--vk-class",
        choices=("plain", "mixed", "2bounded", "2unbounded"),
        default="plain",
    )

    red = sub.add_parser("reduce", help="apply a reduction route to an instance file")
    red.add_argument("route", choices=REDUCE_ROUTES)
    red.add_argument("--in", dest="input", required=True)
    red.add_argument("--out", default=None)
    red.add_argument("--artifacts", default=None, help="audit file for the embed route")
    red.add_argument("--k", type=int, default=8, help="host size (sat routes)")
    red.add_argument("--F", type=int, default=1, help="chunk size (rcsp2vk-embed)")
    red.add_argument("--r", type=int, default=2, help="cover count (disperser route)")
    red.add_argument("--epsilon", default="1/4", help="covering slack (disperser route)")
    red.add_argument("--seed", type=int, default=0)

    solve = sub.add_parser("solve", help="run a solver on a knapsack instance file")
    solve.add_argument("method", choices=SOLVE_METHODS)
    solve.add_argument("--in", dest="input", required=True)
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument("--out", default=None)
    solve.add_argument("--oracle", action="store_true", help="report ratio to brute force")
    solve.add_argument("--cap-nodes", type=int, default=DEFAULT_NODE_CAP)
    solve.add_argument("--cap-states", type=int, default=DEFAULT_STATE_CAP)

    ver = sub.add_parser("verify", help="run a property-verification suite")
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


def _cmd_gen(args) -> int:
    if args.dims < 1:
        raise ValueError(f"--dims must be at least 1, got {args.dims}")
    for flag in ("n", "m", "vertices"):
        if getattr(args, flag) < 0:
            raise ValueError(f"--{flag} must be nonnegative, got {getattr(args, flag)}")
    alphabet_flags = {"csp2": ("sigma",), "rcsp": ("sigma", "upsilon")}.get(args.kind, ())
    for flag in alphabet_flags:
        if getattr(args, flag) < 1:
            raise ValueError(f"--{flag} must be at least 1, got {getattr(args, flag)}")
    if args.kind == "vk":
        # the non-plain classes draw each budget from 2..max_cost
        least_cost = 1 if args.vk_class == "plain" else 2
        if args.max_cost < least_cost:
            raise ValueError(
                f"--max-cost must be at least {least_cost} for --vk-class {args.vk_class}, "
                f"got {args.max_cost}"
            )
        if args.max_profit < 0:
            raise ValueError(f"--max-profit must be nonnegative, got {args.max_profit}")
    rng = random.Random(args.seed)
    if args.kind == "sat":
        if args.planted:
            inst, _ = gen_sat_satisfiable(args.n, args.m, args.bound, rng)
        else:
            inst = gen_sat(args.n, args.m, args.bound, rng)
    elif args.kind == "csp2":
        inst = gen_csp2(
            args.vertices,
            args.sigma,
            rng,
            edge_count=args.edges,
            regular3=args.regular3 or args.edges is None,
            planted=args.planted,
        )
    elif args.kind == "rcsp":
        if args.planted:
            inst, _ = gen_rcsp_planted(
                args.vertices,
                args.sigma,
                args.upsilon,
                rng,
                edge_count=args.edges,
                regular3=args.regular3,
            )
        else:
            inst = gen_rcsp(
                args.vertices,
                args.sigma,
                args.upsilon,
                rng,
                edge_count=args.edges,
                regular3=args.regular3,
            )
    else:
        maker = {
            "plain": gen_vk,
            "mixed": gen_vk_mixed,
            "2bounded": gen_vk_2bounded,
            "2unbounded": gen_vk_2unbounded,
        }[args.vk_class]
        inst = maker(args.n, args.dims, args.max_cost, args.max_profit, rng)
    _write_out(serialize_instance(inst), args.out)
    return 0


def _cmd_reduce(args) -> int:
    if args.artifacts and args.route != "rcsp2vk-embed":
        raise ValueError(f"--artifacts applies only to route rcsp2vk-embed, not {args.route}")
    inst = _read_instance(args.input)
    artifacts_text = None
    if args.route == "sat2rcsp-embed":
        if not isinstance(inst, SatInstance):
            raise ValueError("route sat2rcsp-embed expects a sat instance")
        out = sat_to_rcsp_embedding_route(inst, args.k)
    elif args.route == "sat2rcsp-disperser":
        if not isinstance(inst, SatInstance):
            raise ValueError("route sat2rcsp-disperser expects a sat instance")
        if not RATIONAL.fullmatch(args.epsilon):
            raise ValueError(f"--epsilon must be an integer, decimal or p/q with q > 0, not {args.epsilon!r}")
        out = sat_to_rcsp_disperser_route(
            inst, args.k, args.r, Fraction(args.epsilon), args.seed
        )
    elif args.route == "csp2rcsp":
        if not isinstance(inst, Csp2Instance):
            raise ValueError("route csp2rcsp expects a csp2 instance")
        out = csp2_to_rcsp(inst)
    elif args.route == "rcsp2vk-simple":
        if not isinstance(inst, RcspInstance):
            raise ValueError("route rcsp2vk-simple expects an rcsp instance")
        out = rcsp_to_vk_simple(inst)
    else:
        if not isinstance(inst, RcspInstance):
            raise ValueError("route rcsp2vk-embed expects an rcsp instance")
        out, artifacts = rcsp_to_vk_embed(inst, args.F)
        artifacts_text = serialize_artifacts(artifacts)
    _write_out(serialize_instance(out), args.out)
    if artifacts_text is not None and args.artifacts:
        with open(args.artifacts, "w", encoding="utf-8") as handle:
            handle.write(artifacts_text)
    return 0


def _cmd_solve(args) -> int:
    inst = _read_instance(args.input)
    if not isinstance(inst, VkInstance):
        raise ValueError("solve expects a vk instance")
    started = time.perf_counter()
    if args.method == "brute":
        value, solution = solve_bruteforce(inst, args.cap_nodes)
    elif args.method == "dp":
        value, solution = solve_dp(inst, args.cap_states)
    elif args.method == "approx":
        solution = approx_sqrt_d(inst, args.seed)
        value = profit(inst, solution)
    elif args.method == "approx-unbounded":
        solution = approx_2unbounded(inst)
        value = profit(inst, solution)
    else:
        solution = approx_lp_rounding(inst, args.seed)
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
    _write_out(json.dumps(record, sort_keys=True, indent=1) + "\n", args.out)
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
        rendered = json.dumps(report_json_payload(report), sort_keys=True, indent=1) + "\n"
    elif args.format == "csv":
        rendered = report_csv(report)
    else:
        rendered = None
    # the text report goes to stdout unless the formatted export replaces it
    if rendered is None or args.out:
        sys.stdout.write(report_text(report))
    if rendered is not None:
        _write_out(rendered, args.out)
    return 0 if report.passed else VERIFY_EXIT


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "reduce":
            return _cmd_reduce(args)
        if args.command == "solve":
            return _cmd_solve(args)
        return _cmd_verify(args)
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CAP_EXIT
    except (ValueError, ConstructionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
