"""Command-line front end.

``dncalc run scenario.json`` executes a scenario file and writes a JSON
report; the other subcommands are thin wrappers that assemble a one-task
scenario from flags.  Exit status: 0 when every task passed, 1 when a task
failed or errored, 2 on input problems (bad flags, malformed scenario).

All arithmetic is exact rational: no flag or environment variable picks a
scalar backend, and a scenario's optional "backend" field must be "rational".
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import DnCalcError, ScenarioError
from .serialize import (
    RECONSTRUCTION_METHODS,
    SCHEMA_VERSION,
    Scenario,
    dump_report,
    load_scenario,
)
from .runner import run_scenario

EXIT_OK = 0
EXIT_TASK_FAILED = 1
EXIT_INPUT_ERROR = 2


def _add_geometry_flags(parser):
    parser.add_argument("--dimension", type=int, default=3, help="ambient dimension n")
    parser.add_argument(
        "--radial-order", type=int, default=5, help="radial truncation order"
    )
    parser.add_argument(
        "--tangential-order", type=int, default=4, help="tangential truncation order"
    )
    parser.add_argument("--depth", type=int, default=4, help="symbol depth")
    parser.add_argument(
        "--metric",
        default="flat",
        help="'flat', 'random', or a JSON file with the metric coefficient table",
    )
    parser.add_argument(
        "--weight",
        default="zero",
        help="'zero', 'random', or a JSON file with the weight jet",
    )
    parser.add_argument("--seed", type=int, default=0, help="seed for random geometry")
    parser.add_argument("--output", "-o", help="write the JSON report here")


def _geometry_scenario(args, tasks):
    def resolve(spec):
        if spec in ("flat", "zero", "random"):
            return spec
        with open(spec) as fh:
            return json.load(fh)

    return {
        "schema_version": SCHEMA_VERSION,
        "dimension": args.dimension,
        "truncation": {
            "radial": args.radial_order,
            "tangential": args.tangential_order,
        },
        "depth": args.depth,
        "seed": args.seed,
        "metric": resolve(args.metric),
        "weight": resolve(args.weight),
        "tasks": tasks,
    }


def _emit(report, output):
    text = dump_report(report, output)
    if output:
        print("report written to %s" % output)
    else:
        print(text, end="")
    return EXIT_OK if report["status"] == "pass" else EXIT_TASK_FAILED


def _run_inline(raw, output):
    report = run_scenario(Scenario(raw), "inline")
    return _emit(report, output)


def _cmd_run(args):
    scenario, digest = load_scenario(args.scenario)
    report = run_scenario(scenario, digest, parallel=args.parallel)
    return _emit(report, args.output)


def _cmd_factorize(args):
    task = {
        "kind": "factorize",
        "mode": args.mode,
        "verify": not args.no_verify,
    }
    if args.mode == "gauge":
        task["gauge"] = args.gauge
    return _run_inline(_geometry_scenario(args, [task]), args.output)


def _cmd_dn(args):
    task = {"kind": "dn", "map": args.map}
    if args.map == "lambda1":
        task["gauge"] = args.gauge
    return _run_inline(_geometry_scenario(args, [task]), args.output)


def _parse_prescription(text):
    if text is None:
        return None
    try:
        key, value = text.split("=", 1)
    except ValueError:
        raise ScenarioError(
            "prescription must look like d1V=<value> or d2V=<value>"
        ) from None
    if key not in ("d1V", "d2V"):
        raise ScenarioError("prescription key must be d1V or d2V, got %r" % key)
    return {key: value}


def _cmd_reconstruct(args):
    prescribe = _parse_prescription(args.prescribe)
    if args.prescribe2 is not None:
        other = _parse_prescription(args.prescribe2)
        if prescribe and other and set(prescribe) | set(other) == {"d1V", "d2V"}:
            raise ScenarioError("conflicting prescriptions: give only one of d1V, d2V")
    task = {"kind": "reconstruct", "method": args.method, "order": args.order}
    if prescribe:
        task["prescribe"] = prescribe
    return _run_inline(_geometry_scenario(args, [task]), args.output)


def _cmd_counterexample(args):
    task = {"kind": "counterexample", "depth": args.depth}
    return _run_inline(_geometry_scenario(args, [task]), args.output)


def _cmd_validate_disk(args):
    modes = args.modes
    if "," in modes:
        modes = [int(x) for x in modes.split(",")]
    task = {
        "kind": "validate-disk",
        "modes": modes,
        "depth": args.depth,
        "weight_rho": args.weight_rho.split(",") if args.weight_rho else [],
    }
    raw = {
        "schema_version": SCHEMA_VERSION,
        "dimension": 2,
        "truncation": {"radial": args.depth + 2, "tangential": args.depth + 1},
        "depth": args.depth,
        "backend": "rational",
        "metric": "flat",
        "weight": "zero",
        "tasks": [task],
    }
    return _run_inline(raw, args.output)


def _cmd_selftest(args):
    from .acceptance import run_criteria

    numbers = None
    if args.criteria:
        numbers = {int(x) for x in args.criteria.split(",")}
    results = run_criteria(numbers, log=print)
    failed = [r for r in results if not r.passed]
    print(
        "%d/%d criteria passed (%.1fs total)"
        % (
            len(results) - len(failed),
            len(results),
            sum(r.elapsed_seconds for r in results),
        )
    )
    return EXIT_OK if not failed else EXIT_TASK_FAILED


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dncalc",
        description=(
            "Symbol calculus and boundary reconstruction for "
            "Dirichlet-to-Neumann maps of weighted Laplacians"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="execute a scenario file")
    p.add_argument("scenario")
    p.add_argument("--output", "-o")
    p.add_argument(
        "--parallel", action="store_true", help="run independent tasks in processes"
    )
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("factorize", help="solve a factorisation and verify it")
    _add_geometry_flags(p)
    p.add_argument("--mode", choices=("gauge", "scalar"), default="scalar")
    p.add_argument("--gauge", choices=("s", "sigma"), default="s")
    p.add_argument("--no-verify", action="store_true")
    p.set_defaults(fn=_cmd_factorize)

    p = sub.add_parser("dn", help="assemble boundary DN symbol data")
    _add_geometry_flags(p)
    p.add_argument("--map", choices=("lambda0", "lambda1"), default="lambda0")
    p.add_argument("--gauge", choices=("s", "sigma"), default="s")
    p.set_defaults(fn=_cmd_dn)

    p = sub.add_parser("reconstruct", help="round-trip a reconstruction method")
    _add_geometry_flags(p)
    p.add_argument(
        "--method",
        required=True,
        choices=RECONSTRUCTION_METHODS,
    )
    p.add_argument("--order", type=int, default=3)
    p.add_argument("--prescribe", help="d1V=<value|true> or d2V=<value|true>")
    p.add_argument("--prescribe2", help=argparse.SUPPRESS)
    p.set_defaults(fn=_cmd_reconstruct)

    p = sub.add_parser(
        "counterexample", help="construct an indistinguishable second weight"
    )
    _add_geometry_flags(p)
    p.set_defaults(fn=_cmd_counterexample)

    p = sub.add_parser("validate-disk", help="numeric disk check of the expansion")
    p.add_argument("--modes", default="8:64", help="'lo:hi' or comma list")
    p.add_argument("--depth", type=int, default=3)
    p.add_argument(
        "--weight-rho",
        default="1/2,-1,1/2",
        help="comma-separated rational coefficients of V(rho)",
    )
    p.add_argument("--output", "-o")
    p.set_defaults(fn=_cmd_validate_disk)

    p = sub.add_parser("selftest", help="run the acceptance criteria")
    p.add_argument("--criteria", help="comma list of criterion numbers (default all)")
    p.set_defaults(fn=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ScenarioError as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT_ERROR
    except DnCalcError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_TASK_FAILED


if __name__ == "__main__":
    sys.exit(main())
