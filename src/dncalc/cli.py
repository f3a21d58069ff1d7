"""Command-line front end.

``dncalc run scenario.json`` executes a scenario file and writes a JSON
report; the other subcommands are thin wrappers that assemble a one-task
scenario from flags.  A wrapper copies into its scenario only the flags it
was given, so every field left out takes the default of the scenario schema
(``serialize``), as in a scenario file.  Exit status: 0 when every task
passed, 1 when a task failed or errored, 2 on input problems (bad flags,
malformed scenario).

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
    TASK_FIELDS,
    Scenario,
    dump_report,
    load_scenario,
)
from .runner import run_scenario

EXIT_OK = 0
EXIT_TASK_FAILED = 1
EXIT_INPUT_ERROR = 2

#: the geometry of a validate-disk scenario, which its task does not read
_DISK_GEOMETRY = {"dimension": 2, "truncation": {"radial": 4, "tangential": 3}, "depth": 2}


def _add_geometry_flags(parser):
    # dimension, truncation and depth are required scenario fields, so their
    # defaults are these flags'; depth's dest leaves "depth" to task fields
    parser.add_argument("--dimension", type=int, default=3, help="ambient dimension n")
    parser.add_argument(
        "--radial-order", type=int, default=5, help="radial truncation order"
    )
    parser.add_argument(
        "--tangential-order", type=int, default=4, help="tangential truncation order"
    )
    parser.add_argument(
        "--depth", dest="symbol_depth", metavar="DEPTH", type=int, default=4,
        help="symbol depth",
    )
    parser.add_argument(
        "--metric",
        help="'flat', 'random', or a JSON file with the metric coefficient table",
    )
    parser.add_argument("--weight", help="'zero', 'random', or a JSON file with the weight jet")
    parser.add_argument("--seed", type=int, help="seed for random geometry")


def _geometry(args):
    raw = {
        "dimension": args.dimension,
        "truncation": {
            "radial": args.radial_order,
            "tangential": args.tangential_order,
        },
        "depth": args.symbol_depth,
    }
    if args.seed is not None:
        raw["seed"] = args.seed
    for name in ("metric", "weight"):
        spec = getattr(args, name)
        if spec in ("flat", "zero", "random"):
            raw[name] = spec
        elif spec is not None:
            with open(spec) as fh:
                raw[name] = json.load(fh)
    return raw


def _emit(report, output):
    text = dump_report(report, output)
    if output:
        print("report written to %s" % output)
    else:
        print(text, end="")
    return EXIT_OK if report["status"] == "pass" else EXIT_TASK_FAILED


def _cmd_run(args):
    return _emit(run_scenario(*load_scenario(args.scenario)), args.output)


def _cmd_task(args):
    """The one-task scenario of a subcommand: its task holds the task-field
    flags that were given, each flag's dest being its field."""
    task = {"kind": args.command}
    for field in TASK_FIELDS[args.command]:
        if getattr(args, field, None) is not None:
            task[field] = getattr(args, field)
    geometry = _DISK_GEOMETRY if args.command == "validate-disk" else _geometry(args)
    raw = {"schema_version": SCHEMA_VERSION, **geometry, "tasks": [task]}
    return _emit(run_scenario(Scenario(raw), "inline"), args.output)


def _prescription(text):
    """'key=value' as the task field {key: value}, which the schema checks."""
    key, _, value = text.partition("=")
    return {key: value}


def _modes(text):
    """'lo:hi' as it is, or a comma list as integers."""
    if "," not in text:
        return text
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise ScenarioError(
            "--modes must be 'lo:hi' or a comma list of integers, got %r" % text
        ) from None


def _cmd_selftest(args):
    from .acceptance import ALL_CRITERIA, run_criteria

    numbers = None
    if args.criteria:
        valid = {str(k) for k in range(1, len(ALL_CRITERIA) + 1)}
        parts = [x.strip() for x in args.criteria.split(",")]
        if not valid.issuperset(parts):
            raise ScenarioError(
                "--criteria must be a comma list of numbers from 1 to %d, got %r"
                % (len(ALL_CRITERIA), args.criteria)
            )
        numbers = {int(x) for x in parts}
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
    p.set_defaults(fn=_cmd_run)

    def task_parser(name, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--output", "-o", help="write the JSON report here")
        p.set_defaults(fn=_cmd_task)
        return p

    p = task_parser("factorize", "solve a factorisation and verify it")
    _add_geometry_flags(p)
    p.add_argument("--mode", choices=("gauge", "scalar"))
    p.add_argument("--gauge", choices=("s", "sigma"), help="gauge mode only")
    p.add_argument("--no-verify", dest="verify", action="store_false", default=None)

    p = task_parser("dn", "assemble boundary DN symbol data")
    _add_geometry_flags(p)
    p.add_argument("--map", choices=("lambda0", "lambda1"))
    p.add_argument("--gauge", choices=("s", "sigma"), help="lambda1 only")

    p = task_parser("reconstruct", "round-trip a reconstruction method")
    _add_geometry_flags(p)
    p.add_argument("--method", required=True, choices=RECONSTRUCTION_METHODS)
    p.add_argument("--order", type=int, help="recovery order")
    p.add_argument(
        "--prescribe", type=_prescription, help="d1V=<value|true> or d2V=<value|true>"
    )

    p = task_parser("counterexample", "construct an indistinguishable second weight")
    _add_geometry_flags(p)

    p = task_parser("validate-disk", "numeric disk check of the expansion")
    p.add_argument("--modes", type=_modes, help="'lo:hi' or comma list")
    p.add_argument("--depth", type=int, help="depth J of the partial sum")
    p.add_argument(
        "--weight-rho",
        type=lambda text: text.split(",") if text else [],
        help="comma-separated rational coefficients of V(rho)",
    )

    p = sub.add_parser("selftest", help="run the acceptance criteria")
    p.add_argument("--criteria", help="comma list of criterion numbers (default all)")
    p.set_defaults(fn=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    try:
        # inside the try: a flag's converter may raise a ScenarioError
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except ScenarioError as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT_ERROR
    except DnCalcError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_TASK_FAILED


if __name__ == "__main__":
    sys.exit(main())
