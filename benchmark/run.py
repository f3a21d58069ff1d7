"""Benchmark harness for dncalc: one workload per run.

Usage, from the repository root:

    python3 benchmark/run.py --workload forward-dense --seed 1 --seconds 30 --trace 0

Each workload is `dncalc run` (through ``dncalc.cli.main``) on committed
scenario files with explicit metric and weight tables; see README.md for
what each one stresses.  ``--seed`` fixes the order of the scenario files
and of the tasks inside each file, and the sample of jet products checked
in a traced run; the instances themselves are fixed, because their cost
differs tenfold from one random instance to the next.

A run first sets up (imports dncalc and writes the seed's scenario files),
then runs whole rounds of the workload: another round starts only while the
rounds so far plus one more fit in ``--seconds``, and there is always at
least one.  After every task the run times a fixed reference loop
(``reference.py``), and times are reported as multiples of its mean time
over the run (unit ``ref``), which the shared machine's drifting speed does
not move.  After each round the reports are checked apart from the timed
phase.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0`` and the per-layer metrics with ``--trace 1``.
Times in seconds go to standard error and to ``samples.json`` in the run's
output directory.

The harness measures dncalc from outside: it puts ``src/`` first on the
import path and changes nothing there.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOADS = {
    "forward-dense": ["dense-1000", "dense-1002", "dense-221"],
    "forward-deep": ["deep-n3-7", "deep-n4-41", "deep-n4-43"],
    "roundtrip": ["roundtrip"],
}

#: child processes timed for setup_s; their median is reported
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def run_dir(workload, seed):
    return os.path.join(OUT, "%s-seed%d" % (workload, seed))


def set_up(workload, seed):
    """Import dncalc and make the run's inputs: the workload's scenario files
    with files and tasks in the seed's order.  Returns (name, raw, path)
    triples."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import dncalc.cli  # noqa: F401  (what `dncalc run` imports)

    rng = random.Random(seed)
    names = list(WORKLOADS[workload])
    rng.shuffle(names)
    target = os.path.join(run_dir(workload, seed), "scenarios")
    os.makedirs(target, exist_ok=True)
    inputs = []
    for name in names:
        with open(os.path.join(HERE, "scenarios", name + ".json")) as fh:
            raw = json.load(fh)
        rng.shuffle(raw["tasks"])
        path = os.path.join(target, name + ".json")
        with open(path, "w") as fh:
            json.dump(raw, fh)
        inputs.append((name, raw, path))
    return inputs


def time_setup(workload, seed) -> float:
    """Median, over child processes, of the time from process start to inputs
    ready."""
    samples = []
    cmd = [
        sys.executable,
        os.path.abspath(__file__),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", "1",
        "--setup-probe",
    ]
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError("set-up probe failed (exit %s)" % proc.returncode)
        samples.append(elapsed)
    return statistics.median(samples)


class TaskTimer:
    """Times each runner.run_task call (one dncalc task, as `dncalc run` runs
    it) and, after it, one call of the reference loop.

    ``refs`` holds the reference times in order, starting with one taken by
    ``start``; ``times`` holds task times keyed by scenario name and task
    index.  Interleaving the two samples the machine's speed evenly over the
    run, so their ratio does not change with it."""

    def __init__(self):
        self.refs = []
        self.times = {}

    def start(self):
        from reference import reference_seconds

        self.refs.append(reference_seconds())

    def install(self):
        from dncalc import runner
        from reference import reference_seconds

        orig = runner.run_task

        def timed(scenario, task, index):
            start = time.perf_counter()
            try:
                return orig(scenario, task, index)
            finally:
                elapsed = time.perf_counter() - start
                key = "%s/%d" % (scenario.raw.get("name"), index)
                self.times.setdefault(key, []).append(elapsed)
                self.refs.append(reference_seconds())

        runner.run_task = timed

    def median_task(self) -> float:
        """Median over the workload's tasks of each task's mean time."""
        return statistics.median(statistics.mean(t) for t in self.times.values())


def run_round(inputs, reports_dir, timer):
    """Run every scenario of the workload once; returns the round's wall time
    without the reference loop calls made in it.  A scenario whose run raises
    leaves no report, so all its tasks fail."""
    from dncalc import cli

    reports = [os.path.join(reports_dir, name + ".json") for name, _raw, _path in inputs]
    for report in reports:
        if os.path.exists(report):
            os.remove(report)
    sink = io.StringIO()
    first = len(timer.refs)
    start = time.perf_counter()
    for (_name, _raw, path), report in zip(inputs, reports):
        try:
            with contextlib.redirect_stdout(sink):
                cli.main(["run", path, "--output", report])
        except Exception:
            traceback.print_exc()
    return time.perf_counter() - start - sum(timer.refs[first:])


def check_round(inputs, reports_dir, round_no, failed_tasks):
    """Check every task of one round; returns the number of tasks attempted."""
    import checks

    attempted = 0
    for name, raw, _path in inputs:
        ntasks = len(raw["tasks"])
        attempted += ntasks
        try:
            with open(os.path.join(reports_dir, name + ".json")) as fh:
                report = json.load(fh)
        except (OSError, ValueError) as exc:
            print("check: %s has no report: %s" % (name, exc), file=sys.stderr)
            failed_tasks.update((round_no, name, i) for i in range(ntasks))
            continue
        for i, problems in enumerate(checks.check_report(raw, report)):
            if problems:
                print("check: %s task %d: %s" % (name, i, "; ".join(problems)), file=sys.stderr)
                failed_tasks.add((round_no, name, i))
    return attempted


def run(args) -> dict:
    inputs = set_up(args.workload, args.seed)
    setup_s = None if args.trace else time_setup(args.workload, args.seed)

    reports_dir = os.path.join(run_dir(args.workload, args.seed), "reports")
    os.makedirs(reports_dir, exist_ok=True)
    if args.trace:
        from tracing import Tracer

        tracer = Tracer(args.seed)
        tracer.install()
    timer = TaskTimer()
    timer.install()

    # tasks alternate with calls of the reference loop, which also starts
    # the timed phase
    timer.start()
    rounds = []
    attempted = 0
    failed_tasks = set()
    phase_start = time.perf_counter()
    while True:
        if args.trace:
            tracer.round = len(rounds)
        rounds.append(run_round(inputs, reports_dir, timer))
        spent = time.perf_counter() - phase_start
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        attempted += check_round(inputs, reports_dir, len(rounds) - 1, failed_tasks)
        if spent + spent / len(rounds) > args.seconds:
            break
    wall_s = statistics.mean(rounds)
    ref_s = statistics.mean(timer.refs)
    task_s = timer.median_task()
    with open(os.path.join(run_dir(args.workload, args.seed), "samples.json"), "w") as fh:
        json.dump({"rounds": rounds, "refs": timer.refs, "tasks": timer.times}, fh)

    print(
        "%d rounds: wall_s %.4f, task_s_p50 %.4f, reference loop %.4f s"
        % (len(rounds), wall_s, task_s, ref_s),
        file=sys.stderr,
    )
    if not args.trace:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_ref": (wall_s / ref_s, "ref"),
            "task_ref_p50": (task_s / ref_s, "ref"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        tracer.uninstall()
        import checks

        for a, b, product, label in tracer.samples:
            if not checks.jet_product_matches(a, b, product):
                print("check: Jet product in %s differs from the oracle" % (label,), file=sys.stderr)
                failed_tasks.add(label)
        nrounds = len(rounds)
        metrics = {}
        for key, (value, unit) in tracer.layer_metrics().items():
            if unit in ("count", "s", "bytes"):
                value = value / nrounds
            metrics[key] = (value, unit)
        metrics["trace.wall_s"] = (wall_s, "s")
        metrics["trace.wall_ref"] = (wall_s / ref_s, "ref")
        with open(os.path.join(run_dir(args.workload, args.seed), "trace.json"), "w") as fh:
            json.dump({"rounds": rounds, "refs": timer.refs, "metrics": metrics, **tracer.dump()}, fh)

    failed = len(failed_tasks)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "dncalc", "cli.py")):
        print("benchmark: no dncalc sources at %s" % SRC, file=sys.stderr)
        return 2
    if args.setup_probe:
        set_up(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
