"""Time two mdca source trees against each other in one interpreter.

Loads the mdca package of each tree under its own name, so both live in
one process, and runs the job lists of the named workloads of
perfbench/workloads.py on both, job by job: in each round every job runs
once on each side, and the side that runs first alternates from round
to round.  Every outcome is checked with workloads.check_outcome.  For
each workload it prints each side's median and quartiles of the pass
time, the median and quartiles of the per-round ratio change/parent,
the rounds the change won, and whether the gap between the two medians
exceeds the distance between the parent's quartiles.  A gain needs both:
the change winning nine pairs in ten, and a median gap beyond the
parent's own spread.  Pairs taken seconds apart on one host see the same
load, so the ratio holds up where separate benchmark runs drift.

The seeded inputs are written once, by perfbench/gen.py with the mdca of
PARENT_SRC.  Set and dict order follow the string hash, so fix
PYTHONHASHSEED to compare runs.  Exits 1 when a job fails its oracle.

Run from the repository root:
  python3 tools/ab_time.py PARENT_SRC CHANGE_SRC WORKLOAD... \\
      [--rounds N] [--seed S]
WORKLOAD may be `all`.
"""

import argparse
import contextlib
import importlib
import importlib.util
import io
import os
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
SIDES = ("parent", "change")


def load_cli(src, name):
    """The cli module of the mdca package under src, imported as the
    package `name`, so that two trees do not share modules."""
    pkg_dir = os.path.join(src, "mdca")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(pkg_dir, "__init__.py"),
        submodule_search_locations=[pkg_dir])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    return importlib.import_module(name + ".cli")


def run_job(cli, argv):
    """(seconds, exit code, stdout) of one in-process CLI call."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        t0 = time.perf_counter()
        code = cli.main(argv)
        seconds = time.perf_counter() - t0
    return seconds, code, buf.getvalue()


def quartiles(xs):
    """(lower quartile, median, upper quartile) of xs."""
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def time_workload(workloads, name, clis, inputs, rounds):
    """Pass times {side: [seconds per round]} and the oracle failures."""
    jobs = workloads.WORKLOADS[name]
    passes = {side: [] for side in SIDES}
    errors = []
    for r in range(rounds):
        order = SIDES if r % 2 == 0 else SIDES[::-1]
        total = dict.fromkeys(SIDES, 0.0)
        for job in jobs:
            argv = job.argv(inputs)
            for side in order:
                seconds, code, text = run_job(clis[side], argv)
                total[side] += seconds
                why = workloads.check_outcome(job, code, text)
                if why is not None:
                    errors.append("%s %s: %s" % (side, " ".join(argv), why))
        for side in SIDES:
            passes[side].append(total[side])
    return passes, errors


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent_src")
    ap.add_argument("change_src")
    ap.add_argument("workload", nargs="+")
    ap.add_argument("--rounds", type=int, default=20)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    srcs = {"parent": args.parent_src, "change": args.change_src}
    for side, src in srcs.items():
        if not os.path.isfile(os.path.join(src, "mdca", "cli.py")):
            ap.error("no mdca sources under %s (%s)" % (src, side))
    sys.path.insert(0, PERFBENCH)
    sys.path.insert(0, os.path.abspath(args.parent_src))
    workloads = importlib.import_module("workloads")
    names = (sorted(workloads.WORKLOADS) if args.workload == ["all"]
             else args.workload)
    for name in names:
        if name not in workloads.WORKLOADS:
            ap.error("unknown workload %r (have: %s, or all)" % (
                name, ", ".join(sorted(workloads.WORKLOADS))))
    clis = {side: load_cli(os.path.abspath(src), "ab_" + side)
            for side, src in srcs.items()}
    failed = 0
    for name in names:
        with tempfile.TemporaryDirectory() as inputs:
            workloads.write_inputs(workloads.WORKLOADS[name], args.seed,
                                   inputs)
            passes, errors = time_workload(workloads, name, clis, inputs,
                                           args.rounds)
        for err in errors[:10]:
            print("oracle: %s" % err)
        failed += len(errors)
        ratios = [c / p for p, c in zip(passes["parent"], passes["change"])]
        q1, q2, q3 = quartiles(ratios)
        won = sum(r < 1 for r in ratios)
        print("workload %s: %d rounds of %d jobs, %d oracle failures"
              % (name, args.rounds, len(workloads.WORKLOADS[name]),
                 len(errors)))
        quarts = {side: quartiles(passes[side]) for side in SIDES}
        for side in SIDES:
            p1, p2, p3 = quarts[side]
            print("  %s pass_s median %.4f s [%.4f-%.4f]" % (
                side, p2, p1, p3))
        print("  change/parent median %.3f [%.3f-%.3f]" % (q2, q1, q3))
        print("  change won %d of %d pairs" % (won, len(ratios)))
        gap = abs(quarts["change"][1] - quarts["parent"][1])
        spread = quarts["parent"][2] - quarts["parent"][0]
        print("  median gap %.4f s %s the parent's quartile spread %.4f s"
              % (gap, "exceeds" if gap > spread else "is within", spread))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
