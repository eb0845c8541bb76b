"""mdca benchmark: one workload, one seed, one JSON result line.

Usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME may be `all`, which measures every workload in turn and prints one
result line for each.

The workload's seeded instance files are written under .perfbench_run/
in the checkout, then a fresh interpreter (worker.py) runs passes over
the job list for S seconds, so that its peak memory is the workload's
own.  With --trace 0 the result holds the end-to-end metrics: the median
pass time, that peak memory, and the median cold start of several
further interpreters (setup_probe.py).  With --trace 1 it holds the
per-layer metrics of a traced run instead, and the spans are written to
.perfbench_run/spans-NAME-N.tsv.  Everything runs in one process at a
time, single-threaded.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_run")
SETUP_PROBES = 9


def fail(msg):
    print("error: %s" % msg, file=sys.stderr)
    return 1


def setup_seconds(paths, env):
    """Wall seconds a fresh interpreter takes to import mdca.cli and load
    the workload's instances."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py")] + paths,
        check=True, timeout=4, cwd=ROOT, env=env, capture_output=True,
        text=True)
    return float(proc.stdout)


def tail(samples):
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it, or None when there are too few samples."""
    xs = sorted(samples)
    if len(xs) < 11:
        return None
    return 100.0 * (len(xs) - 10) / len(xs), xs[-11]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "mdca", "cli.py")):
        return fail("no mdca sources under %s" % SRC)
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import workloads
    if args.workload == "all":
        names = sorted(workloads.WORKLOADS)
    elif args.workload in workloads.WORKLOADS:
        names = [args.workload]
    else:
        return fail("unknown workload %r (have: %s, or all)" % (
            args.workload, ", ".join(sorted(workloads.WORKLOADS))))
    for name in names:
        code = run_workload(workloads, name, args)
        if code:
            return code
    return 0


def run_workload(workloads, name, args):
    """Measure one workload and print its text lines and JSON line."""
    jobs = workloads.WORKLOADS[name]

    # set and dict order follow the string hash, so the seed fixes it too
    env = dict(os.environ, PYTHONHASHSEED=str(args.seed % 2 ** 32))
    os.makedirs(WORK, exist_ok=True)
    inputs = tempfile.mkdtemp(prefix="inputs-", dir=WORK)
    try:
        workloads.write_inputs(jobs, args.seed, inputs)
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               name, inputs, repr(args.seconds), args.trace]
        if args.trace == "1":
            cmd.append(os.path.join(
                WORK, "spans-%s-%d.tsv" % (name, args.seed)))
        # the whole run has to end within 180 s, set-up probes included
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=140, env=env)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return fail("worker exited with %d" % proc.returncode)
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        setup = []
        if args.trace == "0":
            paths = sorted({job.argv(inputs)[1] for job in jobs})
            setup_seconds(paths, env)  # the first start may compile bytecode
            setup = [setup_seconds(paths, env) for _ in range(SETUP_PROBES)]
    except (OSError, ValueError, IndexError,
            subprocess.SubprocessError) as e:
        return fail(str(e))
    finally:
        shutil.rmtree(inputs, ignore_errors=True)

    passes = res["passes"]
    for err in res["errors"]:
        print("oracle: %s" % err)
    print("workload %s seed %d: %d passes of %d jobs%s"
          % (name, args.seed, len(passes), len(jobs),
             ", then %d traced" % len(res["traced_passes"])
             if args.trace == "1" else ""))
    if args.trace == "0":
        t = tail(passes)
        print("pass_s: median %.4f s, %s, %d samples" % (
            statistics.median(passes),
            "p%.0f %.4f s" % t if t else
            "no percentile has ten samples beyond it", len(passes)))
        print("peak_rss_mb: %.1f MB" % res["peak_rss_mb"])
        print("setup_s: median %.4f s of %d cold starts"
              % (statistics.median(setup), len(setup)))
        metrics = {
            "pass_s": {"value": statistics.median(passes), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
        }
    else:
        metrics = {metric: {"value": v, "unit": unit_of(metric)}
                   for metric, v in sorted(res["per_layer"].items())}
        for metric, m in metrics.items():
            print("%s: %r %s" % (metric, m["value"], m["unit"]))
    print("jobs_failed: %d of %d attempted (share %.4f)" % (
        res["failed"], res["attempted"], res["failed"] / res["attempted"]))
    print(json.dumps({"correct": res["failed"] == 0,
                      "attempted": res["attempted"],
                      "failed": res["failed"],
                      "metrics": metrics}))
    return 0


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
