"""Measure one workload in this interpreter and print one JSON line.

Usage: worker.py WORKLOAD INPUTS SECONDS TRACE [SPANS_FILE]

Runs passes over the workload's job list, each job an in-process call of
mdca.cli.main with stdout captured and checked against the oracle, until
SECONDS are used up (at least MIN_PASSES passes).  With TRACE 1 the first
half of the time runs untraced and the rest traced, so that the tracing
overhead is measured in the same process.  The peak resident memory
reported is this process's own, so it belongs to one workload only.
"""

import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import mdca.cli  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 3


def run_job(job, inputs):
    """(exit code, captured stdout) of one in-process CLI call."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = mdca.cli.main(job.argv(inputs))
    return code, buf.getvalue()


class Runner:
    def __init__(self, workload, inputs):
        self.jobs = workloads.WORKLOADS[workload]
        self.inputs = inputs
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.broken = False

    def one_pass(self, tracer=None):
        """Seconds for one pass; a job that raises ends the run and every
        job of the pass it did not finish counts as failed."""
        t0 = time.perf_counter()
        for i, job in enumerate(self.jobs):
            if tracer is not None:
                tracer.start_job(tracer.job + 1)
            self.attempted += 1
            try:
                code, text = run_job(job, self.inputs)
            except Exception as e:  # the program under test crashed
                left = len(self.jobs) - i
                self.attempted += left - 1
                self.failed += left
                self.errors.append("%s: %r" % (
                    " ".join(job.argv(self.inputs)), e))
                self.broken = True
                break
            why = workloads.check_outcome(job, code, text)
            if why is not None:
                self.failed += 1
                if len(self.errors) < 10:
                    self.errors.append("%s: %s" % (" ".join(
                        job.argv(self.inputs)), why))
        return time.perf_counter() - t0

    def passes(self, seconds, minimum, tracer=None):
        out = []
        t0 = time.perf_counter()
        while not self.broken:
            out.append(self.one_pass(tracer))
            # stop where the next pass would end nearer past the deadline
            # than this one ends before it
            left = seconds - (time.perf_counter() - t0)
            if len(out) >= minimum and left < 0.5 * statistics.median(out):
                break
        return out


def main(argv):
    workload, inputs, seconds, traced = argv[:4]
    seconds = float(seconds)
    runner = Runner(workload, inputs)
    result = {}
    if traced == "1":
        untraced = runner.passes(seconds / 2, 2)
        tracer = tracing.Tracer()
        t0 = time.perf_counter()
        with tracer:
            traced_passes = runner.passes(seconds / 2, 1, tracer)
        tracer.finish()
        # a crash leaves no traced pass; the run is then reported failed
        result["per_layer"] = tracer.metrics(max(len(traced_passes), 1))
        result["per_layer"]["trace.overhead_ratio"] = (
            statistics.median(traced_passes) / statistics.median(untraced)
            if traced_passes else 0.0)
        if len(argv) > 4:
            tracer.write(argv[4], t0)
        result["passes"] = untraced
        result["traced_passes"] = traced_passes
    else:
        result["passes"] = runner.passes(seconds, MIN_PASSES)
        result["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    result.update(attempted=runner.attempted, failed=runner.failed,
                  errors=runner.errors)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
