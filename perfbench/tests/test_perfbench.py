"""Self-tests of the benchmark on one small job list.

Run with: python3 -m pytest perfbench/tests
"""

import cProfile
import importlib
import os
import pstats
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Job  # noqa: E402
from worker import run_job  # noqa: E402

# small, but reaching every wrapped function: the operator route, the
# direct route, a row reduction and a build/extract round trip
JOBS = [
    Job("check", "catalog:exterior_pair", 2),
    Job("check", "catalog:jacobi_violator", 3, exit_code=1,
        residual_level=2),
    workloads.seeded_cohomology("heisenberg", 4, window=(-1, 4)),
    Job("roundtrip", "catalog:quasi_sample", 3),
]


def run_all(inputs, tracer=None):
    out = []
    for job in JOBS:
        if tracer is not None:
            tracer.start_job(tracer.job + 1)
        code, text = run_job(job, inputs)
        out.append((code, [line for line in text.splitlines()
                           if not line.startswith("elapsed:")]))
    return out


def test_wrapper_counts_equal_cprofile_ncalls(tmp_path):
    workloads.write_inputs(JOBS, 3, str(tmp_path))
    prof = cProfile.Profile()
    prof.runcall(run_all, str(tmp_path))
    stats = pstats.Stats(prof).stats

    tracer = tracing.Tracer()
    with tracer:
        run_all(str(tmp_path), tracer)
    tracer.finish()

    checked = 0
    for layer, fname in tracing.SPANS + tracing.COUNTERS:
        fn = getattr(importlib.import_module("mdca." + layer), fname)
        code = fn.__code__
        # pstats rows are (primitive calls, calls, ...) per code object
        want = stats.get((code.co_filename, code.co_firstlineno,
                          code.co_name), (0, 0))[1]
        name = "%s.%s" % (layer, fname)
        got = tracer.counts.get(name, tracer.span_call_count(name))
        assert got == want, name
        checked += want > 0
    # the job list reaches every traced function
    assert checked == len(tracing.SPANS + tracing.COUNTERS)


def test_traced_and_untraced_passes_agree(tmp_path):
    workloads.write_inputs(JOBS, 5, str(tmp_path))
    plain = run_all(str(tmp_path))
    tracer = tracing.Tracer()
    with tracer:
        traced = run_all(str(tmp_path), tracer)
    assert traced == plain
    for job, (code, lines) in zip(JOBS, plain):
        assert workloads.check_outcome(job, code, "\n".join(lines)) is None
    # the wrappers are gone again
    import mdca.forms
    assert not hasattr(mdca.forms.square_check, "__wrapped__")


def test_same_seed_gives_identical_instance_files():
    for name in workloads.gen.ALGEBRAS:
        first = workloads.gen.instance_text(name, 7, 3)
        assert workloads.gen.instance_text(name, 7, 3) == first
        assert workloads.gen.instance_text(name, 8, 3) != first
