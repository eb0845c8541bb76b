"""The benchmark's workloads: job lists, seeded inputs and the oracle.

A job is one `mdca` command line.  Its expected outcome comes from
mathematics, never from a recorded run:

  * every valid structure passes `check` and `roundtrip` (exit 0);
  * `check catalog:jacobi_violator` fails (exit 1) with a residual at
    level 2, where the bracket coderivation squares to the Jacobi sum;
  * `cohomology` gives the Chevalley-Eilenberg Betti numbers in every
    degree the report does not flag, whatever the seeded basis.

Jobs are grouped by the layer they load, not by catalog entry: apart
from the jobs listed here every catalog job takes milliseconds, and a
per-entry grid would measure mostly noise.  `roundtrip` of
`jacobi_violator` is left out on purpose: its exit 0 is an open question
about what `roundtrip` certifies, not an oracle.
"""

import json
import os

import gen

# Betti numbers b_0.. of the Chevalley-Eilenberg complex (file degrees)
BETTI = {
    "gl2": [1, 1, 0, 1, 1],
    "sl2": [1, 0, 0, 1],
    "sl3": [1, 0, 0, 1, 0, 1, 0, 0, 1],
    "heisenberg": [1, 2, 2, 1],
}


class Job:
    """One command line and the outcome the oracle expects from it.

    seeded names an algebra of gen.ALGEBRAS written to a file in the
    seeded basis; otherwise path is a catalog: name.  betti, when given,
    maps file degrees to the expected rank in unflagged degrees.
    """

    def __init__(self, verb, path, W, window=None, exit_code=0,
                 residual_level=None, seeded=None, betti=None):
        self.verb = verb
        self.path = path
        self.W = W
        self.window = window
        self.exit_code = exit_code
        self.residual_level = residual_level
        self.seeded = seeded
        self.betti = betti

    def argv(self, inputs):
        path = self.path
        if self.seeded:
            path = os.path.join(inputs, self.seeded + ".json")
        out = [self.verb, path, "--W", str(self.W)]
        if self.window:
            # one token: argparse reads "--window -1..4" as two options
            out.append("--window=%d..%d" % self.window)
        return out


def seeded_check(name, W):
    return Job("check", None, W, seeded=name)


def seeded_cohomology(name, W, window=None):
    return Job("cohomology", None, W, window=window, seeded=name,
               betti=dict(enumerate(BETTI[name])))


WORKLOADS = {
    # operator route: forms.square_check / build_D dominate and
    # graded.row_echelon never runs
    "shlr_check": [
        Job("check", "catalog:exterior_pair", 4),
        Job("check", "catalog:quasi_sample", 5),
        Job("check", "catalog:jacobi_violator", 4, exit_code=1,
            residual_level=2),
    ],
    # direct route only: coalgebra perturbation identities over dense
    # rational structure constants; forms is a small share
    "lr_direct": [
        seeded_check("gl3", 5),
        seeded_check("sl3", 5),
        Job("check", "catalog:abelian", 5),
        Job("check", "catalog:heisenberg", 5),
        Job("check", "catalog:sl2", 5),
        Job("check", "catalog:truncated_poly", 5),
    ],
    # the only workload where graded.row_echelon reduces dense rationals.
    # The small algebras get a window one wider than their degrees on
    # each side, so every Betti number is unflagged; sl3 at W=3 is cut by
    # the truncation, so only its inner degrees 1 and 2 are unflagged.
    "lr_cohomology": [
        seeded_cohomology("sl3", 3),
        seeded_cohomology("gl2", 5, window=(-1, 5)),
        seeded_cohomology("sl2", 5, window=(-1, 4)),
        seeded_cohomology("heisenberg", 5, window=(-1, 4)),
    ],
    # forms used to build (descent_check, is_A_multilinear) and to read
    # back (extract_structure) rather than to check squares
    "roundtrip": [
        Job("roundtrip", None, 3, seeded="gl3"),
        Job("roundtrip", "catalog:exterior_pair", 5),
        Job("roundtrip", "catalog:quasi_sample", 5),
        Job("roundtrip", "catalog:truncated_poly", 5),
        Job("roundtrip", "catalog:sl2", 5),
    ],
}


def write_inputs(jobs, seed, inputs):
    """Emit the seeded instance files of a job list into `inputs`."""
    for job in jobs:
        if job.seeded:
            path = os.path.join(inputs, job.seeded + ".json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(gen.instance_text(job.seeded, seed, job.W))


def parse_report(text):
    """Verdict, certified W and the JSON blocks of a CLI text report."""
    out = {"verdict": None, "W": None}
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        line = lines[i]
        if line.startswith("verdict: "):
            out["verdict"] = line[len("verdict: "):]
        elif line.startswith("certified up to word length "):
            out["W"] = int(line.rsplit(" ", 1)[1])
        elif line in ("residuals:", "betti:"):
            body = []
            i += 1
            while i < len(lines) and lines[i].startswith("  "):
                body.append(lines[i][2:])
                i += 1
            out[line[:-1]] = body
            continue
        i += 1
    return out


def check_outcome(job, code, text):
    """None when the outcome matches the oracle, else why it does not."""
    if code != job.exit_code:
        return "exit %r, expected %d" % (code, job.exit_code)
    rep = parse_report(text)
    want = "pass" if job.exit_code == 0 else "fail"
    if rep["verdict"] != want:
        return "verdict %r, expected %r" % (rep["verdict"], want)
    if rep["W"] != job.W:
        return "certified W=%r, asked for %d" % (rep["W"], job.W)
    if job.residual_level is not None:
        residuals = json.loads("\n".join(rep.get("residuals", [])) or "[]")
        levels = {r["witness"][0] for r in residuals}
        if job.residual_level not in levels:
            return "no residual at level %d (levels %r)" % (
                job.residual_level, sorted(levels))
    if job.betti is not None:
        betti = json.loads("\n".join(rep.get("betti", [])) or "{}")
        unflagged = {int(d): r["rank"] for d, r in betti.items()
                     if not r["boundary_flag"]}
        if not unflagged:
            return "no unflagged degree"
        for d, rank in unflagged.items():
            expected = job.betti.get(d, 0)
            if rank != expected:
                return "b_%d = %d, expected %d" % (d, rank, expected)
    return None
