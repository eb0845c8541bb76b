"""Command line driver.

Verbs:
  check      run the identity checks appropriate to the structure kind
  roundtrip  on mdca tables, extract the structure and require that it
             rebuilds every table exactly; on other input, build the
             tables once, at every level of the structure and every
             level below W, extract the structure back and require that
             it equals the input.  This certifies build/extract/rebuild
             agreement only, not the identities, which check certifies
  cohomology Betti numbers of the multilinear form complex in a window
  catalog    list the built-in examples or emit one as an instance file

Paths may name a file or a built-in example as catalog:<name>.  Exit
codes: 0 all identities hold, 1 some identity fails, 2 unusable input; a
reader that closes stdout early ends the output quietly, and the code
stays the verdict's.
Degree windows may be negative: --window -2..3 and --window=-2..3 both
work; a window selects cohomology degrees, never the square check.  W
must be at least 2.  check runs the direct route on plain Lie-Rinehart
data, and both routes with route agreement on every other kind.  mdca
tables are extracted first and compared with the tables the extracted
data rebuilds, at every level of the file and every level below W; a
level the file lacks counts as zero tables.  Each residual carries
route, axiom, witness and value; the operator route checks that every
anchor value is a derivation of A, then probes D squared on the
dual-basis forms on words of length at most 1 (the cup generators) at
the levels below W, and on the constants at level W too, and the
descent of each level on the cup generators (the constants and the dual
1-forms).  roundtrip of other input names the level and word of the
first entry where the extracted coderivation or anchor differs from the
given one.  Quasi data that fails its own validation gets those
residuals and exit 1 from every verb.  The --json report of cohomology
also names, for each degree whose differential rank it computed, how
that rank was certified: "bounds" where the rank modulo a prime met a
bound from D squared to zero, "exact" where the exact row reduction ran.
cohomology fails with exit 1 on
mdca tables the extracted data does not rebuild, a non-derivation
anchor, a D that does not square to zero, or a level that does not
preserve multilinearity; the last three are a forms.Refusal, and give
its message as a refused line and its residuals, the operator-route
residuals of check.  roundtrip of a build that does not descend (the
same forms.Refusal) gives the first of them, with route roundtrip.
"""

import argparse
import functools
import json
import os
import re
import sys
import time
from fractions import Fraction

from .coalgebra import TruncationPolicy
from .forms import Refusal, cohomology_ranks
from .graded import vec_sub
from .instances import catalog_entry, catalog_names
from .io_json import (InstanceError, emit_instance, parse_instance,
                      parse_instance_text, q_to_str)
from .structures import (LieRinehartData, MdcaStructure, QuasiLieRinehartData,
                         build_maurer_cartan, check_lie_rinehart,
                         check_sh_lie_rinehart, extract_structure,
                         quasi_to_sh, table_residuals)


ROUNDTRIP_SCOPE = ("build/extract/rebuild agreement only; the identities "
                   "are certified by mdca check")


class UsageError(Exception):
    pass


def jsonable(x):
    """JSON form of a report: a dict with tuple keys becomes a sorted list
    of [[parts...], value] rows, like the wire format, since labels may
    contain any separator a joined key could use."""
    if isinstance(x, Fraction):
        return q_to_str(x)
    if isinstance(x, dict):
        if not any(isinstance(k, tuple) for k in x):
            return {str(k): jsonable(v) for k, v in x.items()}
        rows = [[[str(p) for p in (k if isinstance(k, tuple) else (k,))],
                 jsonable(v)] for k, v in x.items()]
        return sorted(rows, key=lambda r: r[0])
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    return x


def load(path, kind):
    if path.startswith("catalog:"):
        name = path[len("catalog:"):]
        try:
            data, policy = catalog_entry(name)
        except KeyError as e:
            raise UsageError(str(e.args[0]))
        inst = parse_instance_text(emit_instance(data, policy),
                                   where=path)
    else:
        if not os.path.exists(path):
            raise UsageError("no such file: %s" % path)
        inst = parse_instance(path)
    if kind != "auto":
        names = {"lr": "lie_rinehart", "shlr": "sh_lie_rinehart",
                 "quasi": "quasi", "mdca": "mdca"}
        if inst.kind != names[kind]:
            raise UsageError("instance is %s, not %s"
                             % (inst.kind, names[kind]))
    return inst


def policy_for(inst, args):
    W = args.W if args.W is not None else inst.policy.W
    window = inst.policy.degree_window
    if getattr(args, "window", None):
        try:
            lo, hi = args.window.split("..")
            lo, hi = int(lo), int(hi)
        except ValueError:
            raise UsageError("--window expects a..b with integers")
        if lo > hi:
            raise UsageError("--window expects a..b with a <= b")
        # file/report degrees are upper: negate and swap for the
        # internal homological convention
        window = (-hi, -lo)
    try:
        return TruncationPolicy(W, window)
    except ValueError as e:
        raise UsageError(str(e))


def extracted(inst, policy):
    """The homotopy form of any kind of input, with the table consistency
    residuals of table_residuals for mdca tables."""
    data = inst.data
    if isinstance(data, LieRinehartData):
        return data.as_sh(), []
    if isinstance(data, QuasiLieRinehartData):
        return quasi_to_sh(data), []
    if not isinstance(data, MdcaStructure):
        return data, []
    sh = extract_structure(data)
    return sh, table_residuals(data, sh, policy)[0]


def validation_residuals(inst):
    """Quasi data must pass its own validation before quasi_to_sh can
    convert it; every verb reports these residuals the same way, in the
    schema of check: route quasi validation, the invariant as axiom, and
    the Leibniz defect as value where the invariant asks for a
    derivation (None elsewhere)."""
    if not isinstance(inst.data, QuasiLieRinehartData):
        return []
    return [{"route": "quasi validation", "axiom": r["invariant"],
             "witness": r["witness"], "value": r.get("value")}
            for r in inst.data.validation_report()]


def run_check(inst, policy):
    """Plain Lie-Rinehart data: the direct route.  Every other kind: both
    routes with route agreement, on the homotopy form (extracted)."""
    if isinstance(inst.data, LieRinehartData):
        return check_lie_rinehart(inst.data, policy)
    sh, residuals = extracted(inst, policy)
    return residuals + check_sh_lie_rinehart(sh, policy)


def first_difference(got, want):
    """(level, word, got minus want) at the first (level, word), in
    sorted order, where two level tables {j: {word: {key: value}}}
    differ; None where they agree.  An absent entry counts as zero.
    The tables hold no zero coefficient, so two entries differ exactly
    when their difference is nonzero: entries are compared, and only the
    first pair that differs is subtracted."""
    for j in sorted(set(got) | set(want)):
        a, b = got.get(j, {}), want.get(j, {})
        for w in sorted(set(a) | set(b)):
            u, v = a.get(w, {}), b.get(w, {})
            if u != v:
                return j, w, vec_sub(u, v)
    return None


def run_roundtrip(inst, policy):
    """mdca input: extract, then compare the tables the extracted data
    rebuilds with the file's, and require that rebuild to descend
    (table_residuals).  Other input: build the tables once, extract, and
    compare the extracted coderivation and anchor with the given ones;
    each table that differs gives one residual, its witness the level
    and word of the first differing entry and its value the extracted
    entry minus the given one.  A build that does not descend gives the
    descent residual of the operator route, with route roundtrip."""
    if isinstance(inst.data, MdcaStructure):
        sh = extract_structure(inst.data)
        residuals, violations = table_residuals(inst.data, sh, policy)
        return residuals + violations
    sh = extracted(inst, policy)[0]
    try:
        m = build_maurer_cartan(sh, policy)
    except Refusal as e:
        return [dict(e.residuals[0], route="roundtrip")]
    back = extract_structure(m)

    def anchor_tables(d):
        return {j: {w: op.entries for w, op in tab.items()}
                for j, tab in d.t.maps.items()}

    residuals = []
    for axiom, got, want in (
            ("coderivation tables", back.partial.cor, sh.partial.cor),
            ("anchor tables", anchor_tables(back), anchor_tables(sh))):
        hit = first_difference(got, want)
        if hit is not None:
            residuals.append({"route": "roundtrip", "axiom": axiom,
                              "witness": hit[:2], "value": hit[2]})
    return residuals


def run_cohomology(inst, policy):
    """(residuals, report fields): the Betti numbers and the certificate
    of each differential rank they rest on (forms.cohomology_ranks), or
    on a refusal of the operator route its reason; the residuals have
    the schema of check."""
    sh, residuals = extracted(inst, policy)
    if residuals:
        return residuals, {}
    certificates = {}
    try:
        ranks = cohomology_ranks(sh.L, sh.partial, sh.t, policy,
                                 certificates)
    except Refusal as e:
        return e.residuals, {"refused": str(e)}
    # report in file degrees (upper convention)
    return [], {"betti": {str(-d): {"rank": r["rank"],
                                    "boundary_flag": r["flagged"]}
                          for d, r in sorted(ranks.items(), reverse=True)},
                "rank_certificates": {
                    str(-d): c
                    for d, c in sorted(certificates.items(), reverse=True)}}


def render(report, args):
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(jsonable(report), fh, sort_keys=True, indent=2)
            fh.write("\n")
    print("verdict: %s" % report["verdict"])
    print("certified up to word length %d" % report["W"])
    for key in ("certifies", "refused"):
        if key in report:
            print("%s: %s" % (key, report[key]))
    for key in ("residuals", "betti"):
        if key in report:
            print("%s:" % key)
            body = json.dumps(jsonable(report[key]), sort_keys=True,
                              indent=2)
            for line in body.splitlines():
                print("  " + line)
    print("elapsed: %.3fs" % report["timing_seconds"])


def glue_window(argv):
    """argparse reads a token starting with '-' as an option, so a
    negative window such as `--window -2..3` (or `--win -2..3`) is glued
    into one token."""
    out = []
    for a in argv:
        if (out and out[-1].startswith("--w")
                and "--window".startswith(out[-1]) and re.match(r"-\d", a)):
            out[-1] = "--window=" + a
        else:
            out.append(a)
    return out


@functools.cache
def parser():
    """The argument parser, built on the first call of main and kept: not
    at import, which would add to every cold start that only loads."""
    p = argparse.ArgumentParser(prog="mdca", description=__doc__)
    sub = p.add_subparsers(dest="verb", required=True)

    def common(sp):
        sp.add_argument("path")
        sp.add_argument("--W", type=int, default=None)
        sp.add_argument("--json", default=None)
        sp.add_argument("--kind", default="auto",
                        choices=["auto", "lr", "shlr", "quasi", "mdca"])

    common(sub.add_parser("check"))
    common(sub.add_parser("roundtrip"))
    sp = sub.add_parser("cohomology")
    common(sp)
    sp.add_argument("--window", default=None)
    sp = sub.add_parser("catalog")
    sp.add_argument("action", choices=["list", "emit"])
    sp.add_argument("name", nargs="?")
    return p


def main(argv=None):
    try:
        args = parser().parse_args(glue_window(
            sys.argv[1:] if argv is None else argv))
    except SystemExit as e:
        return 2 if e.code else 0

    code = 0
    try:
        if args.verb == "catalog":
            if args.action == "list":
                for name in catalog_names():
                    print(name)
            elif not args.name:
                raise UsageError("catalog emit requires a name")
            else:
                try:
                    data, policy = catalog_entry(args.name)
                except KeyError as e:
                    raise UsageError(str(e.args[0]))
                sys.stdout.write(emit_instance(data, policy))
        else:
            inst = load(args.path, args.kind)
            policy = policy_for(inst, args)
            t0 = time.perf_counter()
            report = {"kind": inst.kind, "W": policy.W}
            residuals = validation_residuals(inst)
            if not residuals and args.verb == "cohomology":
                residuals, fields = run_cohomology(inst, policy)
                report.update(fields)
            elif not residuals:
                run = run_check if args.verb == "check" else run_roundtrip
                residuals = run(inst, policy)
            if "betti" not in report:
                report["residuals"] = residuals
            if args.verb == "roundtrip":
                report["certifies"] = ROUNDTRIP_SCOPE
            report["verdict"] = "fail" if residuals else "pass"
            report["timing_seconds"] = time.perf_counter() - t0
            code = 1 if residuals else 0
            render(report, args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout early: the rest of the output goes to
        # the null device, so the flush at exit fails no more, and the
        # exit code is the verdict's
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
        return code
    except (UsageError, InstanceError, OSError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
