"""Spans and counters around the public functions of each mdca layer.

The tracer wraps functions from outside the library: it replaces a
function in every mdca module namespace that binds it, because `cli` and
`structures` import functions by name.  Layer-boundary functions get a
span (name, job id, start, end, parent span); the hot leaf functions get
a call counter only, since a span per call would cost more than the call.
Spans stay in memory and are written out once, after the run.

A span's self time is its duration minus the durations of its child
spans.  The in-library stage timer planned for `mdca` will replace these
outside wrappers.
"""

import functools
import importlib
from time import perf_counter

LAYERS = ("cli", "io_json", "instances", "structures", "forms",
          "coalgebra", "algebra", "graded")

# (layer, function) pairs that get a span
SPANS = (
    ("cli", "main"),
    ("io_json", "parse_instance"),
    ("io_json", "parse_instance_text"),
    ("io_json", "emit_instance"),
    ("instances", "catalog_entry"),
    ("structures", "check_lie_rinehart"),
    ("structures", "check_sh_lie_rinehart"),
    ("structures", "check_twisting_cochain"),
    ("structures", "anchor_multilinearity_report"),
    ("structures", "anomaly_report"),
    ("structures", "build_maurer_cartan"),
    ("structures", "extract_structure"),
    ("forms", "square_check"),
    ("forms", "build_D"),
    ("forms", "cup"),
    ("forms", "descent_check"),
    ("forms", "is_A_multilinear"),
    ("forms", "cohomology_ranks"),
    ("coalgebra", "check_coalgebra_perturbation"),
    ("coalgebra", "word_basis"),
    ("graded", "row_echelon"),
)

# (layer, function) pairs that get a counter; those with a key function
# also count distinct argument keys per job
COUNTERS = (
    ("graded", "vec_axpy"),
    ("algebra", "multiply"),
    ("coalgebra", "normalize_word"),
    ("coalgebra", "splittings"),
)

DISTINCT_KEYS = {
    "coalgebra.normalize_word": lambda a, k: (id(a[0]), tuple(a[1])),
    "coalgebra.splittings": lambda a, k: (
        id(a[0]), a[1], a[2] if len(a) > 2 else k.get("left_size")),
}

CHECKS = ("structures.check_lie_rinehart", "structures.check_sh_lie_rinehart")
DIRECT_ROUTE = ("coalgebra.check_coalgebra_perturbation",
                "structures.check_twisting_cochain",
                "structures.anchor_multilinearity_report",
                "structures.anomaly_report")
OPERATOR_ROUTE = ("forms.square_check", "forms.descent_check")
PARSE = ("io_json.parse_instance", "io_json.parse_instance_text")


class Tracer:
    """Spans and counters of one traced run.

    spans holds [name, job, start, end, parent index] records in start
    order; counts maps a function name to its call count.
    """

    def __init__(self):
        self.spans = []
        self.stack = []
        self.job = 0
        self.on = True
        self.counts = {}
        self.distinct = {}
        self.keys = {}
        self.extra = {"square_check.forms_probed": 0,
                      "word_basis.words": 0,
                      "row_echelon.rows": 0,
                      "row_echelon.cells": 0,
                      "row_echelon.rank": 0}
        self._patched = []

    # -------------------------------------------------------- wrappers

    def _span(self, name, fn, observe=None):
        spans = self.spans
        stack = self.stack

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            rec = [name, self.job, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                stack.pop()
            if observe is not None:
                self.on = False
                try:
                    observe(args, kwargs, result)
                finally:
                    self.on = True
            return result
        return wrapped

    def _counter(self, name, fn):
        counts = self.counts
        counts[name] = 0
        keyf = DISTINCT_KEYS.get(name)
        if keyf is None:
            @functools.wraps(fn)
            def wrapped(*args, **kwargs):
                if self.on:
                    counts[name] += 1
                return fn(*args, **kwargs)
            return wrapped
        self.distinct[name] = 0
        seen = self.keys.setdefault(name, set())

        @functools.wraps(fn)
        def keyed(*args, **kwargs):
            if self.on:
                counts[name] += 1
                seen.add(keyf(args, kwargs))
            return fn(*args, **kwargs)
        return keyed

    def _observers(self, forms):
        extra = self.extra

        def square_check(args, kwargs, result):
            # (level, form) probes: W levels over the probe set
            L, policy = args[0], args[3]
            n = (len(forms.ambient_basis_forms(L, policy))
                 + len(forms.multilinear_generators(L, policy.W)))
            extra["square_check.forms_probed"] += policy.W * n

        def word_basis(args, kwargs, result):
            extra["word_basis.words"] += len(result)

        def row_echelon(args, kwargs, result):
            rows, ncols = args[0], args[1]
            extra["row_echelon.rows"] += len(rows)
            extra["row_echelon.cells"] += len(rows) * ncols
            extra["row_echelon.rank"] += len(result)

        return {"forms.square_check": square_check,
                "coalgebra.word_basis": word_basis,
                "graded.row_echelon": row_echelon}

    # ---------------------------------------------------- installation

    def install(self):
        """Wrap every traced function in every mdca module binding it."""
        mods = {m: importlib.import_module("mdca." + m) for m in LAYERS}
        observers = self._observers(mods["forms"])
        for layer, fname in SPANS + COUNTERS:
            name = "%s.%s" % (layer, fname)
            orig = getattr(mods[layer], fname)
            if (layer, fname) in SPANS:
                wrapped = self._span(name, orig, observers.get(name))
            else:
                wrapped = self._counter(name, orig)
            for mod in mods.values():
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapped)
                        self._patched.append((mod, attr, orig))

    def uninstall(self):
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def start_job(self, job):
        """Spans of one job share its id; distinct keys are per job."""
        self.job = job
        for name, seen in self.keys.items():
            self.distinct[name] += len(seen)
            seen.clear()

    def finish(self):
        self.start_job(self.job)

    # ------------------------------------------------------- reduction

    def span_call_count(self, name):
        return sum(1 for s in self.spans if s[0] == name)

    def _has_ancestor(self, rec, names):
        p = rec[4]
        while p >= 0:
            if self.spans[p][0] in names:
                return True
            p = self.spans[p][4]
        return False

    def outer_seconds(self, names, parents=None):
        """Summed duration of spans named in `names` that are not nested
        in another such span; with `parents`, only those whose parent
        span is named there."""
        total = 0.0
        for rec in self.spans:
            if rec[0] not in names:
                continue
            if parents is not None:
                if rec[4] < 0 or self.spans[rec[4]][0] not in parents:
                    continue
            elif self._has_ancestor(rec, names):
                continue
            total += rec[3] - rec[2]
        return total

    def self_seconds(self, name):
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[4] >= 0:
                child[rec[4]] += rec[3] - rec[2]
        return sum(rec[3] - rec[2] - child[i]
                   for i, rec in enumerate(self.spans) if rec[0] == name)

    def metrics(self, passes):
        """Per-layer metrics per traced pass."""
        ex = self.extra
        per = float(passes)

        def ratio(a, b):
            return a / b if b else 0.0

        return {
            "forms.square_check_s": self.outer_seconds(
                ("forms.square_check",)) / per,
            "forms.square_check.forms_probed":
                ex["square_check.forms_probed"] / per,
            "forms.build_D.calls":
                self.span_call_count("forms.build_D") / per,
            "forms.build_D.self_s": self.self_seconds("forms.build_D") / per,
            "forms.cup.calls": self.span_call_count("forms.cup") / per,
            "forms.descent_check_s": self.outer_seconds(
                ("forms.descent_check",)) / per,
            "forms.is_A_multilinear_s": self.outer_seconds(
                ("forms.is_A_multilinear",)) / per,
            "forms.is_A_multilinear.calls":
                self.span_call_count("forms.is_A_multilinear") / per,
            "forms.cohomology_ranks_s": self.outer_seconds(
                ("forms.cohomology_ranks",)) / per,
            "structures.route.direct_s": self.outer_seconds(
                DIRECT_ROUTE, parents=CHECKS) / per,
            "structures.route.operators_s": self.outer_seconds(
                OPERATOR_ROUTE, parents=CHECKS) / per,
            "structures.build_s": self.outer_seconds(
                ("structures.build_maurer_cartan",)) / per,
            "structures.extract_s": self.outer_seconds(
                ("structures.extract_structure",)) / per,
            "coalgebra.perturbation_s": self.outer_seconds(
                ("coalgebra.check_coalgebra_perturbation",)) / per,
            "coalgebra.normalize_word.calls":
                self.counts["coalgebra.normalize_word"] / per,
            "coalgebra.normalize_word.distinct_ratio": ratio(
                self.distinct["coalgebra.normalize_word"],
                self.counts["coalgebra.normalize_word"]),
            "coalgebra.splittings.calls":
                self.counts["coalgebra.splittings"] / per,
            "coalgebra.splittings.distinct_ratio": ratio(
                self.distinct["coalgebra.splittings"],
                self.counts["coalgebra.splittings"]),
            "coalgebra.word_basis.words": ex["word_basis.words"] / per,
            "graded.row_echelon_s": self.outer_seconds(
                ("graded.row_echelon",)) / per,
            "graded.row_echelon.calls":
                self.span_call_count("graded.row_echelon") / per,
            "graded.row_echelon.cells": ex["row_echelon.cells"] / per,
            "graded.row_echelon.rank_ratio": ratio(
                ex["row_echelon.rank"], ex["row_echelon.rows"]),
            "graded.vec_axpy.calls": self.counts["graded.vec_axpy"] / per,
            "algebra.multiply.calls": self.counts["algebra.multiply"] / per,
            "io_json.parse_s": self.outer_seconds(PARSE) / per,
            "io_json.emit_s": self.outer_seconds(
                ("io_json.emit_instance",)) / per,
            "instances.catalog_entry_s": self.outer_seconds(
                ("instances.catalog_entry",)) / per,
            "cli.self_s": self.self_seconds("cli.main") / per,
        }

    def write(self, path, t0=0.0):
        """All spans as tab-separated rows, times relative to t0."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tparent\tjob\tname\tstart_s\tend_s\n")
            for i, (name, job, start, end, parent) in enumerate(self.spans):
                fh.write("%d\t%d\t%d\t%s\t%.9f\t%.9f\n"
                         % (i, parent, job, name, start - t0, end - t0))
