"""JSON instance files: parsing with validation, canonical emission.

One wire format describes an algebra, a free module over it, one
structure section and a truncation policy.  Rationals are written as
strings "p" or "p/q" in lowest terms with a positive denominator; floats
never appear.  Degrees in files use the upper convention: a file degree
q corresponds to the internal homological degree -q, so a differential
raises file degrees by one.

Document layout (all keys sorted on emission, two-space indent):

  algebra:   generators [{label, degree}], unit, mult [[a, b, c, "p/q"]]
             (a*b has coefficient p/q on c), diff [[target, source, "p/q"]]
  module:    generators [{label, degree}], diff [[target, source, "p/q"]]
             over induced labels "a|x"
  structure: tagged by "kind":
    lie_rinehart     bracket [[g1, g2, target, "p/q"]],
                     anchor [[g, target, source, "p/q"]]
    sh_lie_rinehart  coderivations {j: [[[word...], target, "p/q"]]},
                     twisting {j: [[[word...], target, source, "p/q"]]}
    quasi            bracketQ [[g1, g2, target, "p/q"]],
                     pairing [[g, target, source, "p/q"]],
                     triple [[x1, x2, target, source, "p/q"]]
    mdca             constants {j: {label: [[[word...], target, "p/q"]]}},
                     duals     {j: {label: [[[word...], target, "p/q"]]}}
  policy:    W, degree_window ([lo, hi] in file degrees, or null)

Every table is a list of rows [key fields..., target fields..., "p/q"],
where a field is a label or a word (a list of labels).  One reader,
_read_rows, parses the rows of every table, and one writer, _rows,
emits them.  Emission is canonical (rows sorted, keys sorted), so parse
followed by emit reproduces a canonically emitted file byte for byte.
JSON true and false are refused where an integer is expected.  A
section that may be left out must have its type when present: a table
is a list and the policy an object.

Parsing is where outside input is checked.  The tables of a file are
the only ones the library does not build itself, so their checks live
here and run once (forms.FormTable, coalgebra.Coderivation,
forms.TwistingCochain and structures.QuasiLieRinehartData only store).
Each failure names its row, table or level, and gives a degree in the
file's convention.
  * mdca form tables: each is degree homogeneous, of the degree of D_j
    on its generator, zero rows included; a word that vanishes is
    dropped and a non-canonical one refused, naming the table.
  * sh_lie_rinehart coderivations and twisting: every level is at least
    1; every row's word has the length of its level (j + 1 for a
    corestriction, j for an anchor) and a value of degree |w| - 1, zero
    rows included; a word that vanishes is dropped and a non-canonical
    one refused, naming the row.
  * lie_rinehart bracket and anchor: a bracket target has the degree of
    its two arguments, an anchor entry the degree of its label; a bracket
    given on both orders of a pair is graded antisymmetric, and a
    self-bracket of an even element is zero
    (coalgebra.antisymmetry_violations on the rows as given, zero rows
    included, naming the later row of the two).  Quasi data checks the
    same law in its validation instead.
Then zero coefficients, keys left with no value and zero operators are
dropped; a quasi bracket keeps a key given as zero, with an empty
value, for that validation.  One helper (_canonical) tests every word
key.
"""

import json
import re
from fractions import Fraction as Q

from .algebra import AlgebraSpec, validate_algebra
from .coalgebra import (SEP, Coderivation, ModuleSpec, TruncationPolicy,
                        antisymmetry_violations, normalize_word, word_degree)
from .forms import FormTable, TwistingCochain
from .graded import GradedBasis, LinearMap
from .structures import (LieRinehartData, MdcaStructure,
                         QuasiLieRinehartData, ShLieRinehartData)

_RATIONAL = re.compile(r"^-?(0|[1-9][0-9]*)(/[1-9][0-9]*)?$")

KINDS = ("lie_rinehart", "sh_lie_rinehart", "quasi", "mdca")


class InstanceError(ValueError):
    """Parse or validation failure, its message led by the document
    locus."""

    def __init__(self, locus, message):
        super().__init__("%s: %s" % (locus, message))


def q_to_str(c):
    c = Q(c)
    if c.denominator == 1:
        return str(c.numerator)
    return "%d/%d" % (c.numerator, c.denominator)


def str_to_q(s, locus):
    if not isinstance(s, str) or not _RATIONAL.match(s):
        raise InstanceError(locus, "malformed rational %r (expected "
                            "\"p\" or \"p/q\" with q > 0)" % (s,))
    if "/" in s:
        p, q = s.split("/")
        val = Q(int(p), int(q))
        if val.denominator != int(q):
            raise InstanceError(locus, "rational %r is not in lowest "
                                "terms" % (s,))
        return val
    return Q(int(s))


# --------------------------------------------------------------- emission

def _gen_rows(basis):
    return [{"degree": -d, "label": l} for l, d in basis.gens]


def _rows(table):
    """The sorted rows of {key: {target: coefficient}}, the inverse of
    _read_rows.  A key is a tuple of fields, and a field that is a tuple
    is a word, written as a list; a target is a label or a tuple of
    labels; a LinearMap stands for its entries."""
    rows = []
    for key, vec in table.items():
        head = [list(f) if isinstance(f, tuple) else f for f in key]
        if isinstance(vec, LinearMap):
            vec = vec.entries
        for tgt, c in vec.items():
            rows.append(head + (list(tgt) if isinstance(tgt, tuple)
                                else [tgt]) + [q_to_str(c)])
    return sorted(rows)


def structure_doc(data):
    """The tagged structure section for a supported data object."""
    if isinstance(data, LieRinehartData):
        return {"anchor": _rows(data.anchor.maps.get(1, {})),
                "bracket": _rows(data.bracket), "kind": "lie_rinehart"}
    if isinstance(data, ShLieRinehartData):
        return {"coderivations": {
                    str(j): _rows({(w,): vec for w, vec in tab.items()})
                    for j, tab in data.partial.cor.items()},
                "kind": "sh_lie_rinehart",
                "twisting": {
                    str(j): _rows({(w,): op for w, op in tab.items()})
                    for j, tab in data.t.maps.items()}}
    if isinstance(data, QuasiLieRinehartData):
        return {"bracketQ": _rows(data.bracket), "kind": "quasi",
                "pairing": _rows({(g,): op
                                  for g, op in data.pairing.items()}),
                "triple": _rows(data.triple)}
    if isinstance(data, MdcaStructure):
        def tables(side):
            return {str(j): {name: _rows({(w,): vec for w, vec
                                          in f.values.items()})
                             for name, f in tab.items()}
                    for j, tab in side.items()}
        return {"constants": tables(data.on_constants), "duals":
                tables(data.on_duals), "kind": "mdca"}
    raise TypeError("unsupported structure object %r" % (type(data),))


def emit_instance(data, policy):
    """Canonical JSON text for a structure object and policy."""
    L = data.L
    A = L.over
    window = policy.degree_window
    doc = {
        "algebra": {
            "diff": _rows({(): A.diff}),
            "generators": _gen_rows(A.basis),
            "mult": _rows(A.mult),
            "unit": A.unit,
        },
        "module": {
            "diff": _rows({(): L.diff_l}),
            "generators": _gen_rows(L.a_basis),
        },
        "policy": {
            "W": policy.W,
            "degree_window": (None if window is None
                              else [-window[1], -window[0]]),
        },
        "structure": structure_doc(data),
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------- parsing

def _need(doc, key, locus, typ=dict):
    if not isinstance(doc, dict) or key not in doc:
        raise InstanceError(locus, "missing section %r" % (key,))
    val = doc[key]
    if typ is not None and not isinstance(val, typ):
        raise InstanceError("%s.%s" % (locus, key), "expected %s" % {
            dict: "an object", list: "a list"}[typ])
    return val


def _integer(x):
    """Whether x is a JSON integer; true and false are not, though Python
    counts bool as int."""
    return isinstance(x, int) and not isinstance(x, bool)


def _parse_generators(rows, locus):
    if not isinstance(rows, list) or not rows:
        raise InstanceError(locus, "at least one generator required")
    gens = []
    seen = set()
    for n, row in enumerate(rows):
        here = "%s[%d]" % (locus, n)
        if (not isinstance(row, dict) or not isinstance(
                row.get("label"), str) or not _integer(row.get("degree"))):
            raise InstanceError(here, "expected {label, degree}")
        if row["label"] in seen:
            raise InstanceError(here, "duplicate label %r" % row["label"])
        seen.add(row["label"])
        gens.append((row["label"], -row["degree"]))
    return gens


def _level(key, locus):
    """A level key as emission writes it: ASCII decimal digits with no
    leading zero, so that no two keys name the same level."""
    if not (key.isascii() and key.isdigit() and str(int(key)) == key):
        raise InstanceError(locus, "level key %r is not a canonical "
                            "decimal integer" % (key,))
    return int(key)


def _read_rows(rows, keys, targets, locus, row_key=None):
    """Rows [key fields..., target fields..., rational] grouped into
    {key: {target: coefficient}}.

    keys and targets are tuples holding the label table of each field; a
    table in a list ([table]) marks a word field, read as a tuple of its
    labels.  A key or target of one field is stored as that field, one of
    several fields as their tuple.  row_key(key, target, here), when
    given, checks a row and returns the key it is stored under, None to
    drop it.  A target given twice for one key is refused, and so is a
    table that is not a list."""
    if not isinstance(rows, list):
        raise InstanceError(locus, "expected a list")
    fields = keys + targets
    nkey, width = len(keys), len(fields) + 1
    one_key, one_target = nkey == 1, len(targets) == 1
    at = range(width - 1)
    out = {}
    for n, row in enumerate(rows):
        here = "%s[%d]" % (locus, n)
        if not (isinstance(row, list) and len(row) == width):
            raise InstanceError(here, "expected %d fields" % width)
        vals = row[:-1]
        # the parse's inner loop: indexed, not zipped, and a label passes
        # one test (no label is in a word field's [table])
        for i in at:
            field = vals[i]
            if isinstance(field, str) and field in fields[i]:
                continue
            if not isinstance(fields[i], list):
                raise InstanceError(here, "unknown label %r" % (field,))
            if not isinstance(field, list):
                raise InstanceError(here, "expected a word list")
            table = fields[i][0]
            for lbl in field:
                if not isinstance(lbl, str) or lbl not in table:
                    raise InstanceError(here, "unknown label %r" % (lbl,))
            vals[i] = tuple(field)
        key = vals[0] if one_key else tuple(vals[:nkey])
        tgt = vals[nkey] if one_target else tuple(vals[nkey:])
        c = str_to_q(row[-1], here)
        if row_key is not None:
            key = row_key(key, tgt, here)
            if key is None:
                continue
        vec = out.setdefault(key, {})
        if tgt in vec:
            raise InstanceError(here, "duplicate entry for %r" % (tgt,))
        vec[tgt] = c
    return out


def _parse_map(rows, basis, degree, locus):
    """Rows [target, source, rational]: a LinearMap of the given degree."""
    def degree_key(key, ts, here):
        if basis.degree[ts[0]] != basis.degree[ts[1]] + degree:
            raise InstanceError(here, "degree mismatch: %r -> %r is not "
                                "a degree %d entry" % (ts[1], ts[0], -degree))
        return key

    table = _read_rows(rows, (), (basis.degree, basis.degree), locus,
                       degree_key)
    return LinearMap(basis, basis, degree, table.get((), {}))


def _parse_algebra(doc):
    sec = _need(doc, "algebra", "instance")
    gens = _parse_generators(_need(sec, "generators", "algebra", list),
                             "algebra.generators")
    basis = GradedBasis(gens)
    unit = sec.get("unit")
    if not isinstance(unit, str):
        raise InstanceError("algebra", "unit required")
    if unit not in basis.degree:
        raise InstanceError("algebra.unit", "unknown label %r" % (unit,))
    adeg = basis.degree
    mult = _read_rows(_need(sec, "mult", "algebra", None), (adeg, adeg),
                      (adeg,), "algebra.mult")
    diff = _parse_map(sec.get("diff", []), basis, -1, "algebra.diff")
    A = AlgebraSpec(basis, unit, mult, diff)
    bad = validate_algebra(A)
    if bad:
        raise InstanceError("algebra", "invariant %r fails at %r"
                            % (bad[0]["invariant"], bad[0]["witness"]))
    return A


def _parse_module(doc, A):
    sec = _need(doc, "module", "instance")
    gens = _parse_generators(_need(sec, "generators", "module", list),
                             "module.generators")
    for n, (label, _) in enumerate(gens):
        # induced labels "a|x" are split at their last separator
        if SEP in label:
            raise InstanceError("module.generators[%d]" % n, "label %r "
                                "contains %r" % (label, SEP))
    L0 = ModuleSpec(A, GradedBasis(gens))
    diff = _parse_map(sec.get("diff", []), L0.l_basis, -1, "module.diff")
    L = ModuleSpec(A, GradedBasis(gens), diff)
    bad = L.validation_report()
    if bad:
        raise InstanceError("module", "invariant %r fails at %r"
                            % (bad[0]["invariant"], bad[0]["witness"]))
    return L


def _canonical(L, w, here, what):
    """w when it is a canonical nonvanishing word, None when it vanishes;
    a word out of canonical order is refused at here."""
    sgn, cw = normalize_word(L, list(w))
    if sgn and cw != w:
        raise InstanceError(here, "%s keyed by a non-canonical word %r"
                            % (what, w))
    return w if sgn else None


def _word_key(L, w, length, degree, here, what):
    """The word key of a corestriction or anchor row: of the length of
    its level, with a value of degree |w| - 1 (degree is that of the
    row's entry), and canonical (_canonical)."""
    if len(w) != length:
        raise InstanceError(here, "%s on a word of length %d, expected %d"
                            % (what, len(w), length))
    if degree - word_degree(L, w) != -1:
        raise InstanceError(here, "%s of degree %d, expected 1"
                            % (what, word_degree(L, w) - degree))
    return _canonical(L, w, here, what)


def _nonzero(table):
    """table without its zero coefficients and the keys left empty."""
    out = {}
    for key, vec in table.items():
        vec = {k: c for k, c in vec.items() if c}
        if vec:
            out[key] = vec
    return out


def _levels(sec, key):
    """(level, locus, rows) of each level of a corestriction or anchor
    section; levels start at 1."""
    for j, rows in _need(sec, key, "structure", dict).items():
        locus = "structure.%s[%s]" % (key, j)
        level = _level(j, locus)
        if level < 1:
            raise InstanceError(locus, "levels start at 1")
        yield level, locus, rows


def _parse_ops(rows, A, locus, keys, row_key=None):
    """Rows [key fields..., target, source, rational] of _read_rows, whose
    target is the pair (target, source), grouped into degree homogeneous
    operators on A; zero operators are dropped."""
    adeg = A.basis.degree
    ops = {}
    for key, ent in _read_rows(rows, keys, (adeg, adeg), locus,
                               row_key).items():
        degs = {adeg[t] - adeg[s] for t, s in ent}
        if len(degs) != 1:
            raise InstanceError(locus, "operator at %r is not degree "
                                "homogeneous" % (key,))
        op = LinearMap(A.basis, A.basis, degs.pop(), ent)
        if not op.is_zero():
            ops[key] = op
    return ops


def _parse_structure(doc, L):
    sec = _need(doc, "structure", "instance")
    kind = sec.get("kind")
    if kind not in KINDS:
        raise InstanceError("structure", "unsupported kind %r (expected "
                            "one of %s)" % (kind, ", ".join(KINDS)))
    A = L.over
    try:
        adeg, ldeg = A.basis.degree, L.l_basis.degree
        sldeg = L.sl_basis.degree
        if kind == "lie_rinehart":
            def bracket_key(key, tgt, here):
                d = ldeg[tgt] - ldeg[key[0]] - ldeg[key[1]]
                if d:
                    raise InstanceError(here, "bracket of degree %d, "
                                        "expected 0" % -d)
                return key

            rows = sec.get("bracket", [])
            bracket = _read_rows(rows, (ldeg, ldeg), (ldeg,),
                                 "structure.bracket", bracket_key)
            # zeros kept: a zero row still gives its order of the pair
            bad = antisymmetry_violations(L, bracket)
            if bad:
                # the later row of the two orders completes a violation
                last = {tuple(r[:2]): n for n, r in enumerate(rows)}
                n = min(max(last[k], last[k[::-1]]) for k in bad)
                raise InstanceError("structure.bracket[%d]" % n,
                                    "bracket not graded antisymmetric at %r"
                                    % (tuple(rows[n][:2]),))

            def anchor_key(g, ts, here):
                # a word of one label is canonical and never vanishes
                _word_key(L, (g,), 1, adeg[ts[0]] - adeg[ts[1]], here,
                          "anchor")
                return g

            anchor = _parse_ops(sec.get("anchor", []), A, "structure.anchor",
                                (ldeg,), anchor_key)
            return LieRinehartData(L, _nonzero(bracket), anchor)
        if kind == "sh_lie_rinehart":
            cor = {}
            for j, locus, rows in _levels(sec, "coderivations"):
                cor[j] = _nonzero(_read_rows(
                    rows, ([ldeg],), (ldeg,), locus,
                    lambda w, tgt, here: _word_key(
                        L, w, j + 1, sldeg[tgt], here, "corestriction")))
            maps = {}
            for j, locus, rows in _levels(sec, "twisting"):
                maps[j] = _parse_ops(
                    rows, A, locus, ([ldeg],),
                    lambda w, ts, here: _word_key(
                        L, w, j, adeg[ts[0]] - adeg[ts[1]], here, "anchor"))
            return ShLieRinehartData(L, Coderivation(L, cor),
                                     TwistingCochain(L, maps))
        if kind == "quasi":
            # zero coefficients go, but a pair given as zero keeps its key
            # (empty), so validation compares it with the reverse order
            bracket = {k: {t: c for t, c in v.items() if c}
                       for k, v in _read_rows(
                           sec.get("bracketQ", []), (ldeg, ldeg), (ldeg,),
                           "structure.bracketQ").items()}
            pairing = _parse_ops(sec.get("pairing", []), A,
                                 "structure.pairing", (ldeg,))
            xdeg = L.a_basis.degree
            triple = _parse_ops(sec.get("triple", []), A, "structure.triple",
                                (xdeg, xdeg))
            return QuasiLieRinehartData(L, bracket, pairing, triple)
        # mdca: both sides at the same levels, and at every level a table
        # for every algebra basis label and every module generator
        def tables(key, names):
            side = {}
            for j, tabs in _need(sec, key, "structure", dict).items():
                locus = "structure.%s[%s]" % (key, j)
                level = _level(j, locus)
                if not isinstance(tabs, dict):
                    raise InstanceError(locus, "expected an object")
                for name in names:
                    if name not in tabs:
                        raise InstanceError(locus, "missing table for "
                                            "generator %r" % name)
                side[level] = {}
                for name, rows in tabs.items():
                    here = "%s.%s" % (locus, name)
                    vals = _read_rows(rows, ([ldeg],), (adeg,), here)
                    # the degree checks read every row, zero rows too
                    degs = {adeg[al] - word_degree(L, w)
                            for w, vec in vals.items() for al in vec}
                    if len(degs) > 1:
                        raise InstanceError(here,
                                            "form is not degree homogeneous")
                    gen_deg = (A.basis if key == "constants"
                               else L.a_basis).degree.get(name)
                    if gen_deg is None:
                        raise InstanceError(locus,
                                            "unknown generator %r" % name)
                    base = gen_deg if key == "constants" else -gen_deg - 1
                    # D_j has degree -1 at every level (1 in file degrees)
                    if degs and degs != {base - 1}:
                        raise InstanceError(
                            here, "form of degree %d, expected %d"
                            % (-degs.pop(), 1 - base))
                    # FormTable's contract: canonical nonvanishing words,
                    # no zero coefficient
                    side[level][name] = FormTable(L, base - 1, _nonzero({
                        w: vec for w, vec in vals.items()
                        if _canonical(L, w, here, "form table")}))
            return side
        on_constants = tables("constants", A.basis.labels)
        on_duals = tables("duals", [x for x, _ in L.a_basis.gens])
        unmatched = sorted(set(on_constants) ^ set(on_duals))
        if unmatched:
            j = unmatched[0]
            have, miss = (("constants", "duals") if j in on_constants
                          else ("duals", "constants"))
            raise InstanceError("structure.%s[%d]" % (miss, j),
                                "missing level (structure.%s has it)" % have)
        return MdcaStructure(L, on_constants, on_duals)
    except InstanceError:
        raise
    except ValueError as e:
        raise InstanceError("structure", str(e))


def _parse_policy(doc):
    sec = doc.get("policy", {})
    if not isinstance(sec, dict):
        raise InstanceError("policy", "expected an object")
    W = sec.get("W", 4)
    if not _integer(W) or W < 2:
        raise InstanceError("policy.W", "expected an integer >= 2")
    window = sec.get("degree_window")
    if window is not None:
        if not (isinstance(window, list) and len(window) == 2
                and all(_integer(v) for v in window)
                and window[0] <= window[1]):
            raise InstanceError("policy.degree_window",
                                "expected [lo, hi] with lo <= hi")
        window = (-window[1], -window[0])
    return TruncationPolicy(W, window)


class ParsedInstance:
    def __init__(self, kind, data, policy):
        self.kind = kind
        self.data = data
        self.policy = policy


def parse_instance_text(text, where="instance"):
    def unique_keys(pairs):
        # json.loads keeps the last of two equal keys, so a second level
        # "1" would replace the first
        obj = {}
        for key, val in pairs:
            if key in obj:
                raise InstanceError(where, "duplicate key %r" % (key,))
            obj[key] = val
        return obj

    try:
        doc = json.loads(text, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as e:
        raise InstanceError(where, "malformed JSON: %s" % e)
    except RecursionError:
        raise InstanceError(where, "JSON nested too deeply") from None
    if not isinstance(doc, dict):
        raise InstanceError(where, "expected a JSON object")
    A = _parse_algebra(doc)
    L = _parse_module(doc, A)
    data = _parse_structure(doc, L)
    policy = _parse_policy(doc)
    kind = doc["structure"]["kind"]
    return ParsedInstance(kind, data, policy)


def parse_instance(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as e:
            raise InstanceError(str(path), "not UTF-8 text: %s" % e) from None
    return parse_instance_text(text, where=str(path))
