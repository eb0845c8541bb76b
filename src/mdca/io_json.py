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

Emission is canonical (rows sorted, keys sorted), so parse followed by
emit reproduces a canonically emitted file byte for byte.

Parsing is where outside input is checked.  The tables of a file are
the only ones the library does not build itself, so their checks live
here and run once (forms.FormTable, coalgebra.Coderivation and
forms.TwistingCochain only store).  Each failure names its row, table
or level.
  * mdca form tables: each is degree homogeneous, of the degree of D_j
    on its generator, zero rows included; a word that vanishes is
    dropped and a non-canonical one refused, naming the table.
  * sh_lie_rinehart coderivations and twisting: every level is at least
    1; every row's word has the length of its level (j + 1 for a
    corestriction, j for an anchor) and a value of degree |w| - 1, zero
    rows included; a word that vanishes is dropped and a non-canonical
    one refused, naming the row.
  * lie_rinehart bracket and anchor: a bracket target has the degree of
    its two arguments, an anchor entry the degree of its label.
Then zero coefficients, keys left with no value and zero operators are
dropped.  One helper (_canonical) tests every word key.
"""

import json
import re
from fractions import Fraction as Q

from .algebra import AlgebraSpec, validate_algebra
from .coalgebra import (SEP, Coderivation, ModuleSpec, TruncationPolicy,
                        normalize_word, word_degree)
from .forms import FormTable, TwistingCochain
from .graded import GradedBasis, LinearMap
from .structures import (LieRinehartData, MdcaStructure,
                         QuasiLieRinehartData, ShLieRinehartData)

_RATIONAL = re.compile(r"^-?(0|[1-9][0-9]*)(/[1-9][0-9]*)?$")

KINDS = ("lie_rinehart", "sh_lie_rinehart", "quasi", "mdca")


class InstanceError(ValueError):
    """Parse or validation failure, carrying the document locus."""

    def __init__(self, locus, message):
        self.locus = locus
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


def _map_rows(lin):
    return sorted([t, s, q_to_str(c)] for (t, s), c in lin.entries.items())


def _op_rows(prefix, op):
    return sorted(list(prefix) + [t, s, q_to_str(c)]
                  for (t, s), c in op.entries.items())


def _form_rows(f):
    return sorted([list(w), al, q_to_str(c)]
                  for w, vec in f.values.items() for al, c in vec.items())


def structure_doc(data):
    """The tagged structure section for a supported data object."""
    if isinstance(data, LieRinehartData):
        rows = sorted([g1, g2, tgt, q_to_str(c)]
                      for (g1, g2), vec in data.bracket.items()
                      for tgt, c in vec.items())
        anchor = sorted(r for (g,), op in data.anchor.maps.get(1, {}).items()
                        for r in _op_rows((g,), op))
        return {"anchor": anchor, "bracket": rows, "kind": "lie_rinehart"}
    if isinstance(data, ShLieRinehartData):
        cor = {str(j): sorted([list(w), tgt, q_to_str(c)]
                              for w, vec in tab.items()
                              for tgt, c in vec.items())
               for j, tab in data.partial.cor.items()}
        tw = {str(j): sorted([list(w), t_, s_, q_to_str(c)]
                             for w, op in tab.items()
                             for (t_, s_), c in op.entries.items())
              for j, tab in data.t.maps.items()}
        return {"coderivations": cor, "kind": "sh_lie_rinehart",
                "twisting": tw}
    if isinstance(data, QuasiLieRinehartData):
        rows = sorted([g1, g2, tgt, q_to_str(c)]
                      for (g1, g2), vec in data.bracket.items()
                      for tgt, c in vec.items())
        pairing = sorted(r for g, op in data.pairing.items()
                         for r in _op_rows((g,), op))
        triple = sorted(r for key, op in data.triple.items()
                        for r in _op_rows(key, op))
        return {"bracketQ": rows, "kind": "quasi", "pairing": pairing,
                "triple": triple}
    if isinstance(data, MdcaStructure):
        def tables(side):
            return {str(j): {name: _form_rows(f)
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
            "diff": _map_rows(A.diff),
            "generators": _gen_rows(A.basis),
            "mult": sorted([a, b, k, q_to_str(c)]
                           for (a, b), vec in A.mult.items()
                           for k, c in vec.items()),
            "unit": A.unit,
        },
        "module": {
            "diff": _map_rows(L.diff_l),
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
        raise InstanceError("%s.%s" % (locus, key),
                            "expected %s" % typ.__name__)
    return val


def _parse_generators(rows, locus):
    if not isinstance(rows, list) or not rows:
        raise InstanceError(locus, "at least one generator required")
    gens = []
    seen = set()
    for n, row in enumerate(rows):
        here = "%s[%d]" % (locus, n)
        if (not isinstance(row, dict) or not isinstance(
                row.get("label"), str) or not isinstance(
                row.get("degree"), int)):
            raise InstanceError(here, "expected {label, degree}")
        if row["label"] in seen:
            raise InstanceError(here, "duplicate label %r" % row["label"])
        seen.add(row["label"])
        gens.append((row["label"], -row["degree"]))
    return gens


def _known(lbl, table, here):
    """A row field that must be one of the labels of ``table``."""
    if not isinstance(lbl, str) or lbl not in table:
        raise InstanceError(here, "unknown label %r" % (lbl,))


def _word(field, table, here):
    """The word field of a row, as a tuple of labels of ``table``."""
    if not isinstance(field, list):
        raise InstanceError(here, "expected a word list")
    for lbl in field:
        _known(lbl, table, here)
    return tuple(field)


def _level(key, locus):
    """A level key as emission writes it: ASCII decimal digits with no
    leading zero, so that no two keys name the same level."""
    if not (key.isascii() and key.isdigit() and str(int(key)) == key):
        raise InstanceError(locus, "level key %r is not a canonical "
                            "decimal integer" % (key,))
    return int(key)


def _parse_map(rows, basis, degree, locus):
    entries = {}
    for n, row in enumerate(rows or []):
        here = "%s[%d]" % (locus, n)
        if not (isinstance(row, list) and len(row) == 3):
            raise InstanceError(here, "expected [target, source, rational]")
        t, s, c = row
        for lbl in (t, s):
            _known(lbl, basis.degree, here)
        key = (t, s)
        if key in entries:
            raise InstanceError(here, "duplicate entry %r" % (key,))
        if basis.degree[t] != basis.degree[s] + degree:
            raise InstanceError(here, "degree mismatch: %r -> %r is not "
                                "a degree %d entry" % (s, t, -degree))
        entries[key] = str_to_q(c, here)
    return LinearMap(basis, basis, degree, entries)


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
    mult = {}
    for n, row in enumerate(_need(sec, "mult", "algebra", list)):
        here = "algebra.mult[%d]" % n
        if not (isinstance(row, list) and len(row) == 4):
            raise InstanceError(here, "expected [a, b, c, rational]")
        a, b, k, c = row
        for lbl in (a, b, k):
            _known(lbl, basis.degree, here)
        vec = mult.setdefault((a, b), {})
        if k in vec:
            raise InstanceError(here, "duplicate product entry")
        vec[k] = str_to_q(c, here)
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
        raise InstanceError(here, "%s of degree %d, expected -1"
                            % (what, degree - word_degree(L, w)))
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


def _parse_vec_rows(rows, keylen, L, targets, locus, word_keys=False,
                    row_key=None):
    """Rows [key..., target, rational] grouped into {key: vector}.  Keys
    are induced labels, or one word of them; targets are labels of the
    given degree table.  row_key(key, target, here), when given, checks
    a row and returns the key it is stored under, None to drop it."""
    out = {}
    for n, row in enumerate(rows or []):
        here = "%s[%d]" % (locus, n)
        if not (isinstance(row, list) and len(row) == keylen + 2):
            raise InstanceError(here, "expected %d fields" % (keylen + 2))
        if word_keys:
            key = _word(row[0], L.l_basis.degree, here)
        else:
            for lbl in row[:keylen]:
                _known(lbl, L.l_basis.degree, here)
            key = tuple(row[:keylen]) if keylen > 1 else row[0]
        tgt, c = row[keylen], row[keylen + 1]
        _known(tgt, targets, here)
        c = str_to_q(c, here)
        if row_key is not None:
            key = row_key(key, tgt, here)
            if key is None:
                continue
        vec = out.setdefault(key, {})
        if tgt in vec:
            raise InstanceError(here, "duplicate entry for %r" % (tgt,))
        vec[tgt] = c
    return out


def _parse_ops(rows, keylen, A, locus, keys, word_keys=False,
               row_key=None):
    """Rows [key..., target, source, rational] grouped into nonzero
    operators; every key part must be one of keys.  With word_keys the
    key is one word of keys.  row_key(key, degree of the entry, here),
    when given, checks a row and returns the key it is stored under, None
    to drop it."""
    grouped = {}
    for n, row in enumerate(rows or []):
        here = "%s[%d]" % (locus, n)
        if not (isinstance(row, list) and len(row) == keylen + 3):
            raise InstanceError(here, "expected %d fields" % (keylen + 3))
        key = tuple(row[:keylen])
        if word_keys:
            key = _word(row[0], keys, here)
        else:
            for lbl in key:
                _known(lbl, keys, here)
        t, s, c = row[keylen:]
        for lbl in (t, s):
            _known(lbl, A.basis.degree, here)
        c = str_to_q(c, here)
        if row_key is not None:
            key = row_key(key, A.basis.degree[t] - A.basis.degree[s], here)
            if key is None:
                continue
        ent = grouped.setdefault(key, {})
        if (t, s) in ent:
            raise InstanceError(here, "duplicate operator entry")
        ent[(t, s)] = c
    ops = {}
    for key, ent in grouped.items():
        degs = {A.basis.degree[t] - A.basis.degree[s] for t, s in ent}
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
        ldeg, sldeg = L.l_basis.degree, L.sl_basis.degree
        if kind == "lie_rinehart":
            def bracket_key(key, tgt, here):
                d = ldeg[tgt] - ldeg[key[0]] - ldeg[key[1]]
                if d:
                    raise InstanceError(here, "bracket of degree %d, "
                                        "expected 0" % d)
                return key

            bracket = _parse_vec_rows(sec.get("bracket", []), 2, L, ldeg,
                                      "structure.bracket", row_key=bracket_key)
            anchor = _parse_ops(
                sec.get("anchor", []), 1, A, "structure.anchor", ldeg,
                row_key=lambda key, d, here: _word_key(L, key, 1, d, here,
                                                       "anchor"))
            return LieRinehartData(L, _nonzero(bracket),
                                   {g: op for (g,), op in anchor.items()})
        if kind == "sh_lie_rinehart":
            cor = {}
            for j, locus, rows in _levels(sec, "coderivations"):
                cor[j] = _nonzero(_parse_vec_rows(
                    rows, 1, L, ldeg, locus, word_keys=True,
                    row_key=lambda w, tgt, here: _word_key(
                        L, w, j + 1, sldeg[tgt], here, "corestriction")))
            maps = {}
            for j, locus, rows in _levels(sec, "twisting"):
                maps[j] = _parse_ops(
                    rows, 1, A, locus, ldeg, word_keys=True,
                    row_key=lambda w, d, here: _word_key(L, w, j, d, here,
                                                         "anchor"))
            return ShLieRinehartData(L, Coderivation(L, cor),
                                     TwistingCochain(L, maps))
        if kind == "quasi":
            bracket = _parse_vec_rows(sec.get("bracketQ", []), 2, L, ldeg,
                                      "structure.bracketQ")
            pairing = _parse_ops(sec.get("pairing", []), 1, A,
                                 "structure.pairing", ldeg)
            triple = _parse_ops(sec.get("triple", []), 2, A,
                                "structure.triple", L.a_basis.degree)
            return QuasiLieRinehartData(
                L, bracket, {g: op for (g,), op in pairing.items()},
                triple)
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
                    vals = _parse_vec_rows(rows, 1, L, A.basis.degree, here,
                                           word_keys=True)
                    # the degree checks read every row, zero rows too
                    degs = {A.basis.degree[al] - word_degree(L, w)
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
                    # D_j has degree -1 at every level
                    if degs and degs != {base - 1}:
                        raise InstanceError(
                            here, "form of degree %d, expected %d"
                            % (degs.pop(), base - 1))
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
    sec = doc.get("policy") or {}
    if not isinstance(sec, dict):
        raise InstanceError("policy", "expected an object")
    W = sec.get("W", 4)
    if not isinstance(W, int) or W < 2:
        raise InstanceError("policy.W", "expected an integer >= 2")
    window = sec.get("degree_window")
    if window is not None:
        if not (isinstance(window, list) and len(window) == 2
                and all(isinstance(v, int) for v in window)
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
        self.L = data.L


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
        text = fh.read()
    return parse_instance_text(text, where=str(path))
