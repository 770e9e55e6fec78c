"""Manifold and result files.

A manifold file is a single JSON document with integral structure constants;
the prime is applied at load time, so one file serves every prime.  Unknown
fields are rejected.  Result files echo their inputs and list matrix/vector
entries and taint slots, in the stdlib json.dumps(data, sort_keys=True,
indent=2) layout that dump_result writes.  compute writes the same bytes
row by row from an operator's rows and taint rows or a QSt element's rows:
a row's _ROW_LAYOUTS layout takes its class names once, then one % a term.
"""

import json

from .endo import _bits
from .errors import ManifoldFormatError
from .fp import is_prime
from .ring import QuantumRing, _class_rows


# The fields of each kind of object and their types.  Types are exact: an
# integer field takes no bool, float or string.  A _CLASS field names a basis
# class.  Only the _OPTIONAL fields may be left out.
_CLASS = "a class name"
_FIELDS = {
    "manifold": {
        "name": str, "basis": list, "q_degree": int, "dimension_top": int, "divisors": list,
        "products": list, "steenrod": dict, "default_leading_steenrod": bool,
    },
    "basis": {"name": str, "degree": int},
    "divisors": {"name": _CLASS, "pairing": int, "primary": bool},
    "products": {"left": _CLASS, "right": _CLASS, "q": int, "terms": list},
    "terms": {"basis": _CLASS, "coeff": int},
    "steenrod": {"basis": _CLASS, "t": int, "theta": int, "coeff": int},
}
_OPTIONAL = {"steenrod", "default_leading_steenrod", "primary"}
_TYPE_NAMES = {
    int: "an integer", bool: "true or false", str: "a string", list: "a list", dict: "an object"
}


def _check_type(value, kind, where, names, key=None):
    """Raise unless value has the type kind, or names a basis class when kind is _CLASS."""
    if (value not in names) if kind is _CLASS else (type(value) is not kind):
        where = where if key is None else "%s.%s" % (where, key)
        problem = "unknown class" if kind is _CLASS else "expected %s, got" % _TYPE_NAMES[kind]
        raise ManifoldFormatError("%s: %s %r" % (where, problem, value), field=where)


def _check_fields(obj, kind, where, names):
    """obj as an object of that kind: no unknown field, every required one, each of its type."""
    _check_type(obj, dict, where, names)
    fields = _FIELDS[kind]
    for key, value in obj.items():
        if key not in fields:
            raise ManifoldFormatError(
                "%s: unknown field %r" % (where, key), field="%s.%s" % (where, key)
            )
        _check_type(value, fields[key], where, names, key)
    for key in fields:
        if key not in obj and key not in _OPTIONAL:
            raise ManifoldFormatError(
                "%s: missing field %r" % (where, key), field="%s.%s" % (where, key)
            )


def validate_manifold_data(data):
    """data, once every object has exactly its fields, of their types, naming known classes."""
    _check_fields(data, "manifold", "manifold", ())
    names = []
    for i, b in enumerate(data["basis"]):
        _check_fields(b, "basis", "basis[%d]" % i, ())
        if b["name"] in names:
            raise ManifoldFormatError(
                "basis[%d].name: duplicate class %r" % (i, b["name"]), field="basis[%d].name" % i
            )
        names.append(b["name"])
    for i, dv in enumerate(data["divisors"]):
        _check_fields(dv, "divisors", "divisors[%d]" % i, names)
        if dv["name"] in (d["name"] for d in data["divisors"][:i]):
            raise ManifoldFormatError(
                "divisors[%d].name: duplicate divisor %r" % (i, dv["name"]),
                field="divisors[%d].name" % i,
            )
    for i, pr in enumerate(data["products"]):
        _check_fields(pr, "products", "products[%d]" % i, names)
        for j, term in enumerate(pr["terms"]):
            _check_fields(term, "terms", "products[%d].terms[%d]" % (i, j), names)
    for pstr, table in data.get("steenrod", {}).items():
        if not pstr.isdecimal():
            raise ManifoldFormatError(
                "steenrod: prime keys must be digit strings", field="steenrod.%s" % pstr
            )
        try:
            prime = str(int(pstr)) == pstr and is_prime(int(pstr))
        except ValueError as exc:  # too long to read, or past is_prime's bound
            raise ManifoldFormatError("steenrod: prime key %r: %s" % (pstr, exc),
                                      field="steenrod.%s" % pstr) from exc
        if not prime:
            raise ManifoldFormatError(
                "steenrod: prime key %r is not a prime in plain decimal form" % pstr,
                field="steenrod.%s" % pstr,
            )
        _check_type(table, dict, "steenrod.%s" % pstr, names)
        for gen, entry in table.items():
            where = "steenrod.%s.%s" % (pstr, gen)
            _check_type(gen, _CLASS, where, names)
            _check_type(entry, list, where, names)
            for j, term in enumerate(entry):
                _check_fields(term, "steenrod", "%s[%d]" % (where, j), names)
    return data


def ring_from_data(data, prime):
    """QuantumRing(data, prime), each ValueError of a bad ring definition raised as
    ManifoldFormatError."""
    try:
        return QuantumRing(data, prime)
    except ValueError as exc:
        raise ManifoldFormatError(str(exc)) from exc


def dump_manifold(data):
    validate_manifold_data(data)
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def _parse_manifold(text):
    """The JSON document of a manifold file, not yet validated."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ManifoldFormatError("line %d: %s" % (exc.lineno, exc.msg)) from exc


def load_manifold(text):
    return validate_manifold_data(_parse_manifold(text))


# -- result files --------------------------------------------------------------

_RESULT_FIELDS = {
    "manifold",
    "prime",
    "class",
    "op",
    "truncation",
    "degree",
    "result",
    "taint",
    "report",
}


# A result row and a taint row, keys sorted, as json.dumps(data, sort_keys=True,
# indent=2) lays them out.  % fills a row's layout once with its class names (%s,
# JSON-encoded, % escaped) and a term row's theta, and that once per term or slot
_ROW_LAYOUTS = {
    kind: "{" + ",".join('\n      "%s": %s' % (k, {"from": "%s", "to": "%s", "theta": "%d"}.get(
        k, "%%d")) for k in keys) + "\n    }"
    for kind, keys in (("term", ("coeff", "from", "q", "t", "theta", "to")),
                       ("slot", ("from", "q", "to")))
}


def _endo_result_text(endo, meta, report):
    """compute's result file for an operator, written row by row from its rows and taint
    rows, each t-exponent the one the degrees force."""
    names = [json.dumps(b.name).replace("%", "%%") for b in endo.ring.basis]
    degrees, half, terms = endo.ring._degrees, endo.ring.q_degree // 2, []
    for (i, j), row in endo.rows.items():
        layout = _ROW_LAYOUTS["term"] % (names[i], 0, names[j])
        top = (endo.degree + degrees[i] - degrees[j]) // 2  # the t-exponent at q^0
        terms += [layout % (c, d, top - half * d) for d, c in enumerate(row) if c]
    slots = [layout % d for (i, j), m in endo.taint_rows.items()
             for layout in [_ROW_LAYOUTS["slot"] % (names[i], names[j])] for d in _bits(m)]
    return _result_text(meta, endo.trunc, endo.degree, report, terms, slots)


def _element_result_text(elem, taint, meta, degree, trunc):
    """compute's result file for QSt: the element's terms, row by row in _class_rows order,
    and tainted (j, d), each row from 1."""
    names = [json.dumps(b.name).replace("%", "%%") for b in elem.ring.basis]
    half, terms = elem.ring.q_degree // 2, []
    for k, rows in _class_rows(elem).items():
        layouts = [_ROW_LAYOUTS["term"] % ('"1"', h, names[k]) for _, h, _ in rows]
        texts = [[layout % (c, q, top - half * q) if c else "" for q, c in enumerate(row)]
                 for layout, (top, _, row) in zip(layouts, rows)]
        terms += [text for ts in zip(*texts) for text in ts if text]
    slots = [_ROW_LAYOUTS["slot"] % ('"1"', names[j]) % d for j, d in sorted(taint)]
    return _result_text(meta, trunc, degree, None, terms, slots)


def _result_text(meta, trunc, degree, report, terms, slots):
    """The text dump_result writes for meta, truncation, degree, report and the result and
    taint lists, whose rows are given laid out."""
    data = dict(meta, truncation=trunc, degree=degree, report=_report_data(report))
    parts = {k: json.dumps(v, sort_keys=True, indent=2).replace("\n", "\n  ")
             for k, v in data.items()}
    for key, rows in (("result", terms), ("taint", slots)):
        parts[key] = "[\n    %s\n  ]" % ",\n    ".join(rows) if rows else "[]"
    return "{\n" + ",\n".join('  "%s": %s' % (k, parts[k]) for k in sorted(parts)) + "\n}\n"


def _report_data(report):
    if report is None:
        return {}
    return {
        "seed_checks": report.seed_checks,
        "seeds_resolving_taint": report.seeds_resolving_taint,
        "residual_checked": report.residual_checked,
        "residual_failures": {k: list(v) for k, v in report.residual_failures.items()},
    }


def _checked_result(data):
    """data, once it is an object with no field but the result fields."""
    _check_type(data, dict, "result", ())
    for key in data:
        if key not in _RESULT_FIELDS:
            raise ManifoldFormatError("unknown result field %r" % key, field=key)
    return data


def dump_result(data):
    return json.dumps(_checked_result(data), sort_keys=True, indent=2) + "\n"


def load_result(text):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ManifoldFormatError("line %d: %s" % (exc.lineno, exc.msg)) from exc
    return _checked_result(data)
