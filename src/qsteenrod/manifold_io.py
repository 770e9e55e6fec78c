"""Manifold and result files.

A manifold file is a single JSON document with integral structure constants;
the prime is applied at load time, so one file serves every prime.  Unknown
fields are rejected.  Result files echo their inputs and list matrix/vector
entries and taint slots.  Dumping is byte-stable: the layout is the stdlib
json.dumps(data, sort_keys=True, indent=2) one, the bulky row lists laid out
with one fixed % layout per row shape and each class name JSON-encoded once.
"""

import json
from operator import itemgetter

from .endo import _series_rows, _taint_slots
from .errors import ManifoldFormatError
from .ring import QuantumRing


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
    for i, pr in enumerate(data["products"]):
        _check_fields(pr, "products", "products[%d]" % i, names)
        for j, term in enumerate(pr["terms"]):
            _check_fields(term, "terms", "products[%d].terms[%d]" % (i, j), names)
    for pstr, table in data.get("steenrod", {}).items():
        if not pstr.isdecimal():
            raise ManifoldFormatError(
                "steenrod: prime keys must be digit strings", field="steenrod.%s" % pstr
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
    """Bind a validated manifold description to a prime."""
    validate_manifold_data(data)
    names = [b["name"] for b in data["basis"]]
    index = {n: i for i, n in enumerate(names)}
    basis = [(b["name"], b["degree"]) for b in data["basis"]]
    divisors = [
        (index[d["name"]], d["pairing"], d.get("primary", False))
        for d in data["divisors"]
    ]
    products = {}
    seen_pairs = set()
    for pr in data["products"]:
        i, j, d = index[pr["left"]], index[pr["right"]], pr["q"]
        seen_pairs.add((min(i, j), max(i, j)))
        terms = {}
        for term in pr["terms"]:
            k = index[term["basis"]]
            terms[k] = terms.get(k, 0) + term["coeff"]
        key = (i, j, d)
        if key in products:
            raise ManifoldFormatError(
                "duplicate product entry (%s, %s, q^%d)" % (pr["left"], pr["right"], d),
                field="products",
            )
        products[key] = terms
    steenrod = {}
    for pstr, table in data.get("steenrod", {}).items():
        entry = {}
        for gen, terms in table.items():
            entry[index[gen]] = [
                (index[t["basis"]], t["t"], t["theta"], t["coeff"]) for t in terms
            ]
        steenrod[int(pstr)] = entry
    try:
        ring = QuantumRing(
            name=data["name"],
            prime=prime,
            basis=basis,
            q_degree=data["q_degree"],
            dimension_top=data["dimension_top"],
            divisors=divisors,
            products=products,
            steenrod=steenrod,
            default_leading_steenrod=data.get("default_leading_steenrod", True),
        )
    except ValueError as exc:
        raise ManifoldFormatError(str(exc)) from exc
    # checked once the ring has checked the basis, so a bad class is named as such
    nonunit = [i for i, b in enumerate(data["basis"]) if b["degree"] > 0]
    for a in nonunit:
        for b in nonunit:
            if a <= b and (a, b) not in seen_pairs:
                raise ManifoldFormatError(
                    "missing product entry for (%s, %s)" % (names[a], names[b]),
                    field="products",
                )
    return ring


def dump_manifold(data):
    validate_manifold_data(data)
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def load_manifold(text):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ManifoldFormatError("line %d: %s" % (exc.lineno, exc.msg)) from exc
    return validate_manifold_data(data)


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


def endo_result_data(endo, meta, report=None):
    """endo's rows in slot order, each t-exponent the one the degrees force (_series_rows)."""
    names = [b.name for b in endo.ring.basis]
    rows = [
        {"from": names[i], "to": names[j], "q": d, "t": t, "theta": 0, "coeff": c}
        for (i, j), terms in _series_rows(endo).items()
        for (d, t, _), c in terms
    ]
    slots = _taint_slots(endo.taint_rows)  # in (i, j, d) order
    taint = [{"from": names[i], "to": names[j], "q": d} for i, j, d in slots]
    return _result_data(meta, endo.trunc, endo.degree, rows, taint, report)


def element_result_data(elem, taint, meta, degree, trunc, report=None):
    ring = elem.ring
    rows = []
    for k in sorted(elem.components):
        f = elem.components[k]
        for mono in sorted(f.terms):
            rows.append(
                {
                    "from": "1",
                    "to": ring.basis[k].name,
                    "q": mono.q,
                    "t": mono.t,
                    "theta": mono.theta,
                    "coeff": f.terms[mono],
                }
            )
    taint_rows = [
        {"from": "1", "to": ring.basis[j].name, "q": d} for (j, d) in sorted(taint)
    ]
    return _result_data(meta, trunc, degree, rows, taint_rows, report)


def _result_data(meta, trunc, degree, rows, taint, report):
    """A result file's data: meta, then truncation, degree, result and taint rows, report."""
    report = _report_data(report)
    return dict(meta, truncation=trunc, degree=degree, result=rows, taint=taint, report=report)


def _report_data(report):
    if report is None:
        return {}
    return {
        "seed_checks": report.seed_checks,
        "seeds_resolving_taint": report.seeds_resolving_taint,
        "residual_checked": report.residual_checked,
        "residual_failures": {k: list(v) for k, v in report.residual_failures.items()},
    }


# Result and taint rows by sorted keys, laid out as json.dumps(data,
# sort_keys=True, indent=2) does: a class name as %s (JSON-encoded), the rest %d
_NAMES = ("from", "to")
_ROW_LAYOUTS = {
    keys: "{" + ",".join('\n      "%s": %%%s' % (k, "s" if k in _NAMES else "d") for k in keys)
    + "\n    }"
    for keys in (("coeff", "from", "q", "t", "theta", "to"), ("from", "q", "to"))
}


def _rows_text(rows):
    """A top-level non-empty list of rows of one _ROW_LAYOUTS shape, str names
    and int values, laid out as json.dumps(data, sort_keys=True, indent=2) does; else None."""
    if type(rows) is not list or not rows or set(map(type, rows)) != {dict}:
        return None
    keys = tuple(sorted(rows[0]))
    layout = _ROW_LAYOUTS.get(keys)
    if layout is None or set(map(len, rows)) != {len(keys)}:
        return None
    try:
        columns = list(zip(*map(itemgetter(*keys), rows)))
    except KeyError:
        return None
    kinds = [str if k in _NAMES else int for k in keys]
    if any(set(map(type, col)) != {kind} for kind, col in zip(kinds, columns)):
        return None
    code = {v: json.dumps(v) for kind, col in zip(kinds, columns) if kind is str for v in set(col)}
    columns = [list(map(code.__getitem__, col)) if kind is str else col
               for kind, col in zip(kinds, columns)]
    return "[\n    " + ",\n    ".join(map(layout.__mod__, zip(*columns))) + "\n  ]"


def dump_result(data):
    for key in data:
        if key not in _RESULT_FIELDS:
            raise ManifoldFormatError("unknown result field %r" % key, field=key)
    if type(data) is not dict or not data:
        return json.dumps(data, sort_keys=True, indent=2) + "\n"
    parts = []
    for key in sorted(data):
        text = _rows_text(data[key]) if key in ("result", "taint") else None
        if text is None:
            text = json.dumps(data[key], sort_keys=True, indent=2).replace("\n", "\n  ")
        parts.append("  %s: %s" % (json.dumps(key), text))
    return "{\n" + ",\n".join(parts) + "\n}\n"


def load_result(text):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ManifoldFormatError("line %d: %s" % (exc.lineno, exc.msg)) from exc
    for key in data:
        if key not in _RESULT_FIELDS:
            raise ManifoldFormatError("unknown result field %r" % key, field=key)
    return data
