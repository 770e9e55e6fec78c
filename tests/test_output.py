"""compute's output path against the plain constructions it replaces.

The references below are the per-term formatting rule, the per-entry kappa
rows and the normalising GradedEndomorphism constructor, kept here as they
were so that every byte compute writes can be compared with them.
"""

import io
import json
import random
from enum import IntEnum

import pytest

from qsteenrod import cli, manifold_io
from qsteenrod.cli import main
from qsteenrod.endo import GradedEndomorphism, _bits, _taint_texts, format_endo, qpi
from qsteenrod.fp import balanced
from qsteenrod.manifold_io import (
    _element_result_text, _endo_result_text, _result_text, dump_result, load_manifold,
    load_result, ring_from_data,
)
from qsteenrod.oracles import builtin_ring
from qsteenrod.ring import _class_terms, element_from_terms, format_element
from qsteenrod.series import _format_terms, _label_formats, _labels
from qsteenrod.solver import qst_auto, solve_qsigma
from test_series import format_series, series

BUILTINS = ("s2", "cubic_surface", "quadric_intersection")


# -- references ----------------------------------------------------------------


def _reference_terms(terms, p, unit=""):
    """The per-term rule: balanced coefficient, then q, t, th and the unit."""
    parts = []
    for (q, t, theta), c in terms:
        c = balanced(c, p)
        factors = []
        if q == 1:
            factors.append("q")
        elif q:
            factors.append("q^%d" % q)
        if t == 1:
            factors.append("t")
        elif t:
            factors.append("t^%d" % t)
        if theta:
            factors.append("th")
        if unit:
            factors.append(unit)
        if abs(c) != 1 or not factors:
            factors.insert(0, str(abs(c)))
        text = "*".join(factors)
        if not parts:
            parts.append(text if c > 0 else "-" + text)
        else:
            parts.append(("+ " if c > 0 else "- ") + text)
    return " ".join(parts) or "0"


def _reference_series(x, unit=""):
    return _reference_terms(((m, x.terms[m]) for m in sorted(x.terms)), x.prime, unit)


def _reference_endo(s):
    """format_endo from one kappa call per entry and one formatter call per (i, j)."""
    ring = s.ring
    rows = {}
    for (i, j, d), c in s.entries.items():
        rows.setdefault((i, j), []).append(((d, s.kappa(i, j, d), 0), c))
    lines = [
        "  (%s -> %s) = %s"
        % (ring.basis[i].name, ring.basis[j].name, _reference_terms(sorted(row), ring.prime))
        for (i, j), row in sorted(rows.items())
    ]
    if s.taint:
        lines.append("taint:")
        lines += ["  " + s.slot_text(i, j, d) for (i, j, d) in sorted(s.taint)]
    return "\n".join(lines)


def _reference_element(v):
    if v.is_zero():
        return "0"
    parts = []
    for k in sorted(v.components):
        text = _reference_series(v.components[k], unit=v.ring.basis[k].name)
        if not parts:
            parts.append(text)
        else:
            parts.append("- " + text[1:] if text.startswith("-") else "+ " + text)
    return " ".join(parts)


def _reference_rows(s):
    names = [b.name for b in s.ring.basis]
    return [
        {"from": names[i], "to": names[j], "q": d, "t": s.kappa(i, j, d), "theta": 0,
         "coeff": s.entries[(i, j, d)]}
        for (i, j, d) in sorted(s.entries)
    ]


# -- the renderers as they were before rows were rendered one at a time -----------
# One batch term formatter with a label memo and a coefficient dict per prime,
# format_endo over (i, j) term lists, format_element class by class, and the
# result writers with one % layout per term, all names substituted per term.

_OLD_COEFFICIENT_TEXTS = {}


def _old_format_terms(rows, p, unit=""):
    table, labels, texts = _OLD_COEFFICIENT_TEXTS.setdefault(p, {}), {}, []
    for terms in rows:
        parts = []
        for mono, c in terms:
            coeff = table.get(c % p)
            if coeff is None:
                b = balanced(c, p)
                sign = ("", "+ ") if b > 0 else ("-", "- ")
                coeff = table[c % p] = sign + ("" if abs(b) == 1 else "%d*" % abs(b), str(abs(b)))
            label = labels.get(mono)
            if label is None:
                q, t, theta = mono
                label = labels[mono] = "*".join(filter(None, (
                    "q" if q == 1 else "q^%d" % q if q else "",
                    "t" if t == 1 else "t^%d" % t if t else "",
                    "th" if theta else "",
                    unit,
                )))
            first, after, scale, alone = coeff
            parts.append((after if parts else first) + (scale + label if label else alone))
        texts.append(" ".join(parts) or "0")
    return texts


def _old_series_rows(s):
    degrees, half = s.ring._degrees, s.ring.q_degree // 2
    out = {}
    for (i, j), row in s.rows.items():
        top = (s.degree + degrees[i] - degrees[j]) // 2
        out[i, j] = [((d, top - half * d, 0), c) for d, c in enumerate(row) if c]
    return out


def _old_format_endo(s):
    names = [b.name for b in s.ring.basis]
    rows = _old_series_rows(s)
    lines = [
        "  (%s -> %s) = %s" % (names[i], names[j], text)
        for (i, j), text in zip(rows, _old_format_terms(rows.values(), s.ring.prime))
    ]
    if s.taint_rows:
        lines.append("taint:")
        lines += ["  " + text for text in _taint_texts(s)]
    return "\n".join(lines)


def _old_format_element(v):
    texts = [_old_format_terms([terms], v.ring.prime, v.ring.basis[k].name)[0]
             for k, terms in _class_terms(v).items()]
    tail = ["- " + text[1:] if text[0] == "-" else "+ " + text for text in texts[1:]]
    return " ".join(texts[:1] + tail) or "0"


_OLD_ROW_LAYOUTS = {
    kind: "{" + ",".join('\n      "%s": %%%s' % (k, "s" if k in ("from", "to") else "d")
                         for k in keys) + "\n    }"
    for kind, keys in (("term", ("coeff", "from", "q", "t", "theta", "to")),
                       ("slot", ("from", "q", "to")))
}


def _old_endo_result_text(endo, meta, report):
    names = [json.dumps(b.name) for b in endo.ring.basis]
    term, slot = _OLD_ROW_LAYOUTS["term"], _OLD_ROW_LAYOUTS["slot"]
    terms = [term % (c, names[i], d, t, 0, names[j])
             for (i, j), row in _old_series_rows(endo).items() for (d, t, _), c in row]
    slots = [slot % (names[i], d, names[j]) for (i, j), m in endo.taint_rows.items()
             for d in _bits(m)]
    return _result_text(meta, endo.trunc, endo.degree, report, terms, slots)


def _old_element_result_text(elem, taint, meta, degree, trunc):
    names = [json.dumps(b.name) for b in elem.ring.basis]
    term, slot = _OLD_ROW_LAYOUTS["term"], _OLD_ROW_LAYOUTS["slot"]
    terms = [term % (c, '"1"', q, t, theta, names[k]) for k, ts in _class_terms(elem).items()
             for (q, t, theta), c in ts]
    slots = [slot % ('"1"', d, names[j]) for j, d in sorted(taint)]
    return _result_text(meta, trunc, degree, None, terms, slots)


def _stdlib_dump(data):
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def _payload(result, taint=()):
    return {
        "manifold": "s2", "prime": 3, "class": "h", "op": "qsigma", "truncation": 2,
        "degree": 6, "result": result, "taint": list(taint), "report": {},
    }


# -- result rows -----------------------------------------------------------------


class _Int(IntEnum):
    TWO = 2


class _Name(str):
    pass


def _row(**changes):
    row = {"coeff": 2, "from": "1", "q": 1, "t": 0, "theta": 0, "to": "h"}
    row.update(changes)
    return row


_TAINT_ROW = {"from": "h", "q": 3, "to": "1"}

# name -> row list
_ROW_LISTS = {
    "plain": [_row(), _row(q=2, coeff=1)],
    "taint_rows": [_TAINT_ROW, dict(_TAINT_ROW, q=4)],
    "bool": [_row(), _row(coeff=True)],
    "float": [_row(q=1.5)],
    "int_subclass": [_row(), _row(coeff=_Int.TWO)],
    "str_subclass": [_row(to=_Name("h"))],
    "int_name": [_row(to=3)],
    "str_value": [_row(q="3")],
    "nested_value": [_row(t=[1, {"t": 2}])],
    "nested_name": [_row(**{"from": ["1"]})],
    "none": [_row(theta=None)],
    "missing_key": [_row(), {k: v for k, v in _row().items() if k != "theta"}],
    "extra_key": [_row(), _row(extra=1)],
    "extra_key_first": [_row(extra=1), _row()],
    "renamed_key": [_row(), {k.replace("theta", "thata"): v for k, v in _row().items()}],
    "mixed_shapes": [_row(), _TAINT_ROW],
    "mixed_shapes_taint_first": [_TAINT_ROW, _row()],
    "not_a_dict": [_row(), [("q", 1)]],
    "dict_subclass": [type("Row", (dict,), {})(_row())],
    "escaped_names": [
        _row(**{"from": 'h"2', "to": "é"}),
        _row(**{"from": "a\nb", "to": "},\n      {"}),
        _row(**{"from": "\\", "to": "é\t"}),
    ],
}


@pytest.mark.parametrize("name", sorted(_ROW_LISTS))
def test_rows_text_and_dump_result_equal_the_stdlib(name):
    rows = _ROW_LISTS[name]
    for data in (_payload(rows), _payload([], rows), _payload(rows, rows)):
        assert dump_result(data) == _stdlib_dump(data)


@pytest.mark.parametrize("p", [2, 3, 31])
def test_endo_result_data_rows_are_the_kappa_rows(p):
    for name in BUILTINS:
        ring = builtin_ring(name, p)
        for b in ring.basis:
            s, report = solve_qsigma(b.name, ring)
            for endo in [s] + [qpi(ring.basis[d.index].name, s) for d in ring.divisors]:
                text = _endo_result_text(endo, {"op": "qsigma"}, report)
                data = load_result(text)
                assert data["result"] == _reference_rows(endo)
                assert text == dump_result(data) == _stdlib_dump(data)


def test_compute_writes_json_without_dump_result(monkeypatch):
    def refuse(data):
        raise AssertionError("dump_result called")

    monkeypatch.setattr(manifold_io, "dump_result", refuse)
    monkeypatch.setattr(cli, "dump_result", refuse, raising=False)
    for name in BUILTINS:
        ring = builtin_ring(name, 2)
        divisors = [ring.basis[d.index].name for d in ring.divisors]
        for p in (2, 3, 31):
            for b in ring.basis:
                for op in ["qsigma", "qst"] + ["qpi:" + d for d in divisors]:
                    out = io.StringIO()
                    argv = ["compute", "--manifold", "builtin:" + name, "--prime", str(p),
                            "--class", b.name, "--op", op, "--format", "json"]
                    assert main(argv, out=out) == 0
                    assert load_result(out.getvalue())["op"] == op


# -- the term formatter ------------------------------------------------------------


def _random_terms(rng, p, count):
    """Up to count ((q, t, theta), c) pairs in monomial order, c nonzero mod p.

    About half the coefficients are +-1 mod p; the others are unreduced and of
    either sign.
    """
    monos = {(rng.randrange(4), rng.randrange(-3, 5), rng.randrange(2)) for _ in range(count)}
    terms = []
    for m in sorted(monos):
        c = rng.choice([1, -1, p - 1, p + 1, 1 - p, rng.randrange(-3 * p, 3 * p)])
        if c % p:
            terms.append((m, c))
    return terms


@pytest.mark.parametrize("p", [2, 3, 5, 211])
@pytest.mark.parametrize("unit", ["", "h_2"])
def test_format_terms_equals_the_per_term_rule(p, unit):
    rng = random.Random(p)
    rows = [_random_terms(rng, p, n) for n in (0, 1, 3, 12, 40)]
    rows.append([((0, 0, 0), 1)])
    rows.append([((0, 0, 0), -1), ((0, 0, 1), 1), ((2, -1, 1), -1)])
    want = [_reference_terms(row, p, unit) for row in rows]
    assert [_old_format_terms([row], p, unit)[0] for row in rows] == want
    formats = [_label_formats(theta, unit) for theta in (0, 1)]
    for row, text in zip(rows, want):
        labels = [_labels(formats[theta], [q], [t], [1])[0] for (q, t, theta), _ in row]
        assert _format_terms(p, [c % p for _, c in row], labels) == text
        # zero residues between the terms are skipped
        padded = [x for (_, c), label in zip(row, labels) for x in ((0, "q"), (c % p, label))]
        assert _format_terms(p, [c for c, _ in padded], [label for _, label in padded]) == text
    for row in rows:
        x = series(p, 5, [(q, t, theta, c) for (q, t, theta), c in row])
        assert format_series(x, unit) == _reference_series(x, unit)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 31, 101, 211])
def test_format_endo_and_format_element_are_unchanged_on_every_builtin(p):
    for name in BUILTINS:
        ring = builtin_ring(name, p)
        divisors = [ring.basis[d.index].name for d in ring.divisors]
        for b in ring.basis:
            s, _ = solve_qsigma(b.name, ring)
            for endo in [s] + [qpi(a, s) for a in divisors]:
                assert format_endo(endo) == _reference_endo(endo)
            elem, _, _ = qst_auto(b.name, ring)
            assert format_element(elem) == _reference_element(elem)


# a class name that JSON escapes and % formats would read: %d, a quote, a backslash,
# a newline, a tab and a non-ASCII letter
_ODD_NAME = 'h%d"\\\n\té'


def _odd_sphere(tmp_path, p):
    """The exported s2 with h renamed _ODD_NAME, at p."""
    path = tmp_path / "s2.json"
    assert main(["export", "--manifold", "builtin:s2", "--out", str(path)], out=io.StringIO()) == 0
    text = path.read_text().replace('"h"', json.dumps(_ODD_NAME))
    return ring_from_data(load_manifold(text), p)


@pytest.mark.parametrize("p", [2, 3, 5, 31, 211])
def test_renderers_match_the_old_ones_on_a_class_named_with_escapes(p, tmp_path):
    ring = _odd_sphere(tmp_path, p)
    assert [b.name for b in ring.basis] == ["1", _ODD_NAME]
    meta = {"manifold": ring.name, "prime": p, "class": _ODD_NAME, "op": "qsigma"}
    for b in ring.basis:
        s, report = solve_qsigma(b.name, ring)
        for endo in (s, qpi(_ODD_NAME, s)):
            assert format_endo(endo) == _old_format_endo(endo)
            text = _endo_result_text(endo, meta, report)
            assert text == _old_endo_result_text(endo, meta, report)
            assert {row["to"] for row in load_result(text)["result"]} <= {"1", _ODD_NAME}
        elem, taint, _ = qst_auto(b.name, ring)
        assert format_element(elem) == _old_format_element(elem)
        args = (elem, taint, meta, p * b.degree, elem.trunc or 0)
        assert _element_result_text(*args) == _old_element_result_text(*args)
    # inhomogeneous elements: a class's terms come from several pieces, theta ones too
    rng = random.Random(p)
    for _ in range(20):
        terms = {k: {(rng.randrange(5), rng.randrange(-3, 4), rng.randrange(2)): rng.randrange(p)
                     for _ in range(rng.randrange(8))} for k in (0, 1)}
        x = element_from_terms(ring, 4, terms)
        assert format_element(x) == _old_format_element(x)
        args = (x, {(1, 2), (0, 0)}, meta, 2, 4)
        assert _element_result_text(*args) == _old_element_result_text(*args)
    tainted = GradedEndomorphism(ring, 6, 2, {(0, 0, 0): 1, (0, 1, 1): 2, (1, 0, 2): p - 1},
                                 {(1, 1, 1), (0, 0, 1)})
    assert format_endo(tainted) == _old_format_endo(tainted)
    assert (_endo_result_text(tainted, meta, report)
            == _old_endo_result_text(tainted, meta, report))


# -- qpi -----------------------------------------------------------------------------


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_qpi_equals_the_normalised_construction(p):
    dropped = tainted = 0
    for name in BUILTINS:
        ring = builtin_ring(name, p)
        for b in ring.basis:
            s, _ = solve_qsigma(b.name, ring)
            for div in ring.divisors:
                a = ring.basis[div.index].name
                got = qpi(a, s)
                entries = {(i, j, d): div.pairing * d * c for (i, j, d), c in s.entries.items()}
                want = GradedEndomorphism(ring, s.degree, s.trunc, entries, s.taint)
                assert got == want and got.entries == want.entries
                assert got.taint == s.taint and type(got.taint) is frozenset
                assert (got.degree, got.trunc) == (s.degree, s.trunc)
                assert got.column("1") == want.column("1")
                dropped += sum(1 for (_, _, d) in s.entries if d % p == 0 and d)
                tainted += bool(s.taint)
    assert dropped and tainted  # entries at q^d, d = 0 mod p, vanish and taint is kept
