"""JSON diagram round-trips, format validation with precise paths, reports."""

import json
import pathlib
import re
import sys

import pytest

from abcat.category import Mor, identity, Obj
from abcat.diagram_io import (
    DiagramFile,
    Report,
    diagram_for_morphism,
    diagram_for_pair,
    diagram_for_snake,
    diagram_for_square,
    parse_path,
    parse_text,
    serialize,
    snake_from,
    square_from,
)
from abcat.diagrams import GenConfig, gen_snake_input, gen_semicartesian
from abcat.errors import DiagramFormatError, ShapeError
from abcat.fields import RATIONALS, prime_field
from abcat.linalg import Matrix
from abcat.properties import worked_example_input

Q = RATIONALS
GF7 = prime_field(7)

DOC = """
{
  "field": {"kind": "Q"},
  "objects": {"A": 1, "B": 2},
  "morphisms": {
    "f": {"src": "A", "dst": "B", "matrix": [["1"], ["2/3"]]}
  },
  "diagram": {"kind": "morphism", "roles": {"f": "f"}}
}
"""


def test_parse_basic_morphism_document():
    df = parse_text(DOC)
    assert df.kind == "morphism"
    assert df.objects == {"A": 1, "B": 2}
    f = df.role("f")
    assert f.src.dim == 1 and f.dst.dim == 2
    assert f.mat.entry(1, 0) == Q.parse("2/3")
    assert df.meta is None


def test_serialize_then_parse_is_identity():
    df = parse_text(DOC)
    text = serialize(df)
    df2 = parse_text(text)
    assert serialize(df2) == text  # canonical form is a fixed point
    assert df2.objects == df.objects and df2.roles == df.roles


def test_serialize_is_canonical_bytes():
    inp = gen_snake_input(GenConfig(seed=9, field=GF7))
    a = serialize(diagram_for_snake(inp))
    b = serialize(diagram_for_snake(inp))
    assert a == b
    assert a.endswith("\n") and not a.endswith("\n\n")
    # keys come out sorted regardless of insertion order
    doc = json.loads(a)
    assert list(doc) == sorted(doc)


def _broken(mutate):
    doc = json.loads(DOC)
    mutate(doc)
    return json.dumps(doc)


@pytest.mark.parametrize("mutate, fragment", [
    (lambda d: d.pop("objects"), "missing keys"),
    (lambda d: d.update(extra=1), "unknown keys"),
    (lambda d: d["field"].update(kind="R"), "field.kind"),
    (lambda d: d["field"].update(p=7), "field"),
    (lambda d: d.update(field={"kind": "GFp", "p": 6}), "field.p"),
    (lambda d: d["objects"].update(A=-1), "objects.A"),
    (lambda d: d["morphisms"]["f"].update(src="Z"), "morphisms.f.src"),
    (lambda d: d["morphisms"]["f"].update(matrix=[["1"]]), "morphisms.f.matrix"),
    (lambda d: d["morphisms"]["f"].update(matrix=[["1"], ["2/3", "4"]]),
     "morphisms.f.matrix[1]"),
    (lambda d: d["morphisms"]["f"].update(matrix=[["1"], [0.5]]),
     "morphisms.f.matrix[1][0]"),
    (lambda d: d["morphisms"]["f"].update(matrix=[["1"], ["1/0"]]),
     "morphisms.f.matrix[1][0]"),
    (lambda d: d["diagram"].update(kind="triangle"), "diagram.kind"),
    (lambda d: d["diagram"].update(roles={"g": "f"}), "diagram.roles"),
    (lambda d: d["diagram"].update(roles={"f": "nope"}), "diagram.roles.f"),
    (lambda d: d.update(meta=3), "meta"),
])
def test_format_errors_carry_precise_paths(mutate, fragment):
    with pytest.raises(DiagramFormatError) as exc:
        parse_text(_broken(mutate))
    assert fragment in str(exc.value)


def test_invalid_json_and_non_object_top_level():
    with pytest.raises(DiagramFormatError):
        parse_text("{oops")
    with pytest.raises(DiagramFormatError):
        parse_text("[1, 2]")


def test_gfp_entries_must_be_reduced_residues():
    text = _broken(lambda d: d.update(
        field={"kind": "GFp", "p": 7},
        morphisms={"f": {"src": "A", "dst": "B", "matrix": [["3"], ["9"]]}},
    ))
    with pytest.raises(DiagramFormatError) as exc:
        parse_text(text)
    assert "matrix[1][0]" in str(exc.value)


def _readme_field_spellings():
    readme = pathlib.Path(__file__).parent.parent / "README.md"
    block = readme.read_text(encoding="utf-8").split("## JSON diagram format")[1]
    line = next(ln for ln in block.splitlines() if ln.strip().startswith('"field":'))
    return [json.loads(obj) for obj in re.findall(r"\{[^{}]*\}", line)]


def test_readme_field_spellings_parse():
    spellings = _readme_field_spellings()
    assert len(spellings) == 2
    residues = {"f": {"src": "A", "dst": "B", "matrix": [["1"], ["0"]]}}
    fields = [parse_text(_broken(lambda d: d.update(field=f, morphisms=residues))).field
              for f in spellings]
    assert fields == [RATIONALS, GF7]


def test_parse_path_missing_file(tmp_path):
    with pytest.raises(DiagramFormatError) as exc:
        parse_path(str(tmp_path / "nope.json"))
    assert "cannot read" in str(exc.value)


def test_parse_path_refuses_a_file_that_is_not_utf8(tmp_path):
    p = tmp_path / "d.json"
    data = DOC.encode("utf-8")
    p.write_bytes(data[:39] + b"\xff" + data[40:])
    with pytest.raises(DiagramFormatError) as exc:
        parse_path(str(p))
    assert str(exc.value) == f"cannot read {p}: not UTF-8: byte 0xff at offset 39"


@pytest.mark.parametrize("mutate, digits, path", [
    (lambda d: d["objects"].update(A="BIG"), 5000, "objects.A"),
    (lambda d: d.update(field={"kind": "GFp", "p": "BIG"}), 4400, "field.p"),
    (lambda d: d.update(meta={"n": [1, "-BIG"]}), 4400, "meta.n[1]"),
    (lambda d: d.update(meta="BIG"), 4400, "meta"),
])
def test_over_long_json_integer_is_refused_by_path(mutate, digits, path):
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter converts numerals of any length")
    text = _broken(mutate).replace('"BIG"', "7" * digits).replace('"-BIG"', "-" + "7" * digits)
    with pytest.raises(DiagramFormatError) as exc:
        parse_text(text)
    assert str(exc.value) == (f"{path}: literal has {digits} digits, "
                              f"more than the limit of {limit} digits")


# the second parse, which finds the over-long integer's path, meets what
# the first one stopped before: nesting too deep, or the end of the text
AFTER_A_LONG_INTEGER = {
    "too deep": '{"meta": {"n": ' + "7" * 5000 + ', "x": ' + "[" * 100_000 + "]" * 100_000 + "}}",
    "truncated": '{"objects": {"A": ' + "7" * 5000 + '}, "field": ',
}


@pytest.mark.parametrize("text", AFTER_A_LONG_INTEGER.values(), ids=AFTER_A_LONG_INTEGER)
def test_invalid_json_after_an_over_long_integer_is_invalid_json(text):
    with pytest.raises(DiagramFormatError) as exc:
        parse_text(text)
    assert str(exc.value).startswith("invalid JSON: ")


def test_over_long_json_integer_overwritten_by_a_repeated_key_is_ignored():
    if not getattr(sys, "get_int_max_str_digits", lambda: 0)():
        pytest.skip("this interpreter converts numerals of any length")
    text = DOC.replace('"A": 1,', '"A": ' + "7" * 5000 + ', "A": 1,')
    assert parse_text(text).objects == {"A": 1, "B": 2}


def test_parse_path_roundtrip(tmp_path):
    p = tmp_path / "d.json"
    p.write_text(serialize(parse_text(DOC)), encoding="utf-8")
    df = parse_path(str(p))
    assert df.objects == {"A": 1, "B": 2}


# -- builders and extractors ----------------------------------------------------


def test_pair_builder_requires_composability():
    f = Mor.from_matrix(Matrix.from_int_rows(Q, [[1], [0]]))
    with pytest.raises(ShapeError):
        diagram_for_pair(f, f)


def test_square_roundtrip_through_json():
    sq = gen_semicartesian(GenConfig(seed=4), "epi")
    df = parse_text(serialize(diagram_for_square(sq)))
    assert square_from(df) == sq


def test_snake_roundtrip_through_json():
    inp = worked_example_input()
    df = parse_text(serialize(diagram_for_snake(inp)))
    assert snake_from(df) == inp


def test_extractors_reject_wrong_kind():
    df = parse_text(DOC)
    with pytest.raises(DiagramFormatError):
        square_from(df)
    with pytest.raises(DiagramFormatError):
        snake_from(df)


def test_meta_survives_roundtrip():
    df = diagram_for_morphism(identity(Obj(2, Q)), meta={"seed": 5, "note": "x"})
    df2 = parse_text(serialize(df))
    assert df2.meta == {"seed": 5, "note": "x"}


# -- reports ---------------------------------------------------------------------


def test_report_text_layout_and_verdict():
    rep = Report(title="check")
    rep.verdicts["commutes"] = True
    rep.ranks["rank_f"] = 3
    rep.derived["delta"] = "[[1]]"
    assert rep.all_true
    assert rep.to_text() == (
        "check\ncommutes: yes\nrank_f: 3\ndelta: [[1]]\nresult: ok\n"
    )


def test_report_fails_on_false_verdict_or_violation():
    rep = Report(title="t", verdicts={"a": False})
    assert not rep.all_true
    assert "a: no" in rep.to_text() and rep.to_text().endswith("result: FAIL\n")
    rep2 = Report(title="t", verdicts={"a": True}, violations=["b missing"])
    assert not rep2.all_true
    assert "violation: b missing" in rep2.to_text()
