"""Mutated golden files through the command line: every run ends in a
verdict (exit 0 or 1) or a clean input error (exit 2), never a traceback.

A mutation replaces one string with arbitrary text, drops one key, swaps
one value for a value of another JSON type, replaces one byte of the file
with a byte that never occurs in UTF-8, or replaces one integer with a
4,400-digit one.  None of them can grow a dimension (swapped-in integers
are 0 or 1, and a 4,400-digit one is refused while parsing), so every case
stays cheap.  The last two must end in exit 2, and no message may carry
Python's own codec or integer-limit wording.
"""

import contextlib
import io
import json
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abcat.cli import main
from abcat.diagram_io import parse_text, serialize

GOLDEN = pathlib.Path(__file__).parent / "golden"
GOLDENS = sorted(GOLDEN.glob("*.json"))
DOCS = [json.loads(p.read_text(encoding="utf-8")) for p in GOLDENS]

COMMANDS = (
    ("snake", "--trace", "--oracle"),
    ("square", "--decompose"),
    ("check-exact",),
    ("factor", "--morphism", "f"),
    ("pullback", "--of", "right,bottom"),
    ("pushout", "--of", "top,left"),
)

# one value of each JSON type; a swap picks one whose type differs
SWAPS = (None, True, 0, 1, "", "1", [], ["1"], {}, {"kind": "Q"})

NOT_UTF8 = (0xC0, 0xC1, *range(0xF5, 0x100))
BIG = "__BIG__"  # stands in for the long integer, which json.dumps refuses to write
INPUT_ERRORS = ("byte", "integer")
PYTHON_WORDING = ("codec", "set_int_max_str_digits", "integer string conversion")


def _paths(node, prefix=()):
    """Every position in a JSON document, as a tuple of keys and indices."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _parent(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc


@st.composite
def mutated(draw):
    doc = json.loads(json.dumps(draw(st.sampled_from(DOCS))))
    kind = draw(st.sampled_from(("text", "drop", "swap", *INPUT_ERRORS)))
    if kind == "byte":
        data = bytearray(json.dumps(doc).encode("utf-8"))
        data[draw(st.integers(0, len(data) - 1))] = draw(st.sampled_from(NOT_UTF8))
        return kind, bytes(data)
    if kind == "integer":
        ints = [p for p in _paths(doc) if type(_parent(doc, p)[p[-1]]) is int]
        path = draw(st.sampled_from(ints))
        _parent(doc, path)[path[-1]] = BIG
        digits = draw(st.sampled_from("123456789")) + "0" * 4399
        return kind, json.dumps(doc).replace(f'"{BIG}"', digits).encode("utf-8")
    if kind == "text":
        strings = [p for p in _paths(doc) if isinstance(_parent(doc, p)[p[-1]], str)]
        path = draw(st.sampled_from(strings))
        _parent(doc, path)[path[-1]] = draw(st.text(max_size=8))
    elif kind == "drop":
        keyed = [p for p in _paths(doc) if isinstance(_parent(doc, p), dict)]
        path = draw(st.sampled_from(keyed))
        del _parent(doc, path)[path[-1]]
    else:
        path = draw(st.sampled_from(list(_paths(doc))))
        old = _parent(doc, path)[path[-1]]
        _parent(doc, path)[path[-1]] = draw(st.sampled_from(
            [v for v in SWAPS if type(v) is not type(old)]))
    return kind, json.dumps(doc, ensure_ascii=False).encode("utf-8")


@pytest.mark.parametrize("path", GOLDENS, ids=lambda p: p.name)
def test_goldens_are_canonical(path):
    text = path.read_text(encoding="utf-8")
    assert serialize(parse_text(text)) == text


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(mutation=mutated(), command=st.sampled_from(COMMANDS))
def test_mutated_goldens_end_in_a_verdict_or_an_input_error(tmp_path_factory, mutation, command):
    kind, data = mutation
    path = tmp_path_factory.getbasetemp() / "fuzz_diagram.json"
    path.write_bytes(data)
    argv = [command[0], str(path), *command[1:]]
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    message = err.getvalue()
    assert code in ((2,) if kind in INPUT_ERRORS else (0, 1, 2)), message
    assert not any(words in message for words in PYTHON_WORDING), message
