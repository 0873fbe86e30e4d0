"""Reading and writing diagrams as JSON, and plain-text reports.

A diagram file names its objects and morphisms explicitly:

.. code-block:: json

    {
      "field": {"kind": "GFp", "p": 7},
      "objects": {"A": 1, "B": 2},
      "morphisms": {
        "f": {"src": "A", "dst": "B", "matrix": [["1"], ["0"]]}
      },
      "diagram": {"kind": "morphism", "roles": {"f": "f"}},
      "meta": {}
    }

Matrix entries are strings so that exact rationals like ``"2/3"`` survive
the trip; a matrix has ``dim(dst)`` rows of ``dim(src)`` entries each.
Serialization is canonical (sorted keys, two-space indent, trailing
newline), so equal diagrams produce byte-equal files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field

from .category import Mor, Obj
from .errors import DiagramFormatError, ShapeError
from .fields import ScalarField, too_long
from .linalg import Matrix
from .snake import SnakeInput
from .squares import Square

# Largest object dimension a file may declare.  Small files with large
# dimensions are the costly ones (a 0 x N map has an empty matrix), so this
# bounds the cost of every small file; see the README for timings.
MAX_DIM = 150

ROLES = {
    "morphism": ("f",),
    "pair": ("f", "g"),
    "square": ("top", "left", "right", "bottom"),
    "snake": ("a", "c", "u", "v", "w", "b", "d"),
}


@dataclass
class DiagramFile:
    """A parsed diagram: named objects and morphisms plus role bindings."""

    field: ScalarField
    objects: dict[str, int]
    morphisms: dict[str, tuple[str, str, Mor]]  # name -> (src name, dst name, map)
    kind: str
    roles: dict[str, str]
    meta: dict | None = None

    def mor(self, name: str) -> Mor:
        return self.morphisms[name][2]

    def role(self, role: str) -> Mor:
        return self.mor(self.roles[role])


def _want(cond: bool, path: str, msg: str) -> None:
    if not cond:
        raise DiagramFormatError(f"{path}: {msg}")


def _named(value: object, names: dict) -> bool:
    """Whether ``value`` is one of the names; JSON lists and objects never are."""
    return isinstance(value, str) and value in names


def _parse_field(node: object) -> ScalarField:
    _want(isinstance(node, dict), "field", "must be an object")
    kind = node.get("kind")
    if kind == "Q":
        _want(set(node) == {"kind"}, "field", 'rationals take no keys besides "kind"')
        return ScalarField()
    if kind == "GFp":
        _want(set(node) == {"kind", "p"}, "field", 'prime fields take exactly "kind" and "p"')
        p = node["p"]
        _want(isinstance(p, int) and not isinstance(p, bool), "field.p", "must be an integer")
        try:
            return ScalarField(p)
        except ValueError as exc:
            raise DiagramFormatError(f"field.p: {exc}") from None
    raise DiagramFormatError('field.kind: must be "Q" or "GFp"')


class _Refused:
    """Stands in for a JSON integer that ``int`` refused: one over the
    interpreter's digit limit, as for matrix literals."""

    def __init__(self, digits: str) -> None:
        self.digits = digits


def _refuse(digits: str) -> object:
    try:
        return int(digits)
    except ValueError:
        return _Refused(digits)


def _parse_json(text: str, parse_int=None) -> object:
    """``json.loads``; malformed or too deeply nested JSON is a format error."""
    try:
        return json.loads(text, parse_int=parse_int)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise DiagramFormatError(f"invalid JSON: {exc}") from None


def _load_json(text: str) -> object:
    """``json.loads``, but an over-long integer is refused by its path."""
    try:
        return _parse_json(text)
    except ValueError:
        pass  # an integer over the digit limit: parse again to find its path
    root = _parse_json(text, parse_int=_refuse)
    stack = [("$", root)]
    while stack:
        path, node = stack.pop()
        if isinstance(node, _Refused):
            raise DiagramFormatError(f"{path}: {too_long(node.digits)}")
        prefix = "" if path == "$" else f"{path}."
        if isinstance(node, dict):
            stack.extend((f"{prefix}{key}", child)
                         for key, child in reversed(node.items()))
        elif isinstance(node, list):
            stack.extend((f"{path}[{i}]", node[i]) for i in reversed(range(len(node))))
    return root  # a repeated key dropped every refused integer


def parse_text(text: str) -> DiagramFile:
    """Parse and validate one diagram document."""
    root = _load_json(text)
    _want(isinstance(root, dict), "$", "top level must be an object")
    required = {"field", "objects", "morphisms", "diagram"}
    missing = required - set(root)
    _want(not missing, "$", f"missing keys: {sorted(missing)}")
    extra = set(root) - required - {"meta"}
    _want(not extra, "$", f"unknown keys: {sorted(extra)}")

    fld = _parse_field(root["field"])

    objects_node = root["objects"]
    _want(isinstance(objects_node, dict), "objects", "must be an object")
    objects: dict[str, int] = {}
    for name, dim in objects_node.items():
        path = f"objects.{name}"
        _want(bool(name), "objects", "object names must be nonempty")
        _want(isinstance(dim, int) and not isinstance(dim, bool) and dim >= 0,
              path, "dimension must be an integer >= 0")
        _want(dim <= MAX_DIM, path, f"dimension {dim} exceeds the limit {MAX_DIM}")
        objects[name] = dim

    mors_node = root["morphisms"]
    _want(isinstance(mors_node, dict), "morphisms", "must be an object")
    parse = fld.parse
    morphisms: dict[str, tuple[str, str, Mor]] = {}
    for name, payload in mors_node.items():
        path = f"morphisms.{name}"
        _want(bool(name), "morphisms", "morphism names must be nonempty")
        _want(isinstance(payload, dict), path, "must be an object")
        _want(set(payload) == {"src", "dst", "matrix"},
              path, 'must have exactly "src", "dst", "matrix"')
        src, dst = payload["src"], payload["dst"]
        _want(_named(src, objects), f"{path}.src", f"unknown object {src!r}")
        _want(_named(dst, objects), f"{path}.dst", f"unknown object {dst!r}")
        rows_node = payload["matrix"]
        nrows, ncols = objects[dst], objects[src]
        _want(isinstance(rows_node, list) and len(rows_node) == nrows,
              f"{path}.matrix", f"must be a list of {nrows} rows")
        flat = []
        for i, row in enumerate(rows_node):
            _want(isinstance(row, list) and len(row) == ncols,
                  f"{path}.matrix[{i}]", f"must be a list of {ncols} entries")
            for j, cell in enumerate(row):
                if not isinstance(cell, str):
                    raise DiagramFormatError(f"{path}.matrix[{i}][{j}]: entries are strings")
                try:
                    flat.append(parse(cell))
                except ValueError as exc:
                    raise DiagramFormatError(f"{path}.matrix[{i}][{j}]: {exc}") from None
        mat = Matrix(nrows, ncols, tuple(flat), fld)
        morphisms[name] = (src, dst, Mor(mat))

    diagram_node = root["diagram"]
    _want(isinstance(diagram_node, dict), "diagram", "must be an object")
    _want(set(diagram_node) == {"kind", "roles"},
          "diagram", 'must have exactly "kind" and "roles"')
    kind = diagram_node["kind"]
    _want(_named(kind, ROLES), "diagram.kind", f"must be one of {sorted(ROLES)}")
    roles_node = diagram_node["roles"]
    _want(isinstance(roles_node, dict), "diagram.roles", "must be an object")
    expected = set(ROLES[kind])
    _want(set(roles_node) == expected,
          "diagram.roles", f"kind {kind!r} needs exactly roles {sorted(expected)}")
    roles: dict[str, str] = {}
    for role, mor_name in roles_node.items():
        _want(_named(mor_name, morphisms), f"diagram.roles.{role}",
              f"unknown morphism {mor_name!r}")
        roles[role] = mor_name

    meta = root.get("meta")
    if meta is not None:
        _want(isinstance(meta, dict), "meta", "must be an object when present")

    return DiagramFile(field=fld, objects=objects, morphisms=morphisms,
                       kind=kind, roles=roles, meta=meta)


def parse_path(path: str) -> DiagramFile:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise DiagramFormatError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise DiagramFormatError(f"cannot read {path}: not UTF-8: byte "
                                 f"0x{exc.object[exc.start]:02x} at offset {exc.start}") from None
    return parse_text(text)


def _field_json(fld: ScalarField) -> dict:
    return {"kind": "Q"} if fld.is_rationals else {"kind": "GFp", "p": fld.p}


def _matrix_json(mat: Matrix) -> list[list[str]]:
    fmt = mat.field.format
    return [list(map(fmt, row)) for row in mat.row_list()]


def serialize(df: DiagramFile) -> str:
    """Canonical JSON text: sorted keys, two-space indent, one trailing
    newline.  Parsing then serializing an already canonical file is the
    identity on bytes."""
    doc = {
        "field": _field_json(df.field),
        "objects": dict(df.objects),
        "morphisms": {
            name: {"src": src, "dst": dst, "matrix": _matrix_json(m.mat)}
            for name, (src, dst, m) in df.morphisms.items()
        },
        "diagram": {"kind": df.kind, "roles": dict(df.roles)},
    }
    if df.meta is not None:
        doc["meta"] = df.meta
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _build(fld: ScalarField, kind: str,
           named_objs: list[tuple[str, Obj]],
           named_mors: list[tuple[str, str, str, Mor]],
           meta: dict | None) -> DiagramFile:
    objects: dict[str, int] = {}
    for name, obj in named_objs:
        if obj.field != fld:
            raise ShapeError(f"object {name} lives over {obj.field}, not {fld}")
        objects[name] = obj.dim
    morphisms = {name: (src, dst, m) for name, src, dst, m in named_mors}
    roles = {name: name for name, _, _, _ in named_mors}
    expected = set(ROLES[kind])
    if set(roles) != expected:
        raise ShapeError(f"kind {kind!r} needs roles {sorted(expected)}")
    return DiagramFile(field=fld, objects=objects, morphisms=morphisms,
                       kind=kind, roles=roles, meta=meta)


def diagram_for_morphism(f: Mor, meta: dict | None = None) -> DiagramFile:
    return _build(f.field, "morphism",
                  [("A", f.src), ("B", f.dst)],
                  [("f", "A", "B", f)], meta)


def diagram_for_pair(f: Mor, g: Mor, meta: dict | None = None) -> DiagramFile:
    if f.dst != g.src:
        raise ShapeError("pair must be composable")
    return _build(f.field, "pair",
                  [("A", f.src), ("B", f.dst), ("C", g.dst)],
                  [("f", "A", "B", f), ("g", "B", "C", g)], meta)


def diagram_for_square(sq: Square, meta: dict | None = None) -> DiagramFile:
    return _build(sq.top.field, "square",
                  [("A", sq.top.src), ("B", sq.top.dst),
                   ("C", sq.left.dst), ("D", sq.bottom.dst)],
                  [("top", "A", "B", sq.top), ("left", "A", "C", sq.left),
                   ("right", "B", "D", sq.right), ("bottom", "C", "D", sq.bottom)],
                  meta)


def diagram_for_snake(inp: SnakeInput, meta: dict | None = None) -> DiagramFile:
    return _build(inp.a.field, "snake",
                  [("A", inp.a.src), ("B", inp.a.dst), ("C", inp.c.dst),
                   ("Ap", inp.b.src), ("Bp", inp.b.dst), ("Cp", inp.d.dst)],
                  [("a", "A", "B", inp.a), ("c", "B", "C", inp.c),
                   ("u", "A", "Ap", inp.u), ("v", "B", "Bp", inp.v),
                   ("w", "C", "Cp", inp.w),
                   ("b", "Ap", "Bp", inp.b), ("d", "Bp", "Cp", inp.d)],
                  meta)


def square_from(df: DiagramFile) -> Square:
    if df.kind != "square":
        raise DiagramFormatError(f"expected a square diagram, got {df.kind!r}")
    return Square(top=df.role("top"), left=df.role("left"),
                  right=df.role("right"), bottom=df.role("bottom"))


def snake_from(df: DiagramFile) -> SnakeInput:
    if df.kind != "snake":
        raise DiagramFormatError(f"expected a snake diagram, got {df.kind!r}")
    return SnakeInput(a=df.role("a"), c=df.role("c"), u=df.role("u"),
                      v=df.role("v"), w=df.role("w"),
                      b=df.role("b"), d=df.role("d"))


@dataclass
class Report:
    """A flat, deterministic text report: verdicts, numbers, derived values,
    violations, and one overall result line."""

    title: str
    verdicts: dict[str, bool] = dc_field(default_factory=dict)
    ranks: dict[str, int] = dc_field(default_factory=dict)
    derived: dict[str, str] = dc_field(default_factory=dict)
    violations: list[str] = dc_field(default_factory=list)

    @property
    def all_true(self) -> bool:
        return all(self.verdicts.values()) and not self.violations

    def to_text(self) -> str:
        lines = [self.title]
        for name, value in self.verdicts.items():
            lines.append(f"{name}: {'yes' if value else 'no'}")
        for name, value in self.ranks.items():
            lines.append(f"{name}: {value}")
        for name, value in self.derived.items():
            lines.append(f"{name}: {value}")
        for message in self.violations:
            lines.append(f"violation: {message}")
        lines.append(f"result: {'ok' if self.all_true else 'FAIL'}")
        return "\n".join(lines) + "\n"
