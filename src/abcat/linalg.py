"""Exact dense matrices and the canonical eliminations built on them.

All algorithms are deterministic: row reduction always pivots on the first
nonzero entry scanning top to bottom, left to right, so equal inputs yield
byte-equal outputs regardless of platform.  Zero-row and zero-column matrices
are first-class citizens; they show up constantly as maps in and out of the
null object.

``_eliminate`` is the one reduction of ``rref`` and ``solve``: it holds the
rows in the field's format and runs that field's loop.  Over Q a row is its
entries, reduced by ``_rref_rows``.  Over GF(p) a row is one int with an
``s``-bit slot per column (``_pack``), and ``_eliminate_packed`` clears a
row with one multiply-add ``row += (p - f) * pivot_row``.  Slots are reduced
mod p only where they are read: the pivot row when it is chosen, so each
addition is below ``p * p``, and a row takes at most ``rows`` of them, so
``s = ((rows + 1) * p * p).bit_length()`` bits never carry into the next
slot.  A product packs each row of its right operand once; a product
row is one multiply-add per nonzero left entry, and its slots sum at most
``k`` products below ``p * p``, so ``s = (k * p * p).bit_length()`` bits
suffice for inner dimension ``k``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Callable, Iterable, Sequence

from .errors import ShapeError
from .fields import Scalar, ScalarField


class cached_property:
    """A value computed on first access and kept in the instance ``__dict__``.

    ``functools.cached_property`` takes a lock on every first access before
    Python 3.12; the values kept here are pure functions of immutable
    objects, so computing one twice in a race is harmless.
    """

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


@dataclass(frozen=True, init=False)
class Matrix:
    """An immutable ``rows x cols`` matrix with entries in one scalar field.

    Entries are stored row-major in a flat tuple: ``Fraction`` values over Q,
    plain ``int`` residues in ``[0, p)`` over GF(p).  The echelon record, the
    transpose and the kernel and cokernel bases are computed on first use
    and kept with the matrix.
    """

    rows: int
    cols: int
    entries: tuple
    field: ScalarField

    def __init__(self, rows: int, cols: int, entries: tuple, field: ScalarField) -> None:
        if rows < 0 or cols < 0:
            raise ShapeError(f"negative shape {rows}x{cols}")
        if len(entries) != rows * cols:
            raise ShapeError(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}"
            )
        p = field.p
        if p is None:
            for e in entries:
                if not isinstance(e, Fraction):
                    raise ShapeError(f"entry {e!r} does not belong to {field}")
        else:
            for e in entries:
                if type(e) is not int or not 0 <= e < p:
                    raise ShapeError(f"entry {e!r} does not belong to {field}")
        # frozen: write the fields straight into the instance dict
        d = self.__dict__
        d["rows"] = rows
        d["cols"] = cols
        d["entries"] = entries
        d["field"] = field

    # -- construction -----------------------------------------------------

    @classmethod
    def from_rows(cls, field: ScalarField, rows: Sequence[Sequence[Scalar]],
                  cols: int | None = None) -> Matrix:
        """Build from nested sequences.  ``cols`` disambiguates zero-row shapes."""
        nrows = len(rows)
        if nrows == 0:
            if cols is None:
                raise ShapeError("cols is required for a zero-row matrix")
            return cls(0, cols, (), field)
        ncols = len(rows[0])
        if cols is not None and cols != ncols:
            raise ShapeError(f"row length {ncols} does not match cols={cols}")
        flat: list[Scalar] = []
        for r in rows:
            if len(r) != ncols:
                raise ShapeError("ragged rows")
            flat.extend(r)
        return cls(nrows, ncols, tuple(flat), field)

    @classmethod
    def from_int_rows(cls, field: ScalarField, rows: Sequence[Sequence[int]],
                      cols: int | None = None) -> Matrix:
        lifted = [[field.from_int(x) for x in r] for r in rows]
        return cls.from_rows(field, lifted, cols=cols)

    @classmethod
    def zeros(cls, field: ScalarField, rows: int, cols: int) -> Matrix:
        return cls(rows, cols, (field.zero(),) * (rows * cols), field)

    @classmethod
    def identity(cls, field: ScalarField, n: int) -> Matrix:
        zero, one = field.zero(), field.one()
        ents = tuple(one if i == j else zero for i in range(n) for j in range(n))
        return cls(n, n, ents, field)

    @classmethod
    def column(cls, field: ScalarField, values: Sequence[Scalar]) -> Matrix:
        return cls(len(values), 1, tuple(values), field)

    # -- access ------------------------------------------------------------

    def _check_index(self, kind: str, index: int, bound: int) -> None:
        if not 0 <= index < bound:
            raise ShapeError(f"{kind} index {index} out of range for a "
                             f"{self.rows}x{self.cols} matrix")

    def entry(self, i: int, j: int) -> Scalar:
        self._check_index("row", i, self.rows)
        self._check_index("column", j, self.cols)
        return self.entries[i * self.cols + j]

    def row_list(self) -> list[list[Scalar]]:
        return [list(self.entries[i * self.cols:(i + 1) * self.cols])
                for i in range(self.rows)]

    def col(self, j: int) -> Matrix:
        self._check_index("column", j, self.cols)
        return Matrix(self.rows, 1, self.entries[j::self.cols], self.field)

    def take_columns(self, idxs: Iterable[int]) -> Matrix:
        idxs = list(idxs)
        for j in idxs:
            self._check_index("column", j, self.cols)
        picked = [self.entries[j::self.cols] for j in idxs]
        return Matrix(self.rows, len(idxs), tuple(chain.from_iterable(zip(*picked))),
                      self.field)

    @property
    def is_zero(self) -> bool:
        return not any(self.entries)

    @cached_property
    def echelon(self) -> tuple[Matrix, tuple[int, ...], int]:
        """``rref(self)``: the reduced form, its pivot columns and the rank,
        computed once; ``echelon[2]`` is the rank."""
        return rref(self)

    @cached_property
    def T(self) -> Matrix:
        """``self.transpose()``, kept so that its echelon form is kept too."""
        return self.transpose()

    @cached_property
    def kernel_basis(self) -> Matrix:
        """The canonical basis of ``{x : self @ x = 0}``, read off ``echelon``.

        One column per free column of the reduced form, in increasing order:
        each sets its free variable to one and every other free variable to
        zero.
        """
        r, pivots, _ = self.echelon
        n = self.cols
        pivot_set = set(pivots)
        free = [c for c in range(n) if c not in pivot_set]
        zero, one = self.field.zero(), self.field.one()
        # row c of the basis holds coordinate c of every basis vector
        rows: list = [None] * n
        for k, f in enumerate(free):
            rows[f] = [zero] * len(free)
            rows[f][k] = one
        for i, pc in enumerate(pivots):
            row = r.entries[i * n:(i + 1) * n]
            rows[pc] = [-row[f] for f in free]
        ents = _reduced(self.field.p, chain.from_iterable(rows))
        return Matrix(n, len(free), ents, self.field)

    @cached_property
    def cokernel_basis(self) -> Matrix:
        """The canonical basis of ``{y : y @ self = 0}``: the kernel basis
        of ``T``, stacked as rows in reduced form."""
        return self.T.kernel_basis.transpose().echelon[0]

    # -- arithmetic ----------------------------------------------------------

    def _same_shape(self, other: Matrix) -> None:
        if not isinstance(other, Matrix):
            raise ShapeError(f"expected a matrix, got {other!r}")
        if self.field != other.field:
            raise ShapeError(f"field mismatch: {self.field} vs {other.field}")
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )

    def _with(self, values: Iterable[Scalar]) -> Matrix:
        """A matrix of this shape and field holding ``values``, reduced."""
        return Matrix(self.rows, self.cols, _reduced(self.field.p, values), self.field)

    def __add__(self, other: Matrix) -> Matrix:
        self._same_shape(other)
        return self._with(a + b for a, b in zip(self.entries, other.entries))

    def __sub__(self, other: Matrix) -> Matrix:
        self._same_shape(other)
        return self._with(a - b for a, b in zip(self.entries, other.entries))

    def __neg__(self) -> Matrix:
        return self._with(-a for a in self.entries)

    def scale(self, s: Scalar) -> Matrix:
        return self._with(s * a for a in self.entries)

    def __matmul__(self, other: Matrix) -> Matrix:
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.field != other.field:
            raise ShapeError(f"field mismatch: {self.field} vs {other.field}")
        if self.cols != other.rows:
            raise ShapeError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        # Row by row: row i of the product sums x * (row k of other) over the
        # nonzero entries x = self[i, k].  Over GF(p) each right-hand row is
        # packed once; over Q it contributes only its nonzero entries.
        # Biproduct blocks make most operands zero.
        k, n = self.cols, other.cols
        left, right, p = self.entries, other.entries, self.field.p
        if p is not None:
            s = (k * p * p).bit_length() or 1
            right_rows = [_pack(right[r * n:(r + 1) * n], s) for r in range(k)]
            zero_row, out = [0] * n, []
            for i in range(self.rows):
                acc = 0
                for x, v in zip(left[i * k:(i + 1) * k], right_rows):
                    if x and v:
                        acc += x * v
                out += _unpack(acc, n, s, p) if acc else zero_row
            return Matrix(self.rows, n, tuple(out), self.field)
        zero = self.field.zero()
        right_rows = [[(j, y) for j, y in enumerate(right[r * n:(r + 1) * n]) if y]
                      for r in range(other.rows)]
        out: list = []
        for i in range(self.rows):
            acc = [zero] * n
            for x, row in zip(left[i * k:(i + 1) * k], right_rows):
                if x:
                    for j, y in row:
                        acc[j] += x * y
            out.extend(acc)
        return Matrix(self.rows, n, tuple(out), self.field)

    def transpose(self) -> Matrix:
        n = self.cols
        ents = tuple(chain.from_iterable(self.entries[j::n] for j in range(n)))
        return Matrix(n, self.rows, ents, self.field)

    def hstack(self, other: Matrix) -> Matrix:
        if self.rows != other.rows or self.field != other.field:
            raise ShapeError("hstack needs equal row counts over one field")
        out: list[Scalar] = []
        for i in range(self.rows):
            out.extend(self.entries[i * self.cols:(i + 1) * self.cols])
            out.extend(other.entries[i * other.cols:(i + 1) * other.cols])
        return Matrix(self.rows, self.cols + other.cols, tuple(out), self.field)

    def vstack(self, other: Matrix) -> Matrix:
        if self.cols != other.cols or self.field != other.field:
            raise ShapeError("vstack needs equal column counts over one field")
        return Matrix(self.rows + other.rows, self.cols,
                      self.entries + other.entries, self.field)

    def split_rows(self, k: int) -> tuple[Matrix, Matrix]:
        """The first ``k`` rows and the rest: ``vstack`` undone."""
        cut = k * self.cols
        return (Matrix(k, self.cols, self.entries[:cut], self.field),
                Matrix(self.rows - k, self.cols, self.entries[cut:], self.field))

    def split_cols(self, k: int) -> tuple[Matrix, Matrix]:
        """The first ``k`` columns and the rest: ``hstack`` undone."""
        return self.take_columns(range(k)), self.take_columns(range(k, self.cols))

    def __str__(self) -> str:
        fmt = self.field.format
        return "[" + ", ".join("[" + ", ".join(map(fmt, row)) + "]"
                               for row in self.row_list()) + "]"


def _reduced(p: int | None, values: Iterable[Scalar]) -> tuple:
    """``values`` as a matrix's entries: reduced into ``[0, p)`` over GF(p),
    as they are over Q."""
    return tuple(values) if p is None else tuple(map(p.__rmod__, values))


def _rref_rows(rows: list[Sequence[Fraction]], ncols: int) -> list[int]:
    """Reduce the rational ``rows`` in place; returns the pivot column indices.

    The pivot is the first nonzero entry scanning top to bottom, then left to
    right.  A pivot row is divided by its pivot unless the pivot is one, and
    its zero entries are left as they are.
    """
    pivots: list[int] = []
    pr = 0
    nrows = len(rows)
    for c in range(ncols):
        pivot_row = None
        for r in range(pr, nrows):
            if rows[r][c]:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        rows[pr], rows[pivot_row] = rows[pivot_row], rows[pr]
        prow = rows[pr]
        piv = prow[c]
        if piv != 1:
            rows[pr] = prow = [x / piv if x else x for x in prow]
        for r in range(nrows):
            factor = rows[r][c]
            if r != pr and factor:
                rows[r] = [a - factor * b for a, b in zip(rows[r], prow)]
        pivots.append(c)
        pr += 1
        if pr == nrows:
            break
    return pivots


def _pack(values: Sequence[int], s: int) -> int:
    """The residues ``values`` as one int, value ``j`` in slot ``j`` of ``s`` bits."""
    v = 0
    for x in reversed(values):
        v = v << s | x
    return v


def _unpack(v: int, n: int, s: int, p: int) -> list[int]:
    """The first ``n`` slots of ``v``, each reduced mod ``p``."""
    mask, out = (1 << s) - 1, []
    for _ in range(n):
        out.append((v & mask) % p)
        v >>= s
    return out


def _eliminate_packed(packed: list[int], n: int, s: int, p: int) -> list[int]:
    """Reduce the packed GF(p) rows in place; returns the pivot column indices.

    Each row holds ``n`` slots of ``s`` bits.  Pivoting is ``rref``'s: the
    first slot nonzero mod p, top to bottom, then left to right.  The pivot
    rows end up first, in pivot order, each zero left of its pivot; the rows
    below them are zero mod p.  A slot is left unreduced, so read it mod p.
    """
    nrows = len(packed)
    mask, shifts = (1 << s) - 1, range(0, n * s, s)
    fresh = [True] * nrows  # not added to since packing: slots below p
    pivots, pr = [], 0
    for c, cs in enumerate(shifts):
        for r in range(pr, nrows):
            if (packed[r] >> cs & mask) % p:
                break
        else:
            continue
        packed[pr], packed[r] = packed[r], packed[pr]
        fresh[pr], fresh[r] = fresh[r], fresh[pr]
        prow = packed[pr]
        piv = (prow >> cs & mask) % p
        if piv != 1 or not fresh[pr]:
            # reduce and scale; the slots left of c are all multiples of p
            inv, v = pow(piv, -1, p), 0
            for sh in reversed(shifts[c:]):
                v = v << s | (prow >> sh & mask) * inv % p
            packed[pr] = prow = v << cs
        for r in range(nrows):
            f = (packed[r] >> cs & mask) % p
            if f and r != pr:
                packed[r] += (p - f) * prow
                fresh[r] = False
        pivots.append(c)
        pr += 1
        if pr == nrows:
            break
    return pivots


def _eliminate(p: int | None, rows: list[Sequence[Scalar]],
               n: int) -> tuple[list[int], Callable[[int, int], Sequence[Scalar]]]:
    """Reduce ``rows`` of ``n`` entries each in the field's row format:
    the rows themselves over Q (the list is reduced in place), packed ints
    over GF(p).

    Returns the pivot columns and ``tail(i, lo)``, entries ``lo`` to ``n`` of
    reduced row ``i``.  The pivot rows come first, in pivot order, each zero
    left of its pivot; the rows below them are zero.
    """
    if p is None:
        pivots = _rref_rows(rows, n)
        return pivots, lambda i, lo: rows[i][lo:]
    s = ((len(rows) + 1) * p * p).bit_length()
    packed = [_pack(row, s) for row in rows]
    pivots = _eliminate_packed(packed, n, s, p)
    return pivots, lambda i, lo: _unpack(packed[i] >> lo * s, n - lo, s, p)


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...], int]:
    """Reduced row echelon form with its pivot columns and rank.

    Pivot choice is the first nonzero entry top to bottom, left to right, so
    the result is canonical for each matrix.  A matrix with a zero dimension
    has no entries to reduce; its reduced form is an equal new matrix, so
    that a kept echelon form never holds its own matrix.  Each call reduces
    afresh; ``Matrix.echelon`` keeps the result with its matrix.
    """
    nrows, n, entries = m.rows, m.cols, m.entries
    if not nrows or not n:
        return Matrix(nrows, n, (), m.field), (), 0
    pivots, tail = _eliminate(m.field.p, [entries[i * n:(i + 1) * n] for i in range(nrows)], n)
    zero, flat = m.field.zero(), []
    for i, c in enumerate(pivots):
        flat += [zero] * c
        flat += tail(i, c)
    flat += [zero] * ((nrows - len(pivots)) * n)
    return Matrix(nrows, n, tuple(flat), m.field), tuple(pivots), len(pivots)


def solve(m: Matrix, b: Matrix) -> Matrix | None:
    """Solve ``m @ x = b`` for every column of ``b``; None if any column is
    inconsistent.

    The particular solution sets every free variable to zero.
    """
    if m.rows != b.rows or m.field != b.field:
        raise ShapeError(f"cannot solve {m.rows}x{m.cols} against {b.rows}x{b.cols}")
    # reduce the rows of [m | b]; row c of x is read off the right-hand part
    # of the pivot row of column c
    k, bc = m.cols, b.cols
    rows = [m.entries[i * k:(i + 1) * k] + b.entries[i * bc:(i + 1) * bc]
            for i in range(m.rows)]
    pivots, tail = _eliminate(m.field.p, rows, k + bc)
    if pivots and pivots[-1] >= k:
        return None
    x = [(m.field.zero(),) * bc] * k
    for i, c in enumerate(pivots):
        x[c] = tail(i, k)
    return Matrix(k, bc, tuple(chain.from_iterable(x)), m.field)

