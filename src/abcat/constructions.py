"""Factorizations, fiber products, amalgamated sums, and exactness tests.

Conventions fixed here and used everywhere downstream:

* the mono part of a factorization consists of the pivot columns of the
  original matrix (not of its echelon form), so the image embeds via actual
  columns of the map;
* a pullback of ``(c, d)`` is the kernel ``n`` of ``[c | -d]`` on the
  biproduct of their sources, with legs ``f, g`` the row blocks of ``n``;
* a pushout of ``(a, b)`` is the cokernel ``t`` of ``[a; b]`` into the
  biproduct of their targets, with legs ``r = t @ i`` and ``s = -(t @ j)``,
  the column blocks of ``t`` with the second negated; the sign makes
  ``r @ a = s @ b`` hold exactly, and every later sign (including the
  connecting morphism's) inherits from this choice.  Blocks are sliced and
  stacked, never multiplied by the biproduct's 0/1 insertions and projections.
"""

from __future__ import annotations

from dataclasses import dataclass

from .category import (
    Mor,
    Obj,
    cokernel,
    cokernel_colift,
    epi_colift,
    kernel,
    kernel_lift,
    mono_lift,
)
from .errors import InternalCheckError, PreconditionError, ShapeError
from .linalg import solve


@dataclass(frozen=True)
class Factorization:
    """An epi followed by a mono composing to the original map."""

    epi_q: Mor
    mono_m: Mor


def epi_mono_factorize(f: Mor) -> Factorization:
    """Write ``f = mono_m @ epi_q`` through the image of ``f``.

    The mono is the pivot-column submatrix of ``f`` itself; the epi is the
    nonzero rows of the echelon form of ``f``, which hold the coordinates of
    every column of ``f`` in its pivot columns.  Those coordinates are unique
    because the pivot columns are independent.
    """
    reduced, pivots, rnk = f.mat.echelon
    img = Obj(rnk, f.field)
    mono = Mor(img, f.dst, f.mat.take_columns(pivots))
    return Factorization(Mor(f.src, img, reduced.split_rows(rnk)[0]), mono)


def image(f: Mor) -> tuple[Obj, Mor]:
    """The image subobject of ``f`` with its embedding."""
    fact = epi_mono_factorize(f)
    return fact.mono_m.src, fact.mono_m


@dataclass(frozen=True)
class PullbackData:
    """A fiber product of ``(c, d)``: legs ``f, g`` and the kernel embedding
    ``n`` of the difference map ``diff = [c | -d]``."""

    p_obj: Obj
    f: Mor
    g: Mor
    n: Mor
    c: Mor
    d: Mor
    diff: Mor


@dataclass(frozen=True)
class PushoutData:
    """An amalgamated sum of ``(a, b)``: legs ``r, s`` and the cokernel
    projection ``t`` of the sum map ``summed = [a; b]``."""

    s_obj: Obj
    r: Mor
    s: Mor
    t: Mor
    a: Mor
    b: Mor
    summed: Mor


def pullback(c: Mor, d: Mor) -> PullbackData:
    """The fiber product of two maps with a common target."""
    if c.dst != d.dst:
        raise ShapeError(f"pullback needs a common target: {c.dst} vs {d.dst}")
    diff = Mor(Obj(c.src.dim + d.src.dim, c.field), c.dst, c.mat.hstack(-d.mat))
    kd = kernel(diff)
    f_mat, g_mat = kd.ker_mor.mat.split_rows(c.src.dim)
    p = kd.ker_obj
    return PullbackData(p, Mor(p, c.src, f_mat), Mor(p, d.src, g_mat), kd.ker_mor, c, d, diff)


def pullback_lift(pb: PullbackData, x: Mor, y: Mor) -> Mor:
    """The unique ``e`` with ``pb.f @ e = x`` and ``pb.g @ e = y``.

    Requires ``c @ x = d @ y``; anything else is a precondition error.
    """
    if x.src != y.src:
        raise ShapeError(f"lift legs need a common source: {x.src} vs {y.src}")
    if x.dst != pb.c.src or y.dst != pb.d.src:
        raise ShapeError("lift legs do not land in the pullback's corners")
    residual = pb.c @ x - pb.d @ y
    if not residual.is_zero:
        raise PreconditionError(
            f"pullback lift needs c @ x = d @ y, got residual {residual.mat}"
        )
    return mono_lift(pb.n, Mor(x.src, pb.diff.src, x.mat.vstack(y.mat)))


def pushout(a: Mor, b: Mor) -> PushoutData:
    """The amalgamated sum of two maps with a common source."""
    if a.src != b.src:
        raise ShapeError(f"pushout needs a common source: {a.src} vs {b.src}")
    summed = Mor(a.src, Obj(a.dst.dim + b.dst.dim, a.field), a.mat.vstack(b.mat))
    cd = cokernel(summed)
    r_mat, s_mat = cd.coker_mor.mat.split_cols(a.dst.dim)
    q = cd.coker_obj
    return PushoutData(q, Mor(a.dst, q, r_mat), Mor(b.dst, q, -s_mat), cd.coker_mor,
                       a, b, summed)


def pushout_colift(po: PushoutData, x: Mor, y: Mor) -> Mor:
    """The unique ``m`` with ``m @ po.r = x`` and ``m @ po.s = y``.

    Requires ``x @ a = y @ b``.
    """
    if x.dst != y.dst:
        raise ShapeError(f"colift legs need a common target: {x.dst} vs {y.dst}")
    if x.src != po.a.dst or y.src != po.b.dst:
        raise ShapeError("colift legs do not start at the pushout's corners")
    residual = x @ po.a - y @ po.b
    if not residual.is_zero:
        raise PreconditionError(
            f"pushout colift needs x @ a = y @ b, got residual {residual.mat}"
        )
    return epi_colift(po.t, Mor(po.summed.dst, x.dst, x.mat.hstack(-y.mat)))


def same_subobject(m1: Mor, m2: Mor) -> bool:
    """Whether two monos into the same object have equal column spans."""
    if m1.dst != m2.dst:
        raise ShapeError(f"subobjects of different objects: {m1.dst} vs {m2.dst}")
    return (solve(m1.mat, m2.mat) is not None
            and solve(m2.mat, m1.mat) is not None)


def is_exact_pair(f: Mor, g: Mor) -> bool:
    """Whether ``image(f)`` equals ``kernel(g)`` as subobjects of the middle.

    Decided categorically: the composite must vanish and the mono part of
    ``f`` must factor through the kernel of ``g`` by an isomorphism.  A rank
    count is kept as a redundant cross-check.
    """
    if f.dst != g.src:
        raise ShapeError(f"not composable: {f.src}->{f.dst} then {g.src}->{g.dst}")
    composite_zero = (g @ f).is_zero
    if composite_zero:
        mono = epi_mono_factorize(f).mono_m
        lifted = kernel_lift(kernel(g), mono)
        categorical = lifted.is_iso
    else:
        categorical = False
    by_rank = composite_zero and f.rank + g.rank == f.dst.dim
    if categorical != by_rank:
        raise InternalCheckError(
            f"exactness routes disagree on {f} then {g}: "
            f"categorical={categorical} rank={by_rank}"
        )
    return categorical


def is_kernel_of(n: Mor, f: Mor) -> bool:
    """Whether ``n`` embeds exactly the kernel of ``f``."""
    if n.dst != f.src:
        raise ShapeError(f"{n.dst} is not the source of {f.src}->{f.dst}")
    if not n.is_mono or not (f @ n).is_zero:
        return False
    return kernel_lift(kernel(f), n).is_iso


def is_cokernel_of(t: Mor, f: Mor) -> bool:
    """Whether ``t`` projects exactly the cokernel of ``f``."""
    if t.src != f.dst:
        raise ShapeError(f"{t.src} is not the target of {f.src}->{f.dst}")
    if not t.is_epi or not (t @ f).is_zero:
        return False
    return cokernel_colift(cokernel(f), t).is_iso
