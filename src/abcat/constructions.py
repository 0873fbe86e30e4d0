"""Factorizations, fiber products, amalgamated sums, and exactness tests.

Conventions fixed here and used everywhere downstream:

* the mono part of a factorization consists of the pivot columns of the
  original matrix (not of its echelon form), so the image embeds via actual
  columns of the map;
* a pullback of ``(c, d)`` is the kernel ``n`` of ``[c | -d]`` on the
  biproduct of their sources, with legs ``f, g`` the row blocks of ``n``;
  its mediating map is the kernel lift of ``[x; y]`` through ``n``;
* a pushout of ``(a, b)`` is the cokernel ``t`` of ``[a; b]`` into the
  biproduct of their targets, with legs ``r = t @ i`` and ``s = -(t @ j)``,
  the column blocks of ``t`` with the second negated; the sign makes
  ``r @ a = s @ b`` hold exactly, and every later sign (including the
  connecting morphism's) inherits from this choice.  Its mediating map is
  the cokernel colift of ``[x | -y]`` through ``t``.  Blocks are sliced and
  stacked, never multiplied by the biproduct's 0/1 insertions and projections.
"""

from __future__ import annotations

from dataclasses import dataclass

from .category import (
    CokernelData,
    KernelData,
    Mor,
    Obj,
    cokernel,
    cokernel_colift,
    kernel,
    kernel_lift,
)
from .errors import InternalCheckError, ShapeError
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
    return Factorization(Mor(reduced.split_rows(rnk)[0]),
                         Mor(f.mat.take_columns(pivots)))


@dataclass(frozen=True)
class PullbackData:
    """A fiber product of ``(c, d)``: legs ``f, g`` and the kernel embedding
    ``n`` of the difference map ``diff = [c | -d]``."""

    f: Mor
    g: Mor
    n: Mor
    c: Mor
    d: Mor
    diff: Mor

    @property
    def p_obj(self) -> Obj:
        return self.n.src


@dataclass(frozen=True)
class PushoutData:
    """An amalgamated sum of ``(a, b)``: legs ``r, s`` and the cokernel
    projection ``t`` of the sum map ``summed = [a; b]``."""

    r: Mor
    s: Mor
    t: Mor
    a: Mor
    b: Mor
    summed: Mor

    @property
    def s_obj(self) -> Obj:
        return self.t.dst


def pullback(c: Mor, d: Mor) -> PullbackData:
    """The fiber product of two maps with a common target."""
    if c.dst != d.dst:
        raise ShapeError(f"pullback needs a common target: {c.dst} vs {d.dst}")
    diff = Mor(c.mat.hstack(-d.mat))
    n = kernel(diff).ker_mor
    f_mat, g_mat = n.mat.split_rows(c.mat.cols)
    return PullbackData(Mor(f_mat), Mor(g_mat), n, c, d, diff)


def pullback_lift(pb: PullbackData, x: Mor, y: Mor) -> Mor:
    """The unique ``e`` with ``pb.f @ e = x`` and ``pb.g @ e = y``; requires
    ``c @ x - d @ y = diff @ [x; y]`` to vanish, as its kernel lift does."""
    if x.src != y.src:
        raise ShapeError(f"lift legs need a common source: {x.src} vs {y.src}")
    if x.dst != pb.c.src or y.dst != pb.d.src:
        raise ShapeError("lift legs do not land in the pullback's corners")
    return kernel_lift(KernelData(pb.n, pb.diff), Mor(x.mat.vstack(y.mat)))


def pushout(a: Mor, b: Mor) -> PushoutData:
    """The amalgamated sum of two maps with a common source."""
    if a.src != b.src:
        raise ShapeError(f"pushout needs a common source: {a.src} vs {b.src}")
    summed = Mor(a.mat.vstack(b.mat))
    t = cokernel(summed).coker_mor
    r_mat, s_mat = t.mat.split_cols(a.mat.rows)
    return PushoutData(Mor(r_mat), Mor(-s_mat), t, a, b, summed)


def pushout_colift(po: PushoutData, x: Mor, y: Mor) -> Mor:
    """The unique ``m`` with ``m @ po.r = x`` and ``m @ po.s = y``; requires
    ``x @ a - y @ b = [x | -y] @ summed`` to vanish, as its cokernel colift does."""
    if x.dst != y.dst:
        raise ShapeError(f"colift legs need a common target: {x.dst} vs {y.dst}")
    if x.src != po.a.dst or y.src != po.b.dst:
        raise ShapeError("colift legs do not start at the pushout's corners")
    return cokernel_colift(CokernelData(po.t, po.summed), Mor(x.mat.hstack(-y.mat)))


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
    """Whether ``n`` embeds exactly the kernel of ``f``: a mono whose image
    is the kernel of ``f``."""
    return is_exact_pair(n, f) and n.is_mono


def is_cokernel_of(t: Mor, f: Mor) -> bool:
    """Whether ``t`` projects exactly the cokernel of ``f``: an epi whose
    kernel is the image of ``f``."""
    return is_exact_pair(f, t) and t.is_epi
