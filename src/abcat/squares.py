"""Commutative squares and the four equivalent semi-cartesian conditions.

A square is drawn with ``top: A -> B`` and ``bottom: C -> D`` horizontal,
``left: A -> C`` and ``right: B -> D`` vertical, commuting as
``right @ top = bottom @ left``.  Read as an arrow between vertical maps, a
square points from its left vertical to its right vertical, so horizontal
composition glues a square whose right vertical equals the next square's
left vertical.

``analyze`` always computes all four semi-cartesian conditions:

  i.   the canonical comparison into the fiber product of (right, bottom)
       is an epi;
  ii.  the canonical comparison out of the amalgamated sum of (top, left)
       is a mono;
  iii. the fiber product embedding and the amalgamated sum projection form
       a short exact sequence through the corner biproduct;
  iv.  the pair (insertion sum, projection difference) through the corner
       biproduct is exact in the middle.

The four answers are cross-asserted once per square, whose analysis is kept
with it (``Square.analysis``); disagreement is a bug.
"""

from __future__ import annotations

from dataclasses import dataclass

from .category import Mor, cokernel, cokernel_colift, epi_colift, kernel, kernel_lift
from .constructions import (
    PullbackData,
    PushoutData,
    epi_mono_factorize,
    is_exact_pair,
    pullback,
    pullback_lift,
    pushout,
    pushout_colift,
)
from .errors import InternalCheckError, PreconditionError, ShapeError, internal
from .linalg import cached_property


@dataclass(frozen=True)
class Square:
    """A commutative square; commutativity is enforced at construction."""

    top: Mor
    left: Mor
    right: Mor
    bottom: Mor

    def __post_init__(self) -> None:
        if self.top.src != self.left.src:
            raise ShapeError("top and left must share a source corner")
        if self.top.dst != self.right.src:
            raise ShapeError("right must start where top ends")
        if self.left.dst != self.bottom.src:
            raise ShapeError("bottom must start where left ends")
        if self.right.dst != self.bottom.dst:
            raise ShapeError("right and bottom must share a target corner")
        residual = self.right @ self.top - self.bottom @ self.left
        if not residual.is_zero:
            raise PreconditionError(
                f"square does not commute, residual {residual.mat}"
            )

    @cached_property
    def analysis(self) -> SquareAnalysis:
        """Compute both comparison maps and all four semi-cartesian conditions."""
        with internal("Square.analysis"):  # the square commutes, so both lifts exist
            pb = pullback(self.right, self.bottom)
            po = pushout(self.top, self.left)
            e = pullback_lift(pb, self.top, self.left)
            m = pushout_colift(po, self.right, self.bottom)
            cond_i = e.is_epi
            cond_ii = m.is_mono
            cond_iii = pb.n.is_mono and po.t.is_epi and is_exact_pair(pb.n, po.t)
            cond_iv = is_exact_pair(po.summed, pb.diff)

        if not cond_i == cond_ii == cond_iii == cond_iv:
            raise InternalCheckError(
                f"equivalent conditions disagree: {cond_i}, {cond_ii}, {cond_iii}, {cond_iv}"
            )
        return SquareAnalysis(e, m, pb, po, cond_i, cond_ii, cond_iii, cond_iv,
                              is_cartesian=e.is_iso, is_cocartesian=m.is_iso,
                              is_semicartesian=cond_i)


@dataclass(frozen=True)
class SquareAnalysis:
    """The comparison maps of a square and everything they decide."""

    e: Mor
    m: Mor
    pb: PullbackData
    po: PushoutData
    cond_i: bool
    cond_ii: bool
    cond_iii: bool
    cond_iv: bool
    is_cartesian: bool
    is_cocartesian: bool
    is_semicartesian: bool


def analyze(sq: Square) -> SquareAnalysis:
    """Both comparison maps and all four semi-cartesian conditions of ``sq``:
    its ``analysis``, computed on first use and kept with the square."""
    return sq.analysis


def compose_h(k: Square, m: Square) -> Square:
    """Glue two squares along a shared middle vertical, first ``k`` then ``m``."""
    if k.right != m.left:
        raise ShapeError("middle vertical mismatch: right of the first square "
                         "must equal left of the second")
    return Square(
        top=m.top @ k.top,
        left=k.left,
        right=m.right,
        bottom=m.bottom @ k.bottom,
    )


def decompose_semicartesian(sq: Square) -> tuple[Square, Square]:
    """Split a semi-cartesian square into a cocartesian square with epi
    horizontals followed by a cartesian square with mono horizontals.

    The horizontals factor through their images and the middle vertical is
    the unique map the factorizations induce.
    """
    analysis = analyze(sq)
    if not analysis.is_semicartesian:
        raise PreconditionError("decomposition needs a semi-cartesian square")
    with internal("decompose_semicartesian"):
        ftop = epi_mono_factorize(sq.top)
        fbot = epi_mono_factorize(sq.bottom)
        mid = epi_colift(ftop.epi_q, fbot.epi_q @ sq.left)
        if sq.right @ ftop.mono_m != fbot.mono_m @ mid:
            raise InternalCheckError("induced middle vertical fails the mono side")
        first = Square(top=ftop.epi_q, left=sq.left, right=mid, bottom=fbot.epi_q)
        second = Square(top=ftop.mono_m, left=mid, right=sq.right, bottom=fbot.mono_m)
    if compose_h(first, second) != sq:
        raise InternalCheckError("decomposition does not recompose to the square")
    return first, second


def kernel_square(sq: Square) -> Square:
    """The componentwise kernel of a square read as an arrow between its
    verticals: kernels of top and bottom, with the induced left vertical.

    The result's right vertical is the given square's left vertical.
    """
    ka = kernel(sq.top)
    kd = kernel(sq.bottom)
    induced = kernel_lift(kd, sq.left @ ka.ker_mor)
    return Square(top=ka.ker_mor, left=induced, right=sq.left, bottom=kd.ker_mor)


def cokernel_square(sq: Square) -> Square:
    """The componentwise cokernel, dual to :func:`kernel_square`.

    The result's left vertical is the given square's right vertical.
    """
    ca = cokernel(sq.top)
    cd = cokernel(sq.bottom)
    induced = cokernel_colift(ca, cd.coker_mor @ sq.right)
    return Square(top=ca.coker_mor, left=sq.right, right=induced, bottom=cd.coker_mor)
