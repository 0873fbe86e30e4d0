"""Objects and morphisms of the category of finite-dimensional spaces.

An object is just a dimension over a scalar field; a morphism is a matrix
acting on column vectors, so composition is matrix multiplication and the
null object is the dimension-zero space.  Kernels and cokernels come with
their universal lifts, and the biproduct carries its two insertions and two
projections.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import PreconditionError, ShapeError
from .fields import ScalarField
from .linalg import Matrix, cached_property, solve


@dataclass(frozen=True, init=False)
class Obj:
    """A finite-dimensional space, determined by dimension and field."""

    dim: int
    field: ScalarField

    def __init__(self, dim: int, field: ScalarField) -> None:
        if dim < 0:
            raise ShapeError(f"negative dimension {dim}")
        d = self.__dict__  # frozen: write the fields straight into the instance dict
        d["dim"] = dim
        d["field"] = field

    @property
    def is_null(self) -> bool:
        return self.dim == 0

    def __str__(self) -> str:
        return f"{self.field}^{self.dim}"


@dataclass(frozen=True, init=False)
class Mor:
    """A morphism ``src -> dst``: a ``dim(dst) x dim(src)`` matrix, whose
    shape and field fix both objects."""

    mat: Matrix

    def __init__(self, mat: Matrix) -> None:
        self.__dict__["mat"] = mat  # frozen: written straight into the instance dict

    @classmethod
    def from_matrix(cls, mat: Matrix) -> Mor:
        """Wrap a matrix; the same as ``Mor(mat)``."""
        return cls(mat)

    @cached_property
    def src(self) -> Obj:
        return Obj(self.mat.cols, self.mat.field)

    @cached_property
    def dst(self) -> Obj:
        return Obj(self.mat.rows, self.mat.field)

    @property
    def field(self) -> ScalarField:
        return self.mat.field

    @property
    def rank(self) -> int:
        return self.mat.echelon[2]

    @property
    def is_mono(self) -> bool:
        return self.rank == self.mat.cols

    @property
    def is_epi(self) -> bool:
        return self.rank == self.mat.rows

    @property
    def is_iso(self) -> bool:
        return self.mat.rows == self.mat.cols == self.rank

    @property
    def is_zero(self) -> bool:
        return self.mat.is_zero

    def __matmul__(self, other: Mor) -> Mor:
        if not isinstance(other, Mor):
            return NotImplemented
        return compose(self, other)

    def __add__(self, other: Mor) -> Mor:
        self._parallel(other)
        return Mor(self.mat + other.mat)

    def __sub__(self, other: Mor) -> Mor:
        self._parallel(other)
        return Mor(self.mat - other.mat)

    def __neg__(self) -> Mor:
        return Mor(-self.mat)

    def _parallel(self, other: Mor) -> None:
        if not isinstance(other, Mor):
            raise ShapeError(f"expected a morphism, got {other!r}")
        if self.src != other.src or self.dst != other.dst:
            raise ShapeError(
                f"morphisms are not parallel: {self.src}->{self.dst} "
                f"vs {other.src}->{other.dst}"
            )

    def __str__(self) -> str:
        return f"{self.src}->{self.dst} {self.mat}"


def compose(g: Mor, f: Mor) -> Mor:
    """The composite ``g after f``."""
    gm, fm = g.mat, f.mat
    if fm.rows != gm.cols or fm.field != gm.field:  # f.dst != g.src
        raise ShapeError(f"cannot compose: {f.src}->{f.dst} then {g.src}->{g.dst}")
    return Mor(gm @ fm)


def identity(x: Obj) -> Mor:
    return Mor(Matrix.identity(x.field, x.dim))


def zero_mor(src: Obj, dst: Obj) -> Mor:
    if src.field != dst.field:
        raise ShapeError(f"field mismatch: {src.field} vs {dst.field}")
    return Mor(Matrix.zeros(src.field, dst.dim, src.dim))


@dataclass(frozen=True)
class KernelData:
    """A kernel: the embedded subobject on which ``of`` vanishes."""

    ker_mor: Mor
    of: Mor

    @property
    def ker_obj(self) -> Obj:
        return self.ker_mor.src


@dataclass(frozen=True)
class CokernelData:
    """A cokernel: the canonical quotient of the target of ``of``."""

    coker_mor: Mor
    of: Mor

    @property
    def coker_obj(self) -> Obj:
        return self.coker_mor.dst


@dataclass(frozen=True)
class Biproduct:
    """A direct sum with insertions ``ins_i, ins_j`` and projections
    ``proj_p, proj_q`` satisfying the five structure identities."""

    ins_i: Mor
    ins_j: Mor
    proj_p: Mor
    proj_q: Mor

    @property
    def sum_obj(self) -> Obj:
        return self.ins_i.dst


def kernel(f: Mor) -> KernelData:
    """The canonical kernel of ``f``, with its mono into the source."""
    return KernelData(Mor(f.mat.kernel_basis), f)


def cokernel(f: Mor) -> CokernelData:
    """The canonical cokernel of ``f``, with its epi out of the target."""
    return CokernelData(Mor(f.mat.cokernel_basis), f)


def mono_lift(m: Mor, t: Mor) -> Mor:
    """The unique ``s`` with ``m @ s = t`` for a mono ``m``.

    Exists exactly when the image of ``t`` lies inside the image of ``m``.
    """
    if not m.is_mono:
        raise PreconditionError(f"lift target is not a mono: {m}")
    if t.dst != m.dst:
        raise ShapeError(f"cannot lift {t.src}->{t.dst} through {m.src}->{m.dst}")
    sol = solve(m.mat, t.mat)
    if sol is None:
        raise PreconditionError(
            f"no lift: image of {t} is not contained in image of {m}"
        )
    return Mor(sol)


def epi_colift(e: Mor, t: Mor) -> Mor:
    """The unique ``v`` with ``v @ e = t`` for an epi ``e``.

    Exists exactly when ``t`` kills the kernel of ``e``.
    """
    if not e.is_epi:
        raise PreconditionError(f"colift target is not an epi: {e}")
    if t.src != e.src:
        raise ShapeError(f"cannot colift {t.src}->{t.dst} through {e.src}->{e.dst}")
    sol = solve(e.mat.transpose(), t.mat.transpose())
    if sol is None:
        residual = t.mat @ e.mat.kernel_basis
        raise PreconditionError(
            f"no colift: {t} does not vanish on the kernel of {e}, residual {residual}"
        )
    return Mor(sol.transpose())


def kernel_lift(kd: KernelData, t: Mor) -> Mor:
    """Factor ``t`` through the kernel: the unique ``s`` with
    ``ker_mor @ s = t``, requiring that the kernel's parent kills ``t``."""
    residual = kd.of @ t
    if not residual.is_zero:
        raise PreconditionError(
            f"kernel lift needs a vanishing composite, got {residual.mat}"
        )
    return mono_lift(kd.ker_mor, t)


def cokernel_colift(cd: CokernelData, t: Mor) -> Mor:
    """Factor ``t`` through the cokernel: the unique ``v`` with
    ``v @ coker_mor = t``, requiring ``t`` to kill the parent's image."""
    residual = t @ cd.of
    if not residual.is_zero:
        raise PreconditionError(
            f"cokernel colift needs a vanishing composite, got {residual.mat}"
        )
    return epi_colift(cd.coker_mor, t)


def biproduct(a: Obj, b: Obj) -> Biproduct:
    """The direct sum ``a (+) b`` with block insertions and projections."""
    if a.field != b.field:
        raise ShapeError(f"field mismatch: {a.field} vs {b.field}")
    field = a.field
    ia = Matrix.identity(field, a.dim)
    ib = Matrix.identity(field, b.dim)
    za = Matrix.zeros(field, b.dim, a.dim)
    zb = Matrix.zeros(field, a.dim, b.dim)
    return Biproduct(Mor(ia.vstack(za)), Mor(zb.vstack(ib)),
                     Mor(ia.hstack(zb)), Mor(za.hstack(ib)))
