"""Two composable commutative squares over exact rows, and the connecting
morphism they induce between the outer kernel and the outer cokernel.

The input is a ladder

    A --a--> B --c--> C          with verticals u, v, w down to
    A'--b--> B'--d--> C'

where ``(a, c)`` is exact with ``c`` epi (so ``c`` is a cokernel of ``a``)
and ``(b, d)`` is exact with ``b`` mono (so ``b`` is a kernel of ``d``).
The left square ``K`` is ``v @ a = b @ u`` and the right square ``L`` is
``d @ v = w @ c``.

The connecting morphism ``delta : Ker w -> Coker u`` is built by the
categorical recipe, never by picking matrix representatives:

1. pull back ``(k, c)`` where ``k`` embeds ``Ker w``; the leg onto ``Ker w``
   is epi because ``c`` is;
2. take the kernel ``z`` of that leg and factor its other leg through the
   mono part of ``a`` (``a`` itself when ``a`` is mono);
3. push out ``(p, b)`` where ``p`` projects onto ``Coker u``; the leg out of
   ``Coker u`` is mono because ``b`` is;
4. colift through the epi leg to get ``theta``, then lift ``theta`` through
   the mono leg; the result is ``delta``.

``chase_delta`` is an independent oracle that never touches pullbacks or
pushouts: it solves ``c x = k`` for all kernel basis columns at once, pushes
the solution through ``v``, solves against ``b``, and projects by ``p``.
``a`` rides along the last three steps and must come out zero, so the
result does not depend on the solution picked.  The two routes agree
exactly, with sign +1; ``abcat snake --oracle`` and the selftest hold every
constructed ``delta`` to its chase.
"""

from __future__ import annotations

from dataclasses import dataclass

from .category import (
    CokernelData,
    KernelData,
    Mor,
    cokernel,
    cokernel_colift,
    epi_colift,
    kernel,
    kernel_lift,
    mono_lift,
)
from .constructions import (
    PullbackData,
    PushoutData,
    epi_mono_factorize,
    is_exact_pair,
    pullback,
    pushout,
)
from .errors import AbcatError, InternalCheckError, internal
from .linalg import cached_property, solve


@dataclass(frozen=True)
class Violation:
    """One failed input invariant, with a machine-checkable code."""

    code: str
    message: str


@dataclass(frozen=True)
class SnakeInput:
    """The seven maps of the ladder; see the module docstring for shapes."""

    a: Mor
    c: Mor
    u: Mor
    v: Mor
    w: Mor
    b: Mor
    d: Mor

    @cached_property
    def violations(self) -> tuple[Violation, ...]:
        """All failed invariants of the ladder, structural ones first.

        When the shapes themselves are wrong, the dependent checks are
        skipped.  Computed once per ladder, so the construction and the
        chase share one validation.
        """
        found: list[Violation] = []
        shapes = [
            (self.c.src == self.a.dst, "c must start where a ends"),
            (self.u.src == self.a.src, "u must share a source with a"),
            (self.v.src == self.a.dst, "v must start at the middle of the top row"),
            (self.w.src == self.c.dst, "w must start where c ends"),
            (self.b.src == self.u.dst, "b must start where u ends"),
            (self.b.dst == self.v.dst, "b must end where v ends"),
            (self.d.src == self.v.dst, "d must start where v ends"),
            (self.d.dst == self.w.dst, "d must end where w ends"),
        ]
        fields = {m.field for m in (self.a, self.c, self.u, self.v, self.w, self.b, self.d)}
        if len(fields) != 1:
            found.append(Violation("field_mismatch", "all maps must share one field"))
        for ok, msg in shapes:
            if not ok:
                found.append(Violation("shape", msg))
        if found:
            return tuple(found)

        res_k = self.v @ self.a - self.b @ self.u
        if not res_k.is_zero:
            found.append(Violation(
                "square_K", f"left square does not commute, residual {res_k.mat}"))
        res_l = self.d @ self.v - self.w @ self.c
        if not res_l.is_zero:
            found.append(Violation(
                "square_L", f"right square does not commute, residual {res_l.mat}"))
        if not is_exact_pair(self.a, self.c):
            found.append(Violation("top_row_exact", "top row is not exact in the middle"))
        if not self.c.is_epi:
            found.append(Violation("c_epi", "c must be an epi (a cokernel of a)"))
        if not is_exact_pair(self.b, self.d):
            found.append(Violation("bottom_row_exact", "bottom row is not exact in the middle"))
        if not self.b.is_mono:
            found.append(Violation("b_mono", "b must be a mono (a kernel of d)"))
        return tuple(found)


class SnakeInputError(AbcatError):
    """Raised by :func:`validate`; carries the full violation list."""

    def __init__(self, violations: list[Violation]):
        self.violations = violations
        super().__init__("; ".join(v.message for v in violations))


@dataclass(frozen=True)
class SnakeTrace:
    """Every intermediate object of the connecting-morphism construction.

    ``mono_a`` is the mono part of ``a``, through which step 2 factors;
    ``epi_d`` is the epi part of ``d`` (``d`` itself when ``d`` is epi).
    """

    mono_a: Mor
    epi_d: Mor
    pb: PullbackData
    z: Mor
    l: Mor
    po: PushoutData
    h: Mor
    theta: Mor


@dataclass(frozen=True)
class SnakeOutput:
    """Kernels, cokernels, the five induced maps, the exactness report for
    the four interior positions of the six-term sequence, and the trace of
    the construction of ``delta``."""

    ker_u: KernelData
    ker_v: KernelData
    ker_w: KernelData
    coker_u: CokernelData
    coker_v: CokernelData
    coker_w: CokernelData
    s: Mor
    t: Mor
    delta: Mor
    x: Mor
    y: Mor
    exact_report: tuple[bool, bool, bool, bool]
    trace: SnakeTrace


def violations(inp: SnakeInput) -> list[Violation]:
    """All failed invariants of the ladder: ``inp.violations`` as a list."""
    return list(inp.violations)


def validate(inp: SnakeInput) -> SnakeInput:
    """Return the input unchanged or raise with every violation found."""
    found = violations(inp)
    if found:
        raise SnakeInputError(found)
    return inp


def connecting_morphism(inp: SnakeInput) -> tuple[Mor, SnakeTrace]:
    """The connecting morphism ``Ker w -> Coker u`` with its construction
    trace.  Every intermediate identity is checked; a failure there is a
    bug, not bad input."""
    validate(inp)
    with internal("connecting_morphism"):
        kw = kernel(inp.w)
        cu = cokernel(inp.u)
        mono_a = inp.a if inp.a.is_mono else epi_mono_factorize(inp.a).mono_m

        pb = pullback(kw.ker_mor, inp.c)
        onto_ker, into_b = pb.f, pb.g
        if not onto_ker.is_epi:
            raise InternalCheckError("pulling back an epi must give an epi leg")
        z = kernel(onto_ker)
        l = mono_lift(mono_a, into_b @ z.ker_mor)

        po = pushout(cu.coker_mor, inp.b)
        from_coker, from_b2 = po.r, po.s
        if not from_coker.is_mono:
            raise InternalCheckError("pushing out a mono must give a mono leg")
        h = cokernel(from_coker)

        carried = from_b2 @ inp.v @ into_b
        if not (carried @ z.ker_mor).is_zero:
            raise InternalCheckError("carried map does not vanish on the kernel leg")
        theta = epi_colift(onto_ker, carried)
        if not (h.coker_mor @ theta).is_zero:
            raise InternalCheckError("theta must die in the cokernel of the mono leg")
        delta = mono_lift(from_coker, theta)

        epi_d = inp.d if inp.d.is_epi else epi_mono_factorize(inp.d).epi_q
        trace = SnakeTrace(mono_a=mono_a, epi_d=epi_d, pb=pb, z=z.ker_mor, l=l,
                           po=po, h=h.coker_mor, theta=theta)
    _check_trace(inp, delta, trace)
    return delta, trace


def _check_trace(inp: SnakeInput, delta: Mor, tr: SnakeTrace) -> None:
    pb = tr.pb
    checks = [
        (pb.c @ pb.f == pb.d @ pb.g, "fiber product square"),
        (tr.mono_a @ tr.l == pb.g @ tr.z, "factorization through a"),
        (tr.theta @ pb.f == tr.po.s @ inp.v @ pb.g, "colift identity for theta"),
        (tr.po.r @ delta == tr.theta, "lift identity for delta"),
    ]
    for ok, name in checks:
        if not ok:
            raise InternalCheckError(f"trace identity failed: {name}")


def snake_sequence(inp: SnakeInput) -> SnakeOutput:
    """Kernels, cokernels, induced maps, delta, and the exactness report.

    The input is validated, and ``Ker w`` and ``Coker u`` are built, once:
    by :func:`connecting_morphism`, whose pullback and pushout keep them.
    """
    delta, trace = connecting_morphism(inp)
    with internal("snake_sequence"):
        ku, kv = kernel(inp.u), kernel(inp.v)
        kw = KernelData(trace.pb.c, inp.w)
        cu = CokernelData(trace.po.a, inp.u)
        cv, cw = cokernel(inp.v), cokernel(inp.w)
        s = kernel_lift(kv, inp.a @ ku.ker_mor)
        t = kernel_lift(kw, inp.c @ kv.ker_mor)
        x = cokernel_colift(cu, cv.coker_mor @ inp.b)
        y = cokernel_colift(cv, cw.coker_mor @ inp.d)
        report = (
            is_exact_pair(s, t),
            is_exact_pair(t, delta),
            is_exact_pair(delta, x),
            is_exact_pair(x, y),
        )
    return SnakeOutput(ker_u=ku, ker_v=kv, ker_w=kw,
                       coker_u=cu, coker_v=cv, coker_w=cw,
                       s=s, t=t, delta=delta, x=x, y=y,
                       exact_report=report, trace=trace)


def chase_delta(inp: SnakeInput) -> Mor:
    """Element-chase oracle for the connecting morphism.

    All basis columns of ``Ker w`` at once: lift along ``c`` (free variables
    zeroed), apply ``v``, solve against the mono ``b``, and project by the
    cokernel of ``u``.  ``a`` is carried beside the lift through the same
    three steps and must come out zero.  Two lifts differ by a column of
    ``Ker c = Im a``, so that proves the result does not depend on the lift.
    """
    validate(inp)
    k = kernel(inp.w).ker_mor.mat
    p = cokernel(inp.u).coker_mor.mat
    lifted = solve(inp.c.mat, k)
    if lifted is None:
        raise InternalCheckError("epi c failed to lift a kernel column")
    pre = solve(inp.b.mat, inp.v.mat @ lifted.hstack(inp.a.mat))
    if pre is None:
        raise InternalCheckError("carried column missed the image of b")
    chased, on_a = (p @ pre).split_cols(k.cols)
    if not on_a.is_zero:
        raise InternalCheckError("chase result depends on the lift choice")
    return Mor(chased)
