"""Executable property suites: every law the library promises, checked on
seeded random instances.

Each ``check_*`` function generates its own instances deterministically from
a seed, verifies one family of laws, and returns a :class:`SuiteResult`
with a case count, counters (how often an antecedent was hit, how the
generated mix split), and the first few failures verbatim.  A case that
raises is one more failure of its suite, never the end of the battery.  The
CLI ``selftest`` command and the acceptance tests both run these suites; the
suites themselves never import test frameworks.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field as dc_field

from .category import (
    Mor,
    Obj,
    biproduct,
    cokernel,
    cokernel_colift,
    identity,
    kernel,
    kernel_lift,
    mono_lift,
)
from .constructions import (
    Factorization,
    epi_mono_factorize,
    is_cokernel_of,
    is_exact_pair,
    is_kernel_of,
    pullback,
    pullback_lift,
    pushout,
    pushout_colift,
    same_subobject,
)
from .diagrams import (
    GenConfig,
    SplitMix64,
    gen_exact_pair,
    gen_morphism,
    gen_semicartesian,
    gen_snake_input,
    rand_dim,
    rand_epi,
    rand_matrix,
    rand_mono,
    rand_mor,
)
from .diagram_io import diagram_for_snake, serialize
from .fields import RATIONALS, ScalarField, prime_field
from .linalg import Matrix, rref, solve
from .snake import (
    SnakeInput,
    connecting_morphism,
    snake_sequence,
    validate,
)
from .squares import (
    Square,
    analyze,
    cokernel_square,
    compose_h,
    decompose_semicartesian,
    kernel_square,
)

_FAILURE_CAP = 8


@dataclass
class SuiteResult:
    """Outcome of one property suite."""

    name: str
    cases: int = 0
    failures: list[str] = dc_field(default_factory=list)
    counters: dict[str, int] = dc_field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures

    def line(self) -> str:
        extras = "".join(f" {k}={v}" for k, v in sorted(self.counters.items()))
        status = "ok" if self.ok else f"FAIL ({len(self.failures)} shown)"
        return f"{self.name}: {status} cases={self.cases}{extras}"

    def bump(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def check(self, cond: bool, msg: str) -> bool:
        if not cond:
            if len(self.failures) < _FAILURE_CAP:
                self.failures.append(msg)
            else:
                self.bump("suppressed_failures")
        return cond


def _run(name: str, cases: int, case: Callable[[SuiteResult, int], None],
         enough: Callable[[SuiteResult], bool] | None = None) -> SuiteResult:
    """Run ``case(rec, i)`` for ``i`` in ``range(cases)``.  A case that
    raises is a failure of its suite, and the next case still runs.  With
    ``enough``, up to ``cases`` more cases run while ``enough(rec)`` is false."""
    rec = SuiteResult(name)
    for i in range(2 * cases if enough else cases):
        if i >= cases and enough(rec):
            break
        rec.cases += 1
        try:
            case(rec, i)
        except Exception as exc:  # noqa: BLE001 - any crash is a finding
            rec.check(False, f"case {i}: unexpected {type(exc).__name__}: {exc}")
    return rec


def _cfg(field: ScalarField, seed: int, max_dim: int = 4) -> GenConfig:
    return GenConfig(seed=seed, field=field, max_dim=max_dim)


# ---------------------------------------------------------------------------
# random builders shared by the suites (beyond the public generators)

def _pullback_square(rng: SplitMix64, cfg: GenConfig,
                     bottom_mono: bool = False) -> Square:
    dim_d = rand_dim(rng, cfg)
    c0 = rand_mor(rng, cfg, rand_dim(rng, cfg), dim_d)
    if bottom_mono:
        d0 = rand_mono(rng, cfg, rng.below(dim_d + 1), dim_d)
    else:
        d0 = rand_mor(rng, cfg, rand_dim(rng, cfg), dim_d)
    pb = pullback(c0, d0)
    return Square(pb.f, pb.g, c0, d0)


def _pushout_square(rng: SplitMix64, cfg: GenConfig, top_epi: bool = False) -> Square:
    dim_a = rand_dim(rng, cfg)
    if top_epi:
        f0 = rand_epi(rng, cfg, dim_a, rng.below(dim_a + 1))
    else:
        f0 = rand_mor(rng, cfg, dim_a, rand_dim(rng, cfg))
    g0 = rand_mor(rng, cfg, dim_a, rand_dim(rng, cfg))
    po = pushout(f0, g0)
    return Square(f0, g0, po.r, po.s)


def _square_left(rng: SplitMix64, cfg: GenConfig, v: Mor, mode: str) -> Square:
    """A commuting square with prescribed left vertical ``v``.

    The pair (right, bottom) always factors through the pushout of
    (top, v) by a unique map, so choosing that map directly controls the
    square: "mono" makes it semi-cartesian, "iso" cocartesian, "deficient"
    not semi-cartesian (the pushout corner is forced nonzero by taking the
    top's target one bigger than its source), "any" is unconstrained.
    """
    if mode == "deficient":
        top = rand_mor(rng, cfg, v.src.dim, v.src.dim + 1)
    else:
        top = rand_mor(rng, cfg, v.src.dim, rand_dim(rng, cfg))
    po = pushout(top, v)
    dim_s = po.s_obj.dim
    if mode == "mono":
        mu = rand_mono(rng, cfg, dim_s, dim_s + rng.below(3))
    elif mode == "iso":
        mu = identity(po.s_obj)
    elif mode == "deficient":
        red = rand_mor(rng, cfg, dim_s, dim_s - 1)
        out = rand_mor(rng, cfg, dim_s - 1, rand_dim(rng, cfg, min_dim=1))
        mu = out @ red
    elif mode == "any":
        mu = rand_mor(rng, cfg, dim_s, rand_dim(rng, cfg))
    else:
        raise ValueError(mode)
    return Square(top, v, mu @ po.r, mu @ po.s)


def _square_right(rng: SplitMix64, cfg: GenConfig, v: Mor, mode: str) -> Square:
    """Dual of :func:`_square_left`: prescribed right vertical ``v``, with
    the comparison into the fiber product chosen per ``mode``."""
    if mode == "deficient":
        bottom = rand_mor(rng, cfg, v.dst.dim + 1, v.dst.dim)
    else:
        bottom = rand_mor(rng, cfg, rand_dim(rng, cfg), v.dst.dim)
    pb = pullback(v, bottom)
    dim_p = pb.p_obj.dim
    if mode == "epi":
        e = rand_epi(rng, cfg, dim_p + rng.below(3), dim_p)
    elif mode == "iso":
        e = identity(pb.p_obj)
    elif mode == "deficient":
        pre = rand_mor(rng, cfg, rand_dim(rng, cfg, min_dim=1), dim_p - 1)
        emb = rand_mor(rng, cfg, dim_p - 1, dim_p)
        e = emb @ pre
    elif mode == "any":
        e = rand_mor(rng, cfg, rand_dim(rng, cfg), dim_p)
    else:
        raise ValueError(mode)
    return Square(pb.f @ e, pb.g @ e, v, bottom)


def _epi_horizontal_square(rng: SplitMix64, cfg: GenConfig) -> Square:
    """Both horizontals epi; semi-cartesianness unconstrained.

    Built by solving bottom @ left = right @ top for left, which is always
    consistent because the bottom is epi.
    """
    dim_a = rand_dim(rng, cfg, min_dim=0)
    top = rand_epi(rng, cfg, dim_a, rng.below(dim_a + 1))
    dim_c = rand_dim(rng, cfg)
    bottom = rand_epi(rng, cfg, dim_c, rng.below(dim_c + 1))
    right = rand_mor(rng, cfg, top.dst.dim, bottom.dst.dim)
    lmat = solve(bottom.mat, (right @ top).mat)
    left = Mor(lmat)
    return Square(top, left, right, bottom)


def _mono_horizontal_square_on(rng: SplitMix64, cfg: GenConfig, v: Mor) -> Square:
    """Both horizontals mono, prescribed left vertical ``v``.

    The right vertical solves right @ top = bottom @ v (consistent since
    the top is mono), randomized by anything vanishing on the top's image.
    """
    top = rand_mono(rng, cfg, v.src.dim, v.src.dim + rng.below(3))
    bottom = rand_mono(rng, cfg, v.dst.dim, v.dst.dim + rng.below(3))
    rt = solve(top.mat.transpose(), ((bottom @ v).mat).transpose())
    base = Mor(rt.transpose())
    ck = cokernel(top)
    wiggle = rand_mor(rng, cfg, ck.coker_obj.dim, bottom.dst.dim) @ ck.coker_mor
    return Square(top, v, base + wiggle, bottom)


def _rand_vertical(rng: SplitMix64, cfg: GenConfig) -> Mor:
    return rand_mor(rng, cfg, rand_dim(rng, cfg), rand_dim(rng, cfg))


# ---------------------------------------------------------------------------
# exact linear algebra self-consistency

def check_linalg(cases: int, seed: int, field: ScalarField) -> SuiteResult:
    rng = SplitMix64(seed).derive(10)
    cfg = _cfg(field, seed, max_dim=5)
    def case(rec: SuiteResult, i: int) -> None:
        m = rand_matrix(rng, cfg, rand_dim(rng, cfg), rand_dim(rng, cfg))
        r, pivots, rnk = rref(m)
        rec.check(rref(r)[0] == r, f"case {i}: rref not idempotent")
        rec.check(rnk == len(pivots) <= min(m.rows, m.cols) or m.rows * m.cols == 0,
                  f"case {i}: rank bookkeeping off")
        ns = m.kernel_basis
        rec.check(ns.cols == m.cols - rnk, f"case {i}: nullity mismatch")
        rec.check((m @ ns).is_zero, f"case {i}: nullspace columns not killed")
        rec.check(ns.echelon[2] == ns.cols, f"case {i}: nullspace basis dependent")
        x0 = rand_matrix(rng, cfg, m.cols, 1)
        b = m @ x0
        x = solve(m, b)
        if rec.check(x is not None, f"case {i}: consistent system declared unsolvable"):
            rec.check(m @ x == b, f"case {i}: solve returned a non-solution")
    return _run(f"linalg[{field}]", cases, case)


# ---------------------------------------------------------------------------
# foundations: factorization uniqueness, kernel/cokernel recognition,
# quotient stability, kernel restriction, mono+epi=iso, biproduct identities

def _alt_factorize(f: Mor) -> Factorization:
    # independent image basis: greedy column scan right to left
    kept: list[int] = []
    for c in reversed(range(f.mat.cols)):
        if f.mat.take_columns([*kept, c]).echelon[2] > len(kept):
            kept.append(c)
    mono_mat = f.mat.take_columns(kept)
    return Factorization(Mor(solve(mono_mat, f.mat)), Mor(mono_mat))


def check_factorization(cases: int, seed: int, field: ScalarField) -> SuiteResult:
    rng = SplitMix64(seed).derive(11)
    cfg = _cfg(field, seed, max_dim=5)
    def case(rec: SuiteResult, i: int) -> None:
        f = _rand_vertical(rng, cfg)
        can = epi_mono_factorize(f)
        rec.check(can.mono_m @ can.epi_q == f, f"case {i}: factors do not compose to f")
        rec.check(can.epi_q.is_epi and can.mono_m.is_mono,
                  f"case {i}: factor flags wrong")
        rec.check(can.mono_m.src.dim == f.rank, f"case {i}: image dimension off")
        alt = _alt_factorize(f)
        rec.check(alt.mono_m @ alt.epi_q == f, f"case {i}: alternative factorization broken")
        h = mono_lift(alt.mono_m, can.mono_m)
        rec.check(h.is_iso, f"case {i}: image comparison not an isomorphism")
        rec.check(h @ can.epi_q == alt.epi_q,
                  f"case {i}: comparison does not intertwine the epi parts")
        rec.check(same_subobject(can.mono_m, alt.mono_m),
                  f"case {i}: the two images differ as subobjects")
    return _run(f"foundations.factorization[{field}]", cases, case)


def check_lemma_kernel_cokernel(cases: int, seed: int, field: ScalarField) -> SuiteResult:
    """Epis are cokernels of their kernels; monos are kernels of their
    cokernels."""
    rng = SplitMix64(seed).derive(12)
    cfg = _cfg(field, seed, max_dim=5)
    def case(rec: SuiteResult, i: int) -> None:
        dim_b = rand_dim(rng, cfg)
        q = rand_epi(rng, cfg, dim_b + rng.below(3), dim_b)
        n = kernel(q).ker_mor
        rec.check(is_cokernel_of(q, n), f"case {i}: epi is not a cokernel of its kernel")
        dim_a = rand_dim(rng, cfg)
        m = rand_mono(rng, cfg, dim_a, dim_a + rng.below(3))
        p = cokernel(m).coker_mor
        rec.check(is_kernel_of(m, p), f"case {i}: mono is not a kernel of its cokernel")
    return _run(f"foundations.kernel_cokernel[{field}]", cases, case)


def check_quotient_stability(cases: int, seed: int, field: ScalarField) -> SuiteResult:
    """Precomposing with an epi keeps the cokernel; postcomposing with a
    mono keeps the kernel, canonically on the nose."""
    rng = SplitMix64(seed).derive(13)
    cfg = _cfg(field, seed, max_dim=4)
    def case(rec: SuiteResult, i: int) -> None:
        dim_b = rand_dim(rng, cfg)
        e = rand_epi(rng, cfg, dim_b + rng.below(3), dim_b)
        f = rand_mor(rng, cfg, dim_b, rand_dim(rng, cfg))
        rec.check(cokernel(f @ e).coker_mor.mat == cokernel(f).coker_mor.mat,
                  f"case {i}: cokernel changed under epi precomposition")
        rec.check(is_cokernel_of(cokernel(f).coker_mor, f @ e),
                  f"case {i}: cokernel comparison not iso under epi precomposition")
        dim_c = rand_dim(rng, cfg)
        m = rand_mono(rng, cfg, dim_c, dim_c + rng.below(3))
        g = rand_mor(rng, cfg, rand_dim(rng, cfg), dim_c)
        rec.check(kernel(m @ g).ker_mor.mat == kernel(g).ker_mor.mat,
                  f"case {i}: kernel changed under mono postcomposition")
        rec.check(is_kernel_of(kernel(g).ker_mor, m @ g),
                  f"case {i}: kernel comparison not iso under mono postcomposition")
    return _run(f"foundations.quotient_stability[{field}]", cases, case)


def check_kernel_restriction(cases: int, seed: int, field: ScalarField) -> SuiteResult:
    """If b @ a embeds the kernel of c and b is mono, then a embeds the
    kernel of c @ b."""
    rng = SplitMix64(seed).derive(14)
    cfg = _cfg(field, seed, max_dim=4)
    def case(rec: SuiteResult, i: int) -> None:
        dim_b = rand_dim(rng, cfg)
        c0 = rand_mor(rng, cfg, dim_b, rand_dim(rng, cfg))
        k = kernel(c0).ker_mor
        extra = rng.below(dim_b - k.src.dim + 1)
        b = None
        for _ in range(40):
            cand = Mor(k.mat.hstack(rand_matrix(rng, cfg, dim_b, extra)))
            if cand.is_mono:
                b = cand
                break
        if b is None:
            rec.bump("mono_padding_skipped")
            return
        a = mono_lift(b, k)
        rec.check(is_kernel_of(a, c0 @ b),
                  f"case {i}: restricted map is not the kernel of c after b")
    return _run(f"foundations.kernel_restriction[{field}]", cases, case)


def check_mono_epi_iso(cases: int, seed: int, field: ScalarField) -> SuiteResult:
    rng = SplitMix64(seed).derive(15)
    cfg = _cfg(field, seed, max_dim=5)
    def case(rec: SuiteResult, i: int) -> None:
        f = _rand_vertical(rng, cfg)
        rec.check(f.is_iso == (f.is_mono and f.is_epi),
                  f"case {i}: iso flag disagrees with mono+epi")
        if f.is_iso:
            rec.bump("isos")
            inv = mono_lift(f, identity(f.dst))
            rec.check(f @ inv == identity(f.dst) and inv @ f == identity(f.src),
                      f"case {i}: two-sided inverse failed")
    return _run(f"foundations.mono_epi_iso[{field}]", cases, case)


def check_biproduct(cases: int, seed: int, field: ScalarField) -> SuiteResult:
    rng = SplitMix64(seed).derive(16)
    cfg = _cfg(field, seed, max_dim=5)
    def case(rec: SuiteResult, i: int) -> None:
        a = Obj(rand_dim(rng, cfg), field)
        b = Obj(rand_dim(rng, cfg), field)
        bp = biproduct(a, b)
        rec.check(bp.proj_p @ bp.ins_i == identity(a), f"case {i}: p i != 1")
        rec.check((bp.proj_q @ bp.ins_i).is_zero, f"case {i}: q i != 0")
        rec.check((bp.proj_p @ bp.ins_j).is_zero, f"case {i}: p j != 0")
        rec.check(bp.proj_q @ bp.ins_j == identity(b), f"case {i}: q j != 1")
        rec.check(bp.ins_i @ bp.proj_p + bp.ins_j @ bp.proj_q == identity(bp.sum_obj),
                  f"case {i}: i p + j q != 1")
    return _run(f"foundations.biproduct[{field}]", cases, case)


def check_universal_lifts(cases: int, seed: int, field: ScalarField) -> SuiteResult:
    """Kernel/cokernel lifts and pullback/pushout (co)lifts hit their
    defining identities and are unique."""
    rng = SplitMix64(seed).derive(17)
    cfg = _cfg(field, seed, max_dim=4)
    def case(rec: SuiteResult, i: int) -> None:
        u = _rand_vertical(rng, cfg)
        kd = kernel(u)
        t = kd.ker_mor @ rand_mor(rng, cfg, rand_dim(rng, cfg), kd.ker_obj.dim)
        s = kernel_lift(kd, t)
        rec.check(kd.ker_mor @ s == t, f"case {i}: kernel lift identity failed")
        cd = cokernel(u)
        t2 = rand_mor(rng, cfg, cd.coker_obj.dim, rand_dim(rng, cfg)) @ cd.coker_mor
        s2 = cokernel_colift(cd, t2)
        rec.check(s2 @ cd.coker_mor == t2, f"case {i}: cokernel colift identity failed")

        c0 = _rand_vertical(rng, cfg)
        d0 = rand_mor(rng, cfg, rand_dim(rng, cfg), c0.dst.dim)
        pb = pullback(c0, d0)
        rec.check(pb.c @ pb.f == pb.d @ pb.g, f"case {i}: pullback square broken")
        z = rand_mor(rng, cfg, rand_dim(rng, cfg), pb.p_obj.dim)
        e = pullback_lift(pb, pb.f @ z, pb.g @ z)
        rec.check(e == z, f"case {i}: pullback lift not unique")

        a0 = _rand_vertical(rng, cfg)
        b0 = rand_mor(rng, cfg, a0.src.dim, rand_dim(rng, cfg))
        po = pushout(a0, b0)
        rec.check(po.r @ a0 == po.s @ b0, f"case {i}: pushout square broken")
        w = rand_mor(rng, cfg, po.s_obj.dim, rand_dim(rng, cfg))
        m = pushout_colift(po, w @ po.r, w @ po.s)
        rec.check(m == w, f"case {i}: pushout colift not unique")

        f0 = _rand_vertical(rng, cfg)
        rec.check(is_exact_pair(f0, cokernel(f0).coker_mor),
                  f"case {i}: (f, coker f) not exact")
        rec.check(is_exact_pair(kernel(f0).ker_mor, f0),
                  f"case {i}: (ker f, f) not exact")
    return _run(f"foundations.universal_lifts[{field}]", cases, case)


# ---------------------------------------------------------------------------
# squares

_MIX_MODES = ("universal", "pullback", "pushout", "epi", "iso", "deficient",
              "left_mono", "left_deficient", "epi_horizontal")


def _mixed_square(rng: SplitMix64, cfg: GenConfig,
                  mode: str | None = None) -> tuple[str, Square]:
    if mode is None:
        mode = rng.choice(_MIX_MODES)
    if mode == "universal":  # a cospan, then any map into its fiber product
        return mode, _square_right(rng, cfg, _rand_vertical(rng, cfg), "any")
    if mode == "pullback":
        return mode, _pullback_square(rng, cfg)
    if mode == "pushout":
        return mode, _pushout_square(rng, cfg)
    if mode in ("epi", "iso", "deficient"):
        return mode, _square_right(rng, cfg, _rand_vertical(rng, cfg), mode)
    if mode == "left_mono":
        return mode, _square_left(rng, cfg, _rand_vertical(rng, cfg), "mono")
    if mode == "left_deficient":
        return mode, _square_left(rng, cfg, _rand_vertical(rng, cfg), "deficient")
    return mode, _epi_horizontal_square(rng, cfg)


def check_square_equivalence(cases: int, seed: int, field: ScalarField) -> SuiteResult:
    """The four semi-cartesian conditions agree on a mixed population, and
    the analysis arrows satisfy their defining identities."""
    rng = SplitMix64(seed).derive(20)
    cfg = _cfg(field, seed, max_dim=4)
    def case(rec: SuiteResult, i: int) -> None:
        # first sweep covers every family once; after that, draw at random
        forced = _MIX_MODES[i] if i < len(_MIX_MODES) else None
        mode, sq = _mixed_square(rng, cfg, mode=forced)
        res = analyze(sq)  # raises if conditions (i)-(iv) disagree
        rec.bump("semicartesian" if res.is_semicartesian else "not_semicartesian")
        rec.check(sq.top == res.pb.f @ res.e and sq.left == res.pb.g @ res.e,
                  f"case {i} [{mode}]: comparison e identities failed")
        rec.check(sq.right == res.m @ res.po.r and sq.bottom == res.m @ res.po.s,
                  f"case {i} [{mode}]: comparison m identities failed")
        if res.is_cartesian or res.is_cocartesian:
            rec.check(res.is_semicartesian,
                      f"case {i} [{mode}]: (co)cartesian but not semi-cartesian")
    rec = _run(f"squares.equivalence[{field}]", cases, case)
    if cases >= len(_MIX_MODES):
        for side in ("semicartesian", "not_semicartesian"):
            rec.check(rec.counters.get(side, 0) > 0,
                      f"mixed population never hit {side}")
    return rec


def check_square_mono_epi(cases: int, seed: int, field: ScalarField) -> SuiteResult:
    """Semi-cartesian with mono top: bottom mono and square cartesian.
    Semi-cartesian with epi bottom: top epi and square cocartesian."""
    rng = SplitMix64(seed).derive(21)
    cfg = _cfg(field, seed, max_dim=4)
    def case(rec: SuiteResult, i: int) -> None:
        kind = i % 3
        if kind == 0:
            # mono bottom pulls back to a mono top: a guaranteed antecedent
            sq = _pullback_square(rng, cfg, bottom_mono=True)
        elif kind == 1:
            # epi top pushes out to an epi bottom: a guaranteed antecedent
            sq = _pushout_square(rng, cfg, top_epi=True)
        else:
            _, sq = _mixed_square(rng, cfg)
        res = analyze(sq)
        if not res.is_semicartesian:
            rec.bump("skipped_not_semicartesian")
            return
        if sq.top.is_mono:
            rec.bump("mono_top_hits")
            rec.check(sq.bottom.is_mono,
                      f"case {i}: mono top but bottom not mono")
            rec.check(res.is_cartesian,
                      f"case {i}: mono top but square not cartesian")
        if sq.bottom.is_epi:
            rec.bump("epi_bottom_hits")
            rec.check(sq.top.is_epi,
                      f"case {i}: epi bottom but top not epi")
            rec.check(res.is_cocartesian,
                      f"case {i}: epi bottom but square not cocartesian")
    rec = _run(f"squares.mono_epi[{field}]", cases, case)
    # every case of kind 0 hits a mono top and every case of kind 1 an epi bottom
    rec.check(rec.counters.get("mono_top_hits", 0) >= (cases + 2) // 3,
              "too few mono-top hits")
    rec.check(rec.counters.get("epi_bottom_hits", 0) >= (cases + 1) // 3,
              "too few epi-bottom hits")
    return rec


def check_square_composition(cases: int, seed: int, field: ScalarField) -> SuiteResult:
    """Closure under horizontal composition, both cancellation laws (via
    their contrapositives on constructed families), and the two
    cocartesian/cartesian transfer equivalences."""
    rng = SplitMix64(seed).derive(22)
    cfg = _cfg(field, seed, max_dim=3)
    def case(rec: SuiteResult, i: int) -> None:
        v = _rand_vertical(rng, cfg)

        # closure: semi-cartesian o semi-cartesian is semi-cartesian
        k1 = _square_right(rng, cfg, v, "epi" if rng.below(2) else "iso")
        l1 = _square_left(rng, cfg, v, "mono" if rng.below(2) else "iso")
        rec.check(analyze(compose_h(k1, l1)).is_semicartesian,
                  f"case {i}: closure failed")
        rec.bump("closure_pairs")

        # epi-K left cancellation, contrapositive: K epi-horizontal and
        # L not semi-cartesian force KL not semi-cartesian
        k2 = _epi_horizontal_square(rng, cfg)
        l2 = _square_left(rng, cfg, k2.right, "deficient")
        rec.check(not analyze(l2).is_semicartesian,
                  f"case {i}: deficient-left recipe produced a semi-cartesian square")
        rec.check(not analyze(compose_h(k2, l2)).is_semicartesian,
                  f"case {i}: epi-K composed with non-semi-cartesian L is semi-cartesian")
        rec.bump("epi_cancel_pairs")

        # mono-L right cancellation, contrapositive
        v2 = _rand_vertical(rng, cfg)
        k3 = _square_right(rng, cfg, v2, "deficient")
        l3 = _mono_horizontal_square_on(rng, cfg, v2)
        rec.check(not analyze(k3).is_semicartesian,
                  f"case {i}: deficient-right recipe produced a semi-cartesian square")
        rec.check(not analyze(compose_h(k3, l3)).is_semicartesian,
                  f"case {i}: non-semi-cartesian K composed with mono-L is semi-cartesian")
        rec.bump("mono_cancel_pairs")

        # cocartesian K transfers semi-cartesianness across the composite
        k4 = _pushout_square(rng, cfg)
        l4 = _square_left(rng, cfg, k4.right,
                          ("mono", "deficient", "any")[rng.below(3)])
        lhs = analyze(compose_h(k4, l4)).is_semicartesian
        rhs = analyze(l4).is_semicartesian
        rec.check(lhs == rhs, f"case {i}: cocartesian-K transfer failed")

        # cartesian L transfers semi-cartesianness across the composite
        l5 = _pullback_square(rng, cfg)
        k5 = _square_right(rng, cfg, l5.left,
                           ("epi", "deficient", "any")[rng.below(3)])
        lhs = analyze(compose_h(k5, l5)).is_semicartesian
        rhs = analyze(k5).is_semicartesian
        rec.check(lhs == rhs, f"case {i}: cartesian-L transfer failed")
    return _run(f"squares.composition[{field}]", cases, case)


def check_decomposition(cases: int, seed: int, field: ScalarField) -> SuiteResult:
    rng = SplitMix64(seed).derive(23)
    cfg = _cfg(field, seed, max_dim=4)
    def case(rec: SuiteResult, i: int) -> None:
        pick = i % 4
        if pick == 0:
            sq = _square_right(rng, cfg, _rand_vertical(rng, cfg), "epi")
        elif pick == 1:
            sq = _square_right(rng, cfg, _rand_vertical(rng, cfg), "iso")
        elif pick == 2:
            sq = _square_left(rng, cfg, _rand_vertical(rng, cfg), "mono")
        else:
            sq = _pushout_square(rng, cfg)
        first, second = decompose_semicartesian(sq)  # raises unless they recompose to sq
        rec.check(first.top.is_epi and first.bottom.is_epi,
                  f"case {i}: first factor horizontals not epi")
        rec.check(second.top.is_mono and second.bottom.is_mono,
                  f"case {i}: second factor horizontals not mono")
        rec.check(analyze(first).is_cocartesian,
                  f"case {i}: first factor not cocartesian")
        rec.check(analyze(second).is_cartesian,
                  f"case {i}: second factor not cartesian")
    return _run(f"squares.decomposition[{field}]", cases, case)


def check_kernel_cokernel_squares(cases: int, seed: int, field: ScalarField) -> SuiteResult:
    """Componentwise kernel and cokernel squares: the four implications,
    plus the componentwise kernel/cokernel property itself."""
    rng = SplitMix64(seed).derive(24)
    cfg = _cfg(field, seed, max_dim=4)
    def case(rec: SuiteResult, i: int) -> None:

        # (a) mono right vertical makes the kernel square cartesian
        dim_d = rand_dim(rng, cfg)
        vr = rand_mono(rng, cfg, rng.below(dim_d + 1), dim_d)
        la = _square_right(rng, cfg, vr, "any")
        ksq = kernel_square(la)
        rec.check(is_kernel_of(ksq.top, la.top) and is_kernel_of(ksq.bottom, la.bottom),
                  f"case {i}: kernel square components are not kernels")
        rec.check(analyze(ksq).is_cartesian,
                  f"case {i}: mono right vertical but kernel square not cartesian")

        # (b) semi-cartesian square: induced map between kernels is epi
        lb = _square_right(rng, cfg, _rand_vertical(rng, cfg),
                           "epi" if rng.below(2) else "iso")
        rec.check(kernel_square(lb).left.is_epi,
                  f"case {i}: semi-cartesian but kernel comparison not epi")

        # (c) epi left vertical makes the cokernel square cocartesian
        dim_a = rand_dim(rng, cfg)
        vl = rand_epi(rng, cfg, dim_a, rng.below(dim_a + 1))
        kc = _square_left(rng, cfg, vl, "any")
        csq = cokernel_square(kc)
        rec.check(is_cokernel_of(csq.top, kc.top) and is_cokernel_of(csq.bottom, kc.bottom),
                  f"case {i}: cokernel square components are not cokernels")
        rec.check(analyze(csq).is_cocartesian,
                  f"case {i}: epi left vertical but cokernel square not cocartesian")

        # (d) semi-cartesian square: induced map between cokernels is mono
        kd = _square_left(rng, cfg, _rand_vertical(rng, cfg),
                          "mono" if rng.below(2) else "iso")
        rec.check(cokernel_square(kd).right.is_mono,
                  f"case {i}: semi-cartesian but cokernel comparison not mono")
    return _run(f"squares.kernel_cokernel[{field}]", cases, case)


# ---------------------------------------------------------------------------
# exactness transport and kernel/cokernel functor exactness

def check_transport(cases: int, seed: int, field: ScalarField) -> SuiteResult:
    """Across a composable pair of squares with the second semi-cartesian:
    an exact top row with vanishing bottom composite forces the bottom row
    exact; dually with the first square semi-cartesian."""
    rng = SplitMix64(seed).derive(25)
    cfg = _cfg(field, seed, max_dim=3)
    def case(rec: SuiteResult, i: int) -> None:

        # forward: L semi-cartesian, (a, c) exact, d b = 0  =>  (b, d) exact
        dim_b = rand_dim(rng, cfg)
        c0 = rand_mor(rng, cfg, dim_b, rand_dim(rng, cfg))
        km = kernel(c0).ker_mor
        a0 = km @ rand_epi(rng, cfg, km.src.dim + rng.below(3), km.src.dim)
        v = rand_mor(rng, cfg, dim_b, rand_dim(rng, cfg))
        po = pushout(c0, v)
        mu = rand_mono(rng, cfg, po.s_obj.dim, po.s_obj.dim + rng.below(3))
        lsq = Square(c0, v, mu @ po.r, mu @ po.s)
        d = lsq.bottom
        ks = kernel(po.s)
        phi = mono_lift(ks.ker_mor, v @ a0)
        beta = rand_epi(rng, cfg, ks.ker_obj.dim + rng.below(3), ks.ker_obj.dim)
        b0 = ks.ker_mor @ beta
        u0 = Mor(solve(beta.mat, phi.mat))
        ksq = Square(a0, u0, v, b0)
        rec.check(analyze(lsq).is_semicartesian, f"case {i}: fwd setup L not semi-cartesian")
        rec.check(is_exact_pair(a0, c0), f"case {i}: fwd setup top row not exact")
        rec.check((d @ b0).is_zero, f"case {i}: fwd setup bottom composite nonzero")
        rec.check(ksq.right @ ksq.top == ksq.bottom @ ksq.left,
                  f"case {i}: fwd setup K does not commute")
        rec.check(is_exact_pair(b0, d), f"case {i}: bottom row failed to become exact")
        rec.bump("forward")

        # dual: K semi-cartesian, (b, d) exact, c a = 0  =>  (a, c) exact
        dim_b2 = rand_dim(rng, cfg)
        d0 = rand_mor(rng, cfg, dim_b2, rand_dim(rng, cfg))
        kb = kernel(d0).ker_mor
        b1 = kb @ rand_epi(rng, cfg, kb.src.dim + rng.below(3), kb.src.dim)
        v1 = rand_mor(rng, cfg, rand_dim(rng, cfg), dim_b2)
        pbk = pullback(v1, b1)
        e1 = rand_epi(rng, cfg, pbk.p_obj.dim + rng.below(3), pbk.p_obj.dim)
        a1 = pbk.f @ e1
        u1 = pbk.g @ e1
        ksq2 = Square(a1, u1, v1, b1)
        qa = cokernel(a1)
        gamma = rand_mono(rng, cfg, qa.coker_obj.dim, qa.coker_obj.dim + rng.below(3))
        c1 = gamma @ qa.coker_mor
        wt = solve(c1.mat.transpose(), ((d0 @ v1).mat).transpose())
        if not rec.check(wt is not None, f"case {i}: dual setup right vertical missing"):
            return
        w1 = Mor(wt.transpose())
        lsq2 = Square(c1, v1, w1, d0)
        rec.check(analyze(ksq2).is_semicartesian, f"case {i}: dual setup K not semi-cartesian")
        rec.check(is_exact_pair(b1, d0), f"case {i}: dual setup bottom row not exact")
        rec.check((c1 @ a1).is_zero, f"case {i}: dual setup top composite nonzero")
        rec.check(lsq2.right @ lsq2.top == lsq2.bottom @ lsq2.left,
                  f"case {i}: dual setup L does not commute")
        rec.check(is_exact_pair(a1, c1), f"case {i}: top row failed to become exact")
        rec.bump("dual")
    return _run(f"transport[{field}]", cases, case)


def check_ker_coker_exactness(cases: int, seed: int, field: ScalarField) -> SuiteResult:
    """On ladders with short exact rows: the kernel sequence starts mono,
    the cokernel sequence ends epi, and the alternating dimension sum
    vanishes.  ``snake_sequence`` itself checks exactness in the middle."""
    base = SplitMix64(seed).derive(26)
    def case(rec: SuiteResult, i: int) -> None:
        cfg = GenConfig(seed=base.next_u64(), field=field, max_dim=4)
        inp = gen_snake_input(cfg, short_exact_rows=True)
        out = snake_sequence(inp)
        rec.check(out.s.is_mono, f"case {i}: induced kernel sequence does not start mono")
        rec.check(out.y.is_epi, f"case {i}: induced cokernel sequence does not end epi")
        dims = (out.ker_u.ker_obj.dim - out.ker_v.ker_obj.dim + out.ker_w.ker_obj.dim
                - out.coker_u.coker_obj.dim + out.coker_v.coker_obj.dim
                - out.coker_w.coker_obj.dim)
        rec.check(dims == 0, f"case {i}: alternating dimension sum {dims} != 0")
    return _run(f"ker_coker_exactness[{field}]", cases, case)


# ---------------------------------------------------------------------------
# snake lemma

def check_snake(cases: int, seed: int, field: ScalarField) -> SuiteResult:
    """The six-term sequence and the dimension audit on generated ladders.

    ``snake_sequence`` itself checks exactness, naturality, the trace
    identities and delta against the chase; a case where one fails raises,
    which is a failure of this suite."""
    base = SplitMix64(seed).derive(27)
    def case(rec: SuiteResult, i: int) -> None:
        cfg = GenConfig(seed=base.next_u64(), field=field, max_dim=4)
        inp = gen_snake_input(cfg, short_exact_rows=(i % 5 == 0))
        out = snake_sequence(inp)
        rec.bump("delta_nonzero" if not out.delta.is_zero else "delta_zero")

        # the alternating sum equals dim Ker(a) - dim Coker(d); it is zero
        # exactly on short-exact-rows ladders
        dims = (out.ker_u.ker_obj.dim - out.ker_v.ker_obj.dim + out.ker_w.ker_obj.dim
                - out.coker_u.coker_obj.dim + out.coker_v.coker_obj.dim
                - out.coker_w.coker_obj.dim)
        expected = (inp.a.src.dim - inp.a.rank) - (inp.d.dst.dim - inp.d.rank)
        rec.check(dims == expected,
                  f"case {i}: dimension audit {dims} != {expected}")
        if inp.a.is_mono and inp.d.is_epi:
            rec.bump("short_exact_rows")
            rec.check(dims == 0, f"case {i}: short exact rows but sum {dims} != 0")
    # a few ladders can all have a zero connecting morphism by chance, so
    # more are drawn from the same stream until one does not
    rec = _run(f"snake[{field}]", cases, case,
               enough=lambda rec: "delta_nonzero" in rec.counters)
    rec.check(rec.counters.get("delta_nonzero", 0) > 0, "delta was always zero")
    return rec


def _pin_ladder(field: ScalarField) -> SnakeInput:
    """The worked ladder rebuilt over ``field``: its connecting morphism has
    rank 1, so the oracle suite always compares a nonzero one."""

    def mor(rows: list[list[int]]) -> Mor:
        return Mor(Matrix.from_int_rows(field, rows))

    return validate(SnakeInput(
        a=mor([[1], [0]]), c=mor([[0, 1]]),
        u=mor([[0]]), v=mor([[0, 1], [0, 0]]),
        w=mor([[0]]),
        b=mor([[1], [0]]), d=mor([[0, 1]])))


def check_snake_oracle(cases: int, seed: int, field: ScalarField) -> SuiteResult:
    """The categorical connecting morphism against the element chase: they
    are equal on every ladder, with sign +1.  ``connecting_morphism`` makes
    the comparison and raises on a mismatch, which is a failure of this
    suite.  Case 0 is a fixed ladder whose connecting morphism is nonzero,
    so at least one nonzero pair is always compared."""
    base = SplitMix64(seed).derive(28)
    def case(rec: SuiteResult, i: int) -> None:
        if i == 0:
            inp = _pin_ladder(field)
        else:
            cfg = GenConfig(seed=base.next_u64(), field=field, max_dim=4)
            inp = gen_snake_input(cfg, short_exact_rows=(i % 4 == 0))
        delta, _ = connecting_morphism(inp)
        rec.bump("zero" if delta.is_zero else "pinned_plus")
    rec = _run(f"snake.oracle[{field}]", cases, case)
    rec.check("pinned_plus" in rec.counters, "no nonzero delta was compared")
    return rec


def worked_example_input() -> SnakeInput:
    """The hand-checkable ladder over the rationals used as a fixed point:
    both rows are the standard inclusion/projection through the plane and
    the middle vertical shifts coordinates."""
    return _pin_ladder(RATIONALS)


def check_worked_example() -> SuiteResult:
    """Frozen expectations for the worked ladder: boundary map ranks
    (1, 0, 1, 0, 1) and an invertible connecting morphism.  Exactness and
    the chase are checked by ``snake_sequence`` itself."""
    def case(rec: SuiteResult, i: int) -> None:
        out = snake_sequence(worked_example_input())
        got = (out.s.rank, out.t.rank, out.delta.rank, out.x.rank, out.y.rank)
        rec.check(got == (1, 0, 1, 0, 1), f"ranks {got} != (1, 0, 1, 0, 1)")
        rec.check(out.delta.is_iso, "connecting morphism is not invertible")
    return _run("snake.worked_example", 1, case)


# ---------------------------------------------------------------------------
# generators

def check_generator_determinism(cases: int, seed: int, field: ScalarField) -> SuiteResult:
    rng = SplitMix64(seed).derive(29)
    saw_difference = False
    def case(rec: SuiteResult, i: int) -> None:
        nonlocal saw_difference
        s = rng.next_u64()
        cfg1 = GenConfig(seed=s, field=field, max_dim=4)
        cfg2 = GenConfig(seed=s, field=field, max_dim=4)
        rec.check(gen_morphism(cfg1) == gen_morphism(cfg2),
                  f"case {i}: gen_morphism not deterministic")
        rec.check(gen_exact_pair(cfg1) == gen_exact_pair(cfg2),
                  f"case {i}: gen_exact_pair not deterministic")
        rec.check(gen_semicartesian(cfg1) == gen_semicartesian(cfg2),
                  f"case {i}: gen_semicartesian not deterministic")
        one = gen_snake_input(cfg1)
        two = gen_snake_input(cfg2)
        rec.check(one == two, f"case {i}: gen_snake_input not deterministic")
        rec.check(serialize(diagram_for_snake(one)) == serialize(diagram_for_snake(two)),
                  f"case {i}: serialization not byte-stable")
        other = GenConfig(seed=s + 1, field=field, max_dim=4)
        if gen_morphism(other) != gen_morphism(cfg1):
            saw_difference = True
    rec = _run(f"generators.determinism[{field}]", cases, case)
    rec.check(saw_difference, "neighboring seeds never produced different output")
    return rec


def check_generator_validity(cases: int, seed: int, field: ScalarField) -> SuiteResult:
    """Generated objects really have their advertised structure."""
    rng = SplitMix64(seed).derive(30)
    def case(rec: SuiteResult, i: int) -> None:
        s = rng.next_u64()
        cfg = GenConfig(seed=s, field=field, max_dim=4)
        f, g = gen_exact_pair(cfg)
        rec.check(is_exact_pair(f, g), f"case {i}: generated pair not exact")
        sq = gen_semicartesian(cfg, "epi")
        rec.check(analyze(sq).is_semicartesian,
                  f"case {i}: epi variant not semi-cartesian")
        sq = gen_semicartesian(cfg, "cartesian")
        rec.check(analyze(sq).is_cartesian, f"case {i}: cartesian variant not cartesian")
        sq = gen_semicartesian(cfg, "deficient")
        rec.check(not analyze(sq).is_semicartesian,
                  f"case {i}: deficient variant is semi-cartesian")
        gen_snake_input(cfg)  # validate() raises on malformed rows
    return _run(f"generators.validity[{field}]", cases, case)


def check_generator_coverage(samples: int, seed: int, field: ScalarField) -> SuiteResult:
    """Over generated snake ladders at the default size, both regimes
    (zero and nonzero connecting morphism) each cover at least 10%."""
    base = SplitMix64(seed).derive(31)
    def case(rec: SuiteResult, i: int) -> None:
        cfg = GenConfig(seed=base.next_u64(), field=field, max_dim=5)
        inp = gen_snake_input(cfg)
        delta, _ = connecting_morphism(inp)
        rec.bump("delta_nonzero" if not delta.is_zero else "delta_zero")
    rec = _run(f"generators.coverage[{field}]", samples, case)
    floor = samples // 10
    rec.check(rec.counters.get("delta_nonzero", 0) >= floor,
              f"fewer than 10% nonzero connecting morphisms in {samples} samples")
    rec.check(rec.counters.get("delta_zero", 0) >= floor,
              f"fewer than 10% zero connecting morphisms in {samples} samples")
    return rec


# ---------------------------------------------------------------------------
# the full battery

def run_selftest(cases: int = 200, seed: int = 1,
                 fields: tuple[ScalarField, ...] = (RATIONALS, prime_field(7)),
                 ) -> list[SuiteResult]:
    """Run every suite on every requested field.  ``cases`` scales the
    per-suite counts; the acceptance thresholds live in the test suite."""
    small = max(5, cases // 4)
    tiny = max(5, cases // 10)
    battery = (
        (check_linalg, cases), (check_factorization, cases),
        (check_lemma_kernel_cokernel, cases), (check_quotient_stability, cases),
        (check_kernel_restriction, cases), (check_mono_epi_iso, cases),
        (check_biproduct, cases), (check_universal_lifts, cases),
        (check_square_equivalence, cases), (check_square_mono_epi, cases),
        (check_square_composition, small), (check_decomposition, small),
        (check_kernel_cokernel_squares, small), (check_transport, small),
        (check_ker_coker_exactness, small), (check_snake, small),
        (check_snake_oracle, small),
        (check_generator_determinism, tiny), (check_generator_validity, tiny),
    )
    results = [check(n, seed, fld) for fld in fields for check, n in battery]
    return results + [check_worked_example()]
