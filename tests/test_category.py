"""Objects, morphisms, and the canonical (co)kernel and biproduct structure."""

import dataclasses
import random

import pytest

from abcat.category import (
    Biproduct,
    CokernelData,
    KernelData,
    Mor,
    Obj,
    biproduct,
    cokernel,
    cokernel_colift,
    compose,
    epi_colift,
    identity,
    kernel,
    kernel_lift,
    mono_lift,
    zero_mor,
)
from abcat.constructions import PullbackData, PushoutData, pullback, pushout
from abcat.diagrams import GenConfig, gen_morphism
from abcat.errors import PreconditionError, ShapeError
from abcat.fields import RATIONALS, prime_field
from abcat import linalg
from abcat.linalg import Matrix

Q = RATIONALS
GF5 = prime_field(5)


def qmor(rows, src_dim=None):
    mat = Matrix.from_int_rows(Q, rows, src_dim)
    return Mor.from_matrix(mat)


# -- objects and morphism plumbing -------------------------------------------


def test_obj_rejects_negative_dimension():
    with pytest.raises(ShapeError):
        Obj(-1, Q)


def test_null_object_flag():
    assert Obj(0, Q).is_null
    assert not Obj(1, Q).is_null


def test_from_matrix_derives_endpoints():
    f = qmor([[1, 2], [3, 4], [5, 6]])
    assert f.src == Obj(2, Q)
    assert f.dst == Obj(3, Q)
    assert Mor(f.mat) == f and Mor.from_matrix(f.mat) == f
    # zero shapes: maps out of and into the null object
    out_of_null = Mor(Matrix.zeros(Q, 4, 0))
    assert (out_of_null.src, out_of_null.dst) == (Obj(0, Q), Obj(4, Q))
    assert out_of_null.is_mono and not out_of_null.is_epi
    into_null = Mor(Matrix.zeros(Q, 0, 4))
    assert (into_null.src, into_null.dst) == (Obj(4, Q), Obj(0, Q))
    assert into_null.is_epi and not into_null.is_mono
    assert Mor(Matrix.zeros(Q, 0, 0)).is_iso
    # the field comes from the matrix too
    g = Mor(Matrix.from_int_rows(GF5, [[1, 2]]))
    assert (g.src, g.dst, g.field) == (Obj(2, GF5), Obj(1, GF5), GF5)
    assert g.src != Obj(2, Q) and g != Mor(Matrix.from_int_rows(Q, [[1, 2]]))


def test_morphisms_and_constructions_store_no_objects():
    assert [f.name for f in dataclasses.fields(Mor)] == ["mat"]
    for cls in (KernelData, CokernelData, Biproduct, PullbackData, PushoutData):
        assert {f.type for f in dataclasses.fields(cls)} == {"Mor"}, cls
    f = qmor([[1, 2, 0], [2, 4, 0]])
    kd, cd, bp = kernel(f), cokernel(f), biproduct(f.src, f.dst)
    assert (kd.ker_obj, cd.coker_obj, bp.sum_obj) == (Obj(2, Q), Obj(1, Q), Obj(5, Q))
    pb, po = pullback(f, f), pushout(f, f)
    assert (pb.p_obj, po.s_obj) == (pb.n.src, po.t.dst) == (Obj(5, Q), Obj(3, Q))


def test_value_objects_keep_dataclass_equality_hash_and_replace():
    m = Matrix.from_int_rows(Q, [[1, 2], [3, 4]])
    assert m.echelon[2] == 2  # a kept fact is not part of the value
    f, x = Mor(m), Obj(2, Q)
    for value, fields in [(m, (2, 2, m.entries, Q)), (f, (m,)), (x, (2, Q))]:
        copy = dataclasses.replace(value)
        assert copy == value and copy is not value and hash(copy) == hash(value)
        assert hash(value) == hash(fields)
        assert dataclasses.astuple(value) == dataclasses.astuple(copy)
        with pytest.raises(dataclasses.FrozenInstanceError):
            value.field = GF5
    assert "echelon" not in vars(dataclasses.replace(m))
    assert repr(m) == ("Matrix(rows=2, cols=2, entries=(Fraction(1, 1), Fraction(2, 1), "
                       "Fraction(3, 1), Fraction(4, 1)), field=ScalarField(p=None))")
    assert repr(f) == f"Mor(mat={m!r})" and repr(x) == "Obj(dim=2, field=ScalarField(p=None))"
    g = dataclasses.replace(m, field=GF5, entries=(1, 2, 3, 4))
    assert g != m and dataclasses.replace(f, mat=g).mat is g
    assert dataclasses.replace(x, dim=0).is_null and Obj(dim=3, field=GF5) == Obj(3, GF5)
    assert Mor(mat=m) == f and Matrix(rows=0, cols=1, entries=(), field=Q).cols == 1
    with pytest.raises(ShapeError, match="^negative dimension -1$"):
        dataclasses.replace(x, dim=-1)
    with pytest.raises(ShapeError, match="^entry 1 does not belong to Q$"):
        dataclasses.replace(g, field=Q)


def test_compose_shapes_and_identity_laws():
    f = qmor([[1, 2]])
    g = qmor([[3], [4]])
    gf = compose(g, f)
    assert gf.src == f.src and gf.dst == g.dst
    assert gf.mat == Matrix.from_int_rows(Q, [[3, 6], [4, 8]])
    assert g @ f == gf
    assert identity(f.dst) @ f == f
    assert f @ identity(f.src) == f
    with pytest.raises(ShapeError, match=r"^cannot compose: Q\^1->Q\^2 then Q\^1->Q\^2$"):
        compose(g, g)  # middle objects disagree
    h = Mor(Matrix.from_int_rows(GF5, [[1], [2]]))
    with pytest.raises(ShapeError, match=r"^cannot compose: GF\(5\)\^1->GF\(5\)\^2 then "
                                         r"Q\^2->Q\^1$"):
        compose(f, h)  # fields disagree


def test_mono_epi_iso_flags_on_fixtures():
    inc = qmor([[1], [0]])  # injective, not surjective
    proj = qmor([[1, 0]])  # surjective, not injective
    flip = qmor([[0, 1], [1, 0]])
    assert inc.is_mono and not inc.is_epi and not inc.is_iso
    assert proj.is_epi and not proj.is_mono and not proj.is_iso
    assert flip.is_iso and flip.is_mono and flip.is_epi
    assert zero_mor(Obj(1, Q), Obj(1, Q)).is_zero


def test_zero_mor_field_mismatch():
    with pytest.raises(ShapeError):
        zero_mor(Obj(1, Q), Obj(1, GF5))


# -- kernels and cokernels, pinned -------------------------------------------


def test_kernel_of_sum_map():
    f = qmor([[1, 1]])
    kd = kernel(f)
    assert kd.ker_obj == Obj(1, Q)
    assert kd.ker_mor.mat == Matrix.from_int_rows(Q, [[-1], [1]])
    assert (f @ kd.ker_mor).is_zero
    assert kd.ker_mor.is_mono


def test_cokernel_of_diagonal_embedding():
    f = qmor([[1], [1]])
    cd = cokernel(f)
    assert cd.coker_obj == Obj(1, Q)
    assert cd.coker_mor.mat == Matrix.from_int_rows(Q, [[1, -1]])
    assert (cd.coker_mor @ f).is_zero
    assert cd.coker_mor.is_epi


def test_kernel_of_mono_and_cokernel_of_epi_are_null():
    f = qmor([[2], [3]])
    assert kernel(f).ker_obj.is_null
    assert cokernel(qmor([[2, 3]])).coker_obj.is_null


def test_kernel_cokernel_over_gf5():
    f = Mor.from_matrix(Matrix.from_int_rows(GF5, [[1, 2], [2, 4]]))
    kd = kernel(f)
    cd = cokernel(f)
    # x0 = -2 x1 = 3 x1 mod 5; quotient row (3,1) rescales to (1,2) in rref form
    assert kd.ker_mor.mat == Matrix.from_int_rows(GF5, [[3], [1]])
    assert cd.coker_mor.mat == Matrix.from_int_rows(GF5, [[1, 2]])
    assert (f @ kd.ker_mor).is_zero
    assert (cd.coker_mor @ f).is_zero


# -- lifts --------------------------------------------------------------------


def test_mono_lift_recovers_factor():
    m = qmor([[1], [2]])
    s = qmor([[3, -1]], src_dim=2)
    t = m @ s
    got = mono_lift(m, t)
    assert got == s


def test_mono_lift_rejects_non_mono_and_bad_image():
    not_mono = qmor([[1, 1]])
    with pytest.raises(PreconditionError):
        mono_lift(not_mono, identity(not_mono.dst))
    m = qmor([[1], [0]])
    outside = qmor([[0], [1]])
    with pytest.raises(PreconditionError):
        mono_lift(m, outside)
    with pytest.raises(ShapeError):
        mono_lift(m, qmor([[1]]))  # wrong codomain


def test_epi_colift_recovers_factor():
    e = qmor([[1, 0, 0], [0, 1, 0]])
    v = qmor([[2, 7]], src_dim=2)
    t = v @ e
    got = epi_colift(e, t)
    assert got == v


def test_epi_colift_rejects_non_epi_and_kernel_violation():
    not_epi = qmor([[1], [1]])
    with pytest.raises(PreconditionError):
        epi_colift(not_epi, identity(not_epi.src))
    e = qmor([[1, 1]])
    t = qmor([[1, 0]])  # does not kill (-1, 1)^t
    with pytest.raises(PreconditionError, match="does not vanish on the kernel"):
        epi_colift(e, t)
    with pytest.raises(ShapeError):
        epi_colift(e, qmor([[1]]))  # wrong domain


def test_kernel_lift_and_cokernel_colift_identities():
    f = qmor([[1, 1, 0], [0, 0, 1]])
    kd = kernel(f)
    t = kd.ker_mor @ qmor([[4]], src_dim=1)
    s = kernel_lift(kd, t)
    assert kd.ker_mor @ s == t
    cd = cokernel(qmor([[1], [1], [0]]))
    u = qmor([[1, -1, 5]], src_dim=3)
    u = u - (u @ qmor([[1], [1], [0]])) @ qmor([[1, 0, 0]], src_dim=3)  # kill image
    v = cokernel_colift(cd, u)
    assert v @ cd.coker_mor == u


def test_kernel_lift_requires_vanishing_composite():
    f = qmor([[1, 0]])
    kd = kernel(f)
    bad = identity(f.src)
    with pytest.raises(PreconditionError):
        kernel_lift(kd, bad)


def test_cokernel_colift_requires_vanishing_composite():
    f = qmor([[1], [0]])
    cd = cokernel(f)
    bad = identity(f.dst)
    with pytest.raises(PreconditionError):
        cokernel_colift(cd, bad)


# -- biproduct ----------------------------------------------------------------


def _check_biproduct_identities(bp: Biproduct, a: Obj, b: Obj):
    assert bp.proj_p @ bp.ins_i == identity(a)
    assert bp.proj_q @ bp.ins_j == identity(b)
    assert (bp.proj_p @ bp.ins_j).is_zero
    assert (bp.proj_q @ bp.ins_i).is_zero
    total = bp.ins_i @ bp.proj_p + bp.ins_j @ bp.proj_q
    assert total == identity(bp.sum_obj)


def test_biproduct_identities_small_and_degenerate():
    _check_biproduct_identities(biproduct(Obj(2, Q), Obj(3, Q)), Obj(2, Q), Obj(3, Q))
    _check_biproduct_identities(biproduct(Obj(0, Q), Obj(2, Q)), Obj(0, Q), Obj(2, Q))
    _check_biproduct_identities(biproduct(Obj(1, GF5), Obj(0, GF5)), Obj(1, GF5), Obj(0, GF5))
    with pytest.raises(ShapeError):
        biproduct(Obj(1, Q), Obj(1, GF5))


# -- randomized structure laws ------------------------------------------------


def test_generated_morphisms_satisfy_lift_roundtrips():
    for seed in range(20):
        f = gen_morphism(GenConfig(seed=seed, max_dim=4))
        kd, cd = kernel(f), cokernel(f)
        # factoring the canonical maps through themselves gives identities
        assert kernel_lift(kd, kd.ker_mor) == identity(kd.ker_obj)
        assert cokernel_colift(cd, cd.coker_mor) == identity(cd.coker_obj)


def test_rank_nullity_bookkeeping_randomized():
    rng = random.Random(21)
    for _ in range(80):
        rows = rng.randint(0, 4)
        cols = rng.randint(0, 4)
        mat = Matrix.from_int_rows(
            Q, [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)], cols
        )
        f = Mor.from_matrix(mat)
        kd, cd = kernel(f), cokernel(f)
        assert kd.ker_obj.dim == f.src.dim - f.rank
        assert cd.coker_obj.dim == f.dst.dim - f.rank
        assert (f @ kd.ker_mor).is_zero
        assert (cd.coker_mor @ f).is_zero
        assert kd.ker_mor.is_mono and cd.coker_mor.is_epi
        assert kd.ker_mor.mat.echelon[2] == kd.ker_obj.dim


def test_one_echelon_form_per_matrix(monkeypatch):
    reductions = []
    reduce_rows = linalg._rref_rows

    def counting(*args):
        reductions.append(args)
        return reduce_rows(*args)

    monkeypatch.setattr(linalg, "_rref_rows", counting)
    f = Mor.from_matrix(Matrix.from_int_rows(Q, [[1, 2, 3], [2, 4, 6], [0, 1, 1]]))
    assert (f.rank, f.is_mono, f.is_epi, f.is_iso) == (2, False, False, False)
    assert kernel(f).ker_obj.dim == 1
    assert len(reductions) == 1


def test_kernel_and_cokernel_bases_are_kept_per_matrix(monkeypatch):
    reductions = []
    reduce_rows = linalg._rref_rows

    def counting(*args):
        reductions.append(args)
        return reduce_rows(*args)

    monkeypatch.setattr(linalg, "_rref_rows", counting)
    f = Mor.from_matrix(Matrix.from_int_rows(Q, [[1, 2, 3], [2, 4, 6]]))
    first, second = kernel(f), kernel(f)
    assert first.ker_mor.mat is second.ker_mor.mat
    assert len(reductions) == 1  # the echelon form of f, nothing more
    first, second = cokernel(f), cokernel(f)
    assert first.coker_mor.mat is second.coker_mor.mat
    # the echelon forms of f-transpose and of the basis found from it
    assert len(reductions) == 3
    assert first.coker_mor.mat == Matrix.from_int_rows(Q, [[1, Q.parse("-1/2")]])
