"""Factorization, fiber products, amalgamated sums, and exactness predicates."""

import random

import pytest

from abcat import constructions
from abcat.category import Mor, Obj, identity, kernel, cokernel, zero_mor
from abcat.constructions import (
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
from abcat.errors import PreconditionError, ShapeError
from abcat.fields import RATIONALS, prime_field
from abcat.linalg import Matrix

Q = RATIONALS
GF2 = prime_field(2)
GF7 = prime_field(7)


def qmor(rows, src_dim=None):
    return Mor.from_matrix(Matrix.from_int_rows(Q, rows, src_dim))


def _rand_mor(rng, rows, cols, field=Q):
    return Mor.from_matrix(Matrix.from_int_rows(
        field, [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)], cols))


# -- epi-mono factorization ---------------------------------------------------


def test_factorize_pinned_rank_one():
    f = qmor([[1, 2], [2, 4]])
    fact = epi_mono_factorize(f)
    # the mono is literally the pivot column of f
    assert fact.mono_m.mat == Matrix.from_int_rows(Q, [[1], [2]])
    assert fact.epi_q.mat == Matrix.from_int_rows(Q, [[1, 2]])
    assert fact.mono_m @ fact.epi_q == f
    assert fact.epi_q.is_epi and fact.mono_m.is_mono


def test_factorize_zero_map_goes_through_null():
    f = zero_mor(Obj(2, Q), Obj(3, Q))
    fact = epi_mono_factorize(f)
    assert fact.mono_m.src.is_null
    assert fact.mono_m @ fact.epi_q == f


def test_factorize_iso_keeps_both_parts_iso():
    f = qmor([[0, 1], [1, 0]])
    fact = epi_mono_factorize(f)
    assert fact.epi_q.is_iso and fact.mono_m.is_iso


def test_image_dimension_is_rank():
    f = qmor([[1, 2, 3], [2, 4, 6]])
    emb = epi_mono_factorize(f).mono_m
    assert emb.src.dim == 1
    assert emb.is_mono
    assert same_subobject(emb, qmor([[-2], [-4]]))


def test_factorize_randomized_roundtrip():
    rng = random.Random(140)
    for _ in range(60):
        f = _rand_mor(rng, rng.randint(0, 4), rng.randint(0, 4))
        fact = epi_mono_factorize(f)
        assert fact.mono_m @ fact.epi_q == f
        assert fact.epi_q.is_epi and fact.mono_m.is_mono
        assert fact.mono_m.src.dim == f.rank


# -- pullback -----------------------------------------------------------------


def test_pullback_of_equal_isos_is_diagonal():
    c = qmor([[1]])
    pb = pullback(c, c)
    assert pb.p_obj.dim == 1
    assert pb.n.mat == Matrix.from_int_rows(Q, [[1], [1]])
    assert pb.f == pb.g
    assert pb.c @ pb.f == pb.d @ pb.g


def test_pullback_against_zero_picks_out_kernel():
    c = qmor([[1, 1]])
    z = zero_mor(Obj(0, Q), c.dst)
    pb = pullback(c, z)
    # apex embeds as ker(c) paired with nothing
    assert pb.p_obj.dim == 1
    assert (c @ pb.f).is_zero
    assert same_subobject(pb.f, kernel(c).ker_mor)


def test_pullback_needs_common_target():
    with pytest.raises(ShapeError):
        pullback(qmor([[1]]), qmor([[1], [0]]))


def test_pullback_lift_roundtrip_and_uniqueness():
    rng = random.Random(8)
    for field in (Q, GF2, GF7):
        null_corners = 0
        for _ in range(40):
            mid = rng.randint(0, 3)
            c = _rand_mor(rng, mid, rng.randint(0, 3), field)
            d = _rand_mor(rng, mid, rng.randint(0, 3), field)
            pb = pullback(c, d)
            z = _rand_mor(rng, pb.p_obj.dim, rng.randint(0, 3), field)
            e = pullback_lift(pb, pb.f @ z, pb.g @ z)
            assert e == z  # mediating map through a mono apex is unique
            null_corners += any(o.is_null for o in (z.src, c.src, d.src, c.dst, pb.p_obj))
        assert null_corners > 0


def test_pullback_lift_rejects_non_commuting_pair():
    c = qmor([[1, 0]])
    d = qmor([[0, 1]])
    pb = pullback(c, d)
    x = identity(c.src)
    y = zero_mor(c.src, d.src)
    with pytest.raises(PreconditionError) as exc:
        pullback_lift(pb, x, y)  # c@x != d@y
    # the kernel lift's residual diff @ [x; y] is c @ x - d @ y
    assert str(exc.value) == ("kernel lift needs a vanishing composite, "
                              f"got {(c @ x - d @ y).mat}")


def test_pullback_and_pushout_lifts_are_the_kernel_and_cokernel_lifts(monkeypatch):
    calls = {"kernel_lift": 0, "cokernel_colift": 0}
    for name in calls:
        def counting(*args, _name=name, _original=getattr(constructions, name)):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(constructions, name, counting)
    c, d = qmor([[1, 2], [0, 1]]), qmor([[1], [1]])
    pb = pullback(c, d)
    assert pullback_lift(pb, pb.f, pb.g) == identity(pb.p_obj)
    assert calls == {"kernel_lift": 1, "cokernel_colift": 0}
    a, b = qmor([[1, -1]]), qmor([[2, 0], [1, 3]])
    po = pushout(a, b)
    assert pushout_colift(po, po.r, po.s) == identity(po.s_obj)
    assert calls == {"kernel_lift": 1, "cokernel_colift": 1}


# -- pushout ------------------------------------------------------------------


def test_pushout_of_equal_isos_is_codiagonal():
    a = qmor([[1]])
    po = pushout(a, a)
    assert po.s_obj.dim == 1
    # t = [1, -1] on the biproduct; r = t@i, s = -(t@j)
    assert po.t.mat == Matrix.from_int_rows(Q, [[1, -1]])
    assert po.r == po.s
    assert po.r @ po.a == po.s @ po.b


def test_pushout_against_zero_picks_out_cokernel():
    a = qmor([[1], [1]])
    z = zero_mor(a.src, Obj(0, Q))
    po = pushout(a, z)
    assert po.s_obj.dim == 1
    assert (po.r @ a).is_zero
    assert po.r.mat == cokernel(a).coker_mor.mat


def test_pushout_needs_common_source():
    with pytest.raises(ShapeError):
        pushout(qmor([[1]]), qmor([[1, 0]]))


def test_pushout_colift_roundtrip():
    rng = random.Random(13)
    for field in (Q, GF2, GF7):
        null_corners = 0
        for _ in range(40):
            mid = rng.randint(0, 3)
            a = _rand_mor(rng, rng.randint(0, 3), mid, field)
            b = _rand_mor(rng, rng.randint(0, 3), mid, field)
            po = pushout(a, b)
            z = _rand_mor(rng, rng.randint(0, 3), po.s_obj.dim, field)
            v = pushout_colift(po, z @ po.r, z @ po.s)
            assert v == z
            null_corners += any(o.is_null for o in (z.dst, a.src, a.dst, b.dst, po.s_obj))
        assert null_corners > 0


def test_pushout_colift_rejects_non_commuting_pair():
    a = qmor([[1], [0]])
    b = qmor([[0], [1]])
    po = pushout(a, b)
    x, y = identity(a.dst), zero_mor(b.dst, a.dst)
    with pytest.raises(PreconditionError) as exc:
        pushout_colift(po, x, y)  # x@a != y@b
    # the cokernel colift's residual [x | -y] @ [a; b] is x @ a - y @ b
    assert str(exc.value) == ("cokernel colift needs a vanishing composite, "
                              f"got {(x @ a - y @ b).mat}")


def test_pullback_pushout_gf7_smoke():
    c = Mor.from_matrix(Matrix.from_int_rows(GF7, [[2, 1]]))
    d = Mor.from_matrix(Matrix.from_int_rows(GF7, [[5]]))
    pb = pullback(c, d)
    assert pb.c @ pb.f == pb.d @ pb.g
    a = Mor.from_matrix(Matrix.from_int_rows(GF7, [[4], [2]]))
    b = Mor.from_matrix(Matrix.from_int_rows(GF7, [[6]]))
    po = pushout(a, b)
    assert po.r @ po.a == po.s @ po.b


def test_corners_are_sliced_not_multiplied(monkeypatch):
    calls = []
    matmul = Matrix.__matmul__

    def counting(a, b):
        calls.append((a.rows, a.cols, b.cols))
        return matmul(a, b)
    c, d = qmor([[1, 2], [0, 1]]), qmor([[1], [1]])
    a, b = qmor([[1, -1]]), qmor([[2, 0], [1, 3]])
    monkeypatch.setattr(Matrix, "__matmul__", counting)
    pb = pullback(c, d)
    po = pushout(a, b)
    assert calls == []
    assert pb.p_obj.dim == 1 and po.s_obj.dim == 1


# -- subobject identity and exactness -----------------------------------------


def test_same_subobject_scaling_and_reorder():
    m1 = qmor([[1], [2]])
    m2 = qmor([[2], [4]])  # same line, different parametrization
    m3 = qmor([[1], [0]])
    assert same_subobject(m1, m2)
    assert not same_subobject(m1, m3)
    two_dim = qmor([[1, 0], [0, 1], [0, 0]])
    swapped = qmor([[0, 1], [1, 0], [0, 0]])
    assert same_subobject(two_dim, swapped)


def test_is_exact_pair_pinned_cases():
    f = qmor([[1], [0]])
    g = qmor([[0, 1]])
    assert is_exact_pair(f, g)  # image = kernel = first axis
    g_bigger = qmor([[0, 0]])
    assert not is_exact_pair(f, g_bigger)  # kernel too big
    f_zero = zero_mor(Obj(1, Q), Obj(2, Q))
    assert not is_exact_pair(f_zero, g)  # image too small
    with pytest.raises(ShapeError):
        is_exact_pair(f, qmor([[1, 0, 0]]))  # middle objects disagree


def test_is_exact_pair_rejects_nonzero_composite():
    f = qmor([[1], [0]])
    g = qmor([[1, 0]])
    assert not is_exact_pair(f, g)


def test_kernel_cokernel_recognizers():
    f = qmor([[1, 1]])
    kd = kernel(f)
    cd = cokernel(qmor([[1], [1]]))
    assert is_kernel_of(kd.ker_mor, f)
    assert is_cokernel_of(cd.coker_mor, cd.of)
    # a scaled copy of the kernel embedding is still a kernel
    scaled = Mor(kd.ker_mor.mat.scale(Q.from_int(3)))
    assert is_kernel_of(scaled, f)
    # but a proper sub-line of a two-dim kernel is not
    wide = qmor([[0, 0, 0]])
    sub = qmor([[1], [0], [0]])
    assert not is_kernel_of(sub, wide)
    # non-mono candidates are rejected outright
    non_mono = qmor([[1, 2], [2, 4]])
    assert not is_kernel_of(non_mono, zero_mor(Obj(2, Q), Obj(1, Q)))
    # cokernel candidate must be epi and kill exactly the image
    non_epi = qmor([[1, -1], [2, -2]])  # kills the diagonal but is not onto
    assert not is_cokernel_of(non_epi, qmor([[1], [1]]))


def test_recognizers_reject_nonvanishing_composite():
    f = qmor([[1, 0]])
    n = qmor([[1], [0]])
    assert not is_kernel_of(n, f)
    assert not is_cokernel_of(qmor([[1, 0]]), qmor([[1], [0]]))


def test_recognizers_reject_mismatched_shapes():
    with pytest.raises(ShapeError):
        is_kernel_of(qmor([[1]]), qmor([[1, 1]]))  # n lands in Q^1, f starts at Q^2
    with pytest.raises(ShapeError):
        is_cokernel_of(qmor([[1, 1]]), qmor([[1]]))  # t starts at Q^2, f ends at Q^1
