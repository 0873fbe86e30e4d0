"""Commutative squares: the four-condition analysis, gluing, splitting, and
the componentwise kernel and cokernel squares.

The fixture worth naming: top = left = id on Q^1 with right = bottom = 0.
Its left vertical is mono yet its kernel square is NOT cartesian, while a
mono *right* vertical does force cartesianness.  Several tests below pin that
asymmetry so nobody "simplifies" the hypothesis later.
"""

import pytest

from abcat.category import Mor, Obj, biproduct, identity, zero_mor
from abcat.constructions import is_cokernel_of, is_kernel_of, pullback, pushout
from abcat.diagrams import GenConfig, gen_semicartesian
from abcat.errors import PreconditionError, ShapeError
from abcat.fields import RATIONALS, prime_field
from abcat.linalg import Matrix
from abcat.squares import (
    Square,
    analyze,
    cokernel_square,
    compose_h,
    decompose_semicartesian,
    kernel_square,
)

Q = RATIONALS
GF3 = prime_field(3)


def qmor(rows, src_dim=None):
    return Mor.from_matrix(Matrix.from_int_rows(Q, rows, src_dim))


def _identity_square(n=2):
    i = identity(Obj(n, Q))
    return Square(top=i, left=i, right=i, bottom=i)


# -- construction guards ------------------------------------------------------


def test_square_requires_matching_corners():
    i1 = identity(Obj(1, Q))
    i2 = identity(Obj(2, Q))
    with pytest.raises(ShapeError):
        Square(top=i1, left=i2, right=i1, bottom=i1)


def test_square_requires_commutativity():
    i = identity(Obj(1, Q))
    two = qmor([[2]])
    with pytest.raises(PreconditionError):
        Square(top=i, left=i, right=i, bottom=two)


# -- analysis on pinned squares -----------------------------------------------


def test_identity_square_satisfies_everything():
    an = analyze(_identity_square())
    assert an.cond_i and an.cond_ii and an.cond_iii and an.cond_iv
    assert an.is_cartesian and an.is_cocartesian and an.is_semicartesian
    assert an.e.is_epi and an.m.is_mono


def test_pullback_square_is_cartesian_and_semicartesian():
    c = qmor([[1, 0]])
    d = qmor([[2]])  # a mono into the shared target
    pb = pullback(c, d)
    sq = Square(top=pb.f, left=pb.g, right=c, bottom=pb.d)
    an = analyze(sq)
    assert an.is_cartesian
    assert an.is_semicartesian
    assert an.e.is_iso  # comparison to the canonical pullback


def test_pushout_square_is_cocartesian_and_semicartesian():
    a = qmor([[1], [0]])
    b = qmor([[1], [1]])
    po = pushout(a, b)
    sq = Square(top=a, left=b, right=po.r, bottom=po.s)
    an = analyze(sq)
    assert an.is_cocartesian
    assert an.is_semicartesian
    assert an.m.is_iso


def test_zero_right_vertical_square_fails_semicartesian():
    # top = left = id, right = bottom = 0: the pullback of (right, bottom)
    # is all of Q^1 (+) Q^1, far bigger than the diagonal image
    i = identity(Obj(1, Q))
    z = zero_mor(Obj(1, Q), Obj(1, Q))
    sq = Square(top=i, left=i, right=z, bottom=z)
    an = analyze(sq)
    assert not an.is_semicartesian
    assert not an.is_cartesian
    assert not an.is_cocartesian
    assert an.cond_i == an.cond_ii == an.cond_iii == an.cond_iv == False


def test_four_conditions_always_agree_on_handmade_mix():
    fixtures = [
        _identity_square(1),
        _identity_square(3),
        Square(top=qmor([[1], [0]]), left=qmor([[1]]),
               right=qmor([[1, 0]]), bottom=qmor([[1]])),
        Square(top=qmor([[2]]), left=qmor([[3]]),
               right=qmor([[3]]), bottom=qmor([[2]])),
    ]
    for sq in fixtures:
        an = analyze(sq)
        assert an.cond_i == an.cond_ii == an.cond_iii == an.cond_iv


# -- gluing -------------------------------------------------------------------


def test_compose_h_glues_along_middle_vertical():
    i = identity(Obj(1, Q))
    two = qmor([[2]])
    k = Square(top=two, left=i, right=i, bottom=two)
    m = Square(top=i, left=i, right=i, bottom=i)
    glued = compose_h(k, m)
    assert glued.top == two and glued.bottom == two
    assert glued.left == k.left and glued.right == m.right


def test_compose_h_requires_shared_vertical():
    i = identity(Obj(1, Q))
    two = qmor([[2]])
    k = Square(top=i, left=i, right=two, bottom=two)
    m = Square(top=i, left=i, right=i, bottom=i)  # left is id, not two
    with pytest.raises(ShapeError):
        compose_h(k, m)


# -- decomposition ------------------------------------------------------------


def test_decompose_on_pinned_semicartesian_square():
    # horizontals of rank 1 with genuine kernels and cokernels
    top = qmor([[1, 0], [0, 0]])
    bottom = qmor([[1, 0], [0, 0]])
    left = qmor([[1, 0], [0, 5]])
    right = qmor([[1, 0], [0, 7]])
    sq = Square(top=top, left=left, right=right, bottom=bottom)
    first, second = decompose_semicartesian(sq)
    a1 = analyze(first)
    a2 = analyze(second)
    assert a1.is_cocartesian and first.top.is_epi and first.bottom.is_epi
    assert a2.is_cartesian and second.top.is_mono and second.bottom.is_mono
    assert compose_h(first, second) == sq


def test_decompose_rejects_non_semicartesian():
    i = identity(Obj(1, Q))
    z = zero_mor(Obj(1, Q), Obj(1, Q))
    sq = Square(top=i, left=i, right=z, bottom=z)
    with pytest.raises(PreconditionError):
        decompose_semicartesian(sq)


# -- kernel and cokernel squares ----------------------------------------------


def test_kernel_square_components_and_orientation():
    top = qmor([[1, 0]])
    bottom = qmor([[1, 0]])
    v = identity(Obj(2, Q))
    w = identity(Obj(1, Q))
    sq = Square(top=top, left=v, right=w, bottom=bottom)
    ksq = kernel_square(sq)
    assert ksq.top.mat == Matrix.from_int_rows(Q, [[0], [1]])
    assert ksq.right == sq.left  # orientation: right vertical is the old left
    assert (sq.top @ ksq.top).is_zero
    assert (sq.bottom @ ksq.bottom).is_zero


def test_cokernel_square_components_and_orientation():
    top = qmor([[1], [0]])
    bottom = qmor([[1], [0]])
    v = identity(Obj(1, Q))
    w = identity(Obj(2, Q))
    sq = Square(top=top, left=v, right=w, bottom=bottom)
    csq = cokernel_square(sq)
    assert csq.top.mat == Matrix.from_int_rows(Q, [[0, 1]])
    assert csq.left == sq.right  # orientation: left vertical is the old right
    assert (csq.top @ sq.top).is_zero
    assert (csq.bottom @ sq.bottom).is_zero


def test_mono_right_vertical_forces_cartesian_kernel_square():
    # right vertical mono: ker(right @ top) = ker(top), so the kernel square
    # is a genuine fiber product
    top = qmor([[1, 0]])
    right = qmor([[1], [2]])
    left = qmor([[1, 0], [0, 1], [0, 0]])
    bottom = right @ top @ Mor.from_matrix(Matrix.from_int_rows(Q, [[1, 0, 0], [0, 1, 0]]))
    sq = Square(top=top, left=left, right=right, bottom=bottom)
    assert analyze(kernel_square(sq)).is_cartesian


def test_mono_left_vertical_does_not_force_cartesian_kernel_square():
    # counterexample guard: mono LEFT vertical is not enough
    i = identity(Obj(1, Q))
    z = zero_mor(Obj(1, Q), Obj(1, Q))
    sq = Square(top=i, left=i, right=z, bottom=z)
    assert sq.left.is_mono
    ksq = kernel_square(sq)
    assert not analyze(ksq).is_cartesian


def test_epi_left_vertical_forces_cocartesian_cokernel_square():
    top = qmor([[1, 0], [0, 0]])
    left = qmor([[1, 2]])
    right = qmor([[0, 0], [0, 1]])  # kills the image of top
    bottom = zero_mor(left.dst, right.dst)
    sq = Square(top=top, left=left, right=right, bottom=bottom)
    assert sq.left.is_epi
    assert analyze(cokernel_square(sq)).is_cocartesian


def test_epi_right_vertical_does_not_force_cocartesian_cokernel_square():
    # dual counterexample guard: epi RIGHT vertical is not enough
    i = identity(Obj(1, Q))
    z = zero_mor(Obj(1, Q), Obj(1, Q))
    sq = Square(top=z, left=z, right=i, bottom=i)
    assert sq.right.is_epi
    csq = cokernel_square(sq)
    assert not analyze(csq).is_cocartesian


def test_kernel_square_over_gf3():
    f = Mor.from_matrix(Matrix.from_int_rows(GF3, [[1, 2]]))
    i2 = identity(Obj(2, GF3))
    i1 = identity(Obj(1, GF3))
    sq = Square(top=f, left=i2, right=i1, bottom=f)
    ksq = kernel_square(sq)
    assert ksq.top.mat == Matrix.from_int_rows(GF3, [[1], [1]])
    assert analyze(ksq).is_cartesian  # right vertical i1 is mono


@pytest.mark.parametrize("field", [Q, GF3])
def test_corners_keep_the_maps_they_are_kernel_and_cokernel_of(field):
    for seed in range(10):
        for variant in ("epi", "cartesian", "deficient"):
            sq = gen_semicartesian(GenConfig(seed=seed, field=field, max_dim=4), variant)
            res = analyze(sq)
            pb, po = res.pb, res.po
            src = biproduct(sq.right.src, sq.bottom.src)
            assert pb.diff == sq.right @ src.proj_p - sq.bottom @ src.proj_q
            assert pb.f == src.proj_p @ pb.n and pb.g == src.proj_q @ pb.n
            dst = biproduct(sq.top.dst, sq.left.dst)
            assert po.summed == dst.ins_i @ sq.top + dst.ins_j @ sq.left
            assert po.r == po.t @ dst.ins_i and po.s == -(po.t @ dst.ins_j)
            assert is_kernel_of(pb.n, pb.diff)
            assert is_cokernel_of(po.t, po.summed)


def test_each_square_keeps_its_analysis():
    sq = gen_semicartesian(GenConfig(seed=3, field=GF3, max_dim=4), "epi")
    res = analyze(sq)
    assert analyze(sq) is res is sq.analysis
    assert sq == Square(sq.top, sq.left, sq.right, sq.bottom)  # the cache is no field
