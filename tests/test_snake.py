"""The six-term kernel-cokernel sequence and its connecting morphism.

The worked ladder (a = b = e1, c = d = second-coordinate projection,
u = w = 0, v = the nilpotent shift) is small enough to chase by hand:
the only kernel generator lifts to e2, v carries it to e1, and e1 is
exactly b of the cokernel generator, so delta is the 1x1 identity.
"""

import dataclasses

import pytest

from abcat import linalg, snake
from abcat.category import Mor, Obj, identity, kernel, cokernel, zero_mor
from abcat.constructions import is_exact_pair
from abcat.errors import InternalCheckError
from abcat.fields import RATIONALS, prime_field
from abcat.linalg import Matrix, solve
from abcat.properties import worked_example_input
from abcat.snake import (
    SnakeInput,
    SnakeInputError,
    chase_delta,
    connecting_morphism,
    snake_sequence,
    validate,
    violations,
)
from abcat.diagrams import GenConfig, gen_snake_input

Q = RATIONALS
GF2 = prime_field(2)
GF7 = prime_field(7)


def qmor(rows, src_dim=None):
    return Mor.from_matrix(Matrix.from_int_rows(Q, rows, src_dim))


def _exactness(out):
    """Exactness at Ker v, Ker w, Coker u and Coker v, read afresh."""
    seq = (out.s, out.t, out.delta, out.x, out.y)
    return tuple(is_exact_pair(f, g) for f, g in zip(seq, seq[1:]))


# -- the worked ladder, pinned end to end --------------------------------------


def test_worked_example_validates_clean():
    assert violations(worked_example_input()) == []


def test_worked_example_delta_is_the_unit():
    delta, trace = connecting_morphism(worked_example_input())
    assert delta.mat == Matrix.from_int_rows(Q, [[1]])
    assert delta.is_iso
    # a is already mono and d already epi, so they are their own parts
    assert trace.mono_a == worked_example_input().a
    assert trace.epi_d == worked_example_input().d


def test_worked_example_six_term_ranks():
    out = snake_sequence(worked_example_input())
    got = (out.s.rank, out.t.rank, out.delta.rank, out.x.rank, out.y.rank)
    assert got == (1, 0, 1, 0, 1)
    assert _exactness(out) == (True, True, True, True)


def test_worked_example_chase_matches_construction():
    inp = worked_example_input()
    delta, _ = connecting_morphism(inp)
    assert chase_delta(inp) == delta


def test_worked_example_trace_identities_hold_externally():
    inp = worked_example_input()
    delta, tr = connecting_morphism(inp)
    assert tr.po.r @ delta == tr.theta
    assert tr.theta @ tr.pb.f == tr.po.s @ inp.v @ tr.pb.g
    assert (tr.h @ tr.theta).is_zero
    assert tr.mono_a @ tr.l == tr.pb.g @ tr.z


def test_stray_theta_is_an_internal_error_in_the_lift(monkeypatch):
    # on the worked ladder theta is e1 and h = [0, 1]; a theta that h does
    # not kill has no lift through the mono leg, which is a bug, not bad input
    monkeypatch.setattr(snake, "epi_colift", lambda e, t: qmor([[1], [1]]))
    with pytest.raises(InternalCheckError, match="^connecting_morphism: no lift: "):
        connecting_morphism(worked_example_input())


def test_naturality_squares_of_induced_maps():
    inp = worked_example_input()
    out = snake_sequence(inp)
    assert inp.a @ out.ker_u.ker_mor == out.ker_v.ker_mor @ out.s
    assert inp.c @ out.ker_v.ker_mor == out.ker_w.ker_mor @ out.t
    assert out.x @ out.coker_u.coker_mor == out.coker_v.coker_mor @ inp.b
    assert out.y @ out.coker_v.coker_mor == out.coker_w.coker_mor @ inp.d


# -- input validation ----------------------------------------------------------


def _codes(inp):
    return [v.code for v in violations(inp)]


def test_shape_violation_reported():
    inp = worked_example_input()
    bad = dataclasses.replace(inp, b=qmor([[1], [0], [0]]))
    assert "shape" in _codes(bad)


def test_field_mismatch_reported():
    inp = worked_example_input()
    u7 = Mor.from_matrix(Matrix.from_int_rows(GF7, [[0]]))
    bad = dataclasses.replace(inp, u=u7)
    assert "field_mismatch" in _codes(bad)


def test_broken_left_square_reported():
    bad = dataclasses.replace(worked_example_input(), u=qmor([[5]]))
    assert _codes(bad) == ["square_K"]


def test_broken_right_square_reported():
    bad = dataclasses.replace(worked_example_input(), w=qmor([[3]]))
    assert _codes(bad) == ["square_L"]


def test_inexact_top_row_reported():
    bad = dataclasses.replace(worked_example_input(), c=qmor([[1, 0]]))
    assert _codes(bad) == ["top_row_exact"]


def test_non_epi_c_reported():
    bad = dataclasses.replace(worked_example_input(),
                              c=zero_mor(Obj(2, Q), Obj(1, Q)),
                              w=zero_mor(Obj(1, Q), Obj(1, Q)))
    assert "c_epi" in _codes(bad)


def test_non_mono_b_reported():
    bad = dataclasses.replace(worked_example_input(),
                              b=zero_mor(Obj(1, Q), Obj(2, Q)))
    codes = _codes(bad)
    assert "b_mono" in codes and "bottom_row_exact" in codes


def test_validate_raises_with_violation_list():
    bad = dataclasses.replace(worked_example_input(), u=qmor([[5]]))
    with pytest.raises(SnakeInputError) as exc:
        validate(bad)
    assert exc.value.violations[0].code == "square_K"
    assert "left square" in str(exc.value)
    with pytest.raises(SnakeInputError):
        snake_sequence(bad)
    with pytest.raises(SnakeInputError):
        chase_delta(bad)


# -- mono part of a, epi part of d ------------------------------------------------


def _non_mono_a_ladder():
    # a = 0 on a 1-dim source: its mono part starts at the null object
    one = qmor([[1]])
    return SnakeInput(
        a=zero_mor(Obj(1, Q), Obj(1, Q)),
        c=one,
        u=zero_mor(Obj(1, Q), Obj(1, Q)),
        v=one,
        w=zero_mor(Obj(1, Q), Obj(0, Q)),
        b=one,
        d=zero_mor(Obj(1, Q), Obj(0, Q)),
    )


def test_mono_part_of_non_mono_a_is_null():
    inp = _non_mono_a_ladder()
    assert violations(inp) == []
    _, trace = connecting_morphism(inp)
    assert trace.mono_a.src.is_null and trace.mono_a.is_mono
    assert trace.mono_a.dst == inp.a.dst


def test_delta_on_reduced_ladder():
    delta, _ = connecting_morphism(_non_mono_a_ladder())
    assert delta.mat == Matrix.from_int_rows(Q, [[1]])
    assert chase_delta(_non_mono_a_ladder()) == delta


def _non_epi_d_ladder():
    # d = 0 into a 1-dim target: its epi part ends at the null object
    one = qmor([[1]])
    return SnakeInput(
        a=one,
        c=zero_mor(Obj(1, Q), Obj(0, Q)),
        u=zero_mor(Obj(1, Q), Obj(1, Q)),
        v=zero_mor(Obj(1, Q), Obj(1, Q)),
        w=zero_mor(Obj(0, Q), Obj(1, Q)),
        b=one,
        d=zero_mor(Obj(1, Q), Obj(1, Q)),
    )


def test_epi_part_of_non_epi_d_is_null():
    inp = _non_epi_d_ladder()
    assert violations(inp) == []
    delta, trace = connecting_morphism(inp)
    assert trace.epi_d.dst.is_null and trace.epi_d.is_epi
    assert trace.epi_d.src == inp.d.src
    assert delta.src.is_null  # Ker w is null here
    assert chase_delta(inp) == delta


def test_snake_sequence_builds_ker_w_and_coker_u_once(monkeypatch):
    inp = worked_example_input()
    calls = {"kernel": 0, "cokernel": 0}
    reduced = []
    def counting_rref(m, _original=linalg.rref):
        reduced.append(m)
        return _original(m)
    monkeypatch.setattr(linalg, "rref", counting_rref)

    def counted(name, fn):
        def wrapper(f):
            calls[name] += 1
            return fn(f)
        return wrapper

    monkeypatch.setattr(snake, "kernel", counted("kernel", snake.kernel))
    monkeypatch.setattr(snake, "cokernel", counted("cokernel", snake.cokernel))
    out = snake_sequence(inp)
    # Ker w, Ker of the pullback leg, Ker w again for the chase, Ker u,
    # Ker v; dually for cokernels
    assert calls == {"kernel": 5, "cokernel": 5}
    assert out.ker_w == kernel(out.ker_w.of)
    assert out.coker_u == cokernel(out.coker_u.of)
    # the chase reads the bases the construction built: w and the
    # transpose of u are each reduced once
    assert sum(m is inp.w.mat for m in reduced) == 1
    assert sum(m is inp.u.mat.T for m in reduced) == 1


# -- generated ladders ---------------------------------------------------------


@pytest.mark.parametrize("seed", [1, 2, 17])
def test_generated_ladders_chase_and_exactness_gf7(seed):
    inp = gen_snake_input(GenConfig(seed=seed, field=GF7, max_dim=4))
    assert violations(inp) == []
    out = snake_sequence(inp)
    assert _exactness(out) == (True, True, True, True)
    delta, _ = connecting_morphism(inp)
    assert delta == chase_delta(inp)


# -- the chase, all kernel columns at once -----------------------------------------


def _reversed_order_lift(m, b):
    """A solution of ``m @ x = b`` that zeroes the free variables of the
    unknowns taken in reverse order: another particular solution than ``solve``'s."""
    y = solve(m.take_columns(reversed(range(m.cols))), b)
    return Matrix.from_rows(m.field, y.row_list()[::-1], cols=b.cols)


def _chase_by_columns(inp):
    """The chase one kernel column at a time, with both lift orders."""
    k = kernel(inp.w).ker_mor.mat
    p = cokernel(inp.u).coker_mor.mat
    cols = []
    for j in range(k.cols):
        outs = []
        for lifted in (solve(inp.c.mat, k.col(j)), _reversed_order_lift(inp.c.mat, k.col(j))):
            outs.append(p @ solve(inp.b.mat, inp.v.mat @ lifted))
        assert outs[0] == outs[1]
        cols.append(outs[0].entries)
    return Mor(Matrix.from_rows(p.field, cols, cols=p.rows).transpose())


def _seeded_ladders():
    for field in (Q, GF2, GF7):
        for seed in range(1, 13):
            for short in (False, True):
                yield gen_snake_input(GenConfig(seed=seed, field=field, max_dim=4),
                                      short_exact_rows=short)
    yield _non_epi_d_ladder()


def test_batched_chase_equals_the_column_by_column_chase(monkeypatch):
    calls = 0
    def counting(*args, _original=snake.solve):
        nonlocal calls
        calls += 1
        return _original(*args)
    monkeypatch.setattr(snake, "solve", counting)
    ker_w_dims, coker_u_dims = set(), set()
    for inp in _seeded_ladders():
        ker_w_dims.add(kernel(inp.w).ker_obj.dim)
        coker_u_dims.add(cokernel(inp.u).coker_obj.dim)
        before = calls
        got = chase_delta(inp)
        # one lift, then one solve against b for the lift and a together
        assert calls == before + 2
        assert got == _chase_by_columns(inp)
    assert {0, 1, 2} <= ker_w_dims and {0, 1, 2} <= coker_u_dims


def test_chase_refuses_a_result_that_depends_on_the_lift(monkeypatch):
    # with v = [[1, 1], [0, 0]] the left square fails to commute, so a does
    # not come out zero: two lifts of the kernel generator, e2 and e2 + e1,
    # chase to 1 and 2
    inp = dataclasses.replace(worked_example_input(), v=qmor([[1, 1], [0, 0]]))
    monkeypatch.setattr(snake, "validate", lambda inp: inp)
    with pytest.raises(InternalCheckError, match="^chase result depends on the lift choice$"):
        chase_delta(inp)
