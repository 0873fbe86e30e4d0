"""Elimination kernels checked against hand computations and independent oracles.

The hand-computed cases pin the *canonical* outputs (pivot order, free-variable
normalization), not just mathematical correctness.  The sympy cross-check works
because reduced row echelon form is unique, so any two correct implementations
must agree entry for entry.  Over small prime fields we can afford to enumerate
every vector and compare against the honest kernel.
"""

from fractions import Fraction
import gc
import itertools
import json
import random
import weakref

import pytest
import sympy

from abcat import linalg
from abcat.category import Mor, Obj, biproduct
from abcat.diagram_io import diagram_for_morphism, parse_text, serialize
from abcat.errors import ShapeError
from abcat.fields import RATIONALS, GFElement, prime_field
from abcat.linalg import Matrix, rref, solve

Q = RATIONALS
GF2 = prime_field(2)
GF3 = prime_field(3)
GF7 = prime_field(7)
GF_BIG = prime_field(2**31 - 1)


def qmat(rows, cols=None):
    return Matrix.from_int_rows(Q, rows, cols)


def gfmat(field, rows, cols=None):
    return Matrix.from_int_rows(field, rows, cols)


# -- shape discipline -------------------------------------------------------


def test_entry_count_must_match_shape():
    with pytest.raises(ShapeError):
        Matrix(2, 2, (Fraction(1),) * 3, Q)


def test_negative_shape_rejected():
    with pytest.raises(ShapeError):
        Matrix(-1, 2, (), Q)


def test_foreign_entries_rejected():
    with pytest.raises(ShapeError):
        Matrix(1, 1, (1,), Q)  # plain int is not a canonical rational scalar


def test_zero_row_and_zero_column_shapes():
    a = Matrix.zeros(Q, 0, 3)
    b = Matrix.zeros(Q, 3, 0)
    assert (a @ b).rows == 0 and (a @ b).cols == 0
    assert (b @ a).rows == 3 and (b @ a).cols == 3
    assert (b @ a).is_zero
    assert a.echelon[2] == 0 and b.echelon[2] == 0
    # kernel of a 0x3 map is everything, cokernel of a 3x0 map is everything
    assert a.kernel_basis == Matrix.identity(Q, 3)
    assert b.cokernel_basis == Matrix.identity(Q, 3)


def test_hstack_vstack_shape_errors():
    with pytest.raises(ShapeError):
        qmat([[1]]).hstack(qmat([[1], [2]]))
    with pytest.raises(ShapeError):
        qmat([[1]]).vstack(qmat([[1, 2]]))


def test_splits_undo_stacking_including_empty_blocks():
    m = qmat([[1, 2, 3], [4, 5, 6]])
    for k in range(3):
        top, bottom = m.split_rows(k)
        assert (top.rows, bottom.rows) == (k, 2 - k) and top.vstack(bottom) == m
    for k in range(4):
        left, right = m.split_cols(k)
        assert (left.cols, right.cols) == (k, 3 - k) and left.hstack(right) == m


# -- hand-pinned eliminations ----------------------------------------------


def test_rref_rank_one_rational():
    # [[2,4],[1,2]] -> scale row 0 by 1/2, kill row 1
    r, pivots, rk = rref(qmat([[2, 4], [1, 2]]))
    assert r == qmat([[1, 2], [0, 0]])
    assert pivots == (0,)
    assert rk == 1


def test_rref_needs_row_swap():
    r, pivots, rk = rref(qmat([[0, 2], [3, 0]]))
    assert r == Matrix.identity(Q, 2)
    assert pivots == (0, 1)
    assert rk == 2


def test_rref_idempotent_on_fixed_case():
    m = qmat([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    r1 = rref(m)[0]
    assert rref(r1)[0] == r1
    assert m.echelon[2] == 2


def test_rref_gf7_rank_one():
    # det([[3,1],[1,5]]) = 14 = 0 mod 7; 3^-1 = 5 mod 7
    r, pivots, rk = rref(gfmat(GF7, [[3, 1], [1, 5]]))
    assert r == gfmat(GF7, [[1, 5], [0, 0]])
    assert pivots == (0,)
    assert rk == 1


def test_nullspace_canonical_normalization():
    # free column gets coefficient 1, pivots solved back
    n = qmat([[1, 1]], cols=2).kernel_basis
    assert n == qmat([[-1], [1]])
    n2 = qmat([[1, 2], [2, 4]]).kernel_basis
    assert n2 == qmat([[-2], [1]])


def test_nullspace_of_injective_map_is_empty():
    n = qmat([[1], [0]], cols=1).kernel_basis
    assert n.rows == 1 and n.cols == 0


def test_nullspace_gf7():
    n = gfmat(GF7, [[3, 1], [1, 5]]).kernel_basis
    # x0 = -5 x1 = 2 x1
    assert n == gfmat(GF7, [[2], [1]])


def test_left_nullspace_rows_in_rref_form():
    ln = qmat([[1, 2], [2, 4]]).cokernel_basis
    assert ln.rows == 1 and ln.cols == 2
    assert ln.entry(0, 0) == Fraction(1)
    assert ln.entry(0, 1) == Fraction(-1, 2)
    ln2 = qmat([[1], [1]], cols=1).cokernel_basis
    assert ln2 == qmat([[1, -1]])


def test_solve_zeroes_free_variables():
    x = solve(qmat([[1, 1]], cols=2), qmat([[2]], cols=1))
    assert x == qmat([[2], [0]])


def test_solve_inconsistent_returns_none():
    assert solve(qmat([[1], [0]], cols=1), qmat([[0], [1]], cols=1)) is None
    assert solve(qmat([[1, 2], [2, 4]]), qmat([[1], [1]], cols=1)) is None


def test_solve_multiple_columns():
    m = qmat([[1, 0], [0, 1], [1, 1]])
    b = m @ qmat([[3, -1], [2, 5]])
    x = solve(m, b)
    assert x is not None and m @ x == b


def test_solve_rejects_row_mismatch():
    with pytest.raises(ShapeError):
        solve(qmat([[1, 2]]), qmat([[1], [2]], cols=1))


# -- independent oracles -----------------------------------------------------


def _random_qmat(rng, rows, cols):
    ents = [Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3]))
            for _ in range(rows * cols)]
    return Matrix(rows, cols, tuple(ents), Q)


def test_rref_matches_sympy_over_rationals():
    rng = random.Random(20240817)
    for _ in range(120):
        rows = rng.randint(0, 5)
        cols = rng.randint(0, 5)
        m = _random_qmat(rng, rows, cols)
        got, pivots, rk = rref(m)
        sm = sympy.Matrix(rows, cols, [sympy.Rational(e) for e in m.entries])
        sref, spivots = sm.rref()
        assert pivots == spivots
        assert rk == len(spivots)
        flat = [Fraction(int(v.p), int(v.q)) for v in sref]
        assert list(got.entries) == flat


def test_nullspace_columns_annihilated_and_complete_sympy():
    rng = random.Random(99)
    for _ in range(60):
        m = _random_qmat(rng, rng.randint(1, 4), rng.randint(1, 4))
        n = m.kernel_basis
        assert (m @ n).is_zero
        sm = sympy.Matrix(m.rows, m.cols, [sympy.Rational(e) for e in m.entries])
        assert n.cols == m.cols - sm.rank()
        assert n.echelon[2] == n.cols


def _brute_kernel(m):
    p = m.field.p
    vecs = []
    for tup in itertools.product(range(p), repeat=m.cols):
        x = Matrix.from_int_rows(m.field, [[v] for v in tup], cols=1)
        if (m @ x).is_zero:
            vecs.append(tup)
    return vecs


@pytest.mark.parametrize("field", [GF2, GF3])
def test_nullspace_matches_brute_force_enumeration(field):
    rng = random.Random(7 * field.p)
    for _ in range(40):
        rows = rng.randint(0, 3)
        cols = rng.randint(0, 3)
        m = Matrix.from_int_rows(
            field,
            [[rng.randrange(field.p) for _ in range(cols)] for _ in range(rows)],
            cols,
        )
        n = m.kernel_basis
        kernel = _brute_kernel(m)
        assert len(kernel) == field.p ** n.cols  # basis spans: count matches
        assert n.echelon[2] == n.cols  # and is independent
        for j in range(n.cols):
            col = tuple(n.entry(i, j) for i in range(n.rows))
            assert col in kernel


def test_left_nullspace_kills_rows_randomized():
    rng = random.Random(5)
    for _ in range(60):
        m = _random_qmat(rng, rng.randint(0, 4), rng.randint(0, 4))
        ln = m.cokernel_basis
        assert (ln @ m).is_zero
        assert ln.rows == m.rows - m.echelon[2]
        # rows already in reduced echelon form: rref is a no-op
        assert rref(ln)[0] == ln


def test_solve_agrees_with_membership_randomized():
    rng = random.Random(11)
    hits = 0
    for _ in range(120):
        m = _random_qmat(rng, rng.randint(1, 4), rng.randint(1, 4))
        b = _random_qmat(rng, m.rows, 1)
        x = solve(m, b)
        sm = sympy.Matrix(m.rows, m.cols, [sympy.Rational(e) for e in m.entries])
        sb = sympy.Matrix(m.rows, 1, [sympy.Rational(e) for e in b.entries])
        solvable = sm.rank() == sm.row_join(sb).rank()
        assert (x is not None) == solvable
        if x is not None:
            hits += 1
            assert m @ x == b
    assert hits > 10  # the loop must exercise both branches


def test_matmul_associativity_spot_check():
    rng = random.Random(3)
    for _ in range(40):
        a = _random_qmat(rng, rng.randint(0, 3), rng.randint(0, 3))
        b = _random_qmat(rng, a.cols, rng.randint(0, 3))
        c = _random_qmat(rng, b.cols, rng.randint(0, 3))
        assert (a @ b) @ c == a @ (b @ c)


def test_transpose_involution_and_product_rule():
    a = qmat([[1, 2], [3, 4], [5, 6]])
    b = qmat([[1, 0, 2], [0, 1, 1]])
    assert a.transpose().transpose() == a
    assert (a @ b).transpose() == b.transpose() @ a.transpose()


# -- reference kernels --------------------------------------------------------
#
# rref and @ compute on plain values (int residues over GF(p)); these textbook
# versions compute on scalar objects that do their own arithmetic (Fraction,
# or GFElement, which reduces mod p itself), so any difference in pivoting,
# reduction or zero handling shows up as different entries.


def _lift(field, x):
    """The entry x as a scalar doing its own arithmetic: a GFElement over GF(p)."""
    return x if field.p is None else GFElement(x, field.p)


def _scalar_rows(m):
    return [[_lift(m.field, m.entry(i, j)) for j in range(m.cols)] for i in range(m.rows)]


def _from_scalars(field, rows, cols, values):
    """The matrix with these scalars as entries, read back as residues."""
    flat = tuple(x if field.p is None else x.value for x in values)
    return Matrix(rows, cols, flat, field)


def _reference_rref(m):
    rows = _scalar_rows(m)
    pivots = []
    pr = 0
    for c in range(m.cols):
        found = [r for r in range(pr, m.rows) if rows[r][c]]
        if not found:
            continue
        rows[pr], rows[found[0]] = rows[found[0]], rows[pr]
        piv = rows[pr][c]
        rows[pr] = [x / piv for x in rows[pr]]
        for r in range(m.rows):
            factor = rows[r][c]
            if r != pr and factor:
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[pr])]
        pivots.append(c)
        pr += 1
    flat = [x for row in rows for x in row]
    return _from_scalars(m.field, m.rows, m.cols, flat), tuple(pivots)


def _reference_matmul(a, b):
    left, right = _scalar_rows(a), _scalar_rows(b)
    out = []
    for i in range(a.rows):
        for j in range(b.cols):
            acc = _lift(a.field, a.field.zero())
            for k in range(a.cols):
                acc = acc + left[i][k] * right[k][j]
            out.append(acc)
    return _from_scalars(a.field, a.rows, b.cols, out)


def _same_bytes(got, want):
    return ((got.rows, got.cols, got.field, repr(got.entries))
            == (want.rows, want.cols, want.field, repr(want.entries)))


def _sparse_random(rng, field, rows, cols):
    """About half the entries zero; the rest small, or anywhere in [0, p)."""
    def one():
        if rng.random() < 0.5:
            return field.zero()
        if field.p is None:
            return Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        return field.from_int(rng.choice([rng.randint(-3, 3), rng.randrange(field.p)]))
    return Matrix(rows, cols, tuple(one() for _ in range(rows * cols)), field)


def _block_operands(field):
    """Insertions and projections of biproducts, empty summands included."""
    for a, b in [(0, 0), (0, 3), (3, 0), (1, 2), (4, 3)]:
        bp = biproduct(Obj(a, field), Obj(b, field))
        yield from (m.mat for m in (bp.ins_i, bp.ins_j, bp.proj_p, bp.proj_q))


REFERENCE_FIELDS = [Q, GF2, GF7, GF_BIG]


@pytest.mark.parametrize("field", REFERENCE_FIELDS, ids=str)
def test_rref_matches_reference_elimination(field):
    rng = random.Random(f"rref:{field}")
    cases = [_sparse_random(rng, field, rng.randint(0, 7), rng.randint(0, 7))
             for _ in range(60)]
    cases += [Matrix.zeros(field, 0, 5), Matrix.zeros(field, 5, 0)]
    for _ in range(15):  # rank-deficient products
        d, r = rng.randint(1, 8), rng.randint(0, 4)
        cases.append(_sparse_random(rng, field, d, r) @ _sparse_random(rng, field, r, d))
    for block in _block_operands(field):
        cases.append(block)
        cases.append(_sparse_random(rng, field, block.rows, 2).hstack(block))
        cases.append(block.hstack(_sparse_random(rng, field, block.rows, 3)))
    for m in cases:
        got, pivots, rk = rref(m)
        want, want_pivots = _reference_rref(m)
        assert _same_bytes(got, want), m
        assert pivots == want_pivots and rk == len(want_pivots)


def _reference_kernel(m, r, pivots):
    """One column per free column of ``m``'s reference rref ``r``, as in
    ``Matrix.kernel_basis``."""
    zero, one = _lift(m.field, m.field.zero()), _lift(m.field, m.field.one())
    free = [c for c in range(m.cols) if c not in pivots]
    cols = []
    for f in free:
        v = [zero] * m.cols
        v[f] = one
        for i, pc in enumerate(pivots):
            v[pc] = -_lift(m.field, r.entry(i, f))
        cols.append(v)
    return _from_scalars(m.field, m.cols, len(free),
                         [v[i] for i in range(m.cols) for v in cols])


def _reference_cokernel(m):
    t = m.transpose()
    return _reference_rref(_reference_kernel(t, *_reference_rref(t)).transpose())[0]


def _reference_solve(m, b):
    aug, pivots = _reference_rref(m.hstack(b))
    if any(pc >= m.cols for pc in pivots):
        return None
    rows = {pc: aug.entries[i * aug.cols + m.cols:(i + 1) * aug.cols]
            for i, pc in enumerate(pivots)}
    zero_row = (m.field.zero(),) * b.cols
    return Matrix(m.cols, b.cols,
                  tuple(x for c in range(m.cols) for x in rows.get(c, zero_row)), m.field)


def _dense_random(rng, field, rows, cols):
    """Anywhere in [0, p) over GF(p); nonzero over Q."""
    if field.p is None:
        return Matrix(rows, cols, tuple(Fraction(rng.choice([-1, 1]) * rng.randint(1, 9),
                                                 rng.randint(1, 4))
                                        for _ in range(rows * cols)), field)
    return Matrix(rows, cols, tuple(field.from_int(rng.randrange(field.p))
                                    for _ in range(rows * cols)), field)


def _kernel_cases(rng, field):
    """Inputs for both eliminations: empty, tiny, tall and wide shapes,
    sparse and dense entries, rank-deficient products, and rows that every
    pivot clears, which fill the packed GF(p) slots the most."""
    top = field.from_int(-1)
    cases = [Matrix.zeros(field, 0, 4), Matrix.zeros(field, 4, 0), Matrix.zeros(field, 0, 0),
             Matrix(1, 1, (top,), field), Matrix.zeros(field, 1, 1)]
    for rows, cols in [(9, 4), (4, 9), (12, 12)]:
        cases.append(_sparse_random(rng, field, rows, cols))
        cases.append(_dense_random(rng, field, rows, cols))
    cases.append(_dense_random(rng, field, 14, 5) @ _dense_random(rng, field, 5, 11))
    n = 16
    # all entries -1 (p - 1 over GF(p)) on and below the diagonal: the last
    # row is cleared by every pivot
    cases.append(Matrix.from_int_rows(field, [[-1 if j <= i else 0 for j in range(n)]
                                              for i in range(n)]))
    # every pivot row ends in p - 1 and the last row's entry under each pivot
    # is 1, so each clearing adds (p - 1)^2 to the last row's last slot
    cases.append(Matrix.from_int_rows(
        field, [[1 if j == i else -1 if j == n - 1 else 0 for j in range(n)]
                for i in range(n - 1)] + [[1] * n]))
    if field.p is not None:  # the Fraction reference takes seconds at this size
        # a pullback's [c | -d] at the dimension limit, c and d of rank 1
        c, d = (_dense_random(rng, field, 150, 1) @ _dense_random(rng, field, 1, 150)
                for _ in range(2))
        cases.append(c.hstack(-d))
    return cases


@pytest.mark.parametrize("field", [Q, GF2, GF3, GF7, GF_BIG], ids=str)
def test_gf_kernels_match_reference_elimination(field):
    rng = random.Random(f"kernels:{field}")
    for m in _kernel_cases(rng, field):
        got, pivots, rk = rref(m)
        want, want_pivots = _reference_rref(m)
        assert _same_bytes(got, want), m
        assert pivots == want_pivots and rk == len(want_pivots)
        assert _same_bytes(m.kernel_basis, _reference_kernel(m, want, want_pivots)), m
        # consistent, without columns, and all ones: inconsistent when m has
        # no columns but has rows
        rhs = [m @ _sparse_random(rng, field, m.cols, 2), Matrix.zeros(field, m.rows, 0),
               Matrix(m.rows, 1, (field.one(),) * m.rows, field)]
        if m.rows <= 20:  # the reference is slow at the dimension limit
            assert _same_bytes(m.cokernel_basis, _reference_cokernel(m)), m
            rhs.append(_dense_random(rng, field, m.rows, 1))  # mostly inconsistent
            # wider than m: consistent, and dense
            rhs.append(m @ _sparse_random(rng, field, m.cols, m.cols + 3))
            rhs.append(_dense_random(rng, field, m.rows, m.cols + 3))
        for b in rhs:
            got_x, want_x = solve(m, b), _reference_solve(m, b)
            assert (got_x is None and want_x is None) or _same_bytes(got_x, want_x), (m, b)


@pytest.mark.parametrize("field", [*REFERENCE_FIELDS, GF3], ids=str)
def test_matmul_matches_reference_triple_loop(field):
    rng = random.Random(f"matmul:{field}")
    pairs = []
    for _ in range(60):
        m, k, n = (rng.randint(0, 6) for _ in range(3))
        pairs.append((_sparse_random(rng, field, m, k), _sparse_random(rng, field, k, n)))
    # inner dimension 150 with every entry -1 (p - 1 over GF(p)): the largest
    # sum a product slot holds; and inner dimension 0
    top = field.from_int(-1)
    for m, k, n in [(3, 150, 2), (1, 150, 150), (3, 0, 2), (0, 0, 4), (2, 0, 0)]:
        pairs.append((Matrix(m, k, (top,) * (m * k), field),
                      Matrix(k, n, (top,) * (k * n), field)))
    for block in _block_operands(field):
        pairs.append((_sparse_random(rng, field, rng.randint(0, 4), block.rows), block))
        pairs.append((block, _sparse_random(rng, field, block.cols, rng.randint(0, 4))))
        pairs.append((block, block.transpose()))
        pairs.append((block.transpose(), block))
    for a, b in pairs:
        assert _same_bytes(a @ b, _reference_matmul(a, b)), (a, b)


def test_gf_entries_must_be_int_residues_in_range():
    # a residue carries no modulus, so 1 from GF(5) is 1 in GF(7); what is
    # not an int in [0, p) is refused, GFElement included
    assert Matrix(1, 2, (0, 6), GF7).entries == (0, 6)
    for bad in (7, -1, 2**31, True, False, Fraction(1), GFElement(1, 7), GFElement(1, 5)):
        with pytest.raises(ShapeError, match=r"does not belong to GF\(7\)"):
            Matrix(1, 2, (1, bad), GF7)


@pytest.mark.parametrize("field", [GF2, GF7, GF_BIG], ids=str)
def test_every_gf_matrix_path_returns_int_residues(field):
    p = field.p
    # entries near p, so an unreduced sum, difference or negation shows
    a = Matrix.from_int_rows(field, [[p - 1, 1, 0, -1], [2 * p + 1, p - 1, -p, 3],
                                     [1, 0, p - 1, 1]])
    b = Matrix.from_int_rows(field, [[-1, 1], [0, p - 1], [1, 1], [p + 1, -2]])
    x = Matrix.from_int_rows(field, [[1], [p - 1], [0], [1]])
    made = {
        "from_int_rows": a, "identity": Matrix.identity(field, 3),
        "zeros": Matrix.zeros(field, 2, 3),
        "parse_text": parse_text(serialize(diagram_for_morphism(Mor(a)))).mor("f").mat,
        "rref": rref(a)[0], "echelon": a.echelon[0], "matmul": a @ b,
        "add": a + a, "sub": a - a.scale(p - 1), "neg": -a, "scale": a.scale(p - 1),
        "transpose": a.transpose(), "T": a.T,
        "hstack": a.hstack(a), "vstack": a.vstack(a),
        "split_rows": a.split_rows(1)[1], "split_cols": a.split_cols(2)[1],
        "kernel_basis": a.kernel_basis, "cokernel_basis": b.cokernel_basis,
        "solve": solve(a, a @ x),
    }
    for name, m in made.items():
        assert m.entries, name
        bad = [e for e in m.entries if type(e) is not int or not 0 <= e < p]
        assert not bad, (name, bad)
    assert made["add"] == a.scale(2) and (made["neg"] + a).is_zero
    assert made["parse_text"] == a and made["sub"] == made["add"]


def test_q_rref_divides_only_where_it_changes_something(monkeypatch):
    # unit pivots are left as they are and zeros are never divided
    divisions = []
    truediv = Fraction.__truediv__

    def counting(a, b):
        divisions.append((a, b))
        return truediv(a, b)

    monkeypatch.setattr(Fraction, "__truediv__", counting)
    eye = Matrix.identity(Q, 150)
    assert rref(eye) == (eye, tuple(range(150)), 150)
    assert divisions == []
    got, pivots, _ = rref(qmat([[2, 0, 4], [0, 0, 3]]))
    assert got == qmat([[1, 0, 0], [0, 0, 1]]) and pivots == (0, 2)
    assert len(divisions) == 3  # the nonzero entries of the two non-unit pivot rows


# -- zero dimensions, index checks and structural operations ----------------


@pytest.mark.parametrize("field", [Q, GF2, GF7], ids=str)
def test_rref_of_a_matrix_with_a_zero_dimension_eliminates_nothing(field, monkeypatch):
    def no_elimination(*args):
        raise AssertionError("eliminated a matrix without entries")

    for rows, cols in [(0, 4), (4, 0), (0, 0)]:
        m = Matrix.zeros(field, rows, cols)
        with monkeypatch.context() as patch:
            patch.setattr(linalg, "_rref_rows", no_elimination)
            patch.setattr(linalg, "_eliminate_packed", no_elimination)
            assert rref(m) == m.echelon == (Matrix(rows, cols, (), field), (), 0)
        assert rref(m)[0] == m and m.echelon[0].echelon == m.echelon
        assert m.kernel_basis == Matrix.identity(field, cols)
        assert m.cokernel_basis == Matrix.identity(field, rows)
        # the kept facts hold no reference back to the matrix, so reference
        # counting frees it without the cycle collector
        freed = weakref.ref(m)
        gc.disable()
        try:
            del m
            assert freed() is None
        finally:
            gc.enable()


def test_indices_out_of_range_are_shape_errors():
    m = qmat([[1, 2], [3, 4]])
    for call, index in [(lambda: m.take_columns([-1]), -1), (lambda: m.take_columns([0, 2]), 2),
                        (lambda: m.entry(0, 2), 2), (lambda: m.entry(1, -1), -1),
                        (lambda: m.col(2), 2), (lambda: m.col(-1), -1),
                        (lambda: m.split_cols(3), 2), (lambda: m.split_cols(-1), -1)]:
        with pytest.raises(ShapeError) as info:
            call()
        assert str(info.value) == f"column index {index} out of range for a 2x2 matrix"
    for i in (2, -1):
        with pytest.raises(ShapeError, match=rf"^row index {i} out of range for a 2x2 matrix$"):
            m.entry(i, 0)
    with pytest.raises(ShapeError, match="column index 0 out of range for a 3x0 matrix"):
        Matrix.zeros(Q, 3, 0).take_columns([0])


def test_entry_errors_name_the_first_bad_entry():
    cases = [(GF7, (1, True, 9), "entry True does not belong to GF(7)"),
             (GF7, (1, 7, True), "entry 7 does not belong to GF(7)"),
             (GF7, (1, -1, 7), "entry -1 does not belong to GF(7)"),
             (GF7, (Fraction(1, 2), 1, 2), "entry Fraction(1, 2) does not belong to GF(7)"),
             (Q, (Fraction(1), 1, 2.5), "entry 1 does not belong to Q"),
             (Q, (Fraction(1), Fraction(2), True), "entry True does not belong to Q")]
    for field, entries, message in cases:
        with pytest.raises(ShapeError) as info:
            Matrix(1, 3, entries, field)
        assert str(info.value) == message
    for rows, cols, entries, message in [(-1, 2, (), "negative shape -1x2"),
                                         (2, 2, (1, 2, 3), "2x2 matrix needs 4 entries, got 3")]:
        with pytest.raises(ShapeError) as info:
            Matrix(rows, cols, entries, GF7)
        assert str(info.value) == message


def _at(m, i, j):
    return m.entries[i * m.cols + j]


def _reference_kernel_basis(m):
    """The kernel basis vector by vector, as a column per free column."""
    r, pivots, _ = m.echelon
    free = [c for c in range(m.cols) if c not in pivots]
    vectors = []
    for f in free:
        v = [m.field.zero()] * m.cols
        v[f] = m.field.one()
        for i, pc in enumerate(pivots):
            v[pc] = -_at(r, i, f) if m.field.p is None else -_at(r, i, f) % m.field.p
        vectors.append(v)
    ents = tuple(vectors[j][i] for i in range(m.cols) for j in range(len(free)))
    return Matrix(m.cols, len(free), ents, m.field)


@pytest.mark.parametrize("field", REFERENCE_FIELDS, ids=str)
def test_structural_operations_match_per_entry_definitions(field):
    rng = random.Random(13)
    for _ in range(60):
        rows, cols = rng.randint(0, 5), rng.randint(0, 5)
        m = _sparse_random(rng, field, rows, cols)
        if rows and rng.random() < 0.3:  # a repeated row: rank deficient
            m = m.vstack(m.split_rows(1)[0])
        assert m.transpose() == Matrix(m.cols, m.rows, tuple(
            _at(m, i, j) for j in range(m.cols) for i in range(m.rows)), field)
        idxs = [rng.randrange(m.cols) for _ in range(rng.randint(0, 6))] if m.cols else []
        assert m.take_columns(idxs) == Matrix(m.rows, len(idxs), tuple(
            _at(m, i, j) for i in range(m.rows) for j in idxs), field)
        for k in range(m.cols + 1):
            assert m.split_cols(k) == tuple(
                Matrix(m.rows, len(js), tuple(_at(m, i, j) for i in range(m.rows) for j in js),
                       field)
                for js in (range(k), range(k, m.cols)))
        for j in range(m.cols):
            assert m.col(j).entries == tuple(_at(m, i, j) for i in range(m.rows))
        assert m.kernel_basis == _reference_kernel_basis(m)
        text = "[" + ", ".join("[" + ", ".join(field.format(_at(m, i, j))
                                               for j in range(m.cols)) + "]"
                               for i in range(m.rows)) + "]"
        assert str(m) == text
        doc = json.loads(serialize(diagram_for_morphism(Mor(m))))
        assert doc["morphisms"]["f"]["matrix"] == [
            [field.format(_at(m, i, j)) for j in range(m.cols)] for i in range(m.rows)]
