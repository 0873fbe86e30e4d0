"""The benchmark's tracer patches abcat's public names from outside; a name
it expects that no longer exists should fail here, not only in the bench."""

import pathlib
import sys

import pytest

from abcat import category
from abcat.category import Mor
from abcat.fields import RATIONALS
from abcat.linalg import Matrix

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def tracer_module(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.delitem(sys.modules, "tracer", raising=False)
    import tracer
    return tracer


def test_tracer_counts_a_kernel(tracer_module):
    tr = tracer_module.Tracer()
    f = Mor(Matrix.from_int_rows(RATIONALS, [[1, 2, 3], [2, 4, 6]]))
    tr.install(counting=True)
    try:
        kd = category.kernel(f)  # looked up at call time, as the bench does
        flags = (f.rank, f.is_epi, Mor.from_matrix(f.mat) == f)
    finally:
        tr.uninstall()
    assert kd.ker_obj.dim == 2 and flags == (1, False, True)
    assert tr.calls("category.kernel") == 1
    assert tr.calls("category.rank") == 2 and tr.calls("category.from_matrix") == 1
    assert tr.calls("linalg.rref") >= 1
    assert tr.rref_entries >= 6
    # uninstalled: the original functions are back
    assert category.kernel(Mor(Matrix.from_int_rows(RATIONALS, [[1, 1]]))).ker_obj.dim == 1
    assert tr.calls("category.kernel") == 1
