"""The benchmark's tracer patches abcat's public names from outside; a name
it expects that no longer exists should fail here, not only in the bench."""

import dataclasses
import pathlib
import sys
import types

import pytest

from abcat import category, cli, linalg, snake
from abcat.category import Mor
from abcat.fields import RATIONALS, GFElement, prime_field
from abcat.linalg import Matrix
from abcat.properties import worked_example_input

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


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


def test_tracer_counts_a_gf_kernel_reduction(tracer_module):
    # the GF(p) elimination runs inside linalg.rref, the name the bench
    # patches, so a kernel's one reduction is counted with all its entries
    tr = tracer_module.Tracer()
    m = Matrix.from_int_rows(prime_field(7), [[0, 3, 1, 4], [2, 4, 6, 1], [2, 0, 0, 5]])
    tr.install(counting=True)
    try:
        kd = category.kernel(Mor(m))  # looked up at call time, as the bench does
    finally:
        tr.uninstall()
    assert kd.ker_obj.dim == 2 and (m @ kd.ker_mor.mat).is_zero
    assert tr.calls("linalg.rref") == 1
    assert tr.rref_entries == m.rows * m.cols


def test_tracer_sees_gf_solves_and_products_in_their_own_spans(tracer_module):
    # a solve reduces the rows of [m | b] inside linalg.solve over either
    # field, so it opens no linalg.rref span; a GF(p) product is still
    # counted by Matrix.__matmul__
    tr = tracer_module.Tracer()
    gf = Matrix.from_int_rows(prime_field(7), [[0, 3, 1, 4], [2, 4, 6, 1], [2, 0, 0, 5]])
    q = Matrix.from_int_rows(RATIONALS, [[1, 2, 3], [2, 4, 6]])
    x = Matrix.from_int_rows(prime_field(7), [[1, 0], [6, 2], [0, 0], [3, 5]])
    tr.install(counting=True)
    try:
        b = gf @ x  # looked up at call time, as the bench does
        after_product = (tr.calls("linalg.matmul"), tr.madds)
        gf_solution = linalg.solve(gf, b)
        after_gf_solve = (tr.calls("linalg.solve"), tr.calls("linalg.rref"))
        q_solution = linalg.solve(q, q)
    finally:
        tr.uninstall()
    assert gf @ gf_solution == b and q @ q_solution == q
    assert after_product == (1, gf.rows * gf.cols * x.cols)
    assert after_gf_solve == (1, 0)
    assert tr.calls("linalg.solve") == 2 and tr.calls("linalg.rref") == 0


def test_tracer_counts_public_calls_that_read_cached_facts(tracer_module):
    # kernels, cokernels and a ladder's violations are kept with their
    # matrix or ladder; every public call still counts, the work only once
    tr = tracer_module.Tracer()
    f = Mor(Matrix.from_int_rows(RATIONALS, [[1, 2, 3], [2, 4, 6]]))
    inp = dataclasses.replace(worked_example_input())  # a copy not validated yet
    tr.install(counting=True)
    try:
        kernels = [category.kernel(f), category.kernel(f)]
        after_kernels = {name: tr.calls(name) for name in ("category.kernel", "linalg.rref")}
        cokernels = [category.cokernel(f), category.cokernel(f)]
        found = [snake.violations(inp), snake.violations(inp)]
    finally:
        tr.uninstall()
    assert kernels[0] == kernels[1] and found == [[], []]
    assert cokernels[0].coker_mor.mat is cokernels[1].coker_mor.mat
    assert after_kernels == {"category.kernel": 2, "linalg.rref": 1}
    assert tr.calls("category.cokernel") == 2
    assert tr.calls("snake.violations") == 2
    assert tr.calls("constructions.is_exact_pair") == 2  # one validation: two rows


def test_gf_snake_builds_no_scalar_wrappers(tracer_module, capsys):
    # GF(p) entries are plain int residues: a whole snake command creates no
    # GFElement, and the tracer's counter of them is still installed and live
    tr = tracer_module.Tracer()
    tr.install(counting=True)
    try:
        code = cli.main(["snake", str(GOLDEN / "snake_gf7_seed1.json"), "--oracle"])
        created_by_command = tr.gf_new
        GFElement(3, 7)
    finally:
        tr.uninstall()
    assert code == 0
    assert capsys.readouterr().out == (GOLDEN / "snake_gf7_seed1_report.txt").read_text(
        encoding="utf-8")
    assert tr.calls("snake.snake_sequence") == 1 and tr.calls("linalg.rref") > 0
    assert created_by_command == 0 and tr.gf_new == 1


def test_every_span_the_bench_reads_is_traced(tracer_module):
    # per_layer reads calls and seconds off spans by name, and a span that no
    # longer exists reads as zero there instead of failing
    import run  # next to tracer

    class Reads:
        madds = zero_madds = rref_distinct = rref_entries = gf_new = 0

        def __init__(self):
            self.spans = set()

        def calls(self, name):
            self.spans.add(name)
            return 1

        def seconds(self, name):
            self.spans.add(name)
            return 0.0

        def self_seconds(self, module):
            return 0.0

    reads = Reads()
    tally = types.SimpleNamespace(count=lambda: 1, rate=lambda: 1.0)
    run.per_layer(reads, types.SimpleNamespace(gen_s=[0.0]), tally, tally)
    assert "linalg.rref" in reads.spans and "snake.violations" in reads.spans
    assert sorted(reads.spans - set(tracer_module.Tracer().stats)) == []
