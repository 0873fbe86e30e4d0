"""Acceptance gate: ten checks at desk scale, one pass/fail line each.

Every check here is exact arithmetic over Q and GF(7); "100%" means zero
tolerated failures across the whole generated population.  The shared ladder
family for the snake checks is built once per module and reused so that the
oracle criterion really does chase the same instances the exactness
criterion verified.
"""

import pathlib

import pytest

from abcat.cli import main
from abcat.diagrams import GenConfig, SplitMix64, gen_snake_input
from abcat.fields import RATIONALS, prime_field
from abcat.properties import (
    check_biproduct,
    check_decomposition,
    check_factorization,
    check_kernel_cokernel_squares,
    check_kernel_restriction,
    check_lemma_kernel_cokernel,
    check_mono_epi_iso,
    check_quotient_stability,
    check_square_composition,
    check_square_equivalence,
    check_transport,
    check_ker_coker_exactness,
    check_worked_example,
)
from abcat.snake import chase_delta, connecting_morphism, snake_sequence

Q = RATIONALS
GF7 = prime_field(7)
SEED = 20240816
GOLDEN = pathlib.Path(__file__).parent / "golden"


def _gate(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {num:2d} [{name}]: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def _suites(check, cases):
    return [check(cases, SEED, Q), check(cases, SEED + 1, GF7)]


def _summarize(results):
    ok = all(r.ok for r in results)
    total = sum(r.cases for r in results)
    if ok:
        return ok, f"{total} cases"
    bad = "; ".join(msg for r in results for msg in r.failures[:2])
    return ok, f"{total} cases; {bad}"


# -- shared snake family --------------------------------------------------------


@pytest.fixture(scope="module")
def snake_family():
    """200 GF(7) ladders plus 50 rational ones, all with short exact rows."""
    base = SplitMix64(SEED).derive(40)
    instances = []
    for field, count in ((GF7, 200), (Q, 50)):
        for _ in range(count):
            cfg = GenConfig(seed=base.next_u64(), field=field, max_dim=4)
            instances.append(gen_snake_input(cfg, short_exact_rows=True))
    return instances


# -- the ten criteria ------------------------------------------------------------


def test_criterion_01_semicartesian_equivalence():
    results = _suites(check_square_equivalence, 250)
    ok, detail = _summarize(results)
    mix = {k: sum(r.counters.get(k, 0) for r in results)
           for k in ("semicartesian", "not_semicartesian")}
    _gate(1, "four equivalent conditions", ok, f"{detail}, population {mix}")


def test_criterion_02_decomposition_roundtrip():
    results = _suites(check_decomposition, 100)
    ok, detail = _summarize(results)
    _gate(2, "cocartesian-epi / cartesian-mono split", ok, detail)


def test_criterion_03_composition_and_cancellation():
    results = _suites(check_square_composition, 100)
    ok, detail = _summarize(results)
    pairs = {k: sum(r.counters.get(k, 0) for r in results)
             for k in ("closure_pairs", "epi_cancel_pairs", "mono_cancel_pairs")}
    _gate(3, "closure and both cancellations", ok, f"{detail}, {pairs}")


def test_criterion_04_kernel_cokernel_squares():
    results = _suites(check_kernel_cokernel_squares, 100)
    ok, detail = _summarize(results)
    _gate(4, "kernel/cokernel square clauses", ok, f"{detail}, 4 clauses each")


def test_criterion_05_snake_exactness(snake_family):
    bad = []
    for idx, inp in enumerate(snake_family):
        out = snake_sequence(inp)
        if not all(out.exact_report):
            bad.append(f"#{idx} exactness {out.exact_report}")
            continue
        natural = (
            out.ker_v.ker_mor @ out.s == inp.a @ out.ker_u.ker_mor
            and out.ker_w.ker_mor @ out.t == inp.c @ out.ker_v.ker_mor
            and out.x @ out.coker_u.coker_mor == out.coker_v.coker_mor @ inp.b
            and out.y @ out.coker_v.coker_mor == out.coker_w.coker_mor @ inp.d
        )
        if not natural:
            bad.append(f"#{idx} naturality")
            continue
        alternating = (
            out.ker_u.ker_obj.dim - out.ker_v.ker_obj.dim + out.ker_w.ker_obj.dim
            - out.coker_u.coker_obj.dim + out.coker_v.coker_obj.dim
            - out.coker_w.coker_obj.dim
        )
        if alternating != 0:
            bad.append(f"#{idx} alternating sum {alternating}")
    _gate(5, "six-term sequence", not bad,
          f"{len(snake_family)} ladders" + (f"; {bad[:3]}" if bad else ""))


def test_criterion_06_chase_oracle(snake_family):
    # every delta equals its chase, so the global sign is +1
    bad = []
    nonzero = 0
    for idx, inp in enumerate(snake_family):
        delta, _ = connecting_morphism(inp)
        if delta != chase_delta(inp):
            bad.append(f"#{idx} delta differs from the chase")
        elif not delta.is_zero:
            nonzero += 1
    ok = not bad and nonzero > 0
    _gate(6, "connecting morphism vs element chase", ok,
          f"global sign +1, {nonzero} nonzero instances"
          + (f"; {bad[:3]}" if bad else ""))


def test_criterion_07_worked_example():
    res = check_worked_example()
    _gate(7, "worked ladder", res.ok,
          "ranks (1, 0, 1, 0, 1), invertible delta" if res.ok
          else "; ".join(res.failures))


def test_criterion_08_foundations():
    results = []
    for check in (check_factorization, check_lemma_kernel_cokernel,
                  check_quotient_stability, check_kernel_restriction,
                  check_mono_epi_iso, check_biproduct):
        results.extend(_suites(check, 100))
    ok, detail = _summarize(results)
    _gate(8, "foundations laws", ok, f"6 laws x 200 instances; {detail}")


def test_criterion_09_exactness_transport():
    results = _suites(check_transport, 100) + _suites(check_ker_coker_exactness, 100)
    ok, detail = _summarize(results)
    _gate(9, "transport and one-sided exactness", ok, detail)


def test_criterion_10_reproducibility(capsys):
    def run(*argv):
        code = main(list(argv))
        return code, capsys.readouterr().out

    problems = []

    gen_args = ("gen", "--kind", "snake", "--seed", "5", "--field", "gf:7")
    _, first = run(*gen_args)
    _, second = run(*gen_args)
    if first != second:
        problems.append("gen output changed between runs")

    st_args = ("selftest", "--cases", "4", "--seed", "3", "--field", "q")
    code1, out1 = run(*st_args)
    code2, out2 = run(*st_args)
    if (code1, out1) != (code2, out2):
        problems.append("selftest output changed between runs")
    if code1 != 0:
        problems.append("selftest reported a failure")

    for args, golden in (
        (("gen", "--kind", "pair", "--seed", "1", "--field", "q"),
         "pair_q_seed1.json"),
        (("gen", "--kind", "square", "--seed", "1", "--field", "gf:7"),
         "square_gf7_seed1.json"),
        (("gen", "--kind", "snake", "--seed", "1", "--field", "gf:7"),
         "snake_gf7_seed1.json"),
        (("snake", str(GOLDEN / "worked_snake.json"), "--trace", "--oracle"),
         "worked_snake_report.txt"),
        (("snake", str(GOLDEN / "snake_gf7_seed1.json"), "--oracle"),
         "snake_gf7_seed1_report.txt"),
        (("snake", str(GOLDEN / "snake_gf7_seed9.json"), "--trace", "--oracle"),
         "snake_gf7_seed9_report.txt"),
    ):
        _, out = run(*args)
        if out != (GOLDEN / golden).read_text(encoding="utf-8"):
            problems.append(f"golden drift: {golden}")

    with capsys.disabled():
        _gate(10, "byte-identical reruns and goldens", not problems,
              "; ".join(problems) if problems else "2 reruns, 6 goldens")
