"""End-to-end command runs: exit codes, report bytes, golden comparisons."""

import dataclasses
import json
import os
import pathlib
import random
import subprocess
import sys
import time

import pytest

from abcat import cli, constructions, diagrams, properties, snake, squares
from abcat.category import KernelData, Mor, Obj, identity, zero_mor
from abcat.cli import main
from abcat.diagram_io import (
    MAX_DIM,
    diagram_for_morphism,
    diagram_for_pair,
    diagram_for_square,
    parse_path,
    parse_text,
    serialize,
    square_from,
)
from abcat.diagrams import GenConfig, gen_semicartesian
from abcat.errors import InternalCheckError, PreconditionError
from abcat.fields import RATIONALS
from abcat.linalg import Matrix

Q = RATIONALS
GOLDEN = pathlib.Path(__file__).parent / "golden"


def qmor(rows, src_dim=None):
    return Mor.from_matrix(Matrix.from_int_rows(Q, rows, src_dim))


@pytest.fixture
def run(capsys):
    def _run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err
    return _run


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


# -- factor ---------------------------------------------------------------------


def test_factor_rank_one(run, tmp_path):
    path = _write(tmp_path, "m.json",
                  serialize(diagram_for_morphism(qmor([[1, 2], [2, 4]]))))
    code, out, err = run("factor", path, "--morphism", "f")
    assert code == 0 and err == ""
    assert "rank: 1" in out
    assert "image_dim: 1" in out
    assert "recomposes: yes" in out
    assert "q: [[1, 2]]" in out
    assert "m: [[1], [2]]" in out
    assert out.endswith("result: ok\n")


def test_factor_unknown_name(run, tmp_path):
    path = _write(tmp_path, "m.json",
                  serialize(diagram_for_morphism(qmor([[1]]))))
    code, out, err = run("factor", path, "--morphism", "nope")
    assert code == 2
    assert "error: no morphism named 'nope'" in err


def test_missing_file_is_input_error(run, tmp_path):
    code, out, err = run("factor", str(tmp_path / "absent.json"), "--morphism", "f")
    assert code == 2 and "cannot read" in err


@pytest.mark.parametrize("where", ["top", "meta"])
def test_deeply_nested_json_is_input_error(run, tmp_path, where):
    deep = "[" * 1000 + "]" * 1000
    doc = json.loads(serialize(diagram_for_morphism(qmor([[1]]))))
    doc["meta"] = {"nest": "DEEP"}
    text = deep if where == "top" else json.dumps(doc).replace('"DEEP"', deep)
    code, out, err = run("factor", _write(tmp_path, "d.json", text), "--morphism", "f")
    assert code == 2 and out == ""
    assert err.startswith("error: invalid JSON: ")


# -- check-exact ------------------------------------------------------------------


def test_check_exact_golden_pair(run):
    code, out, err = run("check-exact", str(GOLDEN / "pair_q_seed1.json"))
    assert code == 0
    assert "composite_zero: yes" in out and "exact: yes" in out


def test_check_exact_failing_pair(run, tmp_path):
    f = zero_mor(Obj(1, Q), Obj(2, Q))
    g = qmor([[1, 0]])
    path = _write(tmp_path, "p.json", serialize(diagram_for_pair(f, g)))
    code, out, err = run("check-exact", path)
    assert code == 1
    assert "exact: no" in out and out.endswith("result: FAIL\n")


def test_check_exact_wrong_kind(run, tmp_path):
    path = _write(tmp_path, "m.json",
                  serialize(diagram_for_morphism(qmor([[1]]))))
    code, out, err = run("check-exact", path)
    assert code == 2 and "needs a pair diagram" in err


# -- pullback / pushout ------------------------------------------------------------


@pytest.fixture
def square_file(tmp_path):
    sq = gen_semicartesian(GenConfig(seed=5), "cartesian")
    return _write(tmp_path, "sq.json", serialize(diagram_for_square(sq)))


def test_pullback_of_cospan(run, square_file):
    code, out, err = run("pullback", square_file, "--of", "right,bottom")
    assert code == 0
    assert "square_commutes: yes" in out
    assert "apex_dim:" in out and "embedding_n:" in out


def test_pushout_of_span(run, square_file):
    code, out, err = run("pushout", square_file, "--of", "top,left")
    assert code == 0
    assert "corner_dim:" in out and "projection_t:" in out


def test_pullback_unknown_names(run, square_file):
    code, out, err = run("pullback", square_file, "--of", "x,y")
    assert code == 2 and "no morphism named" in err


def test_pullback_malformed_of_flag(run, square_file):
    with pytest.raises(SystemExit) as exc:
        main(["pullback", square_file, "--of", "right"])
    assert exc.value.code == 2


def test_pullback_shape_error_is_input_error(run, square_file):
    # top and bottom do not share a target, so the pullback is ill-posed
    code, out, err = run("pullback", square_file, "--of", "top,bottom")
    assert code == 2 and "error:" in err


def test_pullback_of_empty_target_runs_in_bounded_time(run, tmp_path):
    # f: Q^150 -> 0, so the pullback of (f, f) is all of Q^300.  Its legs are
    # products with 300 x 300 biproduct blocks, which must not cost cubic
    # scalar arithmetic.
    doc = {"field": {"kind": "Q"}, "objects": {"A": 150, "Z": 0},
           "morphisms": {"f": {"src": "A", "dst": "Z", "matrix": []}},
           "diagram": {"kind": "morphism", "roles": {"f": "f"}}}
    path = _write(tmp_path, "wide.json", json.dumps(doc))
    start = time.perf_counter()
    code, out, err = run("pullback", path, "--of", "f,f")
    elapsed = time.perf_counter() - start
    assert code == 0 and err == ""
    assert "apex_dim: 300\n" in out
    leg_f = next(ln for ln in out.splitlines() if ln.startswith("leg_f: "))
    assert leg_f.count("], [") == 149  # 150 rows
    assert elapsed < 10.0


# -- square -------------------------------------------------------------------------


def test_square_analysis_golden(run):
    code, out, err = run("square", str(GOLDEN / "square_gf7_seed1.json"))
    assert code == 0
    for line in ("condition_i: yes", "condition_ii: yes", "condition_iii: yes",
                 "condition_iv: yes", "semi_cartesian: yes"):
        assert line in out


def test_square_decompose_golden(run):
    code, out, err = run("square", str(GOLDEN / "square_gf7_seed1.json"),
                         "--decompose")
    assert code == 0
    assert "decomposition_recomposes: yes" in out
    assert "middle_vertical:" in out


def test_square_decompose_deficient(run, tmp_path):
    sq = gen_semicartesian(GenConfig(seed=3), "deficient")
    path = _write(tmp_path, "bad.json", serialize(diagram_for_square(sq)))
    code, out, err = run("square", path, "--decompose")
    assert code == 1
    assert "semi_cartesian: no" in out
    assert "violation: not semi-cartesian" in out
    assert out.endswith("result: FAIL\n")


def test_square_wrong_kind(run):
    code, out, err = run("square", str(GOLDEN / "pair_q_seed1.json"))
    assert code == 2 and "expected a square diagram" in err


# -- snake --------------------------------------------------------------------------


def test_snake_worked_report_matches_golden_bytes(run):
    code, out, err = run("snake", str(GOLDEN / "worked_snake.json"),
                         "--trace", "--oracle")
    assert code == 0 and err == ""
    assert out == (GOLDEN / "worked_snake_report.txt").read_text(encoding="utf-8")


def test_snake_generated_reports_match_golden_bytes(run):
    code, out, _ = run("snake", str(GOLDEN / "snake_gf7_seed1.json"), "--oracle")
    assert code == 0
    assert out == (GOLDEN / "snake_gf7_seed1_report.txt").read_text(encoding="utf-8")
    code, out, _ = run("snake", str(GOLDEN / "snake_gf7_seed9.json"),
                       "--trace", "--oracle")
    assert code == 0
    assert out == (GOLDEN / "snake_gf7_seed9_report.txt").read_text(encoding="utf-8")


def test_snake_without_flags_omits_trace_and_oracle(run):
    code, out, err = run("snake", str(GOLDEN / "worked_snake.json"))
    assert code == 0
    assert "trace_" not in out and "oracle_sign" not in out


def test_snake_invalid_ladder_reports_violations(run, tmp_path):
    doc = json.loads((GOLDEN / "worked_snake.json").read_text(encoding="utf-8"))
    doc["morphisms"]["u"]["matrix"] = [["5"]]
    path = _write(tmp_path, "bad.json", json.dumps(doc))
    code, out, err = run("snake", path)
    assert code == 2
    assert "violation: square_K:" in out
    assert out.endswith("result: FAIL\n")


def test_snake_wrong_kind(run):
    code, out, err = run("snake", str(GOLDEN / "pair_q_seed1.json"))
    assert code == 2 and "expected a snake diagram" in err


def test_snake_builds_delta_once_and_validates_once(run, monkeypatch):
    # the construction and the chase oracle share the ladder's one validation:
    # two exactness tests for its rows, four for the six-term sequence
    calls = {"pullback": 0, "is_exact_pair": 0}
    for name in calls:
        def counting(*args, _name=name, _original=getattr(snake, name)):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(snake, name, counting)
    code, out, _ = run("snake", str(GOLDEN / "worked_snake.json"), "--trace", "--oracle")
    assert code == 0
    assert out == (GOLDEN / "worked_snake_report.txt").read_text(encoding="utf-8")
    assert calls == {"pullback": 1, "is_exact_pair": 6}


def test_snake_oracle_mismatch_is_a_bug(run, monkeypatch):
    # the chase must equal delta itself, so a chase of the opposite sign is a
    # failed internal identity, not a verdict
    monkeypatch.setattr(cli, "chase_delta", lambda inp: -snake.chase_delta(inp))
    code, out, err = run("snake", str(GOLDEN / "worked_snake.json"), "--oracle")
    assert code == 3 and out == ""
    assert err == ("internal error (this is a bug): "
                   "the connecting morphism differs from the element chase\n")


def test_square_decompose_analyses_once(run, monkeypatch):
    calls = []
    pullback = squares.pullback

    def counting(c, d):
        calls.append(1)
        return pullback(c, d)
    monkeypatch.setattr(squares, "pullback", counting)
    code, out, _ = run("square", str(GOLDEN / "square_gf7_seed1.json"), "--decompose")
    assert code == 0 and "decomposition_recomposes: yes" in out
    assert len(calls) == 1


def test_square_decompose_does_not_recompose_again(run, monkeypatch):
    # the report's recomposition verdict comes from the check that
    # decompose_semicartesian already made, not from gluing the halves again
    calls = []
    matmul = Matrix.__matmul__

    def counting(a, b):
        calls.append(1)
        return matmul(a, b)
    monkeypatch.setattr(Matrix, "__matmul__", counting)
    code, out, err = run("square", str(GOLDEN / "square_gf7_seed1.json"), "--decompose")
    assert code == 0 and err == ""
    assert out == (GOLDEN / "square_gf7_seed1_decompose_report.txt").read_text(encoding="utf-8")
    assert len(calls) < 27  # 27 when the verdict glued the halves with compose_h


@pytest.mark.parametrize("dim", [MAX_DIM + 1, 10**12])
def test_over_limit_dimension_exits_two_quickly(run, tmp_path, dim):
    doc = {"field": {"kind": "Q"}, "objects": {"A": dim, "B": 0},
           "morphisms": {"f": {"src": "A", "dst": "B", "matrix": []}},
           "diagram": {"kind": "morphism", "roles": {"f": "f"}}}
    path = _write(tmp_path, "huge.json", json.dumps(doc))
    start = time.perf_counter()
    code, out, err = run("pullback", path, "--of", "f,f")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err == f"error: objects.A: dimension {dim} exceeds the limit {MAX_DIM}\n"


@pytest.mark.parametrize("field, cell", [({"kind": "Q"}, "３/٢"),
                                         ({"kind": "GFp", "p": 7}, "٥")], ids=["Q", "GF7"])
def test_non_ascii_digits_are_input_errors(run, tmp_path, field, cell):
    doc = {"field": field, "objects": {"A": 1},
           "morphisms": {"f": {"src": "A", "dst": "A", "matrix": [[cell]]}},
           "diagram": {"kind": "morphism", "roles": {"f": "f"}}}
    path = _write(tmp_path, "m.json", json.dumps(doc, ensure_ascii=False))
    code, out, err = run("factor", path, "--morphism", "f")
    assert code == 2 and out == ""
    assert err.startswith("error: morphisms.f.matrix[0][0]: ")


def test_over_long_literal_is_input_error_in_plain_words(run, tmp_path):
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter converts numerals of any length")
    doc = {"field": {"kind": "Q"}, "objects": {"A": 2, "B": 1},
           "morphisms": {"f": {"src": "A", "dst": "B",
                               "matrix": [["1", "7" * (limit + 100)]]}},
           "diagram": {"kind": "morphism", "roles": {"f": "f"}}}
    path = _write(tmp_path, "long.json", json.dumps(doc))
    code, out, err = run("factor", path, "--morphism", "f")
    assert code == 2 and out == ""
    assert err == (f"error: morphisms.f.matrix[0][1]: literal has {limit + 100} digits, "
                   f"more than the limit of {limit} digits\n")


def test_over_long_result_entry_is_input_error_in_plain_words(run, tmp_path):
    # entries of half the digit limit are accepted, but the reduced form's
    # entries, ratios of 3x3 minors, have about three times as many digits
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter converts numerals of any length")
    rng, digits = random.Random(5), limit // 2
    rows = [[str(rng.randrange(10**(digits - 1), 10**digits)) for _ in range(4)]
            for _ in range(3)]
    doc = {"field": {"kind": "Q"}, "objects": {"A": 4, "B": 3},
           "morphisms": {"f": {"src": "A", "dst": "B", "matrix": rows}},
           "diagram": {"kind": "morphism", "roles": {"f": "f"}}}
    path = _write(tmp_path, "big.json", json.dumps(doc))
    code, out, err = run("factor", path, "--morphism", "f")
    assert code == 2 and out == ""
    assert err == f"error: a result entry exceeds the limit of {limit} digits\n"


@pytest.mark.parametrize("old, new, message", [
    ('"A": 1', '"A": ' + "7" * 5000, "objects.A: literal has 5000 digits"),
    ('"p": 7', '"p": ' + "7" * 4400, "field.p: literal has 4400 digits"),
], ids=["objects", "field.p"])
def test_over_long_json_integer_is_input_error_in_plain_words(run, tmp_path, old, new, message):
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter converts numerals of any length")
    doc = {"field": {"kind": "GFp", "p": 7}, "objects": {"A": 1},
           "morphisms": {"f": {"src": "A", "dst": "A", "matrix": [["1"]]}},
           "diagram": {"kind": "morphism", "roles": {"f": "f"}}}
    path = _write(tmp_path, "long.json", json.dumps(doc).replace(old, new))
    code, out, err = run("factor", path, "--morphism", "f")
    assert code == 2 and out == ""
    assert err == f"error: {message}, more than the limit of {limit} digits\n"


@pytest.mark.parametrize("text", [
    '{"meta": {"n": ' + "7" * 5000 + ', "x": ' + "[" * 100_000 + "]" * 100_000 + "}}",
    '{"objects": {"A": ' + "7" * 5000 + '}, "field": ',
], ids=["too deep", "truncated"])
def test_invalid_json_after_an_over_long_integer_is_input_error(run, tmp_path, text):
    code, out, err = run("factor", _write(tmp_path, "d.json", text), "--morphism", "f")
    assert code == 2 and out == ""
    assert err.startswith("error: invalid JSON: ")


def test_file_that_is_not_utf8_is_input_error_naming_it(run, tmp_path):
    data = (GOLDEN / "pair_q_seed1.json").read_bytes()
    path = tmp_path / "latin1.json"
    path.write_bytes(data[:39] + b"\xff" + data[40:])
    code, out, err = run("factor", str(path), "--morphism", "f")
    assert code == 2 and out == ""
    assert err == f"error: cannot read {path}: not UTF-8: byte 0xff at offset 39\n"


# -- gen ----------------------------------------------------------------------------


def test_gen_reruns_are_byte_identical(run):
    args = ("gen", "--kind", "snake", "--seed", "7", "--field", "gf:7")
    code1, out1, _ = run(*args)
    code2, out2, _ = run(*args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_gen_matches_checked_in_goldens(run):
    code, out, _ = run("gen", "--kind", "pair", "--seed", "1", "--field", "q")
    assert code == 0
    assert out == (GOLDEN / "pair_q_seed1.json").read_text(encoding="utf-8")
    code, out, _ = run("gen", "--kind", "square", "--seed", "1", "--field", "gf:7")
    assert out == (GOLDEN / "square_gf7_seed1.json").read_text(encoding="utf-8")
    code, out, _ = run("gen", "--kind", "snake", "--seed", "1", "--field", "gf:7")
    assert out == (GOLDEN / "snake_gf7_seed1.json").read_text(encoding="utf-8")


def test_gen_seed_changes_output(run):
    _, out1, _ = run("gen", "--kind", "pair", "--seed", "1")
    _, out2, _ = run("gen", "--kind", "pair", "--seed", "2")
    assert out1 != out2


def test_gen_output_parses_and_validates(run, tmp_path):
    code, out, _ = run("gen", "--kind", "snake", "--seed", "3", "--field", "gf:7",
                       "--max-dim", "3")
    path = _write(tmp_path, "g.json", out)
    code2, out2, err2 = run("snake", path)
    assert code2 == 0
    meta = json.loads(out)["meta"]
    assert meta == {"generator": "splitmix64", "kind": "snake",
                    "max_dim": 3, "seed": 3}


def test_gen_rejects_bad_field_and_composite_modulus():
    for bad in ("r", "gf:6", "gf:x"):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--kind", "pair", "--seed", "1", "--field", bad])
        assert exc.value.code == 2


@pytest.mark.parametrize("command", [("gen", "--kind", "pair", "--seed", "1"),
                                     ("selftest", "--cases", "1")])
@pytest.mark.parametrize("bad", ["gf:٧", "gf:１１", "gf:1_1", "gf:+7", "gf: 7", "gf:"])
def test_field_flag_takes_ascii_digits_only(run, command, bad):
    # int() would read these as 7 or 11; diagram files take ASCII digits only
    with pytest.raises(SystemExit) as exc:
        run(*command, "--field", bad)
    assert exc.value.code == 2


def test_gen_rejects_bad_max_dim(run):
    code, out, err = run("gen", "--kind", "pair", "--seed", "1", "--max-dim", "0")
    assert code == 2 and "error:" in err
    # a square's corner can reach 2 * max_dim + 2, which must stay readable
    top = (MAX_DIM - 2) // 2
    code, out, err = run("gen", "--kind", "square", "--seed", "1", "--max-dim", str(top + 1))
    assert code == 2 and out == ""
    assert err == f"error: --max-dim must be at most {top}, got {top + 1}\n"


def test_gen_snake_at_the_max_dim_cap_finishes(run):
    start = time.perf_counter()
    code, out, err = run("gen", "--kind", "snake", "--seed", "2", "--max-dim", "74")
    assert code == 0 and err == ""
    assert parse_text(out).kind == "snake"
    assert time.perf_counter() - start < 60


def test_gen_reports_a_self_built_invalid_ladder_as_a_bug(run, monkeypatch):
    original = diagrams.cokernel_colift

    def wrong_w(cd, t):
        w = original(cd, t)
        ones = Matrix.from_int_rows(Q, [[1] * w.mat.cols] * w.mat.rows, w.mat.cols)
        return Mor(w.mat + ones)

    monkeypatch.setattr(diagrams, "cokernel_colift", wrong_w)
    code, out, err = run("gen", "--kind", "snake", "--seed", "2", "--field", "q")
    assert code == 3 and out == ""
    assert err.startswith("internal error (this is a bug): "
                          "right square does not commute, residual ")


def test_readme_session_replays_byte_for_byte(run, tmp_path):
    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    gen_cmd = "$ abcat gen --kind snake --seed 5 --field gf:7 > ladder.json\n"
    snake_cmd = "$ abcat snake ladder.json --oracle\n"
    start = readme.index(gen_cmd + snake_cmd) + len(gen_cmd + snake_cmd)
    expected = readme[start:readme.index("```", start)]
    code, ladder, _ = run("gen", "--kind", "snake", "--seed", "5", "--field", "gf:7")
    assert code == 0
    code, out, err = run("snake", _write(tmp_path, "ladder.json", ladder), "--oracle")
    assert code == 0 and err == ""
    assert out == expected


# -- selftest -------------------------------------------------------------------------


def test_selftest_small_run_passes_and_is_deterministic(run):
    args = ("selftest", "--cases", "4", "--seed", "3", "--field", "q")
    code1, out1, _ = run(*args)
    code2, out2, _ = run(*args)
    assert code1 == code2 == 0
    assert out1 == out2
    lines = out1.strip().splitlines()
    assert lines[-1].startswith("selftest: ") and lines[-1].endswith(" suites ok")
    assert all(": ok " in line or line.startswith("selftest:") for line in lines)


@pytest.mark.parametrize("seed", ["3", "4", "5", "-1"])
def test_selftest_single_case_passes(run, seed):
    # one case runs only the mono-top kind of squares.mono_epi, so no
    # epi-bottom hit may be demanded of it
    code, out, err = run("selftest", "--cases", "1", "--seed", seed)
    assert code == 0 and err == "", out
    assert out.splitlines()[-1].endswith(" suites ok")


@pytest.mark.parametrize("seed, drawn", [("6", {"Q": 5, "GF(7)": 8}),
                                         ("21", {"Q": 6, "GF(7)": 6})])
def test_selftest_snake_draws_ladders_until_a_delta_is_nonzero(run, seed, drawn):
    # the first five ladders of these seeds all have a zero connecting
    # morphism over GF(7), or over Q too, so the suite draws on until one
    # does not, and counts every ladder it drew
    code, out, err = run("selftest", "--cases", "1", "--seed", seed)
    assert code == 0 and err == "", out
    snake = {line.split("[")[1].split("]")[0]: line for line in out.splitlines()
             if line.startswith("snake[")}
    for field, cases in drawn.items():
        assert snake[field].startswith(f"snake[{field}]: ok cases={cases} delta_nonzero=1 ")


@pytest.mark.parametrize("cases", ["0", "-3"])
def test_selftest_rejects_case_counts_below_one(run, cases):
    code, out, err = run("selftest", "--cases", cases, "--field", "q")
    assert code == 2 and out == ""
    assert err == f"error: --cases must be at least 1, got {cases}\n"


def test_selftest_repeatable_field_flag(run):
    code, out, _ = run("selftest", "--cases", "4", "--seed", "1",
                       "--field", "q", "--field", "gf:5")
    assert code == 0
    assert "[Q]" in out and "[GF(5)]" in out


def test_selftest_matches_golden_bytes(run):
    code, out, err = run("selftest", "--cases", "20", "--seed", "1")
    assert code == 0 and err == ""
    assert out == (GOLDEN / "selftest_cases20_seed1.txt").read_text(encoding="utf-8")


def test_selftest_60_cases_matches_golden_bytes(run):
    code, out, err = run("selftest", "--cases", "60", "--seed", "3")
    assert code == 0 and err == ""
    assert out == (GOLDEN / "selftest_cases60_seed3.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("name, exc, suite, cases", [
    ("epi_mono_factorize", PreconditionError("injected"), "foundations.factorization[Q]", 4),
    ("gen_snake_input", ZeroDivisionError("injected"), "ker_coker_exactness[Q]", 5),
])
def test_selftest_reports_a_raising_case_and_runs_on(run, monkeypatch, name, exc, suite, cases):
    args = ("selftest", "--cases", "4", "--seed", "3", "--field", "q")
    _, clean, _ = run(*args)

    def raising(*_args, **_kwargs):
        raise exc

    monkeypatch.setattr(properties, name, raising)
    code, out, err = run(*args)
    assert code == 1 and err == ""
    lines = out.splitlines()
    assert f"{suite}: FAIL ({cases} shown) cases={cases}" in lines
    assert f"  {suite}: case 0: unexpected {type(exc).__name__}: injected" in lines
    # every suite still reports, in the same order
    reported = [line.split(": ")[0] for line in lines if not line.startswith(" ")]
    assert reported == [line.split(": ")[0] for line in clean.splitlines()]


def test_internal_check_failure_is_exit_three(run, tmp_path, monkeypatch):
    def broken(f):
        raise InternalCheckError("pivot columns failed to span their own matrix")
    monkeypatch.setattr(cli, "epi_mono_factorize", broken)
    path = _write(tmp_path, "m.json",
                  serialize(diagram_for_morphism(qmor([[1, 2], [2, 4]]))))
    code, out, err = run("factor", path, "--morphism", "f")
    assert code == 3 and out == ""
    assert err == ("internal error (this is a bug): "
                   "pivot columns failed to span their own matrix\n")


def _rows_swapped(kernel):
    """``kernel`` with the first two rows of each basis swapped: still a mono,
    but its image is no longer the kernel, as with a wrong basis."""
    def swapped(f):
        kd = kernel(f)
        if kd.ker_mor.mat.rows < 2:
            return kd
        first, rest = kd.ker_mor.mat.split_rows(1)
        second, tail = rest.split_rows(1)
        return KernelData(Mor(second.vstack(first).vstack(tail)), kd.of)
    return swapped


@pytest.mark.parametrize("module, argv, message", [
    (snake, ("snake", "worked_snake.json"), "connecting_morphism: no lift: "),
    (snake, ("snake", "snake_gf7_seed1.json"),
     "snake_sequence: kernel lift needs a vanishing composite, "),
    (constructions, ("square", "square_gf7_seed1.json"), "Square.analysis: no lift: "),
    (constructions, ("square", "square_gf7_seed1.json", "--decompose"),
     "Square.analysis: no lift: "),
], ids=["worked_snake", "snake_gf7", "square", "square_decompose"])
def test_a_lift_failing_on_checked_input_is_a_bug(run, monkeypatch, module, argv, message):
    monkeypatch.setattr(module, "kernel", _rows_swapped(module.kernel))
    code, out, err = run(argv[0], str(GOLDEN / argv[1]), *argv[2:])
    assert code == 3 and out == ""
    assert err.startswith("internal error (this is a bug): " + message)


def test_a_colift_failing_in_the_decomposition_is_a_bug(run, monkeypatch):
    def refusing(e, t):
        raise PreconditionError("injected")
    monkeypatch.setattr(squares, "epi_colift", refusing)
    code, out, err = run("square", str(GOLDEN / "square_gf7_seed1.json"), "--decompose")
    assert code == 3 and out == ""
    assert err == "internal error (this is a bug): decompose_semicartesian: injected\n"


def test_bad_square_and_ladder_files_stay_input_errors(run, tmp_path):
    i = identity(Obj(1, Q))
    doc = json.loads(serialize(diagram_for_square(squares.Square(i, i, i, i))))
    doc["morphisms"]["bottom"]["matrix"] = [["2"]]
    code, out, err = run("square", _write(tmp_path, "sq.json", json.dumps(doc)), "--decompose")
    assert code == 2 and out == ""
    assert err.startswith("error: square does not commute, residual ")
    doc = json.loads((GOLDEN / "worked_snake.json").read_text(encoding="utf-8"))
    doc["morphisms"]["c"]["matrix"] = [["0", "0"]]
    code, out, err = run("snake", _write(tmp_path, "ladder.json", json.dumps(doc)), "--oracle")
    assert code == 2 and err == ""
    assert "violation: c_epi: " in out


def test_square_conditions_that_disagree_are_a_bug(run, monkeypatch):
    exact = squares.is_exact_pair
    monkeypatch.setattr(squares, "is_exact_pair", lambda f, g: not exact(f, g))
    path = str(GOLDEN / "square_gf7_seed1.json")
    with pytest.raises(InternalCheckError, match="equivalent conditions disagree"):
        squares.analyze(square_from(parse_path(path)))
    code, out, err = run("square", path)
    assert code == 3 and out == ""
    assert err.startswith("internal error (this is a bug): equivalent conditions disagree: ")


def test_exactness_routes_that_disagree_are_a_bug(run, monkeypatch):
    factorize = constructions.epi_mono_factorize

    def short_mono(f):  # drops a column of the mono part, so the image shrinks
        fac = factorize(f)
        return dataclasses.replace(fac, mono_m=Mor(fac.mono_m.mat.split_cols(1)[1]))
    monkeypatch.setattr(constructions, "epi_mono_factorize", short_mono)
    path = str(GOLDEN / "pair_q_seed1.json")
    df = parse_path(path)
    with pytest.raises(InternalCheckError, match="exactness routes disagree"):
        constructions.is_exact_pair(df.role("f"), df.role("g"))
    code, out, err = run("check-exact", path)
    assert code == 3 and out == ""
    assert err.startswith("internal error (this is a bug): exactness routes disagree on ")


# -- entry points ----------------------------------------------------------------------


def test_no_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


IMPORT_GRAPH = """
import contextlib, io, sys
import abcat
from abcat import cli
golden = sys.argv[1]
for argv in (["factor", golden + "/pair_q_seed1.json", "--morphism", "f"],
             ["square", golden + "/square_gf7_seed1.json", "--decompose"],
             ["snake", golden + "/snake_gf7_seed1.json", "--trace", "--oracle"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
assert "abcat.properties" not in sys.modules, "the selftest battery was loaded"
with contextlib.redirect_stdout(io.StringIO()) as out:
    assert cli.main(["selftest", "--cases", "1", "--seed", "3"]) == 0, out.getvalue()
assert "abcat.properties" in sys.modules
"""


def test_only_selftest_loads_the_property_battery():
    src = pathlib.Path(__file__).parent.parent / "src"
    proc = subprocess.run([sys.executable, "-c", IMPORT_GRAPH, str(GOLDEN)],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_module_entry_point_matches_golden():
    proc = subprocess.run(
        [sys.executable, "-m", "abcat", "gen", "--kind", "pair",
         "--seed", "1", "--field", "q"],
        capture_output=True, text=True, check=True)
    assert proc.stdout == (GOLDEN / "pair_q_seed1.json").read_text(encoding="utf-8")
