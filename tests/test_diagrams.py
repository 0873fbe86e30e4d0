"""Seeded generation: determinism, validity of every variant, stream isolation."""

import pytest

from abcat import linalg
from abcat.constructions import is_exact_pair, pullback
from abcat.diagrams import (
    GenConfig,
    SplitMix64,
    _pool,
    gen_exact_pair,
    gen_morphism,
    gen_semicartesian,
    gen_snake_input,
    rand_epi,
    rand_mono,
    rand_matrix,
)
from abcat.errors import GenerationError
from abcat.fields import RATIONALS, prime_field
from abcat.properties import check_generator_coverage
from abcat.snake import violations
from abcat.squares import analyze

Q = RATIONALS
GF2 = prime_field(2)
GF7 = prime_field(7)


# -- the raw stream ------------------------------------------------------------


def test_splitmix_reference_values():
    # first outputs for seed 0; these are the published test vectors
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4
    assert rng.next_u64() == 0x06C45D188009454F


def test_splitmix_seed_masking_and_reproducibility():
    a = SplitMix64(5)
    b = SplitMix64(5 + (1 << 64))  # seeds are 64-bit
    assert [a.next_u64() for _ in range(4)] == [b.next_u64() for _ in range(4)]


def test_derive_ignores_stream_position():
    a = SplitMix64(99)
    b = SplitMix64(99)
    b.next_u64()
    b.next_u64()
    assert a.derive(7).next_u64() == b.derive(7).next_u64()
    # distinct tags give distinct streams
    assert a.derive(7).next_u64() != a.derive(8).next_u64()
    # tag order matters
    assert a.derive(1, 2).next_u64() != a.derive(2, 1).next_u64()


def test_below_and_choice_guards():
    rng = SplitMix64(1)
    with pytest.raises(ValueError):
        rng.below(0)
    with pytest.raises(ValueError):
        rng.choice([])
    assert all(rng.below(3) in (0, 1, 2) for _ in range(20))


# -- config validation ---------------------------------------------------------


def test_genconfig_rejects_bad_bounds():
    with pytest.raises(ValueError):
        GenConfig(seed=1, max_dim=0)


def test_entry_pool_collapses_over_gf2():
    cfg = GenConfig(seed=3, field=GF2)
    assert _pool(cfg) == [1]  # -2 and 2 vanish mod 2; the rest are 1
    m = rand_matrix(SplitMix64(3), cfg, 6, 6)
    assert set(m.entries) == {0, 1}


# -- constrained draws ---------------------------------------------------------


def test_rand_epi_mono_shape_guards():
    cfg = GenConfig(seed=4)
    rng = SplitMix64(4)
    with pytest.raises(GenerationError):
        rand_epi(rng, cfg, 1, 2)  # onto something bigger
    with pytest.raises(GenerationError):
        rand_mono(rng, cfg, 2, 1)  # into something smaller
    e = rand_epi(rng, cfg, 3, 2)
    m = rand_mono(rng, cfg, 2, 3)
    assert e.is_epi and m.is_mono


def test_gen_morphism_determinism():
    cfg = GenConfig(seed=11)
    assert gen_morphism(cfg) == gen_morphism(cfg)
    assert gen_morphism(GenConfig(seed=12)) != gen_morphism(cfg)


# -- structured outputs --------------------------------------------------------


@pytest.mark.parametrize("field", [Q, GF7])
def test_gen_exact_pair_is_exact(field):
    for seed in range(12):
        f, g = gen_exact_pair(GenConfig(seed=seed, field=field))
        assert is_exact_pair(f, g)


@pytest.mark.parametrize("field", [Q, GF7])
def test_gen_semicartesian_variants(field):
    for seed in range(10):
        sq_epi = gen_semicartesian(GenConfig(seed=seed, field=field), "epi")
        assert analyze(sq_epi).is_semicartesian
        sq_pb = gen_semicartesian(GenConfig(seed=seed, field=field), "cartesian")
        assert analyze(sq_pb).is_cartesian
        sq_bad = gen_semicartesian(GenConfig(seed=seed, field=field), "deficient")
        assert not analyze(sq_bad).is_semicartesian


def test_gen_semicartesian_unknown_variant():
    with pytest.raises(ValueError):
        gen_semicartesian(GenConfig(seed=1), "cocartesian")


def test_deficient_comparison_is_genuinely_rank_deficient():
    sq = gen_semicartesian(GenConfig(seed=6), "deficient")
    pb = pullback(sq.right, sq.bottom)
    assert sq.top.mat.vstack(sq.left.mat).echelon[2] < pb.p_obj.dim


@pytest.mark.parametrize("field", [Q, GF7])
@pytest.mark.parametrize("short", [False, True])
def test_gen_snake_input_always_validates(field, short):
    for seed in range(10):
        inp = gen_snake_input(GenConfig(seed=seed, field=field),
                              short_exact_rows=short)
        assert violations(inp) == []
        if short:
            assert inp.a.is_mono and inp.d.is_epi


@pytest.mark.parametrize("field", [Q, GF7])
def test_snake_generator_row_reduces_within_max_dim(field, monkeypatch):
    # the middle vertical comes from the echelon forms of d and a-transpose,
    # never from the (dim C' * dim A) x (dim B' * dim B) system of d v a = 0;
    # the widest reduction left is a lift's augmented [m | t]
    shapes = []

    def recording(m):
        shapes.append((m.rows, m.cols))
        return real_rref(m)

    real_rref = linalg.rref
    monkeypatch.setattr(linalg, "rref", recording)
    for seed in range(1, 40):
        for short in (False, True):
            gen_snake_input(GenConfig(seed=seed, field=field, max_dim=6),
                            short_exact_rows=short)
    assert max(rows for rows, _ in shapes) <= 6
    assert max(cols for _, cols in shapes) <= 12


@pytest.mark.parametrize("field", [Q, GF7])
def test_snake_generator_covers_both_delta_regimes(field):
    # at least 10% of ladders each with zero and with nonzero delta
    res = check_generator_coverage(samples=100, seed=1, field=field)
    assert res.ok, res.failures


def test_variant_streams_do_not_collide():
    cfg = GenConfig(seed=42)
    a = gen_semicartesian(cfg, "epi")
    b = gen_semicartesian(cfg, "cartesian")
    assert (a.right, a.bottom) != (b.right, b.bottom)


def test_snake_kind_streams_are_isolated_from_pairs():
    cfg = GenConfig(seed=42)
    f, g = gen_exact_pair(cfg)
    inp = gen_snake_input(cfg)
    # different derive tags: regenerating one never perturbs the other
    f2, g2 = gen_exact_pair(cfg)
    assert (f, g) == (f2, g2)
    assert gen_snake_input(cfg) == inp


@pytest.mark.parametrize("field", [Q, GF2, GF7])
def test_snake_generator_reduces_a_transpose_once(field, monkeypatch):
    # cokernel(a) and the middle vertical's draw share one echelon form of aᵀ
    reduced = []

    def recording(m):
        reduced.append(m)
        return real_rref(m)

    real_rref = linalg.rref
    monkeypatch.setattr(linalg, "rref", recording)
    for seed in (1, 2, 5, 7, 8):  # ladders whose a is no empty matrix
        reduced.clear()
        inp = gen_snake_input(GenConfig(seed=seed, field=field, max_dim=5))
        a_t = inp.a.mat.transpose()
        assert sum(m == a_t for m in reduced) == 1, seed
