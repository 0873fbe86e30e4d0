"""Seeded random diagrams: morphisms, exact pairs, commuting squares, and
snake-lemma ladders.

Randomness comes from SplitMix64, implemented here on plain Python integers
so that a seed produces the same diagram on every platform and Python
version.  ``stdlib random`` is deliberately not used: its generator is
stable, but keeping the whole draw sequence explicit makes the golden files
self-explanatory.

Child streams are derived from the root seed and a tag tuple, never from
the current stream position, so adding a draw to one generator cannot
shift the output of another.
"""

from __future__ import annotations

from dataclasses import dataclass

from .category import Mor, cokernel, kernel, kernel_lift, cokernel_colift
from .constructions import pullback
from .errors import GenerationError
from .fields import RATIONALS, Scalar, ScalarField
from .linalg import Matrix
from .snake import SnakeInput, validate
from .squares import Square

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15

# fixed multipliers of the splitmix64 finalizer
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB


def _mix(z: int) -> int:
    z &= MASK64
    z = ((z ^ (z >> 30)) * _MUL1) & MASK64
    z = ((z ^ (z >> 27)) * _MUL2) & MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """The splitmix64 sequence: state += golden ratio, then finalize."""

    def __init__(self, seed: int):
        self._seed = seed & MASK64
        self._state = self._seed

    def next_u64(self) -> int:
        self._state = (self._state + GOLDEN) & MASK64
        return _mix(self._state)

    def below(self, n: int) -> int:
        """Uniform-enough draw in [0, n); n is tiny next to 2**64, so the
        modulo bias is irrelevant here."""
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        return self.next_u64() % n

    def choice(self, seq):
        if not seq:
            raise ValueError("choice() on an empty sequence")
        return seq[self.below(len(seq))]

    def derive(self, *tags: int) -> "SplitMix64":
        """Independent child stream keyed by the root seed and the tags.

        Depends only on the construction seed, not on how many draws this
        stream has made.
        """
        acc = self._seed
        for t in tags:
            acc = _mix((acc + GOLDEN + (t & MASK64)) & MASK64)
        return SplitMix64(acc)


ENTRY_POOL = (-3, -2, -1, 1, 2, 3)
DENSITY_PCT = 60  # chance, in percent, that an entry is nonzero


@dataclass(frozen=True)
class GenConfig:
    seed: int
    field: ScalarField = RATIONALS
    max_dim: int = 5

    def __post_init__(self):
        if self.max_dim < 1:
            raise ValueError("max_dim must be >= 1")


def _pool(cfg: GenConfig) -> list[Scalar]:
    # distinct nonzero field elements of the pool, in first-seen order;
    # over GF(2) the whole pool collapses to [1], and +-1 is never zero
    seen: list[Scalar] = []
    zero = cfg.field.zero()
    for k in ENTRY_POOL:
        x = cfg.field.from_int(k)
        if x != zero and x not in seen:
            seen.append(x)
    return seen


def rand_dim(rng: SplitMix64, cfg: GenConfig, min_dim: int = 0) -> int:
    if min_dim > cfg.max_dim:
        raise GenerationError("min_dim exceeds max_dim")
    return min_dim + rng.below(cfg.max_dim - min_dim + 1)


def rand_matrix(rng: SplitMix64, cfg: GenConfig, rows: int, cols: int) -> Matrix:
    pool = _pool(cfg)
    zero = cfg.field.zero()
    entries = []
    for _ in range(rows * cols):
        if rng.below(100) < DENSITY_PCT:
            entries.append(rng.choice(pool))
        else:
            entries.append(zero)
    return Matrix(rows, cols, tuple(entries), cfg.field)


def rand_mor(rng: SplitMix64, cfg: GenConfig, src_dim: int, dst_dim: int) -> Mor:
    return Mor(rand_matrix(rng, cfg, dst_dim, src_dim))


_TRIES = 100


def rand_epi(rng: SplitMix64, cfg: GenConfig, src_dim: int, dst_dim: int) -> Mor:
    if dst_dim > src_dim:
        raise GenerationError("no epi onto a larger dimension")
    for _ in range(_TRIES):
        f = rand_mor(rng, cfg, src_dim, dst_dim)
        if f.is_epi:
            return f
    raise GenerationError(f"no epi of shape {dst_dim}x{src_dim} in {_TRIES} tries")


def rand_mono(rng: SplitMix64, cfg: GenConfig, src_dim: int, dst_dim: int) -> Mor:
    if src_dim > dst_dim:
        raise GenerationError("no mono into a smaller dimension")
    for _ in range(_TRIES):
        f = rand_mor(rng, cfg, src_dim, dst_dim)
        if f.is_mono:
            return f
    raise GenerationError(f"no mono of shape {dst_dim}x{src_dim} in {_TRIES} tries")


def gen_morphism(cfg: GenConfig) -> Mor:
    """One random morphism, its dimensions drawn up to max_dim."""
    rng = SplitMix64(cfg.seed).derive(1)
    return rand_mor(rng, cfg, rand_dim(rng, cfg), rand_dim(rng, cfg))


def gen_exact_pair(cfg: GenConfig) -> tuple[Mor, Mor]:
    """A composable pair (f, g) with image f = kernel g.

    g is arbitrary; f is the kernel embedding of g precomposed with a random
    epi, which is exactly the general shape of an exact pair.
    """
    rng = SplitMix64(cfg.seed).derive(2)
    dim_b = rand_dim(rng, cfg)
    dim_c = rand_dim(rng, cfg)
    g = rand_mor(rng, cfg, dim_b, dim_c)
    m = kernel(g).ker_mor
    dim_a = m.src.dim + rng.below(3)
    e = rand_epi(rng, cfg, dim_a, m.src.dim)
    return m @ e, g


def gen_semicartesian(cfg: GenConfig, variant: str = "epi") -> Square:
    """A commuting square whose comparison map into the fiber product is:

    - ``"epi"``: an arbitrary epi (semi-cartesian, often not cartesian);
    - ``"cartesian"``: the identity (the literal fiber-product square);
    - ``"deficient"``: rank-deficient (not semi-cartesian).
    """
    tags = {"epi": 0, "cartesian": 1, "deficient": 2}
    if variant not in tags:
        raise ValueError(f"unknown variant {variant!r}")
    rng = SplitMix64(cfg.seed).derive(3, tags[variant])
    for _ in range(_TRIES):
        dim_b = rand_dim(rng, cfg)
        dim_c = rand_dim(rng, cfg)
        dim_d = rand_dim(rng, cfg)
        right = rand_mor(rng, cfg, dim_b, dim_d)
        bottom = rand_mor(rng, cfg, dim_c, dim_d)
        pb = pullback(right, bottom)
        dim_p = pb.p_obj.dim
        if variant == "cartesian":
            return Square(pb.f, pb.g, right, bottom)
        if variant == "epi":
            e = rand_epi(rng, cfg, dim_p + rng.below(3), dim_p)
            return Square(pb.f @ e, pb.g @ e, right, bottom)
        # deficient: force rank < dim P by routing through a smaller object
        if dim_p == 0:
            continue  # every map to a point is epi; resample the cospan
        inner = rand_mor(rng, cfg, dim_p - 1, dim_p)
        outer = rand_mor(rng, cfg, rand_dim(rng, cfg), dim_p - 1)
        e = inner @ outer
        return Square(pb.f @ e, pb.g @ e, right, bottom)
    raise GenerationError("could not reach a nonzero fiber product")


def _rand_intertwiner(rng: SplitMix64, cfg: GenConfig, d: Mor, a: Mor) -> Mor:
    """A random v with d @ v @ a = 0, drawn from the full solution space.

    Flattening v row-major, the constraint is the system ``d ⊗ aᵀ``, whose
    reduced form is ``R_d ⊗ R_t`` without its zero rows, where ``R_d`` and
    ``R_t`` are the reduced forms of ``d`` and ``aᵀ``.  So the entries
    ``v[p_i, q_l]``, at pivot columns ``p_i`` of ``d`` and ``q_l`` of
    ``aᵀ``, are bound, and the others take random coefficients in row-major
    order: a random combination of the canonical nullspace basis.  With
    ``C`` holding those coefficients (zero at the bound entries),
    ``v[p_i, q_l] = -(R_d @ C @ R_tᵀ)[i, l]``.
    """
    fld = cfg.field
    n_b2, n_b = d.src.dim, a.dst.dim
    cells = [(j, m) for j in range(n_b2) for m in range(n_b)]
    r_d, piv_d, rank_d = d.mat.echelon
    r_t, piv_t, rank_t = a.mat.T.echelon  # reduced once, shared with cokernel(a)
    bound = {(p, q) for p in piv_d for q in piv_t}
    free = [cell for cell in cells if cell not in bound]
    v = dict(zip(free, rand_matrix(rng, cfg, len(free), 1).entries))
    coeffs = Matrix(n_b2, n_b, tuple(v.get(cell, fld.zero()) for cell in cells), fld)
    solved = -(r_d.split_rows(rank_d)[0] @ coeffs @ r_t.split_rows(rank_t)[0].transpose())
    for i, p in enumerate(piv_d):
        for l, q in enumerate(piv_t):
            v[p, q] = solved.entry(i, l)
    return Mor(Matrix(n_b2, n_b, tuple(v[cell] for cell in cells), fld))


def gen_snake_input(cfg: GenConfig, short_exact_rows: bool = False) -> SnakeInput:
    """A valid snake ladder.

    The rows are exact by construction: c is the cokernel of a and b is the
    kernel of d.  The middle vertical v is sampled from the solution space
    of d v a = 0, which is precisely the condition for the outer verticals
    to exist; u and w are then the induced maps.  With ``short_exact_rows``
    both rows are short exact (a mono, d epi).
    """
    rng = SplitMix64(cfg.seed).derive(4, 1 if short_exact_rows else 0)
    # bias: wide middles and narrow ends keep the boundary map's two legs
    # (a nonzero kernel on the right, a nonzero cokernel on the left) from
    # being starved; every dimension combination stays reachable
    dim_b = max(rand_dim(rng, cfg), rand_dim(rng, cfg))
    if short_exact_rows:
        dim_a = min(rng.below(dim_b + 1), rng.below(dim_b + 1))
        a = rand_mono(rng, cfg, dim_a, dim_b)
    else:
        a = rand_mor(rng, cfg, min(rand_dim(rng, cfg), rand_dim(rng, cfg)), dim_b)
    coker_a = cokernel(a)
    c = coker_a.coker_mor

    dim_b2 = max(rand_dim(rng, cfg), rand_dim(rng, cfg))
    if short_exact_rows:
        dim_c2 = min(rng.below(dim_b2 + 1), rng.below(dim_b2 + 1))
        d = rand_epi(rng, cfg, dim_b2, dim_c2)
    else:
        d = rand_mor(rng, cfg, dim_b2, min(rand_dim(rng, cfg), rand_dim(rng, cfg)))
    ker_d = kernel(d)
    b = ker_d.ker_mor

    v = _rand_intertwiner(rng, cfg, d, a)
    u = kernel_lift(ker_d, v @ a)
    w = cokernel_colift(coker_a, d @ v)
    return validate(SnakeInput(a=a, c=c, u=u, v=v, w=w, b=b, d=d))
