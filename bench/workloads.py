"""The three benchmark workloads: how their inputs are generated, how one
operation runs, and how its result is rendered for the correctness check.

Shared by ``run.py`` (the measuring process), ``gen_shard.py`` (the set-up
processes) and ``record.py`` (which writes ``pool.json``).  abcat is always
imported from the checkout's ``src/`` directory, never from site-packages.

Every workload is a fixed cycle of *strata*.  A stratum is one stream of
generated inputs (one command or construction over one field) plus, for
``big_square``, one work class.  Each measured cycle runs one fresh input
from every stratum, so every run has the same mix of commands, fields and
sizes, and only the inputs inside each stratum change with the seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden"
POOL = BENCH / "pool.json"

DIGEST_HEX = 10
GF_BIG = 2**31 - 1


class CheckoutError(Exception):
    """The benchmark is not running inside a checkout of the repository."""


def import_abcat():
    """Import abcat from ``src/`` of this checkout, or raise CheckoutError."""
    if not (SRC / "abcat" / "__init__.py").is_file():
        raise CheckoutError(f"no abcat sources at {SRC}")
    if not GOLDEN.is_dir():
        raise CheckoutError(f"no golden files at {GOLDEN}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import abcat

    if Path(abcat.__file__).resolve().parent != (SRC / "abcat").resolve():
        raise CheckoutError(f"abcat was imported from {abcat.__file__}, not {SRC}")
    return abcat


def field_of(spec: str):
    from abcat.fields import RATIONALS, prime_field

    return RATIONALS if spec == "q" else prime_field(int(spec[3:]))


@dataclass(frozen=True)
class Stream:
    """One sequence of generated inputs and the operation run on each.

    Candidate ``k`` of a stream is generated from seed ``number * 10**6 + k``;
    ``pool.json`` lists which candidates each stratum uses.
    """

    name: str
    number: int
    field: str  # "q" or "gf:P"
    kind: str   # gen kind (cli_mix), square variant (big_square), construction (dense)
    argv: tuple[str, ...] = ()  # cli_mix: the command, FILE stands for the input
    dim: int = 0                # dense: matrices are dim-3 .. dim+3 square
    classes: int = 1            # big_square: number of work classes (see record.py)

    def gen_seed(self, offset: int) -> int:
        return self.number * 10**6 + offset

    @property
    def is_gf(self) -> bool:
        return self.field != "q"


@dataclass(frozen=True)
class Workload:
    name: str
    streams: tuple[Stream, ...]
    depth: int          # inputs per stratum in pool.json: the most cycles one run can do
    shard_cycles: int   # cycles generated by one set-up process
    trace_rounds: int   # rounds of a timing-traced, an untraced and a counting cycle (--trace 1)

    @property
    def strata(self) -> list[tuple[Stream, int]]:
        return [(s, c) for s in self.streams for c in range(s.classes)]


def stratum_name(stream: Stream, cls: int) -> str:
    return f"{stream.name}/{cls}"


def _cli_streams() -> tuple[Stream, ...]:
    # Weighted toward the snake with trace and oracle, the heaviest command a
    # user runs, then square --decompose, then the one-construction commands.
    slots = [("snake", "snake", ("snake", "FILE", "--trace", "--oracle"))] * 5
    slots += [("square", "square", ("square", "FILE", "--decompose"))] * 3
    slots += [
        ("check_exact", "pair", ("check-exact", "FILE")),
        ("factor", "pair", ("factor", "FILE", "--morphism", "g")),
        ("pullback", "square", ("pullback", "FILE", "--of", "right,bottom")),
        ("pushout", "square", ("pushout", "FILE", "--of", "top,left")),
    ]
    streams = []
    for fi, fld in enumerate(("q", "gf:7")):
        for si, (label, kind, argv) in enumerate(slots):
            streams.append(Stream(f"{label}{si}.{fld}", 1 + fi * len(slots) + si,
                                  fld, kind, argv=argv))
    return tuple(streams)


# big_square inputs are split into this many equal work classes per stream.
# Cost grows steeply with size and rank, so drawing each class equally often
# keeps the run-to-run spread of the mean far below that of unstratified
# draws; with four classes by total dimension, the heaviest class still
# left some seeds a third slower than others.
SQUARE_CLASSES = 8


def _square_streams() -> tuple[Stream, ...]:
    streams = []
    n = 101
    for variant in ("epi", "cartesian", "deficient"):
        for fld in ("q", f"gf:{GF_BIG}"):
            streams.append(Stream(f"{variant}.{fld}", n, fld, variant,
                                  classes=SQUARE_CLASSES))
            n += 1
    return tuple(streams)


def _dense_streams() -> tuple[Stream, ...]:
    # A Latin square: every field meets every construction and every size once.
    fields = ("q", "gf:7", f"gf:{GF_BIG}")
    constructions = ("kernel", "cokernel", "epi_mono_factorize")
    dims = (19, 24, 29)
    streams = []
    for fi, fld in enumerate(fields):
        for ci, con in enumerate(constructions):
            d = dims[(fi + ci) % 3]
            streams.append(Stream(f"{con}.{fld}.d{d}", 201 + 3 * fi + ci, fld, con, dim=d))
    return tuple(streams)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("cli_mix", _cli_streams(), depth=800, shard_cycles=4, trace_rounds=10),
        Workload("big_square", _square_streams(), depth=50, shard_cycles=1, trace_rounds=2),
        Workload("dense", _dense_streams(), depth=500, shard_cycles=5, trace_rounds=12),
    )
}


# ---------------------------------------------------------------------------
# generation (runs in set-up processes and in the recorder)

def dense_matrix(stream: Stream, gen_seed: int):
    """A dense rank-deficient ``d x d`` matrix: a ``d x r`` by ``r x d``
    product with ``r = d - d // 4`` and nonzero factor entries in -3..3.

    ``d`` is drawn within 3 of the stream's size, so that latencies spread
    evenly instead of sitting on nine levels, where a small slowdown would
    move the median from one level to the next."""
    from abcat.diagrams import SplitMix64
    from abcat.linalg import Matrix

    rng = SplitMix64(gen_seed)
    d = stream.dim - 3 + rng.below(7)
    r = d - d // 4
    pool = (-3, -2, -1, 1, 2, 3)
    left = [[rng.choice(pool) for _ in range(r)] for _ in range(d)]
    right_cols = [[rng.choice(pool) for _ in range(r)] for _ in range(d)]
    prod = [[sum(a * b for a, b in zip(row, col)) for col in right_cols] for row in left]
    return Matrix.from_int_rows(field_of(stream.field), prod)


def generate(wl: Workload, stream: Stream, gen_seed: int) -> str:
    """The text of one input file.  cli_mix files are written by ``abcat gen``."""
    from abcat import cli, diagram_io, diagrams
    from abcat.category import Mor

    if wl.name == "cli_mix":
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["gen", "--kind", stream.kind, "--seed", str(gen_seed),
                             "--field", stream.field])
        if code != 0:
            raise RuntimeError(f"abcat gen exited {code} for seed {gen_seed}")
        return out.getvalue()
    if wl.name == "big_square":
        cfg = diagrams.GenConfig(seed=gen_seed, field=field_of(stream.field), max_dim=10)
        sq = diagrams.gen_semicartesian(cfg, stream.kind)
        return diagram_io.serialize(diagram_io.diagram_for_square(sq))
    mor = Mor.from_matrix(dense_matrix(stream, gen_seed))
    return diagram_io.serialize(diagram_io.diagram_for_morphism(mor))


def content_key(text: str) -> str:
    """Identity of an input apart from its ``meta`` block (which holds the seed)."""
    doc = json.loads(text)
    doc.pop("meta", None)
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


# ---------------------------------------------------------------------------
# operations (run in the measuring process and in the recorder)

def prepare(wl: Workload, stream: Stream, path: str):
    """Turn an input file into what the timed operation takes.

    cli_mix reads its file inside the operation, as a user's command does;
    the library workloads parse outside it.
    """
    if wl.name == "cli_mix":
        return [path if a == "FILE" else a for a in stream.argv]
    from abcat import diagram_io

    df = diagram_io.parse_path(path)
    if wl.name == "big_square":
        return diagram_io.square_from(df)
    return df.role("f")


def operation(wl: Workload, stream: Stream):
    """The function timed as one operation; it takes ``prepare``'s result."""
    from abcat import category, cli, constructions, squares

    if wl.name == "cli_mix":
        def run_cli(argv):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            return code, out.getvalue()
        return run_cli
    if wl.name == "big_square":
        def run_square(sq):
            res = squares.analyze(sq)
            parts = squares.decompose_semicartesian(sq) if res.is_semicartesian else None
            return res, parts
        return run_square
    # looked up on every call, so that a tracer's wrapper is seen when installed
    module = constructions if stream.kind == "epi_mono_factorize" else category

    def run_dense(mor):
        return getattr(module, stream.kind)(mor)
    return run_dense


def render(wl: Workload, stream: Stream, result) -> str:
    """A canonical text of an operation's result; its digest is what is checked."""
    if wl.name == "cli_mix":
        code, out = result
        return f"exit {code}\n{out}"
    if wl.name == "big_square":
        res, parts = result
        flags = (res.cond_i, res.cond_ii, res.cond_iii, res.cond_iv,
                 res.is_cartesian, res.is_cocartesian, res.is_semicartesian)
        mats = [res.e, res.m, res.pb.n, res.pb.f, res.pb.g, res.po.t, res.po.r, res.po.s]
        if parts is not None:
            first, second = parts
            mats += [first.top, first.bottom, first.right, second.top, second.bottom]
        return " ".join("yn"[not f] for f in flags) + "\n" + "\n".join(str(m.mat) for m in mats)
    if stream.kind == "kernel":
        return str(result.ker_mor.mat)
    if stream.kind == "cokernel":
        return str(result.coker_mor.mat)
    return f"{result.epi_q.mat}\n{result.mono_m.mat}"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:DIGEST_HEX]


def load_pool(wl: Workload) -> list[tuple[list[int], list[str]]]:
    """Per stratum, in cycle order: candidate offsets and expected digests."""
    with open(POOL, encoding="utf-8") as handle:
        strata = json.load(handle)["workloads"][wl.name]
    names = [stratum_name(s, c) for s, c in wl.strata]
    if sorted(strata) != sorted(names):
        raise CheckoutError(f"pool.json does not match the strata of {wl.name}; "
                            "rerun bench/record.py")
    out = []
    for name in names:
        offsets, digests = strata[name]["offsets"], strata[name]["digests"]
        out.append((offsets, [digests[i:i + DIGEST_HEX]
                              for i in range(0, len(digests), DIGEST_HEX)]))
    return out
