"""abcat benchmark: one workload, one seed, one closed-loop client.

    python3 bench/run.py --workload {cli_mix,big_square,dense} --seed N \\
        --seconds S --trace {0,1}

Inputs come from ``--seed`` alone.  They are generated in separate set-up
processes (``gen_shard.py``), a shard of cycles at a time and only when the
measuring process needs more, so no value computed while generating can be
reused by an operation, and every operation in the process sees an input no
earlier operation saw.  One warm-up cycle runs first, on inputs of its own.

``--trace 0`` runs whole cycles until the operations have taken ``--seconds``
of wall time and prints the end-to-end metrics, every timing scaled to the
reference speed of ``calibration.py``'s probe, which runs before each
operation.  ``--trace 1`` runs a fixed
number of rounds of three cycles (timing spans, untraced, counting
wrappers), so that every count repeats exactly for a seed, and prints the
per-layer metrics together with the tracing overhead.  Both check every
output against ``pool.json`` and replay the three snake goldens byte for
byte.  The last line of standard output is one JSON object; the exit code
is 0 only if every check passed, 2 outside a checkout and 3 if
``pool.json`` runs out of inputs before the run is done, so that a run
can never silently measure less than it was asked to.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import deque
from dataclasses import dataclass, field
from time import perf_counter

import calibration
import workloads
from workloads import Stream, Workload

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "q_ops_per_s": "1/s",
    "gf_ops_per_s": "1/s",
    "success_rate": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "linalg.rref.calls": "count",
    "linalg.rref.distinct": "count",
    "linalg.rref.repeat_frac": "ratio",
    "linalg.rref.entries": "count",
    "linalg.rref.s": "s",
    "linalg.matmul.calls": "count",
    "linalg.matmul.madds": "count",
    "linalg.matmul.zero_frac": "ratio",
    "linalg.matmul.s": "s",
    "fields.gf_new": "count",
    "category.rank.calls": "count",
    "category.biproduct.calls": "count",
    "category.kernel.s": "s",
    "category.cokernel.s": "s",
    "category.lift.s": "s",
    "constructions.pullback.s": "s",
    "constructions.pushout.s": "s",
    "constructions.epi_mono_factorize.s": "s",
    "constructions.is_exact_pair.calls": "count",
    "squares.analyze.s": "s",
    "squares.decompose_semicartesian.s": "s",
    "snake.snake_sequence.s": "s",
    "snake.chase_delta.s": "s",
    "snake.connecting_morphism.calls": "count",
    "snake.violations.calls": "count",
    "diagram_io.parse_text.s": "s",
    "diagram_io.to_text.s": "s",
    **{f"{m}.self_s": "s" for m in ("fields", "linalg", "category", "constructions",
                                    "squares", "snake", "diagram_io", "cli")},
    "diagrams.gen_s": "s",
    "bench.traced_ops": "count",
    "bench.traced_ops_per_s": "1/s",
    "bench.untraced_ops_per_s": "1/s",
    "bench.trace_overhead": "ratio",
}

SHARD_TIMEOUT_S = 120

# The three snake goldens and the commands that reproduce them.
GOLDEN_REPLAYS = (
    ("worked_snake.json", ("--trace", "--oracle"), "worked_snake_report.txt"),
    ("snake_gf7_seed1.json", ("--oracle",), "snake_gf7_seed1_report.txt"),
    ("snake_gf7_seed9.json", ("--trace", "--oracle"), "snake_gf7_seed9_report.txt"),
)


@dataclass
class Item:
    stream: Stream
    arg: object
    expected: str


class PoolExhausted(Exception):
    """pool.json holds fewer inputs than the run needs."""


class Inputs:
    """The run's inputs, cycle by cycle, generated a shard at a time.

    Cycle ``c`` takes, from every stratum, the input at position ``perm[c]``
    of that stratum's list in pool.json; ``perm`` is a permutation drawn
    from the seed, so each seed runs its own order of distinct inputs.
    """

    def __init__(self, wl: Workload, seed: int, workdir: str) -> None:
        self.wl = wl
        self.workdir = workdir
        self.pool = workloads.load_pool(wl)
        self.names = [workloads.stratum_name(s, c) for s, c in wl.strata]
        self.perms = []
        for name, (offsets, _) in zip(self.names, self.pool):
            perm = list(range(len(offsets)))
            random.Random(f"{wl.name}:{seed}:{name}").shuffle(perm)
            self.perms.append(perm)
        self.total_cycles = min(len(p) for p in self.perms)
        self.issued = 0
        self.ready: deque[list[Item]] = deque()
        self.shard_s: list[float] = []
        self.gen_s: list[float] = []

    def next_cycle(self) -> list[Item]:
        """The next cycle's inputs; raises PoolExhausted once the pool is used up."""
        if not self.ready:
            if self.issued >= self.total_cycles:
                raise PoolExhausted(f"pool.json holds only {self.total_cycles} cycles of "
                                    f"{self.wl.name} inputs; record a deeper pool")
            self._shard()
        return self.ready.popleft()

    def _shard(self) -> None:
        wl = self.wl
        cycles = range(self.issued, min(self.issued + wl.shard_cycles, self.total_cycles))
        self.issued = cycles.stop
        strata = wl.strata
        items = []
        for c in cycles:
            for i, name in enumerate(self.names):
                offset = self.pool[i][0][self.perms[i][c]]
                items.append((c * len(strata) + i, name, strata[i][0].gen_seed(offset)))
        request = json.dumps({"workload": wl.name, "dir": self.workdir, "items": items})
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, str(workloads.BENCH / "gen_shard.py")],
                              input=request, capture_output=True, text=True,
                              timeout=SHARD_TIMEOUT_S, check=False)
        wall = perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up shard failed ({proc.returncode}): {proc.stderr}")
        self.shard_s.append(wall)
        self.gen_s.append(json.loads(proc.stdout.splitlines()[-1])["gen_s"])
        for c in cycles:
            cycle = []
            for i in range(len(strata)):
                stream = strata[i][0]
                path = os.path.join(self.workdir, f"{c * len(strata) + i}.json")
                expected = self.pool[i][1][self.perms[i][c]]
                cycle.append(Item(stream, workloads.prepare(wl, stream, path), expected))
            self.ready.append(cycle)


@dataclass
class Tally:
    """Checked operations of one kind (warm-up, measured, traced, ...): per
    operation whether its field is GF(p), its latency and its outcome."""

    ops: list[tuple[bool, float, bool]] = field(default_factory=list)

    def add(self, gf: bool, latency: float, ok: bool) -> None:
        self.ops.append((gf, latency, ok))

    def _select(self, gf: bool | None):
        return [op for op in self.ops if gf is None or op[0] == gf]

    def count(self, gf: bool | None = None) -> int:
        return len(self._select(gf))

    @property
    def failed(self) -> int:
        return sum(1 for op in self.ops if not op[2])

    def busy(self) -> float:
        return sum(op[1] for op in self.ops)

    def rate(self, gf: bool | None = None) -> float:
        """Completed operations per second of operation wall time."""
        ops = self._select(gf)
        return sum(op[2] for op in ops) / sum(op[1] for op in ops)


class Runner:
    def __init__(self, wl: Workload, inputs: Inputs, tracer=None) -> None:
        self.wl = wl
        self.inputs = inputs
        self.tracer = tracer
        self.ops = {s.name: workloads.operation(wl, s) for s in wl.streams}
        self.failures: list[str] = []
        self.probes: list[float] = []  # calibration probe times of measure()

    def execute(self, item: Item, tally: Tally, trace: str | None = None) -> None:
        """Run, time and check one operation; ``trace`` is None, "timing" or "counting"."""
        fn = self.ops[item.stream.name]
        if trace:
            self.tracer.install(counting=trace == "counting")
        t0 = perf_counter()
        try:
            result = fn(item.arg)
            dt = perf_counter() - t0
        except Exception:  # an operation that raises is a failed operation
            dt = perf_counter() - t0
            result = None
            self.failures.append(f"{item.stream.name}: raised\n{traceback.format_exc()}")
        finally:
            if trace:
                self.tracer.uninstall()
        ok = result is not None
        if ok:
            got = workloads.digest(workloads.render(self.wl, item.stream, result))
            ok = got == item.expected
            if not ok:
                self.failures.append(f"{item.stream.name}: output digest {got}, "
                                     f"expected {item.expected}")
        tally.add(item.stream.is_gf, dt, ok)

    def warm_up(self) -> Tally:
        tally = Tally()
        for item in self.inputs.next_cycle():
            self.execute(item, tally)
        return tally

    def measure(self, seconds: float) -> Tally:
        """Whole cycles until the operations have taken ``seconds``; the
        calibration probe runs, untimed by the tally, before each operation."""
        tally = Tally()
        while tally.busy() < seconds:
            for item in self.inputs.next_cycle():
                self.probes.append(calibration.probe())
                self.execute(item, tally)
        return tally

    def measure_traced(self, rounds: int) -> tuple[Tally, Tally, Tally]:
        """``rounds`` rounds of a timing-traced, an untraced and a counting cycle."""
        tallies = Tally(), Tally(), Tally()
        for c in range(3 * rounds):
            trace = ("timing", None, "counting")[c % 3]
            for item in self.inputs.next_cycle():
                self.execute(item, tallies[c % 3], trace)
        return tallies


def replay_goldens(failures: list[str]) -> Tally:
    """Run the snake goldens through ``abcat.cli.main``; compare byte for byte."""
    from abcat import cli

    tally = Tally()
    for diagram, flags, report in GOLDEN_REPLAYS:
        out = io.StringIO()
        t0 = perf_counter()
        with contextlib.redirect_stdout(out):
            cli.main(["snake", str(workloads.GOLDEN / diagram), *flags])
        latency = perf_counter() - t0
        ok = out.getvalue().encode("utf-8") == (workloads.GOLDEN / report).read_bytes()
        if not ok:
            failures.append(f"golden {report}: output differs")
        tally.add(True, latency, ok)
    return tally


def end_to_end(inputs: Inputs, tally: Tally, slowdown: float = 1.0) -> dict[str, float]:
    """The end-to-end metrics; every time is divided by ``slowdown``."""
    lat_ms = [op[1] * 1000 for op in tally.ops]
    return {
        "setup_s": statistics.median(inputs.shard_s) / slowdown,
        "ops_per_s": tally.rate() * slowdown,
        "latency_p50_ms": statistics.median(lat_ms) / slowdown,
        "latency_p90_ms": statistics.quantiles(lat_ms, n=10, method="inclusive")[8] / slowdown,
        "q_ops_per_s": tally.rate(False) * slowdown,
        "gf_ops_per_s": tally.rate(True) * slowdown,
        "success_rate": 1 - tally.failed / tally.count(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(tr, inputs: Inputs, traced: Tally, untraced: Tally) -> dict[str, float]:
    """Counts from the counting cycles, seconds from the timing-traced ones."""
    calls = tr.calls("linalg.rref")
    madds = tr.madds
    out = {
        "linalg.rref.calls": calls,
        "linalg.rref.distinct": tr.rref_distinct,
        "linalg.rref.repeat_frac": 1 - tr.rref_distinct / calls if calls else 0.0,
        "linalg.rref.entries": tr.rref_entries,
        "linalg.matmul.madds": madds,
        "linalg.matmul.zero_frac": tr.zero_madds / madds if madds else 0.0,
        "fields.gf_new": tr.gf_new,
        "diagrams.gen_s": statistics.median(inputs.gen_s),
        "bench.traced_ops": traced.count(),
        "bench.traced_ops_per_s": traced.rate(),
        "bench.untraced_ops_per_s": untraced.rate(),
    }
    out["bench.trace_overhead"] = out["bench.untraced_ops_per_s"] / out["bench.traced_ops_per_s"]
    for name in PER_LAYER:
        if name in out:
            continue
        span, _, what = name.rpartition(".")
        if what == "calls":
            out[name] = tr.calls(span)
        elif what == "self_s":
            out[name] = tr.self_seconds(span)
        else:
            out[name] = tr.seconds(span)
    return {name: out[name] for name in PER_LAYER}


def environment() -> str:
    return (f"python={platform.python_version()} nproc={len(os.sched_getaffinity(0))} "
            f"platform={platform.platform()}")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def run(args: argparse.Namespace, workdir: str) -> int:
    wl = workloads.WORKLOADS[args.workload]
    inputs = Inputs(wl, args.seed, workdir)
    print(f"env: {environment()}")
    print(f"run: workload={wl.name} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} strata={len(wl.strata)} pool_cycles={inputs.total_cycles}")

    if args.trace:
        from tracer import Tracer

        tr = Tracer()
        runner = Runner(wl, inputs, tr)
        warm = runner.warm_up()
        traced, untraced, counted = runner.measure_traced(wl.trace_rounds)
        tallies = [warm, traced, untraced, counted]
        metrics = per_layer(tr, inputs, traced, untraced)
        units = PER_LAYER
        print("\n".join(tr.table()))
        print(f"trace overhead: {metrics['bench.trace_overhead']:.3f}x = untraced "
              f"{metrics['bench.untraced_ops_per_s']:.2f} ops/s over {untraced.count()} "
              f"ops / traced {metrics['bench.traced_ops_per_s']:.2f} ops/s over "
              f"{traced.count()} ops")
    else:
        runner = Runner(wl, inputs)
        warm = runner.warm_up()
        measured = runner.measure(args.seconds)
        tallies = [warm, measured]
        slowdown = statistics.fmean(runner.probes) / calibration.REF_S
        metrics = end_to_end(inputs, measured, slowdown)
        units = END_TO_END
        raw = end_to_end(inputs, measured)
        print(f"calibration: probe mean {statistics.fmean(runner.probes) * 1000:.4f} ms over "
              f"{len(runner.probes)} probes, reference {calibration.REF_S * 1000} ms, "
              f"slowdown {slowdown:.4f}; unscaled: "
              + ", ".join(f"{n}={raw[n]:.6g}" for n in raw))
        print(f"measured: {measured.count()} operations in "
              f"{measured.count() // len(wl.strata)} cycles, "
              f"{measured.busy():.3f} s of "
              f"operation wall time ({measured.count(False)} over Q, "
              f"{measured.count(True)} over GF(p)); latency samples: {measured.count()}")
        print(f"error_rate: {measured.failed}/{measured.count()} = "
              f"{measured.failed / measured.count():.6f}")
    tallies.append(replay_goldens(runner.failures))
    print(f"set-up: {len(inputs.shard_s)} shard processes, median "
          f"{statistics.median(inputs.shard_s):.4f} s (generators "
          f"{statistics.median(inputs.gen_s):.4f} s)")
    for name, value in metrics.items():
        print(f"{name}: {value} {units[name]}")
    for message in runner.failures[:20]:
        print(f"FAIL {message}", file=sys.stderr)

    attempted = sum(t.count() for t in tallies)
    failed = sum(t.failed for t in tallies)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        workloads.import_abcat()
    except workloads.CheckoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    base = workloads.ROOT / ".bench_work"
    workdir = base / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        return run(args, str(workdir))
    except PoolExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            base.rmdir()  # only when no other run is using it


if __name__ == "__main__":
    sys.exit(main())
