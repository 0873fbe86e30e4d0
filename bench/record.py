"""Write ``pool.json``: the inputs each stratum may use and their expected outputs.

For every stream the recorder walks the generator seeds in order, drops an
input whose content (apart from its meta block) an earlier input of the
workload already had, and keeps the first ``depth`` times the stream's
number of classes.  It runs the operation on each kept input and stores a
digest of the rendered result.  A stream with several classes has its
inputs sorted by work, the ``rref`` entries plus ``matmul`` multiply-adds
its operation makes (counted by the tracer, so the same on every machine),
and cut into classes of ``depth`` inputs each, lightest first.  ``run.py`` compares every
operation against these digests, so the file pins the outputs of the commit
that recorded it; rerun this only when a workload definition changes, and
only on a commit whose outputs are known to be right.

    python3 bench/record.py [WORKLOAD ...]

Each workload is recorded in its own fresh process, two at a time.
"""

from __future__ import annotations

import json
import multiprocessing
import sys
import tempfile

import workloads


def record(name: str) -> dict:
    workloads.import_abcat()
    from abcat.errors import GenerationError

    from tracer import Tracer

    tracer = Tracer()
    wl = workloads.WORKLOADS[name]
    seen: set[str] = set()
    strata: dict[str, dict] = {}
    scratch = workloads.ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        path = f"{tmp}/input.json"
        for stream in wl.streams:
            op = workloads.operation(wl, stream)
            kept: list[tuple[int, int, str]] = []  # (work, offset, digest)
            offset = 0
            while len(kept) < wl.depth * stream.classes:
                if offset > 100 * wl.depth * stream.classes:
                    raise RuntimeError(f"{stream.name}: too few usable inputs")
                try:
                    text = workloads.generate(wl, stream, stream.gen_seed(offset))
                except (RuntimeError, GenerationError):
                    offset += 1
                    continue
                key = workloads.content_key(text)
                if key not in seen:
                    seen.add(key)
                    with open(path, "w", encoding="utf-8") as handle:
                        handle.write(text)
                    arg = workloads.prepare(wl, stream, path)
                    work = 0
                    if stream.classes > 1:
                        before = tracer.rref_entries + tracer.madds
                        tracer.install(counting=True)
                        try:
                            result = op(arg)
                        finally:
                            tracer.uninstall()
                        work = tracer.rref_entries + tracer.madds - before
                    else:
                        result = op(arg)
                    kept.append((work, offset, workloads.digest(
                        workloads.render(wl, stream, result))))
                offset += 1
            kept.sort()
            for cls in range(stream.classes):
                entries = sorted(kept[cls * wl.depth:(cls + 1) * wl.depth], key=lambda e: e[1])
                strata[workloads.stratum_name(stream, cls)] = {
                    "offsets": [o for _, o, _ in entries],
                    "digests": "".join(d for _, _, d in entries),
                }
            print(f"{name}: {stream.name} used {offset} candidates", file=sys.stderr)
    return strata


def main(argv: list[str]) -> int:
    names = argv or list(workloads.WORKLOADS)
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        print(f"unknown workloads: {unknown}", file=sys.stderr)
        return 2
    try:
        with open(workloads.POOL, encoding="utf-8") as handle:
            pool = json.load(handle)
    except FileNotFoundError:
        pool = {"workloads": {}}
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(processes=2, maxtasksperchild=1) as procs:
        for name, strata in zip(names, procs.map(record, names, chunksize=1)):
            pool["workloads"][name] = strata
    # one line per stratum, so that a re-recording diffs readably
    blocks = []
    for name, strata in sorted(pool["workloads"].items()):
        lines = ",\n".join(f"  {json.dumps(s)}: {json.dumps(v, separators=(',', ':'))}"
                           for s, v in sorted(strata.items()))
        blocks.append(f"{json.dumps(name)}: {{\n{lines}\n}}")
    with open(workloads.POOL, "w", encoding="utf-8") as handle:
        handle.write('{"workloads": {\n' + ",\n".join(blocks) + "\n}}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
