"""One set-up process: import abcat, generate a batch of inputs, write them.

Reads a JSON request on stdin::

    {"workload": "cli_mix", "dir": "...", "items": [[op, stratum, gen_seed], ...]}

writes ``<dir>/<op>.json`` for every item and prints, as its last line,
``{"gen_s": ...}``: the seconds spent inside the generators themselves
(``abcat.diagrams`` and, for ``dense``, the benchmark's matrix generator).
Run by ``run.py`` once per shard of cycles, so that generation never
happens in the process that is measured.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter

import workloads


def main() -> int:
    try:
        workloads.import_abcat()
    except workloads.CheckoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from abcat import cli, diagrams

    spent = [0.0]

    def timed(fn):
        def run(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[0] += perf_counter() - t0
        return run

    for name in ("gen_exact_pair", "gen_semicartesian", "gen_snake_input"):
        fn = timed(getattr(diagrams, name))
        setattr(diagrams, name, fn)
        setattr(cli, name, fn)
    workloads.dense_matrix = timed(workloads.dense_matrix)

    req = json.load(sys.stdin)
    wl = workloads.WORKLOADS[req["workload"]]
    streams = {workloads.stratum_name(s, c): s for s, c in wl.strata}
    out = Path(req["dir"])
    for op, stratum, gen_seed in req["items"]:
        text = workloads.generate(wl, streams[stratum], gen_seed)
        (out / f"{op}.json").write_text(text, encoding="utf-8")
    print(json.dumps({"gen_s": spent[0]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
