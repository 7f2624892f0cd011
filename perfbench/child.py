"""Processes the benchmark starts, one per set-up and one per traced CLI op.

    python3 perfbench/child.py setup <workload> <seed> <scale> <trace 0|1>
        Writes the workload's inputs into the current directory and
        ``setup.json`` (rows and bytes of the inputs; spans when traced).
    python3 perfbench/child.py cli <config> <spans.json>
        Times ``import gapdecomp.cli``, wraps the traced entry points, runs
        ``gapdecomp.cli.main(["run", config])`` and writes its spans.

Untraced CLI ops run ``python3 -m gapdecomp.cli run`` directly.
"""

from __future__ import annotations

import json
import sys
import time

from tracing import Tracer


def _write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def setup(workload: str, seed: int, scale: str, trace: bool) -> int:
    import gapdecomp  # noqa: F401  (loads every module the tracer wraps)
    from workloads import make_inputs

    tracer = Tracer()
    if trace:
        tracer.install()
    info = make_inputs(workload, seed, scale)
    _write_json("setup.json", {**info, "spans": tracer.as_records()})
    return 0


def cli(config: str, spans_path: str) -> int:
    tracer = Tracer()
    start = time.perf_counter()
    import gapdecomp.cli

    tracer.record("cli.import", start, time.perf_counter())
    tracer.install()
    try:
        return gapdecomp.cli.main(["run", config])
    finally:
        _write_json(spans_path, tracer.as_records())


if __name__ == "__main__":
    mode, args = sys.argv[1], sys.argv[2:]
    if mode == "setup":
        sys.exit(setup(args[0], int(args[1]), args[2], args[3] == "1"))
    sys.exit(cli(*args))
