"""Benchmark of gapdecomp, run from the root of a source checkout.

    python3 perfbench/run.py --workload batch --seed 1 --seconds 25 --trace 0

One run sets the workload up (inputs from ``generate`` at ``--seed``, then a
warm-up op) three times, then runs ops one at a time for ``--seconds``
seconds and checks every op's output.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced ops and reports the
per-layer metrics, the tracing overhead and the share of op time no span
covers.  The last line of standard output is one JSON object.  Work files go
to ``.perfbench/<workload>/`` in the checkout.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

WORKLOADS = ("batch", "bootstrap", "fit_large")
BLAS_THREADS = 1  # in every process of every workload: at most nproc anywhere, and steadier
SETUPS = 3  # set-ups per run; setup_s is their median
MIN_OPS = 3  # per kind of op (untraced, traced), even past --seconds
CHILD_TIMEOUT_S = 150


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


@dataclass
class Op:
    seconds: float
    rss_mb: float
    problems: list[str]
    layers: dict | None = None
    uncovered: float | None = None


@dataclass
class Child:
    seconds: float
    returncode: int
    rss_mb: float
    stderr: str


def run_child(argv: list[str], cwd: Path, env: dict) -> Child:
    """Run a process to its end; wall time, exit code and its own peak RSS."""
    err_path = cwd / "stderr.txt"
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=err)
        box = []
        reaped = threading.Event()

        def reap():
            box.append((os.wait4(proc.pid, 0), time.perf_counter()))
            reaped.set()

        threading.Thread(target=reap, daemon=True).start()
        try:
            timed_out = not reaped.wait(CHILD_TIMEOUT_S)
        finally:  # on a timeout, or when this process is interrupted or terminated
            if not reaped.is_set():
                proc.kill()
                reaped.wait()
        (_, status, usage), end = box[0]
        proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = err_path.read_text(encoding="utf-8", errors="replace")
    if timed_out:
        stderr += f"\nkilled after {CHILD_TIMEOUT_S} s"
    return Child(end - start, proc.returncode, usage.ru_maxrss / 1024, stderr)


class Bench:
    """One workload in one run: its set-up, its op, and the op's checks."""

    def __init__(self, workload: str, seed: int, scale: str, trace: bool):
        import workloads  # loads numpy: only after prepare() has pinned BLAS threads

        self.workloads = workloads
        self.workload, self.seed, self.scale, self.trace = workload, seed, scale, trace
        self.workdir = WORK / workload
        self.env = _child_env()
        self.estimates_per_op = workloads.estimates_per_op(workload, scale)
        self.tracer = tracing.Tracer()
        self.cli_spans: list[dict] = []
        self.setup_layers: list[dict] = []
        self.setup_problems: list[str] = []
        self.reference = None
        self.info: dict = {}
        self.arrays = None
        self._ops = 0

    # -- set-up ------------------------------------------------------------

    def setup(self) -> float:
        """Make inputs and run one untraced warm-up op; returns wall seconds."""
        start = time.perf_counter()
        if self.workdir.exists():
            shutil.rmtree(self.workdir)
        self.workdir.mkdir(parents=True)
        child = run_child(
            [sys.executable, str(HERE / "child.py"), "setup", self.workload, str(self.seed),
             self.scale, "1" if self.trace else "0"],
            self.workdir, self.env)
        if child.returncode != 0:
            raise SystemExit(f"set-up of {self.workload} failed:\n{child.stderr}")
        info = json.loads((self.workdir / "setup.json").read_text(encoding="utf-8"))
        self.setup_layers.append(tracing.setup_metrics(info.pop("spans")))
        self.info = info
        if self.workload == "fit_large":
            self.arrays = None  # so two sets of inputs are never held at once
            self.arrays = self.workloads.load_arrays(self.workdir / "inputs.npz")
        warm, output = self._op(traced=False)
        if self.reference is None:
            self.reference = output
        elif output != self.reference:
            warm.problems.append("warm-up output differs from the first set-up's")
        self.setup_problems += warm.problems
        return time.perf_counter() - start

    # -- one op ------------------------------------------------------------

    def op(self, traced: bool) -> Op:
        result, output = self._op(traced)
        if output != self.reference:
            result.problems.append("output is not byte-identical to the warm-up op's")
        self._ops += 1
        return result

    def _op(self, traced: bool) -> tuple[Op, object]:
        if self.workload == "fit_large":
            return self._library_op(traced)
        return self._cli_op(traced)

    def cli_command(self, traced: bool, spans_path: Path) -> list[str]:
        if traced:
            return [sys.executable, str(HERE / "child.py"), "cli", "config.json", str(spans_path)]
        return [sys.executable, "-m", "gapdecomp.cli", "run", "config.json"]

    def _cli_op(self, traced: bool) -> tuple[Op, object]:
        report, table = self.workdir / "report.json", self.workdir / "table.txt"
        spans_path = self.workdir / "spans.json"
        for path in (report, table, spans_path):
            path.unlink(missing_ok=True)
        child = run_child(self.cli_command(traced, spans_path), self.workdir, self.env)
        result = Op(child.seconds, child.rss_mb, [])
        if child.returncode != 0:
            result.problems.append(f"exit code {child.returncode}: {child.stderr.strip()[-500:]}")
        if not report.exists():
            result.problems.append("no report.json written")
            return result, None
        output = (report.read_bytes(), table.read_bytes() if table.exists() else None)
        try:
            result.problems += self.workloads.check_runs(json.loads(output[0])["runs"])
        except (ValueError, KeyError, TypeError) as exc:
            result.problems.append(f"unreadable report.json: {exc!r}")
        if traced and not spans_path.exists():
            result.problems.append("no spans written")
        elif traced:
            spans = json.loads(spans_path.read_text(encoding="utf-8"))
            for s in spans:
                s["op"] = self._ops
            self.cli_spans += spans
            result.layers = tracing.layer_metrics(spans, self.info["input_bytes"])
            result.uncovered = 1.0 - tracing.covered_seconds(spans) / child.seconds
        return result, output

    def _library_op(self, traced: bool) -> tuple[Op, object]:
        tracer = self.tracer
        if traced:
            tracer.op = self._ops
            first = len(tracer.spans)
            tracer.install()
        start = time.perf_counter()
        try:
            entries = self.workloads.fit_large_op(self.arrays)
        except Exception:  # an op that raises is a failed op; the run goes on
            entries = None
            problem = traceback.format_exc(limit=3)
        seconds = time.perf_counter() - start
        if traced:
            tracer.uninstall()
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if entries is None:
            return Op(seconds, rss_mb, [problem]), None
        n = self.info["n"]["continuous"]
        result = Op(seconds, rss_mb, self.workloads.check_runs(entries, truth_n=n))
        if traced:
            spans = tracer.as_records()[first:]
            result.layers = tracing.layer_metrics(spans, 0)
            result.uncovered = 1.0 - tracing.covered_seconds(spans) / seconds
        return result, json.dumps(entries)

    def write_spans(self) -> None:
        spans = self.tracer.as_records() + self.cli_spans
        (self.workdir / "trace.json").write_text(json.dumps(spans), encoding="utf-8")


# -- a run -----------------------------------------------------------------


def measure(bench: Bench, seconds: float, trace: bool) -> list[Op]:
    """Ops one at a time until the next would end past the deadline.

    With tracing, untraced and traced ops alternate.
    """
    deadline = time.perf_counter() + seconds
    ops: list[Op] = []
    while True:
        ops.append(bench.op(traced=trace and len(ops) % 2 == 1))
        minimum = 2 * MIN_OPS if trace else MIN_OPS
        typical = statistics.median(o.seconds for o in ops)
        if len(ops) >= minimum and time.perf_counter() + typical > deadline:
            return ops


def provenance(bench: Bench, seconds: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "workload": bench.workload,
        "seed": bench.seed,
        "scale": bench.scale,
        "n": bench.info["n"],
        "input_bytes": bench.info["input_bytes"],
        "estimates_per_op": bench.estimates_per_op,
        "run_seconds": seconds,
        "setups": SETUPS,
    }


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(bench: Bench, setups: list[float], ops: list[Op]) -> tuple[dict, list[str]]:
    times = sorted(o.seconds for o in ops)
    p50 = statistics.median(times)
    p25, _, p75 = statistics.quantiles(times, n=4) if len(times) > 1 else (p50, p50, p50)
    failed = sum(1 for o in ops if o.problems)
    metrics = {
        "setup_s": _metric(statistics.median(setups), "s"),
        "op_s_p50": _metric(p50, "s"),
        "estimates_per_s": _metric(bench.estimates_per_op / p50, "1/s"),
        "peak_rss_mb": _metric(max(o.rss_mb for o in ops), "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups: " + ", ".join(f"{s:.3f}" for s in setups),
        "op_s_p50": f"p25 {p25:.4f} s, p75 {p75:.4f} s, n={len(times)}",
        "estimates_per_s": f"{bench.estimates_per_op} estimates per op / op_s_p50",
        "peak_rss_mb": "highest peak of the process doing the work",
    }
    lines = [f"{k} {m['value']:.6g} {m['unit']}  ({notes[k]})" for k, m in metrics.items()]
    lines.append(f"failed_ratio {failed / len(ops):.6g} ratio  ({failed} of {len(ops)} ops failed)")
    return metrics, lines


def per_layer(bench: Bench, ops: list[Op]) -> tuple[dict, list[str]]:
    units = tracing.LAYER_UNITS
    traced = [o for o in ops if o.layers is not None]
    plain = [o for o in ops if o.layers is None]
    values = {k: statistics.median(o.layers[k] for o in traced) for k in traced[0].layers}
    for k in bench.setup_layers[0]:
        values[k] = statistics.median(s[k] for s in bench.setup_layers)
    values["trace.overhead_ratio"] = (
        statistics.median(o.seconds for o in traced) / statistics.median(o.seconds for o in plain) - 1.0
    )
    values["trace.uncovered_share"] = statistics.median(o.uncovered for o in traced)
    metrics = {k: _metric(values[k], units[k]) for k in units}
    lines = [
        f"{k} {m['value']:.6g} {m['unit']}" + ("  (computed from array shapes)" if k.endswith("_computed") else "")
        for k, m in metrics.items()
    ]
    counts = {k: [o.layers[k] for o in traced] for k in tracing.COUNT_METRICS if k in traced[0].layers}
    same = all(len(set(v)) == 1 for v in counts.values())
    lines.append(f"counts repeat exactly across {len(traced)} traced ops: {'yes' if same else 'NO'}")
    lines.append(f"traced ops {len(traced)}, untraced ops {len(plain)}; per-layer values are medians per traced op")
    return metrics, lines


def prepare() -> str | None:
    """Pin BLAS threads and import gapdecomp from the checkout; a problem or None."""
    if not (SRC / "gapdecomp" / "__init__.py").is_file():
        return f"no gapdecomp sources under {SRC}; run from a source checkout"
    os.environ.update(_child_env())  # before numpy loads, so this process is pinned too
    sys.path.insert(0, str(SRC))
    import gapdecomp

    if Path(gapdecomp.__file__).resolve().parent != SRC / "gapdecomp":
        return f"imported gapdecomp from {gapdecomp.__file__}, not from {SRC}"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "toy"), default="full",
                        help="toy sizes are for the benchmark's self-test")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    problem = prepare()
    if problem:
        sys.stderr.write(problem + "\n")
        return 2
    result = run(Bench(args.workload, args.seed, args.scale, bool(args.trace)), args.seconds)
    print(json.dumps(result))
    return 0


def run(bench: Bench, seconds: int) -> dict:
    """One benchmark run; prints its report lines and returns the result object."""
    setups = [bench.setup() for _ in range(SETUPS)]
    ops = measure(bench, seconds, bench.trace)
    if bench.trace:
        bench.write_spans()
        metrics, lines = per_layer(bench, ops)
    else:
        metrics, lines = end_to_end(bench, setups, ops)
    failed = [o for o in ops if o.problems]
    print("provenance " + json.dumps(provenance(bench, seconds), sort_keys=True))
    print(f"workload {bench.workload}: {len(ops)} ops, {len(failed)} failed")
    for line in lines:
        print(line)
    for problem in bench.setup_problems + [p for o in failed for p in o.problems][:20]:
        print("problem: " + problem.replace("\n", " | "))
    return {
        "correct": not failed and not bench.setup_problems,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": metrics,
    }

if __name__ == "__main__":
    sys.exit(main())
