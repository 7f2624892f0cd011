"""Fast self-test of the benchmark at toy sizes.

    python3 perfbench/selftest.py

Checks that every workload prints every metric of BENCHMARK.json with its
unit (and failed_ratio), that the count metrics repeat exactly across two
traced runs, that a perturbed estimate injected here is counted as a failed
op, and that the benchmark refuses to run without the package sources.
Exits 0 when every check passes.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import re
import shutil
import subprocess
import sys
import textwrap

import run
import tracing

SEED = 3
NUMBER = r"-?[0-9.]+(?:e[-+]?[0-9]+)?"

PERTURB = textwrap.dedent("""
    import dataclasses, sys
    import gapdecomp.engine as engine
    real = engine.estimate
    def estimate(d, spec):
        est = real(d, spec)
        if spec.estimator.value == "SUCCESSIVE":
            est = dataclasses.replace(est, reduction=est.reduction * (1 + 1e-6))
        return est
    engine.estimate = estimate
    import gapdecomp.cli
    sys.exit(gapdecomp.cli.main(["run", "config.json"]))
""")


def bench_run(workload: str, trace: int, cwd=run.ROOT, script=run.HERE / "run.py"):
    argv = [sys.executable, str(script), "--workload", workload, "--seed", str(SEED),
            "--seconds", "1", "--trace", str(trace), "--scale", "toy"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_printed(workload: str, trace: int, spec: dict) -> dict:
    proc = bench_run(workload, trace)
    lines = proc.stdout.splitlines()
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, lines
    listed = spec["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}, sorted(result["metrics"])
    printed = [m["name"] for m in listed] + ([] if trace else ["failed_ratio"])
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"], m
    for name in printed:
        pattern = re.compile(rf"^{re.escape(name)} {NUMBER} [A-Za-z0-9/%._-]+")
        assert any(pattern.match(line) for line in lines), f"{name} not printed with a unit"
    return result["metrics"]


def check_perturbed_estimate_fails() -> None:
    """An estimate perturbed by 1e-6 (relative) must fail its op, in-process and in the CLI."""
    import gapdecomp.engine as engine

    class LibraryPerturbed(run.Bench):
        def op(self, traced):
            real = engine.estimate

            def perturbed(d, spec):
                est = real(d, spec)
                if spec.estimator.value == "SUCCESSIVE":
                    est = dataclasses.replace(est, reduction=est.reduction * (1 + 1e-6))
                return est

            engine.estimate = perturbed
            try:
                return super().op(traced)
            finally:
                engine.estimate = real

    class CliPerturbed(run.Bench):
        def op(self, traced):  # set-up's warm-up op stays unperturbed
            self.cli_command = lambda traced, spans_path: [sys.executable, "-c", PERTURB]
            return super().op(traced)

    for cls, workload in ((LibraryPerturbed, "fit_large"), (CliPerturbed, "batch")):
        bench = cls(workload, SEED, "toy", trace=False)
        with contextlib.redirect_stdout(io.StringIO()):
            result = run.run(bench, 1)
        assert not result["correct"], workload
        assert result["failed"] == result["attempted"] >= 1, (workload, result)
        assert not bench.setup_problems, bench.setup_problems


def check_refuses_bare_directory() -> None:
    """In a directory with only BENCHMARK.json and perfbench/, it exits non-zero."""
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = bench_run("batch", 0, cwd=bare, script=bare / "perfbench" / "run.py")
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problem = run.prepare()
    assert problem is None, problem
    for workload in run.WORKLOADS:
        check_printed(workload, 0, spec)
        first = check_printed(workload, 1, spec)
        second = check_printed(workload, 1, spec)
        counts = {k: (first[k]["value"], second[k]["value"]) for k in tracing.COUNT_METRICS}
        differ = {k: v for k, v in counts.items() if v[0] != v[1]}
        assert not differ, f"{workload}: counts differ between two traced runs: {differ}"
        print(f"ok  {workload}: every metric printed with its unit; counts repeat across two runs")
    check_perturbed_estimate_fails()
    print("ok  a perturbed estimate fails its op (fit_large in-process, batch through the CLI)")
    check_refuses_bare_directory()
    print("ok  refuses to run without the package sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
