"""acstab benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload forward-1d --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

One process, one caller, one operation at a time (a closed loop).  BLAS
threads are pinned to 1 and ACSTAB_THREADS is unset, so the CLI's worker
pool gets min(os.cpu_count(), tasks) threads, as a user's would.

A run times rounds of the workload until --seconds have passed, and times
set-up in a fresh interpreter (setup_probe.py) after each of the first
rounds.  Times that end-to-end metrics use are in reference seconds: wall
time scaled by a calibration kernel timed next to it (calibration.py), which
cancels the machine's speed drift.  Every operation's output is checked
against the seed commit's (reference.json) or against its own verification;
a failed or wrong operation counts in `failed`, and a wrong one also sets
`correct` to false.

--trace 0 prints the end-to-end metrics of BENCHMARK.json.  --trace 1
alternates untraced and traced rounds, prints the per-layer metrics, checks
that every traced round produced identical counts, and writes the first
traced round's spans to .perfbench_out/.  The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from layertrace import COUNT_METRICS, Tracer, layer_metrics, write_spans
from workloads import WORKLOADS, Outcome

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_RUNS = 7            # fresh interpreters timed per run (plus one discarded)
MIN_ROUNDS = 4            # timed rounds, whatever --seconds says
MAX_MEASURE_S = 120.0     # stop starting rounds after this, whatever --seconds says
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, reference, or set-up)."""


def pin_threads() -> None:
    """One BLAS thread; the CLI pool left at its default.  Call before numpy loads."""
    for var in _THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("ACSTAB_THREADS", None)


def import_acstab():
    """Import acstab from this checkout's src directory, and nowhere else."""
    package = SRC / "acstab"
    if not (package / "__init__.py").is_file():
        raise BenchError(f"no acstab sources at {package}")
    sys.path.insert(0, str(SRC))
    import acstab
    import acstab.cli  # noqa: F401

    if Path(acstab.__file__).resolve().parent != package.resolve():
        raise BenchError(f"imported acstab from {acstab.__file__}, not from {package}")
    return acstab


def load_json(path: Path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise BenchError(f"cannot read {path}: {exc}") from None


class SetupProbe:
    """Times set-up (setup_probe.py) in fresh interpreters, one call at a time.

    run.py spreads the probes over the whole run, between rounds, so that
    they sample the machine in the same states as the rounds do.  The first
    probe is discarded: in a fresh checkout it also writes the bytecode
    caches, which users pay once, not on every call.
    """

    def __init__(self, grids):
        self.cmd = [sys.executable, str(Path(__file__).with_name("setup_probe.py")),
                    *(f"{dim}x{n}" for dim, n in grids)]
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.samples: list[dict[str, float]] = []
        self._probe()
        self.samples.clear()

    def _probe(self) -> None:
        proc = subprocess.run(self.cmd, env=self.env, cwd=ROOT, capture_output=True, text=True,
                              timeout=120)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        self.samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))

    def step(self) -> None:
        """One more probe, until SETUP_RUNS have been taken."""
        if len(self.samples) < SETUP_RUNS:
            self._probe()

    def medians(self) -> dict[str, float]:
        while len(self.samples) < SETUP_RUNS:
            self._probe()
        return {key: statistics.median(s[key] for s in self.samples) for key in self.samples[0]}


@dataclass
class RoundResult:
    units: int = 0
    seconds: float = 0.0          # wall time inside the operations
    ref_seconds: float = 0.0      # the same in reference seconds (calibration.py)
    kernel_seconds: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    misses: list[str] = field(default_factory=list)
    failures: dict[str, str] = field(default_factory=dict)
    spans: list = field(default_factory=list)

    @property
    def rate(self) -> float:
        """Completed units per reference second."""
        return self.units / self.ref_seconds

    @property
    def raw_rate(self) -> float:
        """Completed units per wall-clock second."""
        return self.units / self.seconds


class Bench:
    """The seeded operations of one workload, prepared once and run in rounds.

    A calibration kernel runs after every operation, so each operation's
    time is also known in reference seconds (see calibration.py).
    """

    def __init__(self, acstab, workload, seed: int, reference: dict):
        workdir = OUT / "work"
        workdir.mkdir(parents=True, exist_ok=True)
        self.ops = workload.round_ops(seed)
        for op in self.ops:
            if op.needs_reference and op.key not in reference:
                raise BenchError(f"reference.json has no entry for {op.key!r}")
        self.reference = reference
        self.runs = [op.prepare(acstab, workdir) for op in self.ops]
        from calibration import make_kernel  # numpy loads only after pin_threads()

        self.kernel = make_kernel(workload.kernel)
        self._last_kernel_s = self.kernel.time()

    def _timed(self, res: RoundResult, start: float) -> None:
        """Add one operation's time, also in reference seconds, to the round."""
        wall = perf_counter() - start
        kernel_s = self.kernel.time()
        res.kernel_seconds.append(kernel_s)
        res.seconds += wall
        res.ref_seconds += wall * self.kernel.nominal_s / (0.5 * (self._last_kernel_s + kernel_s))
        self._last_kernel_s = kernel_s

    def round(self, tracer=None) -> RoundResult:
        res = RoundResult()
        for i, (op, run) in enumerate(zip(self.ops, self.runs)):
            start = perf_counter()
            try:
                outcome = tracer.run_op(i, run) if tracer else run()
            except Exception as exc:  # an operation that raises is a failed operation
                outcome = Outcome(0, f"raised {type(exc).__name__}: {exc}", {})
            self._timed(res, start)
            res.attempted += 1
            if outcome.failure is not None:
                res.failed += 1
                res.failures[op.key] = outcome.failure
                continue
            miss = op.check(outcome.digest, self.reference.get(op.key))
            if miss is not None:
                res.failed += 1
                res.misses.append(f"{op.key}: {miss}")
                continue
            res.units += outcome.units
        if tracer is not None:
            res.spans = tracer.take()
        return res


def run_rounds(bench: Bench, setup: SetupProbe, seconds: float, trace: bool):
    """Timed rounds, with a set-up probe after each; with trace, every second round is traced.

    There is no separate warm-up: the first round also fills the Laplacian
    cache, and the median over rounds discards it.
    """
    tracer = Tracer() if trace else None
    rounds: list[tuple[bool, RoundResult]] = []
    begin = perf_counter()
    while True:
        traced = trace and len(rounds) % 2 == 1
        if traced:
            tracer.install()
            try:
                res = bench.round(tracer)
            finally:
                tracer.uninstall()
        else:
            res = bench.round()
        rounds.append((traced, res))
        setup.step()
        elapsed = perf_counter() - begin
        if elapsed >= MAX_MEASURE_S or (elapsed >= seconds and len(rounds) >= MIN_ROUNDS):
            return rounds


def end_to_end(setup, rounds, attempted, failed) -> dict[str, float]:
    return {
        "setup_s": setup["setup_ref_s"],
        "work_per_s": statistics.median(r.rate for _, r in rounds),
        "ok_ratio": (attempted - failed) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(setup, rounds, workload: str, seed: int) -> tuple[dict[str, float], list[str]]:
    traced = [r for t, r in rounds if t]
    plain = [r for t, r in rounds if not t]
    per_round = [layer_metrics(r.spans) for r in traced]
    problems = [
        f"count {name} differs between traced rounds: {[m[name] for m in per_round]}"
        for name in COUNT_METRICS if len({m[name] for m in per_round}) != 1
    ]
    metrics = {
        name: per_round[0][name] if name in COUNT_METRICS
        else statistics.median(m[name] for m in per_round)
        for name in per_round[0]
    }
    untraced = statistics.median(r.rate for r in plain)
    traced_rate = statistics.median(r.rate for r in traced)
    metrics.update({
        "cli.import_s": setup["import_s"],
        "fields.laplacian_build_s": setup["laplacian_s"],
        "bench.raw_work_per_s": statistics.median(r.raw_rate for r in plain),
        "bench.kernel_s": statistics.median(k for r in rounds for k in r[1].kernel_seconds),
        "bench.untraced_work_per_s": untraced,
        "bench.traced_work_per_s": traced_rate,
        "bench.trace_overhead_ratio": untraced / traced_rate,
    })
    write_spans(OUT / f"spans-{workload}-seed{seed}.jsonl", traced[0].spans)
    return metrics, problems


def run_one(args) -> dict:
    spec = load_json(ROOT / "BENCHMARK.json")
    pin_threads()
    acstab = import_acstab()
    workload = WORKLOADS[args.workload]
    reference = load_json(Path(__file__).with_name("reference.json"))["ops"]
    probe = SetupProbe(workload.grids)
    bench = Bench(acstab, workload, args.seed, reference)
    rounds = run_rounds(bench, probe, args.seconds, bool(args.trace))
    setup = probe.medians()

    timed = [r for _, r in rounds]
    attempted = sum(r.attempted for r in timed)
    failed = sum(r.failed for r in timed)
    problems = [m for r in timed for m in r.misses]
    if args.trace:
        values, count_problems = per_layer(setup, rounds, args.workload, args.seed)
        problems += count_problems
        declared = spec["per_layer"]
    else:
        values = end_to_end(setup, rounds, attempted, failed)
        declared = spec["end_to_end"]
    if set(values) != {m["name"] for m in declared}:
        raise BenchError(f"metrics {sorted(values)} do not match BENCHMARK.json")

    failures = {key: why for r in timed for key, why in r.failures.items()}
    for key, why in sorted(failures.items()):
        print(f"failed: {key}: {why}", file=sys.stderr)
    for miss in dict.fromkeys(problems):
        print(f"INCORRECT: {miss}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} rounds={len(rounds)} "
          f"ops/round={len(bench.ops)} unit={workload.unit}")
    metrics = {}
    for m in declared:
        value = values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:40s} {value:14.6g} {m['unit']}")
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run_all(args) -> dict:
    """Every workload in its own process; metric names get a workload prefix."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"workload {name} exited {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for key, val in result["metrics"].items():
            total["metrics"][f"{name}.{key}"] = val
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    try:
        result = run_all(args) if args.workload == "all" else run_one(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
