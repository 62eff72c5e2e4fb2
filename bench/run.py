"""Benchmark for sfexplain: one seeded workload per run, checked outputs, one JSON line.

Usage (from the repository root):

    python3 bench/run.py --workload eval-cold-n8 --seed 1 --seconds 20 --trace 0

The run writes the workload's inputs from the seed into a temporary
directory under .bench_tmp/, warms imports and first calls on a tiny copy of
the workload, then splits about --seconds of round time into four parts.
Each part sets up afresh (loading inputs, fitting the detector, and for
curves-warm-n6 training the analyst's disk cache) and repeats whole rounds
of the workload; every round is checked outside its timing.

With --trace 0 the last line reports the end-to-end metrics: setup_s (the
fastest set-up), op_s (the wall time of the fastest round) and peak_rss_mb
(how far the process's peak resident memory rose above its peak after
imports and warm-up). Other load on a shared machine only ever adds time,
so the fastest of set-ups and rounds spread over the run is the steadiest
reading of the program's own cost. With --trace 1 half the time runs
untraced and half traced, and the last line reports per-layer metrics for
one set-up plus one average round, with the tracing overhead (fastest
traced round minus fastest untraced round).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

# Pin BLAS/OpenMP to one thread before numpy loads, also when run directly.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

# Parts of the untraced timed phase, each after its own set-up.
PARTS = 4
WARM_SEED = 0


def _fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


try:
    import sfexplain  # noqa: F401
except ImportError as exc:
    _fail(f"cannot import sfexplain from {ROOT / 'src'}: {exc}")

import checks  # noqa: E402
import tracer as tracing  # noqa: E402
from inputs import write_inputs  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class Tally:
    """Operations attempted and failed; correct turns false on a failed check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def run_round(self, workload, state, tracer=None) -> tuple[float, float, bool]:
        """Run one round, then check it; returns (wall s, cpu s, succeeded)."""
        self.attempted += 1
        if tracer is not None:
            tracer.enabled = True
        cpu, wall = time.process_time(), time.perf_counter()
        try:
            out = workload.round(state)
        except Exception as exc:  # the program failed this operation
            print(f"bench: round {self.attempted} failed: {exc!r}", file=sys.stderr)
            out = None
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        if tracer is not None:
            tracer.enabled = False
        if out is None:
            self.failed += 1
            return wall, cpu, False
        try:
            workload.check(state, out)
        except checks.CheckFailed as exc:
            print(f"bench: round {self.attempted} gave a wrong output: {exc}", file=sys.stderr)
            self.failed += 1
            self.correct = False
            return wall, cpu, False
        return wall, cpu, True


def timed_rounds(tally: Tally, workload, state, seconds: float, tracer=None):
    """Whole rounds for about `seconds` of round time (at least one).

    A further round starts only if at least half of it, at the mean round
    time so far, fits into `seconds`. Returns the wall and CPU times of the
    rounds that succeeded.
    """
    walls, cpus, elapsed, rounds = [], [], 0.0, 0
    while rounds == 0 or elapsed + 0.5 * elapsed / rounds < seconds:
        wall, cpu, ok = tally.run_round(workload, state, tracer)
        rounds += 1
        elapsed += wall
        if ok:
            walls.append(wall)
            cpus.append(cpu)
    return walls, cpus


def cache_bytes(path: Path | None) -> int:
    if path is None:
        return 0
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def run(args, tmp: Path) -> dict:
    workload = WORKLOADS[args.workload](seed=args.seed)
    paths = write_inputs(workload.spec, args.seed, tmp)

    # Warm imports and first calls on a tiny copy of the same workload, the
    # same in every run.
    warm = WORKLOADS[args.workload](seed=WARM_SEED)
    warm_dir = tmp / "warm"
    warm_dir.mkdir()
    warm_state = warm.setup(write_inputs(warm.tiny, WARM_SEED, warm_dir), warm_dir)
    warm.check(warm_state, warm.round(warm_state))
    del warm_state
    base_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    tally = Tally()
    budget = args.seconds / 2 if args.trace else args.seconds
    setup_times, walls, cpus = [], [], []
    for _ in range(PARTS):
        state = None  # the previous part's state is not kept alive
        start = time.perf_counter()
        state = workload.setup(paths, tmp)
        setup_times.append(time.perf_counter() - start)
        part_walls, part_cpus = timed_rounds(tally, workload, state, budget / PARTS)
        walls += part_walls
        cpus += part_cpus
    if not walls:
        _fail("every round failed")
    op_s = min(walls)
    print(
        f"bench: {len(setup_times)} set-ups, fastest {min(setup_times):.4g} s, median "
        f"{statistics.median(setup_times):.4g} s; {len(walls)} rounds, fastest {op_s:.4g} s, "
        f"median {statistics.median(walls):.4g} s",
        file=sys.stderr,
    )
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (min(setup_times), "s"),
        "op_s": (op_s, "s"),
        "peak_rss_mb": ((peak_rss - base_rss) / 1024, "MB"),
    }
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            state = workload.setup(paths, tmp)
            setup_agg = tracer.take()
            traced_walls, _ = timed_rounds(tally, workload, state, budget, tracer)
            rounds_agg = tracer.take()
        finally:
            tracer.uninstall()
        layers = tracing.layer_metrics(
            setup_agg, rounds_agg, len(traced_walls), cache_bytes(state.get("cache"))
        )
        layers["process.cpu_s"] = (statistics.median(cpus), "s")
        layers["tracing.overhead_s"] = (min(traced_walls) - op_s, "s")
        if tracer.unmeasured:
            print(f"bench: not measured: {', '.join(sorted(tracer.unmeasured))}", file=sys.stderr)
        metrics = tracing.measured(layers, tracer.unmeasured)
    return {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="round time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root))
    try:
        result = run(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass  # another run is still using it
    print(json.dumps(result))


if __name__ == "__main__":
    main()
