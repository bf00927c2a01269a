"""sdemodulus benchmark: end-to-end and per-layer metrics for four workloads.

One workload per process:

    python3 bench/run.py --workload modulus-osc1d --seed 0 --seconds 20 --trace 0

prints the machine and environment as one JSON line, then, as its last line,
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones, measured with tracing off and scaled by the
host's slowdown (``hostspeed.py``); the line before the last gives the
unscaled medians.  With ``--trace 1`` they are the per-layer ones, from spans
recorded around every public function of the program (``layers.py``).

Every workload, one after another in fresh interpreters:

    python3 bench/run.py --all --seed 0 [--out BENCH_<tag>.json]

runs each workload untraced and traced twice, checks that the exact counts
repeat, compares them with ``counts.json``, prints every metric by name
with its unit, and writes the results to ``--out`` if given.  NOTES.md gives
the reason for each workload and metric.
"""

from __future__ import annotations

import os

# Single-threaded BLAS keeps the small matrix products from spreading over
# cores that other processes share; it is recorded with the environment.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import functools
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_PROBES = 11

# The metric names and units are declared once, in BENCHMARK.json.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = tuple((m["name"], m["unit"]) for m in SPEC["end_to_end"])
PER_LAYER = tuple((m["name"], m["unit"]) for m in SPEC["per_layer"])
COUNTS = tuple(name for name, unit in PER_LAYER if unit == "count")


def import_program():
    """Import sdemodulus from this checkout's ``src``, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import sdemodulus

    if Path(sdemodulus.__file__).resolve().parent.parent != SRC.resolve():
        raise ImportError(f"sdemodulus imported from {sdemodulus.__file__}, not from {SRC}")


# -- machine and environment ---------------------------------------------------


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def _cpu_model() -> str:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _cache_sizes() -> dict:
    out = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for i in range(8):
        level = _read(f"{base}/index{i}/level")
        if level in ("2", "3"):
            out[f"l{level}"] = _read(f"{base}/index{i}/size")
    return out


def environment(seed: int, load_1m: float) -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        **_cache_sizes(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "seed": seed,
        "loadavg_1m_at_start": load_1m,
    }


# -- measurement ----------------------------------------------------------------


def _quantile(values, q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


_PROBE = """import sys
sys.path[:0] = {paths!r}
from workloads import WORKLOADS
WORKLOADS[{workload!r}].setup({seed})
print("ready", flush=True)
"""


def setup_probe(workload: str, seed: int) -> float:
    """Time for a fresh interpreter to import the program and build the inputs."""
    code = _PROBE.format(paths=[str(SRC), str(BENCH)], workload=workload, seed=seed)
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"setup probe for {workload} failed (exit {proc.returncode})")
    return elapsed


class Tally:
    """Operations attempted and failed, and whether every output matched the first."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.reference = None
        self.consistent = True

    def add(self, res) -> None:
        self.attempted += res.attempted
        self.failed += res.failed
        if self.reference is None:
            self.reference = res.output
        elif res.output != self.reference:
            self.consistent = False


def _timed(op, inputs):
    t0 = time.perf_counter()
    res = op(inputs)
    return res, time.perf_counter() - t0


def run_untraced(wl, inputs, seconds: float, probe):
    """Operations for ``seconds``, with a set-up probe after each of the first ones.

    Each operation and each probe is timed between two samples of the host's
    slowdown (hostspeed.py), and its time is divided by their median.  A
    CLI operation is one draw.  A draw's cost is the median of its scaled
    times over the run, ``wall_s`` is the sum of the draws' costs and the
    percentiles are taken over them.  Returns the tally, the metrics, and
    the unscaled medians with the host's median slowdown.
    """
    from hostspeed import HostSpeed, slowdown

    tally = Tally()
    host, host_setup = HostSpeed(wl.reference), HostSpeed("arrays")

    def timed_probe():
        before = host_setup.sample()
        seconds = probe()
        return seconds, slowdown(before, host_setup.sample())

    samples = [host.sample()]
    walls, draws_ms, factors, probes = [], [], [], []
    start = time.perf_counter()
    while True:
        res, wall = _timed(wl.op, inputs)
        samples.append(host.sample())
        tally.add(res)
        factor = slowdown(samples[-2], samples[-1])
        factors.append(factor)
        walls.append(wall)
        draws_ms.append([t / factor for t in res.draw_ms or (wall * 1e3,)])
        if len(probes) < SETUP_PROBES:
            probes.append(timed_probe())
        elapsed = time.perf_counter() - start
        if len(walls) >= wl.min_ops and elapsed + statistics.median(walls) > seconds:
            break
    while len(probes) < SETUP_PROBES:
        probes.append(timed_probe())
    wall_ms, p50, p95 = draw_costs(draws_ms)
    metrics = {
        "setup_s": statistics.median(t / f for t, f in probes),
        "wall_s": wall_ms / 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "draw_p50_ms": p50,
        "draw_p95_ms": p95,
    }
    unscaled = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(t for t, _ in probes),
        "slowdown": statistics.median(factors),
    }
    return tally, metrics, unscaled


def draw_costs(draws_ms):
    """Operation time and draw percentiles in ms, from one sequence of draw times per operation.

    A draw's cost is the median of its times over the operations.  A CLI
    operation is one draw, so there all three values are the median operation.
    """
    costs = [statistics.median(times) for times in zip(*draws_ms)]
    return math.fsum(costs), _quantile(costs, 0.50), _quantile(costs, 0.95)


def run_traced(wl, inputs, seconds: float):
    """Untraced and traced operations in turn, then one measuring K and C memory.

    The run starts and ends with an untraced operation.  Every output must
    reproduce the first byte for byte, and every traced operation must repeat
    the counts of the first.
    """
    from layers import layer_metrics, peak_memory, traced
    from tracer import Tracer

    tally = Tally()
    start = time.perf_counter()
    res, wall = _timed(wl.op, inputs)
    tally.add(res)
    untraced_walls, rows, walls = [wall], [], []
    while True:
        tracer = Tracer()
        with traced(tracer):
            res, wall = _timed(wl.op, inputs)
        tally.add(res)
        walls.append(wall)
        rows.append(layer_metrics(tracer))
        res, wall = _timed(wl.op, inputs)
        tally.add(res)
        untraced_walls.append(wall)
        pair = statistics.median(walls) + statistics.median(untraced_walls)
        if time.perf_counter() - start + pair > seconds:
            break
    peaks: dict = {}
    with peak_memory(peaks):
        tally.add(wl.op(inputs))
    counts_repeat = all(row[k] == rows[0][k] for row in rows for k in COUNTS)
    metrics = {
        k: v if k in COUNTS else statistics.median(row[k] for row in rows)
        for k, v in rows[0].items()
    }
    metrics["regularity.K_peak_mb"] = peaks.get("regularity.K", 0) / 2**20
    metrics["regularity.C_peak_mb"] = peaks.get("regularity.C", 0) / 2**20
    # Interference from other tenants only adds time, so fastest against
    # fastest is the steadiest difference.
    metrics["trace.overhead_s"] = min(walls) - min(untraced_walls)
    return tally, metrics, counts_repeat


def run_one(args) -> dict:
    load_1m = os.getloadavg()[0]
    import_program()
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    print(json.dumps({"env": environment(args.seed, load_1m)}), flush=True)
    if args.trace:
        inputs = wl.setup(args.seed)
        tally, metrics, counts_repeat = run_traced(wl, inputs, args.seconds)
        spec = PER_LAYER
    else:
        inputs = wl.setup(args.seed)
        probe = functools.partial(setup_probe, args.workload, args.seed)
        tally, metrics, unscaled = run_untraced(wl, inputs, args.seconds, probe)
        print(json.dumps({"unscaled": unscaled}), flush=True)
        counts_repeat = True
        spec = END_TO_END
    return {
        "correct": tally.failed == 0 and tally.consistent and counts_repeat,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in spec},
    }


# -- every workload -------------------------------------------------------------


def _child(workload: str, seed: int, seconds: int, trace: int):
    cmd = [
        sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[0])["env"], json.loads(lines[-1])


def run_all(args) -> int:
    from workloads import WORKLOADS

    recorded = json.loads((BENCH / "counts.json").read_text())
    doc = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    ok = True
    for name in WORKLOADS:
        env, plain = _child(name, args.seed, args.seconds, 0)
        traced = [_child(name, args.seed, args.seconds, 1) for _ in range(2)]
        doc.setdefault("env", env)
        counts = [{k: r["metrics"][k]["value"] for k in COUNTS} for _, r in traced]
        repeat = counts[0] == counts[1]
        want = recorded["workloads"].get(name, {})
        changed = {k: (want.get(k), v) for k, v in counts[0].items() if want.get(k) != v}
        correct = plain["correct"] and all(r["correct"] for _, r in traced)
        ok = ok and correct and repeat
        doc["workloads"][name] = {
            "correct": correct,
            "attempted": plain["attempted"],
            "failed": plain["failed"],
            "fail_frac": plain["failed"] / plain["attempted"],
            "counts_repeat": repeat,
            "counts_changed_from_recorded": changed,
            "end_to_end": plain["metrics"],
            "per_layer": traced[0][1]["metrics"],
        }
        print(f"== {name}: correct={correct} counts_repeat={repeat}")
        print(f"  fail_frac = {plain['failed']}/{plain['attempted']}")
        for section in ("end_to_end", "per_layer"):
            for k, m in doc["workloads"][name][section].items():
                v = m["value"]
                print(f"  {k} = {v:.6g} {m['unit']}" if isinstance(v, float) else f"  {k} = {v} {m['unit']}")
        for k, (old, new) in changed.items():
            print(f"  count {k} differs from counts.json: {old} -> {new}")
    print(json.dumps({"env": doc["env"]}))
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--all", action="store_true", help="run every workload in turn")
    p.add_argument("--out", help="with --all: write the results here as JSON")
    args = p.parse_args(argv)
    try:
        if args.all:
            import_program()
            return run_all(args)
        if args.workload is None:
            p.error("--workload or --all is required")
        result = run_one(args)
    except ImportError as exc:
        print(f"bench: cannot import the program: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
