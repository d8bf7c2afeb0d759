"""Benchmark for qmarkov: closed-loop verdict workloads, untraced or traced.

Run from the repository root:

    python3 bench/run.py --workload chain --seed 0 --seconds 20 --trace 0

One caller in one process sends the next verdict-producing call when the
previous one returns.  The untraced run (--trace 0) reports the end-to-end
metrics named in BENCHMARK.json; the traced run (--trace 1) repeats the same
rounds with timing wrappers installed and reports the per-layer metrics.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the line before it records the host.
See bench/README.md.
"""
import os

# One BLAS thread in this process.  It must be set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
WORKLOADS = ("chain", "blocks", "corpus")
IMPORT_REPEATS = 5  # cold starts per untraced run, each in a child interpreter
BUILD_REPEATS = 5   # input builds per untraced run, in the run's own process
MIN_OPS = 100       # timed operations per run, at the least
MIN_REPEATS = 5     # runs of every case per run, at the least
REF_CALLS = 100     # eigvalsh calls in one reference slice
PY_SLICE_STEPS = 10_000   # loop steps in one Python reference slice
REF_WINDOW = 3      # reference slices on each side of an operation that set its host speed


@dataclass
class Outcome:
    case: object
    wall_s: float
    verdict: tuple | None   # None when the call or its verdict raised
    ok: bool
    ref_s: float = 0.0      # host speed around the call: median reference slice


def load() -> float:
    """Import qmarkov from this checkout, and the workload definitions, which
    import the rest of it.  Returns the seconds taken: the cold start when
    this is the interpreter's first import of qmarkov."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import qmarkov
    if Path(qmarkov.__file__).resolve().parent != (SRC / "qmarkov").resolve():
        raise ImportError(f"qmarkov was imported from {qmarkov.__file__}, not {SRC}")
    import workloads   # noqa: F401
    return time.perf_counter() - start


def set_up(workload: str, seed: int, tiny: bool = False):
    """Import qmarkov and build the workload's rounds from the seed."""
    load()
    import workloads
    return workloads.build(workload, seed, tiny)


def run_case(case) -> Outcome:
    """Time one operation on fresh inputs and judge its verdict."""
    from workloads import matches
    call = case.fresh()
    start = time.perf_counter()
    try:
        result = call()
    except Exception:   # a raising operation counts as failed; the run goes on
        wall = time.perf_counter() - start
        traceback.print_exc()
        return Outcome(case, wall, None, False)
    wall = time.perf_counter() - start
    try:
        verdict = case.verdict(result)
    except Exception:
        traceback.print_exc()
        return Outcome(case, wall, None, False)
    return Outcome(case, wall, verdict, matches(verdict, case.expected))


def measure(rounds, seconds: float, tracer=None, min_ops: int = MIN_OPS,
            min_repeats: int = MIN_REPEATS):
    """Run whole rounds until `seconds` have passed, `min_ops` operations ran
    and every case ran `min_repeats` times.

    A reference slice runs before every untraced operation and after the
    last, and each outcome's ``ref_s`` is the median of the slices on either
    side of it (see ``scaled_ms``).

    With a tracer, every operation also runs traced on fresh inputs, right
    after its untraced run on even rounds and right before it on odd rounds,
    so host drift and first-call costs cancel in the overhead ratio.
    Returns (untraced outcomes, traced outcomes, rounds run).
    """
    plain, traced, refs = [], [], []
    start = time.perf_counter()
    done = 0
    while (time.perf_counter() - start < seconds or len(plain) < min_ops
           or done < min_repeats * len(rounds)):
        for case in rounds[done % len(rounds)]:
            if tracer is not None and done % 2:
                traced.append(run_traced(case, tracer))
            refs.append(reference_slice())
            plain.append(run_case(case))
            if tracer is not None and not done % 2:
                traced.append(run_traced(case, tracer))
        done += 1
    refs.append(reference_slice())
    for i, outcome in enumerate(plain):
        outcome.ref_s = statistics.median(refs[max(0, i + 1 - REF_WINDOW):i + 1 + REF_WINDOW])
    return plain, traced, done


_REF_MATRIX = None


def reference_slice() -> float:
    """Seconds taken by a fixed slice of work: REF_CALLS eigvalsh calls on
    one 6x6 complex Hermitian matrix, the call pattern behind op_norm.  It
    takes about 1 ms at this benchmark's reference speed."""
    global _REF_MATRIX
    import numpy as np
    if _REF_MATRIX is None:
        a = np.arange(36.0).reshape(6, 6) + 1j * np.cos(np.arange(36.0)).reshape(6, 6)
        _REF_MATRIX = a + a.conj().T
    start = time.perf_counter()
    for _ in range(REF_CALLS):
        np.linalg.eigvalsh(_REF_MATRIX)
    return time.perf_counter() - start


def python_slice() -> float:
    """Seconds taken by PY_SLICE_STEPS steps of a pure-Python loop, about
    1 ms at the reference speed.  It scales the cold start, which runs
    before numpy is loaded."""
    start = time.perf_counter()
    x = 0
    for i in range(PY_SLICE_STEPS):
        x += i * i % 7
    return time.perf_counter() - start


def scaled_ms(wall_s: float, ref_s: float) -> float:
    """A wall time in milliseconds at the reference speed: the time over the
    reference slice measured around it, so one slice counts as 1 ms.

    The host this benchmark was tuned on switches between a fast and a slow
    state, up to 2x apart, for spells of a second to minutes; both the
    program and the slice slow down together, so the ratio stays put.
    """
    return wall_s / ref_s


def case_means(outcomes) -> list[float]:
    """Each case's mean scaled time (ms) over its repeats in the run.

    The host drifts between a fast and a slow state.  A quantile taken over
    single calls sits inside one case's samples and jumps when the share of
    fast time in the run crosses it; a quantile over case means moves in
    proportion to that share, as the mean does.
    """
    by_case = {}
    for o in outcomes:
        by_case.setdefault(id(o.case), []).append(scaled_ms(o.wall_s, o.ref_s))
    return [statistics.fmean(times) for times in by_case.values()]


def run_traced(case, tracer) -> Outcome:
    tracer.install()
    try:
        tracer.op_started()
        outcome = run_case(case)
        tracer.op_finished(case.kind, outcome.wall_s)
    finally:
        tracer.uninstall()
    return outcome


def child_import() -> tuple[float, float]:
    """Cold-start seconds measured in a fresh interpreter, and the median of
    the Python reference slices that interpreter ran just before and just
    after its imports.

    The slices run in the child, not here: the two processes may sit on
    different CPUs, and the host's CPUs need not be in the same state.
    """
    cmd = [sys.executable, str(BENCH / "run.py"), "--import-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    timed = json.loads(done.stdout.splitlines()[-1])
    return timed["import_s"], timed["ref_s"]


def timed_builds(workload: str, seed: int) -> tuple[list, list[float]]:
    """Build the workload's inputs BUILD_REPEATS times in this process.

    Returns the last build's rounds and each build's scaled time (ms),
    with the reference slices run just before and just after it.
    """
    import workloads
    scaled = []
    for _ in range(BUILD_REPEATS):
        rounds = None   # one build alive at a time, so peak memory is one build's
        refs = [reference_slice() for _ in range(REF_WINDOW)]
        start = time.perf_counter()
        rounds = workloads.build(workload, seed)
        wall = time.perf_counter() - start
        refs += [reference_slice() for _ in range(REF_WINDOW)]
        scaled.append(scaled_ms(wall, statistics.median(refs)))
    return rounds, scaled


def calibrate() -> float:
    """Median milliseconds of five timings of 20 reference slices: 2000
    eigvalsh calls on one 6x6 complex Hermitian matrix."""
    return statistics.median(sum(reference_slice() for _ in range(20)) for _ in range(5)) * 1e3


def host_info(calib_ms: float) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "host.calib_ms": calib_ms,
    }


def quantile(values, q: int) -> float:
    """The q-th percentile, q a multiple of 10, interpolating linearly."""
    return statistics.quantiles(values, n=10, method="inclusive")[q // 10 - 1]


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024   # KiB on Linux


def emit(section: str, values: dict, attempted: int, failed: int, info: dict) -> None:
    """Print the host line, then the result line with every metric that
    BENCHMARK.json declares in `section`.  A metric whose function or
    operation kind did not run in this workload reads 0."""
    spec = json.loads(SPEC.read_text())[section]
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in spec}
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def untraced_run(args) -> int:
    imports = [child_import() for _ in range(IMPORT_REPEATS)]
    load()
    rounds, builds = timed_builds(args.workload, args.seed)
    outcomes, _, done = measure(rounds, args.seconds)
    failed = sum(not o.ok for o in outcomes)
    means = case_means(outcomes)
    wall_s = sum(o.wall_s for o in outcomes)
    values = {
        "ops_per_s": 1e3 * len(outcomes) / sum(scaled_ms(o.wall_s, o.ref_s) for o in outcomes),
        "latency_p50_ms": quantile(means, 50),
        "latency_p90_ms": quantile(means, 90),
        "setup_s": (statistics.median(scaled_ms(s, ref) for s, ref in imports)
                    + statistics.median(builds)) / 1e3,
        "peak_rss_mb": peak_rss_mib(),
    }
    info = {"host": host_info(calibrate()), "workload": args.workload, "seed": args.seed,
            "rounds": done, "cases": len(means), "error_rate": failed / len(outcomes),
            "wall_ops_per_s": len(outcomes) / wall_s,
            "ref_slice_ms": statistics.median(o.ref_s for o in outcomes) * 1e3,
            "imports_wall_s": [s for s, _ in imports], "builds_ms": builds}
    emit("end_to_end", values, len(outcomes), failed, info)
    return 0


def traced_run(args) -> int:
    from tracer import LAYERS, Tracer
    rounds = set_up(args.workload, args.seed)
    tracer = Tracer()
    plain, traced, done = measure(rounds, args.seconds, tracer)
    mismatched = sum(p.verdict != t.verdict for p, t in zip(plain, traced))
    failed = sum(not p.ok for p in plain) + sum(
        not t.ok or p.verdict != t.verdict for p, t in zip(plain, traced))
    attempted = len(plain) + len(traced)
    plain_wall = sum(o.wall_s for o in plain)
    traced_wall = sum(o.wall_s for o in traced)
    calib_ms = calibrate()

    values = {f"{key}.{field}": stat[i] for key, stat in tracer.stats.items()
              for i, field in ((0, "calls"), (1, "self_s"))}
    layer_self, layer_calls = tracer.layer_self(), tracer.layer_calls()
    for layer in LAYERS:
        values[f"{layer}.calls"] = layer_calls[layer]
        values[f"{layer}.self_s"] = layer_self[layer]
        values[f"{layer}.share"] = layer_self[layer] / traced_wall
    ae_det = tracer.stats["state.ae_deterministic"]
    values["state.ae_deterministic.pairs"] = tracer.pairs
    values["state.ae_deterministic.us_per_pair"] = ae_det[2] * 1e6 / tracer.pairs if tracer.pairs else 0
    values["linalg.mean_dim"] = (tracer.linalg_dim_sum / tracer.linalg_entries
                                 if tracer.linalg_entries else 0)
    values["channel.cached.hit_ratio"] = (tracer.cached_hits / tracer.cached_calls
                                          if tracer.cached_calls else 0)
    values["trace.overhead_ratio"] = traced_wall / plain_wall
    values["host.calib_ms"] = calib_ms
    values["error_rate"] = failed / attempted
    by_kind = {}
    for o in plain:
        by_kind.setdefault(o.case.kind, []).append(o.wall_s)
    for kind, walls in by_kind.items():
        values[f"op.{kind}.p50_ms"] = statistics.median(walls) * 1e3

    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    dump = out / f"trace-{args.workload}-seed{args.seed}.json"
    dump.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "ops": tracer.ops,
        "functions": {k: dict(zip(("calls", "self_s", "total_s"), v))
                      for k, v in sorted(tracer.stats.items()) if v[0]},
    }))
    info = {"host": host_info(calib_ms), "workload": args.workload, "seed": args.seed,
            "rounds": done, "verdict_mismatches": mismatched,
            "spans": str(dump.relative_to(ROOT))}
    emit("per_layer", values, attempted, failed, info)
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--import-only", action="store_true",
                        help="time one cold start and print it (used for setup_s)")
    args = parser.parse_args(argv)
    if not args.import_only and (args.workload is None or args.seed is None):
        parser.error("--workload and --seed are required")
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qmarkov" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"error: no qmarkov sources under {SRC} or no {SPEC.name}", file=sys.stderr)
        return 2
    if args.import_only:
        refs = [python_slice() for _ in range(2 * REF_WINDOW)]
        seconds = load()
        refs += [python_slice() for _ in range(2 * REF_WINDOW)]
        print(json.dumps({"import_s": seconds, "ref_s": statistics.median(refs)}))
        return 0
    return traced_run(args) if args.trace else untraced_run(args)


if __name__ == "__main__":
    sys.exit(main())
