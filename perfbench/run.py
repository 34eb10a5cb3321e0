"""Run one benchmark workload and print its metrics.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

from the repository root.  ``--trace 0`` measures the end-to-end
metrics of ``BENCHMARK.json`` with no instrumentation; ``--trace 1``
runs each operation twice, untraced then traced, and reports the
per-layer metrics (see ``perfbench/README.md``).  The last line of
standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

A full record (platform stamp, every sample, every failure) is written
to ``perfbench/out/``, which is not tracked.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import bootstrap

SETUP_PROBES = 3
SOLVE = "core.counting.history.solve"
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


@dataclass
class OpRecord:
    label: str
    key: object
    elapsed: float
    node_rounds: int
    errors: list[str]
    counters: dict[str, float]
    traced: bool = False
    layers: dict[str, float] = field(default_factory=dict)


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_spec() -> dict:
    return json.loads((bootstrap.REPO_ROOT / "BENCHMARK.json").read_text())


def platform_stamp() -> dict:
    """The like-with-like key every result carries."""
    import hashlib
    import os
    import platform

    import networkx
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted(bootstrap.SRC_DIR.rglob("*.py")):
        digest.update(str(path.relative_to(bootstrap.SRC_DIR)).encode())
        digest.update(path.read_bytes())
    rev = None
    if (bootstrap.REPO_ROOT / ".git").exists():
        try:
            rev = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=bootstrap.REPO_ROOT,
                capture_output=True,
                text=True,
                timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "git_rev": rev,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "blas_threads": {name: os.environ.get(name) for name in bootstrap.THREAD_VARS},
        "blas_pinned_before_numpy": bootstrap.PINNED_BEFORE_NUMPY,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
        "platform": platform.platform(),
    }


def measure_setup(name: str, seed: int) -> list[float]:
    """Set-up seconds of ``SETUP_PROBES`` fresh interpreters."""
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, str(bootstrap.BENCH_DIR / "probe.py"), name,
             str(seed), repr(start)],
            capture_output=True,
            text=True,
            timeout=170,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def counter_values() -> dict[str, float]:
    from repro.obs.metrics import get_registry

    return dict(get_registry().snapshot()["counters"])


def run_op(workload, op, *, tracer=None, context=None) -> OpRecord:
    """Prepare, time, and check one operation."""
    # Dynamic graphs and their adversaries form reference cycles that
    # hold every cached round until the cyclic collector runs; collect
    # here, untimed, so no operation inherits its predecessor's heap.
    gc.collect()
    prepared = workload.prepare(op)
    before = counter_values()
    output, failure = None, None
    with tracer.installed() if tracer else contextlib.nullcontext():
        with context if context is not None else contextlib.nullcontext():
            start = time.perf_counter()
            try:
                output = workload.execute(prepared)
            except Exception as exc:  # a crash is a failed operation
                failure = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
    after = counter_values()
    deltas = {
        name: after.get(name, 0) - before.get(name, 0)
        for name in set(after) | set(before)
        if after.get(name, 0) != before.get(name, 0)
    }
    record = OpRecord(workload.label(op), workload.op_key(op), elapsed, 0, [], deltas)
    if failure is not None:
        record.errors.append(failure)
        return record
    try:
        checked = workload.check(op, output, deltas)
    except Exception as exc:
        record.errors.append(f"check raised {type(exc).__name__}: {exc}")
        return record
    record.node_rounds = checked.node_rounds
    record.errors = checked.errors
    record.counters = checked.counters
    return record


def repeat_errors(records: list[OpRecord]) -> list[str]:
    """Runs of identical inputs must report identical ``engine.*`` counters."""
    from workloads import ENGINE_COUNTERS

    first: dict[object, OpRecord] = {}
    errors = []
    for record in records:
        if record.errors:
            continue
        seen = first.setdefault(record.key, record)
        for name in ENGINE_COUNTERS:
            a, b = seen.counters.get(name, 0), record.counters.get(name, 0)
            if a != b:
                errors.append(f"{record.label}: {name} {b!r} on a repeat, {a!r} before")
    return errors


def tail(samples: list[float]) -> tuple[float, float] | None:
    """Highest listed percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    for pct in TAIL_PERCENTILES:
        if len(ordered) * (1 - pct / 100) >= 10:
            index = min(len(ordered) - 1, int(round(pct / 100 * (len(ordered) - 1))))
            return pct, ordered[index]
    return None


def layer_metrics(records: list[OpRecord], untraced: list[OpRecord]) -> dict[str, float]:
    """Per-operation means of the traced layer times and counts."""
    count = len(records)
    totals: dict[str, float] = {}
    for record in records:
        for name, value in record.layers.items():
            totals[name] = totals.get(name, 0.0) + value
    metrics = {name: value / count for name, value in totals.items()}

    def per_op(counter: str) -> float:
        return sum(r.counters.get(counter, 0) for r in records) / count

    hits, builds = per_op("adjacency.stack_hits"), per_op("adjacency.stack_builds")
    metrics["adjacency.stack_builds"] = builds
    metrics["adjacency.native_builds"] = per_op("adjacency.native_builds")
    metrics["adjacency.stack_hit_ratio"] = hits / (hits + builds) if hits + builds else 0.0
    solves = metrics.get("core.counting.history.solves", 0.0)
    determined = metrics.pop("core.counting.history.determined", 0.0)
    metrics["core.counting.history.solve_determined_ratio"] = (
        determined / solves if solves else 0.0
    )
    metrics["trace_overhead_s"] = statistics.median(
        traced.elapsed - plain.elapsed for traced, plain in zip(records, untraced)
    )
    return metrics


def traced_layers(tracer, elapsed: float) -> dict[str, float]:
    """One traced operation's layer seconds and solver counts.

    Experiments report inclusive time (the report's breakdown); every
    other layer reports self time, so layers plus ``unattributed`` add
    up to the operation.
    """
    layers = {}
    for layer, seconds in tracer.self_s.items():
        if layer.startswith("analysis.experiments."):
            seconds = tracer.total_s[layer]
        layers[f"{layer}_s"] = seconds
    layers["trace.unattributed_s"] = elapsed - sum(tracer.self_s.values())
    layers["core.counting.history.solves"] = tracer.calls.get(SOLVE, 0)
    layers["core.counting.history.determined"] = tracer.useful.get(SOLVE, 0)
    return layers


def measure(workload, seconds: float, trace: int):
    """Warm up, run the closed loop, and repeat the warm-up inputs.

    Returns ``(timed, traced, records)``: the untraced loop operations
    (the end-to-end metrics), the traced ones, and every checked one.
    """
    workload.setup()
    warm_up = run_op(workload, workload.op(0), context=workload.warm_up_context())
    spans = None
    if trace:
        import tracer

        targets = tracer.program_targets()
        if workload.name == "report-all":
            targets += tracer.experiment_targets()
        spans = tracer.LayerTracer(targets)
    timed: list[OpRecord] = []
    traced: list[OpRecord] = []
    index = 1
    # The budget counts timed regions only; checks run outside it.
    while not timed or sum(r.elapsed for r in timed + traced) < seconds:
        op = workload.op(index)
        index += 1
        timed.append(run_op(workload, op))
        if spans is not None:
            spans.reset()
            record = run_op(workload, op, tracer=spans)
            record.traced = True
            record.layers = traced_layers(spans, record.elapsed)
            traced.append(record)
    records = [warm_up] + timed + traced
    if not any(r.key == warm_up.key for r in timed):
        records.append(run_op(workload, workload.op(0)))
    return timed, traced, records


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    try:
        bootstrap.add_program_to_path()
        spec = load_spec()
    except (bootstrap.MissingProgram, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    stamp = platform_stamp()
    setup_samples = measure_setup(args.workload, args.seed)

    workload = WORKLOADS[args.workload](args.seed)
    try:
        timed, traced, records = measure(workload, args.seconds, args.trace)
    finally:
        workload.teardown()
    repeats = repeat_errors(records)

    failures = [(r.label, r.errors) for r in records if r.errors]
    if repeats:
        failures.append(("engine counter repeat", repeats))
    attempted = len(records)
    failed = sum(1 for r in records if r.errors) + (1 if repeats else 0)

    walls = [r.elapsed for r in timed]
    e2e = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup_samples),
        "node_rounds_per_s": sum(r.node_rounds for r in timed) / sum(walls),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    section = "per_layer" if args.trace else "end_to_end"
    computed = layer_metrics(traced, timed) if args.trace else e2e
    metrics = {
        entry["name"]: {
            "value": float(computed.get(entry["name"], 0.0)),
            "unit": entry["unit"],
        }
        for entry in spec[section]
    }
    unlisted = sorted(set(computed) - set(metrics))

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(timed)} timed operations, {attempted} checked, {failed} failed")
    print(f"platform: {json.dumps(stamp, sort_keys=True)}")
    wall_tail = tail(walls)
    print(f"  wall_s median {e2e['wall_s']:.6g} s over {len(walls)} operations"
          + (f", p{wall_tail[0]:g} {wall_tail[1]:.6g} s" if wall_tail else
             ", no percentile has ten samples beyond it"))
    if args.workload == "zoo-object":
        ms = [1000 * w for w in walls]
        print(f"  count_p50_ms {statistics.median(ms):.6g} ms, count_p90_ms "
              f"{statistics.quantiles(ms, n=10)[-1] if len(ms) > 1 else ms[0]:.6g} ms"
              f" (n={len(ms)})")
    print(f"  setup_s samples {[round(s, 4) for s in setup_samples]}")
    print(f"  failed_share {failed / attempted:.6g} ({failed}/{attempted})")
    for label, errors in failures:
        print(f"  FAILED {label}: {'; '.join(errors[:5])}")
    for name, entry in metrics.items():
        print(f"  {name} = {entry['value']:.6g} {entry['unit']}")
    if unlisted:
        print(f"  (computed but not listed in BENCHMARK.json: {unlisted})")

    bootstrap.OUT_DIR.mkdir(exist_ok=True)
    out = bootstrap.OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({
        "platform": stamp,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_samples_s": setup_samples,
        "operations": [
            {"label": r.label, "elapsed_s": r.elapsed, "node_rounds": r.node_rounds,
             "traced": r.traced, "errors": r.errors, "layers": r.layers}
            for r in records
        ],
        "failures": failures,
        "metrics": metrics,
    }, indent=1, default=str))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
