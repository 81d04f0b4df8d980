"""ggsver benchmark: three workloads, end-to-end metrics, and a traced run.

    python3 bench/run.py --workload verify_matrix --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all

Runs from the root of a checkout and imports ggsver from its src/ directory,
nothing else.  A run sets up once, then repeats whole rounds of its workload
until --seconds have passed, checks every output against results computed
apart from the program (oracle.py), and prints its metrics; the last line is
one JSON object with the keys correct, attempted, failed and metrics.  With
--trace 0 the metrics are the end-to-end ones; with --trace 1 they are the
per-layer figures of a traced run (spans.py).  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
NAMES = ("verify_matrix", "deep_containment", "membership")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 4  # set-ups repeated in fresh processes for the setup_s median


class HarnessError(RuntimeError):
    """The run cannot be measured here; no result is printed."""


def load_program():
    """ggsver from this checkout's src/, or a HarnessError."""
    sys.path.insert(0, SRC)
    try:
        import ggsver
        import ggsver.cli
    except ImportError as exc:
        raise HarnessError(f"cannot import ggsver from {SRC}: {exc}") from exc
    where = os.path.dirname(os.path.abspath(ggsver.__file__))
    if where != os.path.join(SRC, "ggsver"):
        raise HarnessError(f"ggsver was imported from {where}, not from {SRC}")
    return ggsver


def environment() -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def measure(workload, gv, meter, seconds: float):
    """Whole rounds until `seconds` have passed: (raw round seconds, scaled
    round seconds, operations, problems of the failed ones)."""
    raw, scaled, failed = [], [], []
    ops = 0
    start = time.perf_counter()
    while True:
        r, s, problems = workload.round(gv, meter)
        raw.append(r)
        scaled.append(s)
        ops += len(problems)
        failed += [p for p in problems if p]
        if time.perf_counter() - start >= seconds:
            return raw, scaled, ops, failed


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def setup_probe(args) -> dict:
    """Set-up of the same workload in a fresh interpreter: raw and scaled
    seconds."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def per_layer(tracer, setup_end, n_rounds, handles, setup_scale, round_scale) -> dict:
    """Set-up spans (the first setup_end) plus the mean over traced rounds,
    by metric name.  Span seconds are scaled like the end-to-end ones, by
    the kernel samples of the set-up and of the rounds."""
    from oracle import CLAIMS

    once = spans.layer_times(tracer.spans, 0, setup_end)
    each = spans.layer_times(tracer.spans, setup_end)

    def value(kind, key):
        if kind == "calls":
            return metric(once[kind].get(key, 0) + each[kind].get(key, 0) / n_rounds, "count")
        secs = once[kind].get(key, 0) * setup_scale + each[kind].get(key, 0) * round_scale / n_rounds
        return metric(secs, "s")

    out = {}
    for op in ("normal_closure", "chain", "level_stabilizer", "contains"):
        out[f"permgroups.{op}_s"] = value("s", f"permgroups.{op}")
        out[f"permgroups.{op}_calls"] = value("calls", f"permgroups.{op}")
    out["permgroups.strong_generators"] = metric(handles["strong_generators"], "count")
    out["permgroups.transversal_points"] = metric(handles["transversal_points"], "count")
    out["permgroups.order_exponent_sum"] = metric(handles["order_exponent_sum"], "log_p")
    for cid in CLAIMS:
        out[f"checks.{cid}_s"] = value("s", f"checks.{cid}")
        out[f"checks.{cid}.self_s"] = value("self_s", f"checks.{cid}")
    out["ggs.build_s"] = value("s", "ggs.build")
    out["ggs.build_calls"] = value("calls", "ggs.build")
    out["portraits.s"] = value("s", "portraits")
    out["cli.report_s"] = value("s", "cli.report")
    return out


def run(args) -> dict:
    t0 = time.perf_counter()
    gv = load_program()
    import speed
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    tracer = spans.Tracer(gv) if args.trace else None
    if tracer:
        tracer.install()
    workload.setup(gv)
    setup_raw = time.perf_counter() - t0
    meter = speed.Speedometer()
    after = [meter.kernel() for _ in range(5)]
    setup = {"raw": setup_raw, "scaled": meter.scale(setup_raw, after)}
    if args.setup_probe:
        return setup

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    try:
        if tracer:
            setup_scale = setup["scaled"] / setup["raw"]
            metrics, raw, scaled, ops, failed = traced_part(
                args, gv, workload, meter, tracer, record, setup_scale
            )
        else:
            raw, scaled, ops, failed = measure(workload, gv, meter, args.seconds)
    except workloads.CacheHit as exc:
        raise HarnessError(str(exc)) from exc
    if not tracer:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setups = [setup] + [setup_probe(args) for _ in range(SETUP_PROBES)]
        metrics = {
            "wall_s": metric(statistics.median(scaled), "s"),
            "ops_per_s": metric(ops / sum(scaled), "1/s"),
            "setup_s": metric(statistics.median(s["scaled"] for s in setups), "s"),
            "peak_rss_mb": metric(rss_mb, "MiB"),
        }
        record["setup_raw_s"] = [s["raw"] for s in setups]
        record["setup_scaled_s"] = [s["scaled"] for s in setups]
    record.update(env=environment(), round_raw_s=raw, round_scaled_s=scaled, problems=failed[:20])
    result = {
        "correct": not failed,
        "attempted": ops,
        "failed": len(failed),
        "metrics": metrics,
    }
    record["result"] = result
    os.makedirs(OUT, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return record


def traced_part(args, gv, workload, meter, tracer, record, setup_scale):
    """Rounds with every timed operation run untraced and then traced
    (spans.PairedMeter): (per-layer metrics, raw and scaled traced round
    seconds, operations, problems of the failed ones)."""
    tracer.remove()
    setup_end = len(tracer.spans)
    setup_handles = tracer.take_handles()
    paired = spans.PairedMeter(meter, tracer)
    k = len(meter.samples)
    raw, scaled, ops, failed = measure(workload, gv, paired, args.seconds)
    round_scale = meter.scale(1.0, meter.samples[k:])
    handles = tracer.take_handles()
    n = len(raw)
    for key in handles:
        handles[key] = setup_handles[key] + handles[key] / n
    metrics = per_layer(tracer, setup_end, n, handles, setup_scale, round_scale)
    overhead = (sum(paired.traced) - sum(paired.untraced)) / n
    metrics["trace.overhead_s"] = metric(overhead, "s")
    record.update(untraced_op_scaled_s=paired.untraced, spans=tracer.spans,
                  not_traced=tracer.missing)
    return metrics, raw, scaled, ops, failed


def report(record) -> None:
    result = record["result"]
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  raw round seconds: median {statistics.median(record['round_raw_s']):.6g}"
          f" over {len(record['round_raw_s'])} rounds (unscaled)")
    print(f"  attempted {result['attempted']}  failed {result['failed']}")
    for problem in record["problems"][:5]:
        print(f"  failed: {'; '.join(problem)}")
    env = record["env"]
    print(f"  env: python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}, cpu {env['cpu']}")


def run_all(args) -> dict:
    """Every workload in its own process; metrics keyed workload.metric."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(done.stdout.rsplit("\n", 2)[0] + "\n")
        if done.returncode != 0:
            raise HarnessError(f"{name} exited with {done.returncode}: {done.stderr.strip()}")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = m
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=NAMES + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    try:
        if args.workload == "all":
            print(json.dumps(run_all(args)))
            return 0
        if args.setup_probe:
            print(json.dumps(run(args)))
            return 0
        os.makedirs(OUT, exist_ok=True)
        cache = tempfile.mkdtemp(prefix="cache-", dir=OUT)
        os.environ["GGSVER_CACHE_DIR"] = cache  # private and empty
        try:
            record = run(args)
        finally:
            shutil.rmtree(cache, ignore_errors=True)
    except (HarnessError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report(record)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
