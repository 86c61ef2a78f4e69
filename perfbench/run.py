"""Offline benchmark for textgcn: end-to-end metrics per workload, per-layer with --trace 1.

    python3 perfbench/run.py --workload rank-catalog --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py            # all workloads, each in a fresh process

A run makes whole rounds of the workload for about ``--seconds``: it
starts another round only while the rounds so far, plus one more of their
mean length, fit in that time, and it makes at least four. Phase times
are the upper quartile over the run's rounds and ``recommend_p95_ms`` is
the median over rounds of each round's 95th percentile (see README.md
for why). The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. With ``--trace 1`` rounds alternate untraced
and traced; the traced ones give the per-layer metrics, and the gap
between the two kinds of round gives ``trace.overhead_s``. The program is
imported from ``src/`` of the checkout this file sits in, never from
anywhere else.
"""

import os

# One BLAS thread: set before numpy loads OpenBLAS, so every run is single-threaded.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from tracing import Tracer, layer_metrics, median_metrics, percentile  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"
MIN_ROUNDS = 4
# Phase times are reported at this quantile of a run's rounds. On a shared
# host the rounds that ran while neighbours contended for the core and for
# memory recur in every run; the fastest rounds depend on whether the
# neighbours happened to idle, so a run's median moves far more between
# runs than its upper quartile does (README.md, "Steadiness and bounds").
PHASE_QUANTILE = 0.75


def import_program():
    """Import textgcn from this checkout's src/; refuse any other copy."""
    package = ROOT / "src" / "textgcn"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no textgcn sources at {package}")
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "src"))
    import textgcn
    import textgcn.cli  # noqa: F401 - the embed workload calls textgcn.cli.main
    if Path(textgcn.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported textgcn from {textgcn.__file__}, not {package}")
    return textgcn


def units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def run_round(workload, tracer) -> dict:
    workload.start_round()
    served = len(workload.latencies)
    if tracer is not None:
        tracer.install()
    try:
        tic = time.perf_counter()
        workload.setup()
        set_up = time.perf_counter()
        workload.main()
        mained = time.perf_counter()
        workload.followup()
        done = time.perf_counter()
        workload.serve()
    finally:
        if tracer is not None:
            tracer.uninstall()
    p95_ms = percentile([1e3 * s for s in workload.latencies[served:]], 0.95)
    return {"setup_s": set_up - tic, "main_s": mained - set_up, "followup_s": done - mained,
            "recommend_p95_ms": p95_ms,
            "digest": workload.digest(), "traced": tracer is not None}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    tg = import_program()
    work = WORK / f"{name}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = WORKLOADS[name](tg, work, seed)
    rounds, tracers, checks = [], [], []
    try:
        workload.prepare()
        start = time.perf_counter()
        while True:
            tracer = Tracer(tg) if trace and len(rounds) % 2 == 1 else None
            try:
                rounds.append(run_round(workload, tracer))
            except Exception:  # noqa: BLE001 - reported as a failed operation
                traceback.print_exc()
                checks.append(("every round completed", False, "see traceback"))
                break
            if tracer is not None:
                tracers.append(tracer)
            elapsed = time.perf_counter() - start
            if len(rounds) >= MIN_ROUNDS and elapsed * (len(rounds) + 1) / len(rounds) > seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if rounds and not checks:
            try:
                checks += workload.checks()
            except Exception as err:  # noqa: BLE001 - a check that cannot run fails
                traceback.print_exc()
                checks.append(("checks ran", False, repr(err)))
            digests = {r["digest"] for r in rounds}
            checks.append(("artifacts byte-identical across rounds, traced or not",
                           len(digests) == 1, f"{len(rounds)} rounds, {len(digests)} digest(s)"))
    finally:
        workload.close()
        shutil.rmtree(work, ignore_errors=True)

    plain = [r for r in rounds if not r["traced"]]
    latencies_ms = [1e3 * s for s in workload.latencies]
    if trace:
        for number, tracer in enumerate(tracers):
            for span in tracer.spans:
                span["traced_round"] = number
        WORK.mkdir(exist_ok=True)
        trace_path = WORK / f"trace-{name}-seed{seed}.jsonl"
        with open(trace_path, "w", encoding="utf-8") as fh:
            for tracer in tracers:
                for span in tracer.spans:
                    fh.write(json.dumps(span, sort_keys=True) + "\n")
        metrics = median_metrics([layer_metrics(t.spans, t.missing) for t in tracers])
        traced_main = statistics.median(r["main_s"] for r in rounds if r["traced"])
        metrics["trace.overhead_s"] = traced_main - statistics.median(r["main_s"] for r in plain)
    else:
        metrics = {
            "setup_s": percentile([r["setup_s"] for r in plain], PHASE_QUANTILE),
            "peak_rss_mb": peak_rss_mb,
            "main_s": percentile([r["main_s"] for r in plain], PHASE_QUANTILE),
            "followup_s": percentile([r["followup_s"] for r in plain], PHASE_QUANTILE),
            "recommend_p95_ms": statistics.median(r["recommend_p95_ms"] for r in plain),
        }
    return {"rounds": rounds, "requests": len(latencies_ms), "checks": checks,
            "recommend_p50_ms": percentile(latencies_ms, 0.50),
            "correct": bool(checks) and all(ok for _, ok, _ in checks),
            "attempted": workload.attempted, "failed": workload.failed, "metrics": metrics}


def report(name: str, outcome: dict, unit_of: dict[str, str]) -> dict:
    """Print the human-readable table; return the result line's object."""
    print(f"== {name}: {len(outcome['rounds'])} rounds, {outcome['requests']} recommend requests, "
          f"attempted {outcome['attempted']}, failed {outcome['failed']}")
    for number, r in enumerate(outcome["rounds"]):
        print(f"  round {number}{' (traced)' if r['traced'] else ''}: setup {r['setup_s']:.3f} s, "
              f"main {r['main_s']:.3f} s, follow-up {r['followup_s']:.3f} s")
    for label, ok, detail in outcome["checks"]:
        print(f"  [{'ok' if ok else 'FAIL'}] {label}: {detail}")
    print(f"  recommend p50 {outcome['recommend_p50_ms']:.4g} ms (not a gated metric: "
          "it moves with the host's load, README.md)")
    metrics = {}
    for metric, value in outcome["metrics"].items():
        unit = unit_of.get(metric, "")
        print(f"  {metric:32s} {value:>16.6g} {unit}")
        metrics[metric] = {"value": value, "unit": unit}
    return {"correct": outcome["correct"], "attempted": outcome["attempted"],
            "failed": outcome["failed"], "metrics": metrics}


def run_all(args) -> int:
    """Every workload in its own process; the last line maps workload -> result."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"== {name}: exited {proc.returncode}")
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results, sort_keys=True))
    ok = all(r["correct"] and r["failed"] == 0 for r in results.values())
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default=None,
                        help="rank-catalog, head-train or embed-cache (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload is None:
        return run_all(args)
    unit_of = units()
    outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(report(args.workload, outcome, unit_of)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
