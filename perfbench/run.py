"""stackyrr benchmark: one seeded workload, end-to-end or traced.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 12 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's src/.  With --trace 0 the last stdout line is a JSON object whose
metrics are the end-to-end metrics of BENCHMARK.json; with --trace 1 they
are the per-layer metrics, and the spans are written to
perfbench/out/trace-<workload>-<seed>.json.  Earlier stdout lines carry the
run stamp and a readable summary.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import (  # noqa: E402
    NULL, OUT, ROOT, SRC, Tracer, calibration_loop_s, child_env, host_scale,
    interpreter_start_s, module_shares, p90, run_cases, scaled_durations, stamp, warm_up,
    write_bytecode,
)

# set-up is timed in this many fresh processes and the median reported
SETUP_REPEATS = 5

# The split of case time the workloads were chosen to show; a traced run
# reports each as met or not, and never fails on it.
EXPECTED_SPLIT = {
    "ladder": [("groupoidstack", ">", 0.5), ("chartheory", "==", 0.0),
               ("exactlinalg", "==", 0.0)],
    "characters": [("chartheory+exactlinalg", ">", 0.5), ("groupoidstack", "<", 0.2)],
    "cyclotomic": [("groupoidstack", "<", 0.2)],
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=12.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time the import and set-up of one workload, print it, exit")
    return p.parse_args(argv)


def setup_in_child(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, __file__, "--setup-only", "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, env=child_env(), timeout=170,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed in a child process:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def split_report(workload: str, shares: dict) -> list[str]:
    """Each expected share of case time that the traced run did not show."""
    misses = []
    for modules, op, bound in EXPECTED_SPLIT.get(workload, []):
        share = sum(shares.get(m, 0.0) for m in modules.split("+"))
        ok = {">": share > bound, "<": share < bound, "==": share == bound}[op]
        if not ok:
            misses.append(f"{modules} share {share:.3f}, expected {op} {bound}")
    return misses


def layer_values(spec: dict, totals: dict, counters: dict, interpreter_s: float) -> dict:
    """Each per-layer metric: a layer's self-time total, a counter, or the stamp's interpreter start."""
    values = {}
    for m in spec["per_layer"]:
        name = m["name"]
        if name == "cli.interpreter.s":
            values[name] = interpreter_s
        elif m["unit"] == "s":
            values[name] = totals.get(name[:-2], 0.0)
        else:
            values[name] = counters.get(name, 0)
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "stackyrr" / "__init__.py").is_file():
        sys.stderr.write(f"error: no stackyrr package under {SRC}; run inside a checkout\n")
        return 2
    sys.path.insert(0, str(SRC))

    if args.setup_only:
        start = time.perf_counter()
        import workloads

        workloads.WORKLOADS[args.workload](args.seed)
        setup_s = time.perf_counter() - start
        loops = [calibration_loop_s() for _ in range(5)]
        print(json.dumps({"setup_s": setup_s, "scale": host_scale(loops)}))
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        sys.stderr.write(f"error: unknown workload {args.workload!r}\n")
        return 2

    write_bytecode()
    info = stamp(args.workload, args.seed, interpreter_start_s())
    print("# stamp " + json.dumps(info), flush=True)
    setups = [] if args.trace else [setup_in_child(args.workload, args.seed)
                                    for _ in range(SETUP_REPEATS)]

    tracer = Tracer() if args.trace else NULL
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, tracer)
    warm_up(workload)
    workload.child_peak_kib = 0
    loop = run_cases(workload, tracer, args.seconds)
    attempted, failed = len(loop.durations), len(loop.failures)
    scaled = scaled_durations(loop.durations, loop.scales)
    cases_per_s = (attempted - failed) / sum(loop.durations)
    scaled_cases_per_s = (attempted - failed) / sum(scaled)

    print(f"# {attempted} cases in {loop.elapsed:.3f} s; "
          f"{failed} failed (error_rate {failed / attempted:.4f})")
    for line in loop.failures[:10]:
        print(f"# FAILED {line}")

    if args.trace:
        workloads.calibrate(tracer)
        totals = tracer.layer_totals()
        shares = module_shares(tracer)
        misses = split_report(args.workload, shares)
        values = layer_values(spec, totals, tracer.counters, info["cli.interpreter.s"])
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
        OUT.mkdir(parents=True, exist_ok=True)
        trace_path = OUT / f"trace-{args.workload}-{args.seed}.json"
        trace_path.write_text(json.dumps({
            "stamp": info, "cases": attempted, "traced_cases_per_s": cases_per_s,
            "layer_self_s": totals, "case_shares": shares, "split_mismatches": misses,
            "counters": tracer.counters, "layer_failed": tracer.failed,
            "failures": loop.failures,
            "span_fields": ["name", "start", "end", "parent", "case"], "spans": tracer.spans,
        }), encoding="utf-8")
        print(f"# traced cases_per_s {scaled_cases_per_s:.4f} at nominal host speed "
              f"({cases_per_s:.4f} unscaled); spans in {trace_path.relative_to(ROOT)}")
        print("# case time by module: " + ", ".join(f"{k} {v:.3f}" for k, v in shares.items()))
        print("# layer failures: " + (json.dumps(tracer.failed) if tracer.failed else "none"))
        print("# split: " + ("as expected" if not misses else "MISMATCH " + "; ".join(misses)))
    else:
        rss_kib = loop.child_peak_kib or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        raw = {
            "cases_per_s": cases_per_s,
            "case_p50_ms": statistics.median(loop.durations) * 1000,
            "case_p90_ms": p90(loop.durations) * 1000,
        }
        values = {
            "cases_per_s": scaled_cases_per_s,
            "case_p50_ms": statistics.median(scaled) * 1000,
            "case_p90_ms": p90(scaled) * 1000,
            "setup_s": statistics.median(c["setup_s"] * c["scale"] for c in setups),
            "peak_rss_mib": rss_kib / 1024,
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
        print(f"# host scale {statistics.median(loop.scales):.4f} (median over cases); unscaled: "
              + ", ".join(f"{k} {v:.4f}" for k, v in raw.items())
              + f", setup_s {statistics.median(c['setup_s'] for c in setups):.4f}")

    for name, m in metrics.items():
        print(f"# {name} = {m['value']} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
