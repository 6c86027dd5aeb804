"""Measurement machinery shared by every workload: spans, counters, stratified
sampling, the timed case loop and the run stamp.

Nothing here imports stackyrr, so `run.py` can time the package import as
part of set-up.
"""

from __future__ import annotations

import compileall
import hashlib
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

# Each run measures at least this many cases, so that p90 has ten samples
# beyond it; counters are totals over exactly this many cases, so they
# repeat for a given seed whatever the machine's speed.
MIN_CASES = 100
COUNTED_CASES = 100

GOLDEN = (5 ** 0.5 - 1) / 2


class CheckFailed(AssertionError):
    """A case's result disagreed with its independent route."""


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


class Case(NamedTuple):
    kind: str
    label: str
    # Runs the case through the tracer; may return a callable that verifies
    # the result after the timed loop (used where verifying costs more than
    # the case, as for CLI reports).
    run: Callable


class Stratum:
    """Candidates sorted by a cost proxy, sampled along a golden-ratio sequence.

    Round r takes the candidate at position frac(offset + r * golden) of the
    sorted list, so any run of consecutive rounds spreads evenly over the
    cost range.  The seed moves the offset and breaks ties in the sort, so
    it changes the inputs but not the mix of sizes.
    """

    def __init__(self, candidates, proxy, rng: random.Random):
        keyed = [(proxy(c), rng.random(), i) for i, c in enumerate(candidates)]
        keyed.sort()
        self.items = [candidates[i] for _, _, i in keyed]
        self.offset = rng.random()
        if not self.items:
            raise ValueError("empty stratum")

    def pick(self, r: int):
        pos = (self.offset + r * GOLDEN) % 1.0
        return self.items[int(pos * len(self.items))]


def case_rng(seed: int, *parts) -> random.Random:
    return random.Random(":".join(str(p) for p in (seed, *parts)))


# -- tracing ---------------------------------------------------------------


class NullTracer:
    """Untraced runs: calls go straight through, counters are dropped."""

    counting = False

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name, value):
        pass

    def peak(self, name, value):
        pass

    def begin_case(self, case_id, kind):
        pass

    def end_case(self):
        pass


NULL = NullTracer()


class Tracer:
    """Spans around every call the benchmark makes into stackyrr.

    A span is [name, start, end, parent index, case id]; spans stay in
    memory until the run writes them out.  Counters add up (or keep the
    maximum of) sizes seen at the same call sites.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.case_id = "setup"
        self.counters: dict[str, int] = {}
        self.failed: dict[str, int] = {}
        self.counting = True

    def _open(self, name, start):
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, start, start, parent, self.case_id])
        self.stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self.stack.pop()][2] = time.perf_counter()

    def call(self, name, fn, *args, **kwargs):
        self._open(name, time.perf_counter())
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.failed[name] = self.failed.get(name, 0) + 1
            raise
        finally:
            self._close()

    def add_span(self, name, start, end, parent):
        """Record a span measured elsewhere (inside a CLI child process)."""
        self.spans.append([name, start, end, parent, self.case_id])
        return len(self.spans) - 1

    def count(self, name, value):
        if self.counting:
            self.counters[name] = self.counters.get(name, 0) + value

    def peak(self, name, value):
        if self.counting:
            self.counters[name] = max(self.counters.get(name, 0), value)

    def begin_case(self, case_id, kind):
        self.case_id = case_id
        self._open(f"case.{kind}", time.perf_counter())

    def end_case(self):
        self._close()

    def self_times(self) -> list[float]:
        """Each span's duration minus the part its child spans cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def layer_totals(self, keep: Callable = None) -> dict[str, float]:
        """Self time by span name, over the spans whose case id passes `keep`.

        By default that is fixed work: set-up, the calibration pass and the
        first COUNTED_CASES cases, the same for every run of a seed however
        many cases fit in its time.
        """
        keep = keep or fixed_work
        totals: dict[str, float] = {}
        for span, own in zip(self.spans, self.self_times()):
            if keep(span[4]):
                totals[span[0]] = totals.get(span[0], 0.0) + own
        return totals


def fixed_work(case_id) -> bool:
    return not isinstance(case_id, int) or case_id < COUNTED_CASES


def module_shares(tracer: Tracer) -> dict[str, float]:
    """Share of measured case time spent in each stackyrr module.

    The remainder, under "benchmark", is the benchmark's own code plus
    library code it calls without a span (e.g. ClassFunction arithmetic).
    """
    totals = tracer.layer_totals(lambda case_id: isinstance(case_id, int))
    case_time = sum(v for k, v in totals.items() if k.startswith("case."))
    lib = {}
    for name, own in totals.items():
        if not name.startswith("case."):
            module = name.split(".")[0]
            lib[module] = lib.get(module, 0.0) + own
    total = case_time + sum(lib.values())
    shares = {m: v / total for m, v in sorted(lib.items())} if total else {}
    shares["benchmark"] = case_time / total if total else 0.0
    return shares


# -- the timed loop ----------------------------------------------------------


# Host speed.  On a shared host the same process runs up to 40% slower for
# seconds to minutes at a time (other tenants), which moved whole runs more
# than any choice of statistic could absorb.  So a fixed loop that files
# rows in a small dict, and never calls stackyrr, is timed right before
# every case, and each case's time is scaled by NOMINAL_LOOP_S / (that
# time), taken as a median over nearby cases (scaled_durations).  It then
# reads as if the host ran the loop in NOMINAL_LOOP_S (about its speed on
# a 2-vCPU Xeon when other tenants are quiet).  The loop runs in the
# workload process, on the CPU and caches the case will use: a helper
# process timing a loop tracked a fixed round of cases less than half as
# well.  Its rows are built once and it allocates nothing, so the
# program's heap, its fragmentation and the collector cannot move it.  A
# workload whose cases are mostly something else (cli: an interpreter
# start) names its own fixed work as `host_clock`.
CALIBRATION_ROWS = [(i & 255, (i + 1) & 255, (i * 7) & 255) for i in range(50_000)]
CALIBRATION_TABLE = dict.fromkeys(range(256))
NOMINAL_LOOP_S = 0.0022


def calibration_loop_s() -> float:
    table = CALIBRATION_TABLE
    t0 = time.perf_counter()
    for row in CALIBRATION_ROWS:
        table[row[2]] = row
    return time.perf_counter() - t0


# (time the fixed work, its time at nominal host speed)
LOOP_CLOCK = (calibration_loop_s, NOMINAL_LOOP_S)

# A case is scaled by the median of the scales measured before itself and
# before the SCALE_WINDOW cases on each side of it: three before it, two
# after.  Against one measurement per case, over the same runs (six seeds
# per workload), this cut the seed-to-seed spread of symmetric p50 from
# 0.16 to 0.04 and left the other metrics about where they were.
SCALE_WINDOW = 2


def host_scale(loop_times) -> float:
    """Multiply a time by this (divide a rate) to read it at nominal host speed."""
    return NOMINAL_LOOP_S / statistics.median(loop_times)


def scaled_durations(durations, scales) -> list[float]:
    """Each case's time at nominal host speed, by the scales measured around it."""
    return [d * statistics.median(scales[max(0, i - SCALE_WINDOW):i + SCALE_WINDOW + 1])
            for i, d in enumerate(durations)]


class LoopResult(NamedTuple):
    durations: list[float]  # every attempted case, in order
    scales: list[float]  # host scale, measured right before each case
    elapsed: float
    failures: list[str]
    child_peak_kib: int


def run_cases(workload, tracer, seconds: float, *, min_cases: int = MIN_CASES) -> LoopResult:
    """Run whole rounds of cases for `seconds`, and on until `min_cases` are done.

    Round 0 is the warm-up's, so timing starts at round 1.  Every case is
    attempted and timed; one that raises counts as failed and is reported,
    never dropped.  Reaching `min_cases` may extend a run to 2 * seconds + 5.
    """
    max_seconds = 2 * seconds + 5
    durations: list[float] = []
    scales: list[float] = []
    measure, nominal = getattr(workload, "host_clock", LOOP_CLOCK)
    failures: list[str] = []
    deferred = []
    start = time.perf_counter()
    r = 1
    while True:
        cases = workload.round(r)
        for case in cases:
            n = len(durations)
            if isinstance(tracer, Tracer):
                tracer.counting = n < COUNTED_CASES
            scales.append(nominal / measure())
            tracer.begin_case(n, case.kind)
            t0 = time.perf_counter()
            try:
                verify = case.run(tracer)
            except Exception as exc:  # noqa: BLE001 - a failed case is a result
                failures.append(f"{case.kind} {case.label}: {exc!r}")
                verify = None
            durations.append(time.perf_counter() - t0)
            tracer.end_case()
            if verify is not None:
                deferred.append((case, verify))
        now = time.perf_counter() - start
        if (now >= seconds and len(durations) >= min_cases) or now >= max_seconds:
            break
        r += 1
    for case, verify in deferred:
        try:
            verify()
        except Exception as exc:  # noqa: BLE001
            failures.append(f"{case.kind} {case.label}: {exc!r}")
    return LoopResult(durations, scales, now, failures,
                      getattr(workload, "child_peak_kib", 0))


def write_bytecode() -> None:
    """Write the .pyc files of stackyrr and of this benchmark, as an install would.

    Set-up and every CLI case then load bytecode, as a user's do, even where
    PYTHONDONTWRITEBYTECODE is set and imports would otherwise compile the
    source every time.
    """
    for directory in (SRC / "stackyrr", Path(__file__).resolve().parent):
        compileall.compile_dir(str(directory), maxlevels=0, quiet=1)


def warm_up(workload) -> None:
    """One untimed round, so imports, tables and lru caches are filled.

    A workload whose cases hit caches unevenly (the first unit sum at each
    order r pays for all its field inverses) fills them all here too.
    """
    for case in workload.round(0):
        verify = case.run(NULL)
        if verify is not None:
            verify()
    fill = getattr(workload, "fill_caches", None)
    if fill is not None:
        fill()


def p90(values) -> float:
    return statistics.quantiles(values, n=10)[8]


# -- child processes and the stamp --------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def interpreter_start_s(repeats: int = 3) -> float:
    """Median wall time of a bare interpreter start: the floor of a CLI case."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "stackyrr").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def stamp(workload: str, seed: int, interpreter_s: float) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "commit": _commit(),
        "src_sha256": _src_digest(),
        "cli.interpreter.s": interpreter_s,
    }
