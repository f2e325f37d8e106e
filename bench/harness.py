"""Closed-loop benchmark harness: jobs, deadlines, tracing and metrics.

One client runs one job at a time (a closed loop), in whole cycles of the
workload's job mix, until ``seconds`` have passed and at least ``MIN_JOBS``
jobs ran.  A job's latency covers only its calls into the toolkit; the
check of its result against an oracle or a known value runs after it but
inside the wall time that ``jobs_per_s`` divides by.

Times are reported at a reference host speed.  The shared host this was
built on runs the same Python code up to 1.5 times slower from one minute
to the next, which no run length averages away.  So a fixed probe (the
workload's ``speed_probe``) is timed before every job and every set-up
build, and each time measured is multiplied by the probe's reference time
over the median of its last ``CAL_WINDOW`` timings.  Probe time is not
counted in any metric, and the raw times are printed beside the scaled
ones.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import math
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

ROOT = Path.cwd()
OUT_DIR = ROOT / ".bench_out"
MIN_JOBS = 100
SETUP_REPEATS = 5
CAL_WINDOW = 9
# A run stops starting jobs after this many seconds whatever else it wants,
# so that it ends well inside the three minutes a run may take.
HARD_STOP_S = 120.0

END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}

CLI_SUBCOMMANDS = ("witness", "convert", "size", "check-det", "prune", "canon",
                   "run", "equiv", "certify")

PER_LAYER = {
    "strings.self_s": "s", "strings.determinize_ms": "ms",
    "strings.minimize_ms": "ms", "strings.touchstone_states": "count",
    "trees.self_s": "s", "trees.iter_s": "s", "trees.enumerated": "count",
    "trees.nodes": "count",
    "automata.self_s": "s", "automata.accepts_s": "s",
    "automata.accepts_calls": "count", "automata.nodes_per_s": "1/s",
    "automata.check_det_ms": "ms", "automata.prune_ms": "ms",
    "convert.self_s": "s", "convert.dtadfa_to_sdta_ms": "ms",
    "convert.nta_to_sdta_ms": "ms", "convert.nta_to_dtadfa_ms": "ms",
    "convert.sdta_to_dtadfa_ms": "ms", "convert.out_horizontal": "count",
    "convert.bound_ok_ratio": "ratio",
    "analysis.self_s": "s", "analysis.equiv_bounded_s": "s",
    "analysis.canonical_sdta_ms": "ms", "analysis.sdta_isomorphic_ms": "ms",
    "analysis.canon_horizontal": "count", "analysis.deadline_misses": "count",
    "witnesses.self_s": "s", "witnesses.gen_ms": "ms",
    "witnesses.certify_ms": "ms", "witnesses.pairs": "count",
    "witnesses.oracle_calls": "count", "witnesses.oracle_s": "s",
    "witnesses.separated_per_call": "ratio",
    "docs.self_s": "s", "docs.render_ms": "ms", "docs.parse_ms": "ms",
    "docs.bytes": "bytes",
    "cli.self_s": "s", "cli.startup_ms": "ms",
    **{f"cli.{sub}_ms": "ms" for sub in CLI_SUBCOMMANDS},
    "cli.exit_mismatch": "count",
    "trace.jobs_per_s": "1/s", "trace.overhead_ratio": "ratio",
    "trace.spans_per_job": "count",
}

LAYERS = ("strings", "trees", "automata", "convert", "analysis", "witnesses",
          "docs", "cli")


class DeadlineExceeded(Exception):
    """A job ran past its workload's per-job deadline."""


class Wrong(Exception):
    """A job's output disagrees with its oracle or known value.

    ``kind`` is a short stable class of the mismatch (for example ``exit-1``
    or ``size``); it becomes the job's failure class.
    """

    def __init__(self, kind: str, detail: str = ""):
        super().__init__(f"{kind}: {detail}" if detail else kind)
        self.kind = kind


def expect(cond: bool, kind: str, detail: str = ""):
    if not cond:
        raise Wrong(kind, detail)


def interpreter_work():
    """Fixed interpreter work of the toolkit's kind: tuples, dicts,
    frozensets and sorting.  Takes about 2 ms at the reference speed."""
    counts: dict = {}
    for i in range(4000):
        key = (i % 61, i % 7)
        counts[key] = counts.get(key, 0) + 1
        frozenset((i & 15, i & 3))
    sorted(map(str, counts))


def bare_interpreter():
    """Start and stop a Python interpreter that imports nothing of the
    toolkit.  Takes about 50 ms at the reference speed."""
    subprocess.run([sys.executable, "-c", "pass"], check=True)


@dataclass
class Job:
    """One unit of closed-loop work.

    ``work`` is timed; ``check`` compares its result with an oracle or a
    known value and returns a seed-independent fingerprint for the digest,
    or raises ``Wrong``.  ``probe`` names the failure class of a known
    defect the job exercises; such a failure still counts as failed, but
    does not make the run incorrect.  ``extra`` runs after the check in
    traced cycles only, outside the job's latency.
    """

    key: str
    work: Callable[["Tracer"], Any]
    check: Callable[[Any], str]
    probe: str | None = None
    extra: Callable[["Tracer"], None] | None = None


@dataclass
class Workload:
    name: str
    deadline_s: float
    setup: Callable[[random.Random, "Tracer", dict], Any]
    cycle: Callable[[Any], list]
    cleanup: Callable[[Any], None] | None = None
    # times the host's speed: in-process work for in-process jobs, a bare
    # interpreter start for jobs that are child processes
    speed_probe: Callable[[], None] = interpreter_work
    speed_ref_s: float = 0.002


class Tracer:
    """Spans recorded from the benchmark's own calls into each layer.

    A span is ``[name, start, end, parent index, job id, error]``; names are
    ``<module>.<function>``.  Spans and counters live in memory and are
    written out once at the end.  When off, ``span`` costs one attribute
    test and records nothing.
    """

    def __init__(self, on: bool):
        self.on = on
        self.spans: list = []
        self.counts: dict = {}
        self.values: dict = {}
        self.job = None
        self._stack: list = []

    def span(self, name: str):
        return self._span(name) if self.on else contextlib.nullcontext()

    @contextlib.contextmanager
    def _span(self, name):
        idx = len(self.spans)
        rec = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None,
               self.job, False]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield
        except BaseException:
            rec[5] = True
            raise
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def count(self, name: str, n=1):
        if self.on:
            self.counts[name] = self.counts.get(name, 0) + n

    def record(self, key: str, value):
        """An exact count for one job key; repeats of the key overwrite it."""
        if self.on:
            self.values[key] = value


@contextlib.contextmanager
def deadline(seconds: float):
    """Raise DeadlineExceeded in the running job once ``seconds`` pass."""

    def fire(signum, frame):
        raise DeadlineExceeded()

    old = signal.signal(signal.SIGALRM, fire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


class HostSpeed:
    """Tracks the host's current speed by timing a fixed probe whose
    reference time is ``ref_s``."""

    def __init__(self, probe, ref_s: float):
        self.probe = probe
        self.ref_s = ref_s
        self.samples: list = []

    def sample(self) -> float:
        """Time the probe once; return the current scale factor."""
        t = time.perf_counter()
        self.probe()
        self.samples.append(time.perf_counter() - t)
        return self.scale()

    def scale(self) -> float:
        """Multiply a measured time by this to get it at the reference speed."""
        return self.ref_s / statistics.median(self.samples[-CAL_WINDOW:])


def nodes(t) -> int:
    """Node count of a tree, iteratively (trees may be very deep)."""
    total, stack = 0, [t]
    while stack:
        n = stack.pop()
        total += 1
        stack.extend(n.children)
    return total


def load_toolkit():
    """Import uta from ./src of the current checkout, and only from there."""
    src = ROOT / "src"
    if not (src / "uta" / "__init__.py").is_file():
        sys.exit(f"bench: no toolkit sources at {src}; run from the root of a checkout")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import uta
    if Path(uta.__file__).resolve().parent != (src / "uta").resolve():
        sys.exit(f"bench: imported uta from {uta.__file__}, not from {src}")
    return uta


def src_line_count() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((ROOT / "src").rglob("*.py")))


@dataclass
class Outcome:
    key: str
    latency_s: float  # raw; a failed job counts as the deadline
    scale: float  # HostSpeed.scale() when the job ran
    fail: str | None
    probe: str | None
    traced: bool


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 min_jobs: int = MIN_JOBS, known: dict | None = None) -> dict:
    """Set up, run the closed loop and return every metric and the digest.

    ``known`` overrides known values by name (the self-test uses it to
    plant a wrong expectation).  Set-up is timed ``SETUP_REPEATS`` times and
    its median, plus the import of the toolkit, is ``setup_s``.
    """
    # one CPU for the calibration, the jobs and their child processes, so
    # that the speed measured is the speed the work gets
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    t0 = time.perf_counter()
    load_toolkit()
    import workloads
    import_s = time.perf_counter() - t0
    wl = workloads.WORKLOADS[name]
    speed = HostSpeed(wl.speed_probe, wl.speed_ref_s)
    import_scale = speed.sample()

    setup_tracer = Tracer(trace)
    builds = []  # (raw seconds, scale)
    fixtures = None
    for _ in range(SETUP_REPEATS):
        if fixtures is not None and wl.cleanup:
            wl.cleanup(fixtures)
        setup_tracer.spans.clear()
        scale = speed.sample()
        t = time.perf_counter()
        fixtures = wl.setup(random.Random(seed), setup_tracer, dict(known or {}))
        builds.append((time.perf_counter() - t, scale))
    setup_raw = import_s + statistics.median(b for b, _ in builds)
    setup_s = import_s * import_scale + statistics.median(b * k for b, k in builds)
    gc.collect()
    gc.freeze()  # the fixtures are the harness's, not work for the jobs' collector

    tracer = Tracer(trace)
    tracer.spans.extend(setup_tracer.spans)  # job id None marks set-up spans
    outcomes: list[Outcome] = []
    fingerprints: dict = {}
    wall = {True: 0.0, False: 0.0}  # at the reference speed
    raw_wall = 0.0
    ok_by_mode = {True: 0, False: 0}
    start = time.perf_counter()
    try:
        cycle_no = 0
        while True:
            elapsed = time.perf_counter() - start
            if elapsed >= HARD_STOP_S or (
                    cycle_no > 0 and elapsed >= seconds and len(outcomes) >= min_jobs):
                break
            traced = trace and cycle_no % 2 == 0
            tracer.on = traced
            for job in wl.cycle(fixtures):
                scale = speed.sample()
                t = time.perf_counter()
                outcome = _run_job(job, tracer, wl.deadline_s, len(outcomes), traced,
                                   fingerprints, scale)
                dt = time.perf_counter() - t
                raw_wall += dt
                wall[traced] += dt * scale
                outcomes.append(outcome)
                ok_by_mode[traced] += outcome.fail is None
                if time.perf_counter() - start >= HARD_STOP_S:
                    break
            cycle_no += 1
    finally:
        gc.unfreeze()
        tracer.on = trace
        if wl.cleanup:
            wl.cleanup(fixtures)
    result = _summarise(wl, seed, trace, (setup_s, setup_raw),
                        (wall[True] + wall[False], raw_wall), outcomes, fingerprints)
    if trace:
        result["per_layer"] = per_layer_metrics(tracer, outcomes, wall, ok_by_mode,
                                                statistics.median(k for _, k in builds))
        result["spans"] = tracer.spans
    return result


def _run_job(job: Job, tracer: Tracer, deadline_s: float, job_id: int,
             traced: bool, fingerprints: dict, scale: float) -> Outcome:
    tracer.job = job_id
    fail = None
    # the deadline holds at the reference speed, stretched at most 4 times
    deadline_raw = deadline_s / max(scale, 0.25)
    gc.collect()  # each job pays for its own garbage, not its predecessor's
    t = time.perf_counter()
    try:
        with tracer.span("bench.job"), deadline(deadline_raw):
            result = job.work(tracer)
        latency = time.perf_counter() - t
        fp = job.check(result)
        if fingerprints.setdefault(job.key, fp) != fp:
            fail = "unsteady-output"
    except DeadlineExceeded:
        fail = "deadline"
    except Wrong as e:
        fail = e.kind
    except Exception as e:  # any other exception fails the job, not the run
        fail = type(e).__name__
    if fail is not None:
        latency = deadline_raw  # slower than any job that met the deadline
        fingerprints.setdefault(job.key, f"failed {fail}")
    if traced and job.extra is not None:
        job.extra(tracer)
    tracer.job = None
    return Outcome(job.key, latency, scale, fail, job.probe, traced)


def _percentile(sorted_vals, q):
    return sorted_vals[max(0, math.ceil(q * len(sorted_vals)) - 1)]


def digest(fingerprints: dict) -> str:
    text = "\n".join(f"{k}={fingerprints[k]}" for k in sorted(fingerprints))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def _summarise(wl, seed, trace, setup, loop, outcomes, fingerprints) -> dict:
    """End-to-end metrics at the reference speed; ``setup`` and ``loop`` are
    (scaled, raw) pairs of seconds, and the raw figures are kept beside."""
    attempted = len(outcomes)
    failed = [o for o in outcomes if o.fail]
    ok = attempted - len(failed)
    unexpected = sorted({f"{o.key}: {o.fail}" for o in failed if o.fail != o.probe})
    times = {}
    for kind, (setup_s, loop_s), lat in (
            ("scaled", (setup[0], loop[0]), sorted(o.latency_s * o.scale for o in outcomes)),
            ("raw", (setup[1], loop[1]), sorted(o.latency_s for o in outcomes))):
        times[kind] = {
            "setup_s": setup_s,
            "jobs_per_s": ok / loop_s,
            "job_p50_ms": _percentile(lat, 0.5) * 1000,
            "job_p90_ms": _percentile(lat, 0.9) * 1000,
        }
    end_to_end = {**times["scaled"], "ok_ratio": ok / attempted,
                  "peak_rss_mb": peak_rss_mb(wl.name)}
    result = {
        "workload": wl.name, "seed": seed, "trace": trace,
        "deadline_s": wl.deadline_s,
        "attempted": attempted, "failed": len(failed),
        "fail_ratio": len(failed) / attempted,
        "failures": sorted({f"{o.key}: {o.fail}" for o in failed}),
        "unexpected_failures": unexpected,
        "correct": not unexpected,
        "digest": digest(fingerprints),
        "end_to_end": end_to_end,
        "raw": times["raw"],
        "host_speed": statistics.median(o.scale for o in outcomes),
    }
    return result


def per_layer_metrics(tr: Tracer, outcomes, wall, ok_by_mode, setup_scale) -> dict:
    """Per-layer figures from the traced cycles.

    ``*_s`` are seconds per traced job, ``*_ms`` medians per call over jobs
    that succeeded, counts are per traced job unless they are exact sums
    over distinct jobs, and ``<layer>.self_s`` is span time minus the time
    its child spans cover, all at the reference speed.
    ``witnesses.gen_ms`` is the witness generation inside one set-up.  ``trace.overhead_ratio`` is the untraced cycles'
    ``jobs_per_s`` over the traced cycles' in the same run.
    """
    spans = [[name, s * k, e * k, parent, job, err]
             for name, s, e, parent, job, err in tr.spans
             for k in [setup_scale if job is None else outcomes[job].scale]]
    ok_job = {i for i, o in enumerate(outcomes) if not o.fail}
    n_jobs = max(1, sum(1 for o in outcomes if o.traced))
    child_time = [0.0] * len(spans)
    for rec in spans:
        if rec[3] is not None:
            child_time[rec[3]] += rec[2] - rec[1]
    self_by_name: dict = {}
    total_by_name: dict = {}
    calls: dict = {}
    setup_ms = 0.0
    for i, (name, s, e, parent, job, err) in enumerate(spans):
        if job is None:
            if name.startswith("witnesses."):
                setup_ms += (e - s) * 1000
            continue
        self_by_name[name] = self_by_name.get(name, 0.0) + (e - s) - child_time[i]
        total_by_name[name] = total_by_name.get(name, 0.0) + (e - s)
        if not err and job in ok_job:
            calls.setdefault(name, []).append((e - s) * 1000)

    def per_job_s(name, by=self_by_name):
        return by.get(name, 0.0) / n_jobs

    def med(*names):
        vals = [v for n in names for v in calls.get(n, ())]
        return statistics.median(vals) if vals else 0.0

    def cnt(name):
        return tr.counts.get(name, 0) / n_jobs

    def exact(prefix):
        return sum(v for k, v in tr.values.items() if k.startswith(prefix))

    def ratio(num, den):
        d = tr.counts.get(den, 0)
        return tr.counts.get(num, 0) / d if d else 0.0

    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(v for k, v in self_by_name.items()
                                   if k.split(".")[0] == layer) / n_jobs
    rate = {mode: ok_by_mode[mode] / wall[mode] if wall[mode] else 0.0 for mode in wall}
    accepts_s = sum(self_by_name.get(n, 0.0) for n in ("automata.accepts", "automata.run"))
    m.update({
        "strings.determinize_ms": med("strings.determinize"),
        "strings.minimize_ms": med("strings.minimize_dfa"),
        "strings.touchstone_states": exact("touchstone:"),
        "trees.iter_s": per_job_s("trees.iter_trees"),
        "trees.enumerated": cnt("trees.enumerated"),
        "trees.nodes": cnt("trees.nodes"),
        "automata.accepts_s": accepts_s / n_jobs,
        "automata.accepts_calls": cnt("automata.accepts_calls"),
        "automata.nodes_per_s": (tr.counts.get("automata.nodes", 0) / accepts_s
                                 if accepts_s else 0.0),
        "automata.check_det_ms": med("automata.check_semantic_determinism"),
        "automata.prune_ms": med("automata.prune_reachable"),
        "convert.dtadfa_to_sdta_ms": med("convert.dtadfa_to_sdta"),
        "convert.nta_to_sdta_ms": med("convert.nta_to_sdta"),
        "convert.nta_to_dtadfa_ms": med("convert.nta_to_dtadfa"),
        "convert.sdta_to_dtadfa_ms": med("convert.sdta_to_dtadfa"),
        "convert.out_horizontal": exact("convert:"),
        "convert.bound_ok_ratio": ratio("convert.bound_ok", "convert.reports"),
        "analysis.equiv_bounded_s": per_job_s("analysis.equiv_bounded", total_by_name),
        "analysis.canonical_sdta_ms": med("analysis.canonical_sdta"),
        "analysis.sdta_isomorphic_ms": med("analysis.sdta_isomorphic"),
        "analysis.canon_horizontal": exact("canon:"),
        "analysis.deadline_misses": len({o.key for o in outcomes if o.fail == "deadline"}),
        "witnesses.gen_ms": setup_ms,
        "witnesses.certify_ms": med("witnesses.certify_horizontal_bound",
                                    "witnesses.certify_vertical_bound"),
        "witnesses.pairs": cnt("witnesses.pairs"),
        "witnesses.oracle_calls": cnt("witnesses.oracle_calls"),
        "witnesses.oracle_s": per_job_s("witnesses.oracle"),
        "witnesses.separated_per_call": ratio("witnesses.pairs", "witnesses.oracle_calls"),
        "docs.render_ms": med("docs.render"),
        "docs.parse_ms": med("docs.parse"),
        "docs.bytes": ratio("docs.bytes", "docs.parsed"),
        "cli.startup_ms": med("cli.startup"),
        **{f"cli.{sub}_ms": med(f"cli.{sub}") for sub in CLI_SUBCOMMANDS},
        "cli.exit_mismatch": len({o.key for o in outcomes
                                  if o.fail and o.fail.startswith("exit-")}),
        "trace.jobs_per_s": rate[True],
        "trace.overhead_ratio": rate[False] / rate[True] if rate[True] else 0.0,
        "trace.spans_per_job": sum(1 for s in spans if s[4] is not None) / n_jobs,
    })
    assert set(m) == set(PER_LAYER), set(m) ^ set(PER_LAYER)
    return m


def write_trace(result: dict, tracer_spans: list):
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{result['workload']}-{result['seed']}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"result": result,
                   "spans": [dict(zip(("name", "start", "end", "parent", "job", "error"), s))
                             for s in tracer_spans]}, fh)
    return path


def report(result: dict) -> None:
    """Print each metric with its unit, then the one-line JSON result."""
    spans = result.pop("spans", None)
    meta = (f"meta python {platform.python_version()} nproc {os.cpu_count()} "
            f"src_lines {src_line_count()}")
    print(f"workload {result['workload']} seed {result['seed']} trace {int(result['trace'])} "
          f"deadline_s {result['deadline_s']} (per job, at the reference speed)")
    print(meta)
    metrics = result.get("per_layer") if result["trace"] else result["end_to_end"]
    units = PER_LAYER if result["trace"] else END_TO_END
    for name, value in metrics.items():
        raw = result["raw"].get(name) if not result["trace"] else None
        print(f"{name} {value:.6g} {units[name]}" + (f" (raw {raw:.6g})" if raw else ""))
    print(f"host_speed {result['host_speed']:.4g} (times are scaled by it to the reference speed)")
    print(f"fail_ratio {result['fail_ratio']:.6g} ratio "
          f"({result['failed']} failed of {result['attempted']} attempted)")
    for f in result["failures"]:
        tag = "unexpected" if f in result["unexpected_failures"] else "known-defect"
        print(f"failed-job {tag} {f}")
    print(f"digest {result['workload']} {result['digest']}")
    if spans is not None:
        print(f"trace-file {write_trace(result, spans).relative_to(ROOT)}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
