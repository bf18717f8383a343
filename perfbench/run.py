"""vecauto benchmark: one workload, one seed, one process, one thread.

    python3 perfbench/run.py --workload catalog_verify --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``. The load is a closed loop with one client: each job starts
when the previous one ends. With ``--trace 0`` the jobs run back to
back for ``--seconds`` and the last stdout line holds the end-to-end
metrics. With ``--trace 1`` the set-up runs once traced, then one pass
over the seed's job list runs untraced and one traced; the last line
holds the per-layer metrics, and the spans go to ``.perfbench/``.
Every job's outcome is checked against an oracle after timing; the
line before the result is the run record (interpreter, cores,
platform, failures by name).

Times in the end-to-end metrics are reference seconds: each measured
wall time is scaled by the host's speed at that moment, taken from a
fixed calibration kernel timed before every job (see ``calibrate``).
The run record also holds the unscaled wall-clock figures.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
# the highest percentile with at least ten jobs beyond it at the job
# counts a run makes (see perfbench/README.md)
TAIL_PERCENTILE = {"catalog_verify": 85, "random_nondet": 90, "long_words": 80}
MAX_REPORTED_FAILURES = 10
# A shared host runs this process at speeds that differ by up to half
# for tens of seconds at a time, and every job slows alike. The
# calibration kernel, timed before each job, measures that speed; a
# wall time t measured where the kernel took c seconds is reported as
# t * CAL_REF_S / c reference seconds, the time on a host where the
# kernel takes CAL_REF_S. c is the median of the samples just before and
# just after the job and of the median over the CAL_WINDOW samples on
# either side: the two neighbours follow a change of speed that lasts
# only a few jobs, and the window breaks a tie when one was preempted.
CAL_REF_S = 0.001
CAL_WINDOW = 10
CAL_SAMPLES = 11


class Crash:
    """Outcome of a job that raised: an unexpected exception."""

    def __init__(self, exc):
        self.text = f"{type(exc).__name__}: {exc}"

    def __eq__(self, other):
        return isinstance(other, Crash) and other.text == self.text


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import the program from this checkout's src/; None when absent."""
    package = ROOT / "src" / "vecauto"
    if not (package / "__init__.py").is_file():
        return None
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import vecauto

    if Path(vecauto.__file__).resolve().parent != package.resolve():
        return None
    from perfbench import workloads

    return workloads


def run_job(job):
    try:
        return job.run()
    except Exception as exc:  # noqa: BLE001 -- any exception is a failed job
        return Crash(exc)


def check_job(job, outcome):
    from perfbench.workloads import Tally

    if isinstance(outcome, Crash):
        return Tally(0, 0, 0, f"unexpected exception {outcome.text[:200]}")
    return job.check(outcome)


def calibrate() -> float:
    """Wall seconds for a fixed piece of pure-Python exact arithmetic,
    the same kind of work the program does; independent of the program,
    so its time moves only with the host's speed."""
    t0 = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(1, i)
    return time.perf_counter() - t0


def host_seconds() -> float:
    """Median of CAL_SAMPLES calibration runs."""
    return statistics.median(calibrate() for _ in range(CAL_SAMPLES))


def to_reference(wall, host):
    """Scale wall times by the calibration time around each: host[i] was
    taken just before job i, host[i + 1] just after it."""
    scaled = []
    for i, dt in enumerate(wall):
        window = statistics.median(host[max(0, i - CAL_WINDOW): i + CAL_WINDOW + 1])
        after = host[i + 1] if i + 1 < len(host) else window
        local = statistics.median([host[i], window, after])
        scaled.append(dt * CAL_REF_S / local)
    return scaled


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[min(len(ordered), rank) - 1]


# imports the program and the workloads in a fresh interpreter and
# prints the wall seconds the imports took
IMPORT_PROBE = ("import sys, time; sys.path[:0] = sys.argv[1:]; t0 = time.perf_counter(); "
                "import perfbench.workloads; print(time.perf_counter() - t0)")


def import_time():
    """Median wall and reference seconds of the imports a user pays,
    each measured in its own fresh interpreter, SETUP_REPEATS times."""
    wall = []
    scaled = []
    for _ in range(SETUP_REPEATS):
        before = host_seconds()
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src"), str(ROOT)],
                             capture_output=True, text=True, check=True, timeout=120)
        dt = float(out.stdout)
        wall.append(dt)
        scaled.append(dt * CAL_REF_S / ((before + host_seconds()) / 2))
    return statistics.median(wall), statistics.median(scaled)


def set_up(workloads, name, seed, workdir):
    """Build the workload SETUP_REPEATS times; returns (jobs, median
    wall seconds, median reference seconds)."""
    wall = []
    scaled = []
    jobs = None
    for _ in range(SETUP_REPEATS):
        jobs = None
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        gc.collect()
        before = host_seconds()
        t0 = time.perf_counter()
        jobs = workloads.SETUP[name](seed, workdir)
        dt = time.perf_counter() - t0
        host = (before + host_seconds()) / 2
        wall.append(dt)
        scaled.append(dt * CAL_REF_S / host)
    gc.collect()
    return jobs, statistics.median(wall), statistics.median(scaled)


def summarize(records):
    """Tally checked (job, outcome, seconds) records."""
    from perfbench.workloads import Tally

    total = Tally(0, 0, 0)
    failures = []
    for job, outcome, _ in records:
        tally = check_job(job, outcome)
        if tally.error:
            failures.append(f"{job.name}: {tally.error}")
        total.queries += tally.queries
        total.letters += tally.letters
        total.undecided += tally.undecided
    return total, failures


def measure(jobs, seconds):
    """Closed loop over whole passes of the job list, at least one, until
    `seconds` of wall time have passed; whole passes keep the job mix the
    same in every run. Each job starts on a collected heap, as a fresh
    CLI process would, so one job's garbage is not timed in the next.
    Returns the (job, outcome, wall seconds) records and, for each, the
    calibration time taken just before it."""
    records = []
    host = []
    start = time.perf_counter()
    while True:
        for job in jobs:
            gc.collect()
            host.append(calibrate())
            t0 = time.perf_counter()
            outcome = run_job(job)
            records.append((job, outcome, time.perf_counter() - t0))
        if time.perf_counter() - start >= seconds:
            return records, host


def one_pass(jobs, tracer=None):
    records = []
    start = time.perf_counter()
    for index, job in enumerate(jobs):
        if tracer is not None:
            tracer.start_job(index)
        gc.collect()
        t0 = time.perf_counter()
        outcome = run_job(job)
        records.append((job, outcome, time.perf_counter() - t0))
    if tracer is not None:
        tracer.finish()
    return records, time.perf_counter() - start


def run_record(args, extra):
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "load": "single process, single thread, closed loop, one client",
    }
    record.update(extra)
    return record


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        workloads = import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    if workloads is None:
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload not in workloads.SETUP:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"know {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = ROOT / ".perfbench" / f"work-{args.workload}-{os.getpid()}"
    try:
        if args.trace:
            result, record = traced_run(workloads, args, workdir)
        else:
            import_s, import_ref_s = import_time()
            jobs, build_s, build_ref_s = set_up(workloads, args.workload, args.seed, workdir)
            result, record = timed_run(workloads, args, jobs, import_ref_s + build_ref_s)
            record["wall_setup_s"] = import_s + build_s
            record["wall_import_s"] = import_s
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(run_record(args, record)))
    print(json.dumps(result))
    return 0


def _result(records, total, failures, metrics):
    return {
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def _ratios(records, total, failures):
    return {
        "undecided_ratio": total.undecided / total.queries if total.queries else 0.0,
        "failed_ratio": len(failures) / len(records),
    }


def per_job_median(values, distinct):
    """Median over passes of each distinct job's values."""
    return [statistics.median(values[key::distinct]) for key in range(distinct)]


def timed_run(workloads, args, jobs, setup_s):
    records, host = measure(jobs, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    total, failures = summarize(records)
    # every distinct job ran once per pass; its time is the median of its
    # runs, in reference seconds
    wall = [dt for _, _, dt in records]
    times = per_job_median(to_reference(wall, host), len(jobs))
    wall_times = per_job_median(wall, len(jobs))
    passes = len(records) // len(jobs)
    work_s = sum(times)
    p = TAIL_PERCENTILE[args.workload]
    metrics = {
        "setup_s": (setup_s, "s"),
        "queries_per_s": (total.queries / passes / work_s, "1/s"),
        "letters_per_s": (total.letters / passes / work_s, "1/s"),
        "job_s_p50": (statistics.median(times), "s"),
        "job_s_tail": (percentile(times, p), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    record = {
        "jobs": len(records),
        "distinct_jobs": len(jobs),
        "passes": passes,
        "measured_s": sum(wall),
        "calibration_s_median": statistics.median(host),
        "calibration_s_quartiles": statistics.quantiles(host, n=4) if len(host) > 1 else host,
        "wall_queries_per_s": total.queries / passes / sum(wall_times),
        "wall_job_s_p50": statistics.median(wall_times),
        "wall_job_s_tail": percentile(wall_times, p),
        "tail_percentile": p,
        "jobs_beyond_tail": sum(dt > metrics["job_s_tail"][0] for dt in times),
        "queries": total.queries,
        "letters": total.letters,
        **_ratios(records, total, failures),
        "known_defects": workloads.known_defect_probes(),
        "failures": failures[:MAX_REPORTED_FAILURES],
    }
    return _result(records, total, failures, metrics), record


def traced_run(workloads, args, workdir):
    """Set up once under the tracer (spans of job -1), then one untraced
    and one traced pass over the same jobs."""
    from perfbench.tracer import Tracer

    tracer = Tracer()
    workdir.mkdir(parents=True)
    tracer.install()
    try:
        jobs = workloads.SETUP[args.workload](args.seed, workdir)
    finally:
        tracer.uninstall()
    plain, plain_s = one_pass(jobs)
    tracer.install()
    try:
        traced, traced_s = one_pass(jobs, tracer)
    finally:
        tracer.uninstall()
    total, failures = summarize(traced)
    for (job, a, _), (_, b, _) in zip(plain, traced):
        if a != b:
            failures.append(f"{job.name}: traced outcome differs from untraced")
    probes = workloads.known_defect_probes()
    metrics = tracer.metrics()
    metrics.update({name: (value, "ratio") for name, value in
                    _ratios(traced, total, failures).items()})
    metrics["known_defects.wrong"] = (sum(p["wrong"] for p in probes), "count")
    metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
    spans = ROOT / ".perfbench" / f"spans-{args.workload}-{args.seed}.bin"
    tracer.write(spans)
    record = {
        "jobs": len(traced),
        "untraced_s": plain_s,
        "traced_s": traced_s,
        "spans": len(tracer.span_start),
        "spans_file": str(spans.relative_to(ROOT)),
        "known_defects": probes,
        "failures": failures[:MAX_REPORTED_FAILURES],
    }
    return _result(traced, total, failures, metrics), record


if __name__ == "__main__":
    sys.exit(main())
