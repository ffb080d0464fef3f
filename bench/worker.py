"""One workload in a fresh interpreter: set-up, then the closed timed loop.

`run.py` starts this script; by hand it is only useful for debugging:

    PYTHONPATH=src python3 bench/worker.py --workload offline-hall --seed 1 \
        --seconds 10 --trace 0 [--setup-only]

It prints one JSON object on stdout. One client issues the seeded job list
in order, each job only after the previous one returned, cycling through
the list until `--seconds` have passed and at least one full pass is done.
With `--trace 1` every job runs twice, once bare and once inside spans, in
alternating order, so the tracing overhead is measured on identical work.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import tracing  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
REFERENCE = os.path.join(ROOT, "bench", "reference.json")
DIGEST_HEX = 6          # hex digits kept per job in the reference digests
LOOP_CAP_S = 120.0      # the loop stops here even before a full pass
CAL_REF_S = 113e-6      # mean calibration loop time, reference machine
CAL_WINDOW = 5          # calibration samples on each side of a job
SETUP_CAL_REPEATS = 200


def job_digest(outcome) -> str:
    text = json.dumps(outcome, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:DIGEST_HEX]


def load_reference(workload: str, seed: int) -> dict | None:
    """{"jobs": per-job digests concatenated, "work": first-pass counters}
    recorded by record.py for this seed, or None when it was not recorded."""
    with open(REFERENCE, encoding="utf-8") as fh:
        doc = json.load(fh)
    return doc["workloads"].get(workload, {}).get(str(seed))


class Ledger:
    """Outcome bookkeeping: checks, first-pass digests, reference digests."""

    def __init__(self, jobs, reference):
        self.jobs = jobs
        self.digests = [None] * len(jobs)
        self.expected = None
        if reference is not None:
            hexes = reference["jobs"]
            self.expected = [hexes[i:i + DIGEST_HEX]
                             for i in range(0, len(hexes), DIGEST_HEX)]
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def execute(self, index: int, timed_call):
        """Run job `index` through timed_call(job.run) -> (outcome or
        exception, seconds); check it; return (seconds, outcome)."""
        job = self.jobs[index % len(self.jobs)]
        result, seconds = timed_call(job.run)
        self.attempted += 1
        problem = None
        if isinstance(result, Exception):
            problem = f"raised {type(result).__name__}: {result}"
        else:
            try:
                problem = job.check(result)
            except Exception as e:  # a broken output can break its check
                problem = f"check raised {type(e).__name__}: {e}"
        if problem is None:
            problem = self._digest_problem(index % len(self.jobs), result)
        if problem is not None:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(f"job {index % len(self.jobs)} "
                                     f"({job.kind}): {problem}")
        return seconds, result

    def _digest_problem(self, k: int, outcome):
        d = job_digest(outcome)
        if self.digests[k] is None:
            self.digests[k] = d
        elif self.digests[k] != d:
            return "outcome differs from an earlier pass"
        if self.expected is not None:
            if len(self.expected) != len(self.jobs):
                return "reference digest covers a different job list"
            if self.expected[k] != d:
                return f"outcome digest {d} differs from the reference {self.expected[k]}"
        return None


def bare_call(fn):
    t0 = time.perf_counter()
    try:
        result = fn()
    except Exception as e:  # a failing job is counted, not fatal
        result = e
    return result, time.perf_counter() - t0


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _calibration_work():
    d, acc = {}, 0
    for i in range(400):
        k = (i * 7919) & 63
        d[k] = d.get(k, 0) + (i * i) % 11
        acc += len(d) ^ i
    return acc


def calibration_s(repeats: int = 1) -> float:
    """Mean time of a fixed stdlib-only loop that never touches omex."""
    t0 = time.perf_counter()
    for _ in range(repeats):
        _calibration_work()
    return (time.perf_counter() - t0) / repeats


def reference_units(latencies, cal_times) -> list[float]:
    """Each latency divided by how much slower than the reference machine
    the CPU ran around it.

    Other tenants of a shared machine slow the whole process down, by up to
    40% and for anything from milliseconds to minutes. The calibration loop
    runs after every job, and the mean of its times over the
    `CAL_WINDOW` executions on either side of a job follows the slowdown
    that job saw; NOTES.md has the measurements."""
    n = len(cal_times)
    prefix = [0.0]
    for c in cal_times:
        prefix.append(prefix[-1] + c)
    out = []
    for i, seconds in enumerate(latencies):
        lo, hi = max(0, i - CAL_WINDOW), min(n, i + CAL_WINDOW + 1)
        out.append(seconds * CAL_REF_S * (hi - lo) / (prefix[hi] - prefix[lo]))
    return out


def timed_loop(jobs, seconds, execute):
    """Cycle through the job list, calling execute(i) for the i-th
    execution, until `seconds` have passed and one full pass is done.
    Returns the number of executions."""
    start = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - start
        if (i >= len(jobs) and elapsed >= seconds) or elapsed >= LOOP_CAP_S:
            return i
        execute(i)
        i += 1


def latency_metrics(latencies, cal_times, pass_length) -> dict:
    """Throughput and percentiles over one pass of the job list, each job
    at the median of its executions' latencies in reference units. A
    25-second run executes every job about four (offline-hall) to thirty
    (codes-roundtrip) times; the median drops the executions that a
    slowdown hit and the calibration missed."""
    ref = reference_units(latencies, cal_times)
    per_job = [statistics.median(ref[k::pass_length])
               for k in range(min(pass_length, len(ref)))]
    return {"jobs_per_s": len(per_job) / sum(per_job),
            "job_p50_ms": statistics.median(per_job) * 1e3,
            "job_p90_ms": percentile(per_job, 90) * 1e3,
            "raw_jobs_per_s": len(latencies) / sum(latencies),
            "calibration_us": statistics.fmean(cal_times) * 1e6,
            "samples": len(latencies)}, ref


def run_untraced(jobs, ledger, seconds):
    lat, cal = [], []

    def execute(i):
        lat.append(ledger.execute(i, bare_call)[0])
        cal.append(calibration_s())

    executions = timed_loop(jobs, seconds, execute)
    metrics, ref = latency_metrics(lat, cal, len(jobs))
    bands = {}
    for i, seconds_ref in enumerate(ref):
        bands.setdefault(jobs[i % len(jobs)].kind, []).append(seconds_ref * 1e3)
    return {**metrics, "full_pass": executions >= len(jobs),
            "kinds_ms": {kind: {"n": len(v), "p10": percentile(v, 10),
                                "median": statistics.median(v),
                                "p90": percentile(v, 90)}
                         for kind, v in sorted(bands.items())}}


def run_traced(jobs, ledger, seconds, tracer):
    bare, traced, cal, skipped = [], [], [], [0]

    def execute(i):
        kind = jobs[i % len(jobs)].kind

        def traced_call(fn):
            tracer.install()
            try:
                return bare_call(lambda: tracer.job_span(i, kind, fn))
            finally:
                tracer.uninstall()

        for with_spans in ((False, True) if i % 2 == 0 else (True, False)):
            s, outcome = ledger.execute(
                i, traced_call if with_spans else bare_call)
            (traced if with_spans else bare).append(s)
            if with_spans and isinstance(outcome, dict):
                skipped[0] += outcome.get("skipped", 0)
        cal.append(calibration_s())

    executions = timed_loop(jobs, seconds, execute)
    per_layer, work = tracing.layer_metrics(tracer, len(jobs))
    untraced, _ = latency_metrics(bare, cal, len(jobs))
    per_layer.update({
        "fingerprint.two_cond.skipped": skipped[0],
        "trace.overhead_frac": 1.0 - sum(bare) / sum(traced),
        "bench.jobs": len(bare),
        "bench.calibration_us": untraced["calibration_us"],
        "raw.jobs_per_s": untraced["raw_jobs_per_s"],
    })
    return per_layer, work, executions >= len(jobs)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--record", action="store_true",
                    help="load no reference digests (used by record.py)")
    args = ap.parse_args(argv)

    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import omex.cli  # noqa: F401  (imports every omex module)
    import_s = time.perf_counter() - t0
    import omex
    if not os.path.abspath(omex.__file__).startswith(SRC + os.sep):
        print(f"bench: imported omex from {omex.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads

    workdir = os.path.join(OUT_DIR, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    os.chdir(workdir)
    try:
        tracer = tracing.Tracer() if args.trace else None
        if tracer:
            tracer.install()
        try:
            jobs = workloads.BUILDERS[args.workload](args.seed)
        finally:
            if tracer:
                tracer.uninstall()
        setup_s = time.perf_counter() - STARTED
        factor = calibration_s(SETUP_CAL_REPEATS) / CAL_REF_S
        report = {"setup_s": setup_s / factor, "raw_setup_s": setup_s,
                  "import_s": import_s}
        if not args.setup_only:
            reference = (None if args.record
                         else load_reference(args.workload, args.seed))
            ledger = Ledger(jobs, reference)
            if tracer:
                per_layer, work, full = run_traced(jobs, ledger, args.seconds,
                                                   tracer)
                per_layer["cli.import_s"] = import_s
                if reference is not None and reference["work"] != work:
                    ledger.failed += 1
                    ledger.problems.append(
                        f"work counters {work} differ from the reference "
                        f"{reference['work']}")
                report.update(per_layer=per_layer, work=work, full_pass=full)
                tracer.dump(os.path.join(
                    OUT_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl"))
            else:
                report.update(run_untraced(jobs, ledger, args.seconds))
            report.update(
                attempted=ledger.attempted, failed=ledger.failed,
                problems=ledger.problems, pass_length=len(jobs),
                digests="".join(d or "-" * DIGEST_HEX for d in ledger.digests),
                peak_rss_mb=resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
