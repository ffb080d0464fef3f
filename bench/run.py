"""Benchmark entry point for the omex exhaustive verifiers.

    python3 bench/run.py --workload offline-hall --seed 1 --seconds 10 --trace 0

Run from the root of a checkout that holds `src/omex`. The workload runs in
fresh interpreters (`bench/worker.py`), one client, one process, no
threads: first `SETUP_REPEATS` set-up-only runs (untraced runs only), then
the measured run. `setup_s` is the median set-up time over all of them.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. With `--trace 0` the metrics are the
end-to-end metrics of BENCHMARK.json, measured untraced; with `--trace 1`
they are its per-layer metrics, from a run whose jobs also execute inside
spans. The line before it records the environment: Python version, nproc,
commit, source digest and seed. Both also go to `.bench_out/`.

The run refuses to start (exit 2, no result) when OMEX_LIMITS is set, since
a limit override changes which jobs raise, or when the checkout has no
`src/omex`.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKER = os.path.join(ROOT, "bench", "worker.py")
SETUP_REPEATS = 4       # set-up-only runs before the measured run
TIME_LIMIT_S = 170.0    # whole run, set-up runs included


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "omex")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_worker(args, deadline: float, setup_only: bool) -> dict:
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=SRC)
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if os.environ.get("OMEX_LIMITS"):
        return fail("OMEX_LIMITS is set; limit overrides change which jobs "
                    "raise, so the benchmark runs only with the defaults")
    if not os.path.isfile(os.path.join(SRC, "omex", "__init__.py")):
        return fail(f"no omex source under {SRC}")
    os.makedirs(OUT_DIR, exist_ok=True)

    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        # set-up time is an end-to-end metric, so traced runs skip the repeats
        setups = [run_worker(args, deadline, True)
                  for _ in range(0 if args.trace else SETUP_REPEATS)]
        report = run_worker(args, deadline, False)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as e:
        return fail(str(e))
    setups.append(report)

    if args.trace:
        measured = dict(report["per_layer"])
        measured.update({f"work.{k}": v for k, v in report["work"].items()})
        measured["bench.failed_frac"] = report["failed"] / report["attempted"]
        wanted = spec["per_layer"]
    else:
        measured = {key: report[key] for key in
                    ("jobs_per_s", "job_p50_ms", "job_p90_ms", "peak_rss_mb")}
        measured["setup_s"] = statistics.median(r["setup_s"] for r in setups)
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        return fail(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
               for m in wanted}

    env = {"python": platform.python_version(),
           "nproc": len(os.sched_getaffinity(0)),
           "commit": commit(), "source": source_digest(),
           "workload": args.workload, "seed": args.seed,
           "seconds": args.seconds, "trace": args.trace}
    result = {"correct": report["failed"] == 0 and report["full_pass"],
              "attempted": report["attempted"], "failed": report["failed"],
              "metrics": metrics}
    record = {"env": env, "result": result,
              "setups_s": [[r["setup_s"], r["raw_setup_s"]] for r in setups],
              "detail": {k: v for k, v in report.items()
                         if k not in ("per_layer",)}}
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    for problem in report["problems"]:
        print(f"bench: {problem}", file=sys.stderr)
    print(json.dumps({"env": env, "samples": report.get("samples"),
                      "calibration_us": report.get("calibration_us")}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
