"""Record the reference digests the benchmark checks outcomes against.

    python3 bench/record.py

For every workload of BENCHMARK.json and each of the seeds 0-31 it runs one traced pass of the job list in a
fresh worker, with no reference loaded, and stores per job the first
`DIGEST_HEX` hex digits of the SHA-256 of its canonical outcome (witness,
`checked`, `sequences`, game `exists` and nodes, attempts, fingerprint
fields, CLI report bytes), plus the pass's exact work counters. A run that
later produces a different outcome for a recorded seed counts that job as
failed.

Record again only when a change is meant to alter outcomes, and say why in
the change; an optimization must leave every digest as it is.
"""

import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REFERENCE = os.path.join(ROOT, "bench", "reference.json")
WORKER = os.path.join(ROOT, "bench", "worker.py")
SEEDS = range(32)


def record_one(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", "1", "--record"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
        env=dict(os.environ, PYTHONHASHSEED="0",
                 PYTHONPATH=os.path.join(ROOT, "src")))
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: {proc.stderr}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    if report["failed"] or not report["full_pass"]:
        raise RuntimeError(f"{workload} seed {seed}: {report['problems']}")
    return {"jobs": report["digests"], "work": report["work"]}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    tasks = [(w, s) for w in names for s in SEEDS]
    # two workers at a time; timing does not matter here
    with ThreadPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(lambda t: record_one(*t), tasks))
    doc = {"format": 1, "workloads": {}}
    for (workload, seed), entry in zip(tasks, results):
        doc["workloads"].setdefault(workload, {})[str(seed)] = entry
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(tasks)} (workload, seed) pairs into {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
