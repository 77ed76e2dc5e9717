#!/usr/bin/env python3
"""Record the expected per-cell reports the benchmark checks against.

Usage (from the repository root):
    python3 perfbench/record_expected.py [workload ...]

For every campaign seed in run.CAMPAIGN_SEEDS, runs one pass of each
workload at nproc threads and one at a single thread, requires the two
reports to be byte-identical (the campaign determinism contract), and
writes perfbench/expected/<workload>.json. Re-record only when a change
is meant to alter simulated outputs; a pure speed-up must leave these
files untouched.
"""

import json
import sys

import run


def main(argv):
    workloads = argv or list(run.WORKLOADS)
    binary = run.build()
    for workload in workloads:
        if workload not in run.WORKLOADS:
            run.die(f"unknown workload {workload!r}")
        reports = {}
        for seed in run.CAMPAIGN_SEEDS:
            wide = run.run_pass(binary, workload, seed, run.nproc())
            serial = run.run_pass(binary, workload, seed, 1)
            if wide is None or serial is None:
                run.die(f"{workload} seed {seed}: a pass aborted")
            if wide["report"] != serial["report"]:
                run.die(f"{workload} seed {seed}: {run.nproc()}-thread "
                        "report differs from the 1-thread report")
            reports[str(seed)] = wide["report"]
            print(f"{workload} seed {seed}: {len(wide['report'])} cells",
                  file=sys.stderr)
        path = run.HERE / "expected" / f"{workload}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(reports, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
