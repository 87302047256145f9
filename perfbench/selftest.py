#!/usr/bin/env python3
"""Self-tests of the repository benchmark. Run from the checkout root:

    python3 perfbench/selftest.py

1. Every workload runs in a tiny smoke configuration, untraced and traced,
   passes its output gate, and prints exactly the metrics BENCHMARK.json
   declares for that mode, each with its unit.
2. A deliberately perturbed answer makes the output gate fail: the run
   exits non-zero and reports correct = false.
3. Two traced runs with the same seed print the same answer digests
   (stream and batch core) and the same deterministic per-layer counters.

Exits 0 when every test passes.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ["ingest_window", "impute_heavy", "durable_monitored"]
# Per-layer counters that depend only on the op sequence, never on timing.
# Not listed: index rebuild outcomes and hold times (background builder),
# and persist.snapshots_written, persist.replayed_records and
# persist.recovery_nonbitwise: a due snapshot waits while the previous
# background write is still in flight, so where snapshots fall depends
# on disk timing.
DETERMINISTIC = [
    "order_core.orders_scanned_per_ingest",
    "order_core.orders_admitted_per_ingest",
    "order_core.backfills_per_evict",
    "order_core.downdates",
    "order_core.downdate_fallbacks",
    "order_core.models_solved_per_impute",
    "order_core.fit_reuse_ratio",
    "index.compactions",
    "persist.snapshot_bytes",
    "quality.probes",
    "check.refit_nonbitwise",
    "core.chosen_ell_mean",
]

failures = []


def run(workload, trace, seed=3, extra=()):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
           "--smoke", *extra]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    digest = [l.split()[1] for l in lines
              if l.startswith(("digest ", "core_digest "))]
    return done.returncode, result, digest, done.stdout + done.stderr


def expect(ok, what, detail=""):
    print(f"{'PASS' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        failures.append(what)
        if detail:
            print(detail[-3000:])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    traced = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, result, digest, out = run(workload, trace)
            ok = code == 0 and result is not None and result["correct"]
            expect(ok, f"smoke {workload} trace={trace} passes its gate", out)
            if not ok:
                continue
            metrics = result["metrics"]
            unknown = [m for m in metrics if m not in declared[trace]]
            missing = [m for m in declared[trace] if m not in metrics]
            units = [m for m, v in metrics.items()
                     if m in declared[trace] and v["unit"] != declared[trace][m]]
            expect(not unknown and not missing and not units,
                   f"smoke {workload} trace={trace} prints exactly the "
                   f"declared metrics with their units",
                   f"unknown {unknown} missing {missing} units {units}")
            expect(result["attempted"] >= 1 and result["failed"] == 0,
                   f"smoke {workload} trace={trace} counts its ops")
            if trace == 1:
                traced[workload] = (digest, metrics)

        code, result, _, out = run(workload, 0, extra=["--perturb"])
        expect(code != 0 and result is not None and not result["correct"],
               f"perturbed {workload} answer fails the gate", out)

        code, result, digest, out = run(workload, 1)
        if code != 0 or workload not in traced:
            expect(False, f"repeat {workload} traced run", out)
            continue
        first_digest, first = traced[workload]
        expect(len(digest) == 2 and digest == first_digest,
               f"repeat {workload} answer digests are identical",
               f"{first_digest} vs {digest}")
        metrics = result["metrics"]
        differ = [m for m in DETERMINISTIC
                  if m not in first or m not in metrics or
                  first[m]["value"] != metrics[m]["value"]]
        expect(not differ,
               f"repeat {workload} per-layer counters are identical",
               f"{differ}")

    print(f"{len(failures)} failed" if failures else "all self-tests passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
