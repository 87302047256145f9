#!/usr/bin/env python3
"""Build the IIM benchmark from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ingest_window --seed 1 \
        --seconds 20 --trace 0

The first run configures and builds a Release tree under
$CARGO_TARGET_DIR (default .bench_build) in the checkout; later runs only
rebuild what changed. Build output goes to stderr. Standard output is
the benchmark binary's: a context block, one CHECK line per output
check, the metrics, and the JSON result as the last line. The exit status
is the binary's (0 only when every check held), or 2 when the build
fails.

Extra arguments (--smoke, --perturb) are passed through to the binary;
perfbench/selftest.py uses them.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# One run must end well inside the 180 s a run is allowed.
RUN_TIMEOUT_S = 170
# Large enough for the first build in a fresh checkout.
BUILD_TIMEOUT_S = 850


def build_root():
    root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return root if root.is_absolute() else ROOT / root


def source_id():
    """The commit when the checkout is a git tree, else a digest of src/."""
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def checkout_env():
    """The environment for child processes: temporary files stay inside
    the checkout."""
    tmp = build_root() / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    return dict(os.environ, TMPDIR=str(tmp))


def build():
    """Configures (once) and builds the Release binary; returns its path."""
    bdir = build_root() / "perfbench"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (bdir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "-j", jobs,
                  "--target", "perfbench"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  env=checkout_env(), timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"run.py: {' '.join(cmd)}: {err}", file=sys.stderr)
            return None
        if done.returncode != 0:
            print(f"run.py: build step failed: {' '.join(cmd)}",
                  file=sys.stderr)
            return None
    return bdir / "perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args, passthrough = parser.parse_known_args()

    binary = build()
    if binary is None:
        return 2
    work_dir = build_root() / "work" / args.workload
    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace, "--work-dir", str(work_dir),
           "--source-id", source_id()] + passthrough
    try:
        return subprocess.run(cmd, env=checkout_env(),
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: {args.workload} exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
