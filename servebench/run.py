#!/usr/bin/env python3
"""Build and run the serving benchmark.

    python3 servebench/run.py --workload reads_bulk --seed 1 \
        --seconds 10 --trace 0

Run from the root of a checkout. The first run configures and builds
the libraries, exma-worker and the servebench binary under
$CARGO_TARGET_DIR (default .bench_build); later runs only check the
build is current. Every run gets a fresh, empty directory under
.bench_tmp/ for its index files, removed when the run ends. Traced runs
(--trace 1) leave their spans and exact counters in .bench_out/.

The last line of stdout is the servebench JSON result. Build output goes
to stderr. Exits non-zero without a result when the sources are missing,
the build fails, or servebench fails.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("reads_bulk", "seeds_locate", "stream_small")
# servebench's own time limits keep a run well inside this.
RUN_TIMEOUT_S = 175


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    return p.parse_args(argv)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                          os.path.join(ROOT, ".bench_build")))


def build():
    """Configure once, then bring servebench and the worker up to date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: no EXMA sources next to servebench/ "
                 "(expected %s)" % os.path.join(ROOT, "src"))
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "-j", "4",
                    "--target", "servebench", "exma-worker"],
                   stdout=sys.stderr, check=True)
    return os.path.join(out, "servebench")


def stop_group(proc):
    """Kill servebench's process group, workers included, and wait
    until none of it is left."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    for _ in range(100):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main(argv):
    args = parse_args(argv)
    # A terminated run still reaps its workers and removes its directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if "EXMA_FAULTS" in os.environ:
        sys.exit("run.py: refusing to run with EXMA_FAULTS set")
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("run.py: build failed: %s" % e)

    tmp_root = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=tmp_root)
    # Its own process group, so a timeout also takes down the workers.
    proc = subprocess.Popen(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", repr(args.seconds), "--trace", args.trace,
         "--work-dir", work, "--out-dir", os.path.join(ROOT, ".bench_out")],
        start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc)
        sys.exit("run.py: servebench exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        stop_group(proc)
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
