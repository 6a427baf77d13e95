#!/usr/bin/env python3
"""Build and run the campaign benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <n> --trace <0|1>
    python3 perfbench/run.py --self-check

The benchmark is built from source in release mode into $CARGO_TARGET_DIR
(default `.bench_build`); build output goes to standard error.  The
benchmark's standard output -- a report whose last line is the result JSON
-- passes through unchanged, and its exit code is returned.  A failed build
exits non-zero without printing a result.
"""

import glob
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# The benchmark bounds its own measuring time; this only catches a hang.
RUN_TIMEOUT_S = 170
SCRATCH_ROOT = ".bench_tmp"


def remove_scratch(pid):
    """Delete what a killed benchmark process left in the scratch root."""
    for path in glob.glob(os.path.join(SCRATCH_ROOT, "*-%d" % pid)):
        shutil.rmtree(path, ignore_errors=True)
    try:
        os.rmdir(SCRATCH_ROOT)
    except OSError:
        pass


def main():
    target = os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    child = subprocess.Popen([os.path.join(target, "release", "perfbench")] + sys.argv[1:])
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: no result within %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        child.kill()
        child.wait()
        return 1
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        remove_scratch(child.pid)


if __name__ == "__main__":
    sys.exit(main())
