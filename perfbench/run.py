#!/usr/bin/env python3
"""Build the HAMS simulator benchmark from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark is a cargo package of its own (perfbench/Cargo.toml) built in
release mode into $CARGO_TARGET_DIR, or .bench_build in the working directory
when that is unset. Its last line of standard output is one JSON object with
the run's metrics; the exit code is non-zero when the build or any of the
benchmark's correctness checks fails.
"""

import json
import os
import signal
import subprocess
import sys

# Knobs that change a platform's shape or the runners' threading; results are
# pinned to the defaults, so they are cleared for the benchmark process.
SHAPE_KNOBS = ("HAMS_SHARDS", "HAMS_DEVICES", "HAMS_CELL_THREADS", "HAMS_THREADS")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def run(cmd, env, timeout, stdout):
    """Run `cmd` in its own process group; on timeout kill the whole group."""
    proc = subprocess.Popen(cmd, env=env, stdout=stdout, start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    cleared = [k for k in SHAPE_KNOBS if k in os.environ]
    if cleared:
        print(f"perfbench: clearing {', '.join(cleared)}", file=sys.stderr)
    env = {k: v for k, v in os.environ.items() if k not in SHAPE_KNOBS}
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target

    build = ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", os.path.join(here, "Cargo.toml")]
    try:
        code, _ = run(build, env, BUILD_TIMEOUT_S, sys.stderr)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build did not finish: {e}", file=sys.stderr)
        return 1
    if code != 0:
        print(f"perfbench: build failed with exit code {code}", file=sys.stderr)
        return 1

    binary = os.path.join(target, "release", "hams-perfbench")
    try:
        code, out = run([binary] + sys.argv[1:], env, RUN_TIMEOUT_S, subprocess.PIPE)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: benchmark did not finish: {e}", file=sys.stderr)
        return 1
    sys.stdout.write(out)
    sys.stdout.flush()
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if code == 0 and not (isinstance(result, dict) and result.get("correct") is True):
        print("perfbench: the last line is not a correct JSON result", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
