#!/usr/bin/env python3
"""Build the perfbench program from source and run it.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload replay_mirza --seed 1 --seconds 20 --trace 0

The Go build cache, module cache and binary live under .bench_build/ in the
checkout (or $CARGO_TARGET_DIR when set), so nothing is read or written
outside it. All arguments are passed to the program; see perfbench/README.md.
"""
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()


def call(cmd, timeout, **kwargs):
    """Run cmd to completion; kill it and wait for it on timeout or signal."""
    proc = subprocess.Popen(cmd, **kwargs)
    try:
        return proc.wait(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def main():
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    out = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(out, "gocache"),
        GOPATH=os.path.join(out, "gopath"),
        GOMODCACHE=os.path.join(out, "gopath", "pkg", "mod"),
        XDG_CONFIG_HOME=os.path.join(out, "config"),
        GOENV="off",
        GOTOOLCHAIN="local",
        GOFLAGS="",
        GOPROXY="off",
    )
    binary = os.path.join(out, "perfbench")
    try:
        if call(["go", "build", "-o", binary, "."], 840, cwd=HERE, env=env) != 0:
            print("perfbench: build failed", file=sys.stderr)
            return 1
        return call([binary] + sys.argv[1:], 170)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
