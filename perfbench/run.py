#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the root of a checkout.

    python3 perfbench/run.py --workload replay-4k --seed 1 --seconds 20 --trace 0

perfbench/ is a Go module of its own that uses the repository's packages
through a replace directive. This script builds it into .bench_build/,
keeping the Go build cache and temporary files there too so nothing is
written outside the checkout, then runs the binary with the same
arguments. Its last line of output is the JSON result. A failed build
exits non-zero without printing a result.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    out = os.path.join(root, ".bench_build")
    for d in ("gocache", "gomodcache", "gopath", "tmp", "config"):
        os.makedirs(os.path.join(out, d), exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(out, "gocache"),
        GOMODCACHE=os.path.join(out, "gomodcache"),
        GOPATH=os.path.join(out, "gopath"),
        GOTMPDIR=os.path.join(out, "tmp"),
        XDG_CONFIG_HOME=os.path.join(out, "config"),
        GOENV="off",
        GOWORK="off",
        GOFLAGS="-mod=readonly",
        GOPROXY="off",
        GOTOOLCHAIN="local",
    )
    binary = os.path.join(out, "perfbench")
    build = subprocess.run(
        ["go", "build", "-buildvcs=false", "-o", binary, "."], cwd=here, env=env
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1

    commit = "unknown"
    if os.path.isdir(os.path.join(root, ".git")):
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root)),
        )
        if rev.returncode == 0:
            commit = rev.stdout.strip()
    run = subprocess.run(
        [binary, "--commit", commit,
         "--spans-dir", os.path.join(out, "spans")] + sys.argv[1:],
        env=env,
    )
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
