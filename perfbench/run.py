#!/usr/bin/env python3
"""Build and run the round-level benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload lenet-apf --seed 1 --seconds 30 --trace 0

The Go program in this directory is built into .bench_build/, with the Go
build cache kept there as well, and then run with the given arguments from
the repository root. Its output and exit code are passed through; a failed
build exits non-zero without a result.
"""
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    src = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    # Keep every file the toolchain writes inside the build directory, and
    # never let it reach for the network or another toolchain.
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOMODCACHE": os.path.join(build, "gomodcache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOTMPDIR": os.path.join(build, "tmp"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOENV": "off",
        "GOFLAGS": "",
        "GOWORK": "off",
        "GOPROXY": "off",
        "GOSUMDB": "off",
        "GOTOOLCHAIN": "local",
    })
    os.makedirs(os.path.join(build, "tmp"), exist_ok=True)
    exe = os.path.join(build, "bin", "perfbench")
    built = subprocess.run(["go", "build", "-o", exe, "."], cwd=src, env=env, stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1
    return subprocess.run([exe] + sys.argv[1:], cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
