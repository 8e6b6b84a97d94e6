#!/usr/bin/env python3
"""Build the benchmark from this checkout and run one workload.

    python3 perfbench/run.py --workload irregular --seed 42 --seconds 20 --trace 0

Run it from the repository root. It compiles perfbench/ (a Go module
that imports the simulator from the parent directory) into
.bench_build/, keeping the Go build cache, module cache and tool
configuration there too, then replaces itself with the compiled binary,
which prints the result as its last stdout line. If the build fails --
for example because the simulator sources are missing -- it exits
non-zero without printing a result.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def find_go():
    goroot = os.environ.get("GOROOT")
    if goroot and os.path.isfile(os.path.join(goroot, "bin", "go")):
        return os.path.join(goroot, "bin", "go")
    return shutil.which("go")


def main():
    go = find_go()
    if go is None:
        sys.exit("perfbench: no go toolchain on PATH")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "go-cache"),
        "GOMODCACHE": os.path.join(BUILD, "go-mod"),
        "GOPATH": os.path.join(BUILD, "go-path"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "PPROF_TMPDIR": os.path.join(BUILD, "pprof"),
        "GOTMPDIR": os.path.join(BUILD, "tmp"),
        "TMPDIR": os.path.join(BUILD, "tmp"),
        "GOFLAGS": "-mod=mod",
        "GOTOOLCHAIN": "local",
        "GOENV": "off",
    })
    os.makedirs(env["TMPDIR"], exist_ok=True)
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run([go, "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        sys.exit("perfbench: build failed")
    args = [binary] + sys.argv[1:] + ["-workdir", os.path.join(BUILD, "work"), "-go", go]
    sys.stdout.flush()
    os.execve(binary, args, env)


if __name__ == "__main__":
    main()
