#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload fig7a --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The Go build cache, temporary files and
the binary go under .bench_build/ in the checkout. The last line of
standard output is the result object; see perfbench/README.md.
"""
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def source_digest():
    """SHA-256 over the checkout's files, so results from a checkout
    that is not a git repository still name the code they measured."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            if os.path.islink(path) or not os.path.isfile(path):
                continue
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()


def commit():
    # Only the checkout's own repository: git would otherwise search the
    # parent directories and report an unrelated commit.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOTMPDIR": os.path.join(BUILD, "tmp"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOMODCACHE": os.path.join(BUILD, "gopath", "pkg", "mod"),
        # The go command keeps its settings and telemetry counters under
        # the user config directory; keep them in the checkout too.
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOFLAGS": "",
        "GOWORK": "off",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "CGO_ENABLED": "0",
    })
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    env["PERFBENCH_COMMIT"] = commit()
    env["PERFBENCH_SOURCE_SHA"] = source_digest()
    sys.stdout.flush()
    run = subprocess.run([binary, "-root", ROOT] + sys.argv[1:], cwd=ROOT, env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
