#!/usr/bin/env python3
"""Build and run the fair-clique benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `rfc-perfbench` package (release, offline) against the crates in
this checkout, then runs one workload and passes its output through. The last
line of the output is the JSON result. `CARGO_TARGET_DIR` is honoured; the
default is `perfbench/target`. Exits non-zero without a result when the build
or the run fails.
"""

import argparse
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join("perfbench", "Cargo.toml")
# A run must end within 180 s; stop it a little before.
RUN_TIMEOUT_S = 175
SOURCE_DIRS = ("src", "crates", "shims", "perfbench")
SKIP_DIRS = {"target", ".git", ".bench_build", ".bench_work"}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def output_of(cmd):
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest():
    """SHA-256 over the Rust sources and manifests, for checkouts without git."""
    digest = hashlib.sha256()
    paths = ["Cargo.toml", "Cargo.lock"]
    for top in SOURCE_DIRS:
        for base, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs[:] = sorted(d for d in dirs if d not in SKIP_DIRS)
            for name in sorted(files):
                if name.endswith((".rs", ".toml", ".lock", ".py")):
                    paths.append(os.path.relpath(os.path.join(base, name), ROOT))
    for rel in paths:
        full = os.path.join(ROOT, rel)
        if os.path.isfile(full):
            digest.update(rel.encode())
            with open(full, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        cwd=ROOT,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail("build failed")
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join("perfbench", "target"))
    binary = os.path.join(ROOT, target, "release", "rfc-perfbench")

    env = dict(os.environ)
    commit = output_of(["git", "rev-parse", "HEAD"]) or "unknown"
    env["PERFBENCH_COMMIT"] = f"{commit} (sources sha256:{source_digest()})"
    env["PERFBENCH_RUSTC"] = output_of(["rustc", "--version"]) or "unknown"
    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
    ]
    try:
        run = subprocess.run(cmd, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    except OSError as e:
        fail(f"cannot start {binary}: {e}")
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
