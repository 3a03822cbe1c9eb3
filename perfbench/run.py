#!/usr/bin/env python3
"""Build and run the E-Ant simulator benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S] [--trace 0|1]

Builds the `perfbench` package (release profile, offline) into
$CARGO_TARGET_DIR, or `.bench_build` when unset, then runs one workload
for the time budget. Build output goes to stderr; the benchmark's report
goes to stdout and ends with one JSON line. The exit code is the
benchmark's: 0 when every correctness check passed.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def tree_digest():
    """A digest of the sources the benchmark builds and reads, standing in
    for a commit id where the tree is not a git checkout."""
    digest = hashlib.sha256()
    paths = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for top in ("crates", "scenarios", "perfbench"):
        paths.extend(sorted(p for p in (ROOT / top).rglob("*") if p.is_file() and "target" not in p.parts))
    for path in paths:
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def commit_id():
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
        head = out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        head = "none"
    return f"{head} tree:{tree_digest()}"


def rustc_version(env):
    try:
        out = subprocess.run(["rustc", "--version"], capture_output=True, text=True, timeout=30, env=env)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2015)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    args = parser.parse_args()

    for needed in ("crates", "scenarios", "Cargo.toml"):
        if not (ROOT / needed).exists():
            print(f"run.py: {ROOT / needed} is missing; the benchmark builds the "
                  "simulator from the repository's sources", file=sys.stderr)
            return 2

    env = dict(os.environ)
    # Every cell runs on one thread; the experiments crate's worker-pool
    # override has nothing to act on and is dropped so it cannot mislead.
    env.pop("EANT_THREADS", None)
    target = Path(env.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = Path.cwd() / target
    env["CARGO_TARGET_DIR"] = str(target)

    build = ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", str(HERE / "Cargo.toml")]
    try:
        built = subprocess.run(build, stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"run.py: build failed: {err}", file=sys.stderr)
        return 3
    if built.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 3

    binary = target / "release" / "perfbench"
    command = [
        str(binary), "--root", str(ROOT),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", args.trace,
        "--rustc", rustc_version(env), "--commit", commit_id(),
    ]
    sys.stdout.flush()
    try:
        return subprocess.run(command, env=env, timeout=RUN_TIMEOUT_S).returncode or 0
    except subprocess.TimeoutExpired:
        print(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s and was stopped", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
