#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload cold_read --seed 1 --seconds 10 --trace 0

Run it from the repository root. The binary is built into
$CARGO_TARGET_DIR (default: .bench_build); durable tenants' directories and
span dumps go under <target dir>/perfbench. Human-readable lines start with
'#'; the last line of standard output is the JSON result. The exit code is
non-zero when the build fails or a correctness gate fails.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "perfbench" / "Cargo.toml"
# A run measures for at most 60 s plus set-up; anything past this is a hang.
RUN_TIMEOUT_S = 170


def source_rev():
    """The git revision, or a digest of the sources outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        if out.returncode == 0 and out.stdout.strip():
            return "git:" + out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    files = sorted(ROOT.glob("crates/**/*.rs")) + sorted(ROOT.glob("crates/*/Cargo.toml"))
    files += sorted((ROOT / "perfbench" / "src").glob("*.rs"))
    for f in files:
        digest.update(str(f.relative_to(ROOT)).encode())
        digest.update(f.read_bytes())
    return "sha256:" + digest.hexdigest()[:12]


def main():
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(MANIFEST)],
        stdout=sys.stderr, env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    work = target / "perfbench"
    work.mkdir(parents=True, exist_ok=True)
    cmd = [str(target / "release" / "perfbench"), *sys.argv[1:],
           "--work-dir", str(work), "--source-rev", source_rev()]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
