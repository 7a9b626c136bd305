#!/usr/bin/env python3
"""Build and run the PSP end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the `perfbench` package (release)
into $CARGO_TARGET_DIR (default `.bench_build`), then runs it with the same
arguments plus the toolchain version and a digest of the sources, so every
result records what produced it. Cargo's output goes to stderr; the
benchmark's stdout passes through unchanged and its last line is the
result object. A traced run also writes its spans to
`<target dir>/perfbench-trace-<workload>-<seed>.jsonl`.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print(f"perfbench/run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def arg(argv, flag):
    if flag in argv:
        i = argv.index(flag)
        if i + 1 < len(argv):
            return argv[i + 1]
    return None


def source_digest():
    """SHA-256 over the sources the benchmark builds (the checkout it runs
    in need not be a git repository, so no commit id is available)."""
    h = hashlib.sha256()
    for top in ("crates", "vendor", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".rs", ".toml")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def main():
    argv = sys.argv[1:]
    for var in ("PSP_SIM_ENGINE", "PSP_EQUIV_TRIALS", "PSP_VALIDATE"):
        if var in os.environ:
            fail(f"refusing to run with {var} set")
    if not os.path.isdir(os.path.join(ROOT, "crates")):
        fail("no crates/ next to perfbench/: run from a full checkout")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr, env=env,
    )
    if build.returncode != 0:
        fail("build failed")
    rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True)
    extra = ["--rustc", rustc.stdout.strip() or "unknown", "--source", source_digest()]
    if arg(argv, "--trace") == "1" and "--trace-out" not in argv:
        name = f"perfbench-trace-{arg(argv, '--workload')}-{arg(argv, '--seed')}.jsonl"
        extra += ["--trace-out", os.path.join(target, name)]
    exe = os.path.join(target, "release", "psp-perfbench")
    sys.stdout.flush()
    sys.exit(subprocess.run([exe] + argv + extra, env=env).returncode)


if __name__ == "__main__":
    main()
