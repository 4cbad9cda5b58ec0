#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark from the repository root.

    python3 mfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 mfbench/run.py --self-test
    python3 mfbench/run.py --spread 10 --workload NAME [--seconds S]

The first form builds the `mfbench` package (into `$CARGO_TARGET_DIR`,
default `.bench_build`) and runs one workload. It prints a machine
fingerprint line, the benchmark's report line (exact-count fingerprint)
and, last, one JSON object with `correct`, `attempted`, `failed` and
`metrics`. Results whose machine fingerprints differ are not comparable.

`--self-test` runs each deterministic workload twice at a short length
and fails unless the exact-count fingerprints are identical.

`--spread N` runs a workload on N seeds and prints, per metric, the
median and the interquartile range as a share of the median.
"""

import argparse
import hashlib
import json
import os
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = pathlib.Path.cwd()
RUN_TIMEOUT_S = 175
DETERMINISTIC = ["core-faulted", "power-mc", "prove-cones"]
# The service allocates three net-count-sized vectors per compiled batch.
# Under glibc's adaptive mmap threshold, whether those come from fresh
# mmaps or a reused arena differs per process, which makes batch time
# bimodal (about 2x) from one run to the next. A fixed threshold (glibc's
# own default value) turns the adaptation off so every run behaves alike.
ALLOCATOR_ENV = {"MALLOC_MMAP_THRESHOLD_": "131072"}


def fail(msg, code=2):
    print(f"mfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        fail("run from the repository root: Cargo.toml and crates/ are missing")
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        fail("build failed", 3)
    return (ROOT / env["CARGO_TARGET_DIR"]) / "release" / "mfbench"


def source_rev():
    """The git revision, or a hash of the sources outside a git checkout."""
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if rev.returncode == 0:
            return rev.stdout.strip()
    except OSError:
        pass
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for top in (ROOT / "crates", HERE):
        files += [p for p in top.rglob("*") if p.is_file() and "target" not in p.parts]
    for p in sorted(f for f in files if f.is_file()):
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return "src-sha256:" + h.hexdigest()[:16]


def machine():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f
                        if l.startswith("model name")), cpu)
    except OSError:
        pass
    rustc = subprocess.run(["rustc", "-V"], capture_output=True, text=True).stdout.strip()
    return {"nproc": os.cpu_count(), "cpu": cpu, "rustc": rustc, "rev": source_rev(),
            "allocator_env": ALLOCATOR_ENV}


def run_once(binary, workload, seed, seconds, trace):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    env = dict(os.environ, **ALLOCATOR_ENV)
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s", 4)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    return proc.returncode, lines


def self_test(binary):
    ok = True
    for w in DETERMINISTIC:
        prints = []
        for _ in range(2):
            code, lines = run_once(binary, w, 7, 2, 0)
            if code != 0:
                fail(f"self-test: {w} failed its checks", 1)
            prints.append(json.loads(lines[-2])["fingerprint"])
        same = prints[0] == prints[1]
        ok &= same
        print(f"{w}: fingerprint {'identical' if same else 'DIFFERS'} "
              f"({len(prints[0])} entries)")
        if not same:
            for k in sorted(set(prints[0]) | set(prints[1])):
                if prints[0].get(k) != prints[1].get(k):
                    print(f"  {k}: {prints[0].get(k)} != {prints[1].get(k)}")
    sys.exit(0 if ok else 1)


def spread(binary, workload, seconds, n):
    values = {}
    for seed in range(1, n + 1):
        code, lines = run_once(binary, workload, seed, seconds, 0)
        if code != 0:
            fail(f"{workload} seed {seed} failed its checks", 1)
        for k, v in json.loads(lines[-1])["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    for k, vs in values.items():
        q1, med, q3 = statistics.quantiles(vs, n=4)
        share = (q3 - q1) / med if med else 0.0
        print(f"{workload:13s} {k:16s} median {med:14.6g}  iqr/median {share:7.4f}  "
              f"values {' '.join(f'{v:.6g}' for v in vs)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--spread", type=int, default=0)
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        fail("--workload is required")
    binary = build()
    if args.self_test:
        self_test(binary)
    if args.spread:
        spread(binary, args.workload, args.seconds, args.spread)
        return
    code, lines = run_once(binary, args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps({"machine": machine()}))
    for line in lines:
        print(line)
    sys.exit(code)


if __name__ == "__main__":
    main()
