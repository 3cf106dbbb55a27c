#!/usr/bin/env python3
"""Build and run the repo benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (the topobench library from
this checkout's sources plus the measuring program) into $CARGO_TARGET_DIR
(default .bench_build), then runs one workload. The last line of stdout is
the JSON result; build output goes to stderr. Workloads, metrics and their
meaning are listed in BENCHMARK.json and perfbench/src/*.cpp. A result whose
metric names or units differ from BENCHMARK.json's list for the mode fails.
"""
import argparse
import hashlib
import json
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["tm_ladder", "failure_fleet", "cut_survey"]
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configure once, then build the program (a no-op when up to date)."""
    if not (build_dir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "--target",
                    "perfbench", "-j", str(os.cpu_count() or 2)],
                   check=True, stdout=sys.stderr)
    return build_dir / "perfbench"


def file_digest(paths):
    h = hashlib.sha256()
    for p in paths:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def source_id():
    """The git commit when the checkout has one, else a source digest."""
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    files = sorted(p for d in (ROOT / "src", HERE) for p in d.rglob("*")
                   if p.is_file())
    return "src-sha256:" + file_digest(files)


def metric_mismatch(result, trace):
    """Why the result's metrics differ from BENCHMARK.json's, or None."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got == want:
        return None
    diff = sorted(set(want.items()) ^ set(got.items()))
    return "metrics differ from BENCHMARK.json: " + ", ".join(
        f"{name} [{unit}]" for name, unit in diff)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=12)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    build_dir = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    build_dir = build_dir / "perfbench"
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    # Exact-repeat counters are kept per binary, so a rebuilt program
    # starts a fresh record.
    state = build_dir / "state" / file_digest([binary])
    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--work-dir", str(build_dir / "work"),
           "--reference", str(HERE / "reference.json"),
           "--state-dir", str(state),
           "--commit", source_id()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"run.py: benchmark exited with {proc.returncode}",
              file=sys.stderr)
        sys.stderr.write(proc.stdout)
        return proc.returncode
    lines = proc.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        print("run.py: malformed result line", file=sys.stderr)
        return 1
    mismatch = metric_mismatch(result, args.trace)
    if mismatch:
        print(f"run.py: {mismatch}", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
