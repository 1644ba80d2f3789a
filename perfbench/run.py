#!/usr/bin/env python3
"""Repo benchmark: build qccbench from source and run workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload vqe_curves --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all --seed 1

One workload prints its report on stderr and, as the last line of
stdout, {"correct", "attempted", "failed", "metrics"} holding the
end-to-end metrics of BENCHMARK.json (--trace 0) or its per-layer
metrics (--trace 1). --all runs every workload untraced and traced,
each in its own process, prints every metric with unit and sample
count, and writes the full reports to .bench_run/results/. The exit
code is nonzero when the build fails, a run fails, or any correctness
check fails. README.md explains the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.getcwd()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["vqe_curves", "table2_estimate", "noisy_fig10", "sweepd_pool"]
PROCESS_POOL = {"sweepd_pool"}  # reads its warm store from QCC_STORE_DIR
RUN_TIMEOUT_S = 170
RUN_ROOT = os.path.join(ROOT, ".bench_run")


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configure once, then build incrementally; returns the binary."""
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    # Compiler temporaries stay inside the checkout too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, env=env, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   stdout=sys.stderr, env=env, check=True)
    return os.path.join(build_dir, "qccbench")


def source_id():
    """The git commit, or a digest of the sources when there is no git."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0 and out.stdout.strip():
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha1()
    for top in ("src", os.path.relpath(BENCH_DIR, ROOT)):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-" + digest.hexdigest()[:16]


def pinned_env(workload, seed, run_dir):
    """Only the benchmark's own QCC_* settings (QCC_SIMD passes through)."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("QCC_") or k == "QCC_SIMD"}
    # QCC_JOB_WIDTH=1 keeps every job on one lane, so the shared
    # thread pool never starts: back-to-back pool jobs can deadlock it
    # (a worker still inside the previous job's chunk loop reads a
    # stale chunk count, so a chunk of the next job never runs and the
    # caller waits forever; seen in 3 of 18 table2_estimate runs).
    env.update(QCC_THREADS="2", QCC_JOB_WIDTH="1", QCC_TRACE="0",
               QCC_SEED=str(max(seed, 1)), QCC_LOG="quiet",
               QCC_STORE_DIR=os.path.join(run_dir, "store"),
               QCC_JSON=os.path.join(run_dir, "json"),
               TMPDIR=os.path.join(run_dir, "tmp"))
    if workload not in PROCESS_POOL:
        env["QCC_STORE"] = "0"
    return env


def run_workload(binary, workload, seed, seconds, trace, commit):
    """One workload in its own process; returns its parsed report."""
    run_dir = os.path.join(RUN_ROOT, f"{workload}-s{seed}-t{trace}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    for sub in ("store", "json", "tmp"):
        os.makedirs(os.path.join(run_dir, sub))
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--run-dir", run_dir, "--commit", commit]
    proc = subprocess.Popen(cmd, env=pinned_env(workload, seed, run_dir),
                            cwd=run_dir, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        shutil.rmtree(run_dir, ignore_errors=True)
        raise RuntimeError(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    try:
        # Reap sweepd workers a crashed run may have left behind.
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    lines = [l for l in out.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        shutil.rmtree(run_dir, ignore_errors=True)
        raise RuntimeError(f"{workload}: qccbench exited {proc.returncode}")
    report = json.loads(lines[-1])
    trace_file = report.get("notes", {}).get("trace_file")
    if trace_file and os.path.exists(trace_file):
        os.makedirs(os.path.join(RUN_ROOT, "traces"), exist_ok=True)
        dest = os.path.join(RUN_ROOT, "traces", os.path.basename(trace_file))
        shutil.move(trace_file, dest)
        report["notes"]["trace_file"] = os.path.relpath(dest, ROOT)
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(os.path.join(RUN_ROOT, "results"), exist_ok=True)
    with open(os.path.join(RUN_ROOT, "results",
                           f"{workload}-s{seed}-t{trace}.json"), "w") as f:
        json.dump(report, f, indent=1)
    return report


def print_report(report):
    mode = "per-layer (traced)" if report["trace"] else "end-to-end (untraced)"
    log(f"== {report['workload']}: {mode}  attempted={report['attempted']} "
        f"failed={report['failed']} correct={report['correct']}")
    for name, m in report["metrics"].items():
        value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
        log(f"  {name:34s} {value:>14s} {m['unit']:7s} samples={m['samples']}")
    for key, value in sorted(report.get("notes", {}).items()):
        log(f"  note {key} = {value}")
    log("  envelope " + json.dumps(report["envelope"], sort_keys=True))
    for failure in report["failures"]:
        log("  CHECK FAILED: " + failure)


def result_line(report, declared):
    """The benchmark contract's last line: exactly the declared metrics."""
    metrics, missing = {}, []
    for want in declared:
        m = report["metrics"].get(want["name"])
        if m is None or m["value"] is None or m["unit"] != want["unit"]:
            missing.append(want["name"])
        else:
            metrics[want["name"]] = {"value": m["value"], "unit": m["unit"]}
    for name in missing:
        log(f"  CHECK FAILED: metric {name} missing or in another unit")
    return {"correct": bool(report["correct"]) and not missing,
            "attempted": int(report["attempted"]),
            "failed": int(report["failed"]),
            "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true",
                        help="every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if bool(args.all) == bool(args.workload):
        parser.error("give exactly one of --workload and --all")
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    try:
        spec = load_spec()
        seconds = args.seconds or spec["run_seconds"]
        binary = build()
        commit = source_id()
        if args.workload:
            report = run_workload(binary, args.workload, args.seed, seconds,
                                  args.trace, commit)
            print_report(report)
            key = "per_layer" if args.trace else "end_to_end"
            line = result_line(report, spec[key])
            print(json.dumps(line), flush=True)
            return 0 if line["correct"] else 1

        reports = []
        for workload in WORKLOADS:
            for trace in (0, 1):
                reports.append(run_workload(binary, workload, args.seed,
                                            seconds, trace, commit))
                print_report(reports[-1])
        path = os.path.join(RUN_ROOT, "results", f"all-s{args.seed}.json")
        with open(path, "w") as f:
            json.dump(reports, f, indent=1)
        ok = all(r["correct"] for r in reports)
        log(f"== all workloads: correct={ok}; reports in {os.path.relpath(path, ROOT)}")
        print(json.dumps({"correct": ok,
                          "attempted": sum(r["attempted"] for r in reports),
                          "failed": sum(r["failed"] for r in reports)}), flush=True)
        return 0 if ok else 1
    except (OSError, ValueError, KeyError, RuntimeError,
            subprocess.CalledProcessError) as e:
        log(f"run.py: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
