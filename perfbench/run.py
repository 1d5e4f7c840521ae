#!/usr/bin/env python3
"""perfbench — the repository benchmark, one workload per call.

    python3 perfbench/run.py --workload road-oneshot --seed 1 --seconds 10 --trace 0

Builds the measuring harness and the shipped gdiamd daemon from source into
.bench_build/perfbench (first call only; later calls are a no-op build), runs
one workload with OMP_NUM_THREADS pinned to the CPUs this process may use,
checks every output, and prints every metric by name and unit. The last
stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 gives the end-to-end metrics, --trace 1 the per-layer ones plus a
Chrome trace-event file. perfbench/README.md explains the workloads, the
metrics and how to read the trace; `--selftest-fault` runs the harness's
deliberately-failing operation (used by perfbench/tests).
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402

BUILD_DIR = Path(".bench_build") / "perfbench"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def run_logged(cmd, timeout):
    """Runs a build step with its output on stderr; raises on failure."""
    subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                   timeout=timeout, check=True)


def build():
    if not (ROOT / "src" / "gdiam.hpp").is_file():
        raise RuntimeError(f"gdiam sources not found under {ROOT / 'src'}")
    if not (ROOT / BUILD_DIR / "CMakeCache.txt").is_file():
        run_logged(["cmake", "-S", str(HERE.relative_to(ROOT)), "-B",
                    str(BUILD_DIR), "-DCMAKE_BUILD_TYPE=Release"],
                   BUILD_TIMEOUT_S)
    run_logged(["cmake", "--build", str(BUILD_DIR), "-j", str(cpus())],
               BUILD_TIMEOUT_S)


def source_id():
    """The git commit when the checkout is a repository, else a digest of
    the sources the benchmark builds."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return "git:" + sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    files = sorted(p for d in ("src", "tools", "perfbench")
                   for p in (ROOT / d).rglob("*") if p.is_file())
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return "sha256:" + h.hexdigest()[:16]


def run_harness(args, env, workdir):
    cmd = [str(BUILD_DIR / "perfbench_harness"),
           "--gdiamd", str(BUILD_DIR / "gdiamd"), "--workdir", str(workdir)]
    if args.selftest_fault:
        cmd.append("--selftest-fault")
    else:
        cmd += ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # Own process group: a timeout takes the harness and any daemon with it.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=sys.stderr, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"harness exceeded {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise RuntimeError(f"harness exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise RuntimeError("harness printed nothing")
    return json.loads(lines[-1])


def report(args, raw, result, env_info):
    """Human-readable lines ahead of the final JSON line."""
    print(f"perfbench {args.workload or 'selftest'} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    for k in sorted(env_info):
        print(f"  {k}: {env_info[k]}")
    for k in sorted(raw.get("info", {})):
        print(f"  {k}: {raw['info'][k]}")
    for k, v in sorted(raw.get("samples", {}).items()):
        print(f"  samples {k}: n={len(v)}")
    if "sssp_ms" in raw.get("samples", {}):
        n = len(raw["samples"]["sssp_ms"])
        print(f"  sssp p{metrics.TAIL_PERCENTILE}: "
              f"{metrics.samples_beyond(n, metrics.TAIL_PERCENTILE)} "
              f"samples beyond it")
    steal = raw.get("samples", {}).get("steal_ticks_per_s")
    if steal:
        print(f"  timed attempts: {len(steal)}, host steal per attempt: "
              + ", ".join(f"{x:.3g}" for x in steal) + " ticks/s")
    for k in ("warmup_s", "warmup_first_ms", "warmup_runs", "input_s",
              "nodes", "edges", "lower_bound", "timed_s"):
        if k in raw.get("values", {}):
            print(f"  {k}: {raw['values'][k]:.6g}")
    for k, v in sorted(raw.get("values", {}).items()):
        if k.startswith("self_ms."):
            print(f"  self time {k[8:]}: {v:.3f} ms")
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"failed_frac = {metrics.failed_frac(result['attempted'], result['failed']):.6g} "
          f"ratio ({result['failed']}/{result['attempted']})")
    for f in raw.get("failures", []):
        print(f"  FAILED: {f}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=metrics.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest-fault", action="store_true")
    args = ap.parse_args(argv)
    if not args.selftest_fault and args.workload is None:
        ap.error("--workload is required")

    try:
        build()
        env = dict(os.environ)
        env["OMP_NUM_THREADS"] = str(cpus())
        env.pop("GDIAM_FAULTS", None)
        name = "selftest" if args.selftest_fault else args.workload
        workdir = BUILD_DIR.parent / f"run-{name}-{args.seed}-{os.getpid()}"
        shutil.rmtree(ROOT / workdir, ignore_errors=True)
        (ROOT / workdir).mkdir(parents=True)
        try:
            raw = run_harness(args, env, workdir)
            trace_file = raw.get("info", {}).get("trace_file")
            if trace_file:
                kept = BUILD_DIR.parent / "traces" / Path(trace_file).name
                (ROOT / kept).parent.mkdir(parents=True, exist_ok=True)
                shutil.move(str(ROOT / trace_file), str(ROOT / kept))
                raw["info"]["trace_file"] = str(kept)
        finally:
            shutil.rmtree(ROOT / workdir, ignore_errors=True)

        result = {"correct": raw["failed"] == 0, "attempted": raw["attempted"],
                  "failed": raw["failed"]}
        if args.selftest_fault:
            result["metrics"] = {"failed_frac": {
                "value": metrics.failed_frac(raw["attempted"], raw["failed"]),
                "unit": "ratio"}}
        else:
            result["metrics"] = metrics.derive(raw, args.trace == 1)
        env_info = {
            "nproc": os.cpu_count(),
            "cpus_allowed": cpus(),
            "omp": " ".join(f"{k}={v}" for k, v in sorted(env.items())
                            if k.startswith("OMP_")),
            "source": source_id(),
        }
        report(args, raw, result, env_info)
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log(f"perfbench: {e}")
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
