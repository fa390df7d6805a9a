"""tsqueue benchmark: end-to-end metrics per workload, or per-layer with --trace 1.

Run from the repository root:

    python3 perfbench/run.py [--workload figures|queries|fits] [--seed N]
                             [--seconds S] [--trace 0|1] [--out FILE]

Without --workload every workload runs in turn.  Each run starts fresh
single-threaded worker processes (perfbench/worker.py) that import tsqueue
from ./src, so caches start cold and set-up time and peak RSS are the
worker's own.  Set-up time is the wall time of a fresh interpreter up to
the end of ``import tsqueue.cli``, as the median over SETUP_STARTS starts.
Set-up and operation times are scaled to a reference machine speed by
calibration kernels timed around them (perfbench/calibrate.py); raw wall
times are printed next to them.  Throughput and latency percentiles are
medians over consecutive blocks of a run's operations, so that a burst of
load from elsewhere on the host moves them less (worker.block_medians).
After the timed phase a seed-drawn sample of outputs is checked against an
mpmath oracle (perfbench/checks.py).

With --trace 0 the last line of standard output is one JSON object with the
end-to-end metrics named in BENCHMARK.json; with --trace 1 it carries the
per-layer metrics from a traced worker, and trace.overhead_ratio compares
it with an untraced worker on the same inputs.  Lines before it give every
metric by name and unit with its sample count or base, the outcome counts,
and the environment.

``failed`` counts operations that crashed (raised an error the package
does not declare), that the package refused (a declared error or a
non-zero exit) outside the solver's known corner, and the completed
operations estimated to have wrong outputs beyond the known cancellation
defect: that share of the checked samples times the completed operations.
The known defects (tolerances.json: solver_corner, cancellation) stay in
the draw; they are counted apart, and error_rate, printed above the result,
adds them to ``failed``.  ``correct`` is false when an operation crashed,
when a sampled output failed a check beyond the known cancellation defect
(perfbench/checks.py), or when no output could be checked.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import checks
import workloads

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SETUP_STARTS = 10
P99_MIN_OPS = 1000
WORKER_GRACE_S = 120


class BenchmarkError(Exception):
    pass


def _worker_env(root):
    env = dict(os.environ)
    env.update(PYTHONPATH=str(root / "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def spawn_worker(root, args, timeout):
    """Run worker.py to completion and return its JSON result."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    cmd += ["--spawned", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=root, env=_worker_env(root), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BenchmarkError(f"worker timed out after {exc.timeout} s") from None
    if proc.returncode != 0:
        raise BenchmarkError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    src = (root / "src").resolve()
    if src not in Path(result["tsqueue_file"]).resolve().parents:
        raise BenchmarkError(f"worker imported tsqueue from {result['tsqueue_file']}")
    return result


def write_fit_files(root, seed):
    """The fits workload's CSVs, under a directory named by the seed alone."""
    rel = Path(".perfbench") / f"fits-{seed}"
    (root / rel).mkdir(parents=True, exist_ok=True)
    for i, spec in enumerate(workloads.fit_files(seed)):
        (root / rel / f"{i:04d}-{spec['model']}.csv").write_text(workloads.fit_csv(spec))
    return rel


def measure(root, workload, seed, seconds, fit_dir, trace):
    """One worker run plus the oracle check of its sampled outputs."""
    args = ["--workload", workload, "--seed", str(seed), "--seconds", repr(seconds)]
    if fit_dir is not None:
        args += ["--fit-dir", str(fit_dir)]
    if trace:
        args.append("--trace")
    result = spawn_worker(root, args, seconds + WORKER_GRACE_S)
    result["wrong"], result["unexplained"], result["problems"] = checks.check_samples(
        workload, seed, result["samples"])
    return result


def _start_time(root):
    try:
        return calibrate.start_time(root, _worker_env(root), WORKER_GRACE_S)
    except (subprocess.SubprocessError, ValueError) as exc:
        raise BenchmarkError(f"calibration start failed: {exc}") from None


def setup_times(root):
    """(scaled, raw) set-up time of SETUP_STARTS fresh workers, each scaled by
    the calibration starts on either side of it."""
    kernel = [_start_time(root)]
    starts = []
    for _ in range(SETUP_STARTS):
        raw = spawn_worker(root, ["--probe"], WORKER_GRACE_S)["setup_s"]
        kernel.append(_start_time(root))
        starts.append((raw * 2.0 * calibrate.REF_START_S / (kernel[-2] + kernel[-1]), raw))
    return starts


def run_workload(root, workload, seed, seconds, trace):
    starts = [] if trace else setup_times(root)
    fit_dir = write_fit_files(root, seed) if workload == "fits" else None
    try:
        runs = [measure(root, workload, seed, seconds, fit_dir, False)]
        if trace:
            runs.append(measure(root, workload, seed, seconds, fit_dir, True))
    finally:
        if fit_dir is not None:
            shutil.rmtree(root / fit_dir)
            if not any((root / fit_dir.parent).iterdir()):
                (root / fit_dir.parent).rmdir()
    return starts, runs


def end_to_end(starts, run):
    def raw_ms(p):
        return f"raw {run['raw_latency_ms'][p]:.6g} ms"

    return {
        "setup_s": (statistics.median(s for s, _ in starts),
                    f"median of {len(starts)} starts, raw "
                    f"{statistics.median(r for _, r in starts):.6g} s"),
        "ops_per_s": (run["ops_per_s"],
                      f"{run['ops']} ops, raw {run['raw_ops_per_s']:.6g}/s"),
        "latency_p50_ms": (run["latency_ms"]["p50"], f"n={run['ops']}, {raw_ms('p50')}"),
        "latency_p90_ms": (run["latency_ms"]["p90"], f"n={run['ops']}, {raw_ms('p90')}"),
        "peak_rss_mb": (run["peak_rss_mb"], "worker VmHWM"),
    }


def per_layer(runs):
    plain, traced = runs
    summary = {k: tuple(v) for k, v in traced["trace"].items()}
    summary["trace.overhead_ratio"] = (
        plain["ops_per_s"] / traced["ops_per_s"],
        f"{plain['ops']} untraced, {traced['ops']} traced ops", False)
    checked = sum(len(r["samples"]) for r in runs)
    summary["distribution.cancellation_ratio"] = (
        sum(r["wrong"] - r["unexplained"] for r in runs) / checked if checked else 0.0,
        f"{checked} checked outputs", False)
    return {name: (value, f"base {base}" + (", ABSENT" if absent else ""))
            for name, (value, base, absent) in summary.items()}


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit(root):
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _src_digest(root):
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(root).as_posix().encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(root, workload, seed, seconds, trace, runs):
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "python": platform.python_version(), "numpy": runs[0]["numpy"],
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(), "git_commit": _git_commit(root),
        "src_sha256": _src_digest(root),
    }


def report(root, workload, seed, seconds, trace):
    starts, runs = run_workload(root, workload, seed, seconds, trace)
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    values = per_layer(runs) if trace else end_to_end(starts, runs[0])
    metrics, lines = {}, []
    for entry in spec:
        value, note = values[entry["name"]]
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        lines.append(f"{workload} {entry['name']} = {value:.6g} {entry['unit']} ({note})")
    plain = runs[0]
    if not trace:
        p99 = (f"{plain['latency_ms']['p99']:.6g} ms (n={plain['ops']}, "
               f"raw {plain['raw_latency_ms']['p99']:.6g} ms)"
               if plain["ops"] >= P99_MIN_OPS else
               f"n/a (needs >= {P99_MIN_OPS} ops, have {plain['ops']})")
        lines.append(f"{workload} latency_p99_ms = {p99}")
    def total(key):
        return sum(r[key] for r in runs)

    attempted, refused, known_refused, crashed = (
        total(k) for k in ("ops", "refused", "known_refused", "crashed"))
    wrong, unexplained = total("wrong"), total("unexplained")
    checked = sum(len(r["samples"]) for r in runs)
    completed = attempted - refused - known_refused - crashed

    def estimate(count):
        return round(count / checked * completed) if checked else 0

    failed = crashed + refused + estimate(unexplained)
    known = known_refused + estimate(wrong - unexplained)
    lines.append(f"{workload} failed = {failed} of {attempted} ops (crashed {crashed}, refused "
                 f"{refused} outside the solver corner, {estimate(unexplained)} wrong beyond "
                 f"known defects, estimated from {unexplained} of {checked} checked outputs "
                 f"over {completed} completed)")
    lines.append(f"{workload} known_defects = {known} of {attempted} ops (refused in the "
                 f"solver corner {known_refused}, cancellation {estimate(wrong - unexplained)} "
                 f"estimated from {wrong - unexplained} of {checked} checked outputs)")
    lines.append(f"{workload} error_rate = {(failed + known) / attempted:.6g} "
                 f"(failed plus known defects, of {attempted} ops)")
    for run in runs:
        lines += [f"{workload} {note}" for note in run["notes"]]
        lines += [f"{workload} check: {note}" for note in run["problems"][:10]]
    env = environment(root, workload, seed, seconds, trace, runs)
    lines.append(f"{workload} env {json.dumps(env)}")
    result = {"correct": crashed == 0 and unexplained == 0 and checked > 0,
              "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return lines, result, env


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write every result, with its environment, "
                        "to this JSON file")
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "tsqueue" / "cli.py").is_file():
        print("error: no tsqueue sources under ./src; run from the repository root",
              file=sys.stderr)
        return 2
    records = []
    for workload in [args.workload] if args.workload else workloads.WORKLOADS:
        try:
            lines, result, env = report(root, workload, args.seed, args.seconds,
                                        bool(args.trace))
        except BenchmarkError as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 1
        print("\n".join(lines))
        print(json.dumps(result), flush=True)
        records.append({"environment": env, "result": result, "report": lines})
    if args.out:
        Path(args.out).write_text(json.dumps(records, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
