"""One benchmark run in a fresh process; started by run.py, not by hand.

The first statements import tsqueue.cli (from ``src`` on PYTHONPATH) so
that set-up time is the interpreter start plus that import, measured from
the spawn time run.py passes in.  The worker then runs the workload as a
closed loop with one client for ``--seconds``, timing each operation, and
prints one JSON line: latency percentiles, outcome counts, peak RSS, the
outputs of a seed-drawn sample of operations for run.py to check, and with
``--trace`` the per-layer summary.

Operation times are reported raw and scaled to a reference machine speed
by the calibration kernel in calibrate.py, sampled between operations.
"""

import time  # noqa: I001 - imports ordered so set-up time covers tsqueue only

import tsqueue.cli

IMPORTED = time.monotonic()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from array import array  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402

import workloads  # noqa: E402
from calibrate import Calibration  # noqa: E402
from tracer import Tracer  # noqa: E402

WARMUP_OPS = {"figures": 5, "queries": 200, "fits": 20}
# Sampled outputs are drawn from the first SAMPLE_WINDOW operations, which
# every run completes, so holding them adds nothing that grows with run length.
SAMPLE_WINDOW = {"figures": 20, "queries": 5000, "fits": 300}
SAMPLE_SIZE = {"figures": 4, "queries": 60, "fits": 30}
# The solver's known defect: no convergence near q -> 1 (tolerances.json).
SOLVER_CORNER = json.loads((Path(__file__).with_name("tolerances.json")).read_text())[
    "solver_corner"]["one_minus_q"]
NOTES_KEPT = 5
BLOCKS = 5


def _documented(exc):
    """An error the package declares: its own exception classes or overflow."""
    return isinstance(exc, OverflowError) or type(exc).__module__.startswith("tsqueue")


def cli_call(argv):
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = tsqueue.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def query_call(op):
    api = tsqueue
    kind = op[0]
    if kind == "qos":
        r = api.qos_report(api.QueueModel(op[1], op[2]), workloads.QOS_POINTS)
        return {"mean": r.mean, "variance": r.variance, "utilization": r.utilization,
                "p0": r.p0, "tail_exponent": r.tail_exponent,
                "tail_coefficient": r.tail_coefficient,
                "tail_samples": [list(p) for p in r.tail_samples]}
    if kind == "solve":
        return api.solve_beta(op[1], op[2]).beta
    if kind == "tail":
        return api.tail(api.QueueModel(op[1], op[2]), op[3])
    return api.log_hurwitz_zeta(op[1], op[2])


def classify(op, output, error, cli):
    """None for a completed operation, else (kind, message).

    A refusal is an error the package declares or a documented CLI exit
    code; anything else is a crash.  A refusal of solve_beta in the known
    corner 1 - q < SOLVER_CORNER is the known defect ("known_refused").
    """
    if error is not None:
        message = "".join(traceback.format_exception_only(error)).strip()
        if not _documented(error):
            return "crashed", message
        corner = op[0] == "solve" and 1.0 - op[1] < SOLVER_CORNER
        return ("known_refused" if corner else "refused"), message
    if cli and output[0] != 0:
        return "refused", f"exit {output[0]}: {output[2].strip()}"
    return None


def attempt(tracer, call, op):
    """(output, None) or (None, exception): the run goes on after a failed op."""
    try:
        return tracer.op(call, op), None
    except Exception as exc:
        return None, exc


def make_stream(workload, seed, stream, fit_dir):
    if workload == "figures":
        return cli_call, workloads.figure_ops(seed, stream)
    if workload == "queries":
        return query_call, workloads.query_ops(seed, stream)
    paths = sorted(str(p) for p in Path(fit_dir).glob("*.csv"))
    models = [Path(p).stem.split("-")[1] for p in paths]
    return cli_call, workloads.fit_ops(paths, models, seed, stream)


def peak_rss_mb():
    """This process's peak resident set size.

    VmHWM belongs to the process's own address space.  getrusage's
    ru_maxrss is the fallback where /proc is missing; it is not used first
    because Linux carries the spawning process's resident size over exec
    into it, so it could report run.py's size instead of the worker's.
    """
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _percentiles_ms(values):
    if len(values) < 2:
        return {"p50": values[0] * 1e3, "p90": values[0] * 1e3, "p99": values[0] * 1e3}
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return {"p50": cuts[49] * 1e3, "p90": cuts[89] * 1e3, "p99": cuts[98] * 1e3}


def block_medians(times):
    """Throughput and latency percentiles, each the median over BLOCKS.

    The operations are split into BLOCKS consecutive blocks and each figure
    is taken per block, so a burst of load from other processes on the host
    that slows one block does not move the reported figure.
    """
    blocks = min(BLOCKS, len(times))
    cuts = [len(times) * k // blocks for k in range(blocks + 1)]
    parts = [times[lo:hi] for lo, hi in zip(cuts, cuts[1:])]
    per_block = [_percentiles_ms(part) for part in parts]
    return (statistics.median(len(part) / sum(part) for part in parts),
            {p: statistics.median(b[p] for b in per_block) for p in per_block[0]})


def run(workload, seed, seconds, fit_dir, trace):
    tracer = Tracer()
    if trace:
        tracer.install(tsqueue)
    call, warm = make_stream(workload, seed, "warmup", fit_dir)
    for _ in range(WARMUP_OPS[workload]):
        attempt(tracer, call, next(warm))
    _, ops = make_stream(workload, seed, "main", fit_dir)
    sample_rng = random.Random(f"{workload}:{seed}:sample")
    sampled = set(sample_rng.sample(range(SAMPLE_WINDOW[workload]), SAMPLE_SIZE[workload]))

    cli = call is cli_call
    raw = array("d")
    failures, samples, notes = {"refused": 0, "known_refused": 0, "crashed": 0}, [], []
    calibration = Calibration()
    if trace:
        tracer.begin()
    deadline = time.perf_counter() + seconds
    while (now := time.perf_counter()) < deadline:
        calibration.maybe_sample(now, len(raw))
        op = next(ops)
        t0 = time.perf_counter()
        output, error = attempt(tracer, call, op)
        raw.append(time.perf_counter() - t0)
        failure = classify(op, output, error, cli)
        if failure is None:
            if len(raw) - 1 in sampled:
                samples.append({"op": list(op), "output": output})
            continue
        kind, note = failure
        failures[kind] += 1
        if kind != "known_refused" and len(notes) < NOTES_KEPT:
            notes.append(f"{kind} {list(op)}: {note}")
    if trace:
        tracer.stop()
    peak_rss = peak_rss_mb()
    scaled = calibration.scale(raw)

    ops_per_s, latency_ms = block_medians(scaled)
    raw_ops_per_s, raw_latency_ms = block_medians(raw)
    result = {
        "ops": len(raw),
        "ops_per_s": ops_per_s,
        "latency_ms": latency_ms,
        "raw_ops_per_s": raw_ops_per_s,
        "raw_latency_ms": raw_latency_ms,
        "refused": failures["refused"],
        "known_refused": failures["known_refused"],
        "crashed": failures["crashed"],
        "notes": notes,
        "peak_rss_mb": peak_rss,
        "samples": samples,
        "numpy": numpy.__version__,
    }
    if trace:
        result["trace"] = {k: list(v) for k, v in tracer.summary(len(raw)).items()}
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() just before this process was started")
    parser.add_argument("--probe", action="store_true", help="report set-up time only")
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--fit-dir")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    setup_s = IMPORTED - args.spawned
    if args.probe:
        result = {}
    else:
        result = run(args.workload, args.seed, args.seconds, args.fit_dir, args.trace)
    result.update(setup_s=setup_s, tsqueue_file=tsqueue.cli.__file__)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
