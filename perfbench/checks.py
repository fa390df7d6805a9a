"""Checks of sampled benchmark outputs against the mpmath oracle.

Run after the timed phase.  Each check returns a list of problems; an
empty list means the output matched within the tolerances in
tolerances.json.

The package's mean and variance are differences of nearly equal terms, so
they lose digits where those terms are large against the result (q -> 1,
large beta).  A miss no larger than the ``cancellation`` error that
tolerances.json allows for terms of that size is a known defect: it is
counted apart from failed operations and leaves the run ``correct``.  Any
other miss, of those checks or of any other, is a failed operation and
makes the run incorrect.
"""

import csv
import functools
import io
import json
import math
import random
from pathlib import Path

import mpmath

import oracle
import workloads

ROWS_PER_FIGURE = 4
CANCELLATION = oracle.TOLERANCES["cancellation"]["unit"]
FIGURE_HEADERS = {
    1: ["q", "beta", "rho"],
    2: ["q", "beta", "rho", "rho_model_i", "rho_model_ii"],
    3: ["q", "rho", "variance"],
    4: ["q", "rho"] + [f"overflow_at_{x}" for x in workloads.FIGURE_THRESHOLDS],
    5: ["q", "rho", "utilization", "mm1_utilization"],
}


def _expect(problems, tol_name, label, got, ref, slack=0.0, cancelling=0.0):
    """Append (check, text) unless got matches ref.

    ``cancelling`` is the size of the terms whose difference the package
    takes for this value; a miss within CANCELLATION times it is the known
    defect, and its check is reported as "cancellation".
    """
    if oracle.close(tol_name, got, ref, slack):
        return
    if cancelling and oracle.close(tol_name, got, ref, slack + CANCELLATION * cancelling):
        label = f"{tol_name} {label}"
        tol_name = "cancellation"
    problems.append((tol_name, f"{label}: got {got!r}, oracle {mpmath.nstr(ref, 17)}"))


def _beta_residual(problems, q, beta, target):
    """The solved beta must give the target mean within the solver's tolerance.

    The solver stops on the package's mean, so the mean's cancellation,
    with terms of size c + mean, is the known defect here too.
    """
    law = oracle.Law(q, beta)
    mean = law.mean()
    _expect(problems, "beta_residual", f"mean at beta={beta!r}, q={q!r} over max(1, A)",
            float(mean / max(1.0, target)), mpmath.mpf(target) / max(1.0, target),
            cancelling=(law.c + mean) / max(1.0, target))


def _at_solved_beta(problems, q, target, checks):
    """Check values the figure computed at its own solved beta.

    That beta is known only to the solver's tolerance, so each check gets
    the slack of moving beta within it, from the oracle's derivatives in
    ln beta.
    """
    beta = oracle.solve_beta(q, target)
    h = 1e-6
    with mpmath.workdps(oracle.ORACLE_DIGITS + oracle.GUARD_DIGITS):
        law, law_h = oracle.Law(q, beta), oracle.Law(q, beta * (1 + h))
    dmean = (law_h.mean() - law.mean()) / h
    tol = oracle.TOLERANCES["beta_residual"]["atol"]
    dlnbeta = tol * max(1.0, target) / abs(dmean)
    for tol_name, label, got, quantity in checks:
        ref, ref_h = quantity(law), quantity(law_h)
        slack = abs(ref_h - ref) / h * dlnbeta
        _expect(problems, tol_name, f"{label} at q={q} A={target}", got, ref, slack)


def check_figure(op, output, seed):
    text = output[1]
    fid = int(op[op.index("--id") + 1])
    qs = [float(v) for v in op[op.index("--q-list") + 1].split(",")]
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != FIGURE_HEADERS[fid]:
        return [("structure", f"figure {fid}: unexpected header {rows[:1]}")]
    body = rows[1:]
    means = workloads.figure_means()
    if len(body) != len(qs) * len(means):
        return [("structure", f"figure {fid}: {len(body)} rows, expected {len(qs) * len(means)}")]
    problems = []
    rng = random.Random(f"figures:{seed}:rows:{op}")
    for r in rng.sample(range(len(body)), ROWS_PER_FIGURE):
        q, target = qs[r // len(means)], means[r % len(means)]
        row = dict(zip(rows[0], (float(v) for v in body[r])))
        if row["q"] != q:
            problems.append(("structure", f"row {r}: q {row['q']!r} != {q!r}"))
            continue
        rho = row["rho"]
        _expect(problems, "norros_mean", f"norros mean of rho={rho!r} at q={q!r}",
                float(oracle.norros_mean(rho, 1.5 - q)), target)
        if fid in (1, 2):
            _beta_residual(problems, q, row["beta"], target)
            if fid == 2 and not all(map(math.isfinite, (row["rho_model_i"], row["rho_model_ii"]))):
                problems.append(("structure", f"row {r}: non-finite fitted rho"))
        elif fid == 3:
            _at_solved_beta(problems, q, target, [
                ("variance", "variance", row["variance"], lambda law: law.variance())])
        elif fid == 4:
            _at_solved_beta(problems, q, target, [
                ("tail", f"P(i > {x})", row[f"overflow_at_{x}"],
                 lambda law, x=x: law.tail(x)) for x in workloads.FIGURE_THRESHOLDS])
        else:
            if row["mm1_utilization"] != rho:
                problems.append(("structure", f"row {r}: mm1_utilization {row['mm1_utilization']!r} != rho"))
            _at_solved_beta(problems, q, target, [
                ("utilization", "utilization", row["utilization"],
                 lambda law: law.utilization())])
    return problems


def check_query(op, output):
    kind, problems = op[0], []
    if kind == "solve":
        _beta_residual(problems, op[1], output, op[2])
        return problems
    if kind == "zeta":
        _expect(problems, "zeta_log", f"ln zeta({op[1]!r}, {op[2]!r})",
                output, oracle.log_hurwitz_zeta(op[1], op[2]))
        return problems
    q, beta = op[1], op[2]
    law, where = oracle.Law(q, beta), f"q={q!r} beta={beta!r}"
    if kind == "tail":
        _expect(problems, "tail", f"P(i > {op[3]}) at {where}", output, law.tail(op[3]))
        return problems
    mean = law.mean()
    _expect(problems, "mean", f"mean at {where}", output["mean"], mean,
            cancelling=law.c + mean)
    if q > 2.0 / 3.0:
        variance = law.variance()
        _expect(problems, "variance", f"variance at {where}", output["variance"], variance,
                cancelling=(law.c + mean) ** 2 + variance)
    elif output["variance"] is not None:
        problems.append(("structure", f"variance reported at q={q} <= 2/3, where it diverges"))
    _expect(problems, "p0", f"p0 at {where}", output["p0"], law.p0())
    _expect(problems, "utilization", f"utilization at {where}", output["utilization"],
            law.utilization())
    _expect(problems, "tail_exponent", f"tail exponent at {where}",
            output["tail_exponent"], law.s - 1)
    _expect(problems, "tail_coefficient", f"tail coefficient at {where}",
            output["tail_coefficient"], law.tail_coefficient())
    if [x for x, _ in output["tail_samples"]] != list(workloads.QOS_POINTS):
        problems.append(("structure", f"tail samples at {list(workloads.QOS_POINTS)} expected"))
    for x, p in output["tail_samples"]:
        _expect(problems, "tail", f"P(i > {x}) at {where}", p, law.tail(x))
    return problems


def check_fit(op, output, files):
    spec = files[int(Path(op[op.index("--in") + 1]).stem.split("-")[0])]
    report = json.loads(output[1])
    params = report["params"]
    with mpmath.workdps(oracle.ORACLE_DIGITS):
        if report["model"] == "I":
            a, b = (mpmath.mpf(params[k]) for k in ("a", "b"))
            predict = [a + b * mpmath.exp(-mpmath.mpf(x)) for x in spec["beta"]]
        else:
            c, eta, d, mu = (mpmath.mpf(params[k]) for k in ("c", "eta", "d", "mu"))
            predict = [c * mpmath.mpf(x) ** -eta + d * mpmath.exp(-mu * x)
                       for x in spec["beta"]]
        sse = mpmath.fsum((mpmath.mpf(r) - p) ** 2 for r, p in zip(spec["rho"], predict))
        rmse = mpmath.sqrt(sse / len(predict))
    problems = []
    if report["model"] != op[op.index("--model") + 1] or report["converged"] is not True:
        problems.append(("structure", f"report {report['model']} converged={report['converged']}"))
    _expect(problems, "fit_rmse", f"rmse of {op[op.index('--in') + 1]}", report["rmse"], rmse)
    return problems


def check_samples(workload, seed, samples):
    """(failed samples, failed outside known defects, notes) for one run."""
    if workload == "figures":
        check = functools.partial(check_figure, seed=seed)
    elif workload == "fits":
        check = functools.partial(check_fit, files=workloads.fit_files(seed))
    else:
        check = check_query
    wrong, unexplained, notes = 0, 0, []
    for sample in samples:
        problems = check(sample["op"], sample["output"])
        if problems:
            wrong += 1
            unexplained += any(name != "cancellation" for name, _ in problems)
            notes.extend(f"{name}: {text}" for name, text in problems)
    return wrong, unexplained, notes
