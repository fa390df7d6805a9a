"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every criterion prints a single ``[PASS]``/``[FAIL]`` line (visible with
``pytest -s`` or in failure output) plus its wall-clock time.

Criterion 4 checks the paper's M/M/1 recovery as the limit q -> 1 that
the paper claims, not at a single point.  For p_i proportional to
(c+i)**(-s) the local decay rate of ln P(i > x) is about
(s-1)/(c+x+1/2) = beta*q / (1 + beta*(1-q)*(x+1/2)), which reaches beta
only as q -> 1: at q = 0.999, beta = 0.5 and x_mid = 30 the relative gap
is (1-q)*(1 + beta*(x_mid+1/2)) ~ 1.63% to first order (1.60% exactly).
So the fitted slope at q = 0.999 is matched against an independent
direct-summation oracle, the gap from -beta must shrink tenfold per
tenfold step of 1-q, and the 1% bound is asserted where the law meets it
(q >= 0.9999).
"""

import contextlib
import io
import json
import math
import time

import numpy as np
import pytest

from tsqueue.cli import FigureSpec, figure_dataset, main, parse_correspondence_csv
from tsqueue.distribution import (
    QueueModel,
    mean,
    moment,
    pmf,
    tail,
    tail_asymptote,
    variance,
)
from tsqueue.errors import MomentDoesNotExist
from tsqueue.fitting import fit_model_i, fit_model_ii, generate_correspondence
from tsqueue.norros import norros_mean, norros_rho
from tsqueue.solver import solve_beta
from tsqueue.zeta import hurwitz_zeta

import oracles


class _Criterion:
    """Collects sub-check results and prints one summary line."""

    def __init__(self, number, title):
        self.number = number
        self.title = title
        self.failures = []
        self.start = time.perf_counter()

    def check(self, condition, detail):
        if not condition:
            self.failures.append(detail)

    def finish(self):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if not self.failures else "FAIL"
        print(f"[{status}] criterion {self.number}: {self.title} ({elapsed:.2f}s)")
        for failure in self.failures:
            print(f"       - {failure}")
        assert not self.failures, f"criterion {self.number}: {self.failures}"


def test_criterion_01_zeta_correctness():
    crit = _Criterion(1, "Hurwitz zeta anchors and shift identity")
    anchors = [
        (2.0, oracles.PI2_OVER_6),
        (3.0, oracles.APERY),
        (4.0, oracles.PI4_OVER_90),
    ]
    for s, expected in anchors:
        got = hurwitz_zeta(s, 1.0)
        crit.check(
            abs(got - expected) / expected <= 1e-12,
            f"zeta({s},1)={got!r} vs {expected!r}",
        )
    for s in (1.5, 2.0, 3.0, 5.0, 10.0, 50.0):
        for a in (0.1, 0.5, 1.0, 4.0, 100.0):
            lhs = hurwitz_zeta(s, a)
            rhs = a**-s + hurwitz_zeta(s, a + 1.0)
            crit.check(
                abs(lhs - rhs) / lhs <= 1e-12,
                f"shift identity at s={s}, a={a}: {lhs!r} vs {rhs!r}",
            )
    crit.finish()


def test_criterion_02_normalization():
    crit = _Criterion(2, "pmf + tail normalization across the (q, beta) grid")
    for q in (0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95):
        for beta in (0.1, 0.5, 1.0, 2.0, 5.0):
            model = QueueModel(q, beta)
            for cut in (0, 10, 1000):
                total = math.fsum(pmf(model, i) for i in range(cut + 1))
                total += tail(model, cut)
                crit.check(
                    abs(total - 1.0) <= 1e-10,
                    f"q={q} beta={beta} M={cut}: sum={total!r}",
                )
    crit.finish()


def test_criterion_03_moments_vs_brute_force():
    crit = _Criterion(3, "mean and variance vs 1e6-term direct summation")
    for q, beta in ((0.75, 1.0), (0.8, 0.5), (0.9, 2.0)):
        _, brute_mean, brute_m2 = oracles.brute_stats(q, beta)
        brute_var = brute_m2 - brute_mean**2
        model = QueueModel(q, beta)
        got_mean, got_var = mean(model), variance(model)
        crit.check(
            abs(got_mean - brute_mean) / brute_mean <= 1e-8,
            f"mean at ({q},{beta}): {got_mean!r} vs {brute_mean!r}",
        )
        crit.check(
            abs(got_var - brute_var) / brute_var <= 1e-8,
            f"variance at ({q},{beta}): {got_var!r} vs {brute_var!r}",
        )
    crit.finish()


def test_criterion_04_mm1_recovery():
    crit = _Criterion(4, "M/M/1 recovery as q -> 1 (beta = 0.5)")
    q, beta = 0.999, 0.5
    model = QueueModel(q, beta)
    rho = math.exp(-beta)

    sup = max(abs(pmf(model, i) - oracles.geometric_pmf(rho, i)) for i in range(101))
    crit.check(sup < 1e-2, f"sup|pmf - geometric| = {sup:.3e} (bound 1e-2)")

    solved = solve_beta(q, 1.0)
    dev = abs(solved.beta - math.log(2.0)) / math.log(2.0)
    crit.check(dev <= 0.02, f"solve_beta(q,1) dev from ln2 = {dev:.3%} (bound 2%)")

    # ln tail slope over x in [10, 50]: the package against direct summation
    # at q, then the gap from -beta along q -> 1, where it must decay as O(1-q)
    xs = np.arange(10, 51)
    limit_qs = (q, 0.9999, 0.99999)
    slopes = []
    for lq in limit_qs:
        lq_model = QueueModel(lq, beta)
        logs = [math.log(tail(lq_model, int(x))) for x in xs]
        slopes.append(float(np.polyfit(xs, logs, 1)[0]))
    brute = float(np.polyfit(xs, oracles.brute_log_tail(q, beta, xs), 1)[0])
    rel = abs(slopes[0] - brute) / abs(brute)
    crit.check(
        rel <= 1e-10,
        f"ln tail slope {slopes[0]!r} vs direct summation {brute!r} at q={q}: "
        f"rel {rel:.2e} (bound 1e-10)",
    )
    gaps = [abs(slope + beta) / beta for slope in slopes]
    for k in range(1, len(limit_qs)):
        ratio = gaps[k - 1] / gaps[k]
        crit.check(
            9.0 <= ratio <= 11.0,
            f"slope gap from -beta {gaps[k - 1]:.4%} at q={limit_qs[k - 1]} vs "
            f"{gaps[k]:.4%} at q={limit_qs[k]}: ratio {ratio:.3f} (bound [9, 11])",
        )
        crit.check(
            gaps[k] <= 0.01,
            f"ln tail slope {slopes[k]:.6f} at q={limit_qs[k]} vs -beta={-beta}: "
            f"dev {gaps[k]:.3%} (bound 1%)",
        )
    crit.finish()


def test_criterion_05_power_law_tail():
    crit = _Criterion(5, "power-law overflow tail at (q=0.75, beta=1)")
    model = QueueModel(0.75, 1.0)
    x = 10**6
    asym = tail_asymptote(model, x)
    ratio = tail(model, x) / asym.value
    crit.check(0.98 <= ratio <= 1.02, f"tail/asymptote ratio at 1e6: {ratio!r}")
    slope = math.log(tail(model, x) / tail(model, 2 * x)) / math.log(2.0)
    crit.check(
        abs(slope - 3.0) / 3.0 <= 0.01, f"dyadic tail exponent estimate: {slope!r}"
    )
    crit.finish()


def test_criterion_06_moment_existence_frontier():
    crit = _Criterion(6, "k-th moment existence frontier")
    q_values = (0.55, 0.6, 2.0 / 3.0, 0.7, 0.75, 0.8)
    for k in (1, 2, 3):
        for q in q_values:
            model = QueueModel(q, 1.0)
            should_raise = q <= k / (k + 1.0)
            try:
                value = moment(model, k)
                raised = False
            except MomentDoesNotExist:
                raised = True
            crit.check(
                raised == should_raise,
                f"k={k} q={q}: raised={raised}, expected raise={should_raise}",
            )
            if not raised:
                crit.check(value > 0.0, f"k={k} q={q}: nonpositive moment {value}")

    # numerical divergence/convergence of the partial sums
    def partial_sums(q, k):
        s = 1.0 / (1.0 - q)
        c = 1.0 / (1.0 * (1.0 - q))
        i = np.arange(10**6, dtype=float)
        terms = i**k * (c + i) ** (-s)
        sums = np.cumsum(terms)
        return [float(sums[m - 1]) for m in (10**3, 10**4, 10**5, 10**6)], float(
            terms[-1] / sums[-1]
        )

    for k in (2, 3):
        for q in q_values:
            sums, last_rel = partial_sums(q, k)
            if q <= k / (k + 1.0):
                ratio = sums[-1] / sums[-2]
                crit.check(
                    ratio >= 1.1,
                    f"k={k} q={q}: partial sums not growing (ratio {ratio})",
                )
            elif q >= k / (k + 1.0) + 0.05:
                crit.check(
                    last_rel < 1e-6,
                    f"k={k} q={q}: relative increment {last_rel} at 1e6 terms",
                )
    crit.finish()


def test_criterion_07_solver_round_trip():
    crit = _Criterion(7, "beta recovery round trip and closed-form Newton step")
    for q in (0.55, 0.6, 0.7, 0.75, 0.8, 0.9, 0.95):
        for beta in (0.1, 0.5, 1.0, 2.0, 5.0):
            target = mean(QueueModel(q, beta))
            got = solve_beta(q, target).beta
            crit.check(
                abs(got - beta) / beta <= 1e-8,
                f"round trip q={q} beta={beta}: got {got!r}",
            )
    # closed-form step vs central finite differences of the constraint
    # objective it is derived from (10 sampled points)
    from tsqueue.solver import newton_step

    samples = [
        (0.6, 0.8, 1.0), (0.6, 2.0, 0.5), (0.7, 1.5, 2.0), (0.75, 2.0, 1.352),
        (0.75, 0.4, 3.0), (0.8, 0.3, 0.7), (0.85, 1.2, 1.0), (0.9, 0.5, 5.0),
        (0.9, 2.5, 0.2), (0.95, 1.0, 0.9),
    ]
    for q, beta, target in samples:
        step = newton_step(q, beta, target)
        h = 1e-6 * beta
        derivative = oracles.central_difference(
            lambda b: oracles.constraint_objective(q, b, target), beta, h
        )
        expected = -oracles.constraint_objective(q, beta, target) / derivative
        crit.check(
            abs(step - expected) / abs(expected) <= 1e-6,
            f"newton step at ({q},{beta},{target}): {step!r} vs fd {expected!r}",
        )
    crit.finish()


def test_criterion_08_norros_inversion():
    crit = _Criterion(8, "storage-model inversion round trip")
    for rho in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
        for hurst in (0.5, 0.6, 0.75, 0.9):
            back = norros_rho(norros_mean(rho, hurst), hurst)
            crit.check(
                abs(back - rho) <= 1e-10,
                f"round trip rho={rho} H={hurst}: got {back!r}",
            )
    crit.check(
        abs(norros_mean(0.5, 0.75) - 2.0) <= 1e-10, "norros_mean(0.5, 0.75) != 2"
    )
    crit.check(
        abs(norros_rho(2.0, 0.75) - 0.5) <= 1e-10, "norros_rho(2, 0.75) != 0.5"
    )
    crit.finish()


def test_criterion_09_fit_quality_ordering():
    crit = _Criterion(9, "Model II rmse <= Model I rmse; exact synthetic recovery")
    for q in (0.6, 0.7, 0.8, 0.9):
        records = generate_correspondence(q, 0.1, 100.0, 50)
        beta, rho = [r.beta for r in records], [r.rho for r in records]
        rmse_i = fit_model_i(beta, rho).rmse
        rmse_ii = fit_model_ii(beta, rho).rmse
        crit.check(
            rmse_ii <= rmse_i,
            f"q={q}: rmse II {rmse_ii!r} > rmse I {rmse_i!r}",
        )
    beta = np.geomspace(0.05, 10.0, 50)
    rho = 0.1 * beta**-1.5 + 0.6 * np.exp(-2.0 * beta)
    report = fit_model_ii(beta, rho)
    for got, want in zip(report.params, (0.1, 1.5, 0.6, 2.0)):
        crit.check(
            abs(got - want) <= 1e-6, f"synthetic recovery: {report.params}"
        )
    crit.finish()


def test_criterion_10_utilization_transition():
    crit = _Criterion(10, "utilization crosses the M/M/1 line at q=0.6")
    _, rows = figure_dataset(FigureSpec(figure_id=5, q_list=(0.6,)))
    diffs = [(rho, util - rho) for _, rho, util, _ in rows]
    crit.check(
        all(0.05 < rho < 0.95 for rho, _ in diffs),
        "rho grid escapes (0.05, 0.95)",
    )
    crit.check(diffs[0][1] < 0.0, f"low-rho end not below: {diffs[0]}")
    crit.check(diffs[-1][1] > 0.0, f"high-rho end not above: {diffs[-1]}")
    signs = [d > 0.0 for _, d in diffs]
    changes = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    crit.check(changes >= 1, "no sign change of utilization - rho")
    crit.finish()


def test_criterion_11_cli_contract(tmp_path):
    crit = _Criterion(11, "CLI exit codes and loss-free round trips")

    def run(*argv):
        # plain stream redirection, so this also works under pytest -s
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
        return code, out.getvalue(), err.getvalue()

    code, out, _ = run("zeta", "2", "1")
    crit.check(code == 0 and abs(float(out) - oracles.PI2_OVER_6) < 1e-12,
               "zeta success path")
    code, _, err = run("zeta", "0.5", "1")
    crit.check(code == 2 and "s > 1" in err, f"zeta domain exit: {code} {err!r}")
    code, _, _ = run("metrics", "--q", "1.2", "--beta", "1")
    crit.check(code == 2, "metrics invalid q exit")
    code, _, _ = run("solve-beta", "--q", "0.75", "--mean", "1.352",
                     "--beta0", "1.2", "--max-iter", "1")
    crit.check(code == 3, "solver non-convergence exit")

    data_path = tmp_path / "data.csv"
    code, _, _ = run("generate", "--q", "0.7", "--mean-min", "0.1",
                     "--mean-max", "100", "--points", "40", "--out", str(data_path))
    crit.check(code == 0, "generate success path")
    text = data_path.read_text()
    records = parse_correspondence_csv(text)
    from tsqueue.cli import format_correspondence_csv

    crit.check(format_correspondence_csv(records) == text,
               "CSV round trip not byte identical")

    code, out, _ = run("fit", "--model", "II", "--in", str(data_path),
                       "--format", "json")
    payload = json.loads(out)
    crit.check(code == 0 and payload["converged"], "fit success path")
    json_round_trip = json.loads(json.dumps(payload))
    crit.check(json_round_trip == payload, "JSON round trip not loss-free")

    empty = tmp_path / "empty.csv"
    empty.write_text("")
    code, _, _ = run("fit", "--model", "II", "--in", str(empty))
    crit.check(code == 4, "malformed input exit")

    flat = tmp_path / "flat.csv"
    flat.write_text("mean,beta,rho,q\n" + "\n".join("1,1.0,0.5,0.6" for _ in range(6)) + "\n")
    code, _, _ = run("fit", "--model", "I", "--in", str(flat))
    crit.check(code == 3, "degenerate fit exit")
    crit.finish()
