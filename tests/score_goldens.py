"""Score the golden numbers a change moved against mpmath, under the oracle
rule of ROADMAP.md.

    python tests/score_goldens.py PARENT_REF [NEW_REF]

run from the repo root, reads every csv capture under ``tests/golden/`` at
``PARENT_REF`` (through ``git show``) and in the working tree (or at
``NEW_REF``), and scores each number that differs against an mpmath oracle
(``tests/oracles.py``) at 40 digits and more.  It runs no package code, so
either side can be any commit.

- A grid row is the point (q, mean): ``generate`` gives its mean, and a
  figure's rows run over the default mean grid (the means of the new
  ``generate.csv``) once per q.  Its beta is scored against the exact root
  of mean(q, beta) = mean, and its variance, utilization and overflow
  probabilities against the law at that root, so a beta's own error counts
  in what is read at it.  rho is scored against the storage model's inverse
  at H = 1.5 - q.
- ``metrics``, ``pmf``, ``tail``, ``zeta``, ``solve-beta`` and ``norros-rho``
  are scored at their own arguments, as one set.
- The betas of ``solver-grid.txt`` are scored against the exact root, as
  one set.
- ``fit`` and ``fit-model-i`` are scored by the exact SSE of each side's
  parameters on the new ``generate.csv`` data, at 50 digits.
- Other changed numbers (Model I and II predictions, iteration counts,
  residuals, the tail exponent) are counted as not scored.

For each set it prints the rule's clauses: (a) every changed number whose
old relative error exceeds 1e-14 moves closer; (b) over the rest, neither
the worst nor the median error rises; (c) no changed number's error exceeds
the worst old error of the set; (d) the counts of closer, further and same.
Each miss is printed with its point.
"""

import collections
import csv
import io
import math
import re
import statistics
import subprocess
import sys
from functools import lru_cache

import mpmath

import oracles

DEFECT = 1e-14  # clause (a): an old error above this is a defect being fixed
GRID_FILES = ("generate", "figure1", "figure2", "figure3", "figure4", "figure5",
              "figure5-q-list")
POINT_FILES = ("metrics", "metrics-no-variance", "pmf", "tail", "zeta", "solve-beta",
               "norros-rho")
FIT_FILES = ("fit", "fit-model-i")
UNSCORED = ("rho_model_i", "rho_model_ii", "iterations", "residual", "fallback_used")


def read_golden(ref, name):
    """The text of tests/golden/<name> at ref (None: the working tree)."""
    path = f"tests/golden/{name}"
    if ref is None:
        with open(path, encoding="utf-8") as f:
            return f.read()
    return subprocess.run(["git", "show", f"{ref}:{path}"], capture_output=True,
                          text=True, check=True).stdout


def read_csv(ref, name):
    return list(csv.DictReader(io.StringIO(read_golden(ref, f"{name}.csv"))))


def _digits(q):
    # law_moments' precision: 45 digits plus those mp_excess_sum may lose
    return 45 + 2 * math.ceil(math.log10(1.0 / (1.0 - q)))


def _law(q, beta):
    """(s, c) at the exact binary q and the mpmath beta."""
    q = mpmath.mpf(q)
    return 1 / (1 - q), 1 / (mpmath.mpf(beta) * (1 - q))


@lru_cache(maxsize=None)
def exact_root(q, mean):
    """The beta at which the law's mean is the double ``mean``, by the
    secant method in ln beta from the start of the law's own q -> 1 limit."""
    with mpmath.workdps(_digits(q)):
        def log_ratio(log_beta):  # ln(law mean / mean)
            s, c = _law(q, mpmath.exp(log_beta))
            e1 = oracles.mp_excess_sum(s, c, 1) / (1 + oracles.mp_excess_sum(s, c, 0))
            return mpmath.log(e1) - mpmath.log(mean)

        start = mpmath.log(mpmath.log1p(1 / mpmath.mpf(mean)))
        return +mpmath.exp(mpmath.findroot(log_ratio, (start, start * (1 + mpmath.mpf(2) ** -10))))


def overflow(q, beta, x):
    """P(i > x) = (c/(c+x+1))**s S(s, c+x+1) / S(s, c)."""
    with mpmath.workdps(_digits(q)):
        s, c = _law(q, beta)
        a = c + x + 1
        return +((c / a) ** s * oracles._mp_scaled_sum(s, a) / oracles._mp_scaled_sum(s, c))


def tail_coefficient(q, beta):
    """c**s / (S (s - 1)), the B of P(i > x) ~ B x**(1 - s)."""
    with mpmath.workdps(_digits(q)):
        s, c = _law(q, beta)
        return +(c**s / (oracles._mp_scaled_sum(s, c) * (s - 1)))


def law_value(column, q, beta):
    """The exact value of a law column at (q, beta), or None if not scored."""
    if column in ("mean", "variance", "utilization"):
        mean, variance, util = oracles.law_moments(q, beta)
        return {"mean": mean, "variance": variance, "utilization": util}[column]
    if column == "p0":
        return 1 - oracles.law_moments(q, beta)[2]
    for prefix in ("overflow_at_", "P_gt_"):
        if column.startswith(prefix):
            return overflow(q, beta, int(column[len(prefix):]))
    return None


def grid_exact(column, q, mean):
    if column == "beta":
        return exact_root(q, mean)
    if column in ("rho", "mm1_utilization"):
        return oracles.norros_rho(mean, 1.5 - q)
    return law_value(column, q, exact_root(q, mean))


def point_exact(name, column, row):
    f = {key: float(value) for key, value in row.items() if value not in ("", "True", "False")}
    if name == "zeta":
        with mpmath.workdps(45):
            return +(oracles._mp_scaled_sum(mpmath.mpf(f["s"]), mpmath.mpf(f["a"]))
                     * mpmath.mpf(f["a"]) ** -mpmath.mpf(f["s"]))
    if name == "solve-beta" and column == "beta":
        return exact_root(f["q"], f["mean"])
    if name == "norros-rho":
        return oracles.norros_rho(f["mean"], f["hurst"])
    if name == "pmf":
        with mpmath.workdps(_digits(f["q"])):
            s, c = _law(f["q"], f["beta"])
            return +((c / (c + int(f["i"]))) ** s / oracles._mp_scaled_sum(s, c))
    if name == "tail":
        return overflow(f["q"], f["beta"], int(f["x"]))
    if name.startswith("metrics") and column == "tail_coefficient":
        return tail_coefficient(f["q"], f["beta"])
    if name.startswith("metrics"):
        return law_value(column, f["q"], f["beta"])
    return None


def rel_error(value, exact):
    return float(abs(mpmath.mpf(value) - exact) / abs(exact))


class Score:
    """The changed cells of one set: (label, old error, new error)."""

    def __init__(self, title):
        self.title, self.cells, self.points = title, [], set()

    def add(self, label, point, old, new, exact):
        self.cells.append((label, rel_error(old, exact), rel_error(new, exact)))
        self.points.add(point)

    def report(self):
        if not self.cells:
            print(f"{self.title}: no changed number")
            return
        closer = sum(new < old for _, old, new in self.cells)
        further = sum(new > old for _, old, new in self.cells)
        print(f"{self.title}: {len(self.cells)} cells ({len(self.points)} points)")
        print(f"  (d) closer/further/same {closer}/{further}/{len(self.cells) - closer - further}")
        defects = [cell for cell in self.cells if cell[1] > DEFECT]
        if not defects:
            print(f"  (a) no old error above {DEFECT:g}: holds vacuously")
        for label, old, new in defects:
            print(f"  (a) {'met' if new < old else 'MISS'}: {label}: {old:.3g} -> {new:.3g}")
        rest = [cell for cell in self.cells if cell[1] <= DEFECT]
        if not rest:
            print("  (b) every changed number is a defect: holds vacuously")
        else:
            for what, f in (("worst", max), ("median", statistics.median)):
                old, new = f(c[1] for c in rest), f(c[2] for c in rest)
                print(f"  (b) {what} {old:.3g} -> {new:.3g}: {'met' if new <= old else 'MISS'}")
                if what == "worst" and new > old:
                    label, old, new = max(rest, key=lambda c: c[2])
                    print(f"      at {label}: {old:.3g} -> {new:.3g}")
        worst_old = max(c[1] for c in self.cells)
        misses = [cell for cell in self.cells if cell[2] > worst_old]
        print(f"  (c) worst old error {worst_old:.3g}: "
              + (f"{len(misses)} MISS" if misses else "met"))
        for label, old, new in misses:
            print(f"      {label}: {old:.3g} -> {new:.3g}")


def grid_scores(old_ref, new_ref, unscored):
    sets = {}
    grid = [float(r["mean"]) for r in read_csv(new_ref, "generate")]
    for name in GRID_FILES:
        old_rows, new_rows = read_csv(old_ref, name), read_csv(new_ref, name)
        for i, (old, new) in enumerate(zip(old_rows, new_rows)):
            q = float(new["q"])
            mean = float(new["mean"]) if "mean" in new else grid[i % len(grid)]
            for column in new:
                if column in ("q", "mean") or old[column] == new[column]:
                    continue
                if column in UNSCORED:
                    unscored[f"{name}:{column}"] += 1
                    continue
                kind = "overflow probabilities" if column.startswith("overflow_at_") else column
                score = sets.setdefault(kind, Score(f"{kind} (grid rows)"))
                label = f"{name} q={q!r} mean={mean!r} {column}"
                score.add(label, (q, mean), old[column], new[column],
                          grid_exact(column, q, mean))
    return sets.values()


def point_scores(old_ref, new_ref, unscored):
    score = Score("single-point outputs (" + ", ".join(POINT_FILES) + ")")
    for name in POINT_FILES:
        (old,), (new,) = read_csv(old_ref, name), read_csv(new_ref, name)
        for column in new:
            if old[column] == new[column]:
                continue
            exact = point_exact(name, column, new)
            if exact is None:
                unscored[f"{name}:{column}"] += 1
            else:
                score.add(f"{name} {column}", (name, column), old[column], new[column], exact)
    return score


def solver_grid_scores(old_ref, new_ref):
    """The betas of solver-grid.txt, lines ``q A SolverResult(beta=...)``."""
    score = Score("beta (solver-grid.txt)")
    line = re.compile(r"(\S+) (\S+) SolverResult\(beta=([^,]+),")
    old, new = (read_golden(ref, "solver-grid.txt").splitlines() for ref in (old_ref, new_ref))
    for a, b in zip(old, new):
        (q, mean, before), (_, _, after) = line.match(a).groups(), line.match(b).groups()
        if before != after:
            q, mean = float(q), float(mean)
            score.add(f"q={q!r} mean={mean!r}", (q, mean), before, after, exact_root(q, mean))
    return score


def fit_sse(row, beta, rho):
    with mpmath.workdps(50):
        if row["model"] == "I":
            a, b = (mpmath.mpf(row[k]) for k in ("a", "b"))
            model = [a + b * mpmath.exp(-x) for x in beta]
        else:
            c, eta, d, mu = (mpmath.mpf(row[k]) for k in ("c", "eta", "d", "mu"))
            model = [c * x ** -eta + d * mpmath.exp(-mu * x) for x in beta]
        return mpmath.fsum((y - m) ** 2 for y, m in zip(rho, model))


def fit_scores(old_ref, new_ref):
    rows = read_csv(new_ref, "generate")
    beta = [mpmath.mpf(float(r["beta"])) for r in rows]
    rho = [mpmath.mpf(float(r["rho"])) for r in rows]
    for name in FIT_FILES:
        (old,), (new,) = read_csv(old_ref, name), read_csv(new_ref, name)
        if old == new:
            print(f"{name}: unchanged")
            continue
        before, after = fit_sse(old, beta, rho), fit_sse(new, beta, rho)
        change = float((after - before) / before)
        verdict = "MISS (exact SSE higher)" if after > before else "met"
        print(f"{name}: exact SSE on the new data, new fit against the old: "
              f"{change:+.3g} relative: {verdict}")


def main(argv):
    if len(argv) not in (2, 3):
        sys.exit(__doc__)
    old_ref, new_ref = argv[1], (argv[2] if len(argv) == 3 else None)
    print(f"oracle rule: {old_ref} -> {new_ref or 'working tree'}")
    unscored = collections.Counter()
    for score in grid_scores(old_ref, new_ref, unscored):
        score.report()
    point_scores(old_ref, new_ref, unscored).report()
    solver_grid_scores(old_ref, new_ref).report()
    fit_scores(old_ref, new_ref)
    for key, count in unscored.items():
        print(f"not scored: {key}, {count} changed cells")


if __name__ == "__main__":
    main(sys.argv)
