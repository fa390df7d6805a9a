"""Score the numbers two versions of the package give across the domain,
against mpmath, under the oracle rule of ROADMAP.md.

    python tests/score_domain.py PARENT_REF [NEW_REF] [--draws N]

run from the repo root, imports the package at ``PARENT_REF`` and in the
working tree (or at ``NEW_REF``) side by side, each extracted with
``git archive`` into a temporary directory and imported under a name of
its own, and scores four seeded sets:

- grid betas: ``generate_correspondence(q)`` on the default 50-point mean
  grid at q = 0.55 + 0.42 i/29, i = 0..29, 1,500 betas;
- cold solves: ``solve_beta(q, A)`` from its default start at 400 draws
  of the benchmark's queries domain, 1 - q log-uniform in [1e-6, 0.45]
  and A log-uniform in [1e-2, 1e4] (``random.Random(20261020)``);
- query values: ``qos_report(QueueModel(q, beta), (0, 10, 100, 1000))``,
  the benchmark's qos query, and ``tail(model, x)`` at 200 draws of the
  same domain, beta log-uniform in [1e-3, 1e2] and x in [1, 1e6]
  (``random.Random(20261021)``).  Each field is a set of its own (every
  P(i > x) one set, ``tail``); the tail exponent, s - 1, is not scored;
- storage-model rho: ``norros_rho(mean, hurst)`` at 400 draws, half over
  the whole domain (mean log-uniform in [1e-300, 1e300], hurst uniform in
  [0.5, 1)) and half where the figures read it (mean log-uniform in
  [0.1, 100], hurst = 1.5 - q for q uniform in [0.55, 0.97])
  (``random.Random(20261022)``).

A beta is scored against the exact root of mean(q, beta) = A
(``score_goldens.exact_root``), a query value against the law at the
draw's (q, beta) (``oracles.law_moments``, ``score_goldens.overflow`` and
``score_goldens.tail_coefficient``), a rho against ``oracles.norros_rho``
at the draw's (mean, hurst); a value whose exact counterpart lies
outside the normal double range, or that the package leaves out (the
variance at q <= 2/3), is counted as not scored.  Each set prints the
number of values that differ between the two sides, the rule's clauses
over them as ``score_goldens.py`` does (the counts of closer, further and
same, the worst and the median error before and after), then the median,
mean and worst error over every scored value, moved or not.  ``--draws N``
takes the first N draws of each set, to keep a run short: an exact root
takes about 0.1 s, and every draw takes one.  It adds no check to the
test suite.
"""

import argparse
import collections
import importlib.util
import io
import math
import random
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import oracles
import score_goldens

GRIDS = 30
SOLVES = 400
QUERIES = 200
NORROS = 400
QOS_POINTS = (0, 10, 100, 1000)  # perfbench/workloads.py's QOS_POINTS


def import_tree(ref, root, name):
    """The package at ``ref`` (None: the working tree's src/) as module ``name``."""
    if ref is None:
        package = Path("src/tsqueue").resolve()
    else:
        archive = subprocess.run(["git", "archive", ref, "src/tsqueue"], capture_output=True,
                                 check=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(root / name)
        package = root / name / "src" / "tsqueue"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def grid_draws():
    return [(0.55 + 0.42 * i / (GRIDS - 1), None) for i in range(GRIDS)]


def solve_draws():
    rng = random.Random(20261020)
    return [(1.0 - math.exp(rng.uniform(math.log(1e-6), math.log(0.45))),
             math.exp(rng.uniform(math.log(1e-2), math.log(1e4)))) for _ in range(SOLVES)]


def grid_betas(package, draws):
    """(q, mean, beta) of each grid point, grid by grid, the first ``draws``."""
    points = []
    for q, _ in grid_draws():
        points += [(q, r.mean, r.beta) for r in package.generate_correspondence(q)]
        if len(points) >= draws:
            break
    return points[:draws]


def solve_betas(package, draws):
    return [(q, A, package.solve_beta(q, A).beta) for q, A in solve_draws()[:draws]]


def query_draws():
    rng = random.Random(20261021)
    return [(1.0 - math.exp(rng.uniform(math.log(1e-6), math.log(0.45))),
             math.exp(rng.uniform(math.log(1e-3), math.log(1e2))),
             int(math.exp(rng.uniform(0.0, math.log(1e6))))) for _ in range(QUERIES)]


def query_values(package, draws):
    """(q, beta, {field: value}) of each query draw, the first ``draws``."""
    rows = []
    for q, beta, x in query_draws()[:draws]:
        model = package.QueueModel(q, beta)
        report = package.qos_report(model, QOS_POINTS)
        values = {"mean": report.mean, "variance": report.variance,
                  "utilization": report.utilization, "p0": report.p0,
                  "tail_coefficient": report.tail_coefficient}
        values.update((f"P_gt_{point}", p) for point, p in report.tail_samples)
        values[f"P_gt_{x}"] = package.tail(model, x)
        rows.append((q, beta, values))
    return rows


def query_exact(q, beta, fields):
    mean, variance, utilization = oracles.law_moments(q, beta)
    exact = {"mean": mean, "variance": variance, "utilization": utilization,
             "p0": 1 - utilization, "tail_coefficient": score_goldens.tail_coefficient(q, beta)}
    for field in fields:
        if field.startswith("P_gt_"):
            exact[field] = score_goldens.overflow(q, beta, int(field[len("P_gt_"):]))
    return exact


def norros_draws():
    rng = random.Random(20261022)
    draws = []
    for _ in range(NORROS // 2):
        draws.append((math.exp(rng.uniform(math.log(1e-300), math.log(1e300))),
                      rng.uniform(0.5, 1.0)))
        draws.append((math.exp(rng.uniform(math.log(0.1), math.log(100.0))),
                      1.5 - rng.uniform(0.55, 0.97)))
    return draws


def norros_values(package, draws):
    return [(mean, hurst, package.norros_rho(mean, hurst))
            for mean, hurst in norros_draws()[:draws]]


def score_norros(old, new):
    cells, unscored = [], 0
    for (mean, hurst, before), (_, _, after) in zip(old, new):
        exact = oracles.norros_rho(mean, hurst)
        if not sys.float_info.min <= exact <= sys.float_info.max:
            unscored += 1
            continue
        cells.append((f"mean={mean!r} hurst={hurst!r}", (mean, hurst), before, after, exact))
    score("storage-model rho", cells)
    if unscored:
        print(f"not scored (outside the normal range): rho {unscored}")


def score(title, cells):
    """The rule's clauses over the cells (label, point, before, after, exact)
    that moved, then the median, mean and worst error over every cell,
    before and after."""
    result = score_goldens.Score(title)
    errors = []
    for label, point, before, after, exact in cells:
        errors.append((score_goldens.rel_error(before, exact),
                       score_goldens.rel_error(after, exact)))
        if before != after:
            result.add(label, point, before, after, exact)
    print(f"{title}: {len(result.cells)} of {len(cells)} moved")
    result.report()
    for what, f in (("median", statistics.median), ("mean", statistics.mean), ("worst", max)):
        print(f"  every draw: {what} {f(e[0] for e in errors):.4g} -> "
              f"{f(e[1] for e in errors):.4g}")


def score_betas(title, old, new):
    score(title, [(f"q={q!r} mean={mean!r}", (q, mean), before, after,
                   score_goldens.exact_root(q, mean))
                  for (q, mean, before), (_, _, after) in zip(old, new)])


def score_queries(old, new):
    sets, unscored = collections.defaultdict(list), collections.Counter()
    for (q, beta, before), (_, _, after) in zip(old, new):
        exact = query_exact(q, beta, before)
        for field, value in before.items():
            kind = "tail" if field.startswith("P_gt_") else field
            if value is None or not (sys.float_info.min <= exact[field] <= sys.float_info.max):
                unscored[kind] += 1
                continue
            sets[kind].append((f"q={q!r} beta={beta!r} {field}", (q, beta), value,
                               after[field], exact[field]))
    for kind, cells in sets.items():
        score(f"query {kind}", cells)
    if unscored:
        print("not scored (outside the normal range, or left out):",
              ", ".join(f"{kind} {n}" for kind, n in sorted(unscored.items())))


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("new", nargs="?")
    parser.add_argument("--draws", type=int, default=max(GRIDS * 50, SOLVES, QUERIES, NORROS),
                        help="draws per set, from the first (default: all)")
    args = parser.parse_args(argv)
    print(f"oracle rule: {args.parent} -> {args.new or 'working tree'}")
    with tempfile.TemporaryDirectory() as tmp:
        old = import_tree(args.parent, Path(tmp), "tsqueue_parent")
        new = import_tree(args.new, Path(tmp), "tsqueue_new")
        score_betas("grid betas", grid_betas(old, args.draws), grid_betas(new, args.draws))
        score_betas("cold solves", solve_betas(old, args.draws), solve_betas(new, args.draws))
        score_queries(query_values(old, args.draws), query_values(new, args.draws))
        score_norros(norros_values(old, args.draws), norros_values(new, args.draws))


if __name__ == "__main__":
    main(sys.argv[1:])
