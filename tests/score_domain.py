"""Score the betas two versions of the package solve across the domain,
against mpmath, under the oracle rule of ROADMAP.md.

    python tests/score_domain.py PARENT_REF [NEW_REF] [--draws N]

run from the repo root, imports the package at ``PARENT_REF`` and in the
working tree (or at ``NEW_REF``) side by side, each extracted with
``git archive`` into a temporary directory and imported under a name of
its own, and scores two seeded sets of betas:

- grid betas: ``generate_correspondence(q)`` on the default 50-point mean
  grid at q = 0.55 + 0.42 i/29, i = 0..29, 1,500 betas;
- cold solves: ``solve_beta(q, A)`` from its default start at 400 draws
  of the benchmark's queries domain, 1 - q log-uniform in [1e-6, 0.45]
  and A log-uniform in [1e-2, 1e4] (``random.Random(20261020)``).

Each beta that differs between the two sides is scored against the exact
root of mean(q, beta) = A (``score_goldens.exact_root``), and each set
prints the rule's clauses as ``score_goldens.py`` does: the counts of
closer, further and same, the worst and the median error before and
after; then the median, mean and worst error over every draw of the set,
moved or not.  ``--draws N`` takes the first N draws of each set, to keep
a run short: an exact root takes about 0.1 s, and every draw takes one.
It adds no check to the test suite.
"""

import argparse
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

import score_goldens

GRIDS = 30
SOLVES = 400


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


def score(title, old, new):
    """The rule's clauses over the betas that moved, then the median, mean
    and worst error over every draw, before and after."""
    result = score_goldens.Score(title)
    errors = []
    for (q, mean, before), (_, _, after) in zip(old, new):
        exact = score_goldens.exact_root(q, mean)
        errors.append((score_goldens.rel_error(before, exact),
                       score_goldens.rel_error(after, exact)))
        if before != after:
            result.add(f"q={q!r} mean={mean!r}", (q, mean), before, after, exact)
    print(f"{title}: {len(result.cells)} of {len(new)} moved")
    result.report()
    for what, f in (("median", statistics.median), ("mean", statistics.mean), ("worst", max)):
        print(f"  every draw: {what} {f(e[0] for e in errors):.4g} -> "
              f"{f(e[1] for e in errors):.4g}")


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("new", nargs="?")
    parser.add_argument("--draws", type=int, default=max(GRIDS * 50, SOLVES),
                        help="draws per set, from the first (default: all)")
    args = parser.parse_args(argv)
    print(f"oracle rule: {args.parent} -> {args.new or 'working tree'}")
    with tempfile.TemporaryDirectory() as tmp:
        old = import_tree(args.parent, Path(tmp), "tsqueue_parent")
        new = import_tree(args.new, Path(tmp), "tsqueue_new")
        score("grid betas", grid_betas(old, args.draws), grid_betas(new, args.draws))
        score("cold solves", solve_betas(old, args.draws), solve_betas(new, args.draws))


if __name__ == "__main__":
    main(sys.argv[1:])
