"""Compare the fits two versions of the package make, report by report.

    python tests/score_fits.py PARENT_REF [NEW_REF] [--seeds 7,308] [--files N]

run from the repo root, imports the package at ``PARENT_REF`` and in the
working tree (or at ``NEW_REF``) side by side, as ``score_domain.py``
does, and fits on both sides:

- each file of the benchmark's ``fits`` workload at each seed
  (``perfbench/workloads.fit_files``), with the file's own model;
  ``--files N`` takes the first N files of each seed;
- Model I and Model II on the default 50-point correspondence grid at
  each q of the default figures, generated by the new side.

Both sides run in one process, so they see the same numpy kernels and
libm.  Each fit's report, or the error it raised, is compared by
``repr``.  Each changed fit prints its exact SSE on both sides, at 50
digits (``score_goldens.fit_sse``), and any change in convergence or in
iterations; a summary counts the changed fits whose exact SSE is lower,
higher and the same, with the worst rise relative to the sum of rho
squared.  It exits 1 if any fit changed.  It adds no check to the test
suite.
"""

import argparse
import sys
import tempfile
from pathlib import Path

import mpmath

import score_domain
import score_goldens

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402  (perfbench/, which imports no tsqueue)

FIGURE_Q = (0.6, 0.7, 0.75, 0.8, 0.9, 0.95)  # every q of the default figures
PARAMS = {"I": ("a", "b"), "II": ("c", "eta", "d", "mu")}


def cases(package, seeds, files):
    """(label, model, beta, rho) of every fit to make."""
    for seed in seeds:
        for i, spec in enumerate(workloads.fit_files(seed)[:files]):
            yield f"seed {seed} file {i}", spec["model"], spec["beta"], spec["rho"]
    for q in FIGURE_Q:
        records = package.generate_correspondence(q)
        beta, rho = [r.beta for r in records], [r.rho for r in records]
        for model in ("I", "II"):
            yield f"grid q={q}", model, beta, rho


def fit(package, model, beta, rho):
    """(the report, None), or (the report the error carries or None, the
    error as text)."""
    fitter = package.fitting.fit_model_i if model == "I" else package.fitting.fit_model_ii
    try:
        return fitter(beta, rho), None
    except Exception as exc:  # the two sides' error classes are not the same objects
        return getattr(exc, "report", None), f"{type(exc).__name__}: {exc}"


def exact_sse(report, beta, rho):
    row = {"model": report.model_kind, **dict(zip(PARAMS[report.model_kind], report.params))}
    return score_goldens.fit_sse(row, beta, rho)


def compare(label, model, beta, rho, old, new, tally):
    """Print what changed between the two sides' fits; whether anything did."""
    (old_report, old_error), (new_report, new_error) = old, new
    if repr(old_report) == repr(new_report) and old_error == new_error:
        return False
    print(f"{label} (Model {model}): changed")
    if old_error != new_error:
        print(f"  error: {old_error} -> {new_error}")
    if old_report is None or new_report is None:
        return True
    for name in ("converged", "iterations"):
        before, after = getattr(old_report, name), getattr(new_report, name)
        if before != after:
            print(f"  {name}: {before} -> {after}")
    with mpmath.workdps(50):
        beta, rho = [mpmath.mpf(b) for b in beta], [mpmath.mpf(r) for r in rho]
        before, after = exact_sse(old_report, beta, rho), exact_sse(new_report, beta, rho)
        rise = float((after - before) / mpmath.fsum(r * r for r in rho))
    print(f"  exact SSE {mpmath.nstr(before, 50)} -> {mpmath.nstr(after, 50)}")
    tally["lower" if after < before else "higher" if after > before else "same"] += 1
    tally["worst"] = max(tally["worst"], rise)
    return True


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("new", nargs="?")
    parser.add_argument("--seeds", default="7,308", help="fits workload seeds (default: 7,308)")
    parser.add_argument("--files", type=int, default=workloads.FIT_FILES,
                        help="files per seed, from the first (default: all)")
    args = parser.parse_args(argv)
    seeds = [int(seed) for seed in args.seeds.split(",")]
    print(f"fits: {args.parent} -> {args.new or 'working tree'}")
    tally = {"lower": 0, "higher": 0, "same": 0, "worst": -float("inf")}
    total = changed = raised = 0
    with tempfile.TemporaryDirectory() as tmp:
        old = score_domain.import_tree(args.parent, Path(tmp), "tsqueue_parent")
        new = score_domain.import_tree(args.new, Path(tmp), "tsqueue_new")
        for label, model, beta, rho in cases(new, seeds, args.files):
            before, after = fit(old, model, beta, rho), fit(new, model, beta, rho)
            total += 1
            raised += after[1] is not None
            changed += compare(label, model, beta, rho, before, after, tally)
    if not changed:
        print(f"every fit unchanged: {total} fits, {raised} of them raising")
        return 0
    print(f"{changed} of {total} fits changed; exact SSE lower/higher/same "
          f"{tally['lower']}/{tally['higher']}/{tally['same']}")
    if tally["lower"] + tally["higher"] + tally["same"]:
        print(f"  worst rise relative to the sum of rho squared: {tally['worst']:.3g}")
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
