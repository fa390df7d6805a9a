"""Benchmark inputs, each a function of the workload seed alone.

Nothing here imports tsqueue, so every commit measured with the same seed
receives byte-identical argv lists, query parameters and fit files.

Workloads (each a closed loop with one client):

figures  The paper's pipeline: ``figure --id k`` for k cycling 1..5 on the
         default 50-point mean grid and thresholds, with a seed-drawn q-list
         of the default length for that id.  Fresh q values keep the zeta
         cache from carrying over between operations.  Batched zeta and a
         vectorized grid solve should win here.
queries  Library point queries at unrelated (q, beta) over the whole domain,
         corners included: 40% qos_report, 30% solve_beta, 20% tail, 10%
         log_hurwitz_zeta.  Every call is a batch of one, so a batch kernel
         has nothing to gain and its per-call overhead shows as a loss.
fits     ``fit --model I|II --in FILE`` over CSVs written before timing from
         closed-form rho(beta) laws.  No zeta or solver work runs, so changes
         there predict no change here; argparse, CSV parsing, rendering and
         the fits do all the work.
"""

import math
import random

WORKLOADS = ("figures", "queries", "fits")

# Length of the default q-list of each figure id in the CLI.
FIGURE_Q_COUNT = {1: 5, 2: 4, 3: 4, 4: 4, 5: 4}
FIGURE_Q_RANGE = {3: (0.7, 0.97)}  # figure 3 plots the variance: q > 2/3
FIGURE_Q_DEFAULT_RANGE = (0.55, 0.97)
FIGURE_POINTS = 50
FIGURE_MEAN_RANGE = (0.1, 100.0)
FIGURE_THRESHOLDS = (10, 100, 1000)

# One block of ten queries holds each kind in its share, in seed-shuffled order.
QUERY_BLOCK = ("qos",) * 4 + ("solve",) * 3 + ("tail",) * 2 + ("zeta",)
QOS_POINTS = (0, 10, 100, 1000)

FIT_FILES = 1024
FIT_SIZES = (20, 400)


def _rng(workload, seed, stream):
    return random.Random(f"{workload}:{seed}:{stream}")


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def figure_means():
    lo, hi = FIGURE_MEAN_RANGE
    n = FIGURE_POINTS
    return [lo * (hi / lo) ** (j / (n - 1)) for j in range(n)]


def figure_ops(seed, stream="main"):
    """Endless ``figure`` argv lists.

    Each q-list is an evenly spaced grid over the range at a seed-drawn
    offset, so every list covers the range alike and the cost of one
    operation varies little with the draw.
    """
    rng = _rng("figures", seed, stream)
    k = 0
    while True:
        fid = k % 5 + 1
        lo, hi = FIGURE_Q_RANGE.get(fid, FIGURE_Q_DEFAULT_RANGE)
        n = FIGURE_Q_COUNT[fid]
        offset = rng.random()
        qs = [lo + (j + offset) / n * (hi - lo) for j in range(n)]
        yield ["figure", "--id", str(fid), "--q-list", ",".join(map(repr, qs))]
        k += 1


def query_ops(seed, stream="main"):
    """Endless query tuples over the whole (q, beta, A, x) domain.

    1-q is log-uniform in [1e-6, 0.45], beta in [1e-3, 1e2], A in
    [1e-2, 1e4] and x in [1, 1e6].  The q -> 1 corners, where the solver
    and the variance have known defects, stay in the draw.
    """
    rng = _rng("queries", seed, stream)
    while True:
        block = list(QUERY_BLOCK)
        rng.shuffle(block)
        for kind in block:
            q = 1.0 - _log_uniform(rng, 1e-6, 0.45)
            if kind == "solve":
                yield ("solve", q, _log_uniform(rng, 1e-2, 1e4))
                continue
            beta = _log_uniform(rng, 1e-3, 1e2)
            if kind == "qos":
                yield ("qos", q, beta)
            elif kind == "tail":
                yield ("tail", q, beta, int(_log_uniform(rng, 1.0, 1e6)))
            else:
                yield ("zeta", 1.0 / (1.0 - q), 1.0 / (beta * (1.0 - q)))


def fit_files(seed):
    """FIT_FILES fit inputs as dicts with ``model``, ``law``, ``beta``, ``rho``.

    A quarter of the files are fitted with Model I and the rest with Model II,
    so the median operation is a Model II fit, not the boundary between the
    two; an eighth follow the other model's law (Model II on Model I data
    converges slowly, and a larger share of those fits makes the run time
    depend on the seed); half carry 1% multiplicative noise, all of them
    files of their own model's law: a fit of the other model's law to noisy
    data may rightly not converge (Model II on noisy Model I data did not in
    2 of 640 such fits over seeds 1-10), and no fit in this workload should
    fail.  The continuous draws (grid size and range, law parameters) are Latin
    hypercube samples, so every seed covers the same parameter box evenly.
    """
    rng = _rng("fits", seed, "files")
    n = FIT_FILES

    def strata():
        order = list(range(n))
        rng.shuffle(order)
        return [(k + rng.random()) / n for k in order]

    size_u, lo_u, hi_u, p1, p2, p3, p4 = (strata() for _ in range(7))
    files = []
    for i in range(n):
        model = "I" if i % 4 == 0 else "II"
        block = i % 64  # the first 8 of each 64 follow the other model's law
        law = model if block >= 8 else ("II" if model == "I" else "I")
        noisy = block >= 8 and ((block // 4) % 2 == 1 or block < 12)
        size = round(FIT_SIZES[0] * (FIT_SIZES[1] / FIT_SIZES[0]) ** size_u[i])
        bmin, bmax = 0.005 * 10.0 ** lo_u[i], 1.0 + 4.0 * hi_u[i]
        beta = [bmin * (bmax / bmin) ** (j / (size - 1)) for j in range(size)]
        if law == "I":
            a, b = -0.05 + 0.1 * p1[i], 0.8 + 0.3 * p2[i]
            rho = [a + b * math.exp(-x) for x in beta]
        else:
            c, eta = 0.01 + 0.09 * p1[i], 0.1 + 0.5 * p2[i]
            d, mu = 0.5 + 0.5 * p3[i], 0.5 + 1.5 * p4[i]
            rho = [c * x ** -eta + d * math.exp(-mu * x) for x in beta]
        if noisy:
            rho = [r * (1.0 + 0.01 * rng.gauss(0.0, 1.0)) for r in rho]
        files.append({"model": model, "law": law, "beta": beta, "rho": rho,
                      "q": 0.55 + 0.42 * p3[i]})
    return files


def fit_csv(spec):
    """The correspondence CSV the ``fit`` command reads (mean, beta, rho, q)."""
    lines = ["mean,beta,rho,q"]
    for beta, rho in zip(spec["beta"], spec["rho"]):
        lines.append(f"{math.exp(-beta) / (1.0 - math.exp(-beta))!r},"
                     f"{beta!r},{rho!r},{spec['q']!r}")
    return "\n".join(lines) + "\n"


def fit_ops(paths, models, seed, stream="main"):
    """Endless ``fit`` argv lists, one seed-shuffled pass over the files at a time."""
    rng = _rng("fits", seed, stream)
    order = list(range(len(paths)))
    while True:
        rng.shuffle(order)
        for i in order:
            yield ["fit", "--model", models[i], "--in", paths[i], "--format", "json"]
