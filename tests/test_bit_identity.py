"""Bit-for-bit pins on the scaled zeta sum and the beta solver.

Speed work on ``tsqueue.zeta`` and ``tsqueue.solver`` must not change one
floating-point operation.  These tests compare ``repr`` strings, so any
last-bit change fails, against captures under ``tests/golden/``:

- ``zeta-grid.txt``: S(sigma, a) for sigma in {s-1, s, s+1, s-2} (where
  sigma > 1) over a log grid of s and a;
- ``solver-grid.txt``: the full ``SolverResult`` on the default figure
  grids (6 q x 50 means from ``tsqueue.fitting``'s own mean grid, so the
  targets are the ones ``generate`` and ``figure`` solve for) and on the
  35-point round-trip grid of acceptance criterion 7.

Neither capture runs numpy code, so numpy's choice of CPU kernels cannot
change them.

To capture again after an intended change of the arithmetic, run from the
repo root:

    PYTHONPATH=src python tests/test_bit_identity.py
"""

from pathlib import Path

from tsqueue.distribution import QueueModel, mean
from tsqueue.fitting import _mean_grid
from tsqueue.solver import solve_beta
from tsqueue.zeta import scaled_hurwitz_zeta

GOLDEN = Path(__file__).parent / "golden"

ZETA_S = (2.0001, 2.5, 3.0, 5.0, 10.0, 100.0, 1e3, 1e4, 1e6)
ZETA_A = (1e-3, 0.1, 1.0, 10.0, 1e3, 1e6, 1e12)

FIGURE_Q = (0.6, 0.7, 0.75, 0.8, 0.9, 0.95)  # every q of the default figures
FIGURE_MEANS = tuple(_mean_grid(0.1, 100.0, 50))  # the default figure grid
ROUND_TRIP_Q = (0.55, 0.6, 0.7, 0.75, 0.8, 0.9, 0.95)
ROUND_TRIP_BETA = (0.1, 0.5, 1.0, 2.0, 5.0)


def zeta_grid_text():
    lines = []
    for s in ZETA_S:
        for a in ZETA_A:
            for sigma in (s - 1.0, s, s + 1.0, s - 2.0):
                if sigma > 1.0:
                    lines.append(f"{sigma!r} {a!r} {scaled_hurwitz_zeta(sigma, a)!r}")
    return "\n".join(lines) + "\n"


def solver_grid_text():
    cases = [(q, A) for q in FIGURE_Q for A in FIGURE_MEANS]
    cases += [
        (q, mean(QueueModel(q, beta))) for q in ROUND_TRIP_Q for beta in ROUND_TRIP_BETA
    ]
    return "\n".join(f"{q!r} {A!r} {solve_beta(q, A)!r}" for q, A in cases) + "\n"


CAPTURES = {"zeta-grid.txt": zeta_grid_text, "solver-grid.txt": solver_grid_text}


def test_zeta_grid_is_bit_identical():
    assert zeta_grid_text() == (GOLDEN / "zeta-grid.txt").read_text(encoding="utf-8")


def test_solver_grid_is_bit_identical():
    assert solver_grid_text() == (GOLDEN / "solver-grid.txt").read_text(encoding="utf-8")


if __name__ == "__main__":
    for name, text in CAPTURES.items():
        (GOLDEN / name).write_text(text(), encoding="utf-8")
