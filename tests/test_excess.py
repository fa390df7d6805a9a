"""The excess pass ``zeta.excess_sums``: its five series, and the K2 that
the solver's curvature reads, against mpmath, its identities with the
single sum, its edges, and its bits.

``tests/golden/excess-grid.txt`` pins the pass by ``repr`` over a grid of
(q, c), so a change of one floating-point operation, or of the libm
variant that evaluates its log1p and exp, fails it.  To capture again
after an intended change of the arithmetic, run from the repo root:

    PYTHONPATH=src python tests/test_excess.py
"""

import math
import random
import sys
from pathlib import Path

import mpmath
import pytest

from tsqueue.errors import DomainError
from tsqueue.fitting import generate_correspondence
from tsqueue.zeta import _excess_pass, excess_sums, scaled_hurwitz_zeta

import oracles

GOLDEN = Path(__file__).parent / "golden" / "excess-grid.txt"

# 1 - q a power of two keeps s = 1/(1-q) exact, so the oracle and the pass
# sum the same series; q = 0.6 and 0.5000001 do not, and s rounds.
EXACT_Q = (0.75, 0.875, 1.0 - 2.0**-10, 1.0 - 2.0**-26)
GRID_Q = EXACT_Q + (0.6, 0.5000001, 0.7, 0.95, 0.999999)
GRID_C = (1e-3, 0.37, 1.0, 4.0, 12.5, 1e3, 1e7, 1e12)


def _args(q, c):
    return 1.0 / (1.0 - q), c, q


def excess_grid_text():
    return "".join(f"{q!r} {c!r} {excess_sums(*_args(q, c))!r}\n" for q in GRID_Q for c in GRID_C)


def test_excess_grid_is_bit_identical():
    assert excess_grid_text() == GOLDEN.read_text(encoding="utf-8")


@pytest.mark.parametrize("q", EXACT_Q)
@pytest.mark.parametrize("c", GRID_C)
def test_against_mpmath(q, c):
    # Each series, in units of c**j, within 1e-12 relative or below the
    # smallest normal double.  (sigma, j) for E0, E1, E2, G1 and H2.
    got = excess_sums(*_args(q, c))
    s = 1.0 / (1.0 - q)
    with mpmath.workdps(45 + 2 * math.ceil(math.log10(s))):
        for value, (shift, j) in zip(got, [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2)]):
            ref = oracles.mp_excess_sum(mpmath.mpf(s + shift), mpmath.mpf(c), j) / mpmath.mpf(c) ** j
            assert abs(value - ref) <= 1e-12 * ref + 2.3e-308, (q, c, shift, j)


def test_curvature_series_against_mpmath():
    # K2 = sum x**2 t/(1 + x)**2 (sigma = s + 2, j = 2) and K3 = H2 - K2
    # (sigma = s + 2, j = 3) over a seeded box of exact s, with cutoffs at
    # N = 0 and N >= 1: K2 within its returned remainder bound plus 1e-12
    # relative, and K3, whose difference cancels to about s ulps where the
    # weight sits at small x, within that bound plus 1e-14 s relative.
    rng = random.Random(32)
    cutoffs = set()
    for _ in range(40):
        q = 1.0 - 2.0 ** -rng.randint(2, 26)
        s = 1.0 / (1.0 - q)
        c = s * 2.0 ** rng.uniform(-10.0, 8.0)
        *_, h2, k2, bound = _excess_pass(s, c, q)
        cutoffs.add(2.0 * math.pi * c >= s + 23.0)
        with mpmath.workdps(45 + 3 * math.ceil(math.log10(s))):
            sigma, mc = mpmath.mpf(s) + 2, mpmath.mpf(c)
            ref2 = oracles.mp_excess_sum(sigma, mc, 2) / mc**2
            ref3 = oracles.mp_excess_sum(sigma, mc, 3) / mc**3
            assert abs(k2 - ref2) <= bound + 1e-12 * ref2 + 2.3e-308, (q, c)
            assert abs(h2 - k2 - ref3) <= bound + 1e-14 * s * ref3 + 2.3e-308, (q, c)
    assert cutoffs == {False, True}


# Not q = 0.5000001: S(s-1, c) takes s - 2 = fl(s) - 2 there, 1.1e-9 off.
@pytest.mark.parametrize("q", [q for q in GRID_Q if q != 0.5000001])
@pytest.mark.parametrize("c", GRID_C)
def test_identities_with_the_single_sum(q, c):
    # S(s, c) = 1 + E0 and S(s-1, c) = 1 + E0 + E1, in units of c.
    s = 1.0 / (1.0 - q)
    e0, e1 = excess_sums(s, c, q)[:2]
    assert abs(1.0 + e0 - scaled_hurwitz_zeta(s, c)) <= 1e-13 * (1.0 + e0)
    assert abs(1.0 + e0 + e1 - scaled_hurwitz_zeta(s - 1.0, c)) <= 1e-13 * (1.0 + e0 + e1)


@pytest.mark.parametrize("q", [1.0 - 2.0**-53, 1.0 - 2.0**-40])
@pytest.mark.parametrize("c", [1e-3, 1.0, 1e3, 1e12, 1e20])
def test_top_of_the_domain(q, c):
    # s = 2**53 and 2**40: the remainder bounds hold (s)_22, which overflows
    # above s = 1e14, as a multiple of P(s) = (s)_21/s**21.
    s = 1.0 / (1.0 - q)
    sums = excess_sums(s, c, q)
    assert all(math.isfinite(v) for v in sums), sums
    assert abs(1.0 + sums[0] - scaled_hurwitz_zeta(s, c)) <= 1e-13 * (1.0 + sums[0])


def test_figure_grids_take_few_direct_terms(monkeypatch):
    # One log1p per direct term.  Over the six default figure grids a fresh
    # pass took 12.29 with corrections to B14, and takes 5.44 with B22.
    calls = [0]
    pass_code = _excess_pass.__wrapped__.__code__
    real = math.log1p

    def counting(x):
        if sys._getframe(1).f_code is pass_code:
            calls[0] += 1
        return real(x)

    monkeypatch.setattr(math, "log1p", counting)
    passes = 0
    for q in (0.6, 0.7, 0.75, 0.8, 0.9, 0.95):
        excess_sums.cache_clear()
        generate_correspondence(q)
        passes += excess_sums.cache_info().misses
    assert calls[0] <= 6.5 * passes, (calls[0], passes)


def test_second_moment_diverges_at_or_below_two_thirds():
    assert excess_sums(*_args(0.6, 1.0))[2] == math.inf
    assert excess_sums(*_args(2.0 / 3.0, 1.0))[2] == math.inf
    assert math.isfinite(excess_sums(*_args(math.nextafter(2.0 / 3.0, 1.0), 1.0))[2])


def test_underflowed_terms_give_zero_sums():
    # (1 + 1e100)**-4 underflows: every term and tail is below the smallest double.
    assert excess_sums(*_args(0.75, 1e-100)) == (0.0, 0.0, 0.0, 0.0, 0.0)


def test_tails_from_the_exact_first_term(monkeypatch):
    # Where the cutoff lands on k = 0, no term but t_0 = exp2(-0.0) = 1 is
    # read, so no last bit of libm's log1p or exp2 reaches the sums.
    seen = []
    for name in ("log1p", "exp2"):
        real = getattr(math, name)
        monkeypatch.setattr(math, name, lambda x, real=real: seen.append(x) or real(x))
    e0 = _excess_pass.__wrapped__(*_args(0.75, 1e7))[0]
    assert seen == [0.0, -0.0]
    assert e0 == pytest.approx(1e7 / 3.0 - 0.5)


@pytest.mark.parametrize("s,c,q", [
    (4.0, 0.0, 0.75), (4.0, -1.0, 0.75), (4.0, math.inf, 0.75), (4.0, math.nan, 0.75),
    (4.0, 1.0, 0.5), (4.0, 1.0, 1.0), (2.0, 1.0, 0.75), (math.inf, 1.0, 0.75),
    (3.0, 1.0, 0.75), (math.nextafter(4.0, 5.0), 1.0, 0.75),  # s must be 1/(1-q)
])
def test_rejects_arguments_outside_the_domain(s, c, q):
    with pytest.raises(DomainError):
        excess_sums(s, c, q)


@pytest.mark.parametrize("c", [math.inf, math.nan])
def test_non_finite_shift_is_refused_as_the_single_sum_refuses_it(c):
    with pytest.raises(DomainError, match="must be finite"):
        excess_sums(4.0, c, 0.75)
    with pytest.raises(DomainError, match="must be finite"):
        scaled_hurwitz_zeta(4.0, c)


def test_memoized():
    excess_sums(4.0, 3.25, 0.75)
    before = excess_sums.cache_info().hits
    excess_sums(4.0, 3.25, 0.75)
    assert excess_sums.cache_info().hits == before + 1


if __name__ == "__main__":
    GOLDEN.write_text(excess_grid_text(), encoding="utf-8")
