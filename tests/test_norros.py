import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsqueue.errors import DomainError
from tsqueue.norros import (
    hurst_from_q,
    norros_mean,
    norros_rho,
    q_from_hurst,
)

import oracles

RHO_GRID = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
H_GRID = [0.5, 0.6, 0.75, 0.9]


class TestNorrosMean:
    def test_mm1_anchor(self):
        # H = 1/2 reduces to rho/(1-rho)
        assert norros_mean(0.5, 0.5) == pytest.approx(1.0, rel=1e-12)

    def test_direct_evaluation(self):
        # 0.5**2 / 0.5**3 = 2
        assert norros_mean(0.5, 0.75) == pytest.approx(2.0, rel=1e-12)

    def test_vanishes_at_light_load(self):
        for hurst in H_GRID:
            assert norros_mean(1e-9, hurst) < 1e-8

    @pytest.mark.parametrize("hurst", H_GRID)
    def test_increasing_in_rho(self, hurst):
        values = [norros_mean(rho, hurst) for rho in RHO_GRID]
        assert all(x < y for x, y in zip(values, values[1:]))

    def test_increasing_in_hurst_at_heavy_load(self):
        values = [norros_mean(0.8, hurst) for hurst in H_GRID]
        assert all(x < y for x, y in zip(values, values[1:]))

    @pytest.mark.parametrize(
        "rho,hurst",
        [(0.0, 0.75), (1.0, 0.75), (1.5, 0.75), (0.5, 0.4), (0.5, 1.0), (0.5, math.nan)],
    )
    def test_domain_errors(self, rho, hurst):
        with pytest.raises(DomainError):
            norros_mean(rho, hurst)


class TestNorrosRho:
    def test_mm1_inverse(self):
        assert norros_rho(1.0, 0.5) == pytest.approx(0.5, abs=1e-12)

    def test_known_inverse(self):
        assert norros_rho(2.0, 0.75) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("rho", RHO_GRID)
    @pytest.mark.parametrize("hurst", H_GRID)
    def test_round_trip(self, rho, hurst):
        assert abs(norros_rho(norros_mean(rho, hurst), hurst) - rho) <= 1e-10

    @pytest.mark.parametrize("rho", RHO_GRID)
    @pytest.mark.parametrize("hurst", H_GRID)
    def test_substituted_residual(self, rho, hurst):
        mean = norros_mean(rho, hurst)
        solved = norros_rho(mean, hurst)
        y = mean ** (2.0 * (1.0 - hurst))
        p = 1.0 - solved
        assert abs(p ** (2.0 * hurst) * y + p - 1.0) <= 1e-12

    @pytest.mark.parametrize("mean", [1e-40, 1e-20, 1e300])
    def test_against_oracle(self, mean):
        # A bisection for 1 - rho read 0.0, 1.0000000827e-10 (8e-8 off) and
        # 0.9999999999999495 (5e-14 off; rho = 1 - 1e-100 rounds to 1.0) here.
        ref = oracles.norros_rho(mean, 0.75)
        assert abs(norros_rho(mean, 0.75) - ref) <= 1e-14 * ref

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.floats(min_value=-300.0, max_value=300.0),
           st.floats(min_value=0.5, max_value=0.9999999999999999))
    def test_whole_domain_against_oracle(self, log10_mean, hurst):
        # ln mean itself is rounded to about 1e-16 |ln mean|, and rho's
        # relative error inherits at most that.
        mean = 10.0**log10_mean
        ref = oracles.norros_rho(mean, hurst)
        assert abs(norros_rho(mean, hurst) - ref) <= 1e-15 * (1 + abs(math.log(mean))) * ref

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            norros_rho(0.0, 0.75)
        with pytest.raises(DomainError):
            norros_rho(1.0, 0.4)


class TestEntropyHurstBridge:
    def test_boundary_cases(self):
        assert q_from_hurst(0.5) == 1.0  # the M/M/1 anchor
        assert q_from_hurst(0.75) == 0.75
        assert q_from_hurst(0.9) == pytest.approx(0.6, abs=1e-15)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(st.floats(min_value=0.5, max_value=0.9999999999999999))
    def test_exact_inverse(self, hurst):
        # 1.5 - x is exact in binary for x in [0.5, 1), so the maps are
        # bit-level inverses
        assert hurst_from_q(q_from_hurst(hurst)) == hurst

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            q_from_hurst(0.4)
        with pytest.raises(DomainError):
            q_from_hurst(1.0)
        with pytest.raises(DomainError):
            hurst_from_q(0.5)
        with pytest.raises(DomainError):
            hurst_from_q(1.5)
