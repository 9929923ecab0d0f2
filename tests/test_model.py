import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isingring.model import (
    EVEN,
    ODD,
    ModeAmplitudes,
    QuenchConfig,
    _sin_over,
    dispersion,
    evolve_amplitudes,
    mode_uv,
    momentum_grids,
)


def test_even_grid_is_half_odd_multiples():
    even, _ = momentum_grids(8)
    step = 2 * np.pi / 8
    np.testing.assert_allclose(even.positive, step * np.array([0.5, 1.5, 2.5, 3.5]))
    assert even.sector == EVEN
    assert even.unpaired == ()
    assert even.n_pairs == 4


def test_odd_grid_integer_multiples_with_unpaired_modes():
    _, odd = momentum_grids(10)
    step = 2 * np.pi / 10
    np.testing.assert_allclose(odd.positive, step * np.arange(1, 5))
    assert odd.sector == ODD
    assert odd.unpaired == (-np.pi, 0.0)
    assert odd.n_pairs == 4


@pytest.mark.parametrize("n", [4, 6, 12, 30])
def test_grid_sizes(n):
    even, odd = momentum_grids(n)
    assert even.positive.size == n // 2
    assert odd.positive.size == n // 2 - 1


@pytest.mark.parametrize("bad", [3, 5, 2, 0, -4, 7])
def test_grids_reject_bad_sizes(bad):
    with pytest.raises(ValueError):
        momentum_grids(bad)


def test_dispersion_closed_points():
    # Lambda = 2 sqrt(g^2 + 2 g cos k + 1) = 2|1 + g| at k=0, 2|1 - g| at k=pi
    assert dispersion(0.7, 0.0) == pytest.approx(2 * 1.7)
    assert dispersion(0.7, np.pi) == pytest.approx(2 * 0.3)
    assert dispersion(1.0, np.pi) == pytest.approx(0.0, abs=1e-12)
    assert dispersion(3.0, np.pi) == pytest.approx(4.0)


def test_sin_over_taylor_matches_across_guard():
    t = 2.7
    # continuity where the Taylor branch hands over to sin(x)/x
    lo = _sin_over(np.array([0.999e-8]), t)[0]
    hi = _sin_over(np.array([1.001e-8]), t)[0]
    assert lo == pytest.approx(hi, rel=1e-12)
    assert _sin_over(np.array([0.0]), t)[0] == pytest.approx(t)


def test_initial_amplitudes_are_ground_state():
    for n in (4, 10):
        for g in (0.2, 1.0, 4.0):
            even, odd = momentum_grids(n)
            for grid in (even, odd):
                amps = evolve_amplitudes(grid, g, 0.0)
                np.testing.assert_allclose(amps.u, np.sin(grid.positive / 2))
                np.testing.assert_allclose(amps.v, np.cos(grid.positive / 2))
                assert amps.phase == 1.0 + 0j


@settings(max_examples=200, deadline=None)
@given(
    g=st.floats(0.0, 8.0),
    frac=st.floats(0.001, 0.999),
    t=st.floats(0.0, 60.0),
)
def test_mode_amplitudes_stay_normalized(g, frac, t):
    u, v = mode_uv(g, np.array([frac * np.pi]), t)
    norm = abs(u[0]) ** 2 + abs(v[0]) ** 2
    assert norm == pytest.approx(1.0, abs=1e-10)


def test_critical_soft_mode_is_degenerate_not_divergent():
    # at g=1, k=pi the dispersion vanishes; amplitudes must stay finite
    u, v = mode_uv(1.0, np.array([np.pi]), 5.0)
    assert abs(u[0]) == pytest.approx(1.0)
    assert abs(v[0]) == pytest.approx(0.0, abs=1e-12)


def test_odd_sector_phase():
    _, odd = momentum_grids(6)
    t = 1.3
    amps = evolve_amplitudes(odd, 0.8, t)
    assert amps.phase == pytest.approx(np.exp(2j * t))
    assert isinstance(amps, ModeAmplitudes)


def test_evolve_rejects_negative_field():
    even, _ = momentum_grids(6)
    with pytest.raises(ValueError):
        evolve_amplitudes(even, -0.1, 1.0)


class TestQuenchConfig:
    def test_valid(self):
        cfg = QuenchConfig(8, 1.5, [0.0, 0.5, 1.0])
        assert cfg.time_grid.dtype == float
        even, odd = cfg.amplitudes(0.5)
        assert even.sector == EVEN and odd.sector == ODD

    def test_time_grid_stacks_single_times(self):
        cfg = QuenchConfig(10, 0.7, [0.0, 0.3, 1.9, 12.5])
        grid = cfg.amplitudes(cfg.time_grid)
        singles = [cfg.amplitudes(float(t)) for t in cfg.time_grid]
        for sector, amps in enumerate(grid):
            assert amps.u.shape == (4, amps.momenta.size)
            np.testing.assert_array_equal(amps.time, cfg.time_grid)
            for field in ("u", "v", "phase"):
                stacked = np.array([getattr(pair[sector], field) for pair in singles])
                np.testing.assert_allclose(getattr(amps, field), stacked,
                                           rtol=0, atol=1e-15)

    def test_rejects_odd_ring(self):
        with pytest.raises(ValueError, match="even integer"):
            QuenchConfig(7, 1.0, [0.0])

    def test_rejects_negative_field(self):
        with pytest.raises(ValueError, match="field_g"):
            QuenchConfig(8, -1.0, [0.0])

    def test_rejects_unsorted_grid(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            QuenchConfig(8, 1.0, [0.0, 2.0, 1.0])

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            QuenchConfig(8, 1.0, [])

    def test_rejects_negative_times(self):
        with pytest.raises(ValueError):
            QuenchConfig(8, 1.0, [-1.0, 0.0])
