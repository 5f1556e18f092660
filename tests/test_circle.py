import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsetrig.circle import (CircleGrid, GridError, SampledFunction,
                               l0_of_abs, measure_fraction, triangle_coeff,
                               triangle_coeff_array, triangle_coeff_tail,
                               triangle_function)


def test_grid_invariants():
    g = CircleGrid(1024)
    t = g.points
    assert len(t) == 1024
    diffs = np.diff(t)
    assert np.allclose(diffs, 2 * math.pi / 1024)
    assert t[0] == -math.pi
    with pytest.raises(GridError):
        CircleGrid(7)
    with pytest.raises(GridError):
        CircleGrid(11)  # odd


def test_measure_trivial():
    assert measure_fraction(np.zeros(256, bool)) == 0.0
    assert measure_fraction(np.ones(256, bool)) == 1.0


def test_measure_indicator_half():
    g = CircleGrid(1024)
    t = g.points
    f = SampledFunction(g, ((t >= 0) & (t < math.pi)).astype(complex))
    assert abs(measure_fraction(np.abs(f.values) > 0.5) - 0.5) <= 1.0 / 1024


def test_measure_monotone():
    g = CircleGrid(512)
    rng = np.random.default_rng(5)
    f = SampledFunction(g, rng.normal(size=512) + 0j)
    weak = measure_fraction(np.abs(f.values) > 0.5)
    strong = measure_fraction(np.abs(f.values) > 1.0)
    assert weak >= strong


def test_l0_zero_and_constant():
    assert l0_of_abs(np.zeros(4096)) == 0.0
    # m{|f| > eps} = 1 for eps < 0.4 and 0 above: infimum 0.4
    assert abs(l0_of_abs(np.full(4096, 0.4)) - 0.4) < 1e-4


def test_l0_indicator_scaled():
    # f = 5 * indicator of grid-fraction 0.3: m{|f| > eps} = 0.3 on (0, 5)
    vals = np.zeros(1000)
    vals[:300] = 5.0
    assert abs(l0_of_abs(vals) - 0.3) < 2.0 / 1000 + 1e-5


def test_l0_subadditive_random():
    rng = np.random.default_rng(11)
    for _ in range(10):
        a = rng.normal(size=2048) * rng.integers(0, 2, 2048)
        b = rng.normal(size=2048) * rng.integers(0, 2, 2048)
        assert l0_of_abs(np.abs(a + b)) <= \
            l0_of_abs(np.abs(a)) + l0_of_abs(np.abs(b)) + 4.0 / 2048 + 1e-6


def test_triangle_peak_and_range():
    g = CircleGrid(1024)
    tau = triangle_function(math.pi, g)
    assert tau.values[512].real == 1.0  # t = 0
    assert float(np.min(tau.values.real)) >= 0.0
    with pytest.raises(ValueError):
        triangle_function(4.0, g)
    with pytest.raises(ValueError):
        triangle_coeff(0.0, 1)


def test_triangle_coeff_zero_mode():
    assert triangle_coeff(math.pi, 0) == pytest.approx(0.5)


def test_triangle_coeff_quadrature_oracle():
    # closed form checked against direct quadrature on a fine grid
    m = 2 ** 18
    t = -math.pi + 2 * math.pi * np.arange(m) / m
    for eps in (math.pi, math.pi / 4, 2 * math.pi / 64):
        tau = np.maximum(0.0, 1.0 - np.abs(t) / eps)
        for n in (0, 1, 2, 5, 17):
            quad = float((tau * np.exp(-1j * n * t)).mean().real)
            assert triangle_coeff(eps, n) == pytest.approx(quad, abs=5e-9)


def test_triangle_coeff_even_and_positive():
    for eps in (math.pi, math.pi / 4, 2 * math.pi / 64):
        for n in (1, 7, 100, 9999):
            assert triangle_coeff(eps, n) == triangle_coeff(eps, -n)
            assert triangle_coeff(eps, n) > 0.0


def test_triangle_mass_with_tail():
    for eps in (math.pi, math.pi / 4, 2 * math.pi / 64):
        n_max = 10 ** 4
        arr = triangle_coeff_array(eps, n_max)
        total = arr[0] + 2.0 * arr[1:].sum() + triangle_coeff_tail(eps, n_max)
        assert total == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=0.05, max_value=math.pi),
       st.integers(min_value=1, max_value=500))
def test_triangle_coeff_nonnegative_property(eps, n):
    assert triangle_coeff(eps, n) >= 0.0


def test_csv_roundtrip(tmp_path):
    from sparsetrig.circle import from_csv
    g = CircleGrid(64)
    rng = np.random.default_rng(3)
    ext = np.zeros(64, dtype=np.int8)
    ext[5] = 1
    f = SampledFunction(g, rng.normal(size=64) + 1j * rng.normal(size=64), ext)
    path = tmp_path / "f.csv"
    f.to_csv(path)
    back = from_csv(path)
    assert np.allclose(back.values, f.values)
    assert np.array_equal(back.extended_sign, f.extended_sign)
