"""Named target functions so experiments are text-reproducible."""

from __future__ import annotations

import math
from typing import Dict

import numpy as np

from .circle import CircleGrid, SampledFunction, from_csv


def step(grid: CircleGrid) -> SampledFunction:
    """Indicator of [0, pi)."""
    t = grid.points
    return SampledFunction(grid, ((t >= 0) & (t < math.pi)).astype(complex))


def sign_t(grid: CircleGrid) -> SampledFunction:
    t = grid.points
    return SampledFunction(grid, np.sign(t).astype(complex))


def sawtooth(grid: CircleGrid) -> SampledFunction:
    t = grid.points
    return SampledFunction(grid, (t / math.pi).astype(complex))


def indicator(grid: CircleGrid, lo: float, hi: float) -> SampledFunction:
    t = grid.points
    return SampledFunction(grid, ((t >= lo) & (t < hi)).astype(complex))


def cosk(grid: CircleGrid, k: int = 1) -> SampledFunction:
    return SampledFunction(grid, np.cos(k * grid.points).astype(complex))


def const(grid: CircleGrid, c: float = 1.0) -> SampledFunction:
    return SampledFunction(grid, np.full(grid.size, complex(c)))


def zero(grid: CircleGrid) -> SampledFunction:
    return SampledFunction(grid, np.zeros(grid.size, dtype=complex))


def plus_infinity_arc(grid: CircleGrid, lo: float = 0.0, hi: float = 1.0) -> SampledFunction:
    """0 outside [lo, hi), +infinity inside (extended-value target)."""
    t = grid.points
    ext = np.where((t >= lo) & (t < hi), 1, 0).astype(np.int8)
    return SampledFunction(grid, np.zeros(grid.size, dtype=complex), ext)


def make_target(name: str, grid: CircleGrid, params: Dict) -> SampledFunction:
    """Build a target from its config name and parameters."""
    if name == "step":
        return step(grid)
    if name == "sign":
        return sign_t(grid)
    if name == "sawtooth":
        return sawtooth(grid)
    if name == "indicator":
        return indicator(grid, float(params.get("lo", 0.0)),
                         float(params.get("hi", math.pi)))
    if name == "cosk":
        return cosk(grid, int(params.get("k", 1)))
    if name == "const":
        return const(grid, float(params.get("c", 1.0)))
    if name == "zero":
        return zero(grid)
    if name == "plus_infinity_arc":
        return plus_infinity_arc(grid, float(params.get("lo", 0.0)),
                                 float(params.get("hi", 1.0)))
    if name == "custom_csv":
        f = from_csv(params["path"])
        if f.grid.size != grid.size:
            raise ValueError("custom CSV grid size does not match --grid")
        return f
    raise ValueError(f"unknown target {name!r}")
