"""Deterministic random instance generators with certified general position.

Every model is a pure function of (n, d, seed).  A generated family is
checked exactly with check_general_position; on a violation the draw is
retried with an incremented sub-seed and the retry count is recorded in the
instance metadata, so outputs stay reproducible bit for bit.  A model that
misses general position on all 64 draws raises DegenerateInstanceError.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .geometry import DegenerateInstanceError, Hyperplane, Instance, check_general_position

MODELS = ("uniform-sphere-tangent", "random-rational", "perturbed-grid")

_MAX_REGEN = 64


def gen_instance(model: str, n: int, d: int, seed: int, colors=None) -> Instance:
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}; choose from {MODELS}")
    if n < 1 or d < 1:
        raise ValueError("n and d must be positive")
    if model == "uniform-sphere-tangent" and d == 1 and n > 1:
        # the unit sphere of R^1 has two tangents, x = 1 and x = -1, and the
        # model draws only the first
        raise ValueError("uniform-sphere-tangent in d = 1 has one hyperplane, x = 1: n must be 1")
    builders = {
        "uniform-sphere-tangent": _sphere_tangent,
        "random-rational": _random_rational,
        "perturbed-grid": _perturbed_grid,
    }
    for attempt in range(_MAX_REGEN):
        rng = np.random.default_rng((seed, attempt))
        hyperplanes = builders[model](n, d, rng)
        inst = Instance(
            d,
            hyperplanes,
            colors=list(colors) if colors is not None else None,
            metadata={
                "generator": model,
                "seed": seed,
                "regenerations": attempt,
            },
        )
        if check_general_position(inst).ok:
            return inst
    raise DegenerateInstanceError(f"could not reach general position after {_MAX_REGEN} draws")


def _random_rational(n: int, d: int, rng) -> list[Hyperplane]:
    """Integer coefficients in [-99, 99]; integers are rationals too."""
    out = []
    while len(out) < n:
        normal = tuple(int(v) for v in rng.integers(-99, 100, size=d))
        if all(c == 0 for c in normal):
            continue
        offset = int(rng.integers(-99, 100))
        out.append(Hyperplane(tuple(Fraction(c) for c in normal), Fraction(offset)))
    return out


def _rational_unit_vector(direction, max_den: int = 60) -> tuple[Fraction, ...]:
    """Exactly-unit rational vector near a float direction.

    Uses the inverse stereographic map from rational parameters: for
    u in Q^(d-1), the vector (2u, 1 - |u|^2) / (1 + |u|^2) has unit norm
    exactly.  The float direction is pulled back through the projection
    point (0, ..., 0, -1), rationalized, and pushed forward again.
    """
    x = np.asarray(direction, dtype=float)
    x = x / np.linalg.norm(x)
    d = len(x)
    if x[-1] < -0.999999:
        x = -x  # avoid the projection point; callers use both signs anyway
    params = [Fraction(float(c / (1.0 + x[-1]))).limit_denominator(max_den) for c in x[:-1]]
    s = sum(p * p for p in params)
    denom = 1 + s
    coords = tuple(2 * p / denom for p in params) + ((1 - s) / denom,)
    return coords


def _sphere_tangent(n: int, d: int, rng) -> list[Hyperplane]:
    """Hyperplanes exactly tangent to the unit sphere.

    Normals are exactly-unit rationals, offsets 1, so normal . x = 1 touches
    the sphere in one point.  In the plane the tangency angles are jittered
    within stratified arcs, which keeps any three consecutive tangents from
    falling in a halfcircle (three tangents then bound the circle).
    """
    out = []
    for k in range(n):
        if d == 2:
            theta = 2.0 * math.pi * (k + 0.3 + 0.4 * rng.random()) / n
            direction = (math.cos(theta), math.sin(theta))
        else:
            direction = rng.normal(size=d)
        normal = _rational_unit_vector(direction)
        out.append(Hyperplane(normal, Fraction(1)))
    return out


def _perturbed_grid(n: int, d: int, rng) -> list[Hyperplane]:
    """Axis-aligned grid hyperplanes with small rational tilts and shifts.

    The tilt is required: exactly axis-parallel planes repeat normals and
    can never be in general position.
    """
    out = []
    for k in range(n):
        axis = k % d
        level = k // d
        normal = [Fraction(int(rng.integers(-15, 16)), 256) for _ in range(d)]
        normal[axis] += 1
        offset = Fraction(level) + Fraction(int(rng.integers(-127, 128)), 256)
        out.append(Hyperplane(tuple(normal), offset))
    return out
