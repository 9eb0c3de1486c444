"""Coefficient ensembles: distributions, moments, sampling, scalar transforms.

All supported laws are normalized to mean 0 and variance 1.  Built-ins:

* ``gaussian``    -- standard normal
* ``rademacher``  -- +/-1 with probability 1/2
* ``uniform``     -- uniform on [-sqrt(3), sqrt(3)]
* ``discrete``    -- arbitrary finite atom list, validated to the same
  normalization

Sampling is keyed by ``(seed, trial_index)`` through a counter-based
(Philox) stream, so trial i of an experiment is reproducible in isolation
and independent of evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

SQRT3 = math.sqrt(3.0)

_NORMALIZATION_TOL = 1e-12

#: series cutoffs for the continuous xi-norm (see ``xi_norm_sq``)
_GAUSS_SMALL_W = 0.02
_UNIFORM_SMALL_W = 1.0 / (4.0 * SQRT3)
_UNIFORM_SERIES_TERMS = 2500


class DistributionError(ValueError):
    """Invalid distribution specification."""


def _atom_arrays(atoms) -> tuple[np.ndarray, np.ndarray]:
    """(values, probabilities) of a discrete law's atom pairs."""
    return (np.array([v for v, _ in atoms], dtype=float),
            np.array([p for _, p in atoms], dtype=float))


@dataclass(frozen=True)
class DistributionSpec:
    """A mean-zero unit-variance coefficient law.

    ``atoms`` is only set for ``kind == "discrete"``: a tuple of
    ``(value, probability)`` pairs.
    """

    kind: str
    atoms: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        if self.kind not in ("gaussian", "rademacher", "uniform", "discrete"):
            raise DistributionError(f"unknown distribution kind {self.kind!r}")
        if self.kind == "discrete":
            if not self.atoms:
                raise DistributionError("discrete law needs at least one atom")
            values, probs = _atom_arrays(self.atoms)
            if np.any(probs < 0):
                raise DistributionError("negative atom probability")
            if abs(probs.sum() - 1.0) > _NORMALIZATION_TOL:
                raise DistributionError(
                    f"atom probabilities sum to {probs.sum()!r}, not 1"
                )
            mean = float(probs @ values)
            var = float(probs @ values**2)
            if abs(mean) > _NORMALIZATION_TOL:
                raise DistributionError(f"discrete law has mean {mean!r}, not 0")
            if abs(var - 1.0) > _NORMALIZATION_TOL:
                raise DistributionError(f"discrete law has variance {var!r}, not 1")
        elif self.atoms is not None:
            raise DistributionError("atoms are only valid for kind='discrete'")

    @property
    def is_discrete(self) -> bool:
        return self.kind in ("rademacher", "discrete")

    def label(self) -> str:
        """Round-trippable CLI form (see ``parse_distribution``)."""
        if self.kind != "discrete":
            return self.kind
        return "discrete:" + ",".join(f"{v}:{p}" for v, p in self.atoms)

    def __str__(self):
        return self.label()


def gaussian() -> DistributionSpec:
    return DistributionSpec("gaussian")


def rademacher() -> DistributionSpec:
    return DistributionSpec("rademacher")


def uniform() -> DistributionSpec:
    """Uniform on [-sqrt(3), sqrt(3)] (unit variance)."""
    return DistributionSpec("uniform")


def discrete(atoms) -> DistributionSpec:
    return DistributionSpec("discrete", tuple((float(v), float(p)) for v, p in atoms))


def parse_distribution(text: str) -> DistributionSpec:
    """Parse ``gaussian | rademacher | uniform | discrete:v1:p1,v2:p2,...``."""
    text = text.strip()
    if text in ("gaussian", "rademacher", "uniform"):
        return DistributionSpec(text)
    if text.startswith("discrete:"):
        body = text[len("discrete:"):]
        atoms = []
        for chunk in body.split(","):
            parts = chunk.split(":")
            if len(parts) != 2:
                raise DistributionError(f"bad atom {chunk!r}; expected value:prob")
            atoms.append((float(parts[0]), float(parts[1])))
        return discrete(atoms)
    raise DistributionError(f"cannot parse distribution {text!r}")


@dataclass(frozen=True)
class MomentProfile:
    """Third and fourth moments of the coefficient law."""

    m3: float
    m4: float
    excess_kurtosis: float = field(init=False)

    def __post_init__(self):
        if self.m4 < 1.0 - 1e-12:
            raise DistributionError("fourth moment below Cauchy-Schwarz bound 1")
        if self.m4 < self.m3**2 + 1.0 - 1e-9:
            raise DistributionError("moment pair violates m4 >= m3^2 + 1")
        object.__setattr__(self, "excess_kurtosis", self.m4 - 3.0)


def moments(dist: DistributionSpec) -> MomentProfile:
    """Exact analytic moments (atom sums for discrete laws)."""
    if dist.kind == "gaussian":
        return MomentProfile(0.0, 3.0)
    if dist.kind == "rademacher":
        return MomentProfile(0.0, 1.0)
    if dist.kind == "uniform":
        # int x^4 / (2 sqrt 3) over [-sqrt3, sqrt3] = 9/5
        return MomentProfile(0.0, 9.0 / 5.0)
    values, probs = _atom_arrays(dist.atoms)
    return MomentProfile(float(probs @ values**3), float(probs @ values**4))


@dataclass(frozen=True)
class CoefficientSample:
    """One coefficient draw: y has shape (n, 2)."""

    n: int
    y: np.ndarray
    seed: int
    trial_index: int

    def __post_init__(self):
        if self.y.shape != (self.n, 2):
            raise ValueError(f"coefficient array shape {self.y.shape} != ({self.n}, 2)")
        if not np.isfinite(self.y).all():
            raise ValueError("coefficients must be finite")


def _rng_for_trial(seed: int, trial_index: int) -> np.random.Generator:
    # Philox is counter-based; keying the seed sequence by (seed, trial)
    # makes trials independent and order-insensitive.
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(trial_index),))
    return np.random.Generator(np.random.Philox(ss))


def sample(dist: DistributionSpec, n: int, seed: int, trial_index: int = 0) -> CoefficientSample:
    """Draw the 2n iid coefficients of one polynomial."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = _rng_for_trial(seed, trial_index)
    y = _draw(dist, rng, (n, 2))
    y.setflags(write=False)
    return CoefficientSample(n=n, y=y, seed=int(seed), trial_index=int(trial_index))


def _draw(dist: DistributionSpec, rng: np.random.Generator, shape) -> np.ndarray:
    if dist.kind == "gaussian":
        return rng.standard_normal(shape)
    if dist.kind == "rademacher":
        return rng.integers(0, 2, size=shape).astype(float) * 2.0 - 1.0
    if dist.kind == "uniform":
        return rng.uniform(-SQRT3, SQRT3, size=shape)
    values, probs = _atom_arrays(dist.atoms)
    probs = probs / probs.sum()  # remove the <=1e-12 normalization slack
    idx = rng.choice(len(values), size=shape, p=probs)
    return values[idx]


def charfn_scalar(dist: DistributionSpec, theta):
    """E exp(i * theta * xi).  Accepts scalars or arrays."""
    theta = np.asarray(theta, dtype=float)
    if dist.kind == "gaussian":
        out = np.exp(-0.5 * theta**2).astype(complex)
    elif dist.kind == "rademacher":
        out = np.cos(theta).astype(complex)
    elif dist.kind == "uniform":
        # sin(sqrt3 t)/(sqrt3 t), continuous at 0
        out = np.sinc(SQRT3 * theta / np.pi).astype(complex)
    else:
        values, probs = _atom_arrays(dist.atoms)
        out = np.exp(1j * np.multiply.outer(theta, values)) @ probs
    if out.ndim == 0:
        return complex(out)
    return out


def log_abs_charfn_scalar(dist: DistributionSpec, theta) -> np.ndarray:
    """log |E exp(i theta xi)|, elementwise; -inf where the factor vanishes."""
    theta = np.asarray(theta, dtype=float)
    if dist.kind == "gaussian":
        return -0.5 * theta**2
    with np.errstate(divide="ignore"):
        return np.log(np.abs(charfn_scalar(dist, theta)))


def _difference_atoms(dist: DistributionSpec):
    """Atoms (value, prob) of xi1 - xi2 for a discrete law."""
    if dist.kind == "rademacher":
        values = np.array([-1.0, 1.0])
        probs = np.array([0.5, 0.5])
    else:
        values, probs = _atom_arrays(dist.atoms)
    dv = (values[:, None] - values[None, :]).ravel()
    dp = (probs[:, None] * probs[None, :]).ravel()
    return dv, dp


def _dist_to_nearest_int(x: np.ndarray) -> np.ndarray:
    return np.abs(x - np.round(x))


def xi_norm_sq(dist: DistributionSpec, w):
    """E || w (xi1 - xi2) ||^2 with ||.|| the distance to the nearest integer.

    Exact atom sums for discrete laws.  For the continuous built-ins the
    value is computed from the absolutely convergent cosine series of the
    1-periodic function ||x||^2,

        ||x||^2 = 1/12 + sum_m (-1)^m cos(2 pi m x) / (pi m)^2,

    whose expectation only needs |charfn(2 pi m w)|^2; truncation is kept
    below 1e-12.  The test suite cross-checks it against a slower
    density-based quadrature.  Accepts scalars or arrays of w.
    """
    w = np.asarray(w, dtype=float)
    scalar = w.ndim == 0
    w = np.atleast_1d(w)
    if dist.is_discrete:
        dv, dp = _difference_atoms(dist)
        d = _dist_to_nearest_int(np.multiply.outer(w, dv))
        out = (d * d) @ dp
    elif dist.kind == "gaussian":
        out = _xi_norm_sq_gaussian(w)
    else:
        out = _xi_norm_sq_uniform(w)
    return float(out[0]) if scalar else out


def _xi_norm_sq_gaussian(w: np.ndarray) -> np.ndarray:
    out = np.empty_like(w)
    aw = np.abs(w)
    small = aw <= _GAUSS_SMALL_W
    # |w (xi1-xi2)| <= 1/2 except with probability < 1e-80: E||.||^2 = 2 w^2
    out[small] = 2.0 * w[small] ** 2
    wl = aw[~small]
    if wl.size:
        nterms = int(np.ceil(2.1 / wl.min())) + 8
        m = np.arange(1, nterms + 1)
        # |charfn_{xi1-xi2}(theta)| = exp(-theta^2) for N(0,2)
        expo = -4.0 * math.pi**2 * np.multiply.outer(m.astype(float) ** 2, wl**2)
        signs = np.where(m % 2 == 0, 1.0, -1.0) / (math.pi**2 * m.astype(float) ** 2)
        out[~small] = 1.0 / 12.0 + signs @ np.exp(expo)
    return out


def _xi_norm_sq_uniform(w: np.ndarray) -> np.ndarray:
    out = np.empty_like(w)
    aw = np.abs(w)
    small = aw < _UNIFORM_SMALL_W
    # support of xi1-xi2 is [-2 sqrt3, 2 sqrt3]: |w z| < 1/2 exactly
    out[small] = 2.0 * w[small] ** 2
    wl = aw[~small]
    if wl.size:
        m = np.arange(1.0, _UNIFORM_SERIES_TERMS + 1.0)
        theta = 2.0 * math.pi * np.multiply.outer(m, wl)
        phi2 = np.sinc(SQRT3 * theta / np.pi) ** 2
        signs = np.where(m % 2 == 0, 1.0, -1.0) / (math.pi**2 * m**2)
        out[~small] = 1.0 / 12.0 + signs @ phi2
    return out
