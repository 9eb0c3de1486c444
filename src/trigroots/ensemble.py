"""Coefficient ensembles: distributions, moments, sampling, scalar transforms.

All supported laws are normalized to mean 0 and variance 1.  Built-ins:

* ``gaussian``    -- standard normal
* ``rademacher``  -- +/-1 with probability 1/2
* ``uniform``     -- uniform on [-sqrt(3), sqrt(3)]
* ``discrete``    -- arbitrary finite atom list, validated to the same
  normalization

Sampling is keyed by ``(seed, trial_index)``: each trial draws from its
own counter-based (Philox) stream, so trial i of an experiment is
reproducible in isolation and independent of evaluation order.  The key
is numpy's seed-sequence hash of (seed, trial), which ``philox_keys`` runs
for a whole chunk of trials at once; ``draw_trials`` draws the chunk with
one bit generator, and ``sample`` is its one-trial case.  Rademacher signs
are ``Generator.integers(0, 2)``'s: the top bit of each 32-bit half of the
raw 64-bit words, low half first, so a draw takes an even count of them.
A chunk reads each trial's n words into one (trials, n) word array and
decodes it once; Gaussian trials are drawn straight into their rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SQRT3 = math.sqrt(3.0)

_NORMALIZATION_TOL = 1e-12

#: Gaussian xi-norm: 2 w^2 at and below this |w|, within 2.5e-19 (see
#: ``_xi_norm_sq_gaussian``; 0.041 would give 1.7e-18, above the series'
#: 1e-18 truncation)
_GAUSS_SMALL_W = 0.04
#: entries a Gaussian series block: a (32, 4096) term table is 1 MiB
_GAUSS_BLOCK = 4096

#: numpy's seed-sequence hash (see ``philox_keys``): pool size and uint32
#: constants
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


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
            if not (np.isfinite(values).all() and np.isfinite(probs).all()):
                raise DistributionError("atom values and probabilities must be finite")
            if np.any(probs < 0):
                raise DistributionError("negative atom probability")
            total = float(probs.sum())
            if abs(total - 1.0) > _NORMALIZATION_TOL:
                raise DistributionError(f"atom probabilities sum to {total!r}, not 1")
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

    @property
    def excess_kurtosis(self) -> float:
        return self.m4 - 3.0


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


def check_integer(name: str, value, low: int) -> int:
    """``value`` as an int, refused unless an integer (not a bool) >= low."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    return int(value)


def check_finite(name: str, x):
    """``x`` as a float, or a float array, refused unless finite everywhere."""
    return _check_real(name, x, "finite", np.isfinite)


def check_positive(name: str, x):
    """``x`` as a float, or a float array, refused unless finite and > 0 everywhere."""
    return _check_real(name, x, "finite and > 0", lambda a: np.isfinite(a) & (a > 0.0))


def _check_real(name: str, x, rule: str, holds):
    """``x`` as a float or float array where ``holds`` is true of every
    entry; a bool or a non-numeric value breaks the rule as well."""
    a = np.asarray(x)
    if a.dtype.kind not in "iuf":
        raise ValueError(f"{name} must be {rule}, got {x}")
    a = a.astype(float, copy=False)
    ok = holds(a)
    if not ok.all():
        raise ValueError(f"{name} must be {rule}, got {a[~ok][0]}")
    return a if a.ndim else float(a)


def sample(dist: DistributionSpec, n: int, seed: int, trial_index: int = 0) -> CoefficientSample:
    """Draw the 2n iid coefficients of one polynomial: trial ``trial_index``
    of ``draw_trials``."""
    n = check_integer("n", n, 1)
    y = draw_trials(dist, n, seed, trial_index, trial_index + 1)[0]
    y.setflags(write=False)
    return CoefficientSample(n=n, y=y, seed=int(seed), trial_index=int(trial_index))


def draw_trials(dist: DistributionSpec, n: int, seed: int, lo: int, hi: int) -> np.ndarray:
    """Coefficients of trials lo .. hi - 1, shape (hi - lo, n, 2).

    Each trial draws from its own Philox stream at counter 0 under its key
    from ``philox_keys``, so a trial's coefficients do not depend on the
    chunk it is drawn in.  One bit generator serves the chunk: its state
    is set to each trial's key in turn, with the output buffer empty.
    """
    lo, hi = check_integer("trial index", lo, 0), check_integer("trial index", hi, 0)
    if hi > 2**64:
        raise ValueError(f"trial index must be below 2**64, got {hi - 1}")
    keys = philox_keys(seed, np.arange(lo, hi, dtype=np.uint64))
    bitgen = np.random.Philox(np.random.SeedSequence(0))  # no OS entropy read
    rng = np.random.Generator(bitgen)
    state = {"bit_generator": "Philox",
             "state": {"counter": np.zeros(4, np.uint64), "key": None},
             "buffer": np.zeros(4, np.uint64), "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    out = np.empty((len(keys), n, 2))
    signs = dist.kind == "rademacher"  # raw words, decoded once a chunk into out
    words = np.empty((len(keys), n), np.uint64) if signs else None
    for i, key in enumerate(keys):
        state["state"]["key"] = key
        bitgen.state = state
        if signs:
            words[i] = bitgen.random_raw(n)
        else:
            _draw(dist, rng, (n, 2), out=out[i])
    if signs:
        _signs(words, out=out)
    return out


def philox_keys(seed: int, trials) -> np.ndarray:
    """The (B, 2) uint64 Philox keys of the trials under ``seed``.

    Row j is the key that numpy's seed sequence with entropy ``seed`` and
    spawn key ``(trials[j],)`` generates as two uint64 words, the key a
    Philox seeded by that sequence starts from: numpy's pool-size-4 hash,
    computed here in wrapping uint32 arithmetic for all trials at once
    (``tests/oracles.rng_for_trial`` is the reference).  The seed's
    words (any number of them) are mixed into the pool once; then each
    trial mixes in its one word (below 2**32) or two (below 2**64) and
    hashes the pool out.
    """
    seed = check_integer("seed", seed, 0)
    trials = np.asarray(trials)
    if trials.ndim != 1 or trials.dtype.kind not in "iu":
        raise ValueError("trial indices must be a 1-d integer array, got "
                         f"{trials.dtype} of shape {trials.shape}")
    if trials.size:
        check_integer("trial index", trials.min(), 0)
    trials = trials.astype(np.uint64)
    words = [seed >> b & _MASK32 for b in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (_POOL_SIZE - len(words))
    consts = _hash_consts(_INIT_A, _MULT_A)
    pool = [_hashmix(w, next(consts), _MULT_A) for w in words[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], next(consts), _MULT_A))
    for w in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hashmix(w, next(consts), _MULT_A))

    def mix_word(pool, word):
        # the loop over the pool entries, each under the next constant, as
        # one (B, 4) step
        c = np.array([next(consts) for _ in range(_POOL_SIZE)], dtype=np.uint32)
        return _mix(pool, _hashmix(word[:, None], c, _MULT_A))

    pool = mix_word(np.array(pool, dtype=np.uint32), (trials & _MASK32).astype(np.uint32))
    high = (trials >> 32).astype(np.uint32)
    if high.any():
        pool = np.where((high > 0)[:, None], mix_word(pool, high), pool)
    out_consts = _hash_consts(_INIT_B, _MULT_B)
    c = np.array([next(out_consts) for _ in range(_POOL_SIZE)], dtype=np.uint32)
    out = _hashmix(pool, c, _MULT_B).astype(np.uint64)
    return out[:, 0::2] | out[:, 1::2] << 32


def _hash_consts(const: int, mult: int):
    """The hash constants const * mult**k mod 2**32, k = 0, 1, ..."""
    while True:
        yield const
        const = const * mult & _MASK32


def _hashmix(value, const, mult):
    """numpy's seed-sequence hashmix of ``value`` under the hash constant
    ``const``, which the call advances to const * mult; Python ints and
    uint32 arrays alike."""
    value = ((value ^ const) * (const * mult & _MASK32)) & _MASK32
    return value ^ value >> 16


def _mix(x, y):
    """numpy's seed-sequence mix of two pool words."""
    r = (x * _MIX_MULT_L - y * _MIX_MULT_R) & _MASK32
    return r ^ r >> 16


def _draw(dist: DistributionSpec, rng: np.random.Generator, shape,
          out: np.ndarray | None = None) -> np.ndarray:
    """``shape`` iid coefficients of ``dist``, written into ``out`` (of that
    shape) when given.  Rademacher signs are read off the raw words (see the
    module docstring): their count must be even (a buffered half could not
    be continued), and the bit generator one that halves its 64-bit words,
    low half first (Philox, PCG64, SFC64; not MT19937)."""
    if dist.kind == "gaussian":
        return rng.standard_normal(shape, out=out)
    if dist.kind == "rademacher":
        k, bitgen = math.prod(shape), rng.bit_generator
        if k % 2 or not isinstance(bitgen, (np.random.Philox, np.random.PCG64, np.random.SFC64)):
            raise ValueError(f"Rademacher signs need an even count from a Philox, PCG64 "
                             f"or SFC64 generator, got {k} from {type(bitgen).__name__}")
        return _signs(bitgen.random_raw(k // 2), out=out).reshape(shape)
    if dist.kind == "uniform":
        y = rng.uniform(-SQRT3, SQRT3, size=shape)
    else:
        values, probs = _atom_arrays(dist.atoms)
        # p / p.sum() removes the <=1e-12 normalization slack
        y = values[rng.choice(len(values), size=shape, p=probs / probs.sum())]
    if out is None:
        return y
    out[...] = y
    return out


def _signs(words: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """+/-1.0 from the top bit of each 32-bit half of the raw 64-bit words,
    low half first: the 2 k signs of k words in order, of shape (..., 2 k)
    from (..., k) words or written into ``out``.  The words are shifted in
    place, so no copy of them is made."""
    halves = words.astype("<u8", copy=False).view("<u4")
    halves >>= 31
    out = np.multiply(halves if out is None else halves.reshape(out.shape), 2.0, out=out)
    out -= 1.0
    return out


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
    """log |E exp(i theta xi)|, elementwise; -inf where the factor vanishes.
    The rademacher and uniform factors are real, so they skip the complex
    cast of ``charfn_scalar`` (|complex(x, 0)| = |x|: the same bits)."""
    theta = np.asarray(theta, dtype=float)
    if dist.kind == "gaussian":
        return -0.5 * theta**2
    with np.errstate(divide="ignore"):
        if dist.kind == "rademacher":
            return np.log(np.abs(np.cos(theta)))
        if dist.kind == "uniform":
            return np.log(np.abs(np.sinc(SQRT3 * theta / np.pi)))
        return np.log(np.abs(charfn_scalar(dist, theta)))


def _difference_atoms(dist: DistributionSpec):
    """Atoms (value, prob) of xi1 - xi2 for a discrete law, less the zero
    differences, which add nothing to ``xi_norm_sq``."""
    values, probs = _atom_arrays(((-1.0, 0.5), (1.0, 0.5)) if dist.kind == "rademacher"
                                 else dist.atoms)
    dv, dp = (values[:, None] - values[None, :]).ravel(), (probs[:, None] * probs[None, :]).ravel()
    return dv[dv != 0.0], dp[dv != 0.0]


def xi_norm_sq(dist: DistributionSpec, w):
    """E || w (xi1 - xi2) ||^2 with ||.|| the distance to the nearest integer.

    Exact atom sums for discrete laws, and a closed form for the uniform
    law (see ``_xi_norm_sq_uniform``).  The Gaussian value is computed from
    the absolutely convergent cosine series of the 1-periodic function
    ||x||^2,

        ||x||^2 = 1/12 + sum_m (-1)^m cos(2 pi m x) / (pi m)^2,

    whose expectation only needs |charfn(2 pi m w)|^2.  The series is
    summed only where it can move the float: the value is 1/12 from
    |w| = 1 up (the sum is below half an ulp of 1/12) and 2 w^2, within
    2.5e-19, for |w| <= 0.04; between, each entry is truncated below 1e-18
    (proofs in ``_xi_norm_sq_gaussian``).  The test suite cross-checks both
    continuous laws against a slower density-based quadrature.  Accepts
    scalars or arrays of w; a non-finite w is refused.
    """
    w = np.asarray(check_finite("w", w))
    scalar = w.ndim == 0
    w = np.atleast_1d(w)
    if dist.is_discrete:
        out = np.zeros_like(w)
        for v, p in zip(*_difference_atoms(dist)):
            x = w * v
            d = np.abs(x - np.round(x))  # distance to the nearest integer
            out += p * d * d
    elif dist.kind == "gaussian":
        out = _xi_norm_sq_gaussian(w)
    else:
        out = _xi_norm_sq_uniform(w)
    return float(out[0]) if scalar else out


def _xi_norm_sq_gaussian(w: np.ndarray) -> np.ndarray:
    """The cosine series of ``xi_norm_sq``, sized for each entry.

    xi1 - xi2 is N(0, 2), so |charfn(2 pi m w)|^2 = exp(-4 pi^2 m^2 w^2) and

        E||w (xi1 - xi2)||^2 = 1/12 + sum_m (-1)^m exp(-4 pi^2 m^2 w^2) / (pi m)^2.

    The terms alternate and shrink, so the dropped tail is below the first
    dropped term.  An entry with 1/(T - 1) <= |w| < 1 sums T terms, at least
    N(w) = ceil(1/|w|) + 1: its first dropped term has m = T + 1 and
    m |w| > 1, so it is below e^{-4 pi^2} / pi^2 = 7.3e-19 < 1e-18.  T runs
    over the powers of two 4, 8, 16, 32 until 1/(T - 1) passes
    ``_GAUSS_SMALL_W``, one tier each; each entry's value depends only on
    its own w.  Two ends need no series:

    * |w| >= 1 is 1/12.  The sum is below its first term,
      e^{-4 pi^2 w^2} / pi^2 <= 7.3e-19, under half an ulp of 1/12
      (6.9e-18), so 1/12 + sum rounds to 1/12, as the summed series did.
    * |w| <= ``_GAUSS_SMALL_W`` is 2 w^2 = E X^2 for X = w (xi1 - xi2).
      ||X||^2 = X^2 unless |X| > 1/2, so the error is at most
      E[X^2 1{|X| > 1/2}] = 2 s^2 (z phi(z) + Q(z)) with s^2 = 2 w^2,
      z = 1/(2 s), phi the normal density and Q its upper tail:
      2.5e-19 at the cutoff, below the series' truncation.
    """
    aw = np.abs(w).ravel()
    out = np.full(aw.size, 1.0 / 12.0)
    small = aw <= _GAUSS_SMALL_W
    out[small] = 2.0 * aw[small] ** 2
    nterms, upper = 4, 1.0
    while upper > _GAUSS_SMALL_W:
        lower = 1.0 / (nterms - 1)
        tier = np.flatnonzero((aw >= lower) & (aw < upper) & ~small)
        for lo in range(0, tier.size, _GAUSS_BLOCK):
            block = tier[lo:lo + _GAUSS_BLOCK]
            out[block] = _gaussian_series(aw[block], nterms)
        nterms, upper = 2 * nterms, lower
    return out.reshape(w.shape)


def _gaussian_series(aw: np.ndarray, nterms: int) -> np.ndarray:
    """The first nterms terms of the Gaussian series, summed from the
    smallest term up, the same way for every entry: one axis-0 sum of the
    (nterms, k) term table, smallest m first, adds its rows in order for
    k >= 2.  numpy sums a lone column pairwise, so one entry takes a twin."""
    m = np.arange(nterms, 0.0, -1.0)
    sq = np.broadcast_to(aw**2, (max(aw.size, 2),))
    terms = np.multiply.outer(-4.0 * math.pi**2 * m**2, sq)
    np.exp(terms, out=terms)
    terms *= (np.where(m % 2 == 0, 1.0, -1.0) / (math.pi**2 * m**2))[:, None]
    return 1.0 / 12.0 + terms.sum(axis=0)[:aw.size]


def _xi_norm_sq_uniform(w: np.ndarray) -> np.ndarray:
    """Closed form for xi uniform on [-sqrt3, sqrt3].

    w (xi1 - xi2) has the triangular density (a - |x|)/a^2 on [-a, a], with
    a = 2 sqrt3 |w|, so E||.||^2 = (2/a^2) int_0^a F(x) dx with
    F(x) = int_0^x ||s||^2 ds = x/12 + u^3/3 - u/12 and u = x - round(x).
    The periodic part integrates to u^4/12 - u^2/24 at x = a, which gives

        E||.||^2 = (r (a + u)/12 + u^4/6) / a^2,   r = round(a), u = a - r,

    written below without the cancellation of a^2 - u^2 = r (a + u), and
    with 0 at w = 0.
    """
    a = 2.0 * SQRT3 * np.abs(w)
    r = np.round(a)
    u = a - r
    safe = np.where(a > 0.0, a, 1.0)
    return (r / safe) * ((a + u) / safe) / 12.0 + ((u / safe) * u) ** 2 / 6.0
