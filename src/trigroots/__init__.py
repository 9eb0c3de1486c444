"""Numerical laboratory for real roots of random trigonometric polynomials.

The object of study is

    P_n(t) = n^{-1/2} * sum_{i=1}^n  y_{i1} cos(i t / n) + y_{i2} sin(i t / n)

with iid mean-zero, unit-variance coefficients y_{ij}, counted over one
period t in (-n*pi, n*pi].  The package simulates root counts, estimates
Var(N_n)/n against its kurtosis-dependent limit, computes the Gaussian
variance slope by quadrature, and probes the supporting machinery:
approximate delta-integral root counting, Edgeworth correctors,
non-resonance (Diophantine) conditions, characteristic-function decay and
small-ball probabilities.
"""

__version__ = "0.1.0"
