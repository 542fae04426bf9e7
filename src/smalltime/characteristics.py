"""Frozen semimartingale characteristics and their model builders.

``LocalCharacteristics`` is the triplet (drift, diffusion coefficient, jump
compensator) of a d-dimensional process at the evaluation date, with jump
compensation fixed to kappa(y) = y / (1 + |y|^2). ``ExpModelCharacteristics``
is the scalar exponential price model (spot, rate, volatility, log-jump
compensator).

Two builders produce frozen characteristics from higher-level descriptions:
a smooth function of a Markov jump-diffusion, and a time-changed Levy
process.
"""

import math

import numpy as np

from . import compensators as comp
from .compensators import JumpCompensator, kappa, no_jumps
from .errors import (DegenerateGradient, DimensionMismatch, DomainError,
                     InvariantViolation, QuadratureDivergence)
from .quadrature import DEFAULT_TOL, PROBE_TOL


class LocalCharacteristics:
    """Frozen triplet (beta, delta, m) of a d-dimensional Ito semimartingale.

    Parameters
    ----------
    beta : array_like, shape (d,)
        Drift at the evaluation date, kappa-compensation convention.
    delta : array_like, shape (d, n)
        Diffusion coefficient; the instantaneous covariance is delta delta^T.
    jumps : JumpCompensator
        Jump compensator; must be one-dimensional unless atomic.
    """

    def __init__(self, beta, delta, jumps=None):
        self.beta = np.atleast_1d(np.asarray(beta, dtype=float))
        delta = np.asarray(delta, dtype=float)
        if delta.ndim == 0:
            delta = delta.reshape(1, 1)
        elif delta.ndim == 1:
            delta = delta.reshape(1, -1) if self.beta.size == 1 else delta.reshape(-1, 1)
        self.delta = delta
        self.dim = self.beta.size
        if self.delta.shape[0] != self.dim:
            raise DimensionMismatch(
                f"delta has {self.delta.shape[0]} rows for dimension {self.dim}")
        self.jumps = jumps if jumps is not None else no_jumps()
        if not isinstance(self.jumps, JumpCompensator):
            raise InvariantViolation("jumps must be a JumpCompensator")
        if not self.jumps.is_empty() and self.jumps.dim != self.dim:
            raise DimensionMismatch(
                f"jump compensator dimension {self.jumps.dim} != {self.dim}")

    def diffusion_matrix(self):
        return self.delta @ self.delta.T


class ExpModelCharacteristics:
    """Exponential price model data frozen at the evaluation date.

    S0 > 0 is the spot, r >= 0 the deterministic discount rate, sigma >= 0
    the volatility, and ``jumps`` the compensator of log-price jumps. With
    sigma = 0 the model is pure-jump.
    """

    def __init__(self, S0, r=0.0, sigma=0.0, jumps=None):
        if S0 <= 0:
            raise InvariantViolation(f"S0 must be positive, got {S0}")
        if r < 0:
            raise InvariantViolation(f"r must be nonnegative, got {r}")
        if sigma < 0:
            raise InvariantViolation(f"sigma must be nonnegative, got {sigma}")
        self.S0 = float(S0)
        self.r = float(r)
        self.sigma = float(sigma)
        self.jumps = jumps if jumps is not None else no_jumps()
        if not isinstance(self.jumps, JumpCompensator):
            raise InvariantViolation("jumps must be a JumpCompensator")

    def variance(self):
        """sigma^2; DomainError when it overflows a float."""
        try:
            return self.sigma**2
        except OverflowError:
            raise DomainError(
                f"sigma**2 overflows a float for sigma = {self.sigma!r}") from None

    def log_characteristics(self, tol=DEFAULT_TOL):
        """Characteristics of the log price X = ln S.

        The drift is r - sigma^2/2 - integral of (e^y - 1 - kappa(y)) m(dy),
        the compensation that makes the discounted price a martingale.
        """
        beta = self.r - 0.5 * self.variance() - self.jumps.exp_compensation(tol)
        return LocalCharacteristics([beta], [[self.sigma]], self.jumps)


# ----------------------------------------------------------------------
# builders


def from_markov(b, Sigma, jump_fn, nu, f, Z0, tol=DEFAULT_TOL):
    """Frozen scalar characteristics of f(Z) for a Markov jump-diffusion Z.

    Z has drift ``b``, diffusion matrix ``Sigma`` and jumps driven by a
    Poisson random measure with intensity ``nu``, hit through the jump
    amplitude map ``jump_fn``, which must give one entry per coordinate of
    Z (DimensionMismatch otherwise); all coefficients are taken at the
    evaluation date. ``f`` must be twice differentiable at ``Z0`` with a
    nonzero partial derivative in the last coordinate.

    Returns
    -------
    LocalCharacteristics
        One-dimensional characteristics of the image process. The jump
        compensator is the pushforward of ``nu`` under the increment map
        y -> f(Z0 + jump_fn(y)) - f(Z0), exposed through its tail functions
        (exact atoms when ``nu`` is atomic). The drift is reported in the
        kappa-compensation convention used by the rest of the package, i.e.
        grad f . b + tr[hess f Sigma Sigma^T] / 2 + integral of
        (kappa(f(Z0 + jump_fn(y)) - f(Z0)) - jump_fn(y) . grad f) nu(dy),
        one integral against ``nu``. For one-dimensional Z the quotients
        that singular small-jump measures integrate, the drift integrand
        over y^2 and the increment over y, are formed from the curvature
        remainder of ``f`` without cancellation.
    """
    Z0 = np.atleast_1d(np.asarray(Z0, dtype=float))
    d = Z0.size
    if f.dim != d:
        raise DimensionMismatch(f"f has dimension {f.dim}, Z0 has {d}")
    b = np.atleast_1d(np.asarray(b, dtype=float))
    Sigma = np.atleast_2d(np.asarray(Sigma, dtype=float))
    if b.size != d or Sigma.shape != (d, d):
        raise DimensionMismatch("b or Sigma inconsistent with Z0")

    x0 = Z0 if d > 1 else float(Z0[0])
    grad = np.atleast_1d(np.asarray(f.gradient(x0), dtype=float))
    hess = np.atleast_2d(np.asarray(f.hessian(x0), dtype=float))
    if grad[-1] == 0.0:
        raise DegenerateGradient("last partial derivative of f vanishes at Z0")
    f0 = f.value(x0)

    def jump(y):
        # a float in one dimension, an array of d entries otherwise
        psi = jump_fn(y)
        if d == 1 and isinstance(psi, (float, np.floating)):
            return float(psi)
        psi = np.atleast_1d(np.asarray(psi, dtype=float))
        if psi.size != d:
            raise DimensionMismatch(
                f"jump_fn gives {psi.size} entries per jump, Z0 has {d}")
        return psi if d > 1 else float(psi[0])

    def increment(y):
        return f.value(x0 + jump(y)) - f0

    g0 = float(grad[0])

    def drift_integrand(y):
        p = jump(y)
        return kappa(f.value(x0 + p) - f0) - (p * g0 if d == 1 else float(np.dot(p, grad)))

    drift_over_y2 = increment_over_y = None
    if d == 1:
        def drift_over_y2(y):
            # the integrand over y^2 without its cancellation: with p the
            # jump, R the curvature remainder, v = f' + p R and u = p v,
            # kappa(u) - p f' = p^2 R - u^3 / (1 + u^2)
            p = jump(y)
            r = f.curvature_remainder(x0, p)
            v = g0 + p * r
            return (p / y) ** 2 * (r - p * v ** 3 / (1.0 + (p * v) ** 2))

        def increment_over_y(y):
            # the increment u = p v over y, without its cancellation
            p = jump(y)
            return (p / y) * (g0 + p * f.curvature_remainder(x0, p))

    a = Sigma @ Sigma.T
    beta = (float(np.dot(grad, b)) + 0.5 * float(np.trace(hess @ a))
            + nu.integrate(drift_integrand, tol, g_over_y2=drift_over_y2))

    delta0 = float(np.linalg.norm(grad @ Sigma))

    if nu.form == "atomic":
        atoms = []
        for y, lam in zip(nu.locations, nu.masses):
            u = increment(y)
            if u != 0.0:
                atoms.append((u, lam))
        pushforward = comp.AtomicCompensator(atoms)
    else:
        pushforward = comp.PushforwardCompensator(nu, increment, increment_over_y)

    return LocalCharacteristics([beta], [[delta0]], pushforward)


def from_time_changed_levy(levy_triplet, theta0, tol=DEFAULT_TOL):
    """Frozen characteristics of a Levy process run on a stochastic clock.

    ``levy_triplet`` is (b, sigma2, nu) where b is the mean drift of the
    Levy process (finite second moment convention, E L_t = b t), sigma2 its
    Gaussian variance and nu its Levy measure; ``theta0`` is the current rate
    of time change. The compensator scales linearly with the rate:
    m(dy) = theta0 nu(dy).
    """
    b, sigma2, nu = levy_triplet
    if theta0 < 0:
        raise DomainError(f"theta0 must be nonnegative, got {theta0}")
    if sigma2 < 0:
        raise InvariantViolation("sigma2 must be nonnegative")
    if nu is None:
        nu = no_jumps()
    try:
        nu.integrate(lambda y: y * y, tol=PROBE_TOL, g_over_y2=lambda y: 1.0)
    except QuadratureDivergence as exc:
        raise InvariantViolation(
            f"nu fails the square-integrability requirement: {exc}") from exc
    if theta0 == 0.0:
        return LocalCharacteristics([0.0], [[0.0]], no_jumps())
    correction = nu.integrate(lambda y: y - kappa(y), tol,
                              g_over_y2=lambda y: y / (1.0 + y * y))
    beta = (float(b) - correction) * theta0
    delta = math.sqrt(float(sigma2) * theta0)
    return LocalCharacteristics([beta], [[delta]], nu.scaled(theta0))
