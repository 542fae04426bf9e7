"""Adaptive quadrature helpers used by the compensator integrals.

Thin wrappers around QUADPACK (scipy.integrate.quad) that enforce an
absolute error budget and provide the power substitution that removes
integrable singularities at the origin.
"""

import warnings

import numpy as np
from scipy import integrate as _sci

from .errors import QuadratureDivergence

DEFAULT_TOL = 1e-9

_QUAD_LIMIT = 400


def quad_abs(fn, a, b, tol, points=None):
    """Integrate ``fn`` over [a, b] with certified absolute error <= tol.

    Parameters
    ----------
    fn : callable
        Scalar integrand.
    a, b : float
        Limits, possibly +-inf.
    tol : float
        Absolute error budget.
    points : sequence of float, optional
        Known breakpoints (kinks) strictly inside finite intervals.

    Returns
    -------
    (value, err) : tuple of float

    Raises
    ------
    QuadratureDivergence
        If the QUADPACK error estimate does not fall below ``tol``.
    """
    if a == b:
        return 0.0, 0.0
    cuts = [a, b]
    if points:
        cuts = [a] + sorted(p for p in points if a < p < b) + [b]
    total = 0.0
    err = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", _sci.IntegrationWarning)
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            piece_tol = tol / (len(cuts) - 1)
            v, e = _sci.quad(fn, lo, hi, epsabs=0.5 * piece_tol, epsrel=1e-12,
                             limit=_QUAD_LIMIT)
            if not np.isfinite(v) or e > piece_tol:
                raise QuadratureDivergence(
                    f"quadrature error {e:.3e} above budget {piece_tol:.3e} "
                    f"on [{lo}, {hi}]")
            total += v
            err += e
    return total, err


def quad_soft(fn, a, b, tol):
    """Quadrature with an absolute target and a relative escape hatch.

    Meant for smooth tail integrals evaluated inside other quadratures: the
    requested absolute budget may be tighter than QUADPACK's floor on wide
    intervals, but near machine relative accuracy is always achievable and
    is what the enclosing integral needs.
    """
    if a >= b:
        return 0.0, 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", _sci.IntegrationWarning)
        v, e = _sci.quad(fn, a, b, epsabs=tol, epsrel=1e-11, limit=_QUAD_LIMIT)
    if not np.isfinite(v) or e > tol + 1e-8 * abs(v):
        raise QuadratureDivergence(
            f"tail quadrature error {e:.3e} not within {tol:.3e} absolute "
            f"or 1e-8 relative on [{a}, {b}]")
    return v, e


def quad_singular_origin(rho, power, hi, tol, points=None):
    """Integrate rho(y) * y**(2 - power) over (0, hi] with a y**-power scale.

    Handles integrands of the form H(y) / y**power where H(y) = rho(y) * y**2
    and rho stays bounded at 0. The substitution u = y**(3 - power) turns the
    integrand into rho(u**(1/(3-power))) / (3 - power), which is bounded, so
    plain adaptive quadrature applies. Kinks in ``points`` that lie inside
    (0, hi) are mapped through the same substitution.

    Requires 0 < power < 3 and hi > 0.
    """
    q = 3.0 - power
    if q <= 0:
        raise QuadratureDivergence(f"singularity power {power} is not integrable")
    kinks = [p for p in points or () if 0.0 < p < hi]
    inv_q = 1.0 / q

    def transformed(u):
        return rho(u ** inv_q) / q

    return quad_abs(transformed, 0.0, hi ** q, tol, points=[p ** q for p in kinks])


def expanding_upper_limit(fn, start, tol):
    """Find a finite cutoff where a decaying envelope is below tol.

    Walks right from ``start`` in steps growing by 1.25 from 1 until
    |fn(x)| * step stays below ``tol`` for three consecutive probes, giving
    up after 300 probes. Used to truncate infinite upper limits whose
    integrands decay beyond any bracketable scale.
    """
    x = start
    step = 1.0
    quiet = 0
    for _ in range(300):
        x += step
        if abs(fn(x)) * step < tol:
            quiet += 1
            if quiet >= 3:
                return x
        else:
            quiet = 0
        step *= 1.25
    raise QuadratureDivergence("integrand envelope does not decay; cannot truncate")
