"""Adaptive quadrature helpers used by the compensator integrals.

Thin wrappers around QUADPACK (scipy.integrate.quad) with one acceptance
rule, and the power substitution that removes integrable singularities at
the origin. The rule: the summed QUADPACK error of an integral of f must be
at most ``tol * max(1, integral of |f|)``, so integrals against a
compensator stay linear in its intensity, also where f cancels (QUADPACK's
error grows with |f|, not with the value). A piece flagged as probably
divergent is rejected when |f| is flagged too: a relative budget alone
accepts the extrapolated value of a divergent integral. QUADPACK is
imported on the first integral, because ``scipy.integrate`` is most of a
cold start.

Which compensator constructions probe integrability here: a density without
declared exponential moments, a stable-like measure with callable c, and a
pushforward. Atomic, normal, Laplace and constant-c stable-like
constructions check it in closed form.
"""

import numpy as np

from .errors import QuadratureDivergence

DEFAULT_TOL = 1e-9
# budget of the checks that only ask whether an integral is finite
PROBE_TOL = 1e-7

_QUAD_LIMIT = 400
# how scipy words QUADPACK's ier = 5 in its full_output message
_DIVERGENT = "The integral is probably divergent"


def quad_abs(fn, a, b, tol, points=None):
    """Integrate ``fn`` over [a, b] with error <= tol * max(1, integral of |fn|).

    Parameters
    ----------
    fn : callable
        Scalar integrand.
    a, b : float
        Limits, possibly +-inf.
    tol : float
        Error budget, absolute up to an integral of |fn| of 1, relative above.
    points : sequence of float, optional
        Known breakpoints; those inside (a, b) split the range.

    Returns
    -------
    (value, err) : tuple of float

    Raises
    ------
    QuadratureDivergence
        If the integral of |fn| is not finite or QUADPACK flags it as
        probably divergent, or if the summed error estimate exceeds the
        budget.
    """
    if a == b:
        return 0.0, 0.0
    cuts = [a, b]
    if points:
        cuts = [a] + sorted(p for p in points if a < p < b) + [b]
    pieces = list(zip(cuts[:-1], cuts[1:]))
    epsabs = 0.5 * tol / len(pieces)
    total = 0.0
    err = 0.0
    flagged = False
    for lo, hi in pieces:
        v, e, divergent = _quad_piece(fn, lo, hi, epsabs)
        flagged = flagged or divergent or not np.isfinite(v)
        total += v
        err += e
    # |value| bounds the integral of |fn| below: integrate |fn| only if it must
    size = abs(total)
    if flagged or err > tol * max(1.0, size):
        size = 0.0
        for lo, hi in pieces:
            # the divergence flag is reliable on an integrand of one sign
            v, e, divergent = _quad_piece(lambda y: abs(fn(y)), lo, hi, epsabs)
            if divergent or not np.isfinite(v):
                raise QuadratureDivergence(
                    f"integral of |f| on [{lo}, {hi}] not finite or probably "
                    f"divergent (value {v:.3e}, error {e:.3e})")
            size += v
    budget = tol * max(1.0, size)
    if err > budget:
        raise QuadratureDivergence(
            f"quadrature error {err:.3e} above budget {budget:.3e} on [{a}, {b}]")
    return total, err


def _quad_piece(fn, lo, hi, epsabs):
    """One QUADPACK call: (value, error, flagged as probably divergent)."""
    from scipy.integrate import quad
    v, e, _, *msg = quad(fn, lo, hi, epsabs=epsabs, epsrel=1e-12,
                         limit=_QUAD_LIMIT, full_output=1)
    return v, e, bool(msg) and msg[0].startswith(_DIVERGENT)


# the bench tracer wraps quadrature entry points by name, quad_soft among them
quad_soft = quad_abs


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
    inside = [p for p in points or () if 0.0 < p < hi]
    inv_q = 1.0 / q

    def transformed(u):
        return rho(u ** inv_q) / q

    return quad_abs(transformed, 0.0, hi ** q, tol, points=[p ** q for p in inside])


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
