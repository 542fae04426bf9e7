"""Integro-differential generator evaluation and first-order expansions.

``apply_generator`` evaluates

    L f(x) = beta . grad f(x) + tr[delta delta^T hess f(x)] / 2
             + integral of [f(x + y) - f(x) - kappa(y) . grad f(x)] m(dy)

for frozen characteristics; ``apply_exp_generator`` evaluates the price-space
analogue for the exponential model; ``short_time_expectation`` returns the
first-order expansion f(x) + t L f(x) of a conditional expectation at small
horizons t. No validity radius is enforced: the expansion is first order
only.

Test functions are not required to be globally bounded; local boundedness
near the evaluation point suffices for the formulas, and the caller is
responsible for integrability of f(x + .) against heavy-tailed jump
measures.
"""

import math

import numpy as np

from .characteristics import ExpModelCharacteristics, LocalCharacteristics
from .compensators import em1_over
from .errors import DimensionMismatch, DomainError
from .quadrature import DEFAULT_TOL


def _kappa_vec(y):
    y = np.asarray(y, dtype=float)
    return y / (1.0 + float(np.dot(y, y)))


def apply_generator(chars, f, x, tol=DEFAULT_TOL):
    """Evaluate the generator of ``chars`` on ``f`` at the point ``x``.

    The jump integrand is computed from the function's stable second-order
    Taylor remainder, so singular small-jump measures see a bounded
    integrand after the substitution performed by the compensator.
    """
    if f.dim != chars.dim:
        raise DimensionMismatch(f"f dimension {f.dim} != chars dimension {chars.dim}")
    if chars.dim == 1:
        x = float(np.atleast_1d(np.asarray(x, dtype=float))[0])
        grad = f.gradient(x)
        hess = f.hessian(x)
        beta = float(chars.beta[0])
        var = float(chars.diffusion_matrix()[0, 0])
        val = beta * grad + 0.5 * var * hess

        def integrand(y):
            return y * y * f.curvature_remainder(x, y) \
                + (y ** 3 / (1.0 + y * y)) * grad

        def integrand_over_y2(y):
            return f.curvature_remainder(x, y) + (y / (1.0 + y * y)) * grad

        return val + chars.jumps.integrate(integrand, tol, g_over_y2=integrand_over_y2)

    x = np.asarray(x, dtype=float)
    if x.size != chars.dim:
        raise DimensionMismatch(f"x has size {x.size}, expected {chars.dim}")
    grad = np.asarray(f.gradient(x), dtype=float)
    hess = np.asarray(f.hessian(x), dtype=float)
    val = float(np.dot(chars.beta, grad))
    val += 0.5 * float(np.trace(chars.diffusion_matrix() @ hess))
    fx = f.value(x)
    return val + chars.jumps.integrate(
        lambda y: f.value(x + np.asarray(y, dtype=float)) - fx
        - float(np.dot(_kappa_vec(y), grad)), tol)


def apply_exp_generator(ec, f, x, tol=DEFAULT_TOL):
    """Price-space generator of the exponential model at spot level x > 0.

    Evaluates r x f'(x) + x^2 sigma^2 f''(x) / 2 plus the jump integral of
    f(x e^y) - f(x) - x (e^y - 1) f'(x) against the log-jump compensator.
    """
    if f.dim != 1:
        raise DimensionMismatch("apply_exp_generator needs a one-dimensional f")
    if x <= 0:
        raise DomainError(f"price argument must be positive, got {x}")
    x = float(x)
    grad = f.gradient(x)
    val = ec.r * x * grad + 0.5 * x * x * ec.variance() * f.hessian(x)

    def integrand(y):
        u = x * math.expm1(y)
        return u * u * f.curvature_remainder(x, u)

    def integrand_over_y2(y):
        u = x * math.expm1(y)
        ratio = x * em1_over(y)
        return ratio * ratio * f.curvature_remainder(x, u)

    return val + ec.jumps.integrate(integrand, tol, g_over_y2=integrand_over_y2)


def short_time_expectation(model, f, x, t, tol=DEFAULT_TOL):
    """First-order expansion f(x) + t * L f(x) of E[f(state at horizon t)].

    ``model`` is either LocalCharacteristics (state-space generator) or
    ExpModelCharacteristics (price-space generator).
    """
    if t < 0:
        raise DomainError(f"horizon must be nonnegative, got {t}")
    if isinstance(model, ExpModelCharacteristics):
        fx = f.value(float(x))
        if t == 0.0:
            return fx
        return fx + t * apply_exp_generator(model, f, x, tol)
    if isinstance(model, LocalCharacteristics):
        pt = float(x) if model.dim == 1 else np.asarray(x, dtype=float)
        fx = f.value(pt)
        if t == 0.0:
            return fx
        return fx + t * apply_generator(model, f, pt, tol)
    raise DomainError(f"unsupported model type {type(model).__name__}")
