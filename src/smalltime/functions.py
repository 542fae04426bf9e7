"""Builtin C^2 test-function families with exact derivatives.

Every instance carries value, gradient and Hessian evaluators in closed form
plus, in one dimension, the second-order Taylor remainder used by the
singular jump quadratures, in a cancellation-free closed form for every
family. The tests check each family's derivatives against centered finite
differences.
"""

import math

import numpy as np

from .compensators import g2
from .errors import DimensionMismatch, DomainError, InvariantViolation


class SmoothFunction:
    """A C^2 function handle from one of the builtin families.

    A plain record: ``value``, ``gradient`` and ``hessian`` are the family's
    closed-form evaluators, called with a float in one dimension and an
    array of ``dim`` entries otherwise.

    Attributes
    ----------
    dim : int
    family : str
        One of "polynomial", "affine", "exp_affine", "gaussian_bump",
        "mollified_call".
    value, gradient, hessian : callable
    """

    def __init__(self, dim, family, value, gradient, hessian, curvature=None):
        self.dim = int(dim)
        self.family = family
        self.value = value
        self.gradient = gradient
        self.hessian = hessian
        self._curvature = curvature

    def curvature_remainder(self, x, y):
        """(f(x+y) - f(x) - y f'(x)) / y^2 for scalar x, stable near y = 0."""
        if self.dim != 1:
            raise DimensionMismatch("curvature_remainder is one-dimensional")
        return self._curvature(x, y)


# ----------------------------------------------------------------------
# families

def polynomial(coeffs, center=0.0):
    """sum_k coeffs[k] * (x - center)^k, one-dimensional."""
    coeffs = [float(a) for a in coeffs]
    c = float(center)

    def value(x):
        u = x - c
        return sum(a * u**k for k, a in enumerate(coeffs))

    def gradient(x):
        u = x - c
        return sum(k * a * u ** (k - 1) for k, a in enumerate(coeffs) if k >= 1)

    def hessian(x):
        u = x - c
        return sum(k * (k - 1) * a * u ** (k - 2)
                   for k, a in enumerate(coeffs) if k >= 2)

    def curvature(x, y):
        # exact binomial expansion of the remainder, no cancellation
        u = x - c
        total = 0.0
        for k, a in enumerate(coeffs):
            if k < 2 or a == 0.0:
                continue
            for j in range(2, k + 1):
                total += a * math.comb(k, j) * u ** (k - j) * y ** (j - 2)
        return total

    return SmoothFunction(1, "polynomial", value, gradient, hessian, curvature)


def affine(weights, intercept=0.0):
    """w . x + b in any dimension (zero Hessian)."""
    w = np.atleast_1d(np.asarray(weights, dtype=float))
    b = float(intercept)
    d = w.size
    if d == 1:
        w0 = float(w[0])
        return SmoothFunction(
            1, "affine", lambda x: w0 * x + b, lambda x: w0, lambda x: 0.0,
            curvature=lambda x, y: 0.0)
    return SmoothFunction(d, "affine", lambda x: float(np.dot(w, x) + b),
                          lambda x: w.copy(), lambda x: np.zeros((d, d)))


def exp_affine(weights, offset=0.0, scale=1.0):
    """scale * exp(w . x + offset)."""
    w = np.atleast_1d(np.asarray(weights, dtype=float))
    b, s = float(offset), float(scale)
    d = w.size
    if d == 1:
        w0 = float(w[0])

        def value(x):
            return s * math.exp(w0 * x + b)

        def curvature(x, y):
            return value(x) * w0 * w0 * g2(w0 * y)

        return SmoothFunction(
            1, "exp_affine", value, lambda x: w0 * value(x),
            lambda x: w0 * w0 * value(x), curvature)

    def value(x):
        return s * math.exp(float(np.dot(w, x)) + b)

    return SmoothFunction(
        d, "exp_affine", value, lambda x: value(x) * w,
        lambda x: value(x) * np.outer(w, w))


def gaussian_bump(center=0.0, width=1.0, height=1.0, offset=0.0):
    """height * exp(-|x - center|^2 / (2 width^2)) + offset."""
    if width <= 0:
        raise InvariantViolation("width must be positive")
    wd, h, off = float(width), float(height), float(offset)
    if wd * wd == 0.0:
        raise DomainError(f"width**2 underflows a float for width = {wd!r}")
    c = np.atleast_1d(np.asarray(center, dtype=float))
    d = c.size
    iw2 = 1.0 / (wd * wd)
    if d == 1:
        c0 = float(c[0])

        def value(x):
            a = x - c0
            return h * math.exp(-0.5 * a * a * iw2) + off

        def gradient(x):
            a = x - c0
            return -h * a * iw2 * math.exp(-0.5 * a * a * iw2)

        def hessian(x):
            a = x - c0
            return h * (a * a * iw2 - 1.0) * iw2 * math.exp(-0.5 * a * a * iw2)

        def curvature(x, y):
            a = x - c0
            core = h * math.exp(-0.5 * a * a * iw2)
            z = (a + 0.5 * y) * y * iw2
            z_over_y = (a + 0.5 * y) * iw2
            try:
                remainder = core * (g2(-z) * z_over_y * z_over_y - 0.5 * iw2)
            except OverflowError:
                remainder = math.nan
            if math.isfinite(remainder):
                return remainder
            # far out on the bump's tail e^-z overflows (or meets a core
            # that underflowed to 0) while core e^-z, the value at x + y,
            # is finite: h exp(-(a + y)^2 / (2 width^2))
            return ((h * math.exp(-0.5 * (a + y) * (a + y) * iw2) - core * (1.0 - z)) / (y * y)
                    - 0.5 * core * iw2)

        return SmoothFunction(1, "gaussian_bump", value, gradient, hessian,
                              curvature)

    def value(x):
        a = np.asarray(x, dtype=float) - c
        return h * math.exp(-0.5 * float(np.dot(a, a)) * iw2) + off

    def gradient(x):
        a = np.asarray(x, dtype=float) - c
        return -(value(x) - off) * a * iw2

    def hessian(x):
        a = np.asarray(x, dtype=float) - c
        core = value(x) - off
        return core * (np.outer(a, a) * iw2 - np.eye(d)) * iw2

    return SmoothFunction(d, "gaussian_bump", value, gradient, hessian)


def mollified_call(strike, n):
    """C^2 smoothing of x -> (x - strike)^+ with bandwidth 1/n.

    Outside [strike - 1/n, strike + 1/n] the function equals the call payoff
    exactly; inside, it is the payoff convolved with an Epanechnikov kernel,
    so (x - K)^+ <= f(x) <= (x - K)^+ + 1/n holds throughout.
    """
    if n <= 0:
        raise InvariantViolation("n must be positive")
    K, nn = float(strike), float(n)

    def _pieces(x):
        s = nn * (x - K)
        if s <= -1.0:
            return 0.0, 0.0, 0.0
        if s >= 1.0:
            return x - K, 1.0, 0.0
        val = (3.0 / 16.0 + 0.5 * s + 0.375 * s * s - s**4 / 16.0) / nn
        grad = 0.5 + 0.75 * s - 0.25 * s**3
        hess = nn * 0.75 * (1.0 - s * s)
        return val, grad, hess

    def curvature(x, y):
        # int_0^1 (1 - s) f''(x + s y) ds with f'' = (3n/4)(1 - u^2) in the
        # band coordinate u = n (. - K) on [-1, 1] and 0 outside: over the
        # part [p, q] of [ua, ub] inside the band, Simpson's rule is exact
        # for the cubic (ub - u)(1 - u^2), whose nodes share one sign, so
        # nothing cancels; the factor ub - u is carried divided by d = n y
        if y == 0.0:
            return 0.5 * _pieces(x)[2]
        ua, d = nn * (x - K), nn * y
        ub = ua + d
        if min(ua, ub) >= 1.0 or max(ua, ub) <= -1.0:
            return 0.0  # one side of the band: f is affine from x to x + y
        p, q = min(max(ua, -1.0), 1.0), min(max(ub, -1.0), 1.0)
        wp = 1.0 if p == ua else (ub - p) / d
        wq = 0.0 if q == ub else (ub - q) / d
        m = 0.5 * (p + q)
        # (q - p) / d, which is 1 inside the band even where d is below
        # the rounding of ua
        span = 1.0 if (p, q) == (ua, ub) else (q - p) / d
        return (nn / 8.0 * span
                * (wp * (1.0 - p) * (1.0 + p) + 2.0 * (wp + wq) * (1.0 - m) * (1.0 + m)
                   + wq * (1.0 - q) * (1.0 + q)))

    return SmoothFunction(1, "mollified_call", lambda x: _pieces(x)[0],
                          lambda x: _pieces(x)[1], lambda x: _pieces(x)[2],
                          curvature)


_FAMILIES = {
    "polynomial": polynomial,
    "affine": affine,
    "exp_affine": exp_affine,
    "gaussian_bump": gaussian_bump,
    "mollified_call": mollified_call,
}


def from_spec(spec):
    """Build a SmoothFunction from a {"family": ..., **params} mapping."""
    spec = dict(spec)
    family = spec.pop("family", None)
    if family not in _FAMILIES:
        raise InvariantViolation(f"unknown function family {family!r}")
    return _FAMILIES[family](**spec)
