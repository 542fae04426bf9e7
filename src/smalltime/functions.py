"""Builtin C^2 test-function families with exact derivatives.

Every instance carries value, gradient and Hessian evaluators plus, in one
dimension, a cancellation-free second-order Taylor remainder used by the
singular jump quadratures. Construction cross-checks the analytic derivatives
against centered finite differences at seeded random probe points.
"""

import math

import numpy as np

from .compensators import g2
from .errors import DimensionMismatch, InvariantViolation

_FD_STEP = 1e-5
_FD_RTOL = 1e-5


class SmoothFunction:
    """A C^2 function handle from one of the builtin families.

    Attributes
    ----------
    dim : int
    family : str
        One of "polynomial", "affine", "exp_affine", "gaussian_bump",
        "mollified_call".
    params : dict
    """

    def __init__(self, dim, family, params, value, gradient, hessian,
                 curvature=None, probes=None):
        self.dim = int(dim)
        self.family = family
        self.params = dict(params)
        self._value = value
        self._gradient = gradient
        self._hessian = hessian
        self._curvature = curvature
        self._check_derivatives(probes)

    # -- evaluation ------------------------------------------------------
    def value(self, x):
        return self._value(x)

    def gradient(self, x):
        return self._gradient(x)

    def hessian(self, x):
        return self._hessian(x)

    def curvature_remainder(self, x, y):
        """(f(x+y) - f(x) - y f'(x)) / y^2 for scalar x, stable near y = 0."""
        if self.dim != 1:
            raise DimensionMismatch("curvature_remainder is one-dimensional")
        if self._curvature is not None:
            return self._curvature(x, y)
        if y == 0.0:
            return 0.5 * self._hessian(x)
        return (self._value(x + y) - self._value(x) - y * self._gradient(x)) / (y * y)

    # -- construction check -----------------------------------------------
    def _check_derivatives(self, probes):
        if probes is None:
            rng = np.random.default_rng(1234)
            if self.dim == 1:
                probes = list(rng.standard_normal(4))
            else:
                probes = list(rng.standard_normal((4, self.dim)))
        h = _FD_STEP
        for x in probes:
            if self.dim == 1:
                fx = self._value(x)
                fd_g = (self._value(x + h) - self._value(x - h)) / (2 * h)
                fd_h = (self._value(x + h) - 2 * fx + self._value(x - h)) / (h * h)
                self._assert_close(fd_g, self._gradient(x), fx, x, "gradient", 1)
                self._assert_close(fd_h, self._hessian(x), fx, x, "hessian", 2)
            else:
                x = np.asarray(x, dtype=float)
                fx = self._value(x)
                g = np.asarray(self._gradient(x), dtype=float)
                hess = np.asarray(self._hessian(x), dtype=float)
                for i in range(self.dim):
                    e = np.zeros(self.dim)
                    e[i] = h
                    fd_g = (self._value(x + e) - self._value(x - e)) / (2 * h)
                    self._assert_close(fd_g, g[i], fx, x, f"gradient[{i}]", 1)
                    fd_h = (self._value(x + e) - 2 * fx
                            + self._value(x - e)) / (h * h)
                    self._assert_close(fd_h, hess[i, i], fx, x,
                                       f"hessian[{i},{i}]", 2)
                    for j in range(i + 1, self.dim):
                        ej = np.zeros(self.dim)
                        ej[j] = h
                        fd_m = (self._value(x + e + ej) - self._value(x + e - ej)
                                - self._value(x - e + ej)
                                + self._value(x - e - ej)) / (4 * h * h)
                        self._assert_close(fd_m, hess[i, j], fx, x,
                                           f"hessian[{i},{j}]", 2)

    def _assert_close(self, fd, exact, fx, x, label, order):
        scale = max(1.0, abs(exact), abs(fx))
        # second differences carry an irreducible roundoff of ~4 eps |f| / h^2
        eps = np.finfo(float).eps
        floor = (4.0 if order == 2 else 1.0) * eps * max(1.0, abs(fx)) / _FD_STEP**order
        if abs(fd - exact) > _FD_RTOL * scale + floor:
            raise InvariantViolation(
                f"{self.family}: {label} disagrees with finite differences at "
                f"x={x} (fd={fd}, exact={exact})")


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

    return SmoothFunction(1, "polynomial", {"coeffs": coeffs, "center": c},
                          value, gradient, hessian, curvature)


def affine(weights, intercept=0.0):
    """w . x + b in any dimension (zero Hessian)."""
    w = np.atleast_1d(np.asarray(weights, dtype=float))
    b = float(intercept)
    d = w.size
    if d == 1:
        w0 = float(w[0])
        return SmoothFunction(
            1, "affine", {"weights": [w0], "intercept": b},
            lambda x: w0 * x + b, lambda x: w0, lambda x: 0.0,
            curvature=lambda x, y: 0.0)
    return SmoothFunction(
        d, "affine", {"weights": list(w), "intercept": b},
        lambda x: float(np.dot(w, x) + b),
        lambda x: w.copy(),
        lambda x: np.zeros((d, d)))


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
            1, "exp_affine", {"weights": [w0], "offset": b, "scale": s},
            value, lambda x: w0 * value(x), lambda x: w0 * w0 * value(x),
            curvature)

    def value(x):
        return s * math.exp(float(np.dot(w, x)) + b)

    return SmoothFunction(
        d, "exp_affine", {"weights": list(w), "offset": b, "scale": s},
        value, lambda x: value(x) * w, lambda x: value(x) * np.outer(w, w))


def gaussian_bump(center=0.0, width=1.0, height=1.0, offset=0.0):
    """height * exp(-|x - center|^2 / (2 width^2)) + offset."""
    if width <= 0:
        raise InvariantViolation("width must be positive")
    wd, h, off = float(width), float(height), float(offset)
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
            return core * (g2(-z) * z_over_y * z_over_y - 0.5 * iw2)

        probes = list(c0 + wd * np.random.default_rng(5).standard_normal(4))
        return SmoothFunction(
            1, "gaussian_bump",
            {"center": c0, "width": wd, "height": h, "offset": off},
            value, gradient, hessian, curvature, probes=probes)

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

    probes = list(c + wd * np.random.default_rng(5).standard_normal((4, d)))
    return SmoothFunction(
        d, "gaussian_bump",
        {"center": list(c), "width": wd, "height": h, "offset": off},
        value, gradient, hessian, probes=probes)


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

    def value(x):
        return _pieces(x)[0]

    def gradient(x):
        return _pieces(x)[1]

    def hessian(x):
        return _pieces(x)[2]

    rng = np.random.default_rng(7)
    # probe away from the band edges where the third derivative jumps; for
    # very narrow bands the finite-difference step would straddle them, so
    # only the exact payoff regions are probed
    probes = [K - 3.0 / nn, K + 2.5 / nn]
    if nn <= 500.0:
        probes += [K - 0.4 / nn, K + 0.5 / nn]
    probes = [p + 0.05 / nn * float(rng.standard_normal()) for p in probes]
    return SmoothFunction(1, "mollified_call", {"strike": K, "n": nn},
                          value, gradient, hessian, probes=probes)


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
