"""Jump compensators and their integral transforms.

A jump compensator is the intensity measure m(dy) of log-jump sizes per unit
time, frozen at the evaluation date. Three declarable forms are supported:

* atomic (compound Poisson with finitely many jump sizes),
* density (absolutely continuous with a declared support and a declared
  power-law singularity order at the origin),
* stable-like (an explicit |y|**-(1+alpha) small-jump part on [-1, 1] plus a
  finite-variation residual).

The zero measure (``no_jumps``) is the atomic form with no atoms: its
integrals, tails and double tails are 0.0 and its support is (0.0, 0.0), so
callers need no separate jump-free path.

A fourth, non-declarable form arises as the pushforward of a non-atomic
measure through a smooth map; it is exposed only through its tail
functions, which need a density base. Pushforwards of atomic measures stay
atomic.

All forms implement

* ``integrate(g)``, the integral of g against the measure,
* ``upper_tail`` / ``lower_tail``,
* the exponential double tails used by short-maturity option slopes.

Construction validates the usual integrability requirements: integral of
min(1, y^2) and of (e^y - 1)^2 must both be finite, in closed form where
the form allows it and by quadrature otherwise (the ``quadrature`` module
lists which is which).
"""

import math

import numpy as np

from .errors import DomainError, InvariantViolation, QuadratureDivergence
from .quadrature import (DEFAULT_TOL, PROBE_TOL, expanding_upper_limit, quad_abs,
                         quad_singular_origin)

_SUPPORT_CAP = 60.0
_SCAN_POINTS = 4001  # grid points of the pushforward level-set scan


def kappa(y):
    """Truncation function y / (1 + y^2), the fixed compensation convention."""
    return y / (1.0 + y * y)


def g2(z):
    """(e^z - 1 - z) / z^2 with the limit 1/2 at 0; the direct form loses
    relative accuracy like eps/|z|, so a series is used for |z| < 1e-4."""
    if abs(z) < 1e-4:
        return 0.5 + z / 6.0 + z * z / 24.0
    return (math.expm1(z) - z) / (z * z)


def em1_over(z):
    """(e^z - 1) / z with the limit 1 at 0."""
    if z == 0.0:
        return 1.0
    return math.expm1(z) / z


class JumpCompensator:
    """Base interface; see module docstring for the concrete forms."""

    form = "abstract"
    dim = 1
    # points where the density, or a tail, is not smooth. The public
    # ``integrate``, the double tails and a density's tail quadratures break
    # there; ``integrate_with_error`` breaks only at the caller's points
    kinks = ()

    # -- integration ---------------------------------------------------
    def integrate_with_error(self, g, tol=DEFAULT_TOL, points=None, g_over_y2=None):
        raise NotImplementedError

    def integrate(self, g, tol=DEFAULT_TOL, points=None, g_over_y2=None):
        val, _ = self.integrate_with_error(g, tol, points, g_over_y2)
        return val

    # -- tails ---------------------------------------------------------
    def upper_tail(self, x, tol=DEFAULT_TOL):
        """Mass of [x, +inf). Requires x > 0 for infinite-activity forms."""
        raise NotImplementedError

    def lower_tail(self, x, tol=DEFAULT_TOL):
        """Mass of (-inf, x]. Requires x < 0 for infinite-activity forms."""
        raise NotImplementedError

    def support(self):
        """Hull (lo, hi) of the support, possibly infinite."""
        raise NotImplementedError

    def scaled(self, factor):
        """The measure factor * m(dy); factor >= 0."""
        raise NotImplementedError

    def is_empty(self):
        return False

    # -- shared validation ----------------------------------------------
    def _validate_integrability(self):
        """Integrate min(1, y^2) and (e^y - 1)^2; both must be finite."""
        try:
            levy, _ = self.integrate_with_error(
                lambda y: min(1.0, y * y), tol=PROBE_TOL,
                g_over_y2=lambda y: min(1.0 / (y * y), 1.0) if y != 0.0 else 1.0)
            sqexp, _ = self.integrate_with_error(
                lambda y: math.expm1(y) ** 2, tol=PROBE_TOL,
                g_over_y2=lambda y: em1_over(y) ** 2)
        except (QuadratureDivergence, OverflowError) as exc:
            raise InvariantViolation(f"compensator fails integrability: {exc}") from exc
        if not (np.isfinite(levy) and np.isfinite(sqexp)):
            raise InvariantViolation("compensator integrability check returned non-finite value")

    def exp_compensation(self, tol=1e-11):
        """Integral of (e^y - 1 - kappa(y)) m(dy), the log-drift correction."""
        val, _ = self.integrate_with_error(
            lambda y: math.expm1(y) - kappa(y), tol=tol,
            g_over_y2=lambda y: g2(y) + y / (1.0 + y * y))
        return val


class AtomicCompensator(JumpCompensator):
    """Finitely many jump sizes y_i with intensities lambda_i (per unit time).

    Locations may be vectors, in which case the measure lives on R^d and only
    finite-sum integration is available.
    """

    form = "atomic"

    def __init__(self, atoms=()):
        locs, masses = [], []
        for y, lam in atoms:
            if lam < 0:
                raise InvariantViolation(f"negative mass {lam} at {y}")
            if lam == 0.0:
                continue
            locs.append(y)
            masses.append(float(lam))
        self.locations = np.asarray(locs, dtype=float)
        self.masses = np.asarray(masses, dtype=float)
        self.dim = 1 if self.locations.ndim <= 1 else self.locations.shape[1]
        if self.dim == 1:
            self.locations = self.locations.reshape(-1)
            self._validate_integrability()

    def is_empty(self):
        return self.masses.size == 0

    def integrate_with_error(self, g, tol=DEFAULT_TOL, points=None, g_over_y2=None):
        # Python floats overflow to inf silently, numpy scalars with a warning
        total = sum(lam * g(y) for y, lam in zip(self.locations, self.masses.tolist()))
        return float(total), 0.0

    def upper_tail(self, x, tol=DEFAULT_TOL):
        return float(np.sum(self.masses[self.locations >= x]))

    def lower_tail(self, x, tol=DEFAULT_TOL):
        return float(np.sum(self.masses[self.locations <= x]))

    def support(self):
        if self.masses.size == 0:
            return (0.0, 0.0)
        return (float(self.locations.min()), float(self.locations.max()))

    def scaled(self, factor):
        return AtomicCompensator(list(zip(self.locations, self.masses * factor)))


def no_jumps():
    """The zero measure (no jumps)."""
    return AtomicCompensator(())


class DensityCompensator(JumpCompensator):
    """Absolutely continuous compensator m(dy) = fn(y) dy on a declared support.

    Parameters
    ----------
    fn : callable
        Nonnegative intensity density, units 1/(time * log-size).
    support : (float, float)
        Declared support; either end may be infinite.
    singularity_order : float
        s >= 0 such that fn(y) ~ C |y|**-s near 0 (0 means bounded).
        Must satisfy s < 3 for Levy integrability.
    tail_up, tail_dn : callable, optional
        Closed-form tails, used instead of quadrature when available.
    sum_sampler : callable, optional
        ``sum_sampler(rng, counts)`` returning, for each path i, the sum of
        ``counts[i]`` iid jump sizes from the normalized density in one
        shot. Without it the simulator sums per-jump draws from a tabulated
        CDF of ``fn`` (an alias table). The hook does not depend on the intensity, so
        ``scaled`` passes it through.
    kinks : sequence of float, optional
        Points where ``fn`` is not smooth (``JumpCompensator.kinks``);
        ``scaled`` passes them through.
    exp_moments : (float, float), optional
        The integrals of e^y - 1 and of (e^y - 1)^2 against the measure in
        closed form. Construction then checks that they are finite instead
        of probing integrability by quadrature, the simulator takes its
        exponential compensation from the first, and ``scaled`` scales both.
    """

    form = "density"

    def __init__(self, fn, support, singularity_order=0.0, tail_up=None,
                 tail_dn=None, sum_sampler=None, kinks=(), exp_moments=None):
        lo, hi = float(support[0]), float(support[1])
        if not lo < hi:
            raise InvariantViolation(f"empty support ({lo}, {hi})")
        if singularity_order < 0 or singularity_order >= 3:
            raise InvariantViolation(
                f"singularity order {singularity_order} outside [0, 3)")
        self.fn = fn
        self.lo, self.hi = lo, hi
        self.singularity_order = float(singularity_order)
        self._tail_up = tail_up
        self._tail_dn = tail_dn
        self.sum_sampler = sum_sampler
        self.kinks = tuple(kinks)
        self.exp_moments = exp_moments
        for probe in np.linspace(max(lo, -5.0) + 1e-6, min(hi, 5.0) - 1e-6, 17).tolist():
            if probe != 0.0 and fn(probe) < 0:
                raise InvariantViolation(f"density negative at y={probe}")
        if exp_moments is None:
            self._validate_integrability()
        elif not all(map(math.isfinite, exp_moments)):
            # a finite intensity makes the integral of min(1, y^2) finite
            raise InvariantViolation(
                "compensator fails integrability: the integral of (e^y - 1)^2 "
                "overflows")

    def integrate_with_error(self, g, tol=DEFAULT_TOL, points=None, g_over_y2=None):
        s = self.singularity_order
        lo, hi = self.lo, self.hi
        pieces = []  # (kind, args)
        if s <= 0 or lo > 0 or hi < 0:
            pieces.append(("plain", (lo, hi)))
        else:
            if hi > 0:
                hi0 = min(hi, 1.0)
                pieces.append(("sing+", hi0))
                if hi > hi0:
                    pieces.append(("plain", (hi0, hi)))
            if lo < 0:
                lo0 = max(lo, -1.0)
                pieces.append(("sing-", -lo0))
                if lo < lo0:
                    pieces.append(("plain", (lo, lo0)))

        fn = self.fn

        def prod(y):
            # skip g where the density has underflowed; the infinite-range
            # transform probes arbitrarily large |y| where g may overflow
            d = fn(y)
            if d == 0.0:
                return 0.0
            try:
                return g(y) * d
            except OverflowError:
                return math.inf

        total = err = 0.0
        budget = tol / len(pieces)
        for kind, arg in pieces:
            if kind == "plain":
                a, b = arg
                v, e = quad_abs(prod, a, b, budget, points=points)
            elif kind == "sing+":
                v, e = quad_singular_origin(
                    lambda y: g(y) * self.fn(y) * y ** (s - 2.0), s, arg, budget,
                    points=points)
            else:
                v, e = quad_singular_origin(
                    lambda v_: g(-v_) * self.fn(-v_) * v_ ** (s - 2.0), s, arg, budget,
                    points=[-p for p in points or ()])
            total += v
            err += e
        return total, err

    def upper_tail(self, x, tol=DEFAULT_TOL):
        if self._tail_up is not None:
            return self._tail_up(x)
        if x >= self.hi:
            return 0.0
        if x <= 0 and self.singularity_order >= 1:
            return float("inf")
        v, _ = quad_abs(self.fn, max(x, self.lo), self.hi, tol, points=self.kinks)
        return v

    def lower_tail(self, x, tol=DEFAULT_TOL):
        if self._tail_dn is not None:
            return self._tail_dn(x)
        if x <= self.lo:
            return 0.0
        if x >= 0 and self.singularity_order >= 1:
            return float("inf")
        v, _ = quad_abs(self.fn, self.lo, min(x, self.hi), tol, points=self.kinks)
        return v

    def support(self):
        return (self.lo, self.hi)

    def scaled(self, factor):
        fn = self.fn
        tu, td = self._tail_up, self._tail_dn
        return DensityCompensator(
            lambda y: factor * fn(y), (self.lo, self.hi), self.singularity_order,
            tail_up=(lambda x: factor * tu(x)) if tu else None,
            tail_dn=(lambda x: factor * td(x)) if td else None,
            sum_sampler=self.sum_sampler, kinks=self.kinks,
            exp_moments=(None if self.exp_moments is None
                         else tuple(factor * v for v in self.exp_moments)))

    def total_intensity(self):
        if self.singularity_order >= 1:
            return float("inf")
        return self.upper_tail(0.0) + self.lower_tail(0.0)


class StableLikeCompensator(JumpCompensator):
    """m(dy) = residual(dy) + 1_{|y|<=1} c(y) / |y|**(1+alpha) dy.

    ``alpha`` must lie strictly in (1, 2); ``c`` is either a positive constant
    or a continuous function on [-1, 1] with c(0) > 0. The residual must be a
    finite-variation atomic or density compensator.

    Construction checks that the integrals of min(1, y^2) and (e^y - 1)^2
    are finite. For constant c they are closed forms over [-1, 1],
    2c / (2 - alpha) and 2c sum over even k >= 2 of
    (2^k - 2) / (k! (k - alpha)), and the residual checked itself when it
    was built, so no quadrature runs: as for atomic, normal and Laplace
    measures. Callable c is probed by quadrature, as are densities without
    declared exponential moments and pushforwards.
    """

    form = "stable_like"

    def __init__(self, alpha, c, residual=None):
        if not 1.0 < alpha < 2.0:
            raise InvariantViolation(f"alpha={alpha} outside (1, 2)")
        self.alpha = float(alpha)
        if callable(c):
            self.c = c
            self.c0 = float(c(0.0))
            self.constant_c = None
        else:
            self.c0 = float(c)
            self.constant_c = float(c)
            self.c = lambda y: float(c)
        if self.c0 <= 0:
            raise InvariantViolation("c(0) must be positive")
        self.residual = residual if residual is not None else no_jumps()
        if self.residual.form == "stable_like":
            raise InvariantViolation("residual must be atomic or density form")
        try:
            self.residual.integrate(abs, tol=PROBE_TOL)
        except QuadratureDivergence as exc:
            raise InvariantViolation(f"residual |y|-integral diverges: {exc}") from exc
        if self.constant_c is None:
            self._validate_integrability()
        elif not all(map(math.isfinite, _stable_moments(self.alpha, self.constant_c))):
            raise InvariantViolation(
                "compensator fails integrability: the integral of min(1, y^2) "
                f"or (e^y - 1)^2 is not finite for c = {self.constant_c!r}")

    def integrate_with_error(self, g, tol=DEFAULT_TOL, points=None, g_over_y2=None):
        if g_over_y2 is None:
            def g_over_y2(y):
                return g(y) / (y * y)
        a = self.alpha
        c = self.c
        budget = tol / 3.0
        vp, ep = quad_singular_origin(lambda y: g_over_y2(y) * c(y), 1.0 + a,
                                      1.0, budget, points=points)
        vm, em = quad_singular_origin(lambda v: g_over_y2(-v) * c(-v), 1.0 + a,
                                      1.0, budget, points=[-p for p in points or ()])
        vr, er = self.residual.integrate_with_error(g, budget, points, g_over_y2)
        return vp + vm + vr, ep + em + er

    def side_mass(self, x):
        """Mass of the c(y)/|y|**(1+alpha) part on [x, 1] for x > 0, or on
        [-1, x] for x < 0; closed form when c is constant."""
        ax = abs(x)
        if ax >= 1.0:
            return 0.0
        if self.constant_c is not None:
            return self.constant_c * (ax ** -self.alpha - 1.0) / self.alpha
        sgn = 1.0 if x > 0 else -1.0
        v, _ = quad_abs(lambda y: self.c(sgn * y) * y ** (-1.0 - self.alpha),
                        ax, 1.0, 1e-12)
        return v

    def side_second_moment(self, x):
        """Integral of y**2 against the c(y)/|y|**(1+alpha) part over (0, x]
        for x > 0, or over [x, 0) for x < 0, with 0 < |x| <= 1; closed form
        when c is constant."""
        a = self.alpha
        ax = abs(x)
        if self.constant_c is not None:
            return self.constant_c * ax ** (2.0 - a) / (2.0 - a)
        sgn = 1.0 if x > 0 else -1.0
        v, _ = quad_abs(lambda y: self.c(sgn * y) * y ** (1.0 - a), 0.0, ax, 1e-9)
        return v

    def upper_tail(self, x, tol=DEFAULT_TOL):
        if x <= 0:
            raise DomainError("upper tail of a stable-like measure needs x > 0")
        return self.side_mass(x) + self.residual.upper_tail(x, tol)

    def lower_tail(self, x, tol=DEFAULT_TOL):
        if x >= 0:
            raise DomainError("lower tail of a stable-like measure needs x < 0")
        return self.side_mass(x) + self.residual.lower_tail(x, tol)

    def support(self):
        rlo, rhi = self.residual.support()
        return (min(-1.0, rlo), max(1.0, rhi))

    def scaled(self, factor):
        if factor == 0.0:
            return no_jumps()
        if self.constant_c is not None:
            c = factor * self.constant_c
        else:
            base = self.c
            c = lambda y: factor * base(y)
        return StableLikeCompensator(self.alpha, c, self.residual.scaled(factor))


class PushforwardCompensator(JumpCompensator):
    """Image of a non-atomic base measure nu under an increment map,
    tail-backed.

    Used for the jump compensator of f(Z) when Z has jump measure nu and the
    increment of f at a base jump y is delta(y); ``from_markov`` pushes
    atomic measures forward atom by atom instead. Integrals reduce to the
    base measure by change of variables. With ``delta_over_y``, delta(y) / y
    in a form without cancellation, a supplied g(u) / u^2 is carried over
    as g(delta(y)) / y^2 = (g / u^2)(delta(y)) (delta(y) / y)^2, which
    singular small-jump measures integrate. Tails are computed from level sets
    of delta: a grid scan over the support of nu, bisection at each
    crossing, then quadrature of the density of nu over the kept intervals,
    so they need a density base and raise DomainError otherwise.

    The scan runs once per instance, on the first tail or ``support`` call:
    it costs 4001 delta evaluations and is shared by both tails and
    ``support``. Each tail call then adds 60 evaluations per crossing.
    """

    form = "pushforward"

    def __init__(self, nu, delta, delta_over_y=None):
        self.nu = nu
        self.delta = delta
        self.delta_over_y = delta_over_y
        self._scan = None
        self._validate_integrability()

    def integrate_with_error(self, g, tol=DEFAULT_TOL, points=None, g_over_y2=None):
        delta, q = self.delta, self.delta_over_y
        base_over_y2 = None
        if g_over_y2 is not None and q is not None:
            def base_over_y2(y):
                return g_over_y2(delta(y)) * q(y) ** 2
        return self.nu.integrate_with_error(lambda y: g(delta(y)), tol,
                                            g_over_y2=base_over_y2)

    def _scanned(self):
        """(grid, delta(grid)) over the support of nu, capped at +-60: the
        grid as a list of floats, which is what quadrature passes delta,
        and the values as an array."""
        if self._scan is None:
            lo, hi = self.nu.support()
            lo, hi = max(lo, -_SUPPORT_CAP), min(hi, _SUPPORT_CAP)
            grid = np.linspace(lo, hi, _SCAN_POINTS).tolist()
            self._scan = grid, np.array([self.delta(y) for y in grid], dtype=float)
        return self._scan

    def _level_mass(self, u, above):
        """nu-mass of {y : delta(y) >= u} (above) or {delta(y) <= u}."""
        delta = self.delta
        if self.nu.form != "density":
            raise DomainError("pushforward tails need a density base measure")
        grid, values = self._scanned()
        h = values - u
        inside = h >= 0 if above else h <= 0
        # refine each crossing by bisection, then integrate nu over the kept intervals
        edges = []
        for i in np.flatnonzero(inside[1:] != inside[:-1]):
            a, b = grid[i], grid[i + 1]
            left_inside = bool(inside[i])
            for _ in range(60):
                mid = 0.5 * (a + b)
                hm = delta(mid) - u
                mid_inside = hm >= 0 if above else hm <= 0
                if mid_inside == left_inside:
                    a = mid
                else:
                    b = mid
            edges.append(0.5 * (a + b))
        # the segments between cuts alternate in and out; the first is in when grid[0] is
        cuts = [grid[0]] + edges + [grid[-1]]
        total = 0.0
        for k in range(0 if inside[0] else 1, len(cuts) - 1, 2):
            v, _ = quad_abs(self.nu.fn, cuts[k], cuts[k + 1], 1e-11)
            total += v
        return total

    def upper_tail(self, x, tol=DEFAULT_TOL):
        if x <= 0:
            raise DomainError("pushforward tails are defined for x > 0 (upper)")
        return self._level_mass(x, above=True)

    def lower_tail(self, x, tol=DEFAULT_TOL):
        if x >= 0:
            raise DomainError("pushforward tails are defined for x < 0 (lower)")
        return self._level_mass(x, above=False)

    def support(self):
        values = self._scanned()[1]
        return (float(values.min()), float(values.max()))

    def scaled(self, factor):
        return PushforwardCompensator(self.nu.scaled(factor), self.delta,
                                      self.delta_over_y)


# ----------------------------------------------------------------------
# declared-form constructors

def atomic(atoms):
    return AtomicCompensator(atoms)


def normal_jumps(intensity, mean, std):
    """Compound-Poisson compensator with Gaussian log-jump sizes."""
    if std <= 0 or intensity < 0:
        raise InvariantViolation("normal jumps need std > 0 and intensity >= 0")
    z = intensity / (std * math.sqrt(2.0 * math.pi))

    def fn(y):
        u = (y - mean) / std
        return z * math.exp(-0.5 * u * u)

    def tail_up(x):
        return intensity * _norm_sf((x - mean) / std)

    def tail_dn(x):
        return intensity * _norm_sf((mean - x) / std)

    mu, sd = float(mean), float(std)

    def sum_sampler(rng, counts):
        # a sum of k iid N(mu, sd^2) jumps is N(k mu, k sd^2)
        return mu * counts + sd * np.sqrt(counts) * rng.standard_normal(counts.size)

    return DensityCompensator(
        fn, (-np.inf, np.inf), 0.0, tail_up=tail_up, tail_dn=tail_dn,
        sum_sampler=sum_sampler,
        exp_moments=_exp_moments(intensity, lambda s: s * mu + 0.5 * (s * sd) ** 2))


def laplace_jumps(intensity, scale, mean=0.0):
    """Compound-Poisson compensator with double-exponential log-jump sizes."""
    if scale <= 0 or intensity < 0:
        raise InvariantViolation("laplace jumps need scale > 0 and intensity >= 0")
    if scale >= 0.5:
        # (e^y - 1)^2 against exp(-|y|/b) needs b < 1/2 to integrate
        raise InvariantViolation("laplace scale must be below 0.5 for exponential integrability")
    z = intensity / (2.0 * scale)

    def fn(y):
        return z * math.exp(-abs(y - mean) / scale)

    def tail_up(x):
        if x >= mean:
            return 0.5 * intensity * math.exp(-(x - mean) / scale)
        return intensity * (1.0 - 0.5 * math.exp(-(mean - x) / scale))

    def tail_dn(x):
        if x <= mean:
            return 0.5 * intensity * math.exp(-(mean - x) / scale)
        return intensity * (1.0 - 0.5 * math.exp(-(x - mean) / scale))

    mu, b = float(mean), float(scale)

    def sum_sampler(rng, counts):
        # a Laplace(mu, b) jump is mu + b (E1 - E2) with E1, E2 ~ Exp(1), so
        # a sum of k of them is k mu + b (G1 - G2) with G1, G2 ~ Gamma(k, 1)
        # (0 for k = 0)
        return mu * counts + b * (rng.standard_gamma(counts) - rng.standard_gamma(counts))

    # the density's kink at the mean is also one of each tail's second
    # derivative; E e^(sY) = e^(s mu) / (1 - (s b)^2) for |s| < 1/b, and
    # b < 1/2 keeps s = 2 inside
    return DensityCompensator(
        fn, (-np.inf, np.inf), 0.0, tail_up=tail_up, tail_dn=tail_dn,
        sum_sampler=sum_sampler, kinks=(mu,),
        exp_moments=_exp_moments(intensity, lambda s: s * mu - math.log1p(-(s * b) ** 2)))


def density(fn, support, singularity_order=0.0):
    return DensityCompensator(fn, support, singularity_order)


def stable_like(alpha, c, residual=None):
    return StableLikeCompensator(alpha, c, residual)


def _exp_moments(intensity, cumulant):
    """The integrals of e^y - 1 and (e^y - 1)^2 against intensity times a
    law whose cumulant generating function log E e^(sY) is ``cumulant(s)``,
    inf where they overflow."""
    try:
        first = math.expm1(cumulant(1.0))
        return intensity * first, intensity * (math.expm1(cumulant(2.0)) - 2.0 * first)
    except OverflowError:
        return math.inf, math.inf


def _stable_moments(alpha, c):
    """The integrals of min(1, y^2) and (e^y - 1)^2 against c |y|^(-1-alpha)
    on [-1, 1]; the second from the power series of (e^y - 1)^2, whose odd
    terms cancel (terms past k = 40 are below 1e-35 of the first)."""
    sqexp = sum((2 ** k - 2) / (math.factorial(k) * (k - alpha)) for k in range(2, 42, 2))
    return 2.0 * c / (2.0 - alpha), 2.0 * c * sqexp


def _norm_sf(x):
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def _exp_times(x, t):
    """e^x * t without overflowing when t is a rapidly decaying tail."""
    if t <= 0.0:
        return 0.0
    return math.exp(min(x + math.log(t), 700.0))


# ----------------------------------------------------------------------
# public operations

def integrate(m, g, tol=DEFAULT_TOL, points=None, g_over_y2=None):
    """Integral of g against the compensator m, with quadrature error at
    most tol times max(1, integral of |integrand|): absolute up to 1,
    relative above (``quadrature.quad_abs``).

    ``points`` marks known kinks of g, to which the kinks the measure
    declares are added; ``g_over_y2`` optionally provides g(y)/y^2 in a
    cancellation-free form for singular measures.
    """
    if tol <= 0:
        raise DomainError("tol must be positive")
    return m.integrate(g, tol, sorted({*(points or ()), *m.kinks}), g_over_y2)


def exp_double_tail_up(m, z, tol=DEFAULT_TOL):
    """Exponential double tail for z > 0.

    The iterated integral over x in [z, inf) of e^x m([x, inf)) dx, computed
    as a single quadrature of the exponential against the upper tail. For an
    atomic measure the closed form sum(lam_i * (e^{y_i} - e^z), y_i > z)
    is used instead.
    """
    if z <= 0:
        raise DomainError("exp_double_tail_up requires z > 0")
    if m.form == "atomic":
        keep = m.locations > z
        return float(np.sum(m.masses[keep] * (np.exp(m.locations[keep]) - math.exp(z))))
    _, hi = m.support()
    if not np.isfinite(hi):
        hi = expanding_upper_limit(lambda x: _exp_times(x, m.upper_tail(x, tol)),
                                   max(z, 0.0), tol * 1e-2)
    if hi <= z:
        return 0.0
    v, _ = quad_abs(lambda x: _exp_times(x, m.upper_tail(x, tol)), z, hi, tol,
                    points=m.kinks)
    return max(v, 0.0)


def exp_double_tail_down(m, z, tol=DEFAULT_TOL):
    """Exponential double tail for z < 0: integral over x in (-inf, z] of
    e^x m((-inf, x]) dx. Closed form for atomic measures."""
    if z >= 0:
        raise DomainError("exp_double_tail_down requires z < 0")
    if m.form == "atomic":
        keep = m.locations < z
        return float(np.sum(m.masses[keep] * (math.exp(z) - np.exp(m.locations[keep]))))
    lo, _ = m.support()
    if not np.isfinite(lo):
        # as far left as the integrand matters: on a fixed range of hundreds
        # QUADPACK can miss a narrow tail just below z
        lo = -expanding_upper_limit(lambda x: math.exp(-x) * m.lower_tail(-x, tol),
                                    -z, tol * 1e-2)
    lo = max(lo, -_SUPPORT_CAP * 12)  # e^x kills the far left tail
    if lo >= z:
        return 0.0
    v, _ = quad_abs(lambda x: math.exp(x) * m.lower_tail(x, tol), lo, z, tol,
                    points=m.kinks)
    return max(v, 0.0)
