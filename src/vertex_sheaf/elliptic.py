"""Jacobi elliptic machinery and the elliptic weight parameterization.

Implements complete elliptic integrals by the arithmetic-geometric mean,
the nome, and the modulus-k theta pair H (odd) and Theta (even) as
truncated infinite products valid in a strip around the real axis.  On
top of these sits the classical parameterization of the symmetric
eight-vertex weights by a point (k, lambda, mu) on the elliptic curve:
the quadric invariants of the weights depend on (k, lambda) only, which
is what makes mu a spectral variable.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

from .weights import WeightsSym
from .linalg import real_part

__all__ = [
    "GuardError",
    "complete_elliptic_k",
    "complete_elliptic_k_comp",
    "ThetaParams",
    "theta_h",
    "theta_t",
    "EllipticPoint",
    "baxter_weights",
]

#: fraction of K' within which imaginary theta arguments are accepted
GUARD_FRACTION = 0.95
#: per-factor multiplicative truncation tolerance of the theta products
SERIES_TOL = 1e-17
#: hard cap on product terms (q < 1 gives geometric convergence long before)
SERIES_CAP = 10_000


class GuardError(ValueError):
    """An argument or result outside the region where it is valid.

    Raised for non-finite elliptic points, theta arguments outside the
    convergence strip and a theta product that does not converge; the
    CLI reports it, like any ValueError, as a guard error (exit 2).
    """


def _agm(a: float, b: float) -> float:
    # quadratic convergence; the gap check guards against a one-ulp
    # oscillation when the operands start at the representable edge
    gap = abs(a - b)
    for _ in range(200):
        if gap == 0.0:
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
        new_gap = abs(a - b)
        if new_gap >= gap:
            break
        gap = new_gap
    return 0.5 * (a + b)


def complete_elliptic_k(k: float) -> float:
    """K(k), the complete elliptic integral of the first kind.

    Computed as pi / (2 * agm(1, k')) to machine precision.  The
    integral diverges logarithmically as k -> 1, so k = 1 is rejected.
    """
    if not 0.0 <= k < 1.0:
        raise ValueError(f"modulus must lie in [0, 1), got {k}")
    kp = math.sqrt((1.0 - k) * (1.0 + k))
    return math.pi / (2.0 * _agm(1.0, kp))


def complete_elliptic_k_comp(k: float) -> float:
    """K'(k) = K(k'), evaluated as pi / (2 * agm(1, k)).

    Avoids forming the complementary modulus, which underflows to 1 in
    double precision for k below ~1e-8.
    """
    if not 0.0 < k <= 1.0:
        raise ValueError(f"modulus must lie in (0, 1], got {k}")
    return math.pi / (2.0 * _agm(1.0, k))


@dataclass(frozen=True)
class ThetaParams:
    """Quarter periods and nome of a fixed modulus, precomputed once.

    ``from_modulus`` is cached per k, so a sweep of spectral points at
    one modulus runs the two AGMs once while each point still derives its
    params from its own k: no caller holds params of its own.
    """

    K: float
    Kprime: float
    q: float

    @classmethod
    @functools.cache
    def from_modulus(cls, k: float) -> "ThetaParams":
        if not 0.0 < k < 1.0:
            raise ValueError(f"modulus must lie in (0, 1), got {k}")
        K = complete_elliptic_k(k)
        Kp = complete_elliptic_k_comp(k)
        return cls(K=K, Kprime=Kp, q=math.exp(-math.pi * Kp / K))


def _guard(u: complex, params: ThetaParams) -> complex:
    u = complex(u)
    if abs(u.imag) >= GUARD_FRACTION * params.Kprime:
        raise GuardError(
            f"|Im u| = {abs(u.imag):.6g} outside the convergence strip "
            f"{GUARD_FRACTION:g} * K' = {GUARD_FRACTION * params.Kprime:.6g}"
        )
    return u


def _theta_product(x: complex, q: float, val: complex, qc: float) -> complex:
    """val * prod_{n>=1} (1 - 2 qc q^(2n) cos(x) + (qc q^(2n))^2) (1 - q^(2n))."""
    cosx = cmath.cos(x)
    q2n = 1.0
    for _ in range(SERIES_CAP):
        qc *= q * q
        q2n *= q * q
        factor = (1.0 - 2.0 * qc * cosx + qc * qc) * (1.0 - q2n)
        val *= factor
        if abs(factor - 1.0) < SERIES_TOL:
            return val
    raise GuardError("theta product failed to converge within the term cap")


def theta_h(u: complex, params: ThetaParams) -> complex:
    """Odd theta function H(u) of the modulus behind ``params``.

    H(u) = 2 q^(1/4) sin(pi u / 2K)
           prod_{n>=1} (1 - 2 q^(2n) cos(pi u / K) + q^(4n)) (1 - q^(2n)).
    """
    x = math.pi * _guard(u, params) / params.K
    return _theta_product(x, params.q, 2.0 * params.q**0.25 * cmath.sin(0.5 * x), 1.0)


def theta_t(u: complex, params: ThetaParams) -> complex:
    """Even theta function Theta(u) of the modulus behind ``params``.

    Theta(u) = prod_{n>=1} (1 - 2 q^(2n-1) cos(pi u / K) + q^(4n-2)) (1 - q^(2n)).
    """
    x = math.pi * _guard(u, params) / params.K
    return _theta_product(x, params.q, 1.0 + 0.0j, 1.0 / params.q)


@dataclass(frozen=True)
class EllipticPoint:
    """A point (k, lam, mu) of the elliptic weight parameterization.

    ``k`` is the modulus, ``lam`` the curve parameter fixing the quadric
    invariants together with k, and ``mu`` the spectral variable.  The
    theta products are evaluated at the purely imaginary arguments
    i*lam and (i/2)(lam -+ mu), so those heights must stay inside the
    convergence strip.
    """

    k: float
    lam: float
    mu: float

    def validate(self) -> ThetaParams:
        for name in ("k", "lam", "mu"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise GuardError(f"{name} must be finite, got {value}")
        if not 0.0 < self.k < 1.0:
            raise GuardError(f"modulus must lie in (0, 1), got {self.k}")
        if self.lam <= 0.0:
            raise GuardError(f"curve parameter must be positive, got {self.lam}")
        params = ThetaParams.from_modulus(self.k)
        bound = GUARD_FRACTION * params.Kprime
        heights = (
            abs(self.lam),
            abs(self.lam - self.mu) / 2.0,
            abs(self.lam + self.mu) / 2.0,
        )
        if max(heights) >= bound:
            raise GuardError(
                f"theta argument height {max(heights):.6g} outside the "
                f"convergence strip {bound:.6g} at k={self.k}"
            )
        return params


@functools.cache
def _curve_thetas(k: float, lam: float) -> tuple[complex, complex]:
    """Theta(i lam) and H(i lam), cached per (k, lam): every spectral
    point of one curve shares them."""
    params = ThetaParams.from_modulus(k)
    return theta_t(1j * lam, params), theta_h(1j * lam, params)


def baxter_weights(point: EllipticPoint) -> WeightsSym:
    """Symmetric weights (a, b, c, d) at an elliptic point.

    a = -i Theta(i lam) H((i/2)(lam - mu)) Theta((i/2)(lam + mu))
    b = -i Theta(i lam) Theta((i/2)(lam - mu)) H((i/2)(lam + mu))
    c = -i H(i lam) Theta((i/2)(lam - mu)) Theta((i/2)(lam + mu))
    d = +i H(i lam) H((i/2)(lam - mu)) H((i/2)(lam + mu))

    The four products are real for real (k, lam, mu); the imaginary
    residue is checked before the real parts are returned.  Sweeping mu
    at fixed (k, lam) leaves both quadric invariants constant, and the
    two factors at i lam are evaluated once per (k, lam).
    """
    params = point.validate()
    lam, mu = point.lam, point.mu
    u_minus = 0.5j * (lam - mu)
    u_plus = 0.5j * (lam + mu)
    th_lam, h_lam = _curve_thetas(point.k, lam)
    th_minus = theta_t(u_minus, params)
    h_minus = theta_h(u_minus, params)
    th_plus = theta_t(u_plus, params)
    h_plus = theta_h(u_plus, params)
    a = -1j * th_lam * h_minus * th_plus
    b = -1j * th_lam * th_minus * h_plus
    c = -1j * h_lam * th_minus * th_plus
    d = 1j * h_lam * h_minus * h_plus
    return WeightsSym(real_part(a), real_part(b), real_part(c), real_part(d))
