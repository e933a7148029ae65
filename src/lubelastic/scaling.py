"""Model parameters, scaling laws and reduced-model coefficients.

All quantities are nondimensional.  Exponents (kappa, tau) are kept as exact
`Fraction`s so that derived exponents like tau + kappa + 3 never drift when
film thicknesses are swept over a ladder of powers of two.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import ParameterError, RegimeError, check_range

Exponent = Union[int, float, str, Fraction]


def _fraction(name: str, value: Exponent) -> Fraction:
    """value as an exact Fraction; ParameterError where Fraction rejects it."""
    try:
        return Fraction(value)
    except (ValueError, OverflowError, TypeError, ZeroDivisionError) as exc:
        raise ParameterError(f"{name} must be a finite rational number, got {value!r}") from exc


@dataclass(frozen=True)
class RegimeCheck:
    """Outcome of a rate-guarantee regime validation."""

    ok: bool
    kappa: Fraction
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def validate_theorem_regime(kappa: Exponent) -> RegimeCheck:
    """Check whether kappa admits the proven error rates.

    Passes iff 0 < kappa <= 5/2, equivalently tau <= -1/2.  A failing check
    is not an error: the solver still runs outside this range, only the rate
    guarantee is void (callers emit a warning instead of refusing).
    """
    k = _fraction("kappa", kappa)
    if not k > 0:
        raise RegimeError(f"rigidity exponent kappa must be positive, got {k}")
    if k <= Fraction(5, 2):
        return RegimeCheck(ok=True, kappa=k)
    return RegimeCheck(
        ok=False,
        kappa=k,
        reason=f"kappa = {k} violates kappa <= 5/2 (tau = {k - 3} > -1/2); "
        "error rates are not guaranteed",
    )


def reduced_coefficient_e0(B: float, nu: float) -> float:
    """Sixth-order coefficient B/(12 nu) of the reduced plate evolution
    driven through a plate already modeled as a lower-dimensional bending
    surface."""
    check_range(B=B, nu=nu)
    return B / (12.0 * nu)


def reduced_coefficient_eh(lame: "LameParams", nu: float) -> float:
    """Sixth-order coefficient 2*mu*(mu+lambda) / (9*nu*(2*mu+lambda)) of the
    reduced evolution obtained when the covering layer is a genuinely
    three-dimensional elastic plate."""
    check_range(nu=nu)
    mu, lam = lame.mu, lame.lam
    return 2.0 * mu * (mu + lam) / (9.0 * nu * (2.0 * mu + lam))


def eps_power(eps: float, exponent: Exponent) -> float:
    """eps**exponent with exact exponent arithmetic for powers of two.

    When eps is a power of two the result is computed as 2**(log2(eps) *
    exponent) with the product carried out in rational arithmetic, so ladder
    sweeps reproduce bit-identical scalings.
    """
    check_range(eps=eps)
    e = _fraction("exponent", exponent)
    log2eps = math.log2(eps)
    if log2eps == int(log2eps):
        return 2.0 ** float(int(log2eps) * e)
    return float(eps) ** float(e)


@dataclass(frozen=True)
class LameParams:
    """Lame constants of a linearly elastic layer."""

    mu: float
    lam: float = 0.0

    def __post_init__(self):
        check_range(mu=self.mu)
        check_range(closed=True, lam=self.lam)


@dataclass(frozen=True)
class ModelParams:
    """Nondimensional physical and scaling parameters of one problem instance.

    Attributes
    ----------
    kappa : plate rigidity exponent (> 0); the plate coefficients scale like
        B * eps**(-kappa) and rho_s * eps**(-kappa).
    eps : film thickness ratio, in (0, 1).
    rho_f, nu : fluid density and viscosity.
    rho_s, B, theta : plate density, bending rigidity and visco-elasticity.
    dim : number of horizontal directions (1 or 2).
    tau : time-scale exponent kappa - 3 (derived), the value at which the
        fluid pressure balances plate bending in the reduced model.
    """

    kappa: Fraction
    eps: float
    rho_f: float = 1.0
    nu: float = 1.0
    rho_s: float = 1.0
    B: float = 1.0
    theta: float = 0.0
    dim: int = 1

    def __post_init__(self):
        object.__setattr__(self, "kappa", _fraction("kappa", self.kappa))
        check_range(0.0, 1.0, eps=self.eps)
        check_range(kappa=self.kappa, nu=self.nu, B=self.B)
        check_range(closed=True, rho_f=self.rho_f, rho_s=self.rho_s, theta=self.theta)
        if self.dim not in (1, 2):
            raise ParameterError(f"dim must be 1 or 2, got {self.dim}")

    @property
    def tau(self) -> Fraction:
        return self.kappa - 3

    @property
    def reduced_coefficient(self) -> float:
        return reduced_coefficient_e0(self.B, self.nu)


@dataclass(frozen=True)
class NonlinearScalingPreset:
    """Thin-film scaling of the moving-boundary plate problem.

    The hatted constants are eps-independent; the physical coefficients then
    scale as B = B_hat/eps, D = D_hat/eps**2, rho_s = rho_s_hat/eps and the
    time unit as T = eps**-2.  Under this scaling the total energy obeys a
    C*t*eps**3 bound and the displacement a C*eps sup bound, which are the
    targets a run summary documents.
    """

    eps: float
    B_hat: float
    D_hat: float
    rho_s_hat: float

    def __post_init__(self):
        check_range(0.0, 1.0, eps=self.eps)
        check_range(B_hat=self.B_hat, D_hat=self.D_hat, rho_s_hat=self.rho_s_hat)

    def coefficients(self) -> dict:
        return {
            "eps": self.eps,
            "B": self.B_hat / self.eps,
            "D": self.D_hat / self.eps**2,
            "rho_s": self.rho_s_hat / self.eps,
            "time_scale": self.eps**-2,
            "energy_bound_exponent": 3,      # total energy <= C * t * eps**3
            "displacement_bound_exponent": 1,  # sup |eta| <= C * eps
        }
