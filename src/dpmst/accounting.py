"""Privacy accounting: the (eps, delta) -> rho -> per-round eps' pipeline.

All logs are natural logs. The noise mechanisms consume rho through the
per-round epsilon; composing ``rounds`` rounds of (eps'^2 / 2)-zCDP spends
exactly rho, which converts back to the original (eps, delta).
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass


def rho_from_eps_delta(eps: float, delta: float) -> float:
    """zCDP budget whose (eps, delta) conversion lands exactly on eps.

    rho = (sqrt(eps + L) - sqrt(L))^2 with L = ln(1/delta). In binary64 the
    difference cancels when eps << L (about 12 digits lost at eps = 1e-3,
    delta = 1e-2), so adjacent eps collapse onto one rho. The equal form
    eps^2 / (sqrt(eps + L) + sqrt(L))^2 has no cancellation; it is evaluated
    at 40 digits and rounded once, so rho is the correctly rounded value.
    """
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    _check_delta(delta)
    if math.isinf(eps):
        return math.inf
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        e = decimal.Decimal(eps)
        log_inv = -decimal.Decimal(delta).ln()
        return float((e / ((e + log_inv).sqrt() + log_inv.sqrt())) ** 2)


def eps_from_rho_delta(rho: float, delta: float) -> float:
    """(eps, delta)-DP guarantee implied by rho-zCDP: rho + 2*sqrt(rho*ln(1/delta))."""
    if not rho >= 0:
        raise ValueError(f"rho must be nonnegative, got {rho}")
    _check_delta(delta)
    return rho + 2.0 * math.sqrt(rho * math.log(1.0 / delta))


def per_round_epsilon(rho: float, rounds: int) -> float:
    """Per-round budget sqrt(2*rho/rounds); rounds rounds compose back to rho."""
    if not rho > 0:
        raise ValueError(f"rho must be positive, got {rho}")
    if rounds < 1 or int(rounds) != rounds:
        raise ValueError(f"rounds must be a positive integer, got {rounds}")
    return math.sqrt(2.0 * rho / rounds)


def gaussian_sigma_for_input_privatization(rho: float, m: int, delta_inf: float) -> float:
    """Gaussian scale for privatizing the whole m-vector under rho-zCDP.

    The weight vector has l2 sensitivity sqrt(m) * delta_inf when every
    coordinate may move by delta_inf, so sigma = sqrt(m) * delta_inf / sqrt(2*rho).
    """
    if not (rho > 0 and m >= 1 and delta_inf > 0):
        raise ValueError(f"domain violation: rho={rho}, m={m}, delta_inf={delta_inf}")
    return math.sqrt(m) * delta_inf / math.sqrt(2.0 * rho)


def _check_delta(delta: float):
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")


@dataclass(frozen=True)
class PrivacyBudget:
    """(eps, delta, delta_inf) with the derived zCDP budget rho.

    ``rho`` is the canonical quantity the mechanisms spend; ``per_round``
    derives the per-selection epsilon once the number of rounds is known.
    """

    epsilon: float
    delta: float
    delta_inf: float
    rho: float

    @classmethod
    def from_eps_delta(cls, eps: float, delta: float, delta_inf: float = 1.0) -> "PrivacyBudget":
        _check_sensitivity(delta_inf)
        return cls(float(eps), float(delta), float(delta_inf),
                   rho_from_eps_delta(eps, delta))

    @classmethod
    def from_rho(cls, rho: float, delta: float, delta_inf: float = 1.0) -> "PrivacyBudget":
        if not rho > 0:
            raise ValueError(f"rho must be positive, got {rho}")
        _check_sensitivity(delta_inf)
        return cls(eps_from_rho_delta(rho, delta), float(delta), float(delta_inf),
                   float(rho))

    def per_round(self, rounds: int) -> float:
        return per_round_epsilon(self.rho, rounds)


def _check_sensitivity(delta_inf: float):
    if not (delta_inf > 0 and math.isfinite(delta_inf)):
        raise ValueError(f"delta_inf must be positive and finite, got {delta_inf}")
