"""Riemann solvers between arbitrary phase pairings.

thermo_state evaluates the equation of state once into a side record
(rho, u, p, a, E), whose physical flux F is computed when read. hllc, the
workhorse flux (Davis wave speed estimates), reads two such records, so each
side may carry its own stiffened-gas parameters while the solver calls no EOS
function. The records broadcast, so one call on both phases' rows, left
(2, 1, m) and right (1, 2, m), solves all four phase pairings of m
interfaces. Its fan's contact speed sigma and star pressure p* give the
moving-interface (Lagrangian) flux p* [0, 1, sigma]. exact_rp is the iterative
exact solver used as an oracle, and interfacial_decomposition gives the
closed-form acoustic contact speed / pressure split into symmetric and
antisymmetric parts.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .eos import EosParams, _check_admissible, internal_energy, sound_speed
from .errors import InvalidStateError, SolverError, _prefixed, _require
from .state import Primitive


class ThermoState(NamedTuple):
    """Everything a Riemann solve reads from one side: primitives, sound speed
    and specific total energy E; the physical flux F is computed when read."""

    rho: np.ndarray
    u: np.ndarray
    p: np.ndarray
    a: np.ndarray
    E: np.ndarray

    @property
    def F(self) -> np.ndarray:
        """Physical flux [rho u, rho u^2 + p, u (rho E + p)], stacked as (3, ...)."""
        rho, u, p = self.rho, self.u, self.p
        return np.array(np.broadcast_arrays(rho * u, rho * u**2 + p, u * (rho * self.E + p)))


def thermo_state(v: Primitive, eos: EosParams) -> ThermoState:
    """Evaluate the EOS once for an admissible primitive state (F: see ThermoState)."""
    rho, u, p = (np.asarray(x, dtype=float) for x in (v.rho, v.u, v.p))
    E = internal_energy(rho, p, eos) + 0.5 * u**2
    return ThermoState(rho, u, p, sound_speed(rho, p, eos), E)


@dataclass(frozen=True)
class RiemannFan:
    """Solved Riemann fan: flux sampled at x/t = 0, contact speed sigma, star
    pressure and outer wave speed estimates."""

    flux0: np.ndarray
    sigma: float | np.ndarray
    p_star: float | np.ndarray
    s_left: float | np.ndarray
    s_right: float | np.ndarray


def _failure_site(bad, left, right, first):
    """' at interface i, pairing kl: left (rho, u, p) = (...), right (...)'
    for the lowest interface (the last axis, counted from `first`) where
    `bad` holds; only a (2, 2, m) call names pairings, a 0-d call no interface."""
    where, at = "", ()
    if np.ndim(bad):
        i, *pair = np.argwhere(np.moveaxis(bad, -1, 0))[0]
        at = (*pair, i)
        where = f" at interface {first + i}"
        if np.shape(bad)[:-1] == (2, 2):
            where += f", pairing {pair[0] + 1}{pair[1] + 1}"
    sides = (f"{name} (rho, u, p) = ("
             + ", ".join(f"{np.broadcast_to(x, np.shape(bad))[at]:.9g}" for x in v[:3]) + ")"
             for name, v in (("left", left), ("right", right)))
    return f"{where}: " + ", ".join(sides)


def hllc(left: ThermoState, right: ThermoState, weight=None, first=0) -> RiemannFan:
    """HLLC solver between two side records, each from its own stiffened-gas
    EOS (see thermo_state); the solver itself calls no EOS function. The
    records broadcast: left (2, 1, m) and right (1, 2, m) rows of both phases
    solve all four phase pairings of m interfaces at once, pairing (k, l) at
    index [k, l] of every leaf (flux0[:, k, l]).

    Wave speed estimates are Davis-type: s_L = min(u_L - a_L, u_R - a_R) and
    s_R = max(u_L + a_L, u_R + a_R), each side with its own sound speed. One
    star flux sigma U* + p* [0, 1, sigma] is built from the sampled star state;
    the physical fluxes F_K only at supersonic interfaces (s_L >= 0 or
    s_R < 0). Consistency: hllc(V, V) returns the exact flux.

    A contact speed outside [s_L, s_R] raises SolverError, unless `weight`
    (broadcasting against the fans, e.g. the probability of each pairing) is
    0 there: such a fan counts in no flux, and its flux0, sigma and p_star
    are 0. Errors name the first failing interface (numbered from `first`),
    its pairing and both states.
    """
    rl, ul, pl, al = left.rho, left.u, left.p, left.a
    rr, ur, pr, ar = right.rho, right.u, right.p, right.a

    s_l = np.minimum(ul - al, ur - ar)
    s_r = np.maximum(ul + al, ur + ar)
    if not (s_l < s_r).all():
        raise SolverError("HLLC wave speed estimates crossed (vacuum-adjacent states)"
                          + _failure_site(~(s_l < s_r), left, right, first))

    # signed mass fluxes through the outer waves; q_l < 0 < q_r
    q_l = rl * (s_l - ul)
    q_r = rr * (s_r - ur)
    sigma = (pr - pl + ul * q_l - ur * q_r) / (q_l - q_r)
    p_star = pl + q_l * (sigma - ul)
    in_fan = (s_l <= sigma) & (sigma <= s_r)
    outside = None if in_fan.all() else ~in_fan
    if outside is not None:
        weighted = outside if weight is None else outside & (weight != 0.0)
        if weighted.any():
            raise SolverError("HLLC contact speed left the wave fan"
                              + _failure_site(weighted, left, right, first))
        # np.where, not * 0: a non-finite value times 0 is NaN
        sigma = np.where(outside, 0.0, sigma)
        p_star = np.where(outside, 0.0, p_star)

    # the star density rho* = q_K / (s_K - sigma) and energy (rho E)*_K of
    # the side K sampled at x/t = 0 (the contact at exactly 0 takes the left
    # side), from that side's values picked first; this operand order and the
    # + 0.0 give sigma U* + [0, p*, p* sigma] bit for bit, signed zeros included
    on_left = sigma >= 0.0
    q_s, u_s = np.where(on_left, q_l, q_r), np.where(on_left, ul, ur)
    # not read again: freeing them lowers the call's memory peak, on which
    # glibc's heap-top trimming, and so the step's page faults, depend
    del q_l, q_r
    rho_s = q_s / (np.where(on_left, s_l, s_r) - sigma)
    rhoe_s = rho_s * (np.where(on_left, left.E, right.E)
                      + (sigma - u_s) * (sigma + np.where(on_left, pl, pr) / q_s))
    # written row by row: no three temporaries copied into a (3, ...) array
    flux0 = np.empty((3,) + np.shape(sigma))
    np.add(sigma * rho_s, 0.0, out=flux0[0, ...])
    np.add(sigma * (rho_s * sigma), p_star, out=flux0[1, ...])
    np.add(sigma * rhoe_s, p_star * sigma, out=flux0[2, ...])
    # with s_L <= sigma <= s_R, x/t = 0 lies left of the fan where s_L >= 0
    # and right of it where s_R < 0: there the flux is that side's physical
    # flux F, evaluated at those interfaces only
    beyond = np.flatnonzero((s_l >= 0.0) | (s_r < 0.0))
    if beyond.size:
        shape = np.shape(sigma) or (1,)
        at = np.unravel_index(beyond, shape)
        from_left = np.broadcast_to(s_l, shape)[at] >= 0.0
        side = ThermoState(*(np.where(from_left, np.broadcast_to(x, shape)[at],
                                      np.broadcast_to(y, shape)[at])
                             for x, y in zip(left, right)))
        flux0.reshape(3, -1)[:, beyond] = side.F.reshape(3, -1)
    if outside is not None:
        flux0 = np.where(outside, 0.0, flux0)
    return RiemannFan(flux0=flux0, sigma=sigma, p_star=p_star, s_left=s_l, s_right=s_r)


@dataclass(frozen=True)
class AcousticInterface:
    """Closed-form acoustic contact speed and pressure with their symmetric /
    antisymmetric parts: sigma = sigma_sym - sigma_asym, p_star = p_sym - p_asym."""

    sigma: float | np.ndarray
    p_star: float | np.ndarray
    sigma_sym: float | np.ndarray
    sigma_asym: float | np.ndarray
    p_sym: float | np.ndarray
    p_asym: float | np.ndarray


def interfacial_decomposition(left: Primitive, right: Primitive,
                              z_left, z_right) -> AcousticInterface:
    """Acoustic interfacial quantities for impedances Z:
    sigma = (Z_L u_L + Z_R u_R)/(Z_L+Z_R) - (p_R - p_L)/(Z_L+Z_R) and
    p* = (Z_R p_L + Z_L p_R)/(Z_L+Z_R) - Z_L Z_R (u_R - u_L)/(Z_L+Z_R)."""
    zl = np.asarray(z_left, dtype=float)
    zr = np.asarray(z_right, dtype=float)
    zsum = zl + zr
    if np.any(zsum <= 0.0):
        raise InvalidStateError("acoustic impedances must have positive sum")
    sigma_sym = (zl * left.u + zr * right.u) / zsum
    sigma_asym = (right.p - left.p) / zsum
    p_sym = (zr * left.p + zl * right.p) / zsum
    p_asym = zl * zr * (right.u - left.u) / zsum
    return AcousticInterface(
        sigma=sigma_sym - sigma_asym,
        p_star=p_sym - p_asym,
        sigma_sym=sigma_sym,
        sigma_asym=sigma_asym,
        p_sym=p_sym,
        p_asym=p_asym,
    )


# exact_rp's relative tolerance (pressure step and residual) and iteration cap
_TOL, _MAX_ITER = 1e-10, 100


class _Side:
    """Per-side constants of the exact solver, in shifted-pressure form
    (every pressure enters as p + pi_inf, which reduces the stiffened gas to
    an ideal gas for the wave relations)."""

    def __init__(self, prim: Primitive, eos: EosParams):
        self.rho = float(prim.rho)
        self.u = float(prim.u)
        self.p = float(prim.p)
        self.gamma = eos.gamma
        self.pi = eos.pi_inf
        self.pbar = self.p + self.pi
        self.a = float(sound_speed(self.rho, self.p, eos))
        g = self.gamma
        self.A = 2.0 / ((g + 1.0) * self.rho)
        self.B = (g - 1.0) / (g + 1.0) * self.pbar
        self.exp = (g - 1.0) / (2.0 * g)

    def f(self, p):
        """Velocity change across the wave connecting this side to pressure p."""
        pbar = p + self.pi
        if p > self.p:
            return (p - self.p) * np.sqrt(self.A / (pbar + self.B))
        return 2.0 * self.a / (self.gamma - 1.0) * ((pbar / self.pbar) ** self.exp - 1.0)

    def df(self, p):
        pbar = p + self.pi
        if p > self.p:
            root = np.sqrt(self.A / (pbar + self.B))
            return root * (1.0 - 0.5 * (p - self.p) / (pbar + self.B))
        return (pbar / self.pbar) ** (-(self.gamma + 1.0) / (2.0 * self.gamma)) \
            / (self.rho * self.a)


def _sample_left_of_contact(side: _Side, u_star, p_star, xi):
    """Profile left of the contact for a left-side wave; arrays over xi."""
    g = side.gamma
    P = (p_star + side.pi) / side.pbar
    if p_star > side.p:
        s = side.u - side.a * np.sqrt((g + 1.0) / (2.0 * g) * P + (g - 1.0) / (2.0 * g))
        gg = (g - 1.0) / (g + 1.0)
        rho_star = side.rho * (P + gg) / (gg * P + 1.0)
        pre = xi < s
        rho = np.where(pre, side.rho, rho_star)
        u = np.where(pre, side.u, u_star)
        p = np.where(pre, side.p, p_star)
        return rho, u, p, ("shock", s, s)
    a_star = side.a * P**side.exp
    head = side.u - side.a
    tail = u_star - a_star
    # evaluated everywhere then masked; floor keeps the dead region finite
    a_fan = np.maximum(2.0 / (g + 1.0) * (side.a + 0.5 * (g - 1.0) * (side.u - xi)),
                       1e-30)
    u_fan = 2.0 / (g + 1.0) * (side.a + 0.5 * (g - 1.0) * side.u + xi)
    pbar_fan = side.pbar * (a_fan / side.a) ** (2.0 * g / (g - 1.0))
    rho_fan = g * pbar_fan / a_fan**2
    rho_star = side.rho * P ** (1.0 / g)
    rho = np.where(xi < head, side.rho, np.where(xi < tail, rho_fan, rho_star))
    u = np.where(xi < head, side.u, np.where(xi < tail, u_fan, u_star))
    p = np.where(xi < head, side.p, np.where(xi < tail, pbar_fan - side.pi, p_star))
    return rho, u, p, ("rarefaction", head, tail)


class ExactRiemannSolution:
    """Exact solution of a (possibly two-material) Riemann problem.

    Calling the object with xi = x/t samples the self-similar solution;
    left of the contact the left material applies, right of it the right one.
    """

    def __init__(self, left: _Side, right_m: _Side, p_star, u_star, residual, iterations):
        self._left = left
        self._right_m = right_m
        self.p_star = float(p_star)
        self.u_star = float(u_star)
        self.residual = float(residual)
        self.iterations = int(iterations)
        _, _, _, self.left_wave = _sample_left_of_contact(
            self._left, self.u_star, self.p_star, np.asarray(0.0))
        _, _, _, wave_m = _sample_left_of_contact(
            self._right_m, -self.u_star, self.p_star, np.asarray(0.0))
        self.right_wave = (wave_m[0], -wave_m[2], -wave_m[1])

    def __call__(self, xi):
        xi = np.asarray(xi, dtype=float)
        rho_l, u_l, p_l, _ = _sample_left_of_contact(self._left, self.u_star,
                                                     self.p_star, xi)
        rho_r, u_rm, p_r, _ = _sample_left_of_contact(self._right_m, -self.u_star,
                                                      self.p_star, -xi)
        on_left = xi < self.u_star
        return Primitive(
            rho=np.where(on_left, rho_l, rho_r),
            u=np.where(on_left, u_l, -u_rm),
            p=np.where(on_left, p_l, p_r),
        )


def _two_rarefaction_guess(sl: _Side, sr: _Side, du):
    g = 0.5 * (sl.gamma + sr.gamma)
    z = (g - 1.0) / (2.0 * g)
    pi_mean = 0.5 * (sl.pi + sr.pi)
    num = sl.a + sr.a - 0.5 * (g - 1.0) * du
    if num <= 0.0:
        return None
    den = sl.a / sl.pbar**z + sr.a / sr.pbar**z
    return (num / den) ** (1.0 / z) - pi_mean


def exact_rp(left: Primitive, right: Primitive, eos_left: EosParams,
             eos_right: EosParams) -> ExactRiemannSolution:
    """Exact Riemann solver with per-side stiffened-gas parameters.

    Newton iteration on the monotone pressure function (shock and rarefaction
    branches per side), started from a two-rarefaction estimate and safeguarded
    by bisection on a bracketing interval. An inadmissible side or a
    non-finite velocity raises InvalidStateError naming the side; vacuum
    formation (no root with both shifted pressures positive) raises SolverError.
    """
    for side, v, eos in (("left", left, eos_left), ("right", right, eos_right)):
        with _prefixed(f"{side} state"):
            _check_admissible(v.rho, v.p, eos)
            _require(np.isfinite(v.u), InvalidStateError, "u",
                     f"non-finite velocity, got {v.u}")
    sl = _Side(left, eos_left)
    # the right side mirrored: the right wave of (rho_R, u_R, p_R) is the left
    # wave of (rho_R, -u_R, p_R) under xi -> -xi; f and df do not read u
    sr = _Side(Primitive(right.rho, -np.asarray(right.u, dtype=float), right.p), eos_right)
    du = -sr.u - sl.u
    scale = max(sl.a, sr.a, abs(du), 1e-30)

    p_floor = -min(sl.pi, sr.pi)

    def f_total(p):
        return sl.f(p) + sr.f(p) + du

    if f_total(p_floor) >= 0.0:
        raise SolverError("exact Riemann problem forms vacuum (no positive root)")

    lo = p_floor
    hi = max(sl.p, sr.p)
    grow = max(hi - p_floor, sl.pbar, sr.pbar)
    for _ in range(200):
        if f_total(hi) > 0.0:
            break
        grow *= 2.0
        hi = p_floor + grow
    else:
        raise SolverError("exact Riemann solver failed to bracket the root")

    guess = _two_rarefaction_guess(sl, sr, du)
    span = hi - lo
    p = guess if guess is not None and lo + 1e-12 * span < guess < hi else 0.5 * (lo + hi)

    for iterations in range(1, _MAX_ITER + 1):
        fp = f_total(p)
        if fp > 0.0:
            hi = p
        else:
            lo = p
        dfp = sl.df(p) + sr.df(p)
        p_new = p - fp / dfp if dfp > 0.0 else 0.5 * (lo + hi)
        if not lo < p_new < hi:
            p_new = 0.5 * (lo + hi)
        dp = abs(p_new - p)
        p = p_new
        if dp <= _TOL * max(p - p_floor, 1e-300) and abs(f_total(p)) <= _TOL * scale:
            break
    else:
        raise SolverError(f"exact Riemann solver did not converge in {_MAX_ITER} iterations")

    u_star = 0.5 * (sl.u - sr.u) + 0.5 * (sr.f(p) - sl.f(p))
    return ExactRiemannSolution(sl, sr, p_star=p, u_star=u_star,
                                residual=abs(f_total(p)) / scale,
                                iterations=iterations)
