"""Riemann solvers between arbitrary phase pairings.

thermo_state evaluates the equation of state once into a side record
(rho, u, p, a, E), whose physical flux F is computed when read. hllc, the
workhorse flux (Davis wave speed estimates), reads two such records, so each
side may carry its own stiffened-gas parameters while the solver calls no EOS
function. The records broadcast, so one call on both phases' rows, left
(2, 1, m) and right (1, 2, m), solves all four phase pairings of m
interfaces. It picks the side sampled at x/t = 0 by a bit mask, not by
np.where: at 1e5 cells most contacts are quiescent, their speeds are round-off
whose sign flips between neighbouring fans, and np.where branches on every
element of such a mask. Its fan's contact speed sigma and star pressure p*
give the moving-interface (Lagrangian) flux p* [0, 1, sigma].

exact_rp is the exact solver used as an oracle. It runs one safeguarded
Newton search in x = p + s, s the smaller pi_inf of the two sides, so x = 0
is the vacuum floor, on a bracket [0, hi] whose end hi has a closed form.
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
             + ", ".join(f"{np.broadcast_to(x, np.shape(bad))[at]:.9g}" for x in (v.rho, v.u, v.p))
             + ")" for name, v in (("left", left), ("right", right)))
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

    The sampled side's fields are picked with the int64 mask keep, all ones
    where sigma >= 0 (the contact at exactly 0 takes the left side) and all
    zeros elsewhere, as right ^ ((left ^ right) & keep) on the bits. This
    copies every bit, signed zeros included, and costs the same under any
    pattern of contact signs; np.where under the random signs of a large
    quiescent grid costs 3-4 times as much.

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
    # + 0.0 give sigma U* + [0, p*, p* sigma] bit for bit, signed zeros
    # included. keep: -1 (all ones) where sigma >= 0, negated as int8 and
    # sign-extended, which is cheaper than negating the int64 array
    keep = np.negative((sigma >= 0.0).view(np.int8)).astype(np.int64)

    def pick(a, b):
        b = b.view(np.int64)
        # fan-shaped: a field of both records may broadcast to fewer elements
        bits = np.bitwise_xor(a.view(np.int64), b, out=np.empty_like(keep))
        bits &= keep
        bits ^= b
        return bits.view(float)

    q_s, u_s = pick(q_l, q_r), pick(ul, ur)
    # not read again: freeing them lowers the call's memory peak, on which
    # glibc's heap-top trimming, and so the step's page faults, depend
    del q_l, q_r
    rho_s = q_s / (pick(s_l, s_r) - sigma)
    rhoe_s = rho_s * (pick(left.E, right.E) + (sigma - u_s) * (sigma + pick(pl, pr) / q_s))
    # written row by row: no three temporaries copied into a (3, ...) array
    flux0 = np.empty((3,) + np.shape(sigma))
    np.add(sigma * rho_s, 0.0, out=flux0[0, ...])
    np.add(sigma * (rho_s * sigma), p_star, out=flux0[1, ...])
    np.add(sigma * rhoe_s, p_star * sigma, out=flux0[2, ...])
    # with s_L <= sigma <= s_R, x/t = 0 lies left of the fan where s_L >= 0
    # and right of it where s_R < 0, the side keep picks: there the flux is
    # that side's physical flux F, evaluated at those interfaces only
    beyond = np.flatnonzero((s_l >= 0.0) | (s_r < 0.0))
    if beyond.size:
        rho, u, p, E = (x.reshape(-1)[beyond]
                        for x in (pick(rl, rr), u_s, pick(pl, pr), pick(left.E, right.E)))
        flux0.reshape(3, -1)[:, beyond] = ThermoState(rho, u, p, None, E).F
    if outside is not None:
        flux0 = np.where(outside, 0.0, flux0)
    return RiemannFan(flux0=flux0, sigma=sigma, p_star=p_star, s_left=s_l, s_right=s_r)


# exact_rp's relative tolerance on its Newton step, and iteration cap
_TOL, _MAX_ITER = 1e-10, 100


class _Side:
    """Per-side constants of the exact solver. Its wave relations take
    x = p + s, the pressure above the vacuum floor -s of the side with the
    smaller pi_inf; at x this side's shifted pressure p + pi_inf is x + d,
    d = pi_inf - s >= 0, which reduces the stiffened gas to an ideal gas.
    A right side is mirrored (u -> -u, xi -> -xi), so every wave here faces
    left."""

    def __init__(self, prim: Primitive, eos: EosParams, s: float):
        self.rho = float(prim.rho)
        self.u = float(prim.u)
        self.p = float(prim.p)
        self.gamma = eos.gamma
        self.pi = eos.pi_inf
        self.s = s
        self.d = self.pi - s
        self.x = self.p + s
        self.pbar = self.p + self.pi
        self.a = float(sound_speed(self.rho, self.p, eos))
        g = self.gamma
        self.A = 2.0 / ((g + 1.0) * self.rho)
        self.B = (g - 1.0) / (g + 1.0) * self.pbar
        self.exp = (g - 1.0) / (2.0 * g)

    def f(self, x):
        """Velocity change across the wave connecting this side to x = p + s."""
        pbar = x + self.d
        if x > self.x:
            return (x - self.x) * np.sqrt(self.A / (pbar + self.B))
        return 2.0 * self.a / (self.gamma - 1.0) * ((pbar / self.pbar) ** self.exp - 1.0)

    def df(self, x):
        pbar = x + self.d
        if x > self.x:
            root = np.sqrt(self.A / (pbar + self.B))
            return root * (1.0 - 0.5 * (x - self.x) / (pbar + self.B))
        return (pbar / self.pbar) ** (-(self.gamma + 1.0) / (2.0 * self.gamma)) \
            / (self.rho * self.a)

    def wave(self, x, u_star):
        """(kind, head, tail) of the wave to the star state (x, u_star); a
        shock's head and tail are both its speed."""
        g = self.gamma
        P = (x + self.d) / self.pbar
        if x > self.x:
            s = self.u - self.a * np.sqrt((g + 1.0) / (2.0 * g) * P + (g - 1.0) / (2.0 * g))
            return "shock", s, s
        return "rarefaction", self.u - self.a, u_star - self.a * P**self.exp

    def profile(self, x, u_star, xi):
        """rho, u, p left of the contact at the array xi, for the wave to the
        star state (x, u_star): this side, the fan, the star state."""
        kind, head, tail = self.wave(x, u_star)
        g = self.gamma
        P = (x + self.d) / self.pbar
        gg = (g - 1.0) / (g + 1.0)
        rho_star = (self.rho * (P + gg) / (gg * P + 1.0) if kind == "shock"
                    else self.rho * P ** (1.0 / g))
        # the fan is evaluated everywhere then masked; a shock has none
        # (head == tail), and the floor keeps the dead region finite
        a_fan = np.maximum(2.0 / (g + 1.0) * (self.a + 0.5 * (g - 1.0) * (self.u - xi)),
                           1e-30)
        pbar_fan = self.pbar * (a_fan / self.a) ** (2.0 * g / (g - 1.0))
        fan = (g * pbar_fan / a_fan**2,
               2.0 / (g + 1.0) * (self.a + 0.5 * (g - 1.0) * self.u + xi),
               pbar_fan - self.pi)
        star = (rho_star, u_star, x - self.s)
        return [np.where(xi < head, side, np.where(xi < tail, in_fan, in_star))
                for side, in_fan, in_star in zip((self.rho, self.u, self.p), fan, star)]


class ExactRiemannSolution:
    """Exact solution of a (possibly two-material) Riemann problem.

    Calling the object with xi = x/t samples the self-similar solution;
    left of the contact the left material applies, right of it the right one.
    """

    def __init__(self, left: _Side, right_m: _Side, x_star, u_star, residual, iterations):
        self._left = left
        self._right_m = right_m
        self._x = float(x_star)
        self.p_star = self._x - left.s
        self.u_star = float(u_star)
        self.residual = float(residual)
        self.iterations = int(iterations)
        self.left_wave = left.wave(self._x, self.u_star)
        kind, head, tail = right_m.wave(self._x, -self.u_star)
        self.right_wave = (kind, -tail, -head)

    def __call__(self, xi):
        xi = np.asarray(xi, dtype=float)
        rho_l, u_l, p_l = self._left.profile(self._x, self.u_star, xi)
        rho_r, u_rm, p_r = self._right_m.profile(self._x, -self.u_star, -xi)
        on_left = xi < self.u_star
        return Primitive(
            rho=np.where(on_left, rho_l, rho_r),
            u=np.where(on_left, u_l, -u_rm),
            p=np.where(on_left, p_l, p_r),
        )


def exact_rp(left: Primitive, right: Primitive, eos_left: EosParams,
             eos_right: EosParams) -> ExactRiemannSolution:
    """Exact Riemann solver with per-side stiffened-gas parameters.

    Newton iteration on the pressure function f_L + f_R + du (shock and
    rarefaction branches per side; Toro, Riemann Solvers and Numerical
    Methods for Fluid Dynamics, ch. 4), which rises and is concave in
    x = p + s, s the smaller pi_inf, so x = 0 is the vacuum floor. Newton
    starts at the lower side pressure, the root of a contact, and is
    safeguarded on the bracket [0, hi], whose end hi has a closed form: above
    the higher side pressure x_k both waves are shocks, and side k's shock
    alone makes up the shortfall -f(x_k) within the root h of a quadratic, so
    f > 0 at x_k + 2 h. The step is tested against the tolerance, relative to
    x, before the safeguard. A step that leaves the bracket is taken again in
    w = x^z, z the smaller exponent (gamma - 1) / (2 gamma) of a side with
    d = 0, whose rarefaction is linear in w, so a root near the floor is
    reached in a few steps; only if that step leaves the bracket too does the
    search bisect. It also stops, after one last step, where |f| falls to
    4 eps of its velocity scale: below that f is rounding noise, and x cannot
    be resolved further. The waves and the sampled profile are taken at x,
    so a fan keeps its tail above the floor; p_star is reported unshifted,
    as x - s.

    An inadmissible side or a non-finite velocity raises InvalidStateError
    naming the side; vacuum formation (f >= 0 at x = 0, no root with both
    shifted pressures positive) raises SolverError, and so does a search that
    does not converge, naming both states.
    """
    for side, v, eos in (("left", left, eos_left), ("right", right, eos_right)):
        with _prefixed(f"{side} state"):
            _check_admissible(v.rho, v.p, eos)
            _require(np.isfinite(v.u), InvalidStateError, "u",
                     f"non-finite velocity, got {v.u}")
    s = min(eos_left.pi_inf, eos_right.pi_inf)
    sl = _Side(left, eos_left, s)
    # the right side mirrored: the right wave of (rho_R, u_R, p_R) is the left
    # wave of (rho_R, -u_R, p_R) under xi -> -xi; f and df do not read u
    sr = _Side(Primitive(right.rho, -np.asarray(right.u, dtype=float), right.p), eos_right, s)
    du = -sr.u - sl.u
    scale = max(sl.a, sr.a, abs(du), 1e-30)

    def f_total(x):
        return sl.f(x) + sr.f(x) + du

    if f_total(0.0) >= 0.0:
        raise SolverError("exact Riemann problem forms vacuum (no positive root)")

    # f_total(x_k + h) >= f_k(x_k + h) - need, and f_k(x_k + h) = need at the
    # root h of A h^2 = need^2 (h + pbar_k + B_k); f_k(x_k + 2 h) > need
    k = max(sl, sr, key=lambda side: side.x)
    need = -f_total(k.x)
    lo, hi = 0.0, k.x
    if need >= 0.0:
        hi += need * (need + np.sqrt(need * need + 4.0 * k.A * (k.pbar + k.B))) / k.A

    noise = 4.0 * np.finfo(float).eps * scale
    z = min(side.exp for side in (sl, sr) if side.d == 0.0)
    # a side with d > 0 may lie at or below the floor, x <= 0: the other
    # side (d = 0) never does
    x = min(side.x for side in (sl, sr) if side.x > 0.0)
    for iterations in range(1, _MAX_ITER + 1):
        fx = f_total(x)
        if fx > 0.0:
            hi = x
        else:
            lo = x
        x_new = x - fx / (sl.df(x) + sr.df(x))
        # converged on the step, or f is rounding noise and x cannot be
        # resolved further: a last step, kept above lo (maybe the floor)
        if abs(x_new - x) <= _TOL * x_new or abs(fx) <= noise:
            x = x_new if x_new > lo else x
            break
        if not lo < x_new < hi:
            # the same step in w = x^z: w (1 + z dx / x)
            x_new = x * max(1.0 + z * (x_new - x) / x, 0.0) ** (1.0 / z)
        x = x_new if lo < x_new < hi else 0.5 * (lo + hi)
    else:
        raise SolverError(f"exact Riemann solver did not converge in {_MAX_ITER} iterations"
                          + _failure_site(True, left, right, 0))

    u_star = 0.5 * (sl.u - sr.u) + 0.5 * (sr.f(x) - sl.f(x))
    return ExactRiemannSolution(sl, sr, x_star=x, u_star=u_star,
                                residual=abs(f_total(x)) / scale,
                                iterations=iterations)
