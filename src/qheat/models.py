"""Closed-form steady states and currents, and the Pauli rate equation.

Independent implementations of the analytic results: the single driven
qubit, the coupled-qubit pair under the secular (Lindblad) kernel, and
the coupled-qubit pair under the full Redfield kernel with a uniform
spectral density. They exist to cross-validate the generic
kernel/solve/current pipeline and vice versa, so they are written
directly from the analytic expressions with no shared code path and no
algebraic simplification. pauli_steady_state is the same kind of oracle
for the secular kernel on any number of levels; the two qubit closed
forms are special cases of it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .bath import planck_occupation

__all__ = [
    "CoupledLindbladResult",
    "CoupledRedfieldResult",
    "PauliResult",
    "RateParams",
    "SingleQubitResult",
    "coupled_lindblad_closed",
    "coupled_rates",
    "coupled_redfield_closed",
    "limit_currents",
    "pauli_steady_state",
    "single_qubit_closed",
]


def _as_g(g):
    """Accept a bare number or any callable omega -> g(omega)."""
    if callable(g):
        return g
    val = float(g)
    if val < 0:
        raise ValueError(f"spectral density must be >= 0, got {val}")
    return lambda omega: val


def _coupled_geometry(omega1, omega2, lam):
    """Mixing amplitudes and transition frequencies of the coupled pair.

    Recomputed here (not imported from the system module) so the closed
    forms stay an independent oracle.
    """
    if omega1 <= 0 or omega2 <= 0:
        raise ValueError(f"qubit splittings must be > 0, got {omega1}, {omega2}")
    product = omega1 * omega2
    # sqrt(omega1) sqrt(omega2) where the product under- or overflows
    bound = (math.sqrt(product) if sys.float_info.min <= product < math.inf
             else math.sqrt(omega1) * math.sqrt(omega2))
    if not 0 <= lam < bound:
        raise ValueError(
            f"need 0 <= lam < sqrt(omega1*omega2) = {bound:g}, "
            f"got lam = {lam}")
    omega_m = 0.5 * (omega1 + omega2)
    delta = math.hypot(0.5 * (omega1 - omega2), lam)
    theta = math.atan2(2.0 * lam, omega1 - omega2)
    alpha = math.cos(0.5 * theta)
    beta = math.sin(0.5 * theta)
    return alpha, beta, omega_m + delta, omega_m - delta, delta


@dataclass(frozen=True)
class SingleQubitResult:
    rho_plus: float
    rho_minus: float
    ratio: float        # rho_plus / rho_minus
    q_a: float
    q_b: float


def single_qubit_closed(omega0, g_a, g_b, t_a, t_b) -> SingleQubitResult:
    """Steady state and currents of one qubit between two reservoirs.

        rho_++ = (gA nA + gB nB) / (gA (1+2nA) + gB (1+2nB))
        rho_-- = (gA (1+nA) + gB (1+nB)) / (same denominator)
        q^A    = gA gB omega0 (nA - nB) / (same denominator),  q^B = -q^A

    with the spectral densities evaluated at omega0 and n the Planck
    occupations. With g_b = 0 the ratio collapses to the Boltzmann factor
    exp(-omega0/T_A).
    """
    if omega0 <= 0:
        raise ValueError(f"omega0 must be > 0, got {omega0}")
    ga = _as_g(g_a)(omega0)
    gb = _as_g(g_b)(omega0)
    if ga < 0 or gb < 0:
        raise ValueError(f"spectral densities must be >= 0, got {ga}, {gb}")
    if ga == 0 and gb == 0:
        raise ValueError("no dissipation: both couplings vanish, steady state undefined")
    na = planck_occupation(omega0, t_a)
    nb = planck_occupation(omega0, t_b)
    denom = ga * (1 + 2 * na) + gb * (1 + 2 * nb)
    rho_p = (ga * na + gb * nb) / denom
    rho_m = (ga * (1 + na) + gb * (1 + nb)) / denom
    ratio = (ga * na + gb * nb) / (ga * (1 + na) + gb * (1 + nb))
    q_a = ga * gb * omega0 * (na - nb) / denom
    return SingleQubitResult(rho_plus=rho_p, rho_minus=rho_m, ratio=ratio,
                             q_a=q_a, q_b=-q_a)


@dataclass(frozen=True)
class RateParams:
    """Transition rates of the coupled-qubit model.

    a = (a_1..a_4) drive through reservoir A, b through reservoir B, and
    s_n = a_n + b_n; index order is (emission at omega_plus, emission at
    omega_minus, absorption at omega_plus, absorption at omega_minus).
    e = E_2 - E_3 is the coherence energy splitting and s_sum the total
    rate s_1+s_2+s_3+s_4.

    The c, d, k, n_norm block feeds the Redfield closed form and exists
    only for a uniform spectral density (both reservoirs, both
    frequencies); the fields are None otherwise.
    """

    a: tuple
    b: tuple
    s: tuple
    e: float
    s_sum: float
    omega_plus: float
    omega_minus: float
    c: tuple | None = None
    d: tuple | None = None
    k: float | None = None
    n_norm: float | None = None


def coupled_rates(omega1, omega2, lam, g_a, g_b, t_a, t_b) -> RateParams:
    """Rate parameters a_n, b_n, s_n (and the uniform-g extras c_n, d_n,
    k, n_norm when they exist) for the coupled-qubit model. A uniform g
    whose normalisation n_norm leaves the float range is a ValueError
    naming its rates, for either closed form."""
    alpha, beta, wp, wm, delta = _coupled_geometry(omega1, omega2, lam)
    ga = _as_g(g_a)
    gb = _as_g(g_b)
    na_p = planck_occupation(wp, t_a)
    na_m = planck_occupation(wm, t_a)
    nb_p = planck_occupation(wp, t_b)
    nb_m = planck_occupation(wm, t_b)
    a = (alpha ** 2 * ga(wp) * (1 + na_p),
         beta ** 2 * ga(wm) * (1 + na_m),
         alpha ** 2 * ga(wp) * na_p,
         beta ** 2 * ga(wm) * na_m)
    b = (beta ** 2 * gb(wp) * (1 + nb_p),
         alpha ** 2 * gb(wm) * (1 + nb_m),
         beta ** 2 * gb(wp) * nb_p,
         alpha ** 2 * gb(wm) * nb_m)
    s = tuple(x + y for x, y in zip(a, b))
    e = -2.0 * delta        # E_2 - E_3
    s_sum = s[0] + s[1] + s[2] + s[3]
    extras = {}
    g_values = {ga(wp), ga(wm), gb(wp), gb(wm)}
    if len(g_values) == 1:
        g = g_values.pop()
        half = 0.5 * alpha * beta * g
        c = (half * (1 + na_p), half * (1 + na_m), half * na_p, half * na_m)
        d = (half * (1 + nb_p), half * (1 + nb_m), half * nb_p, half * nb_m)
        k = (c[0] + c[1]) - (d[0] + d[1])
        try:
            n_norm = ((s_sum ** 2 + 4 * e ** 2) * (s[0] + s[2]) * (s[1] + s[3])
                      - 4 * (k * s_sum) ** 2)
        except OverflowError:       # a square past the largest float
            n_norm = math.inf
        if not math.isfinite(n_norm):
            raise ValueError(
                "normalisation factor leaves the float range at total rate "
                f"{s_sum:g}, transfer strength {k:g}, e = {e:g}")
        extras = dict(c=c, d=d, k=k, n_norm=n_norm)
    return RateParams(a=a, b=b, s=s, e=e, s_sum=s_sum,
                      omega_plus=wp, omega_minus=wm, **extras)


@dataclass(frozen=True)
class CoupledLindbladResult:
    populations: tuple      # rho_11 .. rho_44
    q_a_plus: float
    q_a_minus: float
    q_b_plus: float
    q_b_minus: float
    rates: RateParams

    @property
    def q_a(self) -> float:
        return self.q_a_plus + self.q_a_minus

    @property
    def q_b(self) -> float:
        return self.q_b_plus + self.q_b_minus


def coupled_lindblad_closed(omega1, omega2, lam, g_a, g_b, t_a, t_b) -> CoupledLindbladResult:
    """Secular steady state and branch currents of the coupled pair.

        rho_nn = (s1 s2, s1 s4, s3 s2, s3 s4) / ((s1+s3)(s2+s4))
        q^A_+  = (a3 b1 - a1 b3) omega_plus  / (s1+s3)
        q^A_-  = (a4 b2 - a2 b4) omega_minus / (s2+s4)

    with q^B branchwise the negative of q^A. Coherences vanish in this
    steady state, so none are returned.
    """
    r = coupled_rates(omega1, omega2, lam, g_a, g_b, t_a, t_b)
    s1, s2, s3, s4 = r.s
    z13 = s1 + s3
    z24 = s2 + s4
    if z13 == 0 or z24 == 0:
        raise ValueError("no dissipation on one transition group; steady state undefined")
    if z13 * z24 == 0:
        raise ValueError(f"population normaliser (s1+s3)(s2+s4) = {z13:g} * "
                         f"{z24:g} underflows to 0")
    pops = (s1 * s2 / (z13 * z24), s1 * s4 / (z13 * z24),
            s3 * s2 / (z13 * z24), s3 * s4 / (z13 * z24))
    a1, a2, a3, a4 = r.a
    b1, b2, b3, b4 = r.b
    q_a_plus = (a3 * b1 - a1 * b3) * r.omega_plus / z13
    q_a_minus = (a4 * b2 - a2 * b4) * r.omega_minus / z24
    return CoupledLindbladResult(populations=pops, q_a_plus=q_a_plus,
                                 q_a_minus=q_a_minus, q_b_plus=-q_a_plus,
                                 q_b_minus=-q_a_minus, rates=r)


@dataclass(frozen=True)
class CoupledRedfieldResult:
    populations: tuple      # rho_11 .. rho_44
    rho_23: complex
    rho_32: complex
    rates: RateParams


def coupled_redfield_closed(omega1, omega2, lam, g, t_a, t_b) -> CoupledRedfieldResult:
    """Non-secular steady state of the coupled pair for uniform g.

        rho_nn = [(s^2 + 4 e^2) t_n - 4 k^2 u_n] / N
            t = (s1 s2, s1 s4, s2 s3, s3 s4)
            u = ((s1+s4)(s2+s3), (s1+s4)^2, (s2+s3)^2, (s1+s4)(s2+s3))
        rho_23 = -(2k/N)(s1 s2 - s3 s4)(s - 2ie),  rho_32 its conjugate
        N = (s^2 + 4 e^2)(s1+s3)(s2+s4) - 4 (k s)^2

    The -4 k^2 corrections are what drag rho_22 and rho_44 negative at a
    large enough temperature bias: this closed form reproduces the
    positivity failure of the non-secular kernel exactly. Only defined
    for a spectral density equal to the same constant g for both
    reservoirs at both transition frequencies; anything else needs the
    generic pipeline.
    """
    g = float(g)
    if g <= 0:
        raise ValueError(f"uniform spectral density must be > 0, got {g}")
    r = coupled_rates(omega1, omega2, lam, g, g, t_a, t_b)
    s1, s2, s3, s4 = r.s
    s = r.s_sum
    e = r.e
    k = r.k
    n_norm = r.n_norm
    if n_norm == 0:
        raise ValueError("normalisation factor vanished; steady state undefined")
    f = s ** 2 + 4 * e ** 2
    t = (s1 * s2, s1 * s4, s2 * s3, s3 * s4)
    u = ((s1 + s4) * (s2 + s3), (s1 + s4) ** 2,
         (s2 + s3) ** 2, (s1 + s4) * (s2 + s3))
    pops = tuple((f * tn - 4 * k ** 2 * un) / n_norm for tn, un in zip(t, u))
    coh = -(2 * k / n_norm) * (s1 * s2 - s3 * s4)
    rho_23 = coh * complex(s, -2 * e)
    rho_32 = coh * complex(s, +2 * e)
    return CoupledRedfieldResult(populations=pops, rho_23=rho_23,
                                 rho_32=rho_32, rates=r)


@dataclass(frozen=True)
class PauliResult:
    populations: np.ndarray     # P_n, in the order of the levels
    currents: dict              # reservoir label -> q^R


def _rate_matrix(levels, s1, g, temperature):
    """W^R: W[p, q] the rate from level q to level p, columns summing to 0."""
    n = len(levels)
    w = np.zeros((n, n))
    for p in range(n):
        for q in range(p):
            omega = levels[p] - levels[q]
            strength = abs(s1[p, q]) ** 2 * g(omega)
            occupation = planck_occupation(omega, temperature)
            w[p, q] += strength * occupation            # up, q -> p
            w[q, p] += strength * (1.0 + occupation)    # down, p -> q
    return w - np.diag(w.sum(axis=0))


def pauli_steady_state(levels, couplings, g, t) -> PauliResult:
    """Populations and per-reservoir currents of the Pauli rate equation.

    levels are ascending energies E_n; couplings, g and t map each
    reservoir label R to its raising operator S^1 in the energy basis
    (nonzero only below the diagonal), its spectral density (a number or
    a callable of omega) and its temperature. Reservoir R moves the
    system from q up to p > q at rate |S^1_pq|^2 g_R(w) n(w) and back
    down at |S^1_pq|^2 g_R(w) (1 + n(w)), w = E_p - E_q and n the Planck
    occupation at T_R. The populations P are the trace-one null vector of
    W = sum_R W^R, and q^R = sum_p E_p (W^R P)_p.

    With nondegenerate levels and Bohr frequencies the secular (lindblad)
    kernel decouples populations from coherences, its steady state is
    diagonal and these are its populations and currents (Breuer &
    Petruccione, The Theory of Open Quantum Systems, section 3.3).
    single_qubit_closed and coupled_lindblad_closed are special cases.
    """
    levels = [float(e) for e in levels]
    rates = {}
    for r, s1 in couplings.items():
        s1 = np.asarray(s1)
        if np.triu(s1).any():
            raise ValueError(f"coupling {r!r} must be nonzero only below the "
                             "diagonal (S^1 raises the energy)")
        rates[r] = _rate_matrix(levels, s1, _as_g(g[r]), t[r])
    vh = np.linalg.svd(sum(rates.values()))[2]
    pops = vh[-1] / vh[-1].sum()
    return PauliResult(
        populations=pops,
        currents={r: float(np.dot(levels, w @ pops)) for r, w in rates.items()})


def limit_currents(model: str, regime: str, **params) -> dict:
    """Asymptotic current formulas, evaluated exactly as written.

    model "single" (params omega0, g_a, g_b, t_a, t_b):
        high: q^A = (1/2) gA gB w0 (T_A - T_B) / (gA T_A + gB T_B)
        low:  q^A = gA gB w0 / (gA + gB) * (exp(-w0/T_A) - exp(-w0/T_B))

    model "coupled" (params omega1, omega2, lam, g_a, g_b, t_a, t_b),
    per transition branch:
        high: q^A_+ = (1/2) (ab)^2 gA gB w+ (T_A - T_B)
                      / (a^2 gA T_A + b^2 gB T_B)
              q^A_- = (1/2) (ab)^2 gA gB w- (T_A - T_B)
                      / (b^2 gA T_A + a^2 gB T_B)
        low:  same numerators with (exp(-w/T_A) - exp(-w/T_B)) and
              denominators a^2 gA + b^2 gB (plus branch) or
              b^2 gA + a^2 gB (minus branch)

    where a, b abbreviate alpha, beta and the g's are evaluated on the
    branch frequency. Returns {"q_a": ..., "q_b": ...} plus, for the
    coupled model, the per-branch components. The high forms hold for
    temperatures far above every transition frequency, the low forms far
    below; nothing here checks that the caller is in regime.
    """
    if regime not in ("high", "low"):
        raise ValueError(f"regime must be 'high' or 'low', got {regime!r}")
    if model == "single":
        w0 = params["omega0"]
        ga = _as_g(params["g_a"])(w0)
        gb = _as_g(params["g_b"])(w0)
        ta, tb = params["t_a"], params["t_b"]
        if regime == "high":
            q_a = 0.5 * ga * gb * w0 * (ta - tb) / (ga * ta + gb * tb)
        else:
            q_a = (ga * gb * w0 / (ga + gb)
                   * (math.exp(-w0 / ta) - math.exp(-w0 / tb)))
        return {"q_a": q_a, "q_b": -q_a}
    if model == "coupled":
        alpha, beta, wp, wm, _ = _coupled_geometry(
            params["omega1"], params["omega2"], params["lam"])
        ga = _as_g(params["g_a"])
        gb = _as_g(params["g_b"])
        ta, tb = params["t_a"], params["t_b"]
        ab2 = (alpha * beta) ** 2
        if regime == "high":
            qp = (0.5 * ab2 * ga(wp) * gb(wp) * wp * (ta - tb)
                  / (alpha ** 2 * ga(wp) * ta + beta ** 2 * gb(wp) * tb))
            qm = (0.5 * ab2 * ga(wm) * gb(wm) * wm * (ta - tb)
                  / (beta ** 2 * ga(wm) * ta + alpha ** 2 * gb(wm) * tb))
        else:
            qp = (ab2 * ga(wp) * gb(wp) * wp
                  / (alpha ** 2 * ga(wp) + beta ** 2 * gb(wp))
                  * (math.exp(-wp / ta) - math.exp(-wp / tb)))
            qm = (ab2 * ga(wm) * gb(wm) * wm
                  / (beta ** 2 * ga(wm) + alpha ** 2 * gb(wm))
                  * (math.exp(-wm / ta) - math.exp(-wm / tb)))
        return {"q_a": qp + qm, "q_b": -(qp + qm),
                "q_a_plus": qp, "q_a_minus": qm,
                "q_b_plus": -qp, "q_b_minus": -qm}
    raise ValueError(f"model must be 'single' or 'coupled', got {model!r}")
