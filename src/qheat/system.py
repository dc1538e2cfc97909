"""Finite-level system specifications in the energy eigenbasis.

A SystemSpec is the common currency consumed by the kernel builder: an
ascending list of level energies plus, per reservoir, the raising-channel
coupling operator S^1 written in the energy basis. The lowering channel
S^2 is always the conjugate transpose of S^1, so only S^1 is stored.

Two concrete models get constructors here: a single driven qubit, and a
pair of qubits exchanging excitations through a flip-flop coupling, the
latter diagonalised in closed form.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Mapping

import numpy as np

__all__ = [
    "CoupledDiag",
    "SystemSpec",
    "make_coupled_qubits",
    "make_single_qubit",
]


@dataclass(frozen=True, eq=False)
class SystemSpec:
    """Energy levels plus per-reservoir coupling operators.

    levels: finite energies E_n in ascending order, at least two.
    couplings: reservoir label -> raising-channel operator S^1 in the
        energy basis, finite entries; the lowering channel S^2 is its
        conjugate transpose. Labels are kept as strings, so two labels
        with one string (1 and "1") are refused.

    Every nonzero S^1_{pq} must have E_p - E_q > 0 (the raising channel
    raises the system energy). That is what guarantees the bath
    correlation is only ever queried at nonzero frequencies.
    """

    levels: tuple
    couplings: Mapping[str, np.ndarray]

    def __post_init__(self):
        levels = tuple(float(e) for e in self.levels)
        if len(levels) < 2:
            raise ValueError("need at least two levels")
        if not all(math.isfinite(e) for e in levels):
            raise ValueError(f"levels must be finite, got {levels}")
        if any(b < a for a, b in zip(levels, levels[1:])):
            raise ValueError(f"levels must be ascending, got {levels}")
        n = len(levels)
        E = np.array(levels)
        lowering = E[:, None] <= E      # E_p - E_q <= 0 exactly where E_p <= E_q
        coups, labels = {}, {}
        for label, s1 in dict(self.couplings).items():
            name = str(label)
            if name in labels:
                raise ValueError(f"reservoir labels {labels[name]!r} and "
                                 f"{label!r} are the same string {name!r}")
            labels[name] = label
            s1 = np.array(s1, dtype=complex)
            if s1.shape != (n, n):
                raise ValueError(
                    f"coupling {label!r} must be {n}x{n}, got shape {s1.shape}")
            if not np.isfinite(s1).all():
                p, q = np.argwhere(~np.isfinite(s1))[0]
                raise ValueError(f"coupling {label!r} entry ({p},{q}) must be "
                                 f"finite, got {s1[p, q]}")
            if np.count_nonzero(s1[lowering]):
                p, q = np.argwhere((s1 != 0) & lowering)[0]
                raise ValueError(
                    f"coupling {label!r} entry ({p},{q}) does not raise energy "
                    f"(E_p - E_q = {levels[p] - levels[q]:g})")
            s1.flags.writeable = False
            coups[name] = s1
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "couplings", coups)

    @property
    def dim(self) -> int:
        return len(self.levels)


@dataclass(frozen=True)
class CoupledDiag:
    """Diagonalisation record of the coupled-qubit model.

    alpha = cos(theta/2) and beta = sin(theta/2) are the eigenstate mixing
    amplitudes, theta = atan2(2 lam, omega1 - omega2) in [0, pi], and
    omega_plus/omega_minus = omega_m +- sqrt(delta_omega^2 + lam^2) are
    the two transition frequency groups.
    """

    omega_m: float
    delta_omega: float
    theta: float
    alpha: float
    beta: float
    omega_plus: float
    omega_minus: float
    energies: tuple


def make_single_qubit(omega0: float) -> SystemSpec:
    """Two-level system with splitting omega0: levels -omega0/2, +omega0/2.

    Reservoirs A and B both drive the qubit, through the same raising
    operator sigma^+ with the single matrix element <+|sigma^+|-> = 1,
    transition energy omega0.
    """
    if omega0 <= 0:
        raise ValueError(f"omega0 must be > 0, got {omega0}")
    s1 = np.zeros((2, 2), dtype=complex)
    s1[1, 0] = 1.0
    return SystemSpec(levels=(-0.5 * omega0, +0.5 * omega0),
                      couplings={"A": s1, "B": s1})


def make_coupled_qubits(omega1: float, omega2: float, lam: float):
    """Two qubits with a flip-flop exchange coupling, diagonalised.

    The product-basis Hamiltonian is

        H = (omega1/2) sigma1^z + (omega2/2) sigma2^z
            + lam (sigma1^+ sigma2^- + sigma1^- sigma2^+)

    with eigenvalues (-omega_m, -delta, +delta, +omega_m) in ascending
    order, where omega_m = (omega1 + omega2)/2 and
    delta = sqrt(((omega1 - omega2)/2)^2 + lam^2). Reservoir A drives
    qubit 1 and reservoir B qubit 2. In the eigenbasis each
    sigma^+ has four matrix elements built from alpha and beta; the
    transitions fall in two groups, 1<->3 and 2<->4 at omega_plus, 1<->2
    and 3<->4 at omega_minus.

    Requires 0 <= lam < sqrt(omega1 omega2) so that omega_minus > 0.
    Returns (SystemSpec, CoupledDiag).
    """
    if omega1 <= 0 or omega2 <= 0:
        raise ValueError(f"qubit splittings must be > 0, got {omega1}, {omega2}")
    if lam < 0:
        raise ValueError(f"lam must be >= 0, got {lam}")
    product = omega1 * omega2
    # sqrt(omega1) sqrt(omega2) where the product under- or overflows
    bound = (math.sqrt(product) if sys.float_info.min <= product < math.inf
             else math.sqrt(omega1) * math.sqrt(omega2))
    if lam >= bound:
        raise ValueError(
            f"need lam < sqrt(omega1*omega2) = {bound:g} "
            f"for a positive omega_minus, got lam = {lam}")
    omega_m = 0.5 * (omega1 + omega2)
    delta_omega = 0.5 * (omega1 - omega2)
    delta = math.hypot(delta_omega, lam)
    theta = math.atan2(2.0 * lam, omega1 - omega2)
    alpha = math.cos(0.5 * theta)
    beta = math.sin(0.5 * theta)
    omega_plus = omega_m + delta
    omega_minus = omega_m - delta

    # sigma1^+ and sigma2^+ in the eigenbasis; the signs follow from the
    # eigenvectors |2> = -beta|ud> + alpha|du>, |3> = alpha|ud> + beta|du>.
    s1a = np.zeros((4, 4), dtype=complex)
    s1a[2, 0] = alpha       # 1 -> 3 at omega_plus
    s1a[3, 1] = alpha       # 2 -> 4 at omega_plus
    s1a[3, 2] = beta        # 3 -> 4 at omega_minus
    s1a[1, 0] = -beta       # 1 -> 2 at omega_minus
    s1b = np.zeros((4, 4), dtype=complex)
    s1b[1, 0] = alpha       # 1 -> 2 at omega_minus
    s1b[3, 2] = alpha       # 3 -> 4 at omega_minus
    s1b[2, 0] = beta        # 1 -> 3 at omega_plus
    s1b[3, 1] = -beta       # 2 -> 4 at omega_plus

    spec = SystemSpec(levels=(-omega_m, -delta, +delta, +omega_m),
                      couplings={"A": s1a, "B": s1b})
    diag = CoupledDiag(omega_m=omega_m, delta_omega=delta_omega, theta=theta,
                       alpha=alpha, beta=beta, omega_plus=omega_plus,
                       omega_minus=omega_minus, energies=spec.levels)
    return spec, diag
