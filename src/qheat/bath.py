"""Thermal reservoir physics.

Planck occupation numbers, spectral densities and the table of the
rotating-wave bath correlation function D^{ab}(omega) for bosonic heat
reservoirs. Natural units hbar = k_B = 1 throughout; frequencies,
energies and temperatures are all dimensionless.

A reservoir enters the dissipative kernels only through its temperature
and its spectral density g(omega), so that is all a BathSpec stores;
BathColumns holds B of them as a temperature column and one spectral
density per entry, the form a stacked kernel build reads. The
two active correlation channels follow the usual convention

    D^{12}(omega) = g(omega) (1 + n(omega))    for omega > 0   (emission)
    D^{21}(omega) = g(-omega) n(-omega)        for omega < 0   (absorption)

with every other (channel, sign) combination identically zero. Detailed
balance D^{12}(omega) = exp(omega/T) D^{21}(-omega) then holds by
construction.

This module is the library's one implementation of every bath rule:
the temperature check, the occupation rule _occupations that
planck_occupation reads, and _correlations, which fills D^{12}(w) and
D^{21}(-w) of B baths at F frequencies w > 0 for build_kernel. The
scalar D^{ab}(omega), channel by channel, is written out independently
as bath_correlation in tests/kernel_oracle.py, the kernel's reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import exp, expm1, inf

import numpy as np

__all__ = [
    "BathColumns",
    "BathSpec",
    "SpectralDensity",
    "SpectralLookupError",
    "planck_occupation",
]


class SpectralLookupError(LookupError):
    """Tabulated spectral density has no entry at the requested frequency."""


def _check_temperature(T: float):
    """Refuse a temperature that is not finite or is below 0."""
    if not math.isfinite(T):
        raise ValueError(f"temperature must be finite, got {T}")
    if T < 0:
        raise ValueError(f"temperature must be >= 0, got {T}")


def _occupations(temperatures, omegas) -> list:
    """Planck occupations 1/(exp(w/T) - 1) of each checked temperature
    at each frequency w > 0, temperature-major.

    T = 0 gives exactly 0. Past w/T = 700 the occupation equals exp(-w/T)
    to double precision (an infinite w gives 0), so expm1 never
    overflows. A w/T below about 1/DBL_MAX, 0 included, gives inf.
    """
    return [0.0 if T == 0.0
            else 1.0 / expm1(x) if 0.0 < (x := w / T) <= 700.0
            else exp(-x) if x else inf
            for T in temperatures for w in omegas]


def _correlations(temperatures, densities, omegas: list):
    """D^{12}(w) and D^{21}(-w) of each bath, given as the columns of its
    temperatures and spectral densities, at each of the distinct
    frequencies omegas, all > 0: two (B, len(omegas)) arrays, which
    build_kernel lays side by side as its (B, 2 F) correlation table.

    Each entry is g(w) (1 + n) or g(w) n, with the Planck occupations n
    read from _occupations in one call for the whole table rather than a
    call per entry, and equals the scalar reference bath_correlation of
    tests/kernel_oracle.py byte for byte. Each distinct spectral density
    object is looked up once, in the order of its first bath, so the
    first bath whose table misses a frequency raises the
    SpectralLookupError it raises alone; a column of one shared density
    gives one row of g, broadcast over the baths.
    """
    distinct = list(dict.fromkeys(densities))
    g = np.array([density.at(omegas) for density in distinct])
    if len(distinct) > 1:
        row = {density: i for i, density in enumerate(distinct)}
        g = g[[row[density] for density in densities]]
    occupation = np.array(_occupations(temperatures, omegas)).reshape(
        len(temperatures), len(omegas))
    return g * (1.0 + occupation), g * occupation


def planck_occupation(omega: float, T: float) -> float:
    """Thermal boson number n = 1/(exp(omega/T) - 1), from _occupations.

    A NaN omega and a non-finite T are rejected, and so is an omega/T
    below about 1/DBL_MAX = 5.6e-309 (0 included), where the occupation
    is past the largest float.
    """
    if not omega > 0:
        raise ValueError(f"occupation needs omega > 0, got {omega}")
    _check_temperature(T)
    n = _occupations([T], [omega])[0]
    if n == inf:
        raise ValueError(f"occupation overflows: omega/T = {omega / T:g} is "
                         f"below 1/DBL_MAX at omega {omega:g}, T {T:g}")
    return n


class SpectralDensity:
    """Reservoir coupling weight g(omega), defined for omega > 0.

    Either a finite, non-negative constant or a finite table with
    exact-frequency lookup (finite frequencies > 0, finite values >= 0).
    Tables deliberately do not interpolate: querying a missing frequency
    raises SpectralLookupError so that a misconfigured model surfaces
    instead of being silently extrapolated.
    """

    __slots__ = ("_constant", "_table")

    def __init__(self, constant=None, table=None):
        if (constant is None) == (table is None):
            raise ValueError("give exactly one of constant= or table=")
        if constant is not None:
            constant = float(constant)
            if not math.isfinite(constant):
                raise ValueError(f"spectral density must be finite, got {constant}")
            if constant < 0:
                raise ValueError(f"spectral density must be >= 0, got {constant}")
        else:
            table = {float(w): float(g) for w, g in dict(table).items()}
            for w, g in table.items():
                if not (math.isfinite(w) and math.isfinite(g)):
                    raise ValueError(f"spectral density table entries must be "
                                     f"finite, got {g} at omega={w}")
                if w <= 0:
                    raise ValueError(f"tabulated frequency must be > 0, got {w}")
                if g < 0:
                    raise ValueError(f"spectral density must be >= 0, got {g} at omega={w}")
        self._constant = constant
        self._table = table

    @classmethod
    def constant(cls, value: float) -> "SpectralDensity":
        return cls(constant=value)

    @classmethod
    def from_table(cls, pairs) -> "SpectralDensity":
        return cls(table=dict(pairs))

    def __call__(self, omega: float) -> float:
        if omega <= 0:
            raise ValueError(f"spectral density only defined for omega > 0, got {omega}")
        return self.at([omega])[0]

    def at(self, omegas: list) -> list:
        """[self(w) for w in omegas], every w > 0, with one lookup per
        table entry and none per entry for a constant; the first missing
        frequency raises SpectralLookupError."""
        if self._constant is not None:
            return [self._constant] * len(omegas)
        table = self._table
        try:
            return [table[w] for w in omegas]
        except KeyError as missed:
            raise SpectralLookupError(f"no tabulated spectral density at "
                                      f"omega={missed.args[0]!r}") from None

    def __repr__(self):
        if self._constant is not None:
            return f"SpectralDensity.constant({self._constant!r})"
        return f"SpectralDensity.from_table({sorted(self._table.items())!r})"


@dataclass(frozen=True, eq=False)
class BathSpec:
    """One bosonic heat reservoir: temperature plus spectral density.

    The temperature must be finite and >= 0. spectral_density may be
    given as a bare number, which is promoted to a constant
    SpectralDensity. Instances are immutable and safe to share between
    concurrent kernel builds.
    """

    temperature: float
    spectral_density: SpectralDensity
    label: str = ""

    def __post_init__(self):
        _check_temperature(self.temperature)
        if not isinstance(self.spectral_density, SpectralDensity):
            object.__setattr__(
                self, "spectral_density",
                SpectralDensity.constant(self.spectral_density))


@dataclass(frozen=True, eq=False)
class BathColumns:
    """B baths of one reservoir as two columns: bath i has temperature
    temperatures[i] and spectral density spectral_densities[i].

    The one form in which build_kernel and steady_point take B baths:
    entries may share one SpectralDensity object, and each distinct
    object is looked up once per kernel. The columns must be equally
    long and not empty. Every temperature is checked first, then every
    density entry that is not a SpectralDensity is promoted as BathSpec
    promotes it, one object per distinct number (0.0 and -0.0 apart).
    The first entry refused raises what the BathSpec of its temperature
    and density raises, so a one-entry column raises in BathSpec's order.
    """

    temperatures: tuple
    spectral_densities: tuple

    def __post_init__(self):
        temperatures = tuple(self.temperatures)
        densities = tuple(self.spectral_densities)
        if len(temperatures) != len(densities):
            raise ValueError(f"bath columns differ in length: "
                             f"{len(temperatures)} temperatures, "
                             f"{len(densities)} spectral densities")
        if not temperatures:
            raise ValueError("bath columns are empty; need at least one bath")
        for T in temperatures:
            _check_temperature(T)
        made = {}   # a number's density by value and sign: 0.0, -0.0 apart
        promoted = []
        for density in densities:
            if not isinstance(density, SpectralDensity):
                try:
                    key = density, math.copysign(1.0, density)
                    density = made.get(key) or made.setdefault(
                        key, SpectralDensity.constant(density))
                except TypeError:   # no number, or unhashable: on its own
                    density = SpectralDensity.constant(density)
            promoted.append(density)
        object.__setattr__(self, "temperatures", temperatures)
        object.__setattr__(self, "spectral_densities", tuple(promoted))
