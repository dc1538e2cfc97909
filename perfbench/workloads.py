"""The four seeded workloads.

Each workload is a closed loop with a single caller: the next call starts
when the previous one has returned. It runs in cycles, and cycle c is a
fixed list of items (one call into the public API each) taken from
pools drawn from the seed, so the same seed gives the same inputs and
every cycle does the same amount of work. The program sees only the
generated inputs.

Calls go through module attributes (CLI.compute_point, KERNEL.build_kernel,
...) so that the traced run can put its wrappers in their place.
"""

from __future__ import annotations

import math
import os
import shutil
from dataclasses import dataclass

import numpy as np
from qheat import cli as CLI
from qheat import kernel as KERNEL
from qheat import steady as STEADY
from qheat import system as SYSTEM
from qheat import thermo as THERMO
from qheat.bath import BathSpec

import verify

POOL = 64                   # draws per cycle slot before the inputs repeat
RESERVOIRS = ("A", "B")
RELAX_T, RELAX_DT = 80.0, 0.005
EVOLVE_STEPS = max(1, math.ceil(RELAX_T / RELAX_DT))    # computed, per evolve call


@dataclass(frozen=True)
class Item:
    """One call of a workload."""

    label: str          # cycle slot, e.g. "coupled/redfield", "fig3", "n10/lindblad"
    mode: str
    n: int              # level count of the system
    rows: int           # steady or propagated states the call produces
    params: object


def _single(rng, w0, g, t):
    return dict(w0=rng.uniform(*w0), ga=rng.uniform(*g), gb=rng.uniform(*g),
                ta=rng.uniform(*t), tb=rng.uniform(*t))


def _coupled(rng, w1, w2, lam_share, g, t):
    a, b = rng.uniform(*w1), rng.uniform(*w2)
    return dict(w1=a, w2=b, lam=rng.uniform(*lam_share) * math.sqrt(a * b),
                g=rng.uniform(*g), ta=rng.uniform(*t), tb=rng.uniform(*t))


def _pipeline(system, g_of, t_of, mode):
    """Per-reservoir kernels and the generator, through the library API."""
    kernels = [KERNEL.build_kernel(
        system, BathSpec(temperature=t_of[r], spectral_density=g_of[r], label=r),
        r, mode) for r in RESERVOIRS]
    return kernels, STEADY.assemble_liouvillian(
        system, KERNEL.combine_kernels(kernels))


class Workload:
    name = ""
    slots: tuple = ()
    stream = 0          # keeps the workloads' random streams apart

    def __init__(self, seed):
        rng = np.random.default_rng([seed, self.stream])
        self.pools = [[self.draw(rng, slot) for _ in range(POOL)]
                      for slot in self.slots]

    def draw(self, rng, slot):
        """Seeded input for one cycle slot."""
        return None

    def cycle(self, c):
        return [self.item(slot, pool[c % POOL])
                for slot, pool in zip(self.slots, self.pools)]

    def may_reject(self, item):
        """Whether a domain error raised by the program is a valid answer."""
        return False

    def warm_up(self):
        self.run(self.cycle(0)[0])

    def close(self):
        pass


class _ModelPoints(Workload):
    """Slots are (model, mode) pairs of the two paper models."""

    def item(self, slot, params):
        model, mode = slot
        return Item(f"{model}/{mode}", mode, 2 if model == "single" else 4, 1,
                    (model, params))


class Points(_ModelPoints):
    """compute_point at N = 2 and N = 4. The coupled cells come twice per
    cycle, so the median falls inside the coupled lindblad cluster rather
    than on the edge between two clusters."""

    name = "points"
    stream = 1
    slots = (("single", "lindblad"), ("coupled", "lindblad"),
             ("coupled", "redfield"), ("single", "redfield"),
             ("coupled", "lindblad"), ("coupled", "redfield"))

    def draw(self, rng, slot):
        if slot[0] == "single":
            return _single(rng, (0.2, 5.0), (0.05, 2.0), (0.05, 10.0))
        return _coupled(rng, (0.2, 5.0), (0.2, 5.0), (0.05, 0.9), (0.05, 2.0),
                        (0.05, 10.0))

    def run(self, item):
        model, params = item.params
        return CLI.compute_point(model, item.mode, params)

    def check(self, item, point):
        model, params = item.params
        return verify.check_point(model, item.mode, params, point)


class Presets(Workload):
    """The paper's figures through the command line, in process. The grids
    are fixed; the seed changes nothing."""

    name = "presets"
    stream = 2
    slots = ("fig3", "fig4", "fig5")

    def __init__(self, seed):
        super().__init__(seed)
        here = os.path.dirname(os.path.abspath(__file__))
        self.reference = {}
        for fig in self.slots:
            with open(os.path.join(here, "reference", f"{fig}.csv")) as fh:
                self.reference[fig] = fh.read()
        self.out_dir = os.path.join(os.getcwd(), ".perfbench_out",
                                    str(os.getpid()))
        os.makedirs(self.out_dir, exist_ok=True)
        self.cells_changed = 0
        self.files_differing = 0

    def item(self, fig, _):
        cfg = CLI.PRESETS[fig]
        return Item(fig, cfg["mode"], 4, cfg["count"], fig)

    def _path(self, fig):
        return os.path.join(self.out_dir, f"{fig}.csv")

    def run(self, item):
        return CLI.main(["preset", item.params, "--out", self._path(item.params)])

    def check(self, item, code):
        if code != 0:
            return 1, [f"qheat preset {item.params} exited {code}"]
        with open(self._path(item.params)) as fh:
            text = fh.read()
        ref = self.reference[item.params]
        self.files_differing += text != ref
        rows, changed, fails = verify.compare_csv(text, ref)
        self.cells_changed += changed
        return rows, fails

    def close(self):
        shutil.rmtree(self.out_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.out_dir))
        except OSError:
            pass        # another run still uses it


class Scaling(Workload):
    """Random N-level systems, N = 4..10, through every pipeline stage.

    The second lindblad system at N = 10 doubles the samples behind
    nmax_point_ms and makes the cycle length odd, so the median lands
    inside one size cluster.
    """

    name = "scaling"
    stream = 3
    slots = tuple((n, mode) for n in range(4, 11)
                  for mode in (KERNEL.LINDBLAD, KERNEL.REDFIELD)) \
        + ((10, KERNEL.LINDBLAD),)

    def draw(self, rng, slot):
        """Level gaps in [0.5, 1.5], dense raising couplings per reservoir."""
        n = slot[0]
        couplings = {}
        for r in RESERVOIRS:
            s1 = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            couplings[r] = np.tril(s1, -1) / math.sqrt(n)
        return dict(levels=tuple(np.cumsum(rng.uniform(0.5, 1.5, n))),
                    couplings=couplings,
                    g={r: rng.uniform(0.5, 1.5) for r in RESERVOIRS},
                    t={"A": rng.uniform(1.0, 3.0), "B": rng.uniform(0.5, 1.5)})

    def item(self, slot, params):
        n, mode = slot
        return Item(f"n{n}/{mode}", mode, n, 1, params)

    def may_reject(self, item):
        # Redfield kernels of random systems do not preserve trace, so the
        # generator has no unique steady state and the solve refuses it.
        return item.mode == KERNEL.REDFIELD

    def run(self, item):
        p = item.params
        system = SYSTEM.SystemSpec(levels=p["levels"], couplings=p["couplings"])
        kernels, liou = _pipeline(system, p["g"], p["t"], item.mode)
        rho = STEADY.solve_steady_state(liou)
        q_a, q_b = (THERMO.reservoir_current(system, k, rho) for k in kernels)
        return liou, rho, q_a, q_b

    def check(self, item, out):
        liou, rho, q_a, q_b = out
        return verify.check_steady(liou.matrix, rho, q_a, q_b)


class Relax(_ModelPoints):
    """evolve from the maximally mixed state to t = 80 at dt = 0.005, in a
    domain whose slowest decay rate (at least 0.45) brings every state
    within 1e-15 of the steady state by then."""

    name = "relax"
    stream = 4
    slots = (("single", "lindblad"), ("coupled", "lindblad"),
             ("coupled", "redfield"))

    def draw(self, rng, slot):
        if slot[0] == "single":
            return _single(rng, (0.5, 3.0), (0.5, 2.0), (0.4, 3.0))
        return _coupled(rng, (0.8, 1.2), (1.8, 3.0), (0.3, 0.7), (0.8, 1.5),
                        (0.5, 3.0))

    def run(self, item):
        model, p = item.params
        if model == "single":
            system = SYSTEM.make_single_qubit(p["w0"])
            g_of = {"A": p["ga"], "B": p["gb"]}
        else:
            system, _ = SYSTEM.make_coupled_qubits(p["w1"], p["w2"], p["lam"])
            g_of = {"A": p["g"], "B": p["g"]}
        _, liou = _pipeline(system, g_of, {"A": p["ta"], "B": p["tb"]},
                            item.mode)
        rho0 = STEADY.DensityMatrix(dim=item.n,
                                    entries=np.eye(item.n) / item.n)
        return liou, STEADY.evolve(liou, rho0, RELAX_T, dt=RELAX_DT)

    def check(self, item, out):
        return verify.check_relax(*out)


WORKLOADS = {w.name: w for w in (Presets, Points, Scaling, Relax)}
