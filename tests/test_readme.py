"""The README's library examples run as written."""

import ast
import re
import types
from pathlib import Path

import numpy as np

import qheat
from qheat import BathSpec, steady_point

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_blocks():
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(),
                      flags=re.DOTALL | re.MULTILINE)


# the README's imports from qheat, the other shipped model and the input
# type of steady_point, and the documented oracles of qheat.models
PUBLIC = {"BathSpec", "BathColumns", "SpectralDensity", "make_coupled_qubits",
          "steady_point", "make_single_qubit", "SystemSpec",
          "single_qubit_closed", "coupled_lindblad_closed",
          "coupled_redfield_closed", "limit_currents", "pauli_steady_state",
          "__version__"}


def test_the_package_exports_what_the_readme_imports():
    """qheat.__all__ is the documented API, every name in it resolves
    under a star import, and the package holds no other public name but
    its modules, so every other name has one path, through its module.
    Every name the README imports from qheat is in __all__."""
    assert set(qheat.__all__) == PUBLIC
    namespace = {}
    exec("from qheat import *", namespace)
    assert [name for name in qheat.__all__ if name not in namespace] == []
    assert {name for name, value in vars(qheat).items()
            if not name.startswith("_")
            and not isinstance(value, types.ModuleType)} == PUBLIC - {"__version__"}
    imported = {alias.name for block in _python_blocks()
                for node in ast.walk(ast.parse(block))
                if isinstance(node, ast.ImportFrom) and node.module == "qheat"
                for alias in node.names}
    assert imported == {"BathSpec", "BathColumns", "SpectralDensity",
                        "make_coupled_qubits", "steady_point"}


def test_readme_python_blocks_run_in_order():
    blocks = _python_blocks()
    assert len(blocks) == 3
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    stack = namespace["stack"]
    assert stack.rho.entries.shape == (3, 4, 4)
    # each entry of the stack is its own one-point steady_point
    for j in range(3):
        point = steady_point(namespace["system"], {
            r: BathSpec(temperature=c.temperatures[j],
                        spectral_density=c.spectral_densities[j])
            for r, c in (("A", namespace["hot"]), ("B", namespace["cold"]))},
            "lindblad")
        assert stack.rho.entries[j].tobytes() == point.rho.entries.tobytes()
        for r in "AB":
            assert stack.currents[r][j].tobytes() == \
                np.float64(point.currents[r]).tobytes()
    assert namespace["currents"] == namespace["point"].currents
