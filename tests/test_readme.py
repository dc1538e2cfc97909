"""The README's library examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run_in_order():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(),
                        flags=re.DOTALL | re.MULTILINE)
    assert len(blocks) == 3
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["stack"].rho.entries.shape == (3, 4, 4)
    assert namespace["columns"].rho.entries.tobytes() == \
        namespace["stack"].rho.entries.tobytes()
    assert namespace["currents"] == namespace["point"].currents
