"""Import-path guard: `import ncx2diff` must not load sympy or scipy.stats,
which cost about a second of start-up between them and which no evaluator
needs (scipy.stats is imported only inside sampling.ks_two_sample)."""

import json
import subprocess
import sys
from pathlib import Path

import ncx2diff


def test_import_loads_neither_sympy_nor_scipy_stats():
    src = str(Path(ncx2diff.__file__).resolve().parent.parent)
    code = (f"import sys; sys.path.insert(0, {src!r}); import json, ncx2diff; "
            "print(json.dumps(sorted(m for m in ('sympy', 'scipy.stats') "
            "if m in sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120).stdout
    assert json.loads(out) == []
