"""Import-path guard: `import ncx2diff` must not load sympy, scipy.stats or
scipy.integrate, which cost over a second of start-up between them and which
no evaluator needs (scipy.stats is imported only inside
sampling.ks_two_sample, scipy.integrate only inside the CF-inversion oracle
and the Stein quadrature)."""

import json
import subprocess
import sys
from pathlib import Path

import ncx2diff


def test_import_loads_neither_sympy_nor_scipy_stats():
    src = str(Path(ncx2diff.__file__).resolve().parent.parent)
    code = (f"import sys; sys.path.insert(0, {src!r}); import json, ncx2diff; "
            "print(json.dumps(sorted(m for m in ('sympy', 'scipy.stats', 'scipy.integrate') "
            "if m in sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120).stdout
    assert json.loads(out) == []


def test_benchmark_tracer_finds_every_name():
    """The benchmark's traced mode wraps program attributes by name
    (perfbench/run.py install_tracing); a renamed or deleted one fails here
    rather than in a traced benchmark run."""
    root = Path(ncx2diff.__file__).resolve().parent.parent.parent
    code = (f"import sys; sys.path[:0] = [{str(root / 'perfbench')!r}, "
            f"{str(root / 'src')!r}]; import run, tracing; "
            "t = tracing.Tracer(); run.install_tracing(t); t.uninstall()")
    subprocess.run([sys.executable, "-c", code], cwd=root, check=True,
                   timeout=120)
