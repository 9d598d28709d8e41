"""Import footprint: the package and every CLI command, varcoef included,
run on the standard library alone; neither numpy, scipy nor click is
needed or loaded.  The subprocess checks run in a fresh interpreter."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _run(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                          capture_output=True, text=True, timeout=120)


def test_cli_import_loads_neither_numpy_nor_scipy():
    proc = _run("""
        import sys
        import odecascade.cli
        print(sorted(m for m in ("numpy", "scipy") if m in sys.modules))
    """)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_loads_no_click():
    proc = _run("""
        import runpy
        import sys

        import odecascade.cli
        assert "click" not in sys.modules, "import odecascade.cli loaded click"
        sys.argv = ["odecascade", "solve", "y'' + y = t"]
        runpy.run_module("odecascade.cli", run_name="__main__")
        print("click" in sys.modules)
    """)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "False"


def test_cli_import_loads_no_dataclasses_or_introspection():
    proc = _run("""
        import sys
        import odecascade.cli
        print(sorted(m for m in ("dataclasses", "inspect", "ast", "dis", "json")
                     if m in sys.modules))
    """)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_varcoef_runs_without_numpy_or_scipy():
    proc = _run("""
        import runpy
        import sys

        class Block:
            def find_spec(self, name, path=None, target=None):
                if name.partition(".")[0] in ("numpy", "scipy"):
                    raise ImportError(f"{name} is blocked")
                return None

        sys.meta_path.insert(0, Block())
        import odecascade
        assert callable(odecascade.solve_varcoef)
        sys.argv = ["odecascade", "varcoef", "1.0", "1", "exp(x^2/2)"]
        runpy.run_module("odecascade.cli", run_name="__main__")
    """)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "x,phi,y,stage1_residual,stage2_residual,fd_residual"
    assert len(lines) == 1 + 1001
    assert "max residuals" in proc.stderr


def test_varcoef_names_are_reexported():
    import odecascade
    from odecascade import varcoef

    for name in ("NumericSolution", "PowerCoefODE", "recognize_factorable",
                 "residual_varcoef", "solve_varcoef"):
        assert name in odecascade.__all__
        assert getattr(odecascade, name) is getattr(varcoef, name)
