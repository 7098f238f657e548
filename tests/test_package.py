import ast
import inspect
from pathlib import Path

import zbsim
from zbsim import algebra, cli, dynamics, spectral, spectrum, wavepacket

MODULES = (algebra, spectrum, wavepacket, dynamics, spectral, cli)
README = Path(__file__).resolve().parent.parent / "README.md"


def test_package_reexports_exactly_the_public_api():
    declared = [name for mod in MODULES for name in getattr(mod, "__all__", ())]
    assert len(declared) == len(set(declared)), "a name is declared by two modules"
    exported = {name for name, value in vars(zbsim).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    assert exported == set(declared)
    # new public surface needs a deliberate edit of this bound
    assert len(declared) <= 38


def test_readme_library_example_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md: Library example", "exec"), {})
    report = ast.literal_eval(capsys.readouterr().out)
    assert [a["label"] for a in report["assignments"]] == ["omega_L", "omega_zb2"]
