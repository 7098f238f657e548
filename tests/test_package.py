import inspect

import zbsim
from zbsim import algebra, cli, dynamics, spectral, spectrum, wavepacket

MODULES = (algebra, spectrum, wavepacket, dynamics, spectral, cli)


def test_package_reexports_exactly_the_public_api():
    declared = [name for mod in MODULES for name in getattr(mod, "__all__", ())]
    assert len(declared) == len(set(declared)), "a name is declared by two modules"
    exported = {name for name, value in vars(zbsim).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    assert exported == set(declared)
