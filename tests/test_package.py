"""The package root re-exports each module's public names."""

import diffca
from diffca import eca, engine, expressions, fixtures, patterns, render

MODULES = (eca, engine, expressions, fixtures, patterns, render)


def test_the_root_exports_every_public_name_of_every_module():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(diffca, name) is getattr(module, name), (module.__name__, name)
    assert len(set(diffca.__all__)) == len(diffca.__all__)
    assert set(diffca.__all__) == {n for m in MODULES for n in m.__all__} | {"__version__"}
