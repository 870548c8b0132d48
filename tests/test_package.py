"""The package root re-exports each module's public names; modules share only those."""

import ast
import inspect
from pathlib import Path

import diffca
from diffca import eca, engine, expressions, fixtures, patterns, render

MODULES = (eca, engine, expressions, fixtures, patterns, render)


def test_the_root_exports_every_public_name_of_every_module():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(diffca, name) is getattr(module, name), (module.__name__, name)
    assert len(set(diffca.__all__)) == len(diffca.__all__)
    assert set(diffca.__all__) == {n for m in MODULES for n in m.__all__} | {"__version__"}


def test_no_module_imports_a_private_name_of_another():
    imported = []
    for path in sorted(Path(diffca.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level:  # from .x import _y
                names = [a.name for a in node.names if a.name.startswith("_")]
                imported += [(path.name, node.module, name) for name in names]
    assert imported == []


def test_every_renderer_defaults_its_spec_to_a_render_spec():
    # a None sentinel would bring back a `spec = spec or RenderSpec()` line in each renderer
    defaults = {}
    for name in render.__all__:
        obj = getattr(render, name)
        if inspect.isfunction(obj) and "spec" in (params := inspect.signature(obj).parameters):
            defaults[name] = params["spec"].default
    assert "render_pyramid" in defaults and "iter_compare" in defaults
    assert all(isinstance(d, render.RenderSpec) for d in defaults.values()), defaults
