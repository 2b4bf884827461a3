"""Public-surface parity of the package namespaces.

``repro``, ``repro.emsignal`` and ``repro.sim`` resolve their exports
lazily (PEP 562), ``repro.core`` eagerly.  Either way, once every
submodule has been imported, each name in ``__all__`` must be the very
object its defining module holds: never a submodule that happens to
share the name, never a stale copy.
"""

import importlib
import pkgutil
import types

import pytest

PACKAGES = ("repro", "repro.core", "repro.emsignal", "repro.sim")


def import_submodules(package: types.ModuleType) -> None:
    for info in pkgutil.walk_packages(package.__path__, package.__name__ + "."):
        if not info.name.endswith(".__main__"):  # runs the CLI on import
            importlib.import_module(info.name)


def defining_module(package: types.ModuleType, name: str, value: object) -> str:
    """Module that binds ``name`` first: a function's or class's own
    module, a lazy export's listed submodule, else the package itself."""
    home = getattr(value, "__module__", None)
    if isinstance(home, str):
        return home
    lazy = getattr(package, "_EXPORTS", {})
    return f"{package.__name__}.{lazy[name]}" if name in lazy else package.__name__


@pytest.mark.parametrize("package_name", PACKAGES)
def test_every_export_is_its_defining_modules_object(package_name):
    package = importlib.import_module(package_name)
    import_submodules(package)
    assert package.__all__, package_name
    for name in package.__all__:
        value = getattr(package, name)
        assert not isinstance(value, types.ModuleType), f"{package_name}.{name}"
        home = importlib.import_module(defining_module(package, name, value))
        assert getattr(home, name) is value, f"{package_name}.{name}"


@pytest.mark.parametrize("package_name", PACKAGES)
def test_dir_lists_every_export(package_name):
    package = importlib.import_module(package_name)
    assert set(package.__all__) <= set(dir(package))


@pytest.mark.parametrize("package_name", ["repro", "repro.emsignal", "repro.sim"])
def test_unknown_name_raises_attribute_error(package_name):
    package = importlib.import_module(package_name)
    with pytest.raises(AttributeError, match="no_such_export"):
        package.no_such_export


def test_core_normalize_is_the_function_not_the_submodule():
    import repro.core.normalize  # noqa: F401  (binds the submodule first)
    from repro.core import normalize
    from repro.core.normalize import normalize as defined

    assert normalize is defined
    assert callable(normalize) and not isinstance(normalize, types.ModuleType)
