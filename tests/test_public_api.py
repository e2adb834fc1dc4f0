"""The public surface, pinned: every name a ``repro`` package exports, and
every value a config object lets a caller set.

``tests/public_api.txt`` lists ``<module>.<name>`` for each entry of the
``__all__`` of ``repro``, of every package under it, and of the
``repro.faults`` umbrella, and ``<module>.<Class>(<value>)`` for each field
of the config dataclasses in :data:`SETTABLE` (for a plain class, each
constructor parameter), one a line, sorted.  A change that adds or removes
a public name or a settable value shows up as a diff of that file.  After
such a change,
``PYTHONPATH=src python tests/test_public_api.py > tests/public_api.txt``
rewrites it.
"""

import dataclasses
import importlib
import inspect
import pathlib

import repro

PIN = pathlib.Path(__file__).with_name("public_api.txt")

#: Public modules that are not packages but re-export a subsystem's API.
UMBRELLA_MODULES = ("repro.faults",)

#: The config surfaces whose settable values are pinned, as (module, class).
SETTABLE = (
    ("repro.core.atot", "GaConfig"),
    ("repro.core.runtime", "FaultPolicy"),
    ("repro.core.runtime", "RuntimeConfig"),
    ("repro.mpi", "HeartbeatConfig"),
    ("repro.mpi.adaptive", "RttEstimator"),
)


def public_modules():
    root = pathlib.Path(repro.__file__).parent
    packages = sorted(
        ".".join(("repro",) + init.parent.relative_to(root).parts)
        for init in root.rglob("__init__.py")
    )
    return packages + list(UMBRELLA_MODULES)


def public_api():
    names = []
    for module_name in public_modules():
        module = importlib.import_module(module_name)
        names.extend(f"{module_name}.{name}" for name in getattr(module, "__all__", ()))
    return sorted(names)


def settable_values():
    values = []
    for module_name, class_name in SETTABLE:
        cls = getattr(importlib.import_module(module_name), class_name)
        if dataclasses.is_dataclass(cls):
            names = [f.name for f in dataclasses.fields(cls)]
        else:
            names = list(inspect.signature(cls).parameters)
        values.extend(f"{module_name}.{class_name}({name})" for name in names)
    return sorted(values)


def _pinned(settable):
    return [entry for entry in PIN.read_text().split() if ("(" in entry) == settable]


def test_public_api_matches_the_pin():
    pinned = _pinned(settable=False)
    live = public_api()
    added = sorted(set(live) - set(pinned))
    removed = sorted(set(pinned) - set(live))
    assert not added and not removed, (
        f"public names added: {added}; removed: {removed}; if this is meant, "
        f"rewrite {PIN.name} (see this module's docstring)")
    assert live == pinned, "duplicate public names"


def test_settable_values_match_the_pin():
    pinned = _pinned(settable=True)
    live = settable_values()
    assert live == pinned, (
        f"settable values added: {sorted(set(live) - set(pinned))}; removed: "
        f"{sorted(set(pinned) - set(live))}; if this is meant, rewrite "
        f"{PIN.name} (see this module's docstring)")


def test_every_exported_name_exists():
    for module_name in public_modules():
        module = importlib.import_module(module_name)
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, f"{module_name}.__all__ names missing attributes: {missing}"


if __name__ == "__main__":
    print("\n".join(sorted(public_api() + settable_values())))
