"""Simulation and verification toolkit for one-dimensional spatial elections.

Plurality and instant-runoff tabulation with a continuum electorate on
[0, 1], exclusion-zone solvers for symmetric voter distributions, exact
three-candidate winner densities, stick-breaking/Gumbel asymptotics, and
seeded Monte Carlo experiment drivers with a CLI.

The exports are the submodules' `__all__` lists, resolved lazily: `import
irvsim` loads no numpy, and the first use of an exported name imports the
submodules. That lets the CLI module act before numpy loads (see cli.py).
"""

import importlib

# experiments records it in every manifest.
__version__ = "1.0.0"

# The package exports the `__all__` of each of these modules, first match wins.
_MODULES = ("asymptotics", "dist", "errors", "exactk3", "experiments", "tabulate", "zones")
# Submodules reachable as attributes, as `irvsim.zones`; each imports on first use.
_SUBMODULES = {*_MODULES, "chunks"}


def __getattr__(name):
    """Import submodule `name`; otherwise import every module in _MODULES and
    cache `__all__`, or the value of the first module that exports `name`."""
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    modules = [importlib.import_module(f".{m}", __name__) for m in _MODULES]
    if name == "__all__":
        value = [n for m in modules for n in m.__all__]
    else:
        owner = next((m for m in modules if name in m.__all__), None)
        if owner is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(owner, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__getattr__("__all__")))
