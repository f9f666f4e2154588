"""numpy, bound on first use.

`np` is the numpy module; its import runs when an attribute of it is first
read, not when this package is imported. The exact routes (the clique
formula, the cycle and bipartite sets) and the deterministic generators
read none, so a process that runs only them never imports numpy; the
numeric routes and the whole-text edge-list parser import it at their
first numpy call. A process that imported numpy already gets that module.

The binding goes through `importlib.util.LazyLoader`, whose first-use load
takes no lock on Python 3.11: two threads that first touch numpy at the
same moment can both run its import. This library is single-threaded;
a threaded caller imports numpy itself first.
"""

import importlib.util
import sys


def _lazy(name):
    """sys.modules[name] if it is there, else a module that runs its import
    at the first attribute read."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


np = _lazy("numpy")
