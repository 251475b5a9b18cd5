import collections
import functools
import pathlib
import sys

import pytest

from balancenets import dynamics, network, potential

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


@pytest.fixture
def fixtures_dir() -> pathlib.Path:
    return FIXTURES


@pytest.fixture
def derivation_calls(monkeypatch) -> collections.Counter:
    """Calls of the functions that derive the star marking, A1, A2 and the
    core set, counted through every balancenets module that binds them, as
    callers inside the package resolve them through their own globals."""
    calls = collections.Counter({name: 0 for name in _DERIVATIONS})

    def counted(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] != "balancenets":
            continue
        for name, fn in _DERIVATIONS.items():
            if getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, counted(name, fn))
    return calls


_DERIVATIONS = {
    "star_marking": network.star_marking,
    "check_A1": potential.check_A1,
    "check_A2": potential.check_A2,
    "core_set": dynamics.core_set,
}
