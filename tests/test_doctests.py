import doctest
import importlib
import pkgutil

import tunnelmeet


def test_src_doctests_pass():
    attempted = 0
    for info in pkgutil.iter_modules(tunnelmeet.__path__):
        module = importlib.import_module(f"tunnelmeet.{info.name}")
        result = doctest.testmod(module, verbose=False)
        assert result.failed == 0, info.name
        attempted += result.attempted
    assert attempted >= 3
