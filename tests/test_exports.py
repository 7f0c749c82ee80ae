import pytest

import harmonic_sc
from harmonic_sc import decomp, mc


@pytest.mark.parametrize("module", [harmonic_sc, decomp, mc], ids=lambda m: m.__name__)
def test_every_export_resolves(module):
    # A deletion that leaves its name in ``__all__`` breaks ``import *``.
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing
