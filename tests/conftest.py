import numpy as np
import pytest


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


@pytest.fixture
def constructions(monkeypatch):
    """Counts, by name, of the ``Bracket`` constructions and the
    ``Bracket.normalized`` calls made while a test runs."""
    from collections import Counter

    from leibcrit.bracket import Bracket

    counts = Counter()
    for name, key in (("__post_init__", "Bracket"), ("normalized", "normalized")):
        def counting(self, real=getattr(Bracket, name), key=key):
            counts[key] += 1
            return real(self)

        monkeypatch.setattr(Bracket, name, counting)
    return counts
