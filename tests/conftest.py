import numpy as np
import pytest


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


@pytest.fixture
def constructions(monkeypatch):
    """Counts, by name, of the ``Subspace`` and ``Bracket`` constructions and
    the ``Bracket.normalized`` calls made while a test runs."""
    from collections import Counter

    from leibcrit.bracket import Bracket
    from leibcrit.linalg import Subspace

    counts = Counter()
    for owner, name, key in ((Subspace, "__post_init__", "Subspace"),
                             (Bracket, "__post_init__", "Bracket"),
                             (Bracket, "normalized", "normalized")):
        def counting(self, real=getattr(owner, name), key=key):
            counts[key] += 1
            return real(self)

        monkeypatch.setattr(owner, name, counting)
    return counts
