"""The package's public surface: each layer's ``__all__``, re-exported whole."""

import collections

import specdamp as sd
from specdamp import conditions, krein, linalg, model, semigroup, spectrum


def test_all_reexports_every_layer():
    repeated = [name for name, count in collections.Counter(sd.__all__).items() if count > 1]
    assert repeated == []
    assert [name for name in sd.__all__ if not hasattr(sd, name)] == []
    for layer in (model, spectrum, krein, conditions, semigroup):
        missing = [name for name in layer.__all__ if name not in sd.__all__]
        assert missing == [], layer.__name__
        assert all(getattr(sd, name) is getattr(layer, name) for name in layer.__all__)
    for name in ("LinalgError", "NoConvergence", "NotPositiveDefinite", "Singular"):
        assert name in sd.__all__ and getattr(sd, name) is getattr(linalg, name)
    assert "riesz_basis_condition_number" in sd.__all__
