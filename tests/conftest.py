import numpy as np
import pytest


@pytest.fixture
def solver_calls(monkeypatch):
    """Record every call of the two Hermitian eigensolvers, ``np.linalg.eigh``
    and ``np.linalg.eigvalsh``, as ``(name, shape of the argument)``, in
    call order."""
    calls = []
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)

        def recorded(a, *args, _name=name, _original=original, **kwargs):
            calls.append((_name, np.shape(a)))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recorded)
    return calls
