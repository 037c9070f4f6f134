"""Canonical content digest shared by the bit-identity tests.

``_fingerprint`` hashes nested dataclasses, dicts (in ``repr``-sorted
key order), lists/tuples and NumPy arrays (dtype, shape and raw bytes)
into one SHA-256 hex digest, so two runs compare equal exactly when
every value they produced is identical.  The pinned digests in
``tests/test_fattree_golden.py`` depend on this byte layout.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Any

import numpy as np


def _fingerprint(value: Any) -> str:
    """Canonical content digest for serial-vs-parallel equality checks."""
    h = hashlib.sha256()
    _feed(h, value)
    return h.hexdigest()


def _feed(h, value: Any) -> None:
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        _feed(h, dataclasses.asdict(value))
    elif isinstance(value, dict):
        for k in sorted(value, key=repr):
            h.update(repr(k).encode())
            _feed(h, value[k])
    elif isinstance(value, (list, tuple)):
        h.update(b"[")
        for v in value:
            _feed(h, v)
        h.update(b"]")
    elif isinstance(value, np.ndarray):
        h.update(str(value.dtype).encode())
        h.update(repr(value.shape).encode())
        h.update(np.ascontiguousarray(value).tobytes())
    else:
        h.update(repr(value).encode())
