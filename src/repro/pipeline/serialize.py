"""JSON-safe conversion of arbitrary result objects.

Pipeline artifacts must survive a ``json.dumps``/``json.loads`` round
trip unchanged, so everything recorded in a
:class:`~repro.pipeline.result.StudyResult` is converted to plain
Python containers *at creation time* via :func:`to_jsonable`.  The same
helper backs the CLI's ``--json`` flag, where it has to digest the
legacy experiment result dataclasses (which carry numpy arrays, nested
dataclasses and tuples).
"""

from __future__ import annotations

import dataclasses
from typing import Any

import numpy as np


def to_jsonable(value: Any) -> Any:
    """Convert ``value`` to JSON-serialisable plain Python containers.

    Handles dataclasses (recursively, by field), numpy scalars and
    arrays, mappings, and iterables; tuples and sets become lists.
    Objects providing a ``to_dict`` method are serialised through it.
    Anything else falls back to ``str`` so the output never fails to
    serialise.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        if value.dtype.kind in "biuf":
            # tolist() already yields plain bools, ints and floats
            return value.tolist()
        return [to_jsonable(item) for item in value.tolist()]
    to_dict = getattr(value, "to_dict", None)
    if callable(to_dict):
        return to_jsonable(to_dict())
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: to_jsonable(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {str(key): to_jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [to_jsonable(item) for item in value]
    return str(value)


__all__ = ["to_jsonable"]
