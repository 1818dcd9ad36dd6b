"""Argument rules, one table for the package.

Configs, pipeline stages, generators and the model check each scalar here:
a real number against a RULES entry, a whole number with a least value, or
one of a tuple; checked_at_most adds an upper bound to the first two. A
failure reads "<name> must <rule>, got <value!r>", and no scalar rule takes
a bool. checked_array and check_width check arrays. This module imports
only numpy and the standard library, so every module can.
"""

from __future__ import annotations

import math

import numpy as np

_REALS = (int, float, np.integer, np.floating)  # not np.bool_; bool is an int
# a rule's words -> its predicate; comparisons are False for NaN
RULES = {
    "be finite": lambda v: -math.inf < v < math.inf,
    "be finite and > 0": lambda v: 0 < v < math.inf,
    "be finite and >= 0": lambda v: 0 <= v < math.inf,
    "not be NaN": lambda v: v == v,
    "lie in (0, 1)": lambda v: 0 < v < 1,
    "lie in (0, 1]": lambda v: 0 < v <= 1,
    "lie in [0, 1)": lambda v: 0 <= v < 1,
}


def checked_real(name: str, value, rule: str):
    """value, unchanged, if it is a real number that obeys RULES[rule]."""
    if isinstance(value, bool) or not isinstance(value, _REALS) \
            or not RULES[rule](value):
        raise ValueError(f"{name} must {rule}, got {value!r}")
    return value


def checked_whole(name: str, value, minimum: int) -> int:
    """value as an int, or a ValueError naming name unless it is a whole
    number >= minimum; digits count, so "16" and 16.0 give 16."""
    try:
        ok = (not isinstance(value, (bool, np.bool_))
              and int(value) == float(value) and int(value) >= minimum)
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        raise ValueError(f"{name} must be a whole number >= {minimum}, "
                         f"got {value!r}")
    return int(value)


def checked_at_most(name: str, value, most):
    """value, which has passed its other rule, or a ValueError naming name
    if it exceeds most."""
    if value > most:
        raise ValueError(f"{name} must be at most {most}, got {value!r}")
    return value


def checked_choice(name: str, value, choices: tuple):
    """value if it is one of choices, else a ValueError naming name."""
    if value not in choices:
        raise ValueError(f"{name} must be one of {choices}, got {value!r}")
    return value


def checked_array(path: str, value, ndim: int) -> np.ndarray:
    """value as a float64 array of rank ndim holding only finite entries.

    The error names path, the attribute the array is stored under.
    """
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim != ndim:
        raise ValueError(f"{path} must be {ndim}-D, got {arr.ndim}-D")
    if not np.isfinite(arr).all():
        raise ValueError(f"{path} holds non-finite values")
    return arr


def check_width(path: str, got: int, unit: str, want: int) -> None:
    """A ValueError naming path unless got == want."""
    if got != want:
        raise ValueError(f"{path} has {got} {unit}, expected {want}")
