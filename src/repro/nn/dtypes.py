"""The repository-wide floating-point dtype policy.

Every tensor the model stack creates — parameters, activations, scores —
is **float32** by default.  float32 halves memory traffic against
float64, doubles effective BLAS throughput on the dense matmuls that
dominate the encoder hot path, and (asserted by
``tests/eval/test_dtype_parity.py``) keeps metric rows within atol 1e-5
of a float64 reference pass.

This module is the single place the policy lives:

* :data:`DEFAULT_FLOAT` / :data:`WIDE_FLOAT` — the narrow production
  dtype and the wide reference dtype.
* :func:`default_float` — what constructors/initializers resolve a
  ``dtype=None`` argument to.
* :func:`float_precision` — a context manager that rebinds the default
  (``with float_precision("float64"): model = LogCL(...)`` builds a
  wide-reference model; used by the mixed-dtype parity tests).

``make lint`` greps ``repro/nn``, ``repro/graph`` and ``repro/core`` for
raw ``np.float64`` / bare ``astype(float)`` usages; this module is the
one allowlisted home for such constants, so any future widening is an
explicit, reviewed policy decision rather than an accidental upcast.
"""

from __future__ import annotations

import contextlib

import numpy as np

# The production dtype: every parameter, activation and score matrix.
DEFAULT_FLOAT = np.float32
# The wide reference dtype, used only by parity tests and debugging
# (``float_precision("float64")``); never the default anywhere.
WIDE_FLOAT = np.float64

_CURRENT = [DEFAULT_FLOAT]


def default_float():
    """The dtype a ``dtype=None`` tensor/initializer argument resolves to."""
    return _CURRENT[-1]


def resolve_dtype(dtype):
    """``dtype`` itself, or the policy default when ``dtype`` is None."""
    return default_float() if dtype is None else dtype


@contextlib.contextmanager
def float_precision(dtype):
    """Temporarily rebind the default float dtype.

    Accepts anything ``np.dtype`` accepts (``"float64"``, ``np.float32``).
    Affects only *construction-time* defaults — tensors already built
    keep their dtype — so wrap model construction, not individual ops.
    """
    resolved = np.dtype(dtype).type
    if not np.issubdtype(resolved, np.floating):
        raise TypeError(f"float_precision needs a float dtype, got {dtype!r}")
    _CURRENT.append(resolved)
    try:
        yield
    finally:
        _CURRENT.pop()
