"""Global switch between the fast kernels and the naive reference code.

The algebra operators and the subgraph machinery each exist twice: a
naive transcription of the paper's definitions (the semantic oracle) and
a hash/bitset fast path that must be bag-equal to it.  This module holds
the process-wide dispatch switch so the benchmark runner can reproduce
the naive baseline (``--naive``) and the property tests can compare the
two paths in one process.

The default is the fast path; set the environment variable
``REPRO_NAIVE_KERNELS=1`` (before import) or call
:func:`set_fast_kernels` / :func:`kernel_mode` to flip it.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

_enabled: bool = os.environ.get("REPRO_NAIVE_KERNELS", "").lower() not in (
    "1",
    "true",
    "yes",
)

#: Vectorized batch execution is opt-out: ``REPRO_BATCH=0`` falls back to
#: the row-at-a-time iterators.  Default on — the batch kernels are
#: bag-identical (indeed sequence-identical) to the row path, so the
#: faster representation is the default and the row path remains the
#: differential baseline (the ``engine`` conformance tier pins it off).
_batch: bool = os.environ.get("REPRO_BATCH", "").lower() not in (
    "0",
    "false",
    "no",
)

#: The cyclic fast path (sorted tries + Leapfrog Triejoin) is opt-out:
#: ``REPRO_WCOJ=0`` pins cyclic join cores to the binary-tree DP plans.
#: Default on — the optimizer only dispatches to the worst-case optimal
#: operator when the join core is genuinely cyclic (GYO fails), contains
#: no outerjoins, and the AGM fractional-cover bound beats the DP plan's
#: C_out estimate; the toggle exists so the conformance suite can prove
#: the DP fallback is byte-identical when the path is disabled.
_wcoj: bool = os.environ.get("REPRO_WCOJ", "").lower() not in (
    "0",
    "false",
    "no",
)


#: Rows per :class:`~repro.engine.batch.ColumnBatch` pulled from a scan or
#: produced by the row->batch shim.  Operators may emit larger batches
#: (a join's output batch follows its probe batch's match multiplicity).
_batch_size: int = 1024

#: Thread-local overrides pushed by :func:`batch_mode` & co.  Scoping the
#: *temporary* switch per thread lets one thread force a mode for its own
#: query without racing other threads' restores (the process-wide default
#: stays whatever the env / :func:`set_batch` said).
import threading as _threading

_batch_tls = _threading.local()
_wcoj_tls = _threading.local()


def fast_enabled() -> bool:
    """Is the fast-kernel dispatch currently on?"""
    return _enabled


def batch_enabled() -> bool:
    """Is vectorized columnar batch execution currently on?

    The innermost :func:`batch_mode` override on *this thread* wins;
    otherwise the process-wide default (``REPRO_BATCH``, default on)
    applies.
    """
    stack = getattr(_batch_tls, "stack", None)
    if stack:
        return stack[-1]
    return _batch


def set_batch(enabled: bool) -> bool:
    """Set the process-wide batch default; returns the previous one."""
    global _batch
    previous = _batch
    _batch = bool(enabled)
    return previous


@contextmanager
def batch_mode(enabled: bool):
    """Force batch execution on (True) or off (False) for this thread."""
    stack = getattr(_batch_tls, "stack", None)
    if stack is None:
        stack = _batch_tls.stack = []
    stack.append(bool(enabled))
    try:
        yield
    finally:
        stack.pop()


def wcoj_enabled() -> bool:
    """Is the cyclic Leapfrog-Triejoin fast path currently eligible?

    The innermost :func:`wcoj_mode` override on *this thread* wins;
    otherwise the process-wide default (``REPRO_WCOJ``, default on)
    applies.
    """
    stack = getattr(_wcoj_tls, "stack", None)
    if stack:
        return stack[-1]
    return _wcoj


def set_wcoj(enabled: bool) -> bool:
    """Set the process-wide WCOJ default; returns the previous one."""
    global _wcoj
    previous = _wcoj
    _wcoj = bool(enabled)
    return previous


@contextmanager
def wcoj_mode(enabled: bool):
    """Force the cyclic fast path on (True) or off (False) for this thread."""
    stack = getattr(_wcoj_tls, "stack", None)
    if stack is None:
        stack = _wcoj_tls.stack = []
    stack.append(bool(enabled))
    try:
        yield
    finally:
        stack.pop()


def batch_size() -> int:
    """The configured rows-per-batch (default 1024)."""
    return _batch_size


def set_batch_size(size: int) -> int:
    """Set the process-wide batch size; returns the previous one."""
    global _batch_size
    if size < 1:
        raise ValueError(f"batch size must be >= 1, got {size}")
    previous = _batch_size
    _batch_size = int(size)
    return previous


@contextmanager
def batch_sized(size: int):
    """Temporarily pin the batch size (tests and the conformance tier)."""
    previous = set_batch_size(size)
    try:
        yield
    finally:
        set_batch_size(previous)


def set_fast_kernels(enabled: bool) -> bool:
    """Turn the fast path on or off; returns the previous setting."""
    global _enabled
    previous = _enabled
    _enabled = bool(enabled)
    return previous


@contextmanager
def kernel_mode(enabled: bool):
    """Temporarily force the fast path on (True) or off (False)."""
    previous = set_fast_kernels(enabled)
    try:
        yield
    finally:
        set_fast_kernels(previous)
