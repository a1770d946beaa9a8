"""Coroutine adapters over the lease protocol's listener interface.

The protocol itself — guarded reads, renewal merging, drift bounds —
lives entirely in :class:`~repro.leasing.manager.LeaseManager` and is
untouched here; these functions only change the completion style, the
same way :mod:`repro.core.aio` wraps tag operations. They work from
the reactor's loop and from any other event loop.

::

    lease = await acquire(manager, duration=30.0)
    ...
    await renew(manager, duration=30.0)
    await release(manager)
"""

from __future__ import annotations

from typing import Optional

from repro.core.futures import OperationFuture
from repro.errors import LeaseError
from repro.leasing.lease import Lease
from repro.leasing.manager import LeaseManager


class LeaseDeniedError(LeaseError):
    """The lease step completed as denied/failed (tag held, radio loss)."""


def _denial(step: str) -> LeaseDeniedError:
    return LeaseDeniedError(f"lease {step} denied or failed")


async def acquire(
    manager: LeaseManager, duration: float, timeout: Optional[float] = None
) -> Lease:
    """``await acquire(manager, 30.0)`` — the obtained :class:`Lease`.

    Raises :class:`LeaseDeniedError` when another device holds a live
    lease or the radio round fails — the coroutine face of
    ``on_denied``.
    """
    future = OperationFuture()
    manager.acquire(
        duration,
        on_acquired=lambda lease: future._succeed(lease),  # noqa: SLF001
        on_denied=lambda: future._fail(_denial("acquire")),  # noqa: SLF001
        timeout=timeout,
    )
    return await future


async def renew(
    manager: LeaseManager, duration: float, timeout: Optional[float] = None
) -> Lease:
    """``await renew(manager, 30.0)`` — the extended :class:`Lease`."""
    future = OperationFuture()
    manager.renew(
        duration,
        on_renewed=lambda lease: future._succeed(lease),  # noqa: SLF001
        on_failed=lambda: future._fail(_denial("renew")),  # noqa: SLF001
        timeout=timeout,
    )
    return await future


async def release(manager: LeaseManager, timeout: Optional[float] = None) -> None:
    """``await release(manager)`` — resolves once the record is removed."""
    future = OperationFuture()
    manager.release(
        on_released=lambda: future._succeed(None),  # noqa: SLF001
        on_failed=lambda: future._fail(_denial("release")),  # noqa: SLF001
        timeout=timeout,
    )
    await future
