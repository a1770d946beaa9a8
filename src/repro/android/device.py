"""One simulated phone: main looper + NFC adapter + activity stack.

``AndroidDevice`` is the top of the platform substrate. Tests and
examples create devices inside an :class:`~repro.radio.RfidEnvironment`,
start activities on them, and move tags/phones around::

    env = RfidEnvironment()
    phone = AndroidDevice("alice", env)
    activity = phone.start_activity(MyActivity)
    env.move_tag_into_field(tag, phone.port)
    phone.sync()          # wait for the main looper to drain

Lifecycle transitions execute on the main looper (as on Android) but
``start_activity`` / ``finish_activity`` block the caller until the
transition completed, which keeps test code linear.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Callable, List, Optional, Type, TypeVar

from repro.android.activity import Activity, ActivityState
from repro.android.looper import Looper
from repro.android.nfc.adapter import NfcAdapter
from repro.concurrent import EventLog, ResultBox
from repro.core.scheduler import Reactor
from repro.errors import LifecycleError
from repro.radio.environment import RfidEnvironment
from repro.radio.port import NfcAdapterPort

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.radio.txscheduler import PortTransactionScheduler

A = TypeVar("A", bound=Activity)


class AndroidDevice:
    """A named phone inside a radio environment."""

    def __init__(
        self,
        name: str,
        environment: RfidEnvironment,
        link: Optional[object] = None,
        tx_policy: object = None,
    ) -> None:
        self.name = name
        self._env = environment
        self._tx_policy = tx_policy  # a CrossTagPolicy, or None for round-robin
        self._port: NfcAdapterPort = environment.create_port(name, link=link)
        self._looper = Looper(name=f"{name}-main", clock=environment.clock)
        self._adapter = NfcAdapter(self, self._port)
        self._activities: List[Activity] = []  # back stack; last = foreground
        self._services: List[object] = []
        self._stack_lock = threading.Lock()
        self._reactor: Optional[Reactor] = None
        self._reactor_lock = threading.Lock()
        self._tx_scheduler: Optional[PortTransactionScheduler] = None
        self._tx_lock = threading.Lock()
        self.toasts = EventLog()

    # -- accessors -----------------------------------------------------------

    @property
    def environment(self) -> RfidEnvironment:
        return self._env

    @property
    def port(self) -> NfcAdapterPort:
        return self._port

    @property
    def main_looper(self) -> Looper:
        return self._looper

    @property
    def nfc_adapter(self) -> NfcAdapter:
        return self._adapter

    @property
    def reactor(self) -> Reactor:
        """The device's shared reference scheduler (created lazily).

        All tag references of all activities on this device multiplex
        their event loops onto this reactor's one ``asyncio`` loop
        thread; see :mod:`repro.core.scheduler`.
        """
        with self._reactor_lock:
            if self._reactor is None:
                self._reactor = Reactor(
                    clock=self._env.clock, name=f"{self.name}-reactor"
                )
            return self._reactor

    @property
    def tx_scheduler(self) -> PortTransactionScheduler:
        """The device's per-port radio transaction scheduler (lazy).

        Every tag reference registers here; on each tap window the
        scheduler serves their ready head operations through one
        connected session per tag visit instead of paying the full
        connect/anticollision cost per operation, sharing radio time
        across co-present tags under the device's ``tx_policy``. See
        :mod:`repro.radio.txscheduler`.
        """
        # Imported here: repro.radio imports repro.core, which imports
        # this module, so a module-level import breaks `import repro.radio`.
        from repro.radio.txscheduler import PortTransactionScheduler

        reactor = self.reactor  # outside _tx_lock: both locks are plain
        with self._tx_lock:
            if self._tx_scheduler is None:
                self._tx_scheduler = PortTransactionScheduler(
                    self._port, reactor, self._env.clock, policy=self._tx_policy
                )
            return self._tx_scheduler

    @property
    def foreground_activity(self) -> Optional[Activity]:
        with self._stack_lock:
            return self._activities[-1] if self._activities else None

    def __repr__(self) -> str:
        return f"AndroidDevice({self.name!r})"

    # -- toasts ---------------------------------------------------------------

    def toast(self, text: str) -> None:
        self.toasts.append(text)

    # -- activity management -----------------------------------------------------

    def start_activity(self, activity_class: Type[A], *args, **kwargs) -> A:
        """Create, start and resume an activity; pauses the previous one.

        Blocks until the new activity is resumed on the main looper.
        """
        box: ResultBox = ResultBox()

        def launch() -> None:
            try:
                previous = self.foreground_activity
                if previous is not None and previous.state == ActivityState.RESUMED:
                    previous._transition(ActivityState.PAUSED)
                activity = activity_class(self, *args, **kwargs)
                activity._transition(ActivityState.CREATED)
                activity._transition(ActivityState.STARTED)
                activity._transition(ActivityState.RESUMED)
                if previous is not None and previous.state == ActivityState.PAUSED:
                    previous._transition(ActivityState.STOPPED)
                with self._stack_lock:
                    self._activities.append(activity)
                box.put(activity)
            except BaseException as exc:  # noqa: BLE001 - handed to caller
                box.put(exc)

        self._run_on_main(launch)
        result = box.get(timeout=10.0)
        if isinstance(result, BaseException):
            raise result
        return result

    def finish_activity(self, activity: Optional[Activity] = None) -> None:
        """Destroy the given (default: foreground) activity.

        The previous activity on the back stack, if any, is resumed.
        """
        box: ResultBox = ResultBox()

        def finish() -> None:
            try:
                with self._stack_lock:
                    target = activity or (
                        self._activities[-1] if self._activities else None
                    )
                    if target is None or target not in self._activities:
                        raise LifecycleError("activity is not on this device's stack")
                    was_foreground = target is self._activities[-1]
                    self._activities.remove(target)
                    revealed = (
                        self._activities[-1]
                        if was_foreground and self._activities
                        else None
                    )
                if target.state == ActivityState.RESUMED:
                    target._transition(ActivityState.PAUSED)
                if target.state == ActivityState.PAUSED:
                    target._transition(ActivityState.STOPPED)
                target._transition(ActivityState.DESTROYED)
                if revealed is not None:
                    if revealed.state == ActivityState.STOPPED:
                        revealed._transition(ActivityState.STARTED)
                    if revealed.state in (
                        ActivityState.STARTED,
                        ActivityState.PAUSED,
                    ):
                        revealed._transition(ActivityState.RESUMED)
                box.put(True)
            except BaseException as exc:  # noqa: BLE001 - handed to caller
                box.put(exc)

        self._run_on_main(finish)
        result = box.get(timeout=10.0)
        if isinstance(result, BaseException):
            raise result

    # -- services ---------------------------------------------------------------------

    def start_service(self, service_class, *args, argument=None, **kwargs):
        """Create a background service and deliver one start command.

        Blocks until ``on_create`` and ``on_start_command`` ran on the
        main looper; returns the service instance.
        """
        box: ResultBox = ResultBox()

        def launch() -> None:
            try:
                service = service_class(self, *args, **kwargs)
                service._create()
                service._start_command(argument)
                with self._stack_lock:
                    self._services.append(service)
                box.put(service)
            except BaseException as exc:  # noqa: BLE001 - handed to caller
                box.put(exc)

        self._run_on_main(launch)
        result = box.get(timeout=10.0)
        if isinstance(result, BaseException):
            raise result
        return result

    def stop_service(self, service) -> None:
        """Destroy a running service on the main looper."""
        box: ResultBox = ResultBox()

        def stop() -> None:
            try:
                with self._stack_lock:
                    if service in self._services:
                        self._services.remove(service)
                service._destroy()
                box.put(True)
            except BaseException as exc:  # noqa: BLE001 - handed to caller
                box.put(exc)

        self._run_on_main(stop)
        result = box.get(timeout=10.0)
        if isinstance(result, BaseException):
            raise result

    @property
    def running_services(self):
        with self._stack_lock:
            return list(self._services)

    # -- synchronization ------------------------------------------------------------

    def sync(self, timeout: float = 5.0) -> bool:
        """Wait until the main looper has run everything posted so far."""
        return self._looper.sync(timeout)

    def wait_idle(self, timeout: float = 5.0) -> bool:
        return self._looper.wait_idle(timeout)

    def shutdown(self) -> None:
        """Destroy all activities and services, detach the NFC adapter,
        then stop the main looper."""
        for service in self.running_services:
            self.stop_service(service)
        while self.foreground_activity is not None:
            self.finish_activity()
        with self._tx_lock:
            tx_scheduler = self._tx_scheduler
        if tx_scheduler is not None:
            tx_scheduler.close()
        with self._reactor_lock:
            reactor = self._reactor
        if reactor is not None:
            reactor.stop()
        self._adapter.close()
        self._looper.quit()

    # -- internals ----------------------------------------------------------------------

    def _run_on_main(self, runnable: Callable[[], None]) -> None:
        if self._looper.is_current_thread:
            runnable()
        else:
            self._looper.post(runnable)
