"""One-call scenario construction for tests, examples and benchmarks."""

from __future__ import annotations

from typing import Dict, List, Optional, Type, TypeVar

from repro.android.activity import Activity
from repro.android.device import AndroidDevice
from repro.apps.wifi.wifi_manager import WifiNetworkRegistry
from repro.radio.environment import RfidEnvironment
from repro.radio.timing import NO_DELAY, TransferTiming
from repro.tags.factory import make_tag
from repro.tags.tag import SimulatedTag

A = TypeVar("A", bound=Activity)


class Scenario:
    """An environment plus named phones plus a tag population.

    Tears everything down with :meth:`close`; usable as a context
    manager::

        with Scenario() as scenario:
            phone = scenario.add_phone("alice")
            ...
    """

    def __init__(
        self,
        timing: TransferTiming = NO_DELAY,
        default_link: Optional[object] = None,
        clock=None,
        spatial: bool = False,
        spatial_seed: int = 0,
        transport: Optional[object] = None,
    ) -> None:
        if spatial:
            from repro.radio.geometry import SpatialEnvironment

            self.env = SpatialEnvironment(
                clock=clock,
                timing=timing,
                default_link=default_link,
                seed=spatial_seed,
                transport=transport,
            )
        else:
            self.env = RfidEnvironment(
                clock=clock,
                timing=timing,
                default_link=default_link,
                transport=transport,
            )
        self.wifi_registry = WifiNetworkRegistry()
        self.phones: Dict[str, AndroidDevice] = {}
        self.tags: List[SimulatedTag] = []

    # -- population ---------------------------------------------------------------

    def add_phone(
        self,
        name: str,
        link: Optional[object] = None,
        tx_policy: Optional[object] = None,
        reactor_mode: str = "asyncio",
    ) -> AndroidDevice:
        """A phone named ``name`` in this scenario's environment.

        ``tx_policy`` is a :class:`~repro.radio.txscheduler.CrossTagPolicy`
        instance for the phone's radio scheduler (round-robin when
        ``None``). ``reactor_mode`` takes only ``"asyncio"``, the one
        reactor. It stays for ``perfbench/crowd_backlog.py``, which passes
        it, and goes with that argument in the next change to
        ``perfbench/``.
        """
        if reactor_mode != "asyncio":
            raise ValueError(
                f"unknown reactor mode {reactor_mode!r}; the only mode is 'asyncio'"
            )
        phone = AndroidDevice(name, self.env, link=link, tx_policy=tx_policy)
        self.phones[name] = phone
        return phone

    def add_phones(
        self,
        count: int,
        prefix: str = "phone",
        link: Optional[object] = None,
    ) -> List[AndroidDevice]:
        """``count`` phones named ``{prefix}-0000`` ... (crowd scenarios)."""
        return [
            self.add_phone(f"{prefix}-{index:04d}", link=link)
            for index in range(count)
        ]

    def add_tag(self, tag_type: str = "NTAG216", content=None, formatted: bool = True):
        tag = make_tag(tag_type, content=content, formatted=formatted)
        self.tags.append(tag)
        return tag

    def add_tags(
        self, count: int, tag_type: str = "NTAG216", formatted: bool = True
    ) -> List[SimulatedTag]:
        """``count`` blank tags at once (crowd scenarios)."""
        return [
            self.add_tag(tag_type=tag_type, formatted=formatted)
            for _ in range(count)
        ]

    def start(self, phone: AndroidDevice, activity_class: Type[A], *args, **kwargs) -> A:
        return phone.start_activity(activity_class, *args, **kwargs)

    # -- movement shorthand ------------------------------------------------------------

    def tap(self, tag: SimulatedTag, phone: AndroidDevice):
        """Context manager: tag in field for the duration of the block."""
        return self.env.tap(tag, phone.port)

    def put(self, tag: SimulatedTag, phone: AndroidDevice) -> None:
        self.env.move_tag_into_field(tag, phone.port)

    def take(self, tag: SimulatedTag, phone: AndroidDevice) -> None:
        self.env.remove_tag_from_field(tag, phone.port)

    def put_all(self, tags: List[SimulatedTag], phone: AndroidDevice) -> int:
        """Bring a whole cohort of tags into one phone's field at once."""
        return self.env.move_tags_into_field(tags, phone.port)

    def take_all(self, tags: List[SimulatedTag], phone: AndroidDevice) -> int:
        """Remove a whole cohort of tags from one phone's field at once."""
        return self.env.remove_tags_from_field(tags, phone.port)

    def pair(self, a: AndroidDevice, b: AndroidDevice) -> None:
        self.env.bring_together(a.port, b.port)

    def unpair(self, a: AndroidDevice, b: AndroidDevice) -> None:
        self.env.separate(a.port, b.port)

    # -- synchronization -----------------------------------------------------------------

    def sync_all(self, timeout: float = 5.0) -> bool:
        return all(phone.sync(timeout) for phone in self.phones.values())

    # -- teardown ----------------------------------------------------------------------------

    def close(self) -> None:
        for phone in self.phones.values():
            phone.shutdown()
        self.phones.clear()

    def __enter__(self) -> "Scenario":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
