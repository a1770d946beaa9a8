"""Soak tests: many tags, many references, churn, clean teardown."""

import threading

from repro.concurrent import EventLog
from repro.radio.link import LossyLink
from repro.tags.factory import make_tags

from tests.conftest import PlainNfcActivity, make_reference, text_message


class TestManyReferences:
    def test_twenty_tags_hundred_writes(self, scenario, phone, activity):
        """Every write lands on its own tag, across 20 live event loops."""
        tags = make_tags(20)
        for tag in tags:
            tag.write_ndef(text_message("seed"))
            scenario.put(tag, phone)
        references = [make_reference(activity, tag, phone) for tag in tags]
        done = EventLog()
        for round_number in range(5):
            for index, reference in enumerate(references):
                reference.write(
                    f"tag{index}-round{round_number}",
                    on_written=lambda r: done.append(1),
                    timeout=30.0,
                )
        assert done.wait_for_count(100, timeout=20)
        for index, tag in enumerate(tags):
            assert tag.read_ndef()[0].payload == f"tag{index}-round4".encode()

    def test_teardown_joins_every_loop_thread(self, scenario, phone, activity):
        """stop_all() retires every logical loop without leaking OS threads.

        References never own a thread: their loops are tasks on the
        device's shared reactor.
        """
        tags = make_tags(15)
        references = [make_reference(activity, tag, phone) for tag in tags]
        threads_before = threading.active_count()
        activity.reference_factory.stop_all()
        assert all(reference.is_stopped for reference in references)
        assert threading.active_count() <= threads_before

    def test_churn_with_lossy_link(self, scenario, phone, activity):
        """Tags cycling through a lossy field; queued work still drains."""
        phone.port.set_link(LossyLink(0.3, seed=17))
        tags = make_tags(5)
        references = [make_reference(activity, tag, phone) for tag in tags]
        done = EventLog()
        for index, reference in enumerate(references):
            reference.write(
                f"churn-{index}",
                on_written=lambda r: done.append(1),
                timeout=30.0,
            )
        # Cycle each tag in and out a few times; the writes land whenever
        # their tag happens to be present.
        import time

        for _ in range(6):
            for tag in tags:
                scenario.put(tag, phone)
            time.sleep(0.05)
            for tag in tags:
                scenario.take(tag, phone)
        for tag in tags:
            scenario.put(tag, phone)
        assert done.wait_for_count(5, timeout=20)
        for index, tag in enumerate(tags):
            assert tag.read_ndef()[0].payload == f"churn-{index}".encode()


class TestManyPhones:
    def test_five_phones_share_one_tag(self, scenario, activity):
        """Sequential exclusive access via taps; last writer wins."""
        from tests.conftest import PlainNfcActivity, text_tag

        tag = text_tag("start")
        phones = [scenario.add_phone(f"soak-{i}") for i in range(5)]
        activities = [
            scenario.start(phone, PlainNfcActivity) for phone in phones
        ]
        done = EventLog()
        for index, (phone, act) in enumerate(zip(phones, activities)):
            scenario.put(tag, phone)
            reference = make_reference(act, tag, phone)
            reference.write(
                f"phone-{index}",
                on_written=lambda r, i=index: done.append(i),
                timeout=10.0,
            )
            assert done.wait_for(lambda e, i=index: i in e, timeout=10)
            scenario.take(tag, phone)
        assert tag.read_ndef()[0].payload == b"phone-4"
        assert done.snapshot() == list(range(5))
