"""Tests for the live runtime's outbound links and its run statistics.

A run keeps one connection and one writer task per *receiver*: frames from
every sender to that receiver share the link, and each frame names its
sender.  These tests pin that the shared link keeps every ordered pair's
frames in send order, and that the run's decide latency counts correct
processes only.
"""

from repro.runtime.asyncio_runtime import AsyncioRuntime
from repro.sim.process import Process
from repro.sim.synchrony import SynchronousModel

SENDERS = (1, 2, 3)
RECEIVER = 4
PER_SENDER = 200


class Counter(Process):
    def __init__(self, process_id, runtime):
        super().__init__(process_id, frozenset(), runtime=runtime)
        self.received = []
        self.on(tuple, lambda sender, payload: self.received.append((sender, payload)))


class TestSharedLink:
    def test_frames_keep_per_pair_order_over_one_connection(self):
        runtime = AsyncioRuntime(max_time=500.0, time_scale=0.01, synchrony=SynchronousModel())
        senders = [Counter(pid, runtime) for pid in SENDERS]
        receiver = Counter(RECEIVER, runtime)

        def burst(first, last):
            for index in range(first, last):
                for sender in senders:
                    sender.send(RECEIVER, (sender.process_id, index))

        def start():
            # Half goes out at once; the rest from timers, so the writer
            # task wakes more than once and its batches interleave senders.
            burst(0, PER_SENDER // 2)
            runtime.schedule(0.5, lambda: burst(PER_SENDER // 2, 3 * PER_SENDER // 4))
            runtime.schedule(1.0, lambda: burst(3 * PER_SENDER // 4, PER_SENDER))

        runtime.run(start, until=lambda: len(receiver.received) == len(SENDERS) * PER_SENDER)

        assert all(payload[0] == sender for sender, payload in receiver.received)
        for pid in SENDERS:
            got = [payload[1] for sender, payload in receiver.received if sender == pid]
            assert got == list(range(PER_SENDER)), f"sender {pid} out of order or lossy"
        assert runtime.stats.messages_lost == 0
        assert runtime.stats.messages_sent == runtime.stats.messages_received == 600
        assert runtime.stats.connections <= 1  # one receiver, one link

    def test_all_to_all_opens_at_most_one_connection_per_process(self):
        runtime = AsyncioRuntime(max_time=500.0, time_scale=0.01, synchrony=SynchronousModel())
        processes = [Counter(pid, runtime) for pid in range(1, 7)]
        expected = len(processes) * (len(processes) - 1) * 5

        def start():
            for index in range(5):
                for process in processes:
                    for other in processes:
                        if other is not process:
                            process.send(other.process_id, (process.process_id, index))

        runtime.run(start, until=lambda: sum(len(p.received) for p in processes) == expected)
        assert sum(len(p.received) for p in processes) == expected
        assert runtime.stats.connections <= len(processes)  # 30 ordered pairs, 6 links
        for process in processes:
            for pid in range(1, 7):
                got = [payload[1] for sender, payload in process.received if sender == pid]
                assert got == ([] if pid == process.process_id else list(range(5)))


class TestDecideLatency:
    def test_decide_wall_seconds_ignores_a_later_faulty_decision(self):
        runtime = AsyncioRuntime(max_time=50.0, time_scale=0.01, faulty=frozenset({2}))
        Counter(1, runtime)
        Counter(2, runtime)

        def start():
            runtime.trace.on_decision(1, "v", runtime.now)  # correct, decides first
            runtime.schedule(3.0, lambda: runtime.trace.on_decision(2, "w", runtime.now))

        runtime.run(start, until=lambda: 2 in runtime.trace.decisions)
        correct_at = runtime.trace.decisions[1][1]
        faulty_at = runtime.trace.decisions[2][1]
        assert faulty_at > correct_at
        assert runtime.stats.decide_wall_seconds == correct_at * runtime.time_scale

    def test_no_correct_decision_leaves_it_unset(self):
        runtime = AsyncioRuntime(max_time=50.0, time_scale=0.01, faulty=frozenset({2}))
        Counter(1, runtime)
        Counter(2, runtime)
        runtime.run(
            lambda: runtime.trace.on_decision(2, "w", runtime.now),
            until=lambda: 2 in runtime.trace.decisions,
        )
        assert runtime.stats.decide_wall_seconds is None
