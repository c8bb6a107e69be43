import random

import pytest

from hybridcast.errors import CrashedNodeError, SyncFailedError
from hybridcast.kernel import DelaySpec, Engine, NetworkModel, NodeClock, _mix


def collector(sink):
    def on_message(frm, kind, msg_id, payload):
        sink.append((frm, kind, msg_id, payload))
    return on_message


def make_engine(seed=1, **net_kwargs):
    return Engine(seed, NetworkModel(**net_kwargs))


class TestDelaySpec:
    def test_fixed(self):
        rng = random.Random(0)
        assert DelaySpec("fixed", value_us=500).sample(rng) == 500

    def test_minimum_is_one_microsecond(self):
        rng = random.Random(0)
        assert DelaySpec("fixed", value_us=0).sample(rng) == 1

    def test_uniform_within_bounds(self):
        rng = random.Random(3)
        spec = DelaySpec("uniform", low_us=10, high_us=20)
        for _ in range(200):
            assert 10 <= spec.sample(rng) <= 20

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            DelaySpec("weibull").sample(random.Random(0))


def test_shift_changes_active_spec():
    early = DelaySpec("fixed", value_us=10)
    late = DelaySpec("fixed", value_us=99)
    net = NetworkModel(delay=early, shifts=[(1000, late)])
    assert net.spec_at(999) is early
    assert net.spec_at(1000) is late


def test_mix_decorrelates_streams():
    assert _mix(1, 1) != _mix(1, 2)
    assert _mix(1, 1) != _mix(2, 1)
    assert _mix(1, 1) == _mix(1, 1)


def test_send_arrives_after_fixed_delay():
    eng = make_engine(delay=DelaySpec("fixed", value_us=100))
    got = []
    eng.add_node(0)
    eng.add_node(1, on_message=collector(got))
    eng.send(0, 1, "PING", "m0", "hello")
    eng.run_until(1_000)
    assert got == [(0, "PING", "m0", "hello")]
    assert list(eng.trace)[0].sim_time_us == 100


def test_fifo_link_prevents_overtaking():
    # second message draws a smaller delay but must not arrive first
    eng = make_engine(delay=DelaySpec("uniform", low_us=10, high_us=5000))
    got = []
    eng.add_node(0)
    eng.add_node(1, on_message=collector(got))
    for i in range(50):
        eng.send(0, 1, "SEQ", f"m{i}", i)
    eng.run_until(100_000)
    assert [p for _, _, _, p in got] == list(range(50))


def test_fifo_is_per_link():
    eng = make_engine(delay=DelaySpec("uniform", low_us=10, high_us=5000))
    got = []
    eng.add_node(0)
    eng.add_node(2)
    eng.add_node(1, on_message=collector(got))
    for i in range(100):
        eng.send(i % 2 * 2, 1, "SEQ", f"m{i}", i)
    eng.run_until(100_000)
    per_sender = {0: [], 2: []}
    for frm, _, _, payload in got:
        per_sender[frm].append(payload)
    assert per_sender[0] == sorted(per_sender[0])
    assert per_sender[2] == sorted(per_sender[2])


def test_timer_fire_and_cancel():
    eng = make_engine()
    fired = []
    eng.add_node(0, on_timer=lambda key, data: fired.append(key))
    eng.set_timer(0, 100, "keep")
    token = eng.set_timer(0, 50, "drop")
    eng.cancel_timer(token)
    eng.run_until(1_000)
    assert fired == ["keep"]


def test_crash_stops_timers_messages_and_sends():
    eng = make_engine(delay=DelaySpec("fixed", value_us=10))
    got = []
    eng.add_node(0)
    eng.add_node(1, on_message=collector(got),
                 on_timer=lambda key, data: got.append(key))
    eng.schedule_crash(1, 50)
    eng.set_timer(1, 100, "late-timer")
    eng.send(0, 1, "PING", "m0", None)  # arrives at 10, before the crash
    eng.run_until(45)
    eng.send(0, 1, "PING", "m1", None)  # lands at 55, after node 1 dies
    eng.run_until(10_000)
    assert [g for g in got if isinstance(g, tuple)] == [(0, "PING", "m0", None)]
    with pytest.raises(CrashedNodeError):
        eng.send(1, 0, "PING", "m2", None)
    with pytest.raises(CrashedNodeError):
        eng.read_clock(1)


def test_drop_traces_and_suppresses_arrival():
    eng = Engine(5, NetworkModel(delay=DelaySpec("fixed", value_us=10),
                                 drop_prob=1.0))
    got = []
    eng.add_node(0)
    eng.add_node(1, on_message=collector(got))
    eng.send(0, 1, "PING", "m0", None)
    eng.run_until(1_000)
    assert got == []
    assert [r.event_kind for r in eng.trace] == ["DROP"]


def test_equal_fire_times_processed_in_target_then_insertion_order():
    eng = make_engine(delay=DelaySpec("fixed", value_us=10))
    order = []
    for n in (0, 1, 2):
        eng.add_node(n, on_timer=lambda key, data, n=n: order.append((n, key)))
    eng.set_timer_at(2, 100, "a")
    eng.set_timer_at(0, 100, "b")
    eng.set_timer_at(2, 100, "c")
    eng.run_until(1_000)
    assert order == [(0, "b"), (2, "a"), (2, "c")]


class TestNodeClock:
    def test_offset_and_drift(self):
        clock = NodeClock(0, offset_us=500, drift_ppm=1000)
        # 1000 ppm over 1s is 1ms of extra elapsed time
        assert clock.read(1_000_000) == 1_000_000 + 500 + 1000

    def test_reference_reads_true_time(self):
        assert NodeClock(0).read(1234) == 1234


class TestClockSync:
    def test_sync_corrects_offset(self):
        eng = make_engine(delay=DelaySpec("fixed", value_us=100))
        eng.add_node(0)  # ideal reference
        eng.add_node(1, clock=NodeClock(1, offset_us=50_000))
        half = eng.sync_clock_probabilistic(1, 0, bound_us=200,
                                            max_attempts=3)
        assert half == 100
        # one fixed-delay round trip gives a perfect estimate
        assert eng.read_clock(1) == eng.read_clock(0)
        (sync,) = eng.trace.of_kind("SYNC")
        assert sync.detail_dict()["eps"] == "100"

    def test_sync_failure_is_traced_and_leaves_the_clock(self):
        eng = make_engine(delay=DelaySpec("fixed", value_us=1000))
        eng.add_node(0)
        eng.add_node(1, clock=NodeClock(1, offset_us=777))
        with pytest.raises(SyncFailedError):
            eng.sync_clock_probabilistic(1, 0, bound_us=10, max_attempts=4)
        assert eng.clocks[1] == NodeClock(1, offset_us=777)
        kinds = [r.event_kind for r in eng.trace]
        assert kinds == ["SYNC_FAIL"]

    def test_crashed_reference_is_a_failed_sync(self):
        eng = make_engine(delay=DelaySpec("fixed", value_us=100))
        eng.add_node(0)
        eng.add_node(1, clock=NodeClock(1, offset_us=777))
        eng.schedule_crash(0, 10)
        eng.run_until(20)
        with pytest.raises(SyncFailedError):
            eng.sync_clock_probabilistic(1, 0, bound_us=200, max_attempts=3)
        assert eng.clocks[1] == NodeClock(1, offset_us=777)  # untouched
        assert [r.event_kind for r in eng.trace] == ["CRASH", "SYNC_FAIL"]


def test_run_until_advances_now_even_when_idle():
    eng = make_engine()
    eng.run_until(5_000)
    assert eng.now == 5_000
