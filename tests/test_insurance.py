import math
import tracemalloc

import pytest

from hybridcast import gmd, insurance
from hybridcast.config import ScenarioConfig, config_from_dict
from hybridcast.delays import compute_D
from hybridcast.gmd import msg_id_str
from hybridcast.harness import run_scenario
from hybridcast.insurance import (
    DEADLINE_PATH,
    GMD_PATH,
    InsuranceAck,
    InsuranceMessage,
    MODE_GMD_ONLY,
    MODE_HYBRID,
    MODE_ON_SUSPICION,
    InsuranceNode,
)
from hybridcast.kernel import DelaySpec, Engine, NetworkModel
from hybridcast.runtime import AbcastRuntime
from test_digests import SCENARIOS


def build_cluster(n=4, mode=MODE_HYBRID, delay_us=1000, seed=1, **params):
    eng = Engine(seed, NetworkModel(DelaySpec("fixed", value_us=delay_us)))
    members = list(range(n))
    cfg = ScenarioConfig(seed, 1, mode=mode, **params)
    nodes = {}
    for i in members:
        node = InsuranceNode(eng, i, members, cfg)
        nodes[i] = node
        eng.add_node(i, on_message=node.on_message, on_timer=node.on_timer)
    return eng, nodes


def delivered(node):
    return list(node.gmd.delivered)


def test_two_copies_go_out_eta_apart():
    eng, nodes = build_cluster(n=3, eta_us=2000)
    nodes[0].broadcast("x")
    eng.run_until(100_000)
    sends = [r for r in eng.trace if r.event_kind == "INS_MSG"]
    copies = sorted({(r.detail_dict()["copy"], r.sim_time_us) for r in sends})
    assert {c for c, _ in copies} == {"1", "2"}
    t1 = min(t for c, t in copies if c == "1")
    t2 = min(t for c, t in copies if c == "2")
    assert t2 - t1 == 2000
    # a live sender's own copy 2 names no relayer
    assert not any("relay" in r.detail_dict() for r in sends)


def test_crash_free_broadcast_uses_gmd_path():
    eng, nodes = build_cluster()
    mid = nodes[1].broadcast("payload")
    eng.run_until(200_000)
    paths = {(r.node, r.msg_id): r.fields["path"]
             for r in eng.trace.of_kind("DELIVER")}
    for node_id, node in nodes.items():
        assert delivered(node) == [mid]
        assert paths[(node_id, msg_id_str(mid))] == GMD_PATH


def test_sender_crash_delivers_by_deadline():
    eng, nodes = build_cluster(n=4, delay_us=1000, eta_us=2000, theta_us=1000,
                               epsilon_us=100, default_d_us=5000)
    mid = nodes[0].broadcast("doomed")
    eng.schedule_crash(0, 1)  # dies right after the send
    eng.run_until(2_000_000)
    # survivors must deliver despite never completing the all-ack round
    for i in (1, 2, 3):
        assert delivered(nodes[i]) == [mid], f"node {i} never delivered"

    # deadline respects ts + D + eps on the local clock
    for rec in eng.trace.of_kind("DELIVER"):
        d = rec.detail_dict()
        if d["path"] == DEADLINE_PATH:
            assert int(d["clk"]) >= int(d["dl"])
            assert int(d["dl"]) > int(d["ts"])


def test_gmd_only_blocks_on_sender_crash():
    eng, nodes = build_cluster(n=4, mode=MODE_GMD_ONLY)
    eng.schedule_crash(0, 1)
    eng.run_until(10)
    mid = nodes[1].broadcast("stuck: the dead member can never ack")
    eng.run_until(30_000_000)
    for i in (1, 2, 3):
        assert delivered(nodes[i]) == []
    # the view change is what unblocks delivery
    for i in (1, 2, 3):
        nodes[i].on_new_view(0)
    for i in (1, 2, 3):
        assert delivered(nodes[i]) == [mid]


def test_relay_covers_sender_that_died_between_copies():
    # drop nothing, but crash the sender before its second copy
    eng, nodes = build_cluster(n=4, eta_us=2000, theta_us=1000)
    nodes[0].broadcast("half sent")
    eng.schedule_crash(0, 1000)  # after copy 1 leaves, before copy 2
    eng.run_until(5_000_000)
    relays = [r for r in eng.trace.of_kind("INS_RELAY")]
    assert relays, "some survivor should have relayed on the sender's behalf"
    for i in (1, 2, 3):
        assert len(delivered(nodes[i])) == 1


def test_relay_is_suppressed_when_another_relay_arrives():
    # stagger theta must exceed the link delay for suppression to win
    eng, nodes = build_cluster(n=4, eta_us=2000, theta_us=2000)
    nodes[0].broadcast("x")
    eng.schedule_crash(0, 1000)
    eng.run_until(5_000_000)
    relayers = {r.detail_dict()["relay"] for r in eng.trace.of_kind("INS_RELAY")}
    # staggered timeouts: the first-ranked survivor relays, the rest stand down
    assert len(relayers) == 1


def record_sends(eng):
    """(time, sender, kind) of every send; the cluster's clocks are exact."""
    sent = []
    send = eng.send

    def recording_send(frm, to, kind, *rest):
        sent.append((eng.now, frm, kind))
        send(frm, to, kind, *rest)

    eng.send = recording_send
    return sent


ANCHOR = dict(n=4, delay_us=1000, eta_us=2000, theta_us=1000, epsilon_us=100,
              default_d_us=5000)


def relay_window_end(nodes, mid):
    """ts + d_i + eta + theta: when the rank-0 relayer may give up on copy 2."""
    held, p = nodes[0].store[mid], nodes[0].cfg
    return held.ts + held.d_i + p.eta_us + p.theta_us


def crash_after_copy1():
    eng, nodes = build_cluster(**ANCHOR)
    sent = record_sends(eng)
    mid = nodes[0].broadcast("half sent")
    eng.schedule_crash(0, 1)  # copy 1 left at 0 and lands at 1000
    eng.run_until(2_000_000)
    relays = [(t, frm) for t, frm, kind in sent if kind == "INS_RELAY"]
    return eng, nodes, mid, relays


def test_early_copy1_relays_no_sooner_than_window_from_broadcast():
    eng, nodes, mid, relays = crash_after_copy1()
    assert relays
    assert min(t for t, _ in relays) >= relay_window_end(nodes, mid)


def test_rank0_relays_by_window_end_and_survivors_meet_deadline():
    eng, nodes, mid, relays = crash_after_copy1()
    assert min(t for t, frm in relays if frm == 1) <= relay_window_end(nodes, mid)
    held, p = nodes[0].store[mid], nodes[1].cfg
    limit = (held.ts + compute_D(held.d_i, p.eta_us, p.theta_us,
                                 p.safety_margin_us) + p.epsilon_us)
    for i in (1, 2, 3):
        assert delivered(nodes[i]) == [mid]
    for rec in eng.trace.of_kind("DELIVER"):
        assert rec.fields["clk"] < limit


def test_lagging_clock_delays_relay_by_at_most_d_i():
    eng, nodes = build_cluster(**ANCHOR)
    eng.clocks[1].offset_us = -50_000  # node 1 reads the broadcast as future
    sent = record_sends(eng)
    mid = nodes[0].broadcast("half sent")
    eng.schedule_crash(0, 1)
    eng.run_until(2_000_000)
    held, p = nodes[0].store[mid], nodes[0].cfg
    arrival_timeout = 1000 + p.eta_us + p.theta_us
    first = min(t for t, frm, kind in sent if kind == "INS_RELAY" and frm == 1)
    assert first == arrival_timeout + held.d_i


def test_second_copy_inside_window_cancels_relay():
    eng, nodes = build_cluster(**ANCHOR)
    # from t=1000 every link takes 4 ms: copy 2 (sent at 2000) lands at 6000,
    # after arrival + eta + theta but before ts + d_i + eta + theta
    eng.network.shifts = [(1000, DelaySpec("fixed", value_us=4000))]
    sent = record_sends(eng)
    mid = nodes[0].broadcast("late copy 2")
    eng.run_until(2_000_000)
    assert relay_window_end(nodes, mid) > 6000
    assert not [s for s in sent if s[2] == "INS_RELAY"]
    for node in nodes.values():
        assert delivered(node) == [mid]


def test_a_relayer_sends_both_copies_eta_apart_under_its_name():
    # one copy2 timer sends copy 2, of this node's own message or of the
    # one it relays, and a relayed copy names its relayer
    eng = crash_after_copy1()[0]
    from_rank0 = [(r.sim_time_us, r.detail_dict())
                  for r in eng.trace.of_kind("INS_RELAY")
                  if r.node == 2 and r.detail_dict()["frm"] == "1"]
    assert [(d["copy"], d["relay"]) for _, d in from_rank0] == [
        ("1", "1"), ("2", "1")]
    assert from_rank0[1][0] - from_rank0[0][0] == ANCHOR["eta_us"]


def lose_copies(eng, to, seqs=None, copies=(1, 2)):
    """Lose node 0's own copies to ``to`` (of ``seqs``, or of every seq).

    Returns (time, frm, to, kind, msg_id) of every send attempted.
    """
    sent = []
    send = eng.send

    def lossy_send(frm, dest, kind, msg_id, payload, *rest):
        sent.append((eng.now, frm, dest, kind, msg_id))
        if (kind == "INS_MSG" and frm == 0 and dest == to
                and payload.copy_index in copies
                and (seqs is None or payload.msg_id[1] in seqs)):
            return
        send(frm, dest, kind, msg_id, payload, *rest)

    eng.send = lossy_send
    return sent


def first_requests(sent, frm):
    """msg_id -> (time, target) of the first RETX_REQ ``frm`` sent for it."""
    first = {}
    for t, src, to, kind, msg_id in sent:
        if kind == "RETX_REQ" and src == frm:
            first.setdefault(msg_id, (t, to))
    return first


@pytest.mark.parametrize("mode", [MODE_HYBRID, MODE_GMD_ONLY])
def test_retransmission_fills_gap_from_ack_evidence(mode):
    # both copies to node 3 are lost and the sender dies right after its
    # send; node 3 learns of the message from the survivors' acks, and in
    # GMD_ONLY its deferred request is the only repair (there is no relay)
    eng, nodes = build_cluster(n=4, mode=mode, theta_us=1000)
    sent = lose_copies(eng, to=3)
    mid = nodes[0].broadcast("lossy")
    eng.schedule_crash(0, 1)
    eng.run_until(5_000_000)
    assert mid in nodes[3].store
    assert first_requests(sent, 3)
    for i in (1, 2, 3):
        nodes[i].on_new_view(0)
    assert delivered(nodes[3]) == [mid]


# With 1 ms links node 1 acks node 0's seq 0 at 1000, and that ack, the
# first evidence node 2 has of the message, lands at 2000.
THIRD_PARTY_ACK_AT = 2000


def test_hole_seen_in_a_third_party_vector_waits_one_window():
    eng, nodes = build_cluster(n=3)
    sent = lose_copies(eng, to=2)
    nodes[0].broadcast("lost to node 2")
    eng.run_until(THIRD_PARTY_ACK_AT)
    node = nodes[2]
    window = node.current_d()
    assert set(node.holes) == {(0, 0)}
    assert node._gap_blocks(node.clock() + 1_000_000)  # blocks as before
    eng.run_until(THIRD_PARTY_ACK_AT + window - 1)
    assert set(node.holes) == {(0, 0)}
    assert first_requests(sent, 2) == {}


def test_copy_arriving_inside_the_window_cancels_the_request():
    eng, nodes = build_cluster(n=3, eta_us=2000)
    sent = lose_copies(eng, to=2, copies=(1,))  # copy 2 lands at 3000
    mid = nodes[0].broadcast("copy 2 gets through")
    eng.run_until(1_000_000)
    assert THIRD_PARTY_ACK_AT < 3000 < THIRD_PARTY_ACK_AT + nodes[2].current_d()
    assert first_requests(sent, 2) == {}
    assert delivered(nodes[2]) == [mid]


def test_hole_open_after_the_window_is_requested_once_from_its_witness():
    # theta exceeds the round trip, so the reply lands before any retry
    eng, nodes = build_cluster(n=3, theta_us=3000)
    sent = lose_copies(eng, to=2)
    mid = nodes[0].broadcast("lost to node 2")
    eng.run_until(1_000_000)
    window = nodes[2].current_d()
    requests = [s for s in sent if s[3] == "RETX_REQ" and s[1] == 2]
    assert [(t, to) for t, _, to, _, _ in requests] == [
        (THIRD_PARTY_ACK_AT + window, 1)]  # node 1's vector showed it
    assert delivered(nodes[2]) == [mid]


@pytest.mark.parametrize("proof", ["direct copy", "sender's ack"])
def test_proof_from_the_senders_link_requests_at_once(proof):
    eng, nodes = build_cluster(n=3)
    sent = lose_copies(eng, to=2, seqs=(0, 1))
    nodes[0].broadcast("seq 0, lost to node 2")
    eng.run_until(500)
    if proof == "sender's ack":
        # lands at node 0 at 1500, after seq 1; node 0's ack lands at 2500
        nodes[1].broadcast("prompts an ack from the sender")
    eng.run_until(1000)
    nodes[0].broadcast("seq 1, lost to node 2")  # node 1's ack lands at 3000
    eng.run_until(1500)
    if proof == "direct copy":
        nodes[0].broadcast("seq 2, lands at node 2 at 2500")
    eng.run_until(1_000_000)
    # seq 0 has waited since 2000 for its window, seq 1 is a fresh hole;
    # both are requested from the sender when the proof lands
    assert 2500 < THIRD_PARTY_ACK_AT + nodes[2].current_d()
    assert first_requests(sent, 2) == {"0:0": (2500, 0), "0:1": (2500, 0)}
    assert len(delivered(nodes[2])) == 3


def hold(node, sender, seq, ts):
    """Put (sender, seq) in the node's store, as an arrival does."""
    node.store[(sender, seq)] = InsuranceMessage((sender, seq), ts, 0, 1)
    node._note_seq(sender, seq, sender)


def test_known_gap_blocks_delivery_of_later_timestamps():
    eng, nodes = build_cluster(n=3)
    node = nodes[2]
    # evidence of sender 0's seq 0 and 1 while only seq 1 arrived
    hold(node, 0, 1, 5000)
    assert set(node.holes) == {(0, 0)}
    assert node._gap_blocks(6000)  # the hole may hide any smaller timestamp
    hold(node, 0, 0, 4000)
    assert not node.holes
    assert node.contig[0] == 1
    assert not node._gap_blocks(6000)


def test_gap_with_known_lower_bound_does_not_block_smaller_ts():
    eng, nodes = build_cluster(n=3)
    node = nodes[2]
    hold(node, 0, 0, 4000)
    hold(node, 0, 2, 9000)  # seq 1 missing, its ts must exceed 4000
    assert node._gap_blocks(5000)
    assert not node._gap_blocks(4000)  # nothing below the bound is hidden


def deadline_timers(node):
    return sum(1 for key in node._timers if key[0] == "deadline")


def test_a_crash_interim_arms_at_most_one_deadline_timer_per_node():
    """Only the head of the delivery order can be delivered, so a node
    keeps one deadline timer, set for the head's deadline, however many
    messages wait out their deadlines while the crashed member stays in
    the view."""
    cfg = config_from_dict({
        "seed": 2, "duration_us": 1_500_000, "mode": MODE_HYBRID,
        "num_client_nodes": 5,
        "network": {"delay": {"family": "lognormal", "median_us": 3000,
                              "sigma": 0.5}},
        "crash_schedule": [{"node": 4, "at_us": 300_000}],
        "view_install_delay_us": 60_000_000,
        "workload": {"kind": "broadcast", "arrival_rate_per_s": 200.0,
                     "stop_margin_us": 100_000}})
    rt = AbcastRuntime(cfg)
    most = 0
    for t in range(1000, 1_500_001, 1000):
        rt.engine.run_until(t)
        most = max(most, max(deadline_timers(n) for n in rt.nodes.values()))
    paths = [r.fields["path"] for r in rt.engine.trace.of_kind("DELIVER")]
    assert paths.count(DEADLINE_PATH) > 500
    assert most == 1


def test_a_head_past_its_deadline_is_delivered_when_its_hole_fills():
    eng, nodes = build_cluster(n=3, default_d_us=5000)
    armed = []
    set_timer = eng.set_timer

    def recording_set_timer(node_id, delay_us, key, data=None):
        if node_id == 2 and key[0] == "deadline":
            armed.append(eng.now + delay_us)
        return set_timer(node_id, delay_us, key, data)

    eng.set_timer = recording_set_timer
    for crashed in (0, 1):  # no member acks: only the deadline path is left
        eng.schedule_crash(crashed, 0)
    eng.run_until(2000)
    node = nodes[2]
    # seq 1 of sender 0 arrives, and seq 0 is a hole below it
    node.on_message(0, "INS_MSG", "0:1",
                    InsuranceMessage((0, 1), 1000, 5000, 1, sent_ts=1000))
    deadline = node.deadlines[(0, 1)]
    assert set(node.holes) == {(0, 0)}
    assert armed == [deadline]  # one wake, at the head's deadline
    eng.run_until(deadline + 50_000)
    assert delivered(node) == []  # the hole blocks the head
    assert armed == [deadline] and deadline_timers(node) == 0
    fill_at = eng.now
    node.on_message(1, "INS_RELAY", "0:0",
                    InsuranceMessage((0, 0), 900, 5000, 1, relayed_by=1,
                                     sent_ts=fill_at - 1000))
    assert delivered(node) == [(0, 0), (0, 1)]
    assert [(r.sim_time_us, r.fields["path"])
            for r in eng.trace.of_kind("DELIVER")] == [
        (fill_at, DEADLINE_PATH), (fill_at, DEADLINE_PATH)]
    assert armed == [deadline]


def test_on_suspicion_mode_arms_deadlines_only_after_suspect():
    eng, nodes = build_cluster(n=4, mode=MODE_ON_SUSPICION, default_d_us=3000)
    eng.schedule_crash(0, 1)
    eng.run_until(10)
    nodes[1].broadcast("quiet failure: waiting on a dead member's ack")
    eng.run_until(1_000_000)
    assert all(not nodes[i].deadlines for i in (1, 2, 3))
    assert delivered(nodes[1]) == []
    for i in (1, 2, 3):
        nodes[i].on_suspect(0)
    eng.run_until(2_000_000)
    for i in (1, 2, 3):
        assert len(delivered(nodes[i])) == 1


def test_false_suspicion_disarms_deadlines():
    eng, nodes = build_cluster(n=4, mode=MODE_ON_SUSPICION)
    nodes[0].broadcast("slow but alive")
    node = nodes[1]
    eng.run_until(1_200)  # copy 1 arrived, all-ack round still in flight
    node.on_suspect(0)
    assert node.deadlines
    node.on_suspicion_false(0)
    assert not node.deadlines


def test_heartbeat_silence_raises_suspicion():
    eng, nodes = build_cluster(n=3, mode=MODE_ON_SUSPICION,
                               heartbeat_interval_us=100_000,
                               suspicion_timeout_us=300_000)
    for node in nodes.values():
        node.start_heartbeats()
    eng.schedule_crash(0, 150_000)
    eng.run_until(2_000_000)
    assert 0 in nodes[1].suspected
    assert 0 in nodes[2].suspected
    assert 1 not in nodes[2].suspected


def test_heartbeat_ack_replaces_a_lost_ack():
    # node 2's only ack of node 0's broadcast never reaches node 1, and no
    # one is suspected, so no deadline is armed; node 2's next heartbeat
    # carries its ack record and completes the all-ack round at node 1
    eng, nodes = build_cluster(n=3, mode=MODE_ON_SUSPICION,
                               heartbeat_interval_us=50_000,
                               suspicion_timeout_us=10_000_000)
    send = eng.send
    lost = []

    def first_ack_2_to_1_lost(frm, to, kind, msg_id, payload, *rest):
        if (frm, to, kind) == (2, 1, "INS_ACK") and not lost:
            lost.append(msg_id)
            return
        send(frm, to, kind, msg_id, payload, *rest)

    eng.send = first_ack_2_to_1_lost
    for node in nodes.values():
        node.start_heartbeats()
    mid = nodes[0].broadcast("acked twice")
    eng.run_until(49_000)
    assert lost == [msg_id_str(mid)]
    assert delivered(nodes[1]) == []
    eng.run_until(120_000)
    assert delivered(nodes[1]) == [mid]
    assert not nodes[1].deadlines
    # the heartbeat is node 2's second ack, and node 1 missed the first
    assert [(r.sim_time_us, r.node, r.fields) for r in
            eng.trace.of_kind("ACK_FULL")] == [(51_000, 1, {"frm": 2,
                                                           "seen": {0: 0}})]


def ack(ts, seen, v, changed):
    return "INS_ACK", "", InsuranceAck(ts, seen, v, changed)


def test_an_ack_after_a_lost_one_is_scanned_whole():
    eng, nodes = build_cluster(n=4)
    node = nodes[3]
    node.on_message(1, *ack(10, {0: 0}, 1, {0: 0}))
    assert set(node.holes) == {(0, 0)}
    # ack 2 moved sender 2 to seq 0 and was lost; ack 3 moves sender 0
    node.on_message(1, *ack(30, {0: 1, 2: 0}, 3, {0: 1}))
    assert set(node.holes) == {(0, 0), (0, 1), (2, 0)}
    assert [r.fields for r in eng.trace.of_kind("ACK_FULL")] == [
        {"frm": 1, "seen": {0: 1, 2: 0}}]
    # the next version is read by its moved entries alone
    node.on_message(1, *ack(40, {0: 1, 2: 1}, 4, {2: 1}))
    assert (2, 1) in node.holes
    assert len(list(eng.trace.of_kind("ACK_FULL"))) == 1


@pytest.mark.parametrize("arrival", ["ack", "copy already held"])
def test_an_arrival_past_the_head_deadline_delivers_before_its_timer(arrival):
    # node 2's clock runs 10 % fast, so it passes the head's deadline well
    # before the timer, set in simulated time, fires; node 1 is down, so
    # the all-ack path is blocked
    eng, nodes = build_cluster(n=3, default_d_us=5000)
    eng.clocks[2].drift_ppm = 100_000
    eng.schedule_crash(1, 0)
    mid = nodes[0].broadcast("deadline only")
    eng.run_until(1000)  # copy 1 lands at node 2
    node = nodes[2]
    deadline = node.deadlines[mid]
    passed = deadline * 10 // 11 + 1  # the simulated time it passes
    fires = node._wake_at
    assert passed + 100 < fires
    eng.run_until(passed + 50)
    assert delivered(node) == []
    if arrival == "ack":
        node.on_message(0, *ack(10, {0: 0}, 1, {0: 0}))
    else:
        node.on_message(0, "INS_MSG", msg_id_str(mid), node.store[mid])
    assert delivered(node) == [mid]
    assert [r.sim_time_us for r in eng.trace.of_kind("DELIVER")
            if r.node == 2] == [passed + 50]


def test_the_delivery_loop_runs_about_twice_per_delivery(monkeypatch):
    """A deterministic guard on the delivery gate: an ack arrival, or a
    copy already held, runs ``_try_deliver`` only once the head is covered
    or past its deadline.  On the crash-lossy digest scenario that is 1.9
    runs per DELIVER record; 5.0 when every arrival ran it."""
    calls = 0
    try_deliver = InsuranceNode._try_deliver

    def counted(self):
        nonlocal calls
        calls += 1
        try_deliver(self)

    monkeypatch.setattr(InsuranceNode, "_try_deliver", counted)
    result = run_scenario(config_from_dict(SCENARIOS["hybrid-crash-lossy"]))
    with result.trace as trace:
        deliveries = sum(1 for _ in trace.of_kind("DELIVER"))
    assert deliveries > 1000
    assert calls <= 2.5 * deliveries, (calls, deliveries)


def test_delay_estimate_feeds_deadline_bound():
    eng, nodes = build_cluster(n=3, delay_us=4000, epsilon_us=0,
                               eta_us=2000, theta_us=1000, default_d_us=1)
    nodes[0].broadcast("a")
    eng.run_until(1_000_000)
    node = nodes[1]
    assert node.current_d() == 4000
    # 2d + 2eta + theta with the observed fixed delay
    assert node.estimator.per_origin[0].quantile() == 4000


def test_configured_percentile_reaches_every_estimator():
    # every hop takes 1 ms until 200 ms and 9 ms after, so a window's
    # median and its p99.99 differ
    eng, nodes = build_cluster(n=3, percentile=0.5, epsilon_us=25,
                               default_d_us=1)
    eng.network.shifts = [(200_000, DelaySpec("fixed", value_us=9000))]
    samples = {i: {} for i in nodes}
    for i, node in nodes.items():
        def spy(origin, raw, record=node.estimator.record, log=samples[i]):
            log.setdefault(origin, []).append(raw)
            record(origin, raw)
        node.estimator.record = spy
    for k in range(9):
        nodes[k % 3].broadcast(k)
        eng.run_until(eng.now + 40_000)
    for i, node in nodes.items():
        log = samples[i]
        assert min(min(raws) for raws in log.values()) > 0
        medians = [sorted(raws)[math.ceil(len(raws) / 2) - 1]
                   for raws in log.values()]
        assert node.current_d() == max(medians) + 25
        assert node.current_d() < max(max(raws) for raws in log.values()) + 25


# -- stability GC -------------------------------------------------------------

def broadcast_every_10ms(eng, node, count):
    mids = []
    for i in range(count):
        mids.append(node.broadcast(i))
        eng.run_until(eng.now + 10_000)
    return mids


def test_a_late_copy_of_a_collected_message_changes_nothing():
    eng, nodes = build_cluster(n=3)
    first = nodes[0].broadcast("collected")
    held = nodes[0].store[first]
    eng.run_until(10_000)
    mids = [first] + broadcast_every_10ms(eng, nodes[0], 3)
    node = nodes[2]
    assert first not in node.store
    assert first not in node.gmd.pending
    acks = eng.send_counts["INS_ACK"]
    late = InsuranceMessage(first, held.ts, held.d_i, 2, relayed_by=1,
                            sent_ts=nodes[1].clock())
    eng.send(1, 2, "INS_RELAY", msg_id_str(first), late,
             {"ts": held.ts, "seq": 0, "copy": 2, "frm": 1, "relay": 1})
    eng.run_until(1_000_000)
    assert delivered(node) == mids  # not delivered a second time
    assert eng.send_counts["INS_ACK"] == acks  # and not acked again
    assert first not in node.store and first not in node.gmd.pending


def test_retx_request_for_a_held_message_above_the_floor_is_answered():
    # node 2 misses seq 3 and its requests are lost until 60 ms, so the
    # others deliver seq 3 by its deadline and collect below it; seq 3
    # itself stays, since node 2's vector does not cover it
    eng, nodes = build_cluster(n=3)
    sent = lose_copies(eng, to=2, seqs=(3,))
    send = eng.send

    def requests_lost_until_60ms(frm, to, kind, *rest):
        if kind != "RETX_REQ" or eng.now >= 60_000:
            send(frm, to, kind, *rest)

    eng.send = requests_lost_until_60ms
    mids = broadcast_every_10ms(eng, nodes[0], 6)
    for node in (nodes[0], nodes[1]):
        # delivered and still held
        assert mids[4] in node.store and mids[4] not in node.gmd.pending
        assert node._floor[0] == 3 and (0, 3) in node.store
    eng.run_until(1_000_000)
    assert [s for s in sent if s[2:5] == (2, "INS_RELAY", "0:3")]
    assert delivered(nodes[2]) == mids


def test_held_messages_stay_bounded_over_a_run():
    cfg = config_from_dict({
        "seed": 1, "duration_us": 8_000_000, "mode": MODE_HYBRID,
        "num_client_nodes": 5,
        "network": {"delay": {"family": "lognormal", "median_us": 3000,
                              "sigma": 0.5}},
        "workload": {"kind": "broadcast", "arrival_rate_per_s": 200.0,
                     "stop_margin_us": 0}})
    rt = AbcastRuntime(cfg)

    def mean_held(start_us, end_us):
        """Means over 50 ms samples of all nodes' held messages, and of
        those already delivered."""
        totals = []
        for t in range(start_us + 50_000, end_us + 1, 50_000):
            rt.engine.run_until(t)
            totals.append((sum(len(n.store) for n in rt.nodes.values()),
                           sum(len(n.store) - len(n.gmd.pending)
                               for n in rt.nodes.values())))
        return [sum(column) / len(totals) for column in zip(*totals)]

    rt.engine.run_until(1_000_000)
    second_2 = mean_held(1_000_000, 2_000_000)
    rt.engine.run_until(7_000_000)
    second_8 = mean_held(7_000_000, 8_000_000)
    assert rt.messages_total > 1500
    for late, early in zip(second_8, second_2):
        assert late <= 1.2 * early


def test_a_crash_interim_costs_under_185_bytes_per_held_message():
    """A crashed member that is still in the view stops its vector, so
    the live nodes collect nothing and hold every message from then on.
    Per held message, the node state (what insurance.py and gmd.py
    allocate) grows by its store entry, its pending entry until delivery,
    and the delivery and timer bookkeeping around them.  This run
    measures 145 bytes per held message; when an arrival-form bitmask, a
    delivered-timestamp map and a GmdMessage per arrival sat beside the
    store entry, it measured 226."""
    cfg = config_from_dict({
        "seed": 1, "duration_us": 5_000_000, "mode": MODE_HYBRID,
        "num_client_nodes": 5,
        "network": {"delay": {"family": "lognormal", "median_us": 5000,
                              "sigma": 0.5},
                    "drop_prob": 0.01},
        "crash_schedule": [{"node": 4, "at_us": 500_000}],
        "view_install_delay_us": 60_000_000,
        "workload": {"kind": "broadcast", "arrival_rate_per_s": 200.0}})
    rt = AbcastRuntime(cfg)
    live = [node for node_id, node in rt.nodes.items() if node_id != 4]
    filters = [tracemalloc.Filter(True, module.__file__)
               for module in (insurance, gmd)]

    def held_and_snapshot():
        return (sum(len(node.store) for node in live),
                tracemalloc.take_snapshot().filter_traces(filters))

    rt.engine.run_until(1_000_000)
    tracemalloc.start()
    try:
        held_before, before = held_and_snapshot()
        rt.engine.run_until(4_000_000)
        held_after, after = held_and_snapshot()
    finally:
        tracemalloc.stop()
    grown = sum(stat.size_diff for stat in after.compare_to(before, "filename"))
    assert held_after - held_before > 1500
    assert grown / (held_after - held_before) < 185
