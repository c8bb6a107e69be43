from hybridcast.delays import compute_D
from hybridcast.gmd import msg_id_str
from hybridcast.insurance import (
    DEADLINE_PATH,
    GMD_PATH,
    InsuranceMessage,
    MODE_GMD_ONLY,
    MODE_HYBRID,
    MODE_ON_SUSPICION,
    InsuranceNode,
    ProtocolParams,
)
from hybridcast.kernel import DelaySpec, Engine, NetworkModel


def build_cluster(n=4, mode=MODE_HYBRID, delay_us=1000, seed=1, **params):
    eng = Engine(seed, NetworkModel(DelaySpec("fixed", value_us=delay_us)))
    members = list(range(n))
    p = ProtocolParams(mode=mode, **params)
    nodes = {}
    for i in members:
        node = InsuranceNode(eng, i, members, p)
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
    held, p = nodes[0].store[mid], nodes[0].params
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
    held, node = nodes[0].store[mid], nodes[1]
    limit = held.ts + compute_D(held.d_i, node.bound_cfg) + node.params.epsilon_us
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
    held, p = nodes[0].store[mid], nodes[0].params
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


def test_retransmission_fills_gap_from_ack_evidence():
    # both copies to node 3 are lost; it learns of the message from acks
    eng, nodes = build_cluster(n=4, theta_us=1000)
    original_send = eng.send

    def lossy_send(frm, to, kind, msg_id, payload, detail=""):
        if kind in ("INS_MSG",) and to == 3:
            return  # silently lose every direct copy to node 3
        original_send(frm, to, kind, msg_id, payload, detail)

    eng.send = lossy_send
    mid = nodes[0].broadcast("lossy")
    eng.run_until(5_000_000)
    assert delivered(nodes[3]) == [mid]
    assert any(True for _ in eng.trace.of_kind("RETX_REQ"))


def hold(node, sender, seq, ts):
    """Put (sender, seq) in the node's store, as an arrival does."""
    node.store[(sender, seq)] = InsuranceMessage((sender, seq), ts, 0, 1)
    node._note_seq(sender, seq, sender)


def test_known_gap_blocks_delivery_of_later_timestamps():
    eng, nodes = build_cluster(n=3)
    node = nodes[2]
    # evidence of sender 0's seq 0 and 1 while only seq 1 arrived
    hold(node, 0, 1, 5000)
    assert node.gaps[0] == {0}
    assert node._gap_blocks(6000)  # the hole may hide any smaller timestamp
    hold(node, 0, 0, 4000)
    assert not node.gaps[0]
    assert node.contig[0] == 1
    assert not node._gap_blocks(6000)


def test_gap_with_known_lower_bound_does_not_block_smaller_ts():
    eng, nodes = build_cluster(n=3)
    node = nodes[2]
    hold(node, 0, 0, 4000)
    hold(node, 0, 2, 9000)  # seq 1 missing, its ts must exceed 4000
    assert node._gap_blocks(5000)
    assert not node._gap_blocks(4000)  # nothing below the bound is hidden


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


def test_piggyback_acks_still_deliver():
    eng, nodes = build_cluster(n=4, ack_mode="piggyback", theta_us=1000)
    mids = [nodes[i % 4].broadcast(i) for i in range(6)]
    eng.run_until(10_000_000)
    for node in nodes.values():
        assert set(delivered(node)) == set(mids)
    # piggyback mode must not fall back to instant ack sends
    assert eng.send_counts.get("INS_ACK", 0) < 6 * 4 * 3


def test_delay_estimate_feeds_deadline_bound():
    eng, nodes = build_cluster(n=3, delay_us=4000, epsilon_us=0,
                               eta_us=2000, theta_us=1000, default_d_us=1)
    nodes[0].broadcast("a")
    eng.run_until(1_000_000)
    node = nodes[1]
    assert node.current_d() == 4000
    # 2d + 2eta + theta with the observed fixed delay
    assert node.estimator.per_origin[0].quantile(0.9999) == 4000
