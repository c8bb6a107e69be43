from hybridcast.gmd import GmdNodeState, msg_id_str


def bcast(nodes, sender, clock_reading, seq):
    """Drive one broadcast through every node synchronously; returns its
    (msg_id, ts).  Every node is taken to hold the sender's earlier
    broadcasts."""
    ts = nodes[sender].assign_timestamp(clock_reading)
    msg_id = (sender, seq)
    nodes[sender].add_own(msg_id, ts)
    acks = []
    for n in nodes.values():
        if n.node_id != sender:
            promise = n.on_receive(msg_id, ts, clock_reading)
            acks.append((n.node_id, promise, {sender: seq}))
    for acker, promise, seen in acks:
        for n in nodes.values():
            if n.node_id != acker:
                n.on_ack(acker, promise, seen)
    return msg_id, ts


def make_group(k=3):
    members = list(range(k))
    return {i: GmdNodeState(i, members) for i in members}


def test_msg_id_str():
    assert msg_id_str((4, 17)) == "4:17"


def test_assign_timestamp_monotonic_past_clock():
    n = GmdNodeState(0, [0, 1])
    assert n.assign_timestamp(100) == 100
    # stalled local clock still yields strictly growing timestamps
    assert n.assign_timestamp(100) == 101
    assert n.assign_timestamp(500) == 500


def test_single_broadcast_delivers_everywhere():
    nodes = make_group()
    msg_id, ts = bcast(nodes, 0, 1000, 0)
    for n in nodes.values():
        assert n.pending == {msg_id: ts}
        assert n.try_deliver() == [msg_id]
        assert n.pending == {}


def test_delivery_needs_every_foreign_ack():
    nodes = make_group()
    ts = nodes[0].assign_timestamp(1000)
    nodes[0].add_own((0, 0), ts)
    nodes[0].on_ack(1, nodes[1].on_receive((0, 0), ts, 1005), {0: 0})
    assert not nodes[0].head_deliverable()  # node 2 has not acked
    nodes[0].on_ack(2, nodes[2].on_receive((0, 0), ts, 1007), {0: 0})
    assert nodes[0].head_deliverable()


def test_promise_watermark_gates_delivery():
    # all acks held but a member's watermark still below ts: not deliverable
    n = GmdNodeState(0, [0, 1, 2])
    n.hybrid_clock = 1000
    n.add_own((0, 0), 1000)
    n.on_ack(1, 1001, {0: 0})
    n.on_ack(2, 999, {0: 0})  # stale promise
    assert not n.head_deliverable()
    n.note_timestamp(2, 1002)
    assert n.head_deliverable()


def test_total_order_is_timestamp_then_sender():
    # the larger-timestamp message reaches the observer first, yet the
    # smaller-timestamp one must be delivered first
    n = GmdNodeState(2, [0, 1, 2])
    n.on_receive((0, 0), 2000, 2500)
    n.on_receive((1, 0), 1500, 2600)
    for acker in (0, 1):
        n.on_ack(acker, 3000, {0: 0, 1: 0})
    assert n.try_deliver() == [(1, 0), (0, 0)]


def test_sender_tie_breaks_equal_timestamps():
    n = GmdNodeState(2, [0, 1, 2])
    for sender in (1, 0):
        n.on_receive((sender, 0), 1000, 1500)
    for acker in (0, 1):
        n.on_ack(acker, 2000, {0: 0, 1: 0})
    assert n.try_deliver() == [(0, 0), (1, 0)]


def test_early_ack_buffered_until_message_arrives():
    n = GmdNodeState(2, [0, 1, 2])
    n.on_ack(1, 1200, {0: 0})  # ack overtook the broadcast
    assert not n.head_deliverable()
    n.on_receive((0, 0), 1000, 1100)
    # the ack already counts: no further ack is needed
    assert n.try_deliver() == [(0, 0)]


def test_later_ack_covering_an_earlier_message_delivers_it():
    n = GmdNodeState(2, [0, 1, 2])
    n.on_receive((0, 0), 1000, 1050)
    n.on_receive((0, 1), 1100, 1150)
    # member 1's ack for (0, 0) was lost; its ack for (0, 1) shows that it
    # holds sender 0's messages up to seq 1
    n.on_ack(1, 1200, {0: 1})
    assert n.try_deliver() == [(0, 0), (0, 1)]


def test_vector_below_seq_does_not_deliver():
    n = GmdNodeState(2, [0, 1, 2])
    n.on_receive((0, 0), 1000, 1050)
    n.on_receive((0, 1), 1100, 1150)
    n.on_ack(1, 1200, {0: 0})  # member 1 lacks (0, 1)
    assert n.try_deliver() == [(0, 0)]
    assert not n.head_deliverable()


def test_older_ack_rolls_back_neither_vector_nor_promise():
    n = GmdNodeState(2, [0, 1, 2])
    n.on_receive((0, 0), 1000, 1050)
    n.on_receive((0, 1), 1100, 1150)
    n.on_ack(1, 1200, {0: 1})
    n.on_ack(1, 1060, {0: 0})  # overtaken in flight by the newer one
    assert n.acks[1] == (1200, {0: 1})
    assert n.promise[1] == 1200
    assert n.try_deliver() == [(0, 0), (0, 1)]


def test_remove_member_unblocks_pending():
    nodes = make_group()
    ts = nodes[0].assign_timestamp(1000)
    nodes[1].on_receive((0, 0), ts, 1005)
    nodes[1].on_ack(2, nodes[2].on_receive((0, 0), ts, 1007), {0: 0})
    nodes[1].note_timestamp(0, ts + 5)
    # node 0 crashed before acking anything else; node 1 blocks forever
    assert nodes[1].head_deliverable()  # sender ack is implicit
    # now block on a foreign message instead
    ts2 = nodes[2].assign_timestamp(2000)
    nodes[1].try_deliver()
    nodes[1].on_receive((2, 1), ts2, 2005)
    assert not nodes[1].head_deliverable()  # waiting on crashed node 0
    nodes[1].remove_member(0)
    assert nodes[1].head_deliverable()


def test_receive_bumps_hybrid_clock():
    n = GmdNodeState(1, [0, 1])
    n.on_receive((0, 0), 5000, 10)
    # next local timestamp must exceed what was seen
    assert n.assign_timestamp(20) > 5000
