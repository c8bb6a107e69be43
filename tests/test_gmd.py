from hybridcast.gmd import GmdNodeState, msg_id_str


def receive(node, msg_id, ts, clock_reading):
    """Admit a member's broadcast and stamp this node's ack for it, as the
    insurance node does; returns the ack's seen-vector for the sender."""
    node.admit(msg_id, ts)
    node.clock.stamp(clock_reading)
    return {msg_id[0]: msg_id[1]}


def bcast(nodes, sender, clock_reading, seq):
    """Drive one broadcast through every node synchronously; returns its
    (msg_id, ts).  Every node is taken to hold the sender's earlier
    broadcasts."""
    ts = nodes[sender].clock.stamp(clock_reading)
    msg_id = (sender, seq)
    nodes[sender].admit(msg_id, ts)
    acks = [(n.node_id, receive(n, msg_id, ts, clock_reading))
            for n in nodes.values() if n.node_id != sender]
    for acker, seen in acks:
        for n in nodes.values():
            if n.node_id != acker:
                n.on_ack(acker, seen)
    return msg_id, ts


def deliver_all(node):
    """Deliver heads while they are deliverable, as the insurance node's
    delivery loop does on the all-ack path; returns them in order."""
    out = []
    while node.head_deliverable():
        out.append(node.deliver_head())
    return out


def make_group(k=3):
    members = list(range(k))
    return {i: GmdNodeState(i, members) for i in members}


def test_msg_id_str():
    assert msg_id_str((4, 17)) == "4:17"


def test_assign_timestamp_monotonic_past_clock():
    n = GmdNodeState(0, [0, 1])
    assert n.clock.stamp(100) == 100
    # stalled local clock still yields strictly growing timestamps
    assert n.clock.stamp(100) == 101
    assert n.clock.stamp(500) == 500


def test_single_broadcast_delivers_everywhere():
    nodes = make_group()
    msg_id, ts = bcast(nodes, 0, 1000, 0)
    for n in nodes.values():
        assert n.pending == {msg_id: ts}
        assert deliver_all(n) == [msg_id]
        assert n.pending == {}


def test_delivery_needs_every_foreign_ack():
    nodes = make_group()
    ts = nodes[0].clock.stamp(1000)
    nodes[0].admit((0, 0), ts)
    nodes[0].on_ack(1, receive(nodes[1], (0, 0), ts, 1005))
    assert not nodes[0].head_deliverable()  # node 2 has not acked
    nodes[0].on_ack(2, receive(nodes[2], (0, 0), ts, 1007))
    assert nodes[0].head_deliverable()


def test_total_order_is_timestamp_then_sender():
    # the larger-timestamp message reaches the observer first, yet the
    # smaller-timestamp one must be delivered first
    n = GmdNodeState(2, [0, 1, 2])
    n.admit((0, 0), 2000)
    n.admit((1, 0), 1500)
    for acker in (0, 1):
        n.on_ack(acker, {0: 0, 1: 0})
    assert deliver_all(n) == [(1, 0), (0, 0)]


def test_sender_tie_breaks_equal_timestamps():
    n = GmdNodeState(2, [0, 1, 2])
    for sender in (1, 0):
        n.admit((sender, 0), 1000)
    for acker in (0, 1):
        n.on_ack(acker, {0: 0, 1: 0})
    assert deliver_all(n) == [(0, 0), (1, 0)]


def test_early_ack_buffered_until_message_arrives():
    n = GmdNodeState(2, [0, 1, 2])
    n.on_ack(1, {0: 0})  # ack overtook the broadcast
    assert not n.head_deliverable()
    n.admit((0, 0), 1000)
    # the ack already counts: no further ack is needed
    assert deliver_all(n) == [(0, 0)]


def test_later_ack_covering_an_earlier_message_delivers_it():
    n = GmdNodeState(2, [0, 1, 2])
    n.admit((0, 0), 1000)
    n.admit((0, 1), 1100)
    # member 1's ack for (0, 0) was lost; its ack for (0, 1) shows that it
    # holds sender 0's messages up to seq 1
    n.on_ack(1, {0: 1})
    assert deliver_all(n) == [(0, 0), (0, 1)]


def test_vector_below_seq_does_not_deliver():
    n = GmdNodeState(2, [0, 1, 2])
    n.admit((0, 0), 1000)
    n.admit((0, 1), 1100)
    n.on_ack(1, {0: 0})  # member 1 lacks (0, 1)
    assert deliver_all(n) == [(0, 0)]
    assert not n.head_deliverable()


def test_remove_member_unblocks_pending():
    nodes = make_group()
    ts = nodes[0].clock.stamp(1000)
    nodes[1].admit((0, 0), ts)
    nodes[1].on_ack(2, receive(nodes[2], (0, 0), ts, 1007))
    # node 0 crashed before acking anything else
    assert nodes[1].head_deliverable()  # sender ack is implicit
    # now block on a foreign message instead
    ts2 = nodes[2].clock.stamp(2000)
    deliver_all(nodes[1])
    nodes[1].admit((2, 1), ts2)
    assert not nodes[1].head_deliverable()  # waiting on crashed node 0
    nodes[1].remove_member(0)
    assert nodes[1].head_deliverable()


def test_receive_bumps_hybrid_clock():
    n = GmdNodeState(1, [0, 1])
    n.admit((0, 0), 5000)
    # next local timestamp must exceed what was seen
    assert n.clock.stamp(20) > 5000


def test_an_ack_reports_whether_the_head_became_deliverable():
    n = GmdNodeState(3, [0, 1, 2, 3])
    n.admit((0, 0), 1000)
    assert not n.on_ack(1, {0: 0})  # member 2 has not acked
    assert not n.on_ack(0, {1: 4})  # the sender's own vector is not needed
    assert n.on_ack(2, {0: 0})
    assert n.head_deliverable()


def test_the_coverage_count_follows_the_head_and_the_view():
    n = GmdNodeState(3, [0, 1, 2, 3])
    n.on_ack(1, {0: 0, 2: 0})
    n.on_ack(2, {0: 0})
    n.admit((0, 0), 1000)  # a head that the stored vectors already cover
    assert n.head_deliverable()
    n.admit((2, 0), 900)  # a new head, covered by member 1 alone
    assert n.head() == (2, 0) and not n.head_deliverable()
    n.remove_member(0)  # member 0 was the one missing
    assert deliver_all(n) == [(2, 0), (0, 0)]
    n.admit((1, 0), 2000)
    assert not n.head_deliverable()
    n.on_ack(2, {0: 0, 1: 0})
    assert deliver_all(n) == [(1, 0)]
