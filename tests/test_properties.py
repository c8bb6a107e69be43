import heapq
import itertools
import math
import tempfile
from collections import deque
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from hybridcast.config import ScenarioConfig, config_from_dict
from hybridcast.delays import DelayDistribution, compute_D
from hybridcast.gmd import GmdNodeState
from hybridcast.harness import run_scenario
from hybridcast.insurance import InsuranceAck, InsuranceMessage, InsuranceNode
from hybridcast.kernel import DelaySpec, Engine, NetworkModel
from hybridcast.ordering import ADMIT, REJECT, OrderRequest, OrderServerState

BATTERY = settings(max_examples=100, deadline=None)


# -- determinism --------------------------------------------------------------

scenario_knobs = st.fixed_dictionaries({
    "seed": st.integers(min_value=0, max_value=2**31),
    "mode": st.sampled_from(["GMD_ONLY", "HYBRID", "HYBRID_ON_SUSPICION"]),
    "nodes": st.integers(min_value=2, max_value=5),
    "rate": st.floats(min_value=20.0, max_value=200.0),
    "median": st.integers(min_value=500, max_value=5000),
    "drop": st.floats(min_value=0.0, max_value=0.05),
})


def _scenario(knobs):
    return config_from_dict({
        "seed": knobs["seed"], "duration_us": 300_000, "mode": knobs["mode"],
        "num_client_nodes": knobs["nodes"],
        "network": {
            "delay": {"family": "lognormal", "median_us": knobs["median"],
                      "sigma": 0.5},
            "drop_prob": knobs["drop"],
        },
        "workload": {"kind": "broadcast", "arrival_rate_per_s": knobs["rate"],
                     "stop_margin_us": 100_000},
    })


@BATTERY
@given(scenario_knobs)
def test_same_seed_yields_byte_equal_traces(knobs):
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / "first.csv", Path(tmp) / "second.csv"]
        for path in paths:
            run_scenario(_scenario(knobs)).trace.write_csv(path)
        first, second = (path.read_bytes() for path in paths)
    assert first == second


# -- quantile oracle ----------------------------------------------------------

def _runs(starts):
    """Lists of samples made of runs: scattered, rising, falling or
    repeated.  Rising and repeated runs give a window many samples to
    prune, so expiry often meets a gap that pruning left."""
    run = st.tuples(st.sampled_from(["random", "up", "down", "tie"]),
                    starts, st.integers(min_value=1, max_value=60))

    def expand(runs):
        values = []
        for kind, start, length in runs:
            if kind == "random":
                values.extend((start * 7919 + i * 104_729) % 10**6 + 1
                              for i in range(length))
            elif kind == "up":
                values.extend(start + i for i in range(length))
            elif kind == "down":
                values.extend(max(1, start - i) for i in range(length))
            else:
                values.extend([start] * length)
        return values

    return st.lists(run, min_size=1, max_size=8).map(expand)


@BATTERY
@given(
    values=st.one_of(
        st.lists(st.integers(min_value=1, max_value=10**6), min_size=1,
                 max_size=250),
        _runs(st.integers(min_value=1, max_value=10**6)),
        _runs(st.integers(min_value=1, max_value=4)),  # heavy ties
    ),
    window=st.integers(min_value=1, max_value=100),
    q=st.floats(min_value=0.0001, max_value=1.0),
)
def test_quantile_matches_sorted_window_oracle(values, window, q):
    # checked after every sample, so every expiry, every prune and every
    # expiry of a sample next to a pruned one is read back
    dist = DelayDistribution(window, q)
    for seen, v in enumerate(values, 1):
        dist.observe(v)
        live = values[max(0, seen - window):seen]
        ordered = sorted(live)
        rank = min(max(math.ceil(q * len(ordered)), 1), len(ordered))
        assert dist.quantile() == ordered[rank - 1]
        assert len(dist) == len(live)
        assert dist.kept() <= len(live)


# -- deadline bound monotonicity ----------------------------------------------

@BATTERY
@given(
    d=st.integers(min_value=1, max_value=10**7),
    bump=st.integers(min_value=0, max_value=10**6),
    eta=st.integers(min_value=0, max_value=10**5),
    theta=st.integers(min_value=0, max_value=10**5),
    margin=st.integers(min_value=0, max_value=10**6),
)
def test_deadline_bound_monotone_in_every_input(d, bump, eta, theta, margin):
    base = compute_D(d, eta, theta, margin)
    assert compute_D(d + bump, eta, theta, margin) >= base
    assert compute_D(d, eta + bump, theta, margin) >= base
    assert compute_D(d, eta, theta + bump, margin) >= base
    assert compute_D(d, eta, theta, margin + bump) >= base


# -- promise invariant ---------------------------------------------------------

steps = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),  # the member that acts
        st.booleans(),                          # it broadcasts, or else acks
        st.integers(min_value=0, max_value=3),  # how far its ts or stamp moves
        st.integers(min_value=0, max_value=3),  # its link delay, in steps
    ),
    min_size=10, max_size=40,
)


@BATTERY
@given(steps)
def test_delivered_prefix_respects_promises(steps):
    """Members 1-3 broadcast and ack over FIFO links to node 0, and stamp
    each broadcast above every timestamp they sent before.  An ack covers
    everything sent so far and, as the protocol stamps it after admitting
    what it covers, exceeds those timestamps: the premise that lets the
    core deliver on coverage alone.  Whatever the interleaving, node 0
    delivers a message only once every member acked it with a stamp above
    its timestamp, node 0's own clock is past it, the delivered sequence
    is sorted by timestamp, and no later arrival undercuts it."""
    members = [0, 1, 2, 3]
    node = GmdNodeState(0, members)
    stamped = {m: 0 for m in members}  # each member's largest ts sent
    newest = {}  # member -> the stamp of its last ack to reach node 0
    sent = {m: [] for m in members}  # each sender's broadcast ts, by seq
    in_flight = []  # heap of (arrival step, send order, member, item)
    link_free = {m: 0 for m in members}  # arrival step of a link's last item

    def arrive(m, item):
        if item[0] == "msg":
            _, seq, ts = item
            assert all(ts > sent[d[0]][d[1]] for d in node.delivered)
            node.admit((m, seq), ts)
            node.clock.stamp(0)  # node 0 stamps its ack
        else:
            node.on_ack(m, item[2])
            newest[m] = item[1]
        while node.head_deliverable():  # as the insurance node delivers
            node.deliver_head()
        delivered_ts = [sent[d[0]][d[1]] for d in node.delivered]
        assert delivered_ts == sorted(delivered_ts)
        promised = {**newest, 0: node.clock.last}
        for d in node.delivered:
            assert all(promised[p] > sent[d[0]][d[1]]
                       for p in members if p != d[0])
            assert all(node.acks[p].get(d[0], -1) >= d[1]
                       for p in members if p not in (0, d[0]))

    for now, (m, bcast, k, delay) in enumerate(steps):
        while in_flight and in_flight[0][0] <= now:
            arrive(*heapq.heappop(in_flight)[2:])
        if m == 0:
            if bcast:
                ts = node.clock.stamp(k)
                node.admit((0, len(sent[0])), ts)
                sent[0].append(ts)
            continue
        if bcast:
            stamped[m] += 1 + k
            item = ("msg", len(sent[m]), stamped[m])
            sent[m].append(stamped[m])
        else:
            top = max((ts for s in members for ts in sent[s]), default=0)
            stamped[m] = max(stamped[m], top + 1 + k)
            item = ("ack", stamped[m],
                    {s: len(sent[s]) - 1 for s in members if sent[s]})
        link_free[m] = max(now + delay, link_free[m])  # FIFO per link
        heapq.heappush(in_flight, (link_free[m], now, m, item))
    while in_flight:
        arrive(*heapq.heappop(in_flight)[2:])
    for mid in node.delivered:
        assert mid not in node.pending


# -- ack stamps in real runs --------------------------------------------------

# The premise that lets the GMD core deliver on coverage alone, read off the
# trace of whole runs: every mode, with loss, a crash, and clocks that drift
# and are resynchronised.
stamp_knobs = st.fixed_dictionaries({
    "seed": st.integers(min_value=0, max_value=2**31),
    "mode": st.sampled_from(["GMD_ONLY", "HYBRID", "HYBRID_ON_SUSPICION"]),
    "nodes": st.integers(min_value=3, max_value=5),
    "drop": st.sampled_from([0.0, 0.01, 0.05]),
    "drift_ppm": st.sampled_from([0, 50, 200]),
    "victim": st.integers(min_value=0, max_value=4),
    "crash_us": st.integers(min_value=100_000, max_value=600_000),
})


def _stamp_scenario(knobs):
    return config_from_dict({
        "seed": knobs["seed"], "duration_us": 1_000_000, "mode": knobs["mode"],
        "num_client_nodes": knobs["nodes"],
        "network": {
            "delay": {"family": "lognormal", "median_us": 2000, "sigma": 0.5},
            "drop_prob": knobs["drop"],
        },
        "crash_schedule": [{"node": knobs["victim"] % knobs["nodes"],
                            "at_us": knobs["crash_us"]}],
        "view_install_delay_us": 150_000,
        "resync_interval_us": 100_000,
        "heartbeat_interval_us": 50_000,
        "suspicion_timeout_us": 120_000,
        "clock": {"init_offset_max_us": 500,
                  "drift_ppm_max": knobs["drift_ppm"],
                  "sync_enabled": True, "sync_bound_us": 3000},
        "workload": {"kind": "broadcast", "arrival_rate_per_s": 300.0,
                     "stop_margin_us": 250_000},
    })


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(stamp_knobs)
def test_acks_are_stamped_above_what_they_cover(knobs):
    """Each ``INS_ACK`` arrival's stamp ``ats`` exceeds the ``BCAST`` ts of
    every message its vector covers, and rises strictly along each (acker,
    receiver) link, so the last ack to arrive from a member is its
    newest.

    An arrival records only the entries that moved since the acker's
    previous ack, and those are checked against its stamp; an entry that
    did not move passed at an earlier, lower stamp on the same link, or,
    after a lost ack, is checked in the ``ACK_FULL`` record that follows
    the arrival."""
    bcast_ts, last = {}, {}

    def covered_below(vector, ats):
        for sender, seq in vector.items():
            assert ats > bcast_ts[f"{sender}:{seq}"]

    with run_scenario(_stamp_scenario(knobs)).trace as trace:
        for rec in trace:
            if rec.event_kind == "BCAST":
                bcast_ts[rec.msg_id] = rec.fields["ts"]
            elif rec.event_kind == "INS_ACK":
                ats, link = rec.fields["ats"], (rec.fields["frm"], rec.node)
                assert ats > last.get(link, -1)
                last[link] = ats
                covered_below(rec.fields.get("d", {}), ats)
            elif rec.event_kind == "ACK_FULL":
                covered_below(rec.fields["seen"],
                              last[(rec.fields["frm"], rec.node)])
    assert last


# -- duplication idempotence ----------------------------------------------------

dup_knobs = st.fixed_dictionaries({
    "seed": st.integers(min_value=0, max_value=2**31),
    "senders": st.lists(st.integers(min_value=0, max_value=2), min_size=1,
                        max_size=8),
})


def _run_cluster(seed, senders, duplicate):
    eng = Engine(seed, NetworkModel(DelaySpec("uniform", low_us=100,
                                              high_us=3000)))
    members = [0, 1, 2]
    cfg = ScenarioConfig(seed, 1, eta_us=500, theta_us=300, default_d_us=4000)
    nodes = {}
    for i in members:
        node = InsuranceNode(eng, i, members, cfg)
        nodes[i] = node
        eng.add_node(i, on_message=node.on_message, on_timer=node.on_timer)
    if duplicate:
        original = eng.send

        def doubled(frm, to, kind, msg_id, payload, detail=""):
            original(frm, to, kind, msg_id, payload, detail)
            original(frm, to, kind, msg_id, payload, detail)

        eng.send = doubled
    for step, sender in enumerate(senders):
        eng.run_until(step * 5000)
        nodes[sender].broadcast(step)
    eng.run_until(10_000_000)
    return {i: list(nodes[i].gmd.delivered) for i in members}


@BATTERY
@given(dup_knobs)
def test_duplicated_messages_change_nothing(knobs):
    plain = _run_cluster(knobs["seed"], knobs["senders"], duplicate=False)
    doubled = _run_cluster(knobs["seed"], knobs["senders"], duplicate=True)
    assert doubled == plain
    assert all(len(seq) == len(knobs["senders"]) for seq in plain.values())


# -- hole invariant ----------------------------------------------------------

# Members 1-3 broadcast, relay and ack, each over its own FIFO link to node
# 0, which receives or loses the item at the head of a link.  Before it
# acks, a member catches up on up to ``arg`` more of each other member's
# messages, in seq order.  An ack carries its version and the entries that
# moved since the member's previous ack, so a lost ack makes node 0 read
# the next one whole.
hole_steps = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=3),  # the member that acts
        st.sampled_from(["bcast", "ack", "relay", "arrive", "arrive", "lose"]),
        st.integers(min_value=0, max_value=7),  # catch-up, or which to relay
    ),
    min_size=10, max_size=80)


def _contig(seqs) -> int:
    c = -1
    while c + 1 in seqs:
        c += 1
    return c


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(hole_steps)
@example([  # member 2's ack that moved sender 1 is lost; its next is read
    (1, "bcast", 0), (1, "lose", 0), (2, "ack", 1), (2, "lose", 0),
    (2, "ack", 0), (2, "arrive", 0)])
def test_a_sender_with_a_hole_has_one_just_above_its_watermark(steps):
    """Whatever reaches node 0, in any order, after every step each
    sender with an open hole has one at ``contig + 1``, and no hole names
    a held message: the premise of ``_gap_blocks``.  Every seq that a copy
    or a vector to reach node 0 gave evidence of is held or is a hole,
    though an ack's gap scan reads only what moved since the ack before."""
    eng = Engine(1, NetworkModel(DelaySpec("fixed", value_us=1000)))
    members = [0, 1, 2, 3]
    node = InsuranceNode(eng, 0, members, ScenarioConfig(1, 1))
    eng.add_node(0, on_message=node.on_message, on_timer=node.on_timer)
    stamp = itertools.count(1)  # timestamps and promises, rising
    ts = {}  # msg id -> its timestamp
    held = {m: {s: set() for s in members} for m in members}
    acked = {m: {} for m in members}  # each member's last vector sent
    sent = {m: 0 for m in members}  # each member's acks sent
    links = {m: deque() for m in members}  # the FIFO link from m to node 0
    evidence = {}  # sender -> the highest seq that reached node 0
    for m, action, arg in steps:
        link = links[m]
        if action == "bcast":
            mid = (m, len(held[m][m]))
            ts[mid] = next(stamp)
            held[m][m].add(mid[1])
            link.append(("INS_MSG", InsuranceMessage(mid, ts[mid], 1000, 1)))
        elif action == "ack":
            for s in members:
                for q in sorted(held[s][s] - held[m][s])[:arg]:
                    held[m][s].add(q)
            seen = {s: _contig(held[m][s]) for s in members if held[m][s]}
            changed = {s: c for s, c in seen.items() if acked[m].get(s) != c}
            acked[m] = seen
            sent[m] += 1
            link.append(("INS_ACK",
                         InsuranceAck(next(stamp), seen, sent[m], changed)))
        elif action == "relay":
            mids = [(s, q) for s in members if s != m
                    for q in sorted(held[m][s])]
            if mids:
                mid = mids[arg % len(mids)]
                link.append(("INS_RELAY", InsuranceMessage(
                    mid, ts[mid], 1000, 1, relayed_by=m)))
        elif link:
            kind, item = link.popleft()
            if action == "arrive":
                node.on_message(m, kind, "", item)
                marks = (item.seen if kind == "INS_ACK"
                         else dict([item.msg_id]))
                for s, q in marks.items():
                    evidence[s] = max(evidence.get(s, -1), q)
        for sender, seq in node.holes:
            assert (sender, node.contig.get(sender, -1) + 1) in node.holes
            assert (sender, seq) not in node.store
        for sender, top in evidence.items():
            for seq in range(node.contig.get(sender, -1) + 1, top + 1):
                assert (sender, seq) in node.store or (sender, seq) in node.holes


# -- order-service response cache ----------------------------------------------

# One host and one server.  The host sends copies of four transactions'
# requests, the server serves its queued copies, and answers reach the host,
# in any interleaving.  The host sends no copy of an answered transaction,
# and its next copy, of any transaction, confirms its new answers.
cache_steps = st.lists(
    st.tuples(st.sampled_from(["copy", "serve", "answer"]),
              st.integers(min_value=0, max_value=3)),
    max_size=60)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(steps=cache_steps, admission=st.booleans())
def test_cached_responses_go_only_after_every_copy_is_handled(steps,
                                                              admission):
    srv = OrderServerState(rate_per_s=1000.0, burst=1,
                           admission_enabled=admission)
    sent = {f"t{i}": 0 for i in range(4)}
    first = {}  # tx_id -> the first response any copy got
    queue, inbox, answered, unconfirmed = [], [], set(), []

    def handled(resp):
        assert first.setdefault(resp.tx_id, resp).order_no == resp.order_no
        inbox.append(resp)

    for now_us, (action, i) in enumerate(steps):
        tx_id = f"t{i}"
        if action == "copy" and tx_id not in answered and sent[tx_id] < 4:
            req = OrderRequest(tx_id, 0, frozenset({0}), tuple(unconfirmed))
            unconfirmed.clear()
            sent[tx_id] += 1
            verdict = srv.admit(req, now_us * 300)
            if verdict == ADMIT:
                queue.append(req)
            elif verdict != REJECT:
                handled(verdict)
        elif action == "serve" and queue:
            handled(srv.assign(queue.pop(0)))
        elif action == "answer":
            resp = next((r for r in inbox if r.tx_id == tx_id), None)
            if resp is not None:
                inbox.remove(resp)
                if tx_id not in answered:
                    answered.add(tx_id)
                    unconfirmed.append((tx_id, sent[tx_id]))
    while queue:
        handled(srv.assign(queue.pop(0)))
    for resp in inbox:
        if resp.tx_id not in answered:
            answered.add(resp.tx_id)
            unconfirmed.append((resp.tx_id, sent[resp.tx_id]))
    srv.confirm(unconfirmed)
    assert srv.responses == {} and srv.confirmed == {}
    # only a transaction whose every copy was rejected is still counted
    assert set(srv.handled) == {t for t, n in sent.items()
                                if n and t not in answered}


# -- scenario campaign ---------------------------------------------------------

# The insured modes must not stall once the load has stopped: a 500 ms stop
# margin covers two heartbeats, the time a heartbeat ack takes to replace a
# lost one, and every crash's view change lands before the end.  GMD_ONLY is
# left out: it has no heartbeat, and nothing yet replaces its lost last ack.
campaign_knobs = st.fixed_dictionaries({
    "seed": st.integers(min_value=0, max_value=2**31),
    "mode": st.sampled_from(["HYBRID", "HYBRID_ON_SUSPICION"]),
    "nodes": st.integers(min_value=3, max_value=6),
    "sigma": st.sampled_from([0.25, 0.5]),
    "drop": st.sampled_from([0.0, 0.01, 0.03, 0.05]),
    "rate": st.sampled_from([50.0, 100.0, 200.0]),
    "heartbeat_us": st.sampled_from([100_000, 200_000]),
    "suspicion_us": st.sampled_from([300_000, 3_000_000]),
    # (victim index, crash time, view change delay), or no crash
    "crash": st.one_of(
        st.none(),
        st.tuples(st.integers(min_value=0, max_value=5),
                  st.integers(min_value=300_000, max_value=1_000_000),
                  st.integers(min_value=300_000, max_value=600_000))),
})


def _campaign_scenario(knobs):
    cfg = {
        "seed": knobs["seed"], "duration_us": 2_000_000,
        "mode": knobs["mode"], "num_client_nodes": knobs["nodes"],
        "network": {
            "delay": {"family": "lognormal", "median_us": 5000,
                      "sigma": knobs["sigma"]},
            "drop_prob": knobs["drop"],
        },
        "heartbeat_interval_us": knobs["heartbeat_us"],
        "suspicion_timeout_us": knobs["suspicion_us"],
        "workload": {"kind": "broadcast", "arrival_rate_per_s": knobs["rate"],
                     "stop_margin_us": 500_000},
    }
    if knobs["crash"] is not None:
        victim, at_us, view_delay_us = knobs["crash"]
        cfg["crash_schedule"] = [{"node": victim % knobs["nodes"],
                                  "at_us": at_us}]
        cfg["view_install_delay_us"] = view_delay_us
    return config_from_dict(cfg)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(campaign_knobs)
def test_insured_modes_deliver_everything_once_the_load_stops(knobs):
    result = run_scenario(_campaign_scenario(knobs))
    m = result.metrics
    assert m.undelivered_at_end == 0
    assert m.order_violations == 0 or m.case2_count > 0
    for ids in result.delivered.values():
        assert len(ids) == len(set(ids))
