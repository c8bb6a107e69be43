import heapq
import itertools
import math
from collections import deque

from hypothesis import given, settings, strategies as st

from hybridcast.config import config_from_dict
from hybridcast.delays import DelayDistribution, compute_D
from hybridcast.gmd import GmdNodeState
from hybridcast.harness import run_scenario
from hybridcast.insurance import (InsuranceAck, InsuranceMessage,
                                  InsuranceNode, ProtocolParams)
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
    first = "\n".join(run_scenario(_scenario(knobs)).trace.to_csv_lines())
    second = "\n".join(run_scenario(_scenario(knobs)).trace.to_csv_lines())
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
        st.integers(min_value=0, max_value=3),  # how far its ts or promise moves
        st.integers(min_value=0, max_value=3),  # its link delay, in steps
    ),
    min_size=10, max_size=40,
)


@BATTERY
@given(steps)
def test_delivered_prefix_respects_promises(steps):
    """Members 1-3 broadcast and ack over FIFO links to node 0, and stamp
    each broadcast above every timestamp and promise they sent before.  An
    ack covers everything sent so far, and its promise need not exceed
    those timestamps: the core's only premise is that the member's later
    broadcasts exceed it.  Whatever the interleaving, node 0 delivers a
    message only once every member acked it and promised to stay above its
    timestamp, the delivered sequence is sorted by timestamp, and no later
    arrival undercuts it."""
    members = [0, 1, 2, 3]
    node = GmdNodeState(0, members)
    promised = {m: 0 for m in members}  # each member's largest ts sent
    sent = {m: [] for m in members}  # each sender's broadcast ts, by seq
    in_flight = []  # heap of (arrival step, send order, member, item)
    link_free = {m: 0 for m in members}  # arrival step of a link's last item

    def arrive(m, item):
        if item[0] == "msg":
            _, seq, ts = item
            assert all(ts > sent[d[0]][d[1]] for d in node.delivered)
            node.on_receive((m, seq), ts, 0)
        else:
            node.on_ack(m, item[1], item[2])
        node.try_deliver()
        delivered_ts = [sent[d[0]][d[1]] for d in node.delivered]
        assert delivered_ts == sorted(delivered_ts)
        for d in node.delivered:
            assert all(node.promise[p] > sent[d[0]][d[1]]
                       for p in members if p != d[0])
            assert all(node.acks[p][1].get(d[0], -1) >= d[1]
                       for p in members if p not in (0, d[0]))

    for now, (m, bcast, k, delay) in enumerate(steps):
        while in_flight and in_flight[0][0] <= now:
            arrive(*heapq.heappop(in_flight)[2:])
        if m == 0:
            if bcast:
                ts = node.assign_timestamp(k)
                node.add_own((0, len(sent[0])), ts)
                sent[0].append(ts)
            continue
        if bcast:
            promised[m] += 1 + k
            item = ("msg", len(sent[m]), promised[m])
            sent[m].append(promised[m])
        else:
            top = max((ts for s in members for ts in sent[s]), default=0)
            promised[m] = max(promised[m], top + k)
            item = ("ack", promised[m],
                    {s: len(sent[s]) - 1 for s in members if sent[s]})
        link_free[m] = max(now + delay, link_free[m])  # FIFO per link
        heapq.heappush(in_flight, (link_free[m], now, m, item))
    while in_flight:
        arrive(*heapq.heappop(in_flight)[2:])
    for mid in node.delivered:
        assert mid not in node.pending


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
    params = ProtocolParams(eta_us=500, theta_us=300, default_d_us=4000)
    nodes = {}
    for i in members:
        node = InsuranceNode(eng, i, members, params)
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
# messages, in seq order.
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
def test_a_sender_with_a_hole_has_one_just_above_its_watermark(steps):
    """Whatever reaches node 0, in any order, after every step each
    sender with an open hole has one at ``contig + 1``, and no hole names
    a held message: the premise of ``_gap_blocks``."""
    eng = Engine(1, NetworkModel(DelaySpec("fixed", value_us=1000)))
    members = [0, 1, 2, 3]
    node = InsuranceNode(eng, 0, members, ProtocolParams())
    eng.add_node(0, on_message=node.on_message, on_timer=node.on_timer)
    stamp = itertools.count(1)  # timestamps and promises, rising
    ts = {}  # msg id -> its timestamp
    held = {m: {s: set() for s in members} for m in members}
    links = {m: deque() for m in members}  # the FIFO link from m to node 0
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
            link.append(("INS_ACK", InsuranceAck(m, next(stamp), seen)))
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
        for sender, seq in node.holes:
            assert (sender, node.contig.get(sender, -1) + 1) in node.holes
            assert (sender, seq) not in node.store


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
