import math

from hypothesis import given, settings, strategies as st

from hybridcast.config import config_from_dict
from hybridcast.delays import DelayBoundConfig, DelayDistribution, compute_D
from hybridcast.gmd import GmdMessage, GmdNodeState
from hybridcast.harness import run_scenario
from hybridcast.insurance import InsuranceNode, ProtocolParams
from hybridcast.kernel import DelaySpec, Engine, NetworkModel

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

@BATTERY
@given(
    values=st.lists(st.integers(min_value=1, max_value=10**6), min_size=1,
                    max_size=250),
    window=st.integers(min_value=1, max_value=100),
    q=st.floats(min_value=0.0001, max_value=1.0),
)
def test_quantile_matches_sorted_window_oracle(values, window, q):
    dist = DelayDistribution(window)
    for v in values:
        dist.observe(v)
    live = values[-window:]
    ordered = sorted(live)
    rank = min(max(math.ceil(q * len(ordered)), 1), len(ordered))
    assert dist.quantile(q) == ordered[rank - 1]
    assert dist.window() == live


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
    cfg = DelayBoundConfig(eta_us=eta, theta_us=theta, safety_margin_us=margin)
    base = compute_D(d, cfg)
    assert compute_D(d + bump, cfg) >= base
    assert compute_D(d, DelayBoundConfig(eta_us=eta + bump, theta_us=theta,
                                         safety_margin_us=margin)) >= base
    assert compute_D(d, DelayBoundConfig(eta_us=eta, theta_us=theta + bump,
                                         safety_margin_us=margin)) >= base
    assert compute_D(d, DelayBoundConfig(eta_us=eta, theta_us=theta,
                                         safety_margin_us=margin + bump)) >= base


# -- promise invariant ---------------------------------------------------------

events = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),   # sender
        st.integers(min_value=0, max_value=5),   # seq
        st.integers(min_value=1, max_value=500),  # ts basis
        st.booleans(),                            # also feed acks from peers
    ),
    min_size=1, max_size=30,
)


@BATTERY
@given(events)
def test_delivered_prefix_respects_promises(evts):
    """Whatever arrives in whatever order, a node only delivers a message
    once every member acked it and promised to stay above its timestamp,
    and the delivered sequence is sorted by (ts, sender)."""
    members = [0, 1, 2, 3]
    node = GmdNodeState(0, members)
    seen_mid = set()
    for sender, seq, ts_base, with_acks in evts:
        mid = (sender, seq)
        if mid in seen_mid:
            continue
        seen_mid.add(mid)
        ts = ts_base * 4 + sender  # unique, sender-tagged timestamps
        if sender == 0:
            node.add_own(GmdMessage(mid, node.assign_timestamp(ts)))
        else:
            node.on_receive(GmdMessage(mid, ts), ts)
        if with_acks:
            for peer in members:
                if peer != sender and peer != 0:
                    node.on_ack(peer, ts + peer + 1, {sender: seq})
        delivered_ts = [node.delivered_ts[m] for m in node.delivered]
        assert delivered_ts == sorted(delivered_ts)
        for m in node.delivered:
            assert all(node.promise[p] > node.delivered_ts[m]
                       for p in members if p != m[0])
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
