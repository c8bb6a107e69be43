import itertools
import random

import pytest

from hybridcast.config import config_from_dict
from hybridcast.errors import UnknownTransactionError
from hybridcast.kernel import DelaySpec, Engine, NetworkModel
from hybridcast.ordering import (
    ADMIT,
    MODE_DIRECT,
    MODE_SERVICE,
    REJECT,
    OrderRequest,
    OrderServer,
    OrderServerState,
    ParticipantState,
    TokenBucket,
    TxClient,
    message_cost_model,
)
from hybridcast.runtime import OrderingRuntime


class TestTokenBucket:
    def test_burst_then_reject(self):
        bucket = TokenBucket(rate_per_s=10, burst=3)
        grants = [bucket.admit(0) for _ in range(4)]
        assert grants == ["ADMIT", "ADMIT", "ADMIT", "REJECT"]

    def test_refill_over_time(self):
        bucket = TokenBucket(rate_per_s=10, burst=3)
        for _ in range(3):
            bucket.admit(0)
        assert bucket.admit(0) == "REJECT"
        # 10/s means one token every 100ms
        assert bucket.admit(100_000) == "ADMIT"
        assert bucket.admit(100_000) == "REJECT"

    def test_never_exceeds_burst(self):
        bucket = TokenBucket(rate_per_s=1000, burst=2)
        bucket.admit(0)
        grants = [bucket.admit(10_000_000) for _ in range(4)]
        assert grants.count("ADMIT") == 2


class TestOrderServer:
    def test_dense_order_numbers(self):
        srv = OrderServerState()
        nums = [
            srv.assign(OrderRequest(f"t{i}", 0, frozenset({0, 1}))).order_no
            for i in range(5)
        ]
        assert nums == [1, 2, 3, 4, 5]

    def test_histories_list_preceding_txs_per_participant(self):
        srv = OrderServerState()
        srv.assign(OrderRequest("a", 0, frozenset({1, 2})))
        srv.assign(OrderRequest("b", 0, frozenset({2, 3})))
        resp = srv.assign(OrderRequest("c", 0, frozenset({1, 2, 3})))
        assert resp.histories == {1: ["a"], 2: ["a", "b"], 3: ["b"]}

    def test_history_depth_truncates(self):
        srv = OrderServerState(history_depth=2)
        for i in range(5):
            srv.assign(OrderRequest(f"t{i}", 0, frozenset({7})))
        resp = srv.assign(OrderRequest("last", 0, frozenset({7})))
        assert resp.histories == {7: ["t3", "t4"]}

    def test_log_keeps_only_the_history_window(self):
        srv = OrderServerState(history_depth=3)
        for i in range(10):
            srv.assign(OrderRequest(f"t{i}", 0, frozenset({i % 2, 2})))
        assert {p: list(log) for p, log in srv.per_participant_log.items()} == {
            0: ["t4", "t6", "t8"], 1: ["t5", "t7", "t9"], 2: ["t7", "t8", "t9"]}

    def test_duplicate_request_is_idempotent_and_skips_admission(self):
        srv = OrderServerState(rate_per_s=1, burst=1)
        first = srv.handle_order_request(OrderRequest("a", 0, frozenset({0})), 0)
        again = srv.handle_order_request(OrderRequest("a", 0, frozenset({0})), 0)
        assert again is first
        assert srv.rejected == 0

    def test_rejection_counted(self):
        srv = OrderServerState(rate_per_s=1, burst=1)
        srv.handle_order_request(OrderRequest("a", 0, frozenset({0})), 0)
        out = srv.handle_order_request(OrderRequest("b", 0, frozenset({0})), 0)
        assert out == REJECT
        assert srv.rejected == 1

    def test_admission_assigns_nothing_and_assignment_is_idempotent(self):
        srv = OrderServerState(rate_per_s=1, burst=2)
        req = OrderRequest("a", 0, frozenset({0}))
        # a retry admitted while the first copy still waits for service
        assert srv.admit(req, 0) == ADMIT
        assert srv.admit(req, 0) == ADMIT
        assert srv.next_order_no == 1 and srv.responses == {}
        first = srv.assign(req)
        assert srv.assign(req) is first
        assert srv.next_order_no == 2
        assert srv.admit(req, 0) is first  # no token spent on a cached one
        assert srv.admit(OrderRequest("b", 0, frozenset({0})), 0) == REJECT

    def test_a_confirmed_response_goes_once_its_last_copy_is_handled(self):
        srv = OrderServerState()
        req = OrderRequest("a", 0, frozenset({0}))
        first = srv.handle_order_request(req, 0)
        assert srv.handle_order_request(req, 0) is first  # from the cache
        srv.confirm((("a", 3),))  # the host sent three copies
        assert srv.responses == {"a": first}
        assert srv.handle_order_request(req, 0) is first  # the last one
        assert srv.responses == {} and srv.handled == {}
        assert srv.confirmed == {}

    def test_a_rejected_copy_counts_as_handled(self):
        srv = OrderServerState(rate_per_s=1, burst=1)
        srv.handle_order_request(OrderRequest("x", 0, frozenset({0})), 0)
        req = OrderRequest("a", 0, frozenset({0}))
        assert srv.handle_order_request(req, 0) == REJECT
        srv.handle_order_request(req, 1_000_000)  # the retry is numbered
        assert "a" in srv.responses
        srv.confirm((("a", 2),))
        assert "a" not in srv.responses

    def test_a_confirmation_before_a_queued_copy_keeps_its_response(self):
        srv = OrderServerState()
        req = OrderRequest("a", 0, frozenset({0}))
        assert srv.admit(req, 0) == ADMIT
        assert srv.admit(req, 0) == ADMIT  # a retry queued behind it
        first = srv.assign(req)
        srv.confirm((("a", 2),))  # the host got the first copy's answer
        assert srv.responses == {"a": first}
        assert srv.assign(req) is first
        assert srv.responses == {} and srv.confirmed == {}

    def test_a_copy_that_never_arrives_keeps_the_response(self):
        srv = OrderServerState()
        first = srv.handle_order_request(
            OrderRequest("a", 0, frozenset({0})), 0)
        srv.confirm((("a", 2),))  # the other copy was lost
        assert srv.responses == {"a": first}
        assert srv.handled == {"a": 1} and srv.confirmed == {"a": 2}

    def test_a_confirmation_for_a_copy_not_handled_here_stores_nothing(self):
        srv = OrderServerState()
        srv.confirm((("elsewhere", 1),))  # answered by another server
        req = OrderRequest("a", 0, frozenset({0}))
        assert srv.admit(req, 0) == ADMIT  # still in the queue
        srv.confirm((("a", 1),))
        assert srv.handled == {} and srv.confirmed == {}
        first = srv.assign(req)
        assert srv.responses == {"a": first}  # kept: a safe leak

    def test_mirror_numbers_past_and_logs_the_primarys_assignments(self):
        rng = random.Random(7)
        primary = OrderServerState(history_depth=4)
        backup = OrderServerState(history_depth=4)
        for i in range(1, 41):
            group = frozenset(rng.sample(range(6), rng.randint(1, 3)))
            backup.mirror(primary.assign(OrderRequest(f"t{i}", 0, group)))
        assert backup.responses == {}  # the cache is not mirrored
        assert backup.per_participant_log == primary.per_participant_log
        req = OrderRequest("next", 0, frozenset(range(6)))
        mine, theirs = backup.assign(req), primary.assign(req)
        assert mine.order_no == theirs.order_no == 41
        assert mine.histories == theirs.histories
        assert all(len(h) == 4 for h in mine.histories.values())

    def test_history_oracle_brute_force(self):
        """1000 random requests against a from-scratch recomputation."""
        rng = random.Random(2024)
        depth = 4
        srv = OrderServerState(history_depth=depth)
        full_log = {}  # participant -> [tx_id, ...] in assignment order
        for i in range(1000):
            group = frozenset(rng.sample(range(8), rng.randint(1, 4)))
            expected = {p: list(full_log.get(p, []))[-depth:] for p in group}
            resp = srv.assign(OrderRequest(f"t{i}", 0, group))
            assert resp.order_no == i + 1
            assert resp.histories == expected
            for p in group:
                full_log.setdefault(p, []).append(f"t{i}")


def order_service(service_time_us=0, rate_per_s=1000.0, burst=100,
                  jump_gap=10):
    """Servers 1000-1002 (1002 active) and a client 0 on 1 ms links; the
    client's arrivals are collected as (time, kind, msg_id, payload)."""
    engine = Engine(1, NetworkModel(delay=DelaySpec("fixed", value_us=1000)))
    got = []
    engine.add_node(0, on_message=lambda frm, kind, msg_id, payload:
                    got.append((engine.now, kind, msg_id, payload)))
    ids = (1000, 1001, 1002)
    group = {}
    for s in ids:
        state = OrderServerState(rate_per_s=rate_per_s, burst=burst)
        server = group[s] = OrderServer(engine, s, ids, 1002, state,
                                        service_time_us, jump_gap)
        engine.add_node(s, on_message=server.on_message,
                        on_timer=server.on_timer)
    return engine, group, got


def request(engine, server, tx_id, kind="ORDER_REQ", answered=()):
    engine.send(0, server, kind, tx_id,
                OrderRequest(tx_id, 0, frozenset({0}), answered))


def records(engine, kind):
    return [r for r in engine.trace if r.event_kind == kind]


class TestOrderServerNode:
    def test_spare_forwards_to_the_active_server(self):
        engine, group, got = order_service()
        request(engine, 1000, "a")
        engine.run_until(10_000)
        assert [(t, kind, resp.order_no) for t, kind, _, resp in got] == [
            (3000, "ORDER_RESP", 1)]
        forwards = records(engine, "SEQ_FWD")
        assert [(r.node, r.fields["via"]) for r in forwards] == [(1002, 1000)]
        assert group[1000].state.responses == {}

    @pytest.mark.parametrize("service, answer", [
        (dict(burst=0), (3000, "ORDER_REJECT")),
        (dict(service_time_us=300), (3300, "ORDER_RESP")),
    ])
    def test_a_forwarded_request_is_answered_to_its_host(self, service,
                                                         answer):
        engine, group, got = order_service(**service)
        request(engine, 1000, "a")  # forwarded on at 1000 us
        engine.run_until(10_000)
        # the active server answers the host, not the spare
        assert [(t, kind) for t, kind, *_ in got] == [answer]

    def test_queue_serves_in_fifo_order(self):
        engine, group, got = order_service(service_time_us=300)
        for tx_id in ("a", "b", "c"):
            request(engine, 1002, tx_id)
        engine.run_until(10_000)
        # all three arrive at 1000 us; one is served every 300 us
        assert [(t, resp.tx_id, resp.order_no) for t, _, _, resp in got] == [
            (2300, "a", 1), (2600, "b", 2), (2900, "c", 3)]
        assert group[1002].max_queue == 3
        assert not group[1002].queue

    def test_duplicate_queued_behind_its_first_copy_gets_the_same_number(self):
        engine, group, got = order_service(service_time_us=300)
        request(engine, 1002, "a")
        request(engine, 1002, "a", kind="ORDER_RETRY")
        engine.run_until(10_000)
        assert [(resp.tx_id, resp.order_no) for *_, resp in got] == [
            ("a", 1), ("a", 1)]
        # each service traces ORDER_ASSIGN and notes the number to both peers
        assert len(records(engine, "ORDER_ASSIGN")) == 2
        assert engine.send_counts["SEQ_NOTE"] == 4
        assert group[1002].state.next_order_no == 2

    def test_a_forwarded_copy_confirmed_before_it_lands_gets_the_answer(self):
        engine, group, got = order_service()
        request(engine, 1002, "a")  # answered at 1000 us
        request(engine, 1000, "a", kind="ORDER_RETRY")  # at 1002 at 2000 us
        engine.run_until(500)
        # the host's next request confirms both copies; it lands at 1500 us
        request(engine, 1002, "b", answered=(("a", 2),))
        engine.run_until(1500)
        state = group[1002].state
        assert set(state.responses) == {"a", "b"}
        engine.run_until(10_000)
        answers = [resp for _, kind, tx_id, resp in got if tx_id == "a"]
        assert len(answers) == 2 and answers[1] is answers[0]
        assert set(state.responses) == {"b"}

    def test_rejection_is_counted_and_traced_once(self):
        engine, group, got = order_service(rate_per_s=1, burst=1)
        request(engine, 1002, "a")
        request(engine, 1002, "b")
        engine.run_until(10_000)
        assert [(kind, msg_id) for _, kind, msg_id, _ in got] == [
            ("ORDER_RESP", "a"), ("ORDER_REJECT", "b")]
        assert [(r.node, r.msg_id) for r in records(engine, "REJECT")] == [
            (1002, "b")]
        assert group[1002].state.rejected == 1

    def test_promotion_resumes_past_what_the_successor_mirrored(self):
        engine, group, got = order_service(jump_gap=10)
        request(engine, 1002, "a")  # numbered at 1000 us, noted at 2000 us
        engine.schedule_crash(1002, 1500)
        for s in (1000, 1001):
            engine.set_timer_at(s, 1501, ("promote",))
        engine.run_until(1501)
        # order 1's note is still in flight: the successor has mirrored
        # nothing, so it numbers from 1 + jump_gap
        assert [(r.node, r.fields["resume"])
                for r in records(engine, "TAKEOVER")] == [(1001, 11)]
        # each operative server switched itself; the crashed one was left
        assert {s: server.active for s, server in group.items()} == {
            1000: 1001, 1001: 1001, 1002: 1002}
        request(engine, 1000, "b")
        engine.run_until(10_000)
        assert [(resp.tx_id, resp.order_no) for *_, resp in got] == [
            ("a", 1), ("b", 11)]
        # the note landed at 2000 us and entered the successor's log
        assert got[1][3].histories == {0: ["a"]}

    def test_backups_mirror_the_primarys_log(self):
        rt = OrderingRuntime(config_from_dict({
            "seed": 3, "duration_us": 1_000_000,
            "num_client_nodes": 5, "num_order_servers": 3,
            "network": {"delay": {"family": "lognormal", "median_us": 3000,
                                  "sigma": 0.5}},
            "workload": {"kind": "transactions", "arrival_rate_per_s": 200.0,
                         "participant_count_dist": 3, "ordering": "SERVICE",
                         "stop_margin_us": 300_000}}))
        rt.engine.run_until(1_000_000)  # the last notes land in the margin
        primary = rt.servers[1002].state
        assert primary.next_order_no > 100
        for s in (1000, 1001):
            backup = rt.servers[s].state
            assert backup.per_participant_log == primary.per_participant_log
            assert backup.next_order_no == primary.next_order_no


DIRECT_CFG = config_from_dict({
    "seed": 1, "duration_us": 1_000_000, "num_client_nodes": 3,
    "workload": {"kind": "transactions", "participant_count_dist": 3,
                 "ordering": "DIRECT"}})


def direct_client(engine, node_id):
    """A DIRECT client on ``engine``, built without any runtime."""
    node = TxClient(engine, node_id, DIRECT_CFG, (), itertools.count())
    engine.add_node(node_id, on_message=node.on_message,
                    on_timer=node.on_timer)
    return node


def one_ms_engine():
    return Engine(1, NetworkModel(delay=DelaySpec("fixed", value_us=1000)))


def exec_records(engine):
    return [(r.node, r.msg_id, r.fields["ts"])
            for r in records(engine, "EXEC")]


class TestTxClientDirect:
    def test_executes_in_ts_then_host_order_once_all_acks_are_in(self):
        engine = one_ms_engine()
        node = direct_client(engine, 2)  # fed by hand: no peer is built
        node.on_message(1, "TX_MSG", "b", ("b", 5000, (1, 0, 2)))
        node.on_message(0, "TX_MSG", "a", ("a", 5000, (0, 1, 2)))
        node.on_message(0, "TX_ACK", "b", ("b", 0, 5001))
        node.on_message(1, "TX_ACK", "b", ("b", 1, 5001))
        # b holds all three acks, but a, stamped the same by a lower host,
        # comes first and is still pending
        assert exec_records(engine) == []
        node.on_message(1, "TX_ACK", "a", ("a", 1, 5002))
        assert exec_records(engine) == []  # two of a's three acks
        node.on_message(0, "TX_ACK", "a", ("a", 0, 5002))
        assert exec_records(engine) == [(2, "a", 5000), (2, "b", 5000)]
        assert node.pending == [] and node.acks == {}

    def test_a_fully_acked_transaction_waits_behind_an_earlier_one(self):
        engine = one_ms_engine()
        node = direct_client(engine, 2)
        node.on_message(0, "TX_MSG", "early", ("early", 100, (0, 1, 2)))
        node.on_message(1, "TX_MSG", "late", ("late", 200, (1, 2)))
        node.on_message(1, "TX_ACK", "late", ("late", 1, 201))
        assert exec_records(engine) == []
        assert [entry[2] for entry in node.pending] == ["early", "late"]
        node.on_message(0, "TX_ACK", "early", ("early", 0, 101))
        node.on_message(1, "TX_ACK", "early", ("early", 1, 101))
        assert exec_records(engine) == [(2, "early", 100), (2, "late", 200)]

    @pytest.mark.parametrize("kind, payload", [
        ("TX_MSG", ("x", 9000, (0, 1, 2))),
        ("TX_ACK", ("x", 0, 9000)),
    ])
    def test_a_higher_stamp_received_raises_the_next_one(self, kind,
                                                         payload):
        engine = one_ms_engine()
        node = direct_client(engine, 2)
        node.on_message(0, kind, "x", payload)
        node.start("y", (2, 0, 1))  # the local clock reads 0
        engine.run_until(10_000)
        sent = [r.fields["ts"] for r in records(engine, "TX_MSG")]
        assert len(sent) == 2 and all(ts > 9000 for ts in sent)

    def test_clients_without_a_runtime_execute_from_messages_alone(self):
        engine = one_ms_engine()
        nodes = [direct_client(engine, c) for c in range(3)]
        engine.run_until(5000)
        nodes[1].start("t", (1, 0, 2))
        engine.run_until(10_000)
        assert sorted(exec_records(engine)) == [
            (0, "t", 5000), (1, "t", 5000), (2, "t", 5000)]
        # the host's TX_MSG lands at 6000 us, every ack 1 ms after its send
        assert [r.sim_time_us for r in records(engine, "EXEC")] == [
            7000, 7000, 7000]
        assert all(n.pending == [] and n.acks == {} for n in nodes)
        assert engine.send_counts == {"TX_MSG": 2, "TX_ACK": 6}


class TestParticipant:
    def test_rejects_foreign_transaction(self):
        part = ParticipantState(3)
        with pytest.raises(UnknownTransactionError):
            part.on_order("ghost", 1, [])

    def test_executes_in_order_number_order(self):
        part = ParticipantState(0)
        for tx in ("a", "b"):
            part.note_participation(tx)
        # order for b arrives first; b's history says a precedes it
        assert part.on_order("b", 2, ["a"]) == []
        assert part.on_order("a", 1, []) == [("a", 1), ("b", 2)]

    def test_cascaded_wait_defeated_by_history(self):
        """A transaction whose history shows no pending predecessor starts
        immediately, even though a lower order number is still unordered."""
        part = ParticipantState(0)
        part.note_participation("mine-early")  # will get order_no 1, later
        part.note_participation("mine-late")
        # the service assigned order 5 to mine-late; its history at node 0
        # does not contain mine-early, so mine-early cannot precede it here
        newly = part.on_order("mine-late", 5, [])
        assert newly == [("mine-late", 5)]
        # the older transaction still executes once its order arrives
        assert part.on_order("mine-early", 1, []) == [("mine-early", 1)]

    def test_history_dependency_blocks_until_executed(self):
        part = ParticipantState(0)
        for tx in ("dep", "main"):
            part.note_participation(tx)
        assert part.on_order("main", 7, ["dep"]) == []
        assert part.on_order("dep", 2, []) == [("dep", 2), ("main", 7)]

    def test_history_dependency_not_pending_does_not_block(self):
        # dep involves this node's peers only; node 0 never participates
        part = ParticipantState(0)
        part.note_participation("main")
        assert part.on_order("main", 7, ["dep"]) == [("main", 7)]

    def test_executed_transaction_leaves_no_known_order(self):
        part = ParticipantState(0)
        for tx in ("a", "b", "c"):
            part.note_participation(tx)
        history = ["a"]
        part.on_order("b", 2, history)
        part.on_order("c", 3, ["a", "b"])
        assert part.known_orders == {"b": history, "c": ["a", "b"]}
        assert part.known_orders["b"] is history  # kept, not copied
        assert part.on_order("a", 1, []) == [("a", 1), ("b", 2), ("c", 3)]
        assert part.known_orders == {}
        assert part.executed_set == {"a", "b", "c"}
        assert part.pending_participations == set()

    def test_replayed_order_is_ignored(self):
        part = ParticipantState(0)
        part.note_participation("a")
        assert part.on_order("a", 1, []) == [("a", 1)]
        assert part.on_order("a", 1, []) == []


class TestCostModel:
    def test_frozen_small_cases(self):
        # enumerated by hand: k=2 direct is 1 send + 2*1 acks = 3,
        # service is 1 request + 1 response + 2 forwards = 4
        assert message_cost_model(2, MODE_DIRECT) == 3
        assert message_cost_model(2, MODE_SERVICE) == 4
        assert message_cost_model(3, MODE_DIRECT) == 8
        assert message_cost_model(3, MODE_SERVICE) == 5

    def test_crossover_is_between_two_and_three(self):
        wins = [message_cost_model(k, MODE_DIRECT) < message_cost_model(k, MODE_SERVICE)
                for k in range(2, 12)]
        assert wins[0] is True
        assert all(w is False for w in wins[1:])

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            message_cost_model(0, MODE_DIRECT)
        with pytest.raises(ValueError):
            message_cost_model(3, "CARRIER_PIGEON")
