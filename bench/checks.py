"""Output checks and simulated metrics, recomputed from a run's outputs.

Everything here reads ``trace.csv`` with its own parser and uses neither
``hybridcast.oracle`` nor ``hybridcast.harness``, so a fault in those
modules cannot hide a fault in the protocol, and the benchmark checks what
a user of ``hybridcast simulate`` actually gets on disk.

A record is the tuple ``(sim_time_us, node, kind, msg_id, detail)``.
"""

from __future__ import annotations

import bisect
from collections import Counter
from itertools import combinations

TRACE_HEADER = "sim_time_us,node,event_kind,msg_id,detail"

# nearest-rank percentiles as exact fractions, the keys RunMetrics uses
PERCENTILES = {"p50_us": (50, 100), "p99_us": (99, 100), "p999_us": (999, 1000)}


def read_trace(path) -> list:
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        if header != TRACE_HEADER:
            raise ValueError(f"{path}: unexpected trace header {header!r}")
        records = []
        for line in fh:
            line = line.rstrip("\n")
            if line:
                t, node, kind, msg_id, detail = line.split(",", 4)
                records.append((int(t), int(node), kind, msg_id, detail))
    return records


def fields(detail: str) -> dict:
    return dict(part.split("=", 1) for part in detail.split(";") if "=" in part)


def nearest_rank(sorted_values, num: int, den: int):
    """The ceil(n*num/den)-th smallest value; 0 for no values."""
    n = len(sorted_values)
    if n == 0:
        return 0
    rank = min(max(-(-n * num // den), 1), n)
    return sorted_values[rank - 1]


def percentiles(values) -> dict:
    ordered = sorted(values)
    return {key: nearest_rank(ordered, *q) for key, q in PERCENTILES.items()}


def tail_supported(n: int, num: int, den: int) -> bool:
    """At least ten samples lie beyond the nearest-rank percentile."""
    return n > 0 and n - min(max(-(-n * num // den), 1), n) >= 10


def longest_stall(seq, start_of, window) -> int:
    """Longest interval inside ``window`` in which a node delivers nothing
    although some operation it later delivers has already started.

    ``seq`` is the node's deliveries as (time, op) in order; ``start_of``
    maps an op to the time it was issued.  Idle time between arrivals of
    the open-loop load is not a stall.
    """
    w0, w1 = window
    worst = 0
    # earliest start among this and all later deliveries
    suffix_min = [0] * len(seq)
    low = None
    for i in range(len(seq) - 1, -1, -1):
        s = start_of[seq[i][1]]
        low = s if low is None or s < low else low
        suffix_min[i] = low
    prev = None
    for i, (t, _) in enumerate(seq):
        begin = suffix_min[i] if prev is None else max(prev, suffix_min[i])
        length = min(t, w1) - max(begin, w0)
        if length > worst:
            worst = length
        prev = t
    return worst


def _order_disagreements(seqs: dict, nodes) -> list:
    """(a, b, x, y): node a ran x before y, node b ran y before x."""
    out = []
    for a, b in combinations(nodes, 2):
        pos_b = {op: i for i, op in enumerate(seqs[b])}
        best, best_op = -1, None
        for op in seqs[a]:
            p = pos_b.get(op)
            if p is None:
                continue
            if p < best:
                out.append((a, b, best_op, op))
            else:
                best, best_op = p, op
    return out


def check_broadcast(records, nodes, window) -> dict:
    """Checks and simulated metrics of one broadcast simulation.

    ``nodes`` is the group; ``window`` is (crash or load start, load end).
    """
    problems = []
    bcast = {}  # msg_id -> (sender, time, ts)
    crashed = {}
    seq = {n: [] for n in nodes}  # node -> [(time, msg_id, ts, path)]
    for t, node, kind, msg_id, detail in records:
        if kind == "BCAST":
            if msg_id in bcast:
                problems.append(f"{msg_id} broadcast twice")
            bcast[msg_id] = (node, t, int(fields(detail)["ts"]))
        elif kind == "DELIVER":
            f = fields(detail)
            seq.setdefault(node, []).append(
                (t, msg_id, int(f["ts"]), f.get("path", "")))
        elif kind == "CRASH":
            crashed.setdefault(node, t)
    survivors = [n for n in nodes if n not in crashed]

    for n in nodes:
        ids = [m for _, m, _, _ in seq[n]]
        dupes = len(ids) - len(set(ids))
        if dupes:
            problems.append(f"node {n} delivers {dupes} message(s) twice")
        unknown = set(ids) - bcast.keys()
        if unknown:
            problems.append(f"node {n} delivers {len(unknown)} message(s) "
                            f"never broadcast, e.g. {min(unknown)}")
        if n in survivors:
            missing = bcast.keys() - set(ids)
            if missing:
                problems.append(f"node {n} never delivers {len(missing)} of "
                                f"{len(bcast)} broadcasts, e.g. {min(missing)}")
        wrong_ts = sum(1 for _, m, ts, _ in seq[n]
                       if m in bcast and bcast[m][2] != ts)
        if wrong_ts:
            problems.append(f"node {n} delivers {wrong_ts} message(s) with a "
                            "timestamp other than the broadcast's")
        high, inversions = -1, 0
        for _, _, ts, _ in seq[n]:
            if ts < high:
                inversions += 1
            else:
                high = ts
        if inversions:
            problems.append(f"node {n} delivers {inversions} message(s) after "
                            "one with a larger timestamp")

    order = {n: [m for _, m, _, _ in seq[n]] for n in nodes}
    for a, b, x, y in _order_disagreements(order, nodes):
        problems.append(f"nodes {a} and {b} deliver {x} and {y} in opposite order")

    latency_by_path: dict[str, list] = {}
    latencies = []
    paths = Counter()
    for n in nodes:
        for t, m, _, path in seq[n]:
            paths[path] += 1
            sender, born, _ = bcast.get(m, (None, 0, 0))
            if sender == n:
                latencies.append(t - born)
                latency_by_path.setdefault(path, []).append(t - born)

    start_of = {m: v[1] for m, v in bcast.items()}
    stall = max((longest_stall([(t, m) for t, m, _, _ in seq[n]
                                if m in start_of], start_of, window)
                 for n in survivors), default=0)
    return {
        "ops": len(bcast),
        "problems": problems,
        "latencies": latencies,
        "latency_by_path": latency_by_path,
        "deliveries_by_path": dict(paths),
        "stall_us": stall,
    }


def check_transactions(records, txs: dict, nodes, window) -> dict:
    """Checks and simulated metrics of one transaction simulation.

    ``txs`` maps tx_id to (participants, start time) as the workload drew
    them.  An execution that jumps ahead of a lower order number counts as
    caught by the sequencer-takeover fault when the early transaction was
    ordered by the successor and the late one by the crashed sequencer;
    every other inversion is a problem.
    """
    problems = []
    execs = {n: [] for n in nodes}  # node -> [(time, tx_id, order_no)]
    fwd_arrival = {}
    takeovers = []  # (time, node, resume)
    crashed = {}
    assigns = []  # (time, node)
    rejects = 0
    for t, node, kind, tx_id, detail in records:
        if kind == "EXEC":
            execs.setdefault(node, []).append((t, tx_id, int(fields(detail)["ts"])))
        elif kind == "ORDER_FWD":
            fwd_arrival.setdefault((node, tx_id), t)
        elif kind == "ORDER_ASSIGN":
            assigns.append((t, node))
        elif kind == "TAKEOVER":
            takeovers.append((t, node, int(fields(detail)["resume"])))
        elif kind == "CRASH":
            crashed.setdefault(node, t)
        elif kind == "REJECT":
            rejects += 1
    resume = min((r for _, _, r in takeovers), default=None)

    done = {}
    for n in nodes:
        ids = [tx for _, tx, _ in execs[n]]
        dupes = len(ids) - len(set(ids))
        if dupes:
            problems.append(f"node {n} executes {dupes} transaction(s) twice")
        stray = [tx for tx in ids if tx not in txs or n not in txs[tx][0]]
        if stray:
            problems.append(f"node {n} executes {len(stray)} transaction(s) it "
                            f"does not take part in, e.g. {stray[0]}")
        for t, tx, _ in execs[n]:
            done[tx] = max(done.get(tx, t), t)
    executed = {(n, tx) for n in nodes for _, tx, _ in execs[n]}
    missing = [(tx, p) for tx, (group, _) in txs.items() for p in group
               if (p, tx) not in executed and p not in crashed]
    if missing:
        problems.append(f"{len(missing)} (transaction, participant) pair(s) "
                        f"never execute, e.g. {missing[0]}")

    order_no = {tx: o for n in nodes for _, tx, o in execs[n]}

    def takeover_jump(early, late) -> bool:
        return (resume is not None
                and order_no[early] >= resume > order_no[late])

    caught = set()
    for n in nodes:
        seen = []  # order numbers executed so far, sorted
        tx_of = {}
        for _, tx, o in execs[n]:
            for o_early in seen[bisect.bisect_right(seen, o):]:
                early = tx_of[o_early]
                if takeover_jump(early, tx):
                    caught.add(early)
                else:
                    problems.append(f"node {n} executes {early} (order "
                                    f"{o_early}) before {tx} (order {o})")
            bisect.insort(seen, o)
            tx_of[o] = tx
    order = {n: [tx for _, tx, _ in execs[n]] for n in nodes}
    for a, b, x, y in _order_disagreements(order, nodes):
        if not (takeover_jump(x, y) or takeover_jump(y, x)):
            problems.append(f"nodes {a} and {b} execute {x} and {y} in "
                            "opposite order")

    latencies = [done[tx] - born for tx, (group, born) in txs.items()
                 if all((p, tx) in executed for p in group)]
    start_of = {tx: born for tx, (_, born) in txs.items()}
    survivors = [n for n in nodes if n not in crashed]
    stall = max((longest_stall([(t, tx) for t, tx, _ in execs[n]
                                if tx in start_of], start_of, window)
                 for n in survivors), default=0)
    exec_wait = [t - fwd_arrival[(n, tx)] for n in nodes
                 for t, tx, _ in execs[n] if (n, tx) in fwd_arrival]
    takeover_us = 0
    if takeovers:
        t_crash = min(crashed.values())
        successor = takeovers[0][1]
        first = min((t for t, node in assigns
                     if node == successor and t >= t_crash), default=None)
        if first is None:
            problems.append(f"successor {successor} never assigns an order")
        else:
            takeover_us = first - t_crash
    return {
        "ops": len(txs),
        "problems": problems,
        "caught": sorted(caught, key=lambda tx: order_no[tx]),
        "latencies": latencies,
        "stall_us": stall,
        "exec_wait": exec_wait,
        "takeover_us": takeover_us,
        "rejects": rejects,
    }


def relay_usefulness(records) -> dict:
    """How often a relayed copy or a retransmit request paid off.

    A relay arrival is useful when it gives the receiver its first copy of
    the message.  A RETX_REQ that reached a peer is useful when the next
    INS_RELAY from that peer to the requester for the same message is the
    requester's first copy.
    """
    first_copy = {}  # (node, msg_id) -> index of the record that brought it
    relays = {}  # (requester, msg_id, relayer) -> [(time, index)]
    requests = []  # (time, requester, msg_id, responder)
    relay_arrivals = useful_relays = 0
    for i, (t, node, kind, msg_id, detail) in enumerate(records):
        if kind == "BCAST" or kind == "INS_MSG":
            first_copy.setdefault((node, msg_id), i)
        elif kind == "INS_RELAY":
            relay_arrivals += 1
            if (node, msg_id) not in first_copy:
                first_copy[(node, msg_id)] = i
                useful_relays += 1
            relayer = int(fields(detail)["relay"])
            relays.setdefault((node, msg_id, relayer), []).append((t, i))
        elif kind == "RETX_REQ":
            requests.append((t, int(fields(detail)["frm"]), msg_id, node))
    useful_requests = 0
    for t, requester, msg_id, responder in requests:
        replies = relays.get((requester, msg_id, responder), [])
        k = bisect.bisect_left(replies, (t, -1))
        if k < len(replies) and first_copy.get((requester, msg_id)) == replies[k][1]:
            useful_requests += 1
    return {
        "relay_arrivals": relay_arrivals,
        "useful_relays": useful_relays,
        "useful_retx": useful_requests,
    }
