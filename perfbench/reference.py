"""A fixed reference task that measures how fast the host runs Python now.

The benchmark's host is a virtual machine on a shared physical host, and
its speed drifts by up to two times over minutes as the neighbours' load
comes and goes. The benchmark times this task before and after each
iteration of the program and reports the program's times in reference
seconds: seconds scaled to a host on which this task takes REFERENCE_S.

The task uses the standard library only, never the program, so a change to
the program cannot change it. It does the kinds of work the program does:
a heap-ordered event loop over small objects, dict lookups, string
formatting, SHA-256, hex and JSON. It runs with the cyclic garbage
collector off, so the size of the program's heap does not reach into its
time.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import json
import random

# A round figure inside the range of the task's CPU time on a 2-vCPU Xeon
# virtual machine with Python 3.11 (0.17 to 0.32 s as the host's load
# varies). It only sets the scale of the reported times.
REFERENCE_S = 0.25
EVENTS = 12000


class _Event:
    __slots__ = ("at", "seq", "node", "data")

    def __init__(self, at: int, seq: int, node: str, data: bytes):
        self.at, self.seq, self.node, self.data = at, seq, node, data

    def __lt__(self, other: "_Event") -> bool:
        return (self.at, self.seq) < (other.at, other.seq)


def task() -> int:
    """The reference work; returns a checksum so that none of it is skipped."""
    rng = random.Random(7)
    nodes = {f"host-{i}": {"addr": f"10.{i >> 8 & 255}.{i & 255}.1", "seen": 0}
             for i in range(EVENTS // 10)}
    names = list(nodes)
    queue: list[_Event] = []
    for i in range(EVENTS):
        heapq.heappush(queue, _Event(rng.randrange(10**6), i, rng.choice(names),
                                     rng.randbytes(48)))
    lines = []
    while queue:
        ev = heapq.heappop(queue)
        node = nodes[ev.node]
        node["seen"] += 1
        lines.append(json.dumps({"t": ev.at, "node": ev.node, "addr": node["addr"],
                                 "digest": hashlib.sha256(ev.data).hexdigest()[:16],
                                 "hex": ev.data.hex()}, sort_keys=True))
    back = [json.loads(line) for line in lines]
    return sum(1 for rec in back if "ab" in rec["hex"]) + len("\n".join(lines))


def timed(clock) -> float:
    """Seconds on `clock` of one run of the task, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = clock()
        task()
        return clock() - start
    finally:
        if enabled:
            gc.enable()
