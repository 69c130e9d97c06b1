"""Batched EM3D compute kernel (the base version's ghost-exchange phase).

The reference ``phase_base`` drives every remote neighbour through the
full generator stack — ``program → one_step → phase_base → proc.read →
send_short → poll`` — so each of the ~1280 blocking reads per step pays
six generator frames per yield on top of the simulator work.  This
kernel compiles a processor's :class:`~repro.apps.em3d.layout.PhasePlan`
once into flat term tuples plus numpy offset arrays, then executes the
whole phase in a *single* generator frame:

* local terms read from a per-phase snapshot of the value region
  (sound: nothing writes the region during the sweep — remote peers only
  *read* it, and this node's own updates are deferred to the end of the
  phase, exactly as in the reference);
* remote terms inline the entire blocking-read protocol — box
  allocation, credit probe, issue+send charges fused into one
  :class:`~repro.sim.effects.ChargeRun`, injection, poll-on-send, and
  the reply spin — yielding the same effects with the same virtual
  timestamps;
* the inlined poll serves the peers' ``sc.read`` requests and this
  node's ``sc.reply_val`` replies itself, each as one fused
  :class:`~repro.sim.effects.ChargeRun` (service hit + reply send, or
  service hit + reply handling);
* the per-update trailing charges (aggregated local-access cost + the
  per-neighbour CPU cost) are memoized per shape and fused;
* new values are scattered back with one numpy indexed store (the
  offsets are unique, so ordering cannot matter).

Equivalence: every effect the scheduler sees, every packet injection
time, every counter total and every float operation ordering matches the
generator path bit for bit; ``tests/integration/test_batched_identity.py``
drives both over the same workload and diffs everything.  The kernel
stands down (callers fall back to ``phase_base``) when spans or metrics
are recording, because those observe mid-window state the fused charges
reorder.
"""

from __future__ import annotations

from collections.abc import Generator
from typing import Any

import numpy as np

from repro.am.frames import AMFrame
from repro.am.layer import KIND_BULK, KIND_CREDIT, KIND_SHORT
from repro.errors import SimulationError
from repro.machine.network import Packet
from repro.sim.account import Category, CounterNames
from repro.sim.effects import WAIT_INBOX, Charge, ChargeRun
from repro.splitc.process import SCProcess

__all__ = ["BatchedEm3dKernel"]

_READ_REQ_BYTES = 16  # matches SCProcess.read's request frame
_REPLY_VAL_BYTES = 16  # matches SplitCRuntime._h_read's reply frame


class BatchedEm3dKernel:
    """Compiled per-(proc, phase) plans for one EM3D base-version run."""

    def __init__(self, layout: Any, value_region: str, per_neighbor: float):
        self.layout = layout
        self.value_region = value_region
        self.per_neighbor = per_neighbor
        #: (nid, phase) -> (compiled updates, value-offset array)
        self._compiled: dict[tuple[int, int], tuple[list, np.ndarray]] = {}

    def _compile(self, proc: SCProcess, phase: int) -> tuple[list, np.ndarray]:
        key = (proc.nid, phase)
        hit = self._compiled.get(key)
        if hit is not None:
            return hit
        lac = proc.node.costs.runtime.sc_local_access
        pn = self.per_neighbor
        trail_memo: dict[tuple[int, int], Any] = {}
        compiled = []
        for u in self.layout.plans[proc.nid][phase].updates:
            terms = tuple(
                (w, is_local, sproc, soff)
                for w, (is_local, sproc, soff) in zip(u.weights, u.sources)
            )
            n_local = sum(1 for t in terms if t[1])
            shape = (n_local, len(terms))
            trail = trail_memo.get(shape)
            if trail is None:
                chg_cpu = Charge(len(terms) * pn, Category.CPU)
                if n_local:
                    trail = ChargeRun(
                        Charge(n_local * lac, Category.RUNTIME), chg_cpu
                    )
                else:
                    trail = chg_cpu
                trail_memo[shape] = trail
            compiled.append((terms, trail, u.value_off))
        value_offs = np.fromiter(
            (c[2] for c in compiled), dtype=np.intp, count=len(compiled)
        )
        out = (compiled, value_offs)
        self._compiled[key] = out
        return out

    def phase(self, proc: SCProcess, phase: int) -> Generator[Any, Any, None]:
        """Run one compute phase; effect-for-effect identical to the
        reference ``phase_base``."""
        compiled, value_offs = self._compile(proc, phase)
        # hot-path bindings (every name below is hit per term or per poll)
        rt = proc.rt
        ep = proc.ep
        node = proc.node
        nid = proc.nid
        st = rt.state(nid)
        boxes = st.boxes
        credits = ep._credits
        window = ep._window
        counts = node.counters.counts
        inbox = node.inbox
        inject = ep._inject
        # unreliable channels have no sequencing state: hand packets to
        # the network directly instead of through _inject
        reliable = ep.reliable
        transmit = ep.network.transmit
        chg_issue = proc._chg_issue
        chg_send_short = ep._chg_send_short
        chg_poll_empty = ep._chg_poll_empty
        crun_issue_send = ChargeRun(chg_issue, chg_send_short)
        region = self.value_region
        msg_short = CounterNames.MSG_SHORT
        polls = CounterNames.POLLS
        # inlined-poll bindings (the drain below replicates AMEndpoint.poll)
        handlers = ep._handlers
        consumed = ep._consumed
        chg_hit_short = ep._chg_hit_short
        chg_hit_bulk = ep._chg_hit_bulk
        chg_hit_credit = ep._chg_hit_credit
        crun_hit_reply = ChargeRun(chg_hit_short, chg_send_short)
        crun_hit_handled = ChargeRun(chg_hit_short, rt._chg_reply[nid])
        regions = proc.mem._regions
        load_gp = proc.mem.load_gp
        take_box = rt._take_box
        half = ep._half_window
        refill = ep._refill_credits
        wake_all = node.scheduler.wake_all_inbox_waiters
        from repro.splitc.runtime import ReplyBox

        mem = proc.mem.region(region)
        vals = mem.tolist()  # frozen for the sweep (see module docstring)
        accs: list[float] = []
        for terms, trail, _off in compiled:
            acc = 0.0
            for w, is_local, sproc, soff in terms:
                if is_local:
                    acc += w * vals[soff]
                    continue
                # ---- inlined blocking read (SCProcess.read, spans off).
                # The credit probe moves ahead of the issue charge: sound
                # because credits mutate only when this node polls, and
                # the only thread of this node is right here.
                c = credits.get(sproc)
                if c is None:
                    c = window
                slot = st.next_box
                st.next_box = slot + 1
                box = ReplyBox()
                boxes[slot] = box
                if c > 0:
                    credits[sproc] = c - 1
                    counts[msg_short] += 1
                    yield crun_issue_send
                else:
                    # exhausted: replay the reference order exactly
                    yield chg_issue
                    yield from ep._acquire_credit(sproc)
                    counts[msg_short] += 1
                    yield chg_send_short
                if reliable:
                    inject(
                        sproc,
                        KIND_SHORT,
                        AMFrame("sc.read", (region, soff, slot)),
                        _READ_REQ_BYTES,
                    )
                else:
                    transmit(
                        Packet(
                            src=nid,
                            dst=sproc,
                            kind=KIND_SHORT,
                            payload=AMFrame("sc.read", (region, soff, slot)),
                            nbytes=_READ_REQ_BYTES,
                        )
                    )
                # Poll-on-send, then the reply spin (poll_until inlined),
                # sharing one poll site.  The poll itself is inlined: the
                # drain below is an exact replica of ``AMEndpoint.poll``
                # with the span/metrics branches constant-folded away
                # (the kernel only runs when both are off) — same charges,
                # same counter bumps, same refill check, same waiter
                # broadcast — without the per-poll generator allocation
                # and frame hop.  The read protocol's own frames
                # (``sc.read``, ``sc.reply_val``) are served in place with
                # their service hit fused to the handler's one charge;
                # every other frame (barriers, credits, bulk) takes the
                # generic handler branch, exactly as the real poll would.
                while True:
                    if not inbox:
                        counts[polls] += 1
                        yield chg_poll_empty
                    else:
                        counts[polls] += 1
                        handled = 0
                        while inbox:
                            pkt = inbox.popleft()
                            src = pkt.src
                            kind = pkt.kind
                            if kind == KIND_SHORT:
                                frame = pkt.payload
                                handler = frame.handler
                                if handler == "sc.read":
                                    # SplitCRuntime._h_read, with the load
                                    # ahead of the fused hit+reply charges
                                    # (nothing else observes it meanwhile);
                                    # a miss or out-of-bounds access takes
                                    # load_gp for its diagnostics
                                    rregion, roff, rslot = frame.args
                                    arr = regions.get(rregion)
                                    if arr is not None and 0 <= roff < len(arr):
                                        value = arr[roff].item()
                                    else:
                                        value = load_gp(rregion, roff)
                                    n = consumed.get(src, 0) + 1
                                    consumed[src] = n
                                    if n >= half:
                                        ep._refill_due = True
                                    yield crun_hit_reply
                                    counts[msg_short] += 1
                                    reply = AMFrame("sc.reply_val", (rslot, value))
                                    if reliable:
                                        inject(src, KIND_SHORT, reply, _REPLY_VAL_BYTES)
                                    else:
                                        transmit(
                                            Packet(
                                                src=nid,
                                                dst=src,
                                                kind=KIND_SHORT,
                                                payload=reply,
                                                nbytes=_REPLY_VAL_BYTES,
                                            )
                                        )
                                    handled += 1
                                    continue
                                if handler == "sc.reply_val":
                                    # SplitCRuntime._h_reply_val, with the
                                    # box filled ahead of the fused charges
                                    rslot, value = frame.args
                                    rbox = take_box(nid, rslot)
                                    rbox.value = value
                                    rbox.done = True
                                    n = consumed.get(src, 0) + 1
                                    consumed[src] = n
                                    if n >= half:
                                        ep._refill_due = True
                                    yield crun_hit_handled
                                    handled += 1
                                    continue
                            if kind == KIND_CREDIT:
                                yield chg_hit_credit
                                credits[src] = credits.get(src, window) + pkt.payload
                                continue
                            # generic handler branch (poll's slow path)
                            yield chg_hit_bulk if kind == KIND_BULK else chg_hit_short
                            n = consumed.get(src, 0) + 1
                            consumed[src] = n
                            if n >= half:
                                ep._refill_due = True
                            frame = pkt.payload
                            try:
                                fn = handlers[frame.handler]
                            except KeyError:
                                raise SimulationError(
                                    f"node {nid}: no AM handler "
                                    f"{frame.handler!r} (message from node "
                                    f"{src})"
                                ) from None
                            ep._in_handler = True
                            try:
                                yield from fn(ep, src, frame)
                            finally:
                                ep._in_handler = False
                            handled += 1
                        if ep._refill_due:
                            yield from refill()
                        if handled:
                            wake_all()
                    if box.done:
                        break
                    if not inbox:
                        yield WAIT_INBOX
                acc += w * box.value
            yield trail
            accs.append(acc)
        if accs:
            mem[value_offs] = accs
