"""Live event streaming: resume tokens, SSE framing, and the fan-out hub.

The observatory's query endpoints answer *polls*; this module is the
push side — the machinery behind the ``/stream/*`` SSE endpoints of
:class:`repro.observatory.asyncserver.AsyncObservatoryServer`.  The
paper's core finding is that zombie routes linger for hours-to-days
precisely because nobody is watching live, so the platform's alerts
must reach subscribers while the anomaly is still ongoing, not on the
next archive re-scan.

Three load-bearing contracts, shared by server and client:

**Resume tokens** encode a subscriber's position as
``"<generation>:<next_seq>"`` — the store generation the subscriber was
reading plus the next event seq it expects.  A token survives server
restarts (it names a durable store position, not any server state) and
detects history rewrites: a truncate/compact bumps the generation, so a
stale token can never silently resume over rewritten history — the
server answers it with a ``reset`` signal instead.

**SSE framing**: every event rides one ``text/event-stream`` frame with
``id:`` carrying the resume token *after* this event, ``event:``
carrying the event kind, and ``data:`` carrying the exact
``json.dumps(event, sort_keys=True)`` bytes the query endpoints and the
``observatory query`` CLI emit — so a streamed feed is byte-comparable
to a subsequent paged query.  A generation bump mid-stream produces an
``event: reset`` frame whose data names the new ``(generation,
next_seq)``; subscribers must treat everything they derived from the
old generation as unverified and re-sync via the query endpoints.

**Backpressure drops subscribers to their cursor, never events.**  One
:class:`StreamHub` task tails the store (one
:class:`~repro.observatory.store.TailCursor`: a single position poll +
one delta read per pass, no matter how many subscribers) and fans each
new event into per-subscriber bounded queues.  A subscriber that cannot keep up overflows its queue; the hub
marks it lagged and stops feeding it — the subscriber then re-reads the
store from its own cursor (exactly where it stopped) and rejoins the
live feed.  Every event is delivered exactly once, in seq order,
however slow the consumer.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Optional

from repro.observatory.store import TailCursor

__all__ = ["StreamHub", "StreamStats", "Subscription", "TokenError",
           "encode_token", "format_comment", "format_event",
           "format_reset", "parse_token"]

#: Queue entry announcing a generation bump: ``(RESET, generation,
#: next_seq)``.  A plain marker object — event dicts never collide.
RESET = "__reset__"

#: Seconds between two hub polls of an idle store: the floor on
#: append-to-deliver latency.
POLL_INTERVAL = 0.05
#: Live entries one subscriber's queue holds; overflow drops that
#: subscriber to its cursor.
QUEUE_EVENTS = 256
#: Events one store read hands a follower (the hub, or one catch-up
#: pass of a subscriber).
BATCH_EVENTS = 1024


class TokenError(ValueError):
    """A resume token that cannot be parsed."""


def encode_token(generation: int, next_seq: int) -> str:
    """The resume token naming a subscriber position: the next seq it
    expects, qualified by the generation it was reading."""
    return f"{generation}:{next_seq}"


def parse_token(raw: str) -> tuple[int, int]:
    """Parse ``"<generation>:<next_seq>"``; raises :class:`TokenError`."""
    generation, sep, next_seq = raw.partition(":")
    try:
        if not sep:
            raise ValueError(raw)
        parsed = int(generation), int(next_seq)
    except ValueError:
        raise TokenError(f"resume token must look like "
                         f"'<generation>:<next_seq>', got {raw!r}")
    if parsed[0] < 0 or parsed[1] < 0:
        raise TokenError(f"resume token fields must be non-negative, "
                         f"got {raw!r}")
    return parsed


# -- SSE framing ----------------------------------------------------------

def format_event(event: dict[str, Any], generation: int) -> bytes:
    """One event as an SSE frame.  The ``data:`` payload is the same
    sorted-keys JSON every query path emits; the ``id:`` is the resume
    token *after* this event (``seq + 1``), which is what an SSE client
    replays as ``Last-Event-ID`` on reconnect."""
    data = json.dumps(event, sort_keys=True)
    return (f"id: {encode_token(generation, event['seq'] + 1)}\n"
            f"event: {event['kind']}\n"
            f"data: {data}\n\n").encode("utf-8")


def format_reset(generation: int, next_seq: int) -> bytes:
    """The re-sync signal: history behind the subscriber was rewritten
    (truncate/compact/repair).  Carries — and sets, via ``id:`` — the
    position streaming continues from."""
    data = json.dumps({"generation": generation, "next_seq": next_seq},
                      sort_keys=True)
    return (f"id: {encode_token(generation, next_seq)}\n"
            f"event: reset\n"
            f"data: {data}\n\n").encode("utf-8")


def format_comment(text: str) -> bytes:
    """An SSE comment frame (the keepalive heartbeat)."""
    return f": {text}\n\n".encode("utf-8")


# -- fan-out hub ----------------------------------------------------------

class StreamStats:
    """Counters for ``/metrics`` (``observatory_stream_*`` series).

    Mutated only from the async server's event-loop thread and read
    from metrics-rendering executor threads — single-writer int updates,
    so no lock is needed.
    """

    def __init__(self) -> None:
        self.subscribers = 0
        self.events_sent = 0
        self.lagged = 0
        self.resets = 0


class Subscription:
    """One live-feed attachment: a bounded queue plus the lag flag.

    A subscriber holds a *fresh* instance per live phase; after a lag
    drop the old queue (and anything still in it) is discarded — the
    store, not the queue, is the source of truth for catch-up.
    """

    def __init__(self) -> None:
        self.queue: "asyncio.Queue[Any]" = asyncio.Queue(maxsize=QUEUE_EVENTS)
        self.lagged = False


def _live_batch(tail: TailCursor, kinds: Optional[tuple[str, ...]]
                ) -> tuple[bool, list[dict[str, Any]]]:
    """One pass of a live follower (the hub, a subscriber's catch-up) —
    blocking store I/O, for an executor thread.  Returns whether
    history was rewritten under the follower, which then continues at
    the new tail rather than replaying, else up to :data:`BATCH_EVENTS`
    events it is owed."""
    if tail.poll():
        tail.seq = tail.end
        return True, []
    return False, list(tail.read(kinds, BATCH_EVENTS))


class StreamHub:
    """The shared store tail: one poller feeding every subscriber.

    ``run()`` is a long-lived task on the server's event loop.  Each
    pass follows the store through one
    :class:`~repro.observatory.store.TailCursor` (blocking file I/O,
    pushed to the executor): one position read and, when the store
    grew, exactly the delta in bounded batches — one read serving N
    subscribers, instead of N subscribers each polling the store.  A
    generation change broadcasts a :data:`RESET` entry instead of
    guessing what survived the rewrite.
    """

    def __init__(self, store, stats: StreamStats):
        self.store = store
        self.stats = stats
        self._subscriptions: set[Subscription] = set()
        self._tail = TailCursor(store)

    @property
    def watermark(self) -> int:
        """Events below this seq have been broadcast (or predate the
        hub; subscribers cover them by store catch-up)."""
        return self._tail.seq

    def attach(self, subscription: Subscription) -> None:
        """Join the live feed.  The caller must already hold a store
        cursor at or below the hub watermark *or* catch up from the
        store after attaching — events broadcast before ``attach`` are
        not replayed by the hub."""
        self._subscriptions.add(subscription)

    def detach(self, subscription: Subscription) -> None:
        self._subscriptions.discard(subscription)

    def _broadcast(self, entry: Any) -> None:
        """Feed one queue entry to every live subscriber; a full queue
        marks its subscriber lagged and detaches it (drop-to-cursor:
        the subscriber re-syncs from the store, no event is lost)."""
        for subscription in list(self._subscriptions):
            try:
                subscription.queue.put_nowait(entry)
            except asyncio.QueueFull:
                subscription.lagged = True
                self.stats.lagged += 1
                self._subscriptions.discard(subscription)

    async def run(self) -> None:
        """Poll-and-fan-out forever (cancelled at server shutdown)."""
        loop = asyncio.get_running_loop()
        while True:
            # The first pass attaches at the tail without announcing.
            attached = self._tail.generation is not None
            reset, batch = await loop.run_in_executor(
                None, _live_batch, self._tail, None)
            if reset and attached:
                self._broadcast((RESET, self._tail.generation,
                                 self._tail.seq))
            for event in batch:
                self._broadcast(event)
            if len(batch) >= BATCH_EVENTS:
                continue  # more to drain: go again without sleeping
            await asyncio.sleep(POLL_INTERVAL)
