"""Per-AS BGP speaker model.

Each AS is modelled as one router holding Adj-RIB-Ins (one per
neighbour), a Loc-RIB of best routes, and per-neighbour export state.
Route selection follows Gao-Rexford local preference, then AS-path
length, then lowest neighbour ASN (standing in for router-id).

Withdrawal processing performs genuine *path hunting*: when the best
route dies and an alternative exists in an Adj-RIB-In, the alternative
is promoted and re-exported — this is what makes zombie paths longer
than normal paths (paper Fig. 6) and what re-exposes stale routes with
their original Aggregator clock (the double-counting signal of §3.1).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.bgp.attributes import PathAttributes
from repro.bgp.messages import Announcement, Message, Withdrawal
from repro.bgp.policy import Relationship, compare_routes, should_export
from repro.net.prefix import Prefix
from repro.simulator.rpki import ValidationState

__all__ = ["ASRouter"]

#: Observer callback: (time, prefix, attrs-or-None).  ``attrs`` is the
#: route as the AS would export it (own ASN prepended); ``None`` means
#: the AS no longer has a route.
Observer = Callable[[float, Prefix, Optional[PathAttributes]], None]


class ASRouter:
    """One AS in the simulated Internet."""

    def __init__(self, asn: int, world):
        self.asn = asn
        self.world = world
        self.next_hop = f"2001:db8:{asn & 0xFFFF:x}:{(asn >> 16) & 0xFFFF:x}::1"
        #: neighbour ASN -> how we see them.
        self.relationships: dict[int, Relationship] = {}
        #: ``relationships`` as ``(neighbour, relationship)`` in ASN
        #: order, the order every export walks; kept by add_neighbor.
        self._neighbors: list[tuple[int, Relationship]] = []
        #: prefix -> neighbour ASN -> attributes as received.
        self.adj_rib_in: dict[Prefix, dict[int, PathAttributes]] = {}
        #: locally originated routes.
        self.local: dict[Prefix, PathAttributes] = {}
        #: prefix -> (source neighbour or None for local, attributes).
        self.best: dict[Prefix, tuple[Optional[int], PathAttributes]] = {}
        #: neighbour -> prefixes currently advertised to them.
        self.exported: dict[int, set[Prefix]] = {}
        self.rov_enabled = False
        #: transparent speakers (IXP route servers) do not prepend their
        #: own ASN when re-exporting — they are the "invisible ASes" the
        #: paper's root-cause caveat describes (§5.2).
        self.transparent = False
        self.observers: list[Observer] = []

    # -- wiring -----------------------------------------------------------

    def add_neighbor(self, asn: int, relationship: Relationship) -> None:
        self.relationships[asn] = relationship
        self._neighbors = sorted(self.relationships.items())
        self.exported.setdefault(asn, set())

    def add_observer(self, observer: Observer) -> None:
        self.observers.append(observer)

    # -- origination --------------------------------------------------------

    def originate(self, prefix: Prefix, attributes: PathAttributes) -> None:
        """Install a locally originated route (the beacon announcement)."""
        if attributes.as_path.origin_as != self.asn:
            raise ValueError(
                f"AS{self.asn} cannot originate a route with origin "
                f"AS{attributes.as_path.origin_as}")
        self.local[prefix] = attributes
        self._decide(prefix)

    def withdraw_origin(self, prefix: Prefix) -> None:
        """Withdraw a locally originated route."""
        if self.local.pop(prefix, None) is not None:
            self._decide(prefix)

    # -- message handling -----------------------------------------------------

    def receive(self, src: int, message: Message) -> None:
        """Process one BGP message from a neighbour."""
        if src not in self.relationships:
            raise KeyError(f"AS{self.asn} got a message from non-neighbour AS{src}")
        if isinstance(message, Announcement):
            self._receive_announcement(src, message)
        else:
            self._receive_withdrawal(src, message)

    def _receive_announcement(self, src: int, message: Announcement) -> None:
        attrs = message.attributes
        if attrs.as_path.contains(self.asn):
            return  # loop — discard silently
        if self._rov_rejects(message.prefix, attrs):
            # Invalid route: treat as unusable; drop any previous route
            # from this neighbour for the prefix.
            routes = self.adj_rib_in.get(message.prefix)
            if routes and routes.pop(src, None) is not None:
                if not routes:
                    del self.adj_rib_in[message.prefix]
                self._decide(message.prefix)
            return
        self.adj_rib_in.setdefault(message.prefix, {})[src] = attrs
        self._decide(message.prefix)

    def _receive_withdrawal(self, src: int, message: Withdrawal) -> None:
        routes = self.adj_rib_in.get(message.prefix)
        if routes and routes.pop(src, None) is not None:
            if not routes:
                del self.adj_rib_in[message.prefix]
            self._decide(message.prefix)

    def _rov_rejects(self, prefix: Prefix, attrs: PathAttributes) -> bool:
        if not self.rov_enabled:
            return False
        registry = self.world.roa_registry
        if registry is None:
            return False
        state = registry.validate(prefix, attrs.origin_as,
                                  int(self.world.engine.now))
        return state is ValidationState.INVALID

    # -- decision process ---------------------------------------------------

    def _decide(self, prefix: Prefix) -> None:
        winner: Optional[tuple[Optional[int], PathAttributes]] = None
        local = self.local.get(prefix)
        if local is not None:
            winner = (None, local)
        for src, attrs in self.adj_rib_in.get(prefix, {}).items():
            if winner is None:
                winner = (src, attrs)
                continue
            w_src, w_attrs = winner
            w_rel = None if w_src is None else self.relationships[w_src]
            c_rel = self.relationships[src]
            verdict = compare_routes(w_rel, w_attrs, c_rel, attrs,
                                     -1 if w_src is None else w_src, src)
            if verdict > 0:
                winner = (src, attrs)

        previous = self.best.get(prefix)
        if winner == previous:
            return
        if winner is None:
            del self.best[prefix]
            self._export_withdrawal(prefix)
            self._notify(prefix, None)
        else:
            self.best[prefix] = winner
            self._export_route(prefix, winner)
            self._notify(prefix, self.export_attributes(prefix))

    # -- export ---------------------------------------------------------------

    def export_attributes(self, prefix: Prefix) -> Optional[PathAttributes]:
        """The route for ``prefix`` as this AS announces it (own ASN
        prepended unless locally originated)."""
        entry = self.best.get(prefix)
        if entry is None:
            return None
        src, attrs = entry
        if src is None:
            return attrs
        if self.transparent:
            return attrs
        return attrs.with_prepended(self.asn, self.next_hop)

    def _export_route(self, prefix: Prefix,
                      winner: tuple[Optional[int], PathAttributes]) -> None:
        src, attrs = winner
        learned_rel = None if src is None else self.relationships[src]
        out_attrs = self.export_attributes(prefix)
        for neighbor, relationship in self._neighbors:
            if neighbor == src:
                # Never advertise a route back to its source; retract a
                # previously advertised one if policy flips the source.
                self._retract_if_exported(neighbor, prefix)
                continue
            if (should_export(learned_rel, relationship)
                    and not out_attrs.as_path.contains(neighbor)):
                self.exported[neighbor].add(prefix)
                self.world.send(self.asn, neighbor, Announcement(prefix, out_attrs))
            else:
                self._retract_if_exported(neighbor, prefix)

    def _export_withdrawal(self, prefix: Prefix) -> None:
        for neighbor, _ in self._neighbors:
            self._retract_if_exported(neighbor, prefix)

    def _retract_if_exported(self, neighbor: int, prefix: Prefix) -> None:
        if prefix in self.exported[neighbor]:
            self.exported[neighbor].discard(prefix)
            self.world.send(self.asn, neighbor, Withdrawal(prefix))

    def _notify(self, prefix: Prefix, attrs: Optional[PathAttributes]) -> None:
        now = self.world.engine.now
        for observer in self.observers:
            observer(now, prefix, attrs)

    # -- session events ------------------------------------------------------

    def session_down(self, neighbor: int) -> None:
        """The session to ``neighbor`` dropped: flush what they taught us
        and forget what we advertised to them."""
        self.exported[neighbor] = set()
        affected = [prefix for prefix, routes in self.adj_rib_in.items()
                    if neighbor in routes]
        for prefix in affected:
            routes = self.adj_rib_in[prefix]
            routes.pop(neighbor, None)
            if not routes:
                del self.adj_rib_in[prefix]
            self._decide(prefix)

    def session_up(self, neighbor: int) -> None:
        """The session re-established: re-advertise our table, stale
        routes included (the resurrection mechanism)."""
        relationship = self.relationships[neighbor]
        for prefix in sorted(self.best, key=str):
            src, _ = self.best[prefix]
            learned_rel = None if src is None else self.relationships[src]
            out_attrs = self.export_attributes(prefix)
            if (should_export(learned_rel, relationship)
                    and neighbor != src
                    and not out_attrs.as_path.contains(neighbor)):
                self.exported[neighbor].add(prefix)
                self.world.send(self.asn, neighbor, Announcement(prefix, out_attrs))

    # -- RPKI -----------------------------------------------------------------

    def revalidate(self) -> None:
        """Re-run ROV over every learned route (after a ROA change)."""
        if not self.rov_enabled or self.world.roa_registry is None:
            return
        now = int(self.world.engine.now)
        registry = self.world.roa_registry
        for prefix in list(self.adj_rib_in):
            routes = self.adj_rib_in[prefix]
            invalid = [src for src, attrs in routes.items()
                       if registry.validate(prefix, attrs.origin_as, now)
                       is ValidationState.INVALID]
            if not invalid:
                continue
            for src in invalid:
                del routes[src]
            if not routes:
                del self.adj_rib_in[prefix]
            self._decide(prefix)

    # -- introspection --------------------------------------------------------

    def has_route(self, prefix: Prefix) -> bool:
        return prefix in self.best

    def best_path(self, prefix: Prefix) -> Optional[PathAttributes]:
        return self.export_attributes(prefix)
