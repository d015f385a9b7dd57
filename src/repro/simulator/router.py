"""Per-AS BGP speaker model.

Each AS is modelled as one router holding Adj-RIB-Ins (one per
neighbour), a Loc-RIB of best routes, and the neighbours each prefix is
advertised to.  Route selection keeps the lowest
:func:`repro.bgp.policy.route_key`: Gao-Rexford local preference, then
AS-path length, then lowest neighbour ASN (standing in for router-id).

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
from repro.bgp.policy import Relationship, route_key, should_export
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
        #: source neighbour (None: local) -> ``(neighbour, may export)``
        #: in ASN order, the order every export walks; None until the
        #: first export after add_neighbor.
        self._export_plan: Optional[dict[Optional[int],
                                         list[tuple[int, bool]]]] = None
        #: prefix -> neighbour ASN -> attributes as received.
        self.adj_rib_in: dict[Prefix, dict[int, PathAttributes]] = {}
        #: locally originated routes.
        self.local: dict[Prefix, PathAttributes] = {}
        #: prefix -> (source neighbour or None for local, attributes):
        #: always the lowest :func:`route_key` of ``local`` and
        #: ``adj_rib_in``, so a message that cannot change it is
        #: answered without a decision.
        self.best: dict[Prefix, tuple[Optional[int], PathAttributes]] = {}
        #: prefix -> neighbours it is currently advertised to.
        self.advertised: dict[Prefix, set[int]] = {}
        self.rov_enabled = False
        #: transparent speakers (IXP route servers) do not prepend their
        #: own ASN when re-exporting — they are the "invisible ASes" the
        #: paper's root-cause caveat describes (§5.2).
        self.transparent = False
        self.observers: list[Observer] = []

    # -- wiring -----------------------------------------------------------

    def add_neighbor(self, asn: int, relationship: Relationship) -> None:
        self.relationships[asn] = relationship
        self._export_plan = None  # rebuilt by the next export

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
            self._forget(src, message.prefix)

    def _receive_announcement(self, src: int, message: Announcement) -> None:
        prefix, attrs = message.prefix, message.attributes
        if self.asn in attrs.as_path.asns:
            return  # loop — discard silently
        if self.rov_enabled and self._rov_rejects(prefix, attrs):
            # Invalid route: treat as unusable; drop any previous route
            # from this neighbour for the prefix.
            self._forget(src, prefix)
            return
        routes = self.adj_rib_in.get(prefix)
        if routes is None:
            routes = self.adj_rib_in[prefix] = {}
        routes[src] = attrs
        best = self.best.get(prefix)
        key = route_key(self.relationships[src], attrs, src)
        if best is None or key <= route_key(self.relationships.get(best[0]),
                                            best[1], best[0]):
            # It beats (or, from the same neighbour, ties) the best
            # route, which beats every other.
            self._install(prefix, (src, attrs), best)
        elif best[0] == src:
            self._decide(prefix)  # the best route got worse

    def _forget(self, src: int, prefix: Prefix) -> None:
        """Drop ``src``'s route for ``prefix``; only losing the best
        route needs a decision."""
        routes = self.adj_rib_in.get(prefix)
        if routes and routes.pop(src, None) is not None:
            if not routes:
                del self.adj_rib_in[prefix]
            if self.best[prefix][0] == src:
                self._decide(prefix)

    def _rov_rejects(self, prefix: Prefix, attrs: PathAttributes) -> bool:
        registry = self.world.roa_registry
        if registry is None:
            return False
        state = registry.validate(prefix, attrs.origin_as,
                                  int(self.world.engine.now))
        return state is ValidationState.INVALID

    # -- decision process ---------------------------------------------------

    def _decide(self, prefix: Prefix) -> None:
        """Full decision: the lowest-keyed of every candidate route."""
        previous = self.best.get(prefix)
        local = self.local.get(prefix)
        if local is not None:
            # local beats all learned
            self._install(prefix, (None, local), previous)
            return
        routes = self.adj_rib_in.get(prefix)
        if not routes:
            self._install(prefix, None, previous)
            return
        relationships = self.relationships
        src = min(routes, key=lambda neighbor: route_key(
            relationships[neighbor], routes[neighbor], neighbor))
        self._install(prefix, (src, routes[src]), previous)

    def _install(self, prefix: Prefix,
                 winner: Optional[tuple[Optional[int], PathAttributes]],
                 previous: Optional[tuple[Optional[int], PathAttributes]]) -> None:
        """Make ``winner`` the best route in place of ``previous`` and
        advertise the change."""
        if winner == previous:
            return
        if winner is None:
            del self.best[prefix]
            self._export(prefix, None, None)
            out_attrs = None
        else:
            self.best[prefix] = winner
            out_attrs = self._exported(*winner)
            self._export(prefix, winner[0], out_attrs)
        if self.observers:
            self._notify(prefix, out_attrs)

    # -- export ---------------------------------------------------------------

    def _exported(self, src: Optional[int], attrs: PathAttributes) -> PathAttributes:
        """A route as this AS announces it (own ASN prepended unless
        locally originated or this AS is transparent)."""
        if src is None or self.transparent:
            return attrs
        return attrs.with_prepended(self.asn, self.next_hop)

    def export_attributes(self, prefix: Prefix) -> Optional[PathAttributes]:
        """The route for ``prefix`` as this AS announces it."""
        entry = self.best.get(prefix)
        return None if entry is None else self._exported(*entry)

    def _export(self, prefix: Prefix, src: Optional[int],
                out_attrs: Optional[PathAttributes]) -> None:
        """Advertise ``out_attrs`` (learned from ``src``) to every
        neighbour policy allows, and retract it from the rest; with
        ``out_attrs`` None, retract it everywhere.  One immutable
        message object goes to every neighbour."""
        send, asn = self.world.send, self.asn
        advertised = self.advertised.get(prefix)
        if advertised is None:
            advertised = self.advertised[prefix] = set()
        withdrawal = Withdrawal(prefix) if advertised else None
        if out_attrs is None:
            for neighbor in sorted(advertised):  # ASN order, as exports walk
                send(asn, neighbor, withdrawal)
            advertised.clear()
            return
        announcement = Announcement(prefix, out_attrs)
        path = out_attrs.as_path.asns
        for neighbor, allowed in (self._export_plan or self._plan_exports())[src]:
            # Never advertise a route back to its source (retract it
            # there if policy flipped the source) nor into a loop.
            if allowed and neighbor != src and neighbor not in path:
                advertised.add(neighbor)
                send(asn, neighbor, announcement)
            elif neighbor in advertised:
                advertised.discard(neighbor)
                send(asn, neighbor, withdrawal)

    def _plan_exports(self) -> dict[Optional[int], list[tuple[int, bool]]]:
        """Per source (None: local), ``(neighbour, may export)`` for
        every neighbour in ASN order."""
        neighbors = sorted(self.relationships.items())
        plans = {learned: [(neighbor, should_export(learned, rel))
                           for neighbor, rel in neighbors]
                 for learned in (None, *Relationship)}
        self._export_plan = {None: plans[None],
                             **{neighbor: plans[rel] for neighbor, rel in neighbors}}
        return self._export_plan

    def _notify(self, prefix: Prefix, attrs: Optional[PathAttributes]) -> None:
        now = self.world.engine.now
        for observer in self.observers:
            observer(now, prefix, attrs)

    # -- session events ------------------------------------------------------

    def session_down(self, neighbor: int) -> None:
        """The session to ``neighbor`` dropped: flush what they taught us
        and forget what we advertised to them."""
        for neighbors in self.advertised.values():
            neighbors.discard(neighbor)
        affected = [prefix for prefix, routes in self.adj_rib_in.items()
                    if neighbor in routes]
        for prefix in affected:
            self._forget(neighbor, prefix)

    def session_up(self, neighbor: int) -> None:
        """The session re-established: re-advertise our table, stale
        routes included (the resurrection mechanism)."""
        relationship = self.relationships[neighbor]
        for prefix in sorted(self.best, key=str):
            src, attrs = self.best[prefix]
            out_attrs = self._exported(src, attrs)
            if (should_export(self.relationships.get(src), relationship)
                    and neighbor != src
                    and not out_attrs.as_path.contains(neighbor)):
                self.advertised.setdefault(prefix, set()).add(neighbor)
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
