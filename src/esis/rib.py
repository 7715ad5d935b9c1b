"""Routing information base: neighbor table plus redirect cache.

The table is a dict keyed on (kind, address), the cache one keyed on
destination; a dict keeps insertion order, and a replaced key keeps its
place. Entries carry an absolute expiry time; expiry <= now is expired.
Dump lines (stable text interface):
  ES <address-hex> via <snpa-hex> expires <t>
  IS <address-hex> via <snpa-hex> expires <t>
  RD <dest-hex> -> <snpa-hex> [net <net-hex>] expires <t>
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class EntryKind(str, enum.Enum):
    """A str whose value is the dump token: it hashes and formats in C."""
    __str__ = str.__str__
    __format__ = str.__format__
    ES_NEIGHBOR = "ES"
    IS_NEIGHBOR = "IS"


class InsertResult(enum.Enum):
    INSERTED = "Inserted"
    REPLACED = "Replaced"


class HopKind(enum.Enum):
    DIRECT = "Direct"
    VIA_IS = "ViaIs"
    UNKNOWN = "Unknown"


@dataclass(frozen=True)
class NextHop:
    kind: HopKind
    snpa: bytes | None = None


UNKNOWN_HOP = NextHop(HopKind.UNKNOWN)
_ES, _IS = EntryKind
_INSERTED, _REPLACED = InsertResult


@dataclass(slots=True)
class RibEntry:
    kind: EntryKind
    address: bytes
    snpa: bytes
    expiry: int

    def dump_line(self) -> str:
        return (f"{self.kind} {self.address.hex()} "
                f"via {self.snpa.hex()} expires {self.expiry}")


@dataclass(slots=True)
class RedirectEntry:
    destination: bytes
    better_snpa: bytes
    redirect_net: bytes | None
    expiry: int
    holding_time: int

    def dump_line(self) -> str:
        net = f" net {self.redirect_net.hex()}" if self.redirect_net else ""
        return (f"RD {self.destination.hex()} -> {self.better_snpa.hex()}"
                f"{net} expires {self.expiry}")


class Rib:
    """Neighbor entries by (kind, address), redirects by destination, each
    in insertion order, with expiry."""

    def __init__(self) -> None:
        self.entries: dict[tuple[EntryKind, bytes], RibEntry] = {}
        self.redirects: dict[bytes, RedirectEntry] = {}

    @property
    def num_of_entry(self) -> int:
        return len(self.entries)

    def insert_entry(self, kind: EntryKind, address: bytes, snpa: bytes,
                     holding_time: int, now: int) -> InsertResult:
        """Upsert keyed on (kind, address); replacing keeps the entry's place."""
        expiry = now + holding_time
        e = self.entries.get((kind, address))
        if e is not None:
            e.snpa = snpa
            e.expiry = expiry
            return _REPLACED
        self.entries[kind, address] = RibEntry(kind, address, snpa, expiry)
        return _INSERTED

    def lookup(self, address: bytes, now: int) -> RibEntry | None:
        """First inserted live entry for the address, of either kind."""
        es = self.entries.get((_ES, address))
        is_ = self.entries.get((_IS, address))
        if es is None or es.expiry <= now:
            return is_ if is_ is not None and is_.expiry > now else None
        if is_ is None or is_.expiry <= now:
            return es
        # Both kinds are live: the dict's order says which came first.
        return next(e for e in self.entries.values() if e is es or e is is_)

    def lookup_redirect(self, destination: bytes, now: int) -> RedirectEntry | None:
        r = self.redirects.get(destination)
        if r is not None and r.expiry > now:
            return r
        return None

    def flush_expired(self, now: int) -> int:
        """Drop every entry and redirect with expiry <= now, in place: most
        calls drop nothing, and a scan costs half of rebuilding both dicts."""
        dead = [k for k, e in self.entries.items() if e.expiry <= now]
        for k in dead:
            del self.entries[k]
        gone = [d for d, r in self.redirects.items() if r.expiry <= now]
        for d in gone:
            del self.redirects[d]
        return len(dead) + len(gone)

    def record_redirect(self, destination: bytes, better_snpa: bytes,
                        redirect_net: bytes | None, holding_time: int,
                        now: int) -> InsertResult:
        expiry = now + holding_time
        r = self.redirects.get(destination)
        if r is not None:
            r.better_snpa = better_snpa
            r.redirect_net = redirect_net
            r.expiry = expiry
            r.holding_time = holding_time
            return _REPLACED
        self.redirects[destination] = RedirectEntry(destination, better_snpa,
                                                    redirect_net, expiry, holding_time)
        return _INSERTED

    def refresh_redirect(self, destination: bytes, observed_snpa: bytes,
                         now: int, holding_time: int) -> bool:
        """Extend a redirect only when traffic came over the same SNPA."""
        r = self.redirects.get(destination)
        if r is not None and r.better_snpa == observed_snpa:
            r.expiry = now + holding_time
            return True
        return False

    def next_hop(self, destination: bytes, now: int) -> NextHop:
        """Redirect first, then direct ES neighbor, then any live IS."""
        r = self.lookup_redirect(destination, now)
        if r is not None:
            return NextHop(HopKind.DIRECT, r.better_snpa)
        e = self.entries.get((_ES, destination))
        if e is not None and e.expiry > now:
            return NextHop(HopKind.DIRECT, e.snpa)
        # Most recently inserted live IS wins.
        for e in reversed(self.entries.values()):
            if e.kind is _IS and e.expiry > now:
                return NextHop(HopKind.VIA_IS, e.snpa)
        return UNKNOWN_HOP

    def has_live_is(self, now: int) -> bool:
        return any(e.kind is _IS and e.expiry > now for e in self.entries.values())

    def dump(self, now: int) -> list[str]:
        """Live entries, sections ES / IS / RD, each in insertion order."""
        es, is_ = [], []
        for (kind, _), e in self.entries.items():
            if e.expiry > now:
                (es if kind is _ES else is_).append(e.dump_line())
        return es + is_ + [r.dump_line() for r in self.redirects.values() if r.expiry > now]
