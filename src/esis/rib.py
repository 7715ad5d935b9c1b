"""Routing information base: neighbor tables plus redirect cache.

Neighbor entries live in one table per `EntryKind`, `es_neighbors` and
`is_neighbors`, each a dict keyed on the address; redirects live in one
keyed on destination. A dict keeps insertion order and a replaced key
keeps its place, so each dump section and "most recently first-inserted
live IS" read straight off a table.
Entries carry an absolute expiry time; expiry <= now is expired. The RIB
also keeps a lower bound on the earliest expiry it holds, lowered by every
insert, redirect and refresh, so `flush_expired` before that time returns
without a scan; a scan resets the bound.
Dump lines (stable text interface):
  ES <address-hex> via <snpa-hex> expires <t>
  IS <address-hex> via <snpa-hex> expires <t>
  RD <dest-hex> -> <snpa-hex> [net <net-hex>] expires <t>
"""

from __future__ import annotations

import enum
import math
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import chain


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


@dataclass(frozen=True, slots=True)
class NextHop:
    kind: HopKind
    snpa: bytes | None = None


UNKNOWN_HOP = NextHop(HopKind.UNKNOWN)
_IS = EntryKind.IS_NEIGHBOR
_INSERTED, _REPLACED = InsertResult


@dataclass(slots=True)
class RibEntry:
    kind: EntryKind
    address: bytes
    snpa: bytes
    expiry: int
    # True when the other kind's entry for this address was already in the
    # RIB as this one was inserted: when both are live, that one came first.
    second: bool = False

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


class _Entries:
    """A sized, iterable view of some tables' entries, table by table in
    insertion order, that copies nothing."""
    __slots__ = ("_tables",)

    def __init__(self, *tables: dict[bytes, RibEntry]) -> None:
        self._tables = tables

    def __len__(self) -> int:
        return sum(map(len, self._tables))

    def __iter__(self) -> Iterator[RibEntry]:
        return chain.from_iterable(t.values() for t in self._tables)


class Rib:
    """Neighbor entries by kind and address, redirects by destination, each
    in insertion order, with expiry."""
    __slots__ = ("es_neighbors", "is_neighbors", "redirects", "_next_expiry")

    def __init__(self) -> None:
        self.es_neighbors: dict[bytes, RibEntry] = {}
        self.is_neighbors: dict[bytes, RibEntry] = {}
        self.redirects: dict[bytes, RedirectEntry] = {}
        # No entry or redirect expires before this; see flush_expired.
        self._next_expiry: float = math.inf

    @property
    def entries(self) -> _Entries:
        """Every neighbor entry, the ES table's first."""
        return _Entries(self.es_neighbors, self.is_neighbors)

    @property
    def num_of_entry(self) -> int:
        return len(self.es_neighbors) + len(self.is_neighbors)

    def insert_entry(self, kind: EntryKind, address: bytes, snpa: bytes,
                     holding_time: int, now: int) -> InsertResult:
        """Upsert keyed on the address in `kind`'s table; replacing keeps the
        entry's place."""
        expiry = now + holding_time
        if expiry < self._next_expiry:
            self._next_expiry = expiry
        if kind is _IS:
            table, other = self.is_neighbors, self.es_neighbors
        else:
            table, other = self.es_neighbors, self.is_neighbors
        e = table.get(address)
        if e is not None:
            e.snpa = snpa
            e.expiry = expiry
            return _REPLACED
        twin = other.get(address)
        if twin is not None:
            twin.second = False
        table[address] = RibEntry(kind, address, snpa, expiry, twin is not None)
        return _INSERTED

    def lookup(self, address: bytes, now: int) -> RibEntry | None:
        """First inserted live entry for the address, of either kind."""
        es = self.es_neighbors.get(address)
        is_ = self.is_neighbors.get(address)
        if es is None or es.expiry <= now:
            return is_ if is_ is not None and is_.expiry > now else None
        if is_ is None or is_.expiry <= now:
            return es
        return is_ if es.second else es

    def lookup_redirect(self, destination: bytes, now: int) -> RedirectEntry | None:
        r = self.redirects.get(destination)
        if r is not None and r.expiry > now:
            return r
        return None

    def flush_expired(self, now: int) -> int:
        """Drop every entry and redirect with expiry <= now, in place.

        Before the bound on the earliest expiry nothing has expired, so
        most calls return at once; a call at or past it scans each table
        and sets the bound to the earliest expiry that is left.
        """
        if now < self._next_expiry:
            return 0
        removed = 0
        bound = math.inf
        for table in (self.es_neighbors, self.is_neighbors, self.redirects):
            dead = [k for k, e in table.items() if e.expiry <= now]
            for k in dead:
                del table[k]
            removed += len(dead)
            bound = min(bound, min((e.expiry for e in table.values()), default=bound))
        self._next_expiry = bound
        return removed

    def record_redirect(self, destination: bytes, better_snpa: bytes,
                        redirect_net: bytes | None, holding_time: int,
                        now: int) -> InsertResult:
        expiry = now + holding_time
        if expiry < self._next_expiry:
            self._next_expiry = expiry
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
            if r.expiry < self._next_expiry:
                self._next_expiry = r.expiry
            return True
        return False

    def next_hop(self, destination: bytes, now: int) -> NextHop:
        """Redirect first, then direct ES neighbor, then any live IS."""
        r = self.lookup_redirect(destination, now)
        if r is not None:
            return NextHop(HopKind.DIRECT, r.better_snpa)
        e = self.es_neighbors.get(destination)
        if e is not None and e.expiry > now:
            return NextHop(HopKind.DIRECT, e.snpa)
        # Most recently first-inserted live IS wins.
        for e in reversed(self.is_neighbors.values()):
            if e.expiry > now:
                return NextHop(HopKind.VIA_IS, e.snpa)
        return UNKNOWN_HOP

    def has_live_is(self, now: int) -> bool:
        for e in self.is_neighbors.values():
            if e.expiry > now:
                return True
        return False

    def dump(self, now: int) -> list[str]:
        """Live entries, sections ES / IS / RD, each in insertion order."""
        return ([e.dump_line() for e in self.entries if e.expiry > now]
                + [r.dump_line() for r in self.redirects.values() if r.expiry > now])
