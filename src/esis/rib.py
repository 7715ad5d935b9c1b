"""Routing information base: neighbor tables plus redirect cache.

Neighbor entries live in one table per `EntryKind`, `es_neighbors` and
`is_neighbors`, each a dict keyed on the address; redirects live in one
keyed on destination. A dict keeps insertion order and a replaced key
keeps its place, so each dump section and "most recently first-inserted
live IS" read straight off a table. An address held under both kinds reads
as its live ES entry first, in `lookup` as in `next_hop`.
Every RIB value, a `RibEntry` or a `RedirectEntry`, is a NamedTuple built
in C whose last field, `line`, is its dump line, rendered once when built;
it is replaced, never changed, so the engine reports a RIB change as the
value itself. Neighbor entries are interned on (kind, address, SNPA,
expiry) in an `EntryPool`: a simulator owns one for every node's RIB, so
the receivers of a hello share one entry, a RIB built alone makes its own,
and a pool holds one virtual time's entries.
Entries carry an absolute expiry time; expiry <= now is expired. A refresh
re-records a live redirect at its own holding time. The RIB keeps a lower
bound on the earliest expiry it holds, lowered by every insert and redirect,
so `flush_expired` before it returns without a scan; a scan reads each
non-empty table once, dropping what has expired and resetting the bound.
Dump lines (stable text interface):
  ES <address-hex> via <snpa-hex> expires <t>
  IS <address-hex> via <snpa-hex> expires <t>
  RD <dest-hex> -> <snpa-hex> [net <net-hex>] expires <t>
"""

from __future__ import annotations

import enum
import math
from itertools import chain
from typing import NamedTuple


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


class NextHop(NamedTuple):
    kind: HopKind
    snpa: bytes | None = None


UNKNOWN_HOP = NextHop(HopKind.UNKNOWN)
_DIRECT, _VIA_IS = HopKind.DIRECT, HopKind.VIA_IS
_new = tuple.__new__  # builds a NamedTuple in C, past its Python-level __new__
_IS = EntryKind.IS_NEIGHBOR
_INSERTED, _REPLACED = InsertResult


class RibEntry(NamedTuple):
    kind: EntryKind
    address: bytes
    snpa: bytes
    expiry: int
    line: str


class EntryPool(dict):
    """Shared `RibEntry` values keyed on (kind, address, SNPA, expiry), all
    inserted at virtual time `now`; see `Rib.insert_entry`. Each is built in
    C, with its dump line rendered into `line` once."""
    now: int | None = None

    def __missing__(self, key: tuple) -> RibEntry:
        kind, address, snpa, expiry = key
        e = self[key] = _new(RibEntry, (kind, address, snpa, expiry,
                                        f"{kind} {address.hex()} via {snpa.hex()} expires {expiry}"))
        return e


class RedirectEntry(NamedTuple):
    destination: bytes
    better_snpa: bytes
    redirect_net: bytes | None
    expiry: int
    holding_time: int
    line: str


class Rib:
    """Neighbor entries by kind and address, redirects by destination, each
    in insertion order, with expiry."""
    __slots__ = ("es_neighbors", "is_neighbors", "redirects", "_next_expiry", "_pool")

    def __init__(self, pool: EntryPool | None = None) -> None:
        self.es_neighbors: dict[bytes, RibEntry] = {}
        self.is_neighbors: dict[bytes, RibEntry] = {}
        self.redirects: dict[bytes, RedirectEntry] = {}
        self._pool = EntryPool() if pool is None else pool
        # No entry or redirect expires before this; see flush_expired.
        self._next_expiry: float = math.inf

    @property
    def entries(self) -> list[RibEntry]:
        """Every neighbor entry, the ES table's first."""
        return [*self.es_neighbors.values(), *self.is_neighbors.values()]

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
        table = self.is_neighbors if kind is _IS else self.es_neighbors
        pool = self._pool
        if now != pool.now:  # every insert at virtual time t has now = t
            pool.clear()
            pool.now = now
        replaced = address in table
        table[address] = pool[kind, address, snpa, expiry]
        return _REPLACED if replaced else _INSERTED

    def lookup(self, address: bytes, now: int) -> RibEntry | None:
        """The live ES entry for the address, else its live IS entry, as `next_hop` reads."""
        e = self.es_neighbors.get(address)
        if e is None or e.expiry <= now:
            e = self.is_neighbors.get(address)
        return e if e is not None and e.expiry > now else None

    def lookup_redirect(self, destination: bytes, now: int) -> RedirectEntry | None:
        r = self.redirects.get(destination)
        return r if r is not None and r.expiry > now else None

    def flush_expired(self, now: int) -> int:
        """Drop every entry and redirect with expiry <= now, in place.

        Before the bound on the earliest expiry nothing has expired, so
        most calls return at once; a call at or past it reads each non-empty
        table once, collecting its expired keys and the earliest expiry that
        is left, which becomes the bound.
        """
        if now < self._next_expiry:
            return 0
        removed, bound = 0, math.inf
        for table in (self.es_neighbors, self.is_neighbors, self.redirects):
            if table:
                dead = []
                for k, e in table.items():
                    if e.expiry <= now:
                        dead.append(k)
                    elif e.expiry < bound:
                        bound = e.expiry
                for k in dead:
                    del table[k]
                removed += len(dead)
        self._next_expiry = bound
        return removed

    def record_redirect(self, destination: bytes, better_snpa: bytes,
                        redirect_net: bytes | None, holding_time: int,
                        now: int) -> InsertResult:
        expiry = now + holding_time
        if expiry < self._next_expiry:
            self._next_expiry = expiry
        replaced = destination in self.redirects
        net = f" net {redirect_net.hex()}" if redirect_net else ""
        self.redirects[destination] = _new(RedirectEntry, (
            destination, better_snpa, redirect_net, expiry, holding_time,
            f"RD {destination.hex()} -> {better_snpa.hex()}{net} expires {expiry}"))
        return _REPLACED if replaced else _INSERTED

    def refresh_redirect(self, destination: bytes, observed_snpa: bytes, now: int) -> bool:
        """Re-record a live redirect at its own holding time if traffic came over its SNPA."""
        r = self.redirects.get(destination)
        if r is None or r.expiry <= now or r.better_snpa != observed_snpa:
            return False
        self.record_redirect(destination, observed_snpa, r.redirect_net, r.holding_time, now)
        return True

    def next_hop(self, destination: bytes, now: int) -> NextHop:
        """Redirect first, then direct ES neighbor, then any live IS."""
        r = self.lookup_redirect(destination, now)
        if r is not None:
            return _new(NextHop, (_DIRECT, r.better_snpa))
        e = self.es_neighbors.get(destination)
        if e is not None and e.expiry > now:
            return _new(NextHop, (_DIRECT, e.snpa))
        # Most recently first-inserted live IS wins.
        for e in reversed(self.is_neighbors.values()):
            if e.expiry > now:
                return _new(NextHop, (_VIA_IS, e.snpa))
        return UNKNOWN_HOP

    def has_live_is(self, now: int) -> bool:
        for e in self.is_neighbors.values():
            if e.expiry > now:
                return True
        return False

    def dump(self, now: int) -> list[str]:
        """Live entries, sections ES / IS / RD, each in insertion order."""
        return [e.line for e in chain(self.es_neighbors.values(), self.is_neighbors.values(),
                                      self.redirects.values()) if e.expiry > now]
