import math
import random

import pytest

from esis.rib import EntryKind, EntryPool, HopKind, InsertResult, Rib

A = b"\x49" + bytes(19)
B = b"\x4a" + bytes(19)
D = b"\x4b" + bytes(19)
S1 = bytes.fromhex("020000000001")
S2 = bytes.fromhex("020000000002")
S3 = bytes.fromhex("020000000003")


def test_insert_and_replace():
    rib = Rib()
    assert rib.insert_entry(EntryKind.ES_NEIGHBOR, A, S1, 60, 0) is InsertResult.INSERTED
    assert rib.num_of_entry == 1
    assert rib.insert_entry(EntryKind.ES_NEIGHBOR, A, S2, 60, 5) is InsertResult.REPLACED
    assert rib.num_of_entry == 1
    assert rib.lookup(A, 10).snpa == S2
    assert rib.insert_entry(EntryKind.ES_NEIGHBOR, B, S3, 60, 5) is InsertResult.INSERTED
    assert rib.num_of_entry == 2


def test_same_address_different_kind_are_distinct():
    rib = Rib()
    rib.insert_entry(EntryKind.ES_NEIGHBOR, A, S1, 60, 0)
    assert rib.insert_entry(EntryKind.IS_NEIGHBOR, A, S2, 60, 0) is InsertResult.INSERTED
    assert rib.num_of_entry == 2


def test_lookup_respects_expiry():
    rib = Rib()
    assert rib.lookup(A, 0) is None
    rib.insert_entry(EntryKind.ES_NEIGHBOR, A, S1, 60, 0)
    assert rib.lookup(A, 30).snpa == S1
    assert rib.lookup(A, 60) is None  # expiry <= now counts as expired
    assert rib.lookup(A, 61) is None


def test_flush_expired():
    rib = Rib()
    assert rib.flush_expired(0) == 0
    rib.insert_entry(EntryKind.ES_NEIGHBOR, A, S1, 60, 0)
    assert rib.flush_expired(60) == 1
    assert rib.num_of_entry == 0
    rib.insert_entry(EntryKind.ES_NEIGHBOR, A, S1, 50, 0)
    rib.insert_entry(EntryKind.ES_NEIGHBOR, B, S2, 70, 0)
    assert rib.flush_expired(60) == 1
    assert rib.num_of_entry == 1
    assert rib.lookup(B, 60) is not None


def test_redirect_upsert_and_refresh():
    rib = Rib()
    assert rib.record_redirect(D, S1, None, 60, 0) is InsertResult.INSERTED
    assert rib.record_redirect(D, S2, None, 60, 5) is InsertResult.REPLACED
    assert rib.next_hop(D, 10) == rib.next_hop(D, 10)
    assert rib.next_hop(D, 10).snpa == S2

    # A refresh re-arms the redirect at its own holding time.
    assert rib.refresh_redirect(D, S2, 30) is True
    assert rib.lookup_redirect(D, 30).expiry == 90
    # SNPA mismatch is not the same path
    assert rib.refresh_redirect(D, S3, 40) is False
    assert rib.refresh_redirect(B, S2, 40) is False
    assert rib.lookup_redirect(D, 40).expiry == 90


def test_refresh_of_an_expired_unflushed_redirect_is_refused():
    rib = Rib()
    rib.record_redirect(D, S1, None, 10, 0)
    assert rib.refresh_redirect(D, S1, 10) is False
    assert rib.lookup_redirect(D, 10) is None
    assert rib.redirects[D].expiry == 10
    assert rib.flush_expired(10) == 1
    assert rib.refresh_redirect(D, S1, 10) is False
    assert rib.redirects == {}


def test_next_hop_precedence():
    rib = Rib()
    assert rib.next_hop(D, 0).kind is HopKind.UNKNOWN
    rib.insert_entry(EntryKind.IS_NEIGHBOR, A, S1, 600, 0)
    assert rib.next_hop(D, 0).kind is HopKind.VIA_IS
    rib.insert_entry(EntryKind.ES_NEIGHBOR, D, S2, 600, 0)
    hop = rib.next_hop(D, 0)
    assert hop.kind is HopKind.DIRECT and hop.snpa == S2
    rib.record_redirect(D, S3, None, 600, 0)
    hop = rib.next_hop(D, 0)
    assert hop.kind is HopKind.DIRECT and hop.snpa == S3


def test_next_hop_most_recent_is_wins():
    rib = Rib()
    rib.insert_entry(EntryKind.IS_NEIGHBOR, A, S1, 600, 0)
    rib.insert_entry(EntryKind.IS_NEIGHBOR, B, S2, 600, 0)
    assert rib.next_hop(D, 0).snpa == S2
    # An expired later IS falls back to the earlier live one.
    rib.insert_entry(EntryKind.IS_NEIGHBOR, D, S3, 5, 0)
    assert rib.next_hop(D, 10).snpa == S2


def test_refreshed_is_keeps_its_place():
    rib = Rib()
    rib.insert_entry(EntryKind.IS_NEIGHBOR, A, S1, 600, 0)
    rib.insert_entry(EntryKind.IS_NEIGHBOR, B, S2, 600, 0)
    rib.insert_entry(EntryKind.IS_NEIGHBOR, A, S1, 600, 10)
    assert rib.next_hop(D, 10).snpa == S2


def test_dump_ordering_and_format():
    rib = Rib()
    rib.insert_entry(EntryKind.IS_NEIGHBOR, B, S2, 100, 0)
    rib.insert_entry(EntryKind.ES_NEIGHBOR, A, S1, 100, 0)
    rib.record_redirect(D, S3, B, 100, 0)
    assert rib.dump(0) == [
        f"ES {A.hex()} via {S1.hex()} expires 100",
        f"IS {B.hex()} via {S2.hex()} expires 100",
        f"RD {D.hex()} -> {S3.hex()} net {B.hex()} expires 100",
    ]
    rib.record_redirect(D, S3, None, 100, 0)
    assert rib.dump(0)[-1] == f"RD {D.hex()} -> {S3.hex()} expires 100"
    assert rib.dump(100) == []


class MapModel:
    """Naive associative-array oracle: one dict of entries keyed on
    (kind, address), one of redirects keyed on destination."""

    def __init__(self):
        self.entries = {}
        self.redirects = {}

    def insert(self, kind, address, snpa, holding, now):
        key = (kind, address)
        existed = key in self.entries
        self.entries[key] = (snpa, now + holding)
        return InsertResult.REPLACED if existed else InsertResult.INSERTED

    def lookup(self, address, now):
        """The live ES entry, else the live IS entry, as (kind, snpa, expiry)."""
        for kind in (EntryKind.ES_NEIGHBOR, EntryKind.IS_NEIGHBOR):
            snpa, expiry = self.entries.get((kind, address), (None, 0))
            if expiry > now:
                return kind, snpa, expiry
        return None

    def record_redirect(self, destination, snpa, holding, now):
        existed = destination in self.redirects
        self.redirects[destination] = (snpa, now + holding, holding)
        return InsertResult.REPLACED if existed else InsertResult.INSERTED

    def refresh_redirect(self, destination, snpa, now):
        """A live redirect over `snpa` is re-armed at its own holding time."""
        held, expiry, holding = self.redirects.get(destination, (None, 0, 0))
        if held != snpa or expiry <= now:
            return False
        self.redirects[destination] = (snpa, now + holding, holding)
        return True

    def next_hop(self, destination, now):
        snpa, expiry, _ = self.redirects.get(destination, (None, 0, 0))
        if expiry > now:
            return HopKind.DIRECT, snpa
        snpa, expiry = self.entries.get((EntryKind.ES_NEIGHBOR, destination), (None, 0))
        if expiry > now:
            return HopKind.DIRECT, snpa
        live_is = [s for (k, _), (s, e) in self.entries.items()
                   if k is EntryKind.IS_NEIGHBOR and e > now]
        return (HopKind.VIA_IS, live_is[-1]) if live_is else (HopKind.UNKNOWN, None)

    def has_live_is(self, now):
        return any(k is EntryKind.IS_NEIGHBOR and e > now
                   for (k, _), (_, e) in self.entries.items())

    def dump(self, now):
        lines = [f"{k} {a.hex()} via {s.hex()} expires {e}"
                 for kind in EntryKind
                 for (k, a), (s, e) in self.entries.items() if k is kind and e > now]
        return lines + [f"RD {d.hex()} -> {s.hex()} expires {e}"
                        for d, (s, e, _) in self.redirects.items() if e > now]

    def flush(self, now):
        dead = [k for k, (_, e) in self.entries.items() if e <= now]
        for k in dead:
            del self.entries[k]
        gone = [d for d, (_, e, _) in self.redirects.items() if e <= now]
        for d in gone:
            del self.redirects[d]
        return len(dead) + len(gone)


def tables(rib):
    return rib.es_neighbors, rib.is_neighbors, rib.redirects


def expiries(rib):
    return [e.expiry for table in tables(rib) for e in table.values()]


def test_model_equivalence_random_ops():
    # Two RIBs share one pool, as the nodes of one simulator do, each checked
    # against a model of its own. About half of all inserts reach both, as a
    # multicast hello does, so the RIBs hold shared entries.
    rng = random.Random(1234)
    pool = EntryPool()
    ribs, models = [Rib(pool), Rib(pool)], [MapModel(), MapModel()]
    addrs = [bytes([i]) * 8 for i in range(12)]
    snpas = [bytes([0, 0, 0, 0, 0, i]) for i in range(4)]
    now = 0
    # Scanning flushes that found the IS and redirect tables empty, and
    # scanning flushes that emptied a table.
    past_empty = emptied = 0
    for step in range(6000):
        # Every third block of 500 ops learns ES entries alone and records no
        # redirect, as a quiet LAN second does, so those tables run empty.
        quiet = step // 500 % 3 == 2
        now += rng.randint(0, 3)
        op = rng.randrange(8)
        i = rng.randrange(2)
        rib, model = ribs[i], models[i]
        # Holding times are drawn afresh, so about half of all replacing
        # inserts and redirects move an expiry earlier.
        holding = rng.randint(1, 30)
        a, s = rng.choice(addrs), rng.choice(snpas)
        if op == 0:
            kind = EntryKind.ES_NEIGHBOR if quiet else rng.choice(list(EntryKind))
            for j in ((0, 1) if rng.random() < 0.5 else (i,)):
                assert (ribs[j].insert_entry(kind, a, s, holding, now)
                        == models[j].insert(kind, a, s, holding, now))
        elif op == 1:
            # Every address, so that some lookups meet both kinds live.
            for x in addrs:
                got, want = rib.lookup(x, now), model.lookup(x, now)
                assert (got is None) == (want is None)
                if got is not None:
                    assert (got.kind, got.snpa, got.expiry) == want
        elif op == 2:
            scans = now >= rib._next_expiry
            held = [bool(table) for table in tables(rib)]
            assert rib.flush_expired(now) == model.flush(now)
            if scans:
                # A scan leaves the bound at the earliest expiry held.
                assert rib._next_expiry == min(expiries(rib), default=math.inf)
                past_empty += not held[1] and not held[2]
                emptied += any(h and not t for h, t in zip(held, tables(rib)))
        elif op == 3:
            if not quiet:
                assert (rib.record_redirect(a, s, None, holding, now)
                        == model.record_redirect(a, s, holding, now))
        elif op == 4:
            assert rib.refresh_redirect(a, s, now) == model.refresh_redirect(a, s, now)
        elif op == 5:
            hop = rib.next_hop(a, now)
            assert (hop.kind, hop.snpa) == model.next_hop(a, now)
        elif op == 6:
            assert rib.has_live_is(now) == model.has_live_is(now)
        else:
            assert rib.dump(now) == model.dump(now)
        for rib, model in zip(ribs, models):
            assert (rib.num_of_entry == len(rib.entries)
                    == len(rib.es_neighbors) + len(rib.is_neighbors) == len(model.entries))
            # Nothing held expires before the bound, so a flush before it
            # may return without a scan.
            assert all(rib._next_expiry <= x for x in expiries(rib))
    shared = [e for e in ribs[0].entries if any(e is f for f in ribs[1].entries)]
    assert shared, "no entry ended up shared"
    assert past_empty and emptied, (past_empty, emptied)


def test_lookup_of_address_held_under_both_kinds_returns_its_live_es_entry():
    ES, IS = EntryKind.ES_NEIGHBOR, EntryKind.IS_NEIGHBOR
    # next_hop's precedence, whichever kind was inserted first.
    for order in ((ES, IS), (IS, ES)):
        rib = Rib()
        for kind in order:
            rib.insert_entry(kind, A, S1 if kind is ES else S2, 30 if kind is ES else 60, 0)
        got = rib.lookup(A, 0)
        assert (got.kind, got.snpa, got.expiry) == (ES, S1, 30)
        # The ES entry expired, then flushed: the live IS entry answers.
        assert (rib.lookup(A, 30).kind, rib.lookup(A, 30).snpa) == (IS, S2)
        assert rib.flush_expired(30) == 1
        assert (rib.lookup(A, 30).kind, rib.lookup(A, 30).snpa) == (IS, S2)
        # Learned again after the IS entry, the ES entry comes first again.
        rib.insert_entry(ES, A, S3, 60, 30)
        assert (rib.lookup(A, 30).kind, rib.lookup(A, 30).snpa) == (ES, S3)
        assert rib.lookup(A, 60).kind is ES  # the IS entry expires at 60
        assert rib.lookup(A, 90) is None


def test_rib_values_take_no_assignment_of_a_field_or_a_new_name():
    # A pooled entry is shared by every receiver of a hello, and an event
    # is the value the RIB holds, so no caller may change one or hang a
    # name on it.
    rib = Rib()
    rib.insert_entry(EntryKind.ES_NEIGHBOR, A, S1, 60, 0)
    rib.record_redirect(D, S2, B, 60, 0)
    for value in (rib.es_neighbors[A], rib.redirects[D]):
        for name in ("extra", "expiry", "line"):
            with pytest.raises(AttributeError):
                setattr(value, name, 1)


def test_entry_replaced_with_shorter_holding_time_is_flushed_at_new_expiry():
    rib = Rib()
    rib.insert_entry(EntryKind.ES_NEIGHBOR, A, S1, 100, 0)
    assert rib.flush_expired(10) == 0
    rib.insert_entry(EntryKind.ES_NEIGHBOR, A, S1, 20, 10)  # now expires at 30
    assert rib.flush_expired(29) == 0
    assert rib.flush_expired(30) == 1
    assert rib.num_of_entry == 0


def test_redirect_with_shorter_holding_time_is_flushed_at_new_expiry():
    rib = Rib()
    rib.record_redirect(D, S1, None, 100, 0)
    assert rib.flush_expired(10) == 0
    rib.record_redirect(D, S2, None, 5, 10)  # now expires at 15
    assert rib.flush_expired(15) == 1
    assert rib.redirects == {}
    # A refresh re-arms at the redirect's own holding time.
    rib.record_redirect(D, S1, None, 10, 20)  # expires at 30
    assert rib.refresh_redirect(D, S1, 25)  # now expires at 35
    assert rib.flush_expired(30) == 0
    assert rib.flush_expired(35) == 1


def test_standalone_rib_pool_holds_one_time_steps_inserts():
    rib = Rib()
    for now in range(1000):
        for kind in EntryKind:
            for address in (A, B, D):
                rib.insert_entry(kind, address, S1, 60 + now % 7, now)
        # The RIB's private pool (read here as the private attribute).
        assert len(rib._pool) == 6 and rib._pool.now == now
    assert rib.num_of_entry == 6
