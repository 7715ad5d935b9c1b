import random

from esis.rib import EntryKind, HopKind, InsertResult, Rib

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

    assert rib.refresh_redirect(D, S2, 90, 60) is True
    assert rib.lookup_redirect(D, 90).expiry == 150
    # SNPA mismatch is not the same path
    assert rib.refresh_redirect(D, S3, 90, 60) is False
    assert rib.refresh_redirect(B, S2, 90, 60) is False


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
        live = [(s, e) for (k, a), (s, e) in self.entries.items()
                if a == address and e > now]
        return live[0] if live else None

    def record_redirect(self, destination, snpa, holding, now):
        existed = destination in self.redirects
        self.redirects[destination] = (snpa, now + holding)
        return InsertResult.REPLACED if existed else InsertResult.INSERTED

    def refresh_redirect(self, destination, snpa, now, holding):
        if destination not in self.redirects or self.redirects[destination][0] != snpa:
            return False
        self.redirects[destination] = (snpa, now + holding)
        return True

    def next_hop(self, destination, now):
        snpa, expiry = self.redirects.get(destination, (None, 0))
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
                        for d, (s, e) in self.redirects.items() if e > now]

    def flush(self, now):
        dead = [k for k, (_, e) in self.entries.items() if e <= now]
        for k in dead:
            del self.entries[k]
        gone = [d for d, (_, e) in self.redirects.items() if e <= now]
        for d in gone:
            del self.redirects[d]
        return len(dead) + len(gone)


def test_model_equivalence_random_ops():
    rng = random.Random(1234)
    rib, model = Rib(), MapModel()
    addrs = [bytes([i]) * 8 for i in range(12)]
    snpas = [bytes([0, 0, 0, 0, 0, i]) for i in range(4)]
    now = 0
    for _ in range(3000):
        now += rng.randint(0, 3)
        op = rng.randrange(8)
        # Holding times are drawn afresh, so about half of all refreshes
        # move an expiry earlier.
        holding = rng.randint(1, 30)
        a, s = rng.choice(addrs), rng.choice(snpas)
        if op == 0:
            kind = rng.choice(list(EntryKind))
            assert (rib.insert_entry(kind, a, s, holding, now)
                    == model.insert(kind, a, s, holding, now))
        elif op == 1:
            got = rib.lookup(a, now)
            want = model.lookup(a, now)
            assert (got is None) == (want is None)
            if got is not None:
                assert (got.snpa, got.expiry) == want
        elif op == 2:
            assert rib.flush_expired(now) == model.flush(now)
        elif op == 3:
            assert (rib.record_redirect(a, s, None, holding, now)
                    == model.record_redirect(a, s, holding, now))
        elif op == 4:
            assert (rib.refresh_redirect(a, s, now, holding)
                    == model.refresh_redirect(a, s, now, holding))
        elif op == 5:
            hop = rib.next_hop(a, now)
            assert (hop.kind, hop.snpa) == model.next_hop(a, now)
        elif op == 6:
            assert rib.has_live_is(now) == model.has_live_is(now)
        else:
            assert rib.dump(now) == model.dump(now)
        assert (rib.num_of_entry == len(rib.entries)
                == len(rib.es_neighbors) + len(rib.is_neighbors) == len(model.entries))


def test_lookup_of_address_held_under_both_kinds_returns_first_inserted():
    for first, second in ((EntryKind.ES_NEIGHBOR, EntryKind.IS_NEIGHBOR),
                          (EntryKind.IS_NEIGHBOR, EntryKind.ES_NEIGHBOR)):
        rib = Rib()
        rib.insert_entry(first, A, S1, 60, 0)
        rib.insert_entry(second, A, S2, 30, 0)
        assert rib.lookup(A, 0).kind is first and rib.lookup(A, 0).snpa == S1
        # A refresh keeps the entry's place; an expired first entry yields.
        rib.insert_entry(second, A, S2, 90, 10)
        assert rib.lookup(A, 10).kind is first
        assert rib.lookup(A, 60).kind is second
        # Flushed and learned again, the first kind now comes second.
        rib.flush_expired(60)
        rib.insert_entry(first, A, S3, 60, 60)
        assert rib.lookup(A, 60).kind is second


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
    # A refresh with a shorter holding time moves the expiry down as well.
    rib.record_redirect(D, S1, None, 100, 20)
    assert rib.flush_expired(30) == 0
    assert rib.refresh_redirect(D, S1, 30, 10)  # now expires at 40
    assert rib.flush_expired(40) == 1
