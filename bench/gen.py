"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of its seed: the same seed gives
byte-identical scenario text or corpus. The program sees only what these
functions return. Generated scenarios stay inside the values the scenario
parser will always accept: no negative `latency` or `at`, no `afi` key, and
faults only as `drop <n>` and `corrupt <n> random random`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from esis import checksum, pdu
from esis.pdu import (AaBody, EshBody, IshBody, Option, OptionCode, Pdu,
                      PduType, RaBody, RdBody)

NSAP_LEN = 20
IS_SNPA = "0200ffffffff"
ES_PREFIX = b"\x49\x00"
IS_PREFIX = b"\x49\xff"

# lan_hello: the 400-ES + 1-IS LAN of the ROADMAP, 200 virtual seconds.
LAN_ES = 400
LAN_CT = 30
LAN_UNTIL = 199
LAN_IS_START = 1
# Faults hit transmit ordinals in [LAN_FIRST_FAULT, LAN_MIN_TX): after the
# cold start, whose first ISH must not be lost, and below the fewest frames
# a run of this shape sends, so that every fault hits a frame.
LAN_FIRST_FAULT = 1000
LAN_MIN_TX = 3000

# clnp_redirect: ES learn each other only through redirects.
CLNP_ES = 200
CLNP_PEERS = 16
CLNP_FIRST_SEND = 5
CLNP_SENDS_PER_S = 100  # the same every second, so ticks differ only by cache state
CLNP_CT = 300  # holding time 600 > horizon: hellos stay a small share
CLNP_UNTIL = 199

# codec_corpus: CODEC_BATCHES batches of CODEC_BATCH frames.
CODEC_BATCH = 32
CODEC_BATCHES = 200


def _es_snpa(i: int) -> str:
    return (0x020000000000 + i + 1).to_bytes(6, "big").hex()


def _nsap(rng: random.Random, prefix: bytes) -> bytes:
    return prefix + rng.randbytes(NSAP_LEN - len(prefix) - 1) + b"\x00"


def lan_hello(seed: int) -> str:
    """Hello traffic on one broadcast LAN.

    ES boot evenly over the first ct seconds and the IS at t=1, so the ES
    that boot before its first ISH arrives (t=2) send all-ES bursts. A tenth
    of the ES go down for longer than the holding time and come back, so the
    IS flushes and re-learns them and each sends one more all-ES burst. One
    frame in a hundred is dropped and one in a hundred corrupted; the IS
    holds its entries for three hello periods, so one lost ISH does not
    expire it anywhere.

    The shape is fixed and the seed moves only addresses, which ES go down
    and when, and which frames meet a fault: each burst lands in a second of
    its own, away from the ISH seconds, so the tick percentiles sample the
    same mix of quiet and burst seconds for every seed.
    """
    rng = random.Random(seed)
    hold = 2 * LAN_CT
    starts = [i * LAN_CT // LAN_ES for i in range(LAN_ES)]
    rng.shuffle(starts)
    lines = []
    for i, start in enumerate(starts):
        lines.append(f"node es{i} role=es snpa={_es_snpa(i)} "
                     f"nsap={_nsap(rng, ES_PREFIX).hex()} ct={LAN_CT} start={start}")
    lines.append(f"node is0 role=is snpa={IS_SNPA} "
                 f"net={_nsap(rng, IS_PREFIX).hex()} ct={LAN_CT} multiplier=3 "
                 f"start={LAN_IS_START}")
    lines += ["latency 1", f"seed {seed}", f"until {LAN_UNTIL}"]
    # A return at u bursts at u + 1; ISH deliveries land at IS start + k*ct + 1.
    first_up = LAN_CT + hold + 1
    ups = rng.sample([u for u in range(first_up, LAN_UNTIL)
                      if (u - LAN_IS_START) % LAN_CT], LAN_ES // 10)
    for i, up in zip(rng.sample(range(LAN_ES), len(ups)), ups):
        down = up - hold - 1 - rng.randrange(up - first_up + 1)
        lines.append(f"at {down} down es{i}")
        lines.append(f"at {up} up es{i}")
    faults = rng.sample(range(LAN_FIRST_FAULT, LAN_MIN_TX), 2 * (LAN_MIN_TX // 100))
    half = len(faults) // 2
    lines += [f"drop {n}" for n in sorted(faults[:half])]
    lines += [f"corrupt {n} random random" for n in sorted(faults[half:])]
    return "\n".join(lines) + "\n"


def clnp_redirect(seed: int) -> str:
    """Unicast CLNP between ES that know each other only by redirect.

    Every ES starts after the first ISH has arrived (t=1), so its hellos go
    to all-IS only and no ES hears another's ESH. Each ES sends to a fixed
    random set of CLNP_PEERS peers: the first packet to a peer goes via the
    IS, which answers with a redirect; later ones read the redirect cache.
    """
    rng = random.Random(seed)
    nsaps = [_nsap(rng, ES_PREFIX) for _ in range(CLNP_ES)]
    lines = [f"node es{i} role=es snpa={_es_snpa(i)} nsap={nsap.hex()} "
             f"ct={CLNP_CT} start={2 + rng.randrange(3)}"
             for i, nsap in enumerate(nsaps)]
    lines.append(f"node is0 role=is snpa={IS_SNPA} "
                 f"net={_nsap(rng, IS_PREFIX).hex()} ct={CLNP_CT} start=0")
    lines += ["latency 1", f"seed {seed}", f"until {CLNP_UNTIL}"]
    peers = [rng.sample([j for j in range(CLNP_ES) if j != i], CLNP_PEERS)
             for i in range(CLNP_ES)]
    for t in range(CLNP_FIRST_SEND, CLNP_UNTIL + 1):
        for i in sorted(rng.choices(range(CLNP_ES), k=CLNP_SENDS_PER_S)):
            j = rng.choice(peers[i])
            lines.append(f"at {t} sendclnp es{i} {nsaps[i].hex()} {nsaps[j].hex()}")
    return "\n".join(lines) + "\n"


# Codec corpus ----------------------------------------------------------------

@dataclass(frozen=True)
class CorpusFrame:
    """One corpus frame with the verdict `decode` must give it (None for a
    frame taken off a sim run's wire, whose verdict only decode gives).

    `pdu` is set for frames that must decode: the PDU as decoded, checksum
    octets included. `checksummed` says whether encoding it again runs
    `generate_checksum`.
    """
    raw: bytes
    verdict: str | None
    pdu: Pdu | None = None
    checksummed: bool = True


# Options each PDU type may carry, from the wire format rather than from
# esis.pdu, so that the expected verdicts do not follow the code they check.
_LEGAL = {
    PduType.ESH: (OptionCode.SECURITY, OptionCode.PRIORITY),
    PduType.ISH: (OptionCode.SECURITY, OptionCode.PRIORITY, OptionCode.ESCT),
    PduType.RD: (OptionCode.SECURITY, OptionCode.PRIORITY,
                 OptionCode.ADDRESS_MASK, OptionCode.SNPA_MASK),
    PduType.RA: (OptionCode.SECURITY, OptionCode.PRIORITY),
    PduType.AA: (OptionCode.SECURITY, OptionCode.PRIORITY),
}
_UNKNOWN_OPTION_CODES = [c for c in range(256) if c not in set(OptionCode)]
_UNKNOWN_TYPES = [t for t in range(32) if t not in set(PduType)]


def _addr(rng: random.Random) -> bytes:
    """Half full-length NSAPs, half any legal length."""
    if rng.random() < 0.5:
        return rng.randbytes(NSAP_LEN)
    return rng.randbytes(rng.randint(1, NSAP_LEN))


def _option(rng: random.Random, code: OptionCode) -> Option:
    if code is OptionCode.PRIORITY:
        return Option(int(code), bytes([rng.randint(0, 14)]))
    if code is OptionCode.ESCT:
        return Option(int(code), rng.randint(1, 0xFFFF).to_bytes(2, "big"))
    return Option(int(code), rng.randbytes(rng.randint(1, 32)))


def _body(rng: random.Random, kind: PduType):
    if kind is PduType.ESH:
        return EshBody(tuple(_addr(rng) for _ in range(rng.randint(1, 11))))
    if kind is PduType.ISH:
        return IshBody(_addr(rng))
    if kind is PduType.AA:
        return AaBody(_addr(rng))
    if kind is PduType.RD:
        return RdBody(_addr(rng), rng.randbytes(6),
                      _addr(rng) if rng.random() < 0.5 else None)
    return RaBody()


def _valid_pdu(rng: random.Random, with_options: bool = True) -> Pdu:
    """A PDU meeting every encode invariant, header length 9..255."""
    kind = rng.choice(list(PduType))
    body = _body(rng, kind)
    options: tuple[Option, ...] = ()
    if with_options:
        codes = [c for c in _LEGAL[kind] if rng.random() < 0.4]
        options = tuple(_option(rng, c) for c in codes)
    p = Pdu(body, holding_time=rng.randint(0, 0xFFFF), options=options)
    while _header_len(p) > 255:
        if p.options:
            p = replace(p, options=p.options[:-1])
        else:
            p = replace(p, body=EshBody(p.body.source_addresses[:-1]))
    return p


def _header_len(p: Pdu) -> int:
    body = p.body
    if isinstance(body, EshBody):
        addrs = 1 + sum(1 + len(a) for a in body.source_addresses)
    elif isinstance(body, RdBody):
        addrs = 3 + len(body.destination) + 6 + len(body.redirect_net or b"")
    elif isinstance(body, RaBody):
        addrs = 0
    else:
        addrs = 1 + len(body.net)
    return pdu.FIXED_LEN + addrs + sum(2 + len(o.value) for o in p.options)


def _checksummed(p: Pdu) -> tuple[bytes, Pdu]:
    raw = checksum.generate_checksum(pdu.encode(p))
    return raw, replace(p, checksum=(raw[7], raw[8]))


def _flip(rng: random.Random, raw: bytes) -> CorpusFrame:
    """One octet changed in a checksummed frame; the verdict follows from
    which octet. Past the version octet any change the checksum can see
    (never 00 <-> ff, which Fletcher mod 255 cannot) is a checksum error."""
    out = bytearray(raw)
    pos = rng.randrange(len(raw))
    if pos == 0:
        out[0] = rng.choice([v for v in range(256) if v != pdu.NLPID_ESIS])
        verdict = "NotEsIs"
    elif pos == 1:
        out[1] = rng.choice(list(range(pdu.FIXED_LEN)) + list(range(len(raw) + 1, 256)))
        verdict = "ProtocolError(BadHeaderLength)"
    elif pos == 2:
        out[2] = rng.choice([v for v in range(256) if v != pdu.VERSION])
        verdict = "WrongVersion"
    else:
        old = out[pos]
        out[pos] = rng.choice([v for v in range(256)
                               if v != old and (v - old) % 255])
        verdict = "ChecksumError"
    return CorpusFrame(bytes(out), verdict)


def _malformed(rng: random.Random) -> CorpusFrame:
    """A header broken in one place that still carries a valid checksum.

    The base PDU has no options, so an appended option is the first one the
    decoder reads and the expected verdict is exact.
    """
    p = _valid_pdu(rng, with_options=False)
    kind = p.pdu_type
    h = bytearray(pdu.encode(p))
    first_addr = 10 if kind is PduType.ESH else 9
    defects = ["reserved", "type_high", "unknown_type", "wrong_version",
               "option_code", "option_illegal", "option_duplicate",
               "priority_value", "priority_length", "option_truncated"]
    if kind is not PduType.RA:
        defects += ["addr_empty", "addr_truncated"]
    if kind is PduType.ESH:
        defects.append("zero_count")
    if kind is PduType.RD:
        defects.append("snpa_length")
    if kind is PduType.ISH:
        defects.append("esct_zero")
    defect = rng.choice(defects)
    room = 255 - len(h)
    if defect.startswith(("option", "priority", "esct")) and room < 6:
        defect = "reserved"
    if defect == "reserved":
        h[3] = rng.randint(1, 255)
        verdict = "NonzeroReserved"
    elif defect == "type_high":
        h[4] |= rng.choice([0x20, 0x40, 0x80, 0xE0])
        verdict = "NonzeroReserved"
    elif defect == "unknown_type":
        h[4] = rng.choice(_UNKNOWN_TYPES)
        verdict = "UnknownType"
    elif defect == "wrong_version":
        h[2] = rng.choice([v for v in range(256) if v != pdu.VERSION])
        verdict = None
    elif defect == "zero_count":
        h[9] = 0
        verdict = "ZeroAddressCount"
    elif defect == "addr_empty":
        h[first_addr] = 0
        verdict = "BadAddressLength"
    elif defect == "addr_truncated":
        h[first_addr] = rng.randint(len(h) - first_addr, 255)
        verdict = "TruncatedPdu"
    elif defect == "snpa_length":
        h[9 + 1 + h[9]] = 5
        verdict = "BadAddressLength"
    else:
        legal = _LEGAL[kind]
        if defect == "option_code":
            tail = [rng.choice(_UNKNOWN_OPTION_CODES), 1, rng.randrange(256)]
            verdict = "BadOptionCode"
        elif defect == "option_illegal":
            code = rng.choice([c for c in OptionCode if c not in legal])
            tail = [int(code), 1, 1]
            verdict = "OptionIllegalForType"
        elif defect == "option_duplicate":
            tail = [int(OptionCode.PRIORITY), 1, 3] * 2
            verdict = "DuplicateOption"
        elif defect == "priority_value":
            tail = [int(OptionCode.PRIORITY), 1, rng.randint(15, 255)]
            verdict = "BadOptionValue"
        elif defect == "priority_length":
            tail = [int(OptionCode.PRIORITY), 2, 1, 1]
            verdict = "BadOptionLength"
        elif defect == "esct_zero":
            tail = [int(OptionCode.ESCT), 2, 0, 0]
            verdict = "BadOptionValue"
        else:  # option_truncated: a code octet with no length octet
            tail = [int(OptionCode.PRIORITY)]
            verdict = "TruncatedPdu"
        h += bytes(tail)
        h[1] = len(h)
    raw = checksum.generate_checksum(bytes(h))
    return CorpusFrame(raw, "WrongVersion" if verdict is None
                 else f"ProtocolError({verdict})")


def codec_corpus(seed: int) -> list[CorpusFrame]:
    """All five PDU types, header lengths 9..255, about a quarter damaged.

    Per frame: 75% valid and checksummed, 5% valid with `00 00` (checksum not
    in use), 10% one octet flipped, 10% malformed with a valid checksum.
    """
    rng = random.Random(seed)
    frames = []
    for _ in range(CODEC_BATCH * CODEC_BATCHES):
        roll = rng.random()
        if roll < 0.80:
            p = _valid_pdu(rng)
            if roll < 0.75:
                raw, decoded = _checksummed(p)
                frames.append(CorpusFrame(raw, f"OK {p.pdu_type.name}", decoded))
            else:
                frames.append(CorpusFrame(pdu.encode(p), f"OK {p.pdu_type.name}",
                                    p, checksummed=False))
        elif roll < 0.90:
            frames.append(_flip(rng, _checksummed(_valid_pdu(rng))[0]))
        else:
            frames.append(_malformed(rng))
    return frames
