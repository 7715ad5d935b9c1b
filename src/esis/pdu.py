"""ES-IS PDU wire format: types, encoder, decoder, validation.

Fixed part layout (9 octets): NLPID, length indicator, version, reserved,
type octet (upper 3 bits zero), holding time (2, big-endian), checksum (2).
The address part of each type is described once, in PDU_SPECS, and the
rules for each option code once, in OPTION_RULES; encode and decode both
read those tables. Options are {code, length, value} triples up to the
length indicator.

`decode` runs the ES-IS processing map in order and stops at the first
failure: NLPID, fixed-part length, version, length indicator, checksum
(ISO 8473 Annex C), reserved bits, type, address part, options. Each
failure is one `DiscardReason` member, whose value is the text its DISCARD
line shows. Address rules run in place on the length and first octets,
with no helper call per address, under the profile's stored NSAP rule;
`encode` and the API ask `address_fault`, the lenient rule. Each option
goes through `_option_fault`, which `encode` shares. One table lookup on
the type octet gives the body class, type and address part. Each `Pdu`
and `Option` is built in C, from `object.__new__` and its slots'
`__set__`, past the frozen `__init__`: the value its constructor builds.
"""

from __future__ import annotations

import enum
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import NamedTuple

from .checksum import ChecksumVerdict, verify_checksum

NLPID_ESIS = 0x82  # 130
NLPID_CLNP = 0x81  # 129
VERSION = 1
FIXED_LEN = 9

MAX_NSAP_LEN = 20
SNPA_LEN = 6
ATN_AFI = 0x47  # the AFI every ATN NSAP starts with (ICAO Doc 9705)


class PduType(enum.IntEnum):
    ESH = 2
    ISH = 4
    RD = 6
    # RA/AA wire codes are not fixed by ISO 9542; this artifact assigns them.
    RA = 8
    AA = 10


class OptionCode(enum.IntEnum):
    SECURITY = 0xC5
    ESCT = 0xC6
    PRIORITY = 0xCD
    ADDRESS_MASK = 0xE1
    SNPA_MASK = 0xE2


@dataclass(frozen=True, slots=True)
class OptionRule:
    """An option code's name, the PDU types it may appear on, and its values."""

    name: str  # the name `esis craft --opt` takes and `esis decode` lists
    pdu_types: frozenset[PduType]
    lengths: range = range(1, 256)
    value_ok: Callable[[bytes], bool] | None = None
    text: str = "1..255 octets"  # the value rule, worded for encode errors


OPTION_RULES: dict[int, OptionRule] = {
    OptionCode.SECURITY: OptionRule("security", frozenset(PduType)),
    OptionCode.PRIORITY: OptionRule("priority", frozenset(PduType), range(1, 2),
                                    lambda value: value[0] <= 14, "1 octet, 0..14"),
    OptionCode.ESCT: OptionRule("esct", frozenset({PduType.ISH}), range(2, 3),
                                lambda value: value != b"\x00\x00", "2 octets, nonzero"),
    OptionCode.ADDRESS_MASK: OptionRule("addrmask", frozenset({PduType.RD})),
    OptionCode.SNPA_MASK: OptionRule("snpamask", frozenset({PduType.RD})),
}


class DiscardReason(str, enum.Enum):
    """Why a frame was discarded, in processing-map order; the value is the
    text a DISCARD line shows. A str, so it hashes and formats in C."""
    __str__ = str.__str__
    __format__ = str.__format__
    NOT_ES_IS = "NotEsIs"
    WRONG_VERSION = "WrongVersion"
    CHECKSUM_ERROR = "ChecksumError"
    BAD_HEADER_LENGTH = "ProtocolError(BadHeaderLength)"
    NONZERO_RESERVED = "ProtocolError(NonzeroReserved)"
    UNKNOWN_TYPE = "ProtocolError(UnknownType)"
    ZERO_ADDRESS_COUNT = "ProtocolError(ZeroAddressCount)"
    BAD_ADDRESS_LENGTH = "ProtocolError(BadAddressLength)"
    BAD_ADDRESS_VALUE = "ProtocolError(BadAddressValue)"
    BAD_OPTION_CODE = "ProtocolError(BadOptionCode)"
    BAD_OPTION_LENGTH = "ProtocolError(BadOptionLength)"
    BAD_OPTION_VALUE = "ProtocolError(BadOptionValue)"
    DUPLICATE_OPTION = "ProtocolError(DuplicateOption)"
    OPTION_ILLEGAL_FOR_TYPE = "ProtocolError(OptionIllegalForType)"
    TRUNCATED_PDU = "ProtocolError(TruncatedPdu)"
    # Engine-level outcome: a PDU type the local role never accepts.
    ROLE_MISMATCH = "ProtocolError(RoleMismatch)"


class InvariantViolation(ValueError):
    """An encode() precondition was broken; signals a caller bug."""


@dataclass(frozen=True, slots=True)
class ValidationProfile:
    """Decode's NSAP rule: lenient, 1..20 octets, or ATN, 20 octets led by ATN_AFI."""

    atn: bool = False
    # The shortest NSAP length accepted, and the first octet required or None;
    # stored, as it is read for every frame decoded.
    nsap_rule: tuple[int, int | None] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "nsap_rule", (MAX_NSAP_LEN, ATN_AFI) if self.atn else (1, None))


LENIENT = ValidationProfile()
ATN = ValidationProfile(atn=True)


@dataclass(frozen=True, slots=True)
class Option:
    code: int
    value: bytes


@dataclass(frozen=True, slots=True)
class EshBody:
    source_addresses: tuple[bytes, ...]


@dataclass(frozen=True, slots=True)
class IshBody:
    net: bytes


@dataclass(frozen=True, slots=True)
class RdBody:
    destination: bytes
    better_snpa: bytes
    redirect_net: bytes | None = None


@dataclass(frozen=True, slots=True)
class RaBody:
    pass


@dataclass(frozen=True, slots=True)
class AaBody:
    net: bytes


Body = EshBody | IshBody | RdBody | RaBody | AaBody


class Part(enum.Enum):
    """One field of an address part; the value is its rule, worded for errors."""

    NSAP_LIST = f"a count 1..255, then that many NSAPs of length 1..{MAX_NSAP_LEN}"
    NSAP = f"an NSAP of length 1..{MAX_NSAP_LEN}"
    SNPA = f"an SNPA of {SNPA_LEN} octets"
    NSAP_OR_EMPTY = f"empty or an NSAP of length 1..{MAX_NSAP_LEN}"


class PduSpec(NamedTuple):
    pdu_type: PduType
    # (body attribute, wire shape) in wire order; each field is written as
    # {length, value}, and NSAP_LIST puts a count octet first.
    parts: tuple[tuple[str, Part], ...]


PDU_SPECS: dict[type, PduSpec] = {
    EshBody: PduSpec(PduType.ESH, (("source_addresses", Part.NSAP_LIST),)),
    IshBody: PduSpec(PduType.ISH, (("net", Part.NSAP),)),
    RdBody: PduSpec(PduType.RD, (("destination", Part.NSAP), ("better_snpa", Part.SNPA),
                                 ("redirect_net", Part.NSAP_OR_EMPTY))),
    RaBody: PduSpec(PduType.RA, ()),
    AaBody: PduSpec(PduType.AA, (("net", Part.NSAP),)),
}

# The codec's hot paths test and return these names: reading an Enum member
# off its class costs about 0.1 us on Python 3.11, several times per address.
_NSAP_LIST, _, _SNPA, _NSAP_OR_EMPTY = Part
(_NOT_ES_IS, _WRONG_VERSION, _CHECKSUM_ERROR, _BAD_HEADER_LENGTH, _NONZERO_RESERVED,
 _UNKNOWN_TYPE, _ZERO_ADDRESS_COUNT, _BAD_ADDRESS_LENGTH, _BAD_ADDRESS_VALUE, _BAD_OPTION_CODE,
 _BAD_OPTION_LENGTH, _BAD_OPTION_VALUE, _DUPLICATE_OPTION, _OPTION_ILLEGAL_FOR_TYPE,
 _TRUNCATED_PDU, _) = DiscardReason
_INVALID = ChecksumVerdict.INVALID

# decode's one lookup per frame: type code -> (body class, PduType, parts).
_BY_CODE: dict[int, tuple[type, PduType, tuple[tuple[str, Part], ...]]] = {
    spec.pdu_type: (cls, *spec) for cls, spec in PDU_SPECS.items()}


@dataclass(frozen=True, slots=True)
class Pdu:
    body: Body
    holding_time: int = 0
    options: tuple[Option, ...] = ()
    checksum: tuple[int, int] = (0, 0)

    @property
    def pdu_type(self) -> PduType:
        return PDU_SPECS[type(self.body)].pdu_type


# decode builds a Pdu or an Option from object.__new__ and one slot __set__ per
# field: about 0.35 us a Pdu on Python 3.11, against 0.67 us through __init__.
_new = object.__new__
_set_body, _set_holding_time, _set_options, _set_checksum = (
    getattr(Pdu, name).__set__ for name in Pdu.__slots__)
_set_code, _set_value = (getattr(Option, name).__set__ for name in Option.__slots__)


def address_fault(part: Part, addr: bytes) -> DiscardReason | None:
    """The lenient rule of `part` that `addr` breaks, or None: an SNPA is 6
    octets, an empty NSAP_OR_EMPTY passes, any other NSAP is 1..20 octets."""
    if part is _SNPA:
        return None if len(addr) == SNPA_LEN else _BAD_ADDRESS_LENGTH
    ok = 1 <= len(addr) <= MAX_NSAP_LEN or part is _NSAP_OR_EMPTY and not addr
    return None if ok else _BAD_ADDRESS_LENGTH


def read_parts(buf: bytes, off: int, end: int, parts: tuple[tuple[str, Part], ...],
               profile: ValidationProfile) -> tuple[list, int] | DiscardReason:
    """The {length, value} fields `parts` describes, read from `buf[off:end]`
    (an NSAP_LIST as a tuple, an empty NSAP_OR_EMPTY as None), with the
    offset past the last; or the first rule broken, under `profile`. Each
    address is checked in place, and sliced only if it passes."""
    shortest, afi = profile.nsap_rule
    fields: list[bytes | tuple[bytes, ...] | None] = []
    for _, part in parts:
        count = 1
        if part is _NSAP_LIST:
            if off >= end:
                return _TRUNCATED_PDU
            count = buf[off]
            off += 1
            if count == 0:
                return _ZERO_ADDRESS_COUNT
        addrs = []
        for _ in range(count):
            if off >= end:
                return _TRUNCATED_PDU
            alen = buf[off]
            off += 1 + alen
            if off > end:
                return _TRUNCATED_PDU
            if part is _SNPA:
                if alen != SNPA_LEN:
                    return _BAD_ADDRESS_LENGTH
            elif alen or part is not _NSAP_OR_EMPTY:
                if not shortest <= alen <= MAX_NSAP_LEN:
                    return _BAD_ADDRESS_LENGTH
                if afi is not None and buf[off - alen] != afi:
                    return _BAD_ADDRESS_VALUE
            addrs.append(buf[off - alen:off])
        fields.append(tuple(addrs) if part is _NSAP_LIST else addrs[0] or None)
    return fields, off


def _option_fault(code: int, value: bytes, pdu_type: PduType,
                  seen: set[int]) -> DiscardReason | None:
    """The first option rule broken, checked in decode's order, or None.

    A code that passes the duplicate check is added to `seen`.
    """
    rule = OPTION_RULES.get(code)
    if rule is None:
        return _BAD_OPTION_CODE
    if pdu_type not in rule.pdu_types:
        return _OPTION_ILLEGAL_FOR_TYPE
    if code in seen:
        return _DUPLICATE_OPTION
    seen.add(code)
    if len(value) not in rule.lengths:
        return _BAD_OPTION_LENGTH
    if rule.value_ok is not None and not rule.value_ok(value):
        return _BAD_OPTION_VALUE
    return None


def _option_error(fault: DiscardReason, code: int, pdu_type: PduType) -> str:
    if fault is DiscardReason.BAD_OPTION_CODE:
        return f"unknown option code {code}"
    name = OptionCode(code).name
    if fault is DiscardReason.OPTION_ILLEGAL_FOR_TYPE:
        return f"option {name} not legal on {pdu_type.name}"
    if fault is DiscardReason.DUPLICATE_OPTION:
        return f"duplicate option {name}"
    return f"{name} value must be {OPTION_RULES[code].text}"


def encode(pdu: Pdu) -> bytes:
    """Encode a PDU header; the checksum octets are copied as-is."""
    pdu_type, parts = PDU_SPECS[type(pdu.body)]
    if not 0 <= pdu.holding_time <= 0xFFFF:
        raise InvariantViolation("holding time must fit in 16 bits")

    out = bytearray(FIXED_LEN)
    for name, part in parts:
        value = getattr(pdu.body, name)
        if part is _NSAP_LIST:
            if len(value) < 1:
                raise InvariantViolation("address count must be ≥ 1")
            if len(value) > 255:
                raise InvariantViolation("too many source addresses")
            out.append(len(value))
        else:
            value = (value,)
        for addr in value:
            addr = addr or b""  # NSAP_OR_EMPTY: None is written as length 0
            if address_fault(part, addr) is not None:
                raise InvariantViolation(f"{name} must be {part.value}")
            out.append(len(addr))
            out += addr

    seen: set[int] = set()
    for opt in pdu.options:
        fault = _option_fault(opt.code, opt.value, pdu_type, seen)
        if fault is not None:
            raise InvariantViolation(_option_error(fault, opt.code, pdu_type))
        out.append(opt.code)
        out.append(len(opt.value))
        out += opt.value

    total = len(out)
    if total > 255:
        raise InvariantViolation(f"encoded header length {total} exceeds 255")
    out[0] = NLPID_ESIS
    out[1] = total
    out[2] = VERSION
    out[4] = pdu_type
    out[5] = (pdu.holding_time >> 8) & 0xFF
    out[6] = pdu.holding_time & 0xFF
    out[7], out[8] = pdu.checksum
    return bytes(out)


def decode(raw: bytes, profile: ValidationProfile = LENIENT) -> Pdu | DiscardReason:
    """Run the input pipeline over a frame payload.

    Discard is a normal outcome and is returned, never raised. Octets past
    the length indicator are ignored.
    """
    if len(raw) == 0:
        return _TRUNCATED_PDU
    if raw[0] != NLPID_ESIS:
        return _NOT_ES_IS
    if len(raw) < FIXED_LEN:
        return _TRUNCATED_PDU
    if raw[2] != VERSION:
        return _WRONG_VERSION
    li = raw[1]
    # The checksum is defined over length-indicator octets, so an unusable
    # length indicator has to be rejected before verification.
    if li < FIXED_LEN or li > len(raw):
        return _BAD_HEADER_LENGTH
    header = raw[:li]
    if type(header) is not bytes:  # a bytearray's fields would not hash
        header = bytes(header)
    if verify_checksum(header) is _INVALID:
        return _CHECKSUM_ERROR
    if header[3] != 0 or header[4] & 0xE0:
        return _NONZERO_RESERVED
    spec = _BY_CODE.get(header[4] & 0x1F)
    if spec is None:
        return _UNKNOWN_TYPE
    cls, pdu_type, parts = spec
    holding = (header[5] << 8) | header[6]
    checksum = (header[7], header[8])

    end = len(header)
    read = read_parts(header, FIXED_LEN, end, parts, profile)
    if type(read) is DiscardReason:
        return read
    fields, off = read

    opts: list[Option] = []
    seen: set[int] = set()
    while off < end:
        if off + 2 > end:
            return _TRUNCATED_PDU
        code, olen = header[off], header[off + 1]
        off += 2 + olen
        if off > end:
            return _TRUNCATED_PDU
        value = header[off - olen:off]
        fault = _option_fault(code, value, pdu_type, seen)
        if fault is not None:
            return fault
        opt = _new(Option)
        _set_code(opt, code)
        _set_value(opt, value)
        opts.append(opt)
    pdu = _new(Pdu)
    _set_body(pdu, cls(*fields))
    _set_holding_time(pdu, holding)
    _set_options(pdu, tuple(opts))
    _set_checksum(pdu, checksum)
    return pdu
