"""Command-line front end: craft PDUs, decode hex dumps, run scenarios.

Exit codes: 0 success / OK, 1 decode verdict DISCARD, 2 bad input.
"""

from __future__ import annotations

import argparse
import sys

from . import pdu as pdu_mod
from .checksum import generate_checksum, verify_checksum
from .pdu import (PDU_SPECS, AaBody, DiscardReason, EshBody, InvariantViolation,
                  IshBody, Option, OptionCode, Part, Pdu, RaBody, RdBody)
from .scenario import build_simulator, load_scenario

_OPT_NAMES = {
    "security": OptionCode.SECURITY,
    "priority": OptionCode.PRIORITY,
    "esct": OptionCode.ESCT,
    "addrmask": OptionCode.ADDRESS_MASK,
    "snpamask": OptionCode.SNPA_MASK,
}


def _parse_hex(text: str) -> bytes:
    cleaned = "".join(text.split())
    return bytes.fromhex(cleaned)


def _parse_opt(spec: str) -> Option:
    if "=" not in spec:
        raise ValueError(f"option must be name=hexvalue, got {spec!r}")
    name, hexval = spec.split("=", 1)
    if name in _OPT_NAMES:
        code = int(_OPT_NAMES[name])
    else:
        code = int(name)
    return Option(code, _parse_hex(hexval))


def cmd_craft(args: argparse.Namespace) -> int:
    addrs = [_parse_hex(a) for a in args.addr]
    opts = tuple(_parse_opt(o) for o in args.opt)
    if args.type == "esh":
        body = EshBody(tuple(addrs))  # encode rejects an empty list
    elif args.type in ("ish", "aa"):
        if len(addrs) != 1:
            raise InvariantViolation(f"{args.type} needs exactly one --addr (the NET)")
        body = IshBody(addrs[0]) if args.type == "ish" else AaBody(addrs[0])
    elif args.type == "rd":
        if len(addrs) != 1:
            raise InvariantViolation("rd needs exactly one --addr (the destination)")
        if args.snpa is None:
            raise InvariantViolation("rd needs --snpa")
        net = _parse_hex(args.net) if args.net else None
        body = RdBody(addrs[0], _parse_hex(args.snpa), net)
    else:
        if addrs:
            raise InvariantViolation("ra carries no address")
        body = RaBody()
    header = pdu_mod.encode(Pdu(body, holding_time=args.holding, options=opts))
    if not args.no_checksum:
        header = generate_checksum(header)
    print(header.hex())
    return 0


_FIXED_FIELDS = (
    ("nlpid", 0, 1),
    ("length_indicator", 1, 1),
    ("version", 2, 1),
    ("reserved", 3, 1),
    ("type", 4, 1),
    ("holding_time", 5, 2),
    ("checksum", 7, 2),
)


def cmd_decode(args: argparse.Namespace) -> int:
    if args.input == "-":
        text = sys.stdin.read()
    else:
        with open(args.input, encoding="utf-8") as f:
            text = f.read()
    try:
        raw = _parse_hex(text)
    except ValueError:
        print("error: input is not hex", file=sys.stderr)
        return 2
    for name, off, width in _FIXED_FIELDS:
        if off + width > len(raw):
            break
        chunk = raw[off:off + width]
        print(f"{name:<17} @{off:<3} {chunk.hex():<6} "
              f"{int.from_bytes(chunk, 'big')}")
    if len(raw) >= 9:
        li = raw[1]
        header = raw[:li] if 9 <= li <= len(raw) else raw
        print(f"checksum_verdict  {verify_checksum(header).name}")
    result = pdu_mod.decode(raw)
    if isinstance(result, DiscardReason):
        print(f"DISCARD {result}")
        return 1
    _print_body(result)
    print(f"OK {result.pdu_type.name}")
    return 0


def _print_body(p: Pdu) -> None:
    for name, part in PDU_SPECS[type(p.body)].parts:
        value = getattr(p.body, name)
        if part is Part.NSAP_LIST:
            for i, a in enumerate(value):
                print(f"source_address[{i}]  {a.hex()}")
        elif value:
            print(f"{name:<17} {value.hex()}")
    for opt in p.options:  # decode admits only known option codes
        print(f"option {OptionCode(opt.code).name.lower():<11} {opt.value.hex()}")


def cmd_run(args: argparse.Namespace) -> int:
    sc = load_scenario(args.scenario)
    until = args.until if args.until is not None else sc.until
    sim = build_simulator(sc)
    log = sim.run_until(until)
    dump = sim.dump_ribs(until) if args.dump_ribs else []
    # The empty last item ends every line with a newline; no lines give "".
    text = "\n".join([*log, *dump, ""])
    if args.log:
        with open(args.log, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="esis",
                                     description="ES-IS PDU tool and subnetwork simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    craft = sub.add_parser("craft", help="encode a PDU and print it as hex")
    craft.add_argument("--type", required=True, choices=["esh", "ish", "rd", "ra", "aa"])
    craft.add_argument("--addr", action="append", default=[],
                       help="address hex; repeatable for esh")
    craft.add_argument("--snpa", help="better-hop SNPA hex (rd only)")
    craft.add_argument("--net", help="redirect NET hex (rd only)")
    craft.add_argument("--holding", type=int, default=60, help="holding time seconds")
    craft.add_argument("--opt", action="append", default=[],
                       help="option as name=hexvalue (security, priority, esct, "
                            "addrmask, snpamask) or code=hexvalue")
    craft.add_argument("--no-checksum", action="store_true",
                       help="leave checksum octets as 00 00")
    craft.set_defaults(func=cmd_craft)

    dec = sub.add_parser("decode", help="decode a hex dump and validate it")
    dec.add_argument("input", nargs="?", default="-",
                     help="file with hex text, or - for stdin")
    dec.set_defaults(func=cmd_decode)

    run = sub.add_parser("run", help="run a scenario file")
    run.add_argument("scenario")
    run.add_argument("--until", type=int, default=None,
                     help="override the scenario run horizon")
    run.add_argument("--dump-ribs", action="store_true")
    run.add_argument("--log", help="write output to this file instead of stdout")
    run.set_defaults(func=cmd_run)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Bad input of any kind (unreadable file, bad hex, a scenario error, an
    # encode invariant) is exit code 2; InvariantViolation and ScenarioError
    # are ValueErrors.
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
