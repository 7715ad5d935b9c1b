"""Command-line front end: craft PDUs, decode hex dumps, run scenarios.

Exit codes: 0 success / OK, 1 decode verdict DISCARD, 2 bad input.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import nullcontext
from itertools import accumulate
from types import SimpleNamespace

from . import pdu as pdu_mod
from .checksum import generate_checksum, verify_checksum
from .pdu import (FIXED_LEN, OPTION_RULES, PDU_SPECS, DiscardReason, InvariantViolation,
                  Option, Part, Pdu)
from .scenario import build_simulator, load_scenario

# --opt's names, each the option code it sets; decode lists options by these names.
_OPT_CODES = {rule.name: code for code, rule in OPTION_RULES.items()}


def _parse_hex(text: str) -> bytes:
    cleaned = "".join(text.split())
    return bytes.fromhex(cleaned)


def _parse_opt(spec: str) -> Option:
    if "=" not in spec:
        raise ValueError(f"option must be name=hexvalue, got {spec!r}")
    name, hexval = spec.split("=", 1)
    if name in _OPT_CODES:
        code = int(_OPT_CODES[name])
    elif name.isdecimal():
        code = int(name)
    else:
        raise ValueError(f"unknown option {name!r}: use {', '.join(_OPT_CODES)} or a number")
    return Option(code, _parse_hex(hexval))


# --type's names, each the body class it crafts.
_CRAFT_TYPES = {spec.pdu_type.name.lower(): cls for cls, spec in PDU_SPECS.items()}
# Each address-part shape: the flag that gives its value, and how many times
# that flag may be given, in words too. encode rejects an empty NSAP_LIST.
_PART_FLAGS = {
    Part.NSAP_LIST: ("addr", range(256), "at most 255"),
    Part.NSAP: ("addr", range(1, 2), "exactly one"),
    Part.SNPA: ("snpa", range(1, 2), "exactly one"),
    Part.NSAP_OR_EMPTY: ("net", range(2), "at most one"),
}


def cmd_craft(args: argparse.Namespace) -> int:
    cls = _CRAFT_TYPES[args.type]
    opts = tuple(_parse_opt(o) for o in args.opt)
    given = {flag: getattr(args, flag) for flag, _, _ in _PART_FLAGS.values()}
    fields: list[bytes | tuple[bytes, ...] | None] = []
    for name, part in PDU_SPECS[cls].parts:  # each flag fills at most one part
        flag, counts, words = _PART_FLAGS[part]
        values = tuple(_parse_hex(v) for v in given.pop(flag))
        if len(values) not in counts:
            raise InvariantViolation(f"{args.type} needs {words} --{flag} (its {name})")
        if part is not Part.NSAP_LIST:
            values = values[0] if values else None
        fields.append(values)
    unused = [f"--{flag}" for flag, values in given.items() if values]
    if unused:
        raise InvariantViolation(f"{args.type} takes no {' or '.join(unused)}")
    header = pdu_mod.encode(Pdu(cls(*fields), holding_time=args.holding, options=opts))
    if not args.no_checksum:
        header = generate_checksum(header)
    print(header.hex())
    return 0


# The fixed part's fields in wire order and their widths; each offset is the
# sum of the widths before it.
_FIXED_NAMES = ("nlpid", "length_indicator", "version", "reserved", "type", "holding_time",
                "checksum")
_FIXED_WIDTHS = (1, 1, 1, 1, 1, 2, 2)
_FIXED_FIELDS = tuple(zip(_FIXED_NAMES, accumulate(_FIXED_WIDTHS, initial=0), _FIXED_WIDTHS))


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
    if len(raw) >= FIXED_LEN:
        li = raw[1]
        header = raw[:li] if FIXED_LEN <= li <= len(raw) else raw
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
        print(f"option {OPTION_RULES[opt.code].name:<11} {opt.value.hex()}")


def cmd_run(args: argparse.Namespace) -> int:
    sc = load_scenario(args.scenario)
    until = args.until if args.until is not None else sc.until
    if until < 0:
        raise ValueError(f"--until must be ≥ 0, got {until}")
    sim = build_simulator(sc)
    # The output is opened only once the run can start. The simulator only
    # calls its log's append, so each line goes out as it is logged, and a run
    # that fails midway leaves the lines logged before the failure.
    with open(args.log, "w", encoding="utf-8") if args.log else nullcontext(sys.stdout) as out:
        sim.log = SimpleNamespace(append=lambda line: out.write(line + "\n"))
        sim.run_until(until)
        if args.dump_ribs:
            out.writelines(line + "\n" for line in sim.dump_ribs(until))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="esis",
                                     description="ES-IS PDU tool and subnetwork simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    craft = sub.add_parser("craft", help="encode a PDU and print it as hex")
    craft.add_argument("--type", required=True, choices=list(_CRAFT_TYPES))
    craft.add_argument("--addr", action="append", default=[],
                       help="address hex; repeatable for esh")
    craft.add_argument("--snpa", action="append", default=[],
                       help="better-hop SNPA hex (rd only)")
    craft.add_argument("--net", action="append", default=[],
                       help="redirect NET hex (rd only)")
    craft.add_argument("--holding", type=int, default=60, help="holding time seconds")
    craft.add_argument("--opt", action="append", default=[],
                       help=f"option as name=hexvalue ({', '.join(_OPT_CODES)}) "
                            "or code=hexvalue")
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
        code = args.func(args)
        sys.stdout.flush()  # so that a closed pipe shows here
        return code
    except BrokenPipeError:
        # The reader stopped reading, which is not bad input. Point stdout at
        # devnull so that the flush at exit does not fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
