"""Scenario file loading: plain-text, line-oriented, strictly parsed.

Grammar (one statement per line, '#' starts a comment):

  node <name> role=es|is snpa=<hex6> [nsap=<hex>]... [net=<hex>]
       [ct=<int>] [multiplier=<int>] [start=<int>] [profile=lenient|atn]
       [afi=<hexbyte>]
  forward <is-name> prefix=<hex> net=<hex> snpa=<hex6>
  latency <int>
  seed <int>
  until <int>
  drop <ordinal>
  corrupt <ordinal> <index|random> <hexbyte|random>
  at <t> sendclnp <node> <src-nsap-hex> <dst-nsap-hex>
  at <t> down <node>
  at <t> up <node>

Unknown statements or keys are load errors, and so is a key given twice
on a `node` or `forward` line, save `nsap=`, and a key that the node's
role never reads: `net=` on an es node, `nsap=` on an is node and a
`forward` line for an es node. `latency`, `seed`, `until` and `drop` take
exactly one value. Fault ordinals count transmit calls from 1 across the
whole run, so they must be ≥ 1, and an ordinal takes one `corrupt` line at
most. `latency`, `until`, `start` and `at` times must be ≥ 0, so virtual
time never runs backwards; `ct` must be ≥ 1, `multiplier` ≥ 2 and a
corrupt index ≥ 0. `afi` and a corrupt value must be exactly one octet. An
`snpa=` is 6 octets and an NSAP 1..20 octets; a forward `net=` may also be
empty. An integer is ASCII digits after an optional `-`; a colon in hex
may stand only between whole octets.

`at` values are parsed once per distinct token per parse and then shared:
one `int` per time token, one `bytes` per NSAP token, the node's declared
name, an interned kind. `build_simulator` injects the actions in file order
and reports a node that `Node` refuses, such as one whose ESH would pass 255
octets, as a `ScenarioError` at its line.
"""

from __future__ import annotations

import sys
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial

from .engine import ForwardingEntry, NodeConfig, Role
from .pdu import LENIENT, Part, ValidationProfile, address_fault
from .sim import FaultPlan, Simulator


class ScenarioError(ValueError):
    def __init__(self, lineno: int, msg: str) -> None:
        super().__init__(f"line {lineno}: {msg}")
        self.lineno = lineno


@dataclass
class NodeDecl:
    name: str
    config: NodeConfig
    start: int = 0
    lineno: int = 0  # the node line, which a refusal by `Node` names


@dataclass(slots=True)
class Action:
    at: int
    kind: str  # sendclnp | down | up
    node: str
    source_nsap: bytes | None = None
    dest_nsap: bytes | None = None


@dataclass
class Scenario:
    nodes: list[NodeDecl] = field(default_factory=list)
    latency: int = 1
    seed: int = 0
    until: int = 0
    faults: FaultPlan = field(default_factory=FaultPlan)
    actions: list[Action] = field(default_factory=list)


def _hex(lineno: int, text: str, what: str) -> bytes:
    # A colon may stand only between whole octets, as in 02:00:00:00:00:01.
    if ":" not in text or all(group and len(group) % 2 == 0 for group in text.split(":")):
        try:
            return bytes.fromhex(text.replace(":", ""))
        except ValueError:
            pass
    raise ScenarioError(lineno, f"bad hex for {what}: {text!r}")


def _address(part: Part, lineno: int, text: str, what: str) -> bytes:
    addr = _hex(lineno, text, what)
    if address_fault(part, addr, LENIENT) is not None:
        raise ScenarioError(lineno, f"{what} must be {part.value}, got {text!r}")
    return addr


def _octet(lineno: int, text: str, what: str) -> int:
    raw = _hex(lineno, text, what)
    if len(raw) != 1:
        raise ScenarioError(lineno, f"{what} must be one octet, got {text!r}")
    return raw[0]


def _int(lineno: int, text: str, what: str, minimum: int | None = None) -> int:
    # int() would also take '+5', '1_0' and non-ASCII digits.
    if not (text.isascii() and (text.isdigit() or text[:1] == "-" and text[1:].isdigit())):
        raise ScenarioError(lineno, f"bad integer for {what}: {text!r}")
    value = int(text)
    if minimum is not None and value < minimum:
        raise ScenarioError(lineno, f"{what} must be ≥ {minimum}, got {value}")
    return value


def _one_int(lineno: int, args: list[str], what: str, minimum: int | None = None) -> int:
    if len(args) != 1:
        raise ScenarioError(lineno, f"{what} takes exactly one value, got {len(args)}")
    return _int(lineno, args[0], what, minimum)


def _key_values(lineno: int, tokens: list[str], converters: dict[str, Callable],
                what: str) -> list[tuple[str, object]]:
    """Each key=value token as (key, converters[key](lineno, value, key)), in
    order. Only `nsap=` may repeat."""
    pairs, seen = [], set()
    for tok in tokens:
        if "=" not in tok:
            raise ScenarioError(lineno, f"expected key=value, got {tok!r}")
        key, val = tok.split("=", 1)
        if key not in converters:
            raise ScenarioError(lineno, f"unknown {what} key {key!r}")
        if key in seen:
            raise ScenarioError(lineno, f"{what} key {key}= given twice")
        if key != "nsap":
            seen.add(key)
        pairs.append((key, converters[key](lineno, val, key)))
    return pairs


def _pick(options: dict[str, object], lineno: int, text: str, what: str) -> object:
    if text not in options:
        raise ScenarioError(lineno, f"{what} must be {' or '.join(options)}, got {text!r}")
    return options[text]


# Each node key's converter, called as convert(lineno, value, key), so that
# an error names the key.
_NODE_KEYS: dict[str, Callable[[int, str, str], object]] = {
    "role": partial(_pick, {role.value: role for role in Role}),
    "snpa": partial(_address, Part.SNPA),
    "nsap": partial(_address, Part.NSAP),
    "net": partial(_address, Part.NSAP),
    "ct": partial(_int, minimum=1),
    "multiplier": partial(_int, minimum=2),
    "start": partial(_int, minimum=0),
    "profile": partial(_pick, {"lenient": False, "atn": True}),
    "afi": _octet,
}


def _parse_node(lineno: int, args: list[str], nodes: dict[str, NodeDecl],
                snpas: set[bytes], profiles: dict[tuple[bool, int], ValidationProfile]
                ) -> None:
    if not args:
        raise ScenarioError(lineno, "node needs a name")
    name = args[0]
    if name in nodes:
        raise ScenarioError(lineno, f"duplicate node name {name}")
    pairs = _key_values(lineno, args[1:], _NODE_KEYS, "node")
    values = dict(pairs)  # every key but nsap= is given once
    role = values.get("role")
    snpa = values.get("snpa")
    if role is None:
        raise ScenarioError(lineno, "node needs role=")
    if snpa is None:
        raise ScenarioError(lineno, "node needs snpa=")
    if snpa in snpas:
        raise ScenarioError(lineno, f"duplicate snpa {snpa.hex()}")
    if role is Role.INTERMEDIATE_SYSTEM and "net" not in values:
        raise ScenarioError(lineno, "an is node needs net=")
    unread = "nsap" if role is Role.INTERMEDIATE_SYSTEM else "net"
    if unread in values:
        raise ScenarioError(lineno, f"an {role.value} node takes no {unread}=")
    snpas.add(snpa)
    # One frozen profile per distinct setting per parse: nodes with equal
    # settings share it, and `add_node` finds their decode table by value.
    settings = values.get("profile", False), values.get("afi", 0x47)
    profile = profiles.get(settings)
    if profile is None:
        profile = profiles[settings] = ValidationProfile(*settings)
    nsaps = tuple(value for key, value in pairs if key == "nsap")
    config = NodeConfig(role=role, snpa=snpa, local_nsaps=nsaps, local_net=values.get("net"),
                        configuration_timer=values.get("ct", 30),
                        holding_multiplier=values.get("multiplier", 2),
                        validation_profile=profile)
    nodes[name] = NodeDecl(name, config, values.get("start", 0), lineno)


def _parse_forward(lineno: int, args: list[str], nodes: dict[str, NodeDecl]) -> None:
    if not args:
        raise ScenarioError(lineno, "forward needs a node name")
    decl = nodes.get(args[0])
    if decl is None:
        raise ScenarioError(lineno, f"unknown node {args[0]!r}")
    # An empty net= gives redirects through this entry no NET.
    keys = {"prefix": _hex, "net": partial(_address, Part.NSAP_OR_EMPTY),
            "snpa": partial(_address, Part.SNPA)}
    values = dict(_key_values(lineno, args[1:], keys, "forward"))
    if len(values) != len(keys):
        raise ScenarioError(lineno, "forward needs prefix=, net= and snpa=")
    if decl.config.role is not Role.INTERMEDIATE_SYSTEM:
        raise ScenarioError(lineno, f"forward needs an is node, {args[0]!r} is an es node")
    entry = ForwardingEntry(values["prefix"], values["net"], values["snpa"])
    decl.config.forwarding_table += (entry,)


def _parse_at(lineno: int, args: list[str], nodes: dict[str, NodeDecl],
              times: dict[str, int], nsaps: dict[str, bytes]) -> Action:
    """args[0] is 'at'. A time or NSAP token is checked and parsed the first
    time it is seen, so a bad one raises before it enters its table."""
    if len(args) < 4:
        raise ScenarioError(lineno, "at needs: <t> <action> <node> ...")
    at = times.get(args[1])
    if at is None:
        at = times[args[1]] = _int(lineno, args[1], "time", minimum=0)
    kind, decl = args[2], nodes.get(args[3])
    if decl is None:
        raise ScenarioError(lineno, f"unknown node {args[3]!r}")
    if kind == "sendclnp":
        if len(args) != 6:
            raise ScenarioError(lineno, "sendclnp needs <node> <src-hex> <dst-hex>")
        source = nsaps.get(args[4])
        if source is None:
            source = nsaps[args[4]] = _address(Part.NSAP, lineno, args[4], "source nsap")
        dest = nsaps.get(args[5])
        if dest is None:
            dest = nsaps[args[5]] = _address(Part.NSAP, lineno, args[5], "destination nsap")
        return Action(at, "sendclnp", decl.name, source, dest)
    if kind in ("down", "up"):
        if len(args) != 4:
            raise ScenarioError(lineno, f"{kind} takes only a node name")
        return Action(at, sys.intern(kind), decl.name)
    raise ScenarioError(lineno, f"unknown action {kind!r}")


def parse_scenario(text: str) -> Scenario:
    sc = Scenario()
    nodes: dict[str, NodeDecl] = {}
    snpas: set[bytes] = set()
    profiles: dict[tuple[bool, int], ValidationProfile] = {}
    times: dict[str, int] = {}
    nsaps: dict[str, bytes] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if "#" in line:
            line = line.split("#", 1)[0]
        args = line.split()
        if not args:
            continue
        stmt = args[0]
        if stmt == "at":
            sc.actions.append(_parse_at(lineno, args, nodes, times, nsaps))
        elif stmt == "node":
            _parse_node(lineno, args[1:], nodes, snpas, profiles)
        elif stmt == "forward":
            _parse_forward(lineno, args[1:], nodes)
        elif stmt == "latency":
            sc.latency = _one_int(lineno, args[1:], "latency", minimum=0)
        elif stmt == "seed":
            sc.seed = _one_int(lineno, args[1:], "seed")
        elif stmt == "until":
            sc.until = _one_int(lineno, args[1:], "until", minimum=0)
        elif stmt == "drop":
            sc.faults.drops.add(_one_int(lineno, args[1:], "drop ordinal", minimum=1))
        elif stmt == "corrupt":
            if len(args) != 4:
                raise ScenarioError(lineno, "corrupt needs <ordinal> <index|random> <value|random>")
            ordinal = _int(lineno, args[1], "corrupt ordinal", minimum=1)
            if ordinal in sc.faults.corruptions:
                raise ScenarioError(lineno, f"duplicate corrupt ordinal {ordinal}")
            idx = (None if args[2] == "random"
                   else _int(lineno, args[2], "octet index", minimum=0))
            val = None if args[3] == "random" else _octet(lineno, args[3], "value")
            sc.faults.corruptions[ordinal] = (idx, val)
        else:
            raise ScenarioError(lineno, f"unknown statement {stmt!r}")
    sc.nodes = list(nodes.values())
    return sc


def load_scenario(path: str) -> Scenario:
    with open(path, encoding="utf-8") as f:
        return parse_scenario(f.read())


def build_simulator(sc: Scenario) -> Simulator:
    sim = Simulator(latency=sc.latency, seed=sc.seed, faults=sc.faults)
    for decl in sc.nodes:
        try:
            sim.add_node(decl.name, decl.config, start=decl.start)
        except ValueError as exc:  # a rule `Node` owns, such as its ESH's length
            raise ScenarioError(decl.lineno, f"node {decl.name}: {exc}") from None
    for action in sc.actions:
        if action.kind == "sendclnp":
            sim.inject_clnp(action.at, action.node, action.source_nsap, action.dest_nsap)
        elif action.kind == "down":
            sim.inject_down(action.at, action.node)
        elif action.kind == "up":
            sim.inject_up(action.at, action.node)
        else:
            raise ValueError(f"unknown action kind {action.kind!r}")
    return sim
