"""Scenario file loading: plain-text, line-oriented, strictly parsed.

Grammar (one statement per line, '#' starts a comment):

  node <name> role=es|is snpa=<hex6> [nsap=<hex>]... [net=<hex>]
       [ct=<int>] [multiplier=<int>] [start=<int>] [profile=lenient|atn] [afi=<hexbyte>]
  forward <is-name> prefix=<hex> net=<hex> snpa=<hex6>
  latency <int>
  seed <int>
  until <int>
  drop <ordinal>
  corrupt <ordinal> <index|random> <hexbyte|random>
  at <t> sendclnp <node> <src-nsap-hex> <dst-nsap-hex>
  at <t> down <node>
  at <t> up <node>

The parser reads syntax and names. Unknown statements or keys are errors,
and so is a key given twice on a `node` or `forward` line, save `nsap=`, and
a key the node's role never reads: `net=` on an es node, `nsap=` on an is
node, a `forward` line for an es node. `latency`, `seed`, `until` and `drop`
take one value each. Fault ordinals count transmit calls from 1 across the
run, so are ≥ 1, with one `corrupt` line each at most; a corrupt index is
≥ 0, and `afi` and a corrupt value one octet. An integer is ASCII digits
after an optional `-`; a colon in hex may stand only between whole octets.
The parser keeps its time checks, `latency`, `until`, `start` and `at`
times ≥ 0, as `latency` and `until` carry no line past it and `at` values
are parsed once per distinct token per parse, then shared (one `int` per
time, one `bytes` per NSAP, the node's declared name, an interned kind).

Every other value is refused by the API object it configures, in its words:
addresses, `ct`, `multiplier` and an is node's `net=` by `Node`, a taken
SNPA by `Simulator.add_node`, `sendclnp` NSAPs by `inject_clnp`, a forward
`prefix=`, `net=` or `snpa=` by `ForwardingEntry` as its line is parsed.
Each phase gives a refusal its line, so a parse fault on a later line is
reported before an API refusal on an earlier one.
"""

from __future__ import annotations

import sys
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial

from .engine import ForwardingEntry, NodeConfig, Role
from .pdu import ValidationProfile
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
    lineno: int = 0  # the line a refusal by `add_node` names


@dataclass(slots=True)
class Action:
    at: int
    kind: str  # sendclnp | down | up
    node: str
    source_nsap: bytes | None = None
    dest_nsap: bytes | None = None
    lineno: int = 0  # the line a refusal by `inject_clnp` names


@dataclass
class Scenario:
    nodes: list[NodeDecl] = field(default_factory=list)
    latency: int = 1
    seed: int = 0
    until: int = 0
    faults: FaultPlan = field(default_factory=FaultPlan)
    actions: list[Action] = field(default_factory=list)


def _hex(text: str, what: str) -> bytes:
    # A colon may stand only between whole octets, as in 02:00:00:00:00:01.
    if ":" not in text or all(group and len(group) % 2 == 0 for group in text.split(":")):
        try:
            return bytes.fromhex(text.replace(":", ""))
        except ValueError:
            pass
    raise ValueError(f"bad hex for {what}: {text!r}")


def _octet(text: str, what: str) -> int:
    raw = _hex(text, what)
    if len(raw) != 1:
        raise ValueError(f"{what} must be one octet, got {text!r}")
    return raw[0]


def _int(text: str, what: str, minimum: int | None = None) -> int:
    # int() would also take '+5', '1_0' and non-ASCII digits.
    if not (text.isascii() and (text.isdigit() or text[:1] == "-" and text[1:].isdigit())):
        raise ValueError(f"bad integer for {what}: {text!r}")
    value = int(text)
    if minimum is not None and value < minimum:
        raise ValueError(f"{what} must be ≥ {minimum}, got {value}")
    return value


def _one_int(args: list[str], what: str, minimum: int | None = None) -> int:
    if len(args) != 1:
        raise ValueError(f"{what} takes exactly one value, got {len(args)}")
    return _int(args[0], what, minimum)


def _key_values(tokens: list[str], converters: dict[str, Callable],
                what: str) -> list[tuple[str, object]]:
    """Each key=value token as (key, converters[key](value, key)); only nsap= may repeat."""
    pairs, seen = [], set()
    for tok in tokens:
        if "=" not in tok:
            raise ValueError(f"expected key=value, got {tok!r}")
        key, val = tok.split("=", 1)
        if key not in converters:
            raise ValueError(f"unknown {what} key {key!r}")
        if key in seen:
            raise ValueError(f"{what} key {key}= given twice")
        if key != "nsap":
            seen.add(key)
        pairs.append((key, converters[key](val, key)))
    return pairs


def _pick(options: dict[str, object], text: str, what: str) -> object:
    if text not in options:
        raise ValueError(f"{what} must be {' or '.join(options)}, got {text!r}")
    return options[text]


# Each node key's converter, called as convert(value, key) so an error names the key.
_NODE_KEYS: dict[str, Callable[[str, str], object]] = {
    "role": partial(_pick, {role.value: role for role in Role}),
    "snpa": _hex, "nsap": _hex, "net": _hex, "ct": _int, "multiplier": _int,
    "start": partial(_int, minimum=0), "afi": _octet,
    "profile": partial(_pick, {"lenient": False, "atn": True}),
}
_FORWARD_KEYS = dict.fromkeys(("prefix", "net", "snpa"), _hex)


def _parse_node(args: list[str], nodes: dict[str, NodeDecl],
                profiles: dict[tuple[bool, int], ValidationProfile]) -> NodeDecl:
    if not args:
        raise ValueError("node needs a name")
    name = args[0]
    if name in nodes:
        raise ValueError(f"duplicate node name {name}")
    pairs = _key_values(args[1:], _NODE_KEYS, "node")
    values = dict(pairs)  # every key but nsap= is given once
    role = values.get("role")
    if role is None:
        raise ValueError("node needs role=")
    if "snpa" not in values:
        raise ValueError("node needs snpa=")
    unread = "nsap" if role is Role.INTERMEDIATE_SYSTEM else "net"
    if unread in values:
        raise ValueError(f"an {role.value} node takes no {unread}=")
    # One frozen profile per distinct setting per parse: nodes with equal
    # settings share it, and `add_node` finds their decode table by value.
    settings = values.get("profile", False), values.get("afi", 0x47)
    profile = profiles.get(settings)
    if profile is None:
        profile = profiles[settings] = ValidationProfile(*settings)
    nsaps = tuple(value for key, value in pairs if key == "nsap")
    config = NodeConfig(role, values["snpa"], nsaps, values.get("net"),
                        configuration_timer=values.get("ct", 30),
                        holding_multiplier=values.get("multiplier", 2), validation_profile=profile)
    decl = nodes[name] = NodeDecl(name, config, values.get("start", 0))
    return decl


def _parse_forward(args: list[str], nodes: dict[str, NodeDecl]) -> None:
    if not args:
        raise ValueError("forward needs a node name")
    decl = nodes.get(args[0])
    if decl is None:
        raise ValueError(f"unknown node {args[0]!r}")
    values = dict(_key_values(args[1:], _FORWARD_KEYS, "forward"))
    if len(values) != len(_FORWARD_KEYS):
        raise ValueError("forward needs prefix=, net= and snpa=")
    # The entry refuses its values first; an empty net= gives its redirects no NET.
    entry = ForwardingEntry(values["prefix"], values["net"], values["snpa"])
    if decl.config.role is not Role.INTERMEDIATE_SYSTEM:
        raise ValueError(f"forward needs an is node, {args[0]!r} is an es node")
    decl.config.forwarding_table += (entry,)


def _parse_at(args: list[str], nodes: dict[str, NodeDecl], times: dict[str, int],
              nsaps: dict[str, bytes]) -> Action:
    """args[0] is 'at'. A time or NSAP token is checked and parsed the first
    time it is seen, so a bad one raises before it enters its table."""
    if len(args) < 4:
        raise ValueError("at needs: <t> <action> <node> ...")
    at = times.get(args[1])
    if at is None:
        at = times[args[1]] = _int(args[1], "time", minimum=0)
    kind, decl = args[2], nodes.get(args[3])
    if decl is None:
        raise ValueError(f"unknown node {args[3]!r}")
    if kind == "sendclnp":
        if len(args) != 6:
            raise ValueError("sendclnp needs <node> <src-hex> <dst-hex>")
        source = nsaps.get(args[4])
        if source is None:
            source = nsaps[args[4]] = _hex(args[4], "source nsap")
        dest = nsaps.get(args[5])
        if dest is None:
            dest = nsaps[args[5]] = _hex(args[5], "destination nsap")
        return Action(at, "sendclnp", decl.name, source, dest)
    if kind in ("down", "up"):
        if len(args) != 4:
            raise ValueError(f"{kind} takes only a node name")
        return Action(at, sys.intern(kind), decl.name)
    raise ValueError(f"unknown action {kind!r}")


def parse_scenario(text: str) -> Scenario:
    """The scenario in `text`, its syntax and names checked. Parsing alone
    refuses no value that `Node`, `add_node` or `inject_clnp` owns."""
    sc = Scenario()
    nodes: dict[str, NodeDecl] = {}
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
        try:
            if stmt == "at":
                action = _parse_at(args, nodes, times, nsaps)
                action.lineno = lineno
                sc.actions.append(action)
            elif stmt == "node":
                _parse_node(args[1:], nodes, profiles).lineno = lineno
            elif stmt == "forward":
                _parse_forward(args[1:], nodes)
            elif stmt == "latency":
                sc.latency = _one_int(args[1:], "latency", minimum=0)
            elif stmt == "seed":
                sc.seed = _one_int(args[1:], "seed")
            elif stmt == "until":
                sc.until = _one_int(args[1:], "until", minimum=0)
            elif stmt == "drop":
                sc.faults.drops.add(_one_int(args[1:], "drop ordinal", minimum=1))
            elif stmt == "corrupt":
                if len(args) != 4:
                    raise ValueError("corrupt needs <ordinal> <index|random> <value|random>")
                ordinal = _int(args[1], "corrupt ordinal", minimum=1)
                if ordinal in sc.faults.corruptions:
                    raise ValueError(f"duplicate corrupt ordinal {ordinal}")
                idx = None if args[2] == "random" else _int(args[2], "octet index", minimum=0)
                val = None if args[3] == "random" else _octet(args[3], "value")
                sc.faults.corruptions[ordinal] = (idx, val)
            else:
                raise ValueError(f"unknown statement {stmt!r}")
        except ValueError as exc:
            raise ScenarioError(lineno, str(exc)) from None
    sc.nodes = list(nodes.values())
    return sc


def load_scenario(path: str) -> Scenario:
    with open(path, encoding="utf-8") as f:
        return parse_scenario(f.read())


def build_simulator(sc: Scenario) -> Simulator:
    """The scenario's simulator, its actions injected in file order; what
    `add_node` or `inject_clnp` refuses is a `ScenarioError` at its line."""
    sim = Simulator(latency=sc.latency, seed=sc.seed, faults=sc.faults)
    for decl in sc.nodes:
        try:
            sim.add_node(decl.name, decl.config, start=decl.start)
        except ValueError as exc:
            raise ScenarioError(decl.lineno, str(exc)) from None
    for action in sc.actions:
        if action.kind == "sendclnp":
            try:
                sim.inject_clnp(action.at, action.node, action.source_nsap, action.dest_nsap)
            except ValueError as exc:
                raise ScenarioError(action.lineno, str(exc)) from None
        elif action.kind == "down":
            sim.inject_down(action.at, action.node)
        elif action.kind == "up":
            sim.inject_up(action.at, action.node)
        else:
            raise ValueError(f"unknown action kind {action.kind!r}")
    return sim
