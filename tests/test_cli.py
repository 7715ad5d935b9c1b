import os
import subprocess
import sys
from pathlib import Path

import pytest

from esis.checksum import CSUM_POS
from esis.cli import _FIXED_FIELDS, main
from esis.pdu import FIXED_LEN, OPTION_RULES, PduType
from esis.scenario import ScenarioError, build_simulator, parse_scenario

ROOT = Path(__file__).resolve().parent.parent
NSAP_HEX = "49" + "00" * 19
LONG_NSAP_HEX = "49" * 21  # one octet past the NSAP limit
ES1, ES2 = "49" + "01" * 19, "49" + "02" * 19


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_craft_ra(capsys):
    code, out, _ = run_cli(capsys, "craft", "--type", "ra", "--holding", "0")
    assert code == 0
    hexed = out.strip()
    assert len(hexed) == 18
    assert hexed.startswith("820901")


def test_craft_esh_requires_address(capsys):
    code, _, err = run_cli(capsys, "craft", "--type", "esh")
    assert code == 2
    assert "address count must be ≥ 1" in err


def test_craft_decode_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "craft", "--type", "esh",
                           "--addr", NSAP_HEX, "--holding", "120")
    assert code == 0
    hexed = out.strip()
    code, out, _ = run_cli_with_stdin(capsys, hexed, "decode")
    assert code == 0
    assert "OK ESH" in out
    assert "checksum_verdict  VALID" in out


def test_python_dash_m_esis_runs_the_cli(capsys):
    code, out, _ = run_cli(capsys, "craft", "--type", "esh", "--addr", NSAP_HEX)
    assert code == 0
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "esis", "decode"], input=out,
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "OK ESH" in proc.stdout


def run_cli_with_stdin(capsys, text, *argv, monkeypatch=None):
    import io
    import sys
    old = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        return run_cli(capsys, *argv)
    finally:
        sys.stdin = old


def test_craft_ish_esct_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "craft", "--type", "ish",
                           "--addr", NSAP_HEX, "--opt", "esct=001e")
    assert code == 0
    code, out, _ = run_cli_with_stdin(capsys, out.strip(), "decode")
    assert code == 0
    assert "option esct        001e" in out
    assert "OK ISH" in out


def test_decode_detects_corruption(capsys):
    code, out, _ = run_cli(capsys, "craft", "--type", "esh", "--addr", NSAP_HEX)
    hexed = out.strip()
    # flip one header octet (not a 00<->ff alias)
    pos = 10
    octet = int(hexed[2 * pos:2 * pos + 2], 16)
    mutated = hexed[:2 * pos] + format((octet + 1) % 256, "02x") + hexed[2 * pos + 2:]
    code, out, _ = run_cli_with_stdin(capsys, mutated, "decode")
    assert code == 1
    assert "DISCARD ChecksumError" in out


def test_decode_truncated(capsys):
    code, out, _ = run_cli_with_stdin(capsys, "820901", "decode")
    assert code == 1
    assert "DISCARD ProtocolError(TruncatedPdu)" in out


def test_decode_garbage_input(capsys):
    code, _, err = run_cli_with_stdin(capsys, "zz-not-hex", "decode")
    assert code == 2


def test_decode_rd_fields(capsys):
    code, out, _ = run_cli(capsys, "craft", "--type", "rd", "--addr", NSAP_HEX,
                           "--snpa", "020000000002", "--net", "48" + "00" * 19)
    code, out, _ = run_cli_with_stdin(capsys, out.strip(), "decode")
    assert code == 0
    assert "better_snpa       020000000002" in out
    assert "OK RD" in out


def test_run_scenario_deterministic(capsys, tmp_path):
    args = ("run", "scenarios/discovery.scn", "--dump-ribs")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "-- rib ES1 --" in out1


def test_run_writes_log_file(capsys, tmp_path):
    dest = tmp_path / "out.log"
    code, out, _ = run_cli(capsys, "run", "scenarios/discovery.scn",
                           "--log", str(dest))
    assert code == 0 and out == ""
    assert "RIB ES" in dest.read_text()


def test_run_bad_scenario(capsys, tmp_path):
    bad = tmp_path / "bad.scn"
    bad.write_text("node X role=es snpa=020000000001 bogus=1\n")
    code, _, err = run_cli(capsys, "run", str(bad))
    assert code == 2
    assert "line 1" in err


# Scenario parser edge cases -------------------------------------------------

def test_parser_rejects_duplicates():
    base = "node A role=es snpa=020000000001\n"
    with pytest.raises(ScenarioError, match="duplicate node name"):
        parse_scenario(base + "node A role=es snpa=020000000002\n")
    # `add_node` owns the SNPA rule, so only a built scenario refuses it.
    taken = parse_scenario(base + "node B role=es snpa=020000000001\n")
    with pytest.raises(ScenarioError, match="^line 2: duplicate snpa 020000000001$"):
        build_simulator(taken)


def test_parser_rejects_unknown_statement():
    with pytest.raises(ScenarioError, match="line 2"):
        parse_scenario("seed 1\nfrobnicate 3\n")


def test_parser_requires_is_net():
    sc = parse_scenario("node R role=is snpa=020000000001\n")
    with pytest.raises(ScenarioError, match="^line 1: an intermediate system needs a local NET$"):
        build_simulator(sc)


def test_parser_action_unknown_node():
    with pytest.raises(ScenarioError, match="unknown node"):
        parse_scenario("at 5 down GHOST\n")


def test_parser_full_file():
    sc = parse_scenario(
        "node A role=es snpa=02:00:00:00:00:01 nsap=4900 ct=5 multiplier=3\n"
        "node R role=is snpa=020000000002 net=49ff start=7 profile=atn afi=47\n"
        "forward R prefix=49 net=48ff snpa=020000000003\n"
        "latency 2\nseed 11\nuntil 30\ndrop 2\ncorrupt 1 random random\n"
        "at 9 sendclnp A 4900 4901\n")
    assert sc.latency == 2 and sc.seed == 11 and sc.until == 30
    assert sc.nodes[0].config.holding_multiplier == 3
    assert sc.nodes[1].start == 7
    assert sc.nodes[1].config.validation_profile.atn
    assert sc.nodes[1].config.forwarding_table[0].prefix == b"\x49"
    assert sc.faults.drops == {2}
    assert sc.faults.corruptions == {1: (None, None)}
    assert sc.actions[0].kind == "sendclnp"


def test_parser_shares_one_profile_per_distinct_setting():
    sc = parse_scenario(
        "node A role=es snpa=020000000001\n"
        "node B role=es snpa=020000000002 profile=lenient afi=47\n"
        "node C role=es snpa=020000000003 profile=atn\n"
        "node D role=es snpa=020000000004 profile=atn afi=47\n"
        "node E role=es snpa=020000000005 profile=atn afi=39\n")
    a, b, c, d, e = (decl.config.validation_profile for decl in sc.nodes)
    assert a is b and c is d
    assert a != c and c != e
    assert (e.atn, e.afi) == (True, 0x39)
    # The sharing is per parse: a second parse makes profiles of its own.
    again = parse_scenario("node A role=es snpa=020000000001\n").nodes[0]
    assert again.config.validation_profile == a
    assert again.config.validation_profile is not a


def test_parser_shares_one_value_per_distinct_at_token():
    nsaps = ["49" + f"{i:02x}" * 19 for i in range(3)]
    text = ("node ES1 role=es snpa=020000000001\nnode ES2 role=es snpa=020000000002\n"
            + "".join(f"at {t} sendclnp ES{t % 2 + 1} {nsaps[t % 3]} {nsaps[(t + 1) % 3]}\n"
                      for t in range(60))
            + "at 61 down ES1\nat 62 up ES1\nat 63 down ES2\nat 64 up ES2\n")
    sc = parse_scenario(text)
    sends = sc.actions[:60]
    assert len({id(a.source_nsap) for a in sends} | {id(a.dest_nsap) for a in sends}) == 3
    assert {a.source_nsap for a in sends} == {bytes.fromhex(n) for n in nsaps}
    decls = {decl.name: decl for decl in sc.nodes}
    assert all(a.node is decls[a.node].name for a in sc.actions)
    for kind in ("sendclnp", "down", "up"):
        assert len({id(a.kind) for a in sc.actions if a.kind == kind}) == 1
    assert not hasattr(sc.actions[0], "__dict__")
    # The sharing is per parse: a second parse makes values of its own.
    again = parse_scenario(text).actions[0]
    assert again.source_nsap == sends[0].source_nsap
    assert again.source_nsap is not sends[0].source_nsap
    # A bad token never enters the table, so its error names its own line.
    bad = "\n".join(text.splitlines()[:4] + [f"at 9 sendclnp ES1 {nsaps[1]} 4x"])
    with pytest.raises(ScenarioError, match="^line 5: bad hex for destination nsap: '4x'$"):
        parse_scenario(bad)


@pytest.mark.parametrize("line, msg", [
    ("latency -3", "latency must be ≥ 0"),
    ("at -4 down A", "time must be ≥ 0"),
    ("node B role=es snpa=020000000002 afi=", "afi must be one octet"),
    ("node B role=es snpa=020000000002 afi=0102", "afi must be one octet"),
    ("corrupt 1 0 abcd", "value must be one octet"),
    ("corrupt 1 0 zz", "bad hex for value"),
    ("latency 1 2", "latency takes exactly one value"),
    ("seed 3 junk", "seed takes exactly one value"),
    ("until 2 x", "until takes exactly one value"),
    ("drop", "drop ordinal takes exactly one value"),
    ("node B role=es snpa=020000000002 ct=0", "configuration timer must be > 0"),
    ("node B role=es snpa=020000000002 multiplier=1", "holding multiplier must be ≥ 2"),
    ("node B role=es snpa=020000000002 start=-1", "start must be ≥ 0"),
    ("until -1", "until must be ≥ 0"),
    ("drop 0", "drop ordinal must be ≥ 1"),
    ("corrupt 0 0 ff", "corrupt ordinal must be ≥ 1"),
    ("corrupt 1 -1 ff", "octet index must be ≥ 0"),
    ("node B role=xs snpa=020000000002", "role must be es or is, got 'xs'"),
    ("node B role=es snpa=020000000002 profile=strict",
     "profile must be lenient or atn, got 'strict'"),
    ("node B role=es snpa=020000000002 colour=red", "unknown node key 'colour'"),
    ("node B role=es snpa=020000000002 nsap", "expected key=value, got 'nsap'"),
    ("forward A prefix=49 net=48ff", "forward needs prefix=, net= and snpa="),
    ("forward A prefix=49 via=48ff", "unknown forward key 'via'"),
    ("forward A prefix=49 net=48ff snpa=zz", "bad hex for snpa"),
    ("at 1 down A now", "down takes only a node name"),
    ("at 1 sendclnp A 4900", "sendclnp needs <node> <src-hex> <dst-hex>"),
    ("at 1 sendclnp A 4900 4x", "bad hex for destination nsap"),
    ("until 1_0", "bad integer for until: '1_0'"),
    ("at ٣ down A", "bad integer for time: '٣'"),
    ("until +5", "bad integer for until"),
    ("node B role=es snpa=0:2000000000:1", "bad hex for snpa: '0:2000000000:1'"),
    ("node B role=es snpa=020000000002 nsap=4:900", "bad hex for nsap: '4:900'"),
    ("at 1 reboot A", "unknown action 'reboot'"),
    (f"node B role=es snpa=020000000002 nsap={LONG_NSAP_HEX}",
     f"a local NSAP or NET must be an NSAP of length 1..20, got '{LONG_NSAP_HEX}'"),
    ("node R role=is snpa=020000000002 net=",
     "a local NSAP or NET must be an NSAP of length 1..20, got ''"),
    ("node B role=es snpa=0203", "snpa must be 6 octets, got '0203'"),
    ("forward A prefix=49 net=48ff snpa=0203", "a forwarding SNPA must be 6 octets, got '0203'"),
    (f"forward A prefix=49 net={LONG_NSAP_HEX} snpa=020000000003",
     f"or an NSAP of length 1..20, got '{LONG_NSAP_HEX}'"),  # net= may also be empty
    (f"at 1 sendclnp A 4900 {LONG_NSAP_HEX}", "CLNP addresses must be NSAPs of length "
     f"1..20, got source '4900' and destination '{LONG_NSAP_HEX}'"),
    ("at 1 sendclnp A 4x 4900", "bad hex for source nsap: '4x'"),
    ("node B role=es snpa=020000000001", "duplicate snpa 020000000001"),
    ("node R role=is snpa=020000000002", "an intermediate system needs a local NET"),
    ("node", "node needs a name"),
    ("node B snpa=020000000002", "node needs role="),
    ("node B role=es", "node needs snpa="),
    ("node B role=es snpa=020000000002 ct=x", "bad integer for ct: 'x'"),
    ("forward", "forward needs a node name"),
    ("forward GHOST prefix=49 net=48ff snpa=020000000003", "unknown node 'GHOST'"),
    ("at 1 down", "at needs: <t> <action> <node>"),
    ("corrupt 1 0", "corrupt needs <ordinal>"),
    ("node B role=es snpa=020000000002 net=49ff", "an es node takes no net="),
    ("node R role=is snpa=020000000002 net=49ff nsap=4900", "an is node takes no nsap="),
    ("forward A prefix=49 net=48ff snpa=020000000003",
     "forward needs an is node, 'A' is an es node"),
    (f"forward A prefix=49 net={LONG_NSAP_HEX} snpa=020000000003",
     f"a forwarding NET must be empty or an NSAP of length 1..20, got '{LONG_NSAP_HEX}'"),
    (f"forward A prefix={LONG_NSAP_HEX} net=48ff snpa=020000000003",
     f"a forwarding prefix must be empty or an NSAP of length 1..20, got '{LONG_NSAP_HEX}'"),
    # Only nsap= may repeat: a second value of any other key is refused,
    # not taken in place of the first.
    ("node B role=es snpa=020000000002 nsap=4900 role=is net=49ff",
     "node key role= given twice"),
    ("node B role=es snpa=020000000002 snpa=020000000009", "node key snpa= given twice"),
    ("forward A prefix=49 prefix=47 net=48ff snpa=020000000003",
     "forward key prefix= given twice"),
])
def test_run_rejects_bad_values(capsys, tmp_path, line, msg):
    # The parser refuses syntax and names; a value the API owns is refused,
    # in its owner's words, when the scenario is built.
    bad = tmp_path / "bad.scn"
    bad.write_text(f"node A role=es snpa=020000000001\n{line}\n")
    with pytest.raises(ScenarioError, match=msg):
        build_simulator(parse_scenario(bad.read_text()))
    code, out, err = run_cli(capsys, "run", str(bad))
    assert code == 2 and out == ""
    assert err.startswith("error: line 2: ") and msg in err


def test_run_accepts_zero_latency_and_time(capsys, tmp_path):
    ok = tmp_path / "ok.scn"
    ok.write_text("node A role=es snpa=020000000001 nsap=4900 afi=49\n"
                  "latency 0\nuntil 1\nat 0 down A\ncorrupt 1 0 ff\n")
    code, _, err = run_cli(capsys, "run", str(ok))
    assert code == 0 and err == ""


def test_run_corrupt_index_past_payload_is_exit_2(capsys, tmp_path):
    # Frame 1 is A's 13-octet ESH; index 99 cannot be corrupted.
    scn = tmp_path / "past.scn"
    scn.write_text("node A role=es snpa=020000000001 nsap=4900\n"
                   "until 2\ncorrupt 1 99 ff\n")
    code, out, err = run_cli(capsys, "run", str(scn))
    assert code == 2 and out == ""
    assert err.startswith("error: corrupt rule for frame 1: octet index 99 ")
    assert "13-octet payload" in err


def test_run_survives_an_rd_with_holding_time_zero(capsys, tmp_path):
    # ES2 boots after the ISH, so ES1 sends its CLNP via IS1, whose RD is
    # frame 10. Its holding time 00ff becomes 0000 and the checksum holds.
    scn = tmp_path / "rd0.scn"
    scn.write_text(
        "node IS1 role=is snpa=0200000000ff net=49ff" + "01" * 18 + " ct=85 multiplier=3\n"
        f"node ES1 role=es snpa=020000000001 nsap={ES1}\n"
        f"node ES2 role=es snpa=020000000002 nsap={ES2} start=2\n"
        f"at 6 sendclnp ES1 {ES1} {ES2}\ncorrupt 10 6 00\nuntil 12\n")
    code, out, err = run_cli(capsys, "run", str(scn))
    assert code == 0 and err == ""
    assert f"t=8 node=ES1 RIB RD {ES2} -> 020000000002 expires 8\n" in out


def test_run_ignores_a_clnp_stub_with_a_21_octet_destination(capsys, tmp_path):
    # Frame 5 is ES1's CLNP. Its source length 20 becomes 1, so IS1 reads
    # ES1's second NSAP octet, 0x15, as a 21-octet destination that matches
    # the forward prefix; no RD can carry it, so none is sent.
    src = "4915" + "49" * 18
    scn = tmp_path / "long.scn"
    scn.write_text(
        "node IS1 role=is snpa=0200000000ff net=49ff" + "01" * 18 + "\n"
        f"node ES1 role=es snpa=020000000001 nsap={src} start=2\n"
        "forward IS1 prefix=49 net= snpa=020000000005\n"
        f"at 6 sendclnp ES1 {src} {ES2}\ncorrupt 5 1 01\nuntil 12\n")
    code, out, err = run_cli(capsys, "run", str(scn))
    assert code == 0 and err == ""
    assert "t=7 node=IS1 RECV src=020000000001 payload=8101" in out
    assert " REDIRECT " not in out and "t=7 node=IS1 SEND" not in out


@pytest.mark.parametrize("command", ["decode", "run"])
def test_unreadable_input_is_exit_2(capsys, tmp_path, command):
    code, out, err = run_cli(capsys, command, str(tmp_path / "missing"))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "No such file" in err


@pytest.mark.parametrize("argv, flags", [
    (["--type", "esh", "--addr", "4900", "--snpa", "020000000001", "--net", "49ff"],
     "esh takes no --snpa or --net"),
    (["--type", "ish", "--addr", NSAP_HEX, "--net", "49ff"], "ish takes no --net"),
    (["--type", "ra", "--addr", "4900"], "ra takes no --addr"),
])
def test_craft_rejects_flags_the_type_does_not_use(capsys, argv, flags):
    code, out, err = run_cli(capsys, "craft", *argv)
    assert code == 2 and out == ""
    assert err == f"error: {flags}\n"


@pytest.mark.parametrize("argv, msg", [
    (["--type", "ish", "--addr", NSAP_HEX, "--addr", NSAP_HEX],
     "ish needs exactly one --addr (its net)"),
    (["--type", "aa"], "aa needs exactly one --addr (its net)"),
    (["--type", "esh", *["--addr", "4900"] * 256],
     "esh needs at most 255 --addr (its source_addresses)"),
    (["--type", "rd", "--addr", NSAP_HEX], "rd needs exactly one --snpa (its better_snpa)"),
    (["--type", "rd", "--addr", NSAP_HEX, "--snpa", "020000000002", "--net", "49",
      "--net", "48"], "rd needs at most one --net (its redirect_net)"),
])
def test_craft_arity_errors_name_the_flag_and_field(capsys, argv, msg):
    code, out, err = run_cli(capsys, "craft", *argv)
    assert code == 2 and out == ""
    assert err == f"error: {msg}\n"


def test_craft_unknown_option_name_lists_the_names(capsys):
    code, out, err = run_cli(capsys, "craft", "--type", "ra", "--opt", "foo=01")
    assert code == 2 and out == ""
    assert err.startswith("error: unknown option 'foo': ")
    assert "security, priority, esct, addrmask, snpamask" in err
    # A numeric code still works.
    code, out, _ = run_cli(capsys, "craft", "--type", "ra", "--opt", "197=01")
    assert code == 0 and out.strip().endswith("c50101")


def test_craft_option_without_a_value_is_exit_2(capsys):
    code, out, err = run_cli(capsys, "craft", "--type", "ra", "--opt", "esct")
    assert code == 2 and out == ""
    assert err == "error: option must be name=hexvalue, got 'esct'\n"


# Craft flags for a PDU of the lowest-numbered type each option is legal on.
_CRAFT_FOR = {
    PduType.ESH: ["--type", "esh", "--addr", NSAP_HEX],
    PduType.ISH: ["--type", "ish", "--addr", NSAP_HEX],
    PduType.RD: ["--type", "rd", "--addr", NSAP_HEX, "--snpa", "020000000002"],
}


@pytest.mark.parametrize("code", list(OPTION_RULES), ids=lambda c: OPTION_RULES[c].name)
def test_decode_lists_each_option_by_the_name_craft_takes(capsys, code):
    rule = OPTION_RULES[code]
    flags = _CRAFT_FOR[min(rule.pdu_types)]
    value = "01" * rule.lengths.start
    status, crafted, _ = run_cli(capsys, "craft", *flags, "--opt", f"{int(code)}={value}")
    assert status == 0
    status, listing, _ = run_cli_with_stdin(capsys, crafted, "decode")
    assert status == 0
    option_lines = [line.split() for line in listing.splitlines() if line.startswith("option ")]
    assert option_lines == [["option", rule.name, value]]
    status, again, _ = run_cli(capsys, "craft", *flags, "--opt", f"{rule.name}={value}")
    assert (status, again) == (0, crafted)


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_run_into_a_closed_pipe_is_exit_0(unbuffered):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "esis.cli", "run",
                               str(ROOT / "scenarios" / "discovery.scn"), "--until", "3"],
                              stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, b"")


def test_fixed_fields_follow_the_wire_layout():
    name, off, width = _FIXED_FIELDS[-1]
    assert (name, off, width) == ("checksum", CSUM_POS, 2)
    assert off + width == FIXED_LEN
    assert all(o + w == next_o for (_, o, w), (_, next_o, _) in
               zip(_FIXED_FIELDS, _FIXED_FIELDS[1:]))


@pytest.mark.parametrize("scenario, argv, msg", [
    ("node A role=es snpa=020000000001\nuntil 5\n", ["--until", "-1"],
     "--until must be ≥ 0, got -1"),
    ("node A role=es snpa=020000000001 bogus=1\n", [], "line 1: unknown node key 'bogus'"),
    (f"node A role=es snpa=020000000001 nsap={LONG_NSAP_HEX}\n", [],
     f"line 1: a local NSAP or NET must be an NSAP of length 1..20, got '{LONG_NSAP_HEX}'"),
    ("node R role=is snpa=020000000001 net=\n", [],
     "line 1: a local NSAP or NET must be an NSAP of length 1..20, got ''"),
    (f"node A role=es snpa=020000000001\nat 1 sendclnp A 4900 {LONG_NSAP_HEX}\n", [],
     "line 2: CLNP addresses must be NSAPs of length 1..20, got source '4900' and "
     f"destination '{LONG_NSAP_HEX}'"),
    # Past the parser, but its ESH would not fit: once an empty log and an error at t=0.
    ("seed 1\nnode A role=es snpa=020000000001 " + f"nsap={NSAP_HEX} " * 12 + "\n", [],
     "line 2: an ESH of 12 NSAPs would be 262 octets, over 255"),
])
def test_run_rejected_before_output_opens_no_log(capsys, tmp_path, scenario, argv, msg):
    scn = tmp_path / "s.scn"
    scn.write_text(scenario)
    dest = tmp_path / "out.log"
    code, out, err = run_cli(capsys, "run", str(scn), *argv, "--log", str(dest))
    assert code == 2 and out == ""
    assert err == f"error: {msg}\n"
    assert not dest.exists()


def test_run_failing_midway_leaves_the_lines_before_it(capsys, tmp_path):
    # At t=0, A sends its ESH to all-IS (frame 1), then to all-ES (frame 2),
    # whose 13-octet payload has no octet 99.
    nodes = ("node A role=es snpa=020000000001 nsap=4900\n"
             "node B role=es snpa=020000000002 nsap=4901\nuntil 5\n")
    clean, bad = tmp_path / "clean.scn", tmp_path / "bad.scn"
    clean.write_text(nodes)
    bad.write_text(nodes + "corrupt 2 99 ff\n")
    full = tmp_path / "full.log"
    assert run_cli(capsys, "run", str(clean), "--log", str(full))[0] == 0
    lines = full.read_text().splitlines(keepends=True)
    second_send = [i for i, line in enumerate(lines) if " SEND " in line][1]
    assert second_send == 1
    dest = tmp_path / "out.log"
    code, out, err = run_cli(capsys, "run", str(bad), "--log", str(dest))
    assert code == 2 and out == ""
    assert err.startswith("error: corrupt rule for frame 2: octet index 99 ")
    assert dest.read_text() == "".join(lines[:second_send])
