"""User-space ES-IS routing information exchange: codec, RIB, engines, simulator.

Importing the package runs none of its modules: each exported name, and each
submodule, loads its home module when first read (PEP 562). A caller that
only decodes and encodes loads `checksum` and `pdu` alone.
"""

from importlib import import_module

# Home submodule -> the names the package exports from it.
_EXPORTS = {
    "checksum": "ChecksumVerdict HeaderTooShort generate_checksum verify_checksum",
    "pdu": "ATN AaBody DiscardReason EshBody InvariantViolation IshBody LENIENT Option "
           "OptionCode Pdu PduType RaBody RdBody ValidationProfile decode encode",
    "rib": "EntryKind HopKind InsertResult NextHop RedirectEntry Rib RibEntry",
    "engine": "ALL_ES ALL_IS BROADCAST Frame MinimalClnpPdu Node NodeConfig Role",
    "sim": "FaultPlan Simulator",
    "scenario": "Scenario ScenarioError build_simulator load_scenario parse_scenario",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in (module, *names.split())}
__all__ = sorted(_HOME)


def __getattr__(name: str):
    # Any other name, `cli` among them, is an AttributeError, after which
    # `from esis import cli` imports the submodule.
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value  # later reads are plain lookups
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
