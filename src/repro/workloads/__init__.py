"""Traffic substrate: request catalog, generators, attacks, DOPE.

Only the (dependency-free) catalog is imported eagerly; the generator
modules pull in the network/sim substrates and are exposed lazily via
PEP 562 so that low-level modules can import the catalog without
dragging the whole stack in (and without import cycles).
"""

from .catalog import (
    ALL_TYPES,
    COLLA_FILT,
    K_MEANS,
    TEXT_CONT,
    VICTIM_TYPES,
    VOLUME_DOS,
    WORD_COUNT,
    RequestMix,
    RequestType,
    TrafficClass,
    alios_mix,
    dope_mix,
    get_type,
    get_type_by_url,
    uniform_mix,
)

_LAZY = {
    "TrafficGenerator": ("generator", "TrafficGenerator"),
    "make_normal_traffic": ("normal", "make_normal_traffic"),
    "make_flood": ("attacks", "make_flood"),
    "AttackScenario": ("attacks", "AttackScenario"),
    "ATTACK_SCENARIOS": ("attacks", "ATTACK_SCENARIOS"),
    "POWER_CLASSES": ("attacks", "POWER_CLASSES"),
    "DopeAttacker": ("dope", "DopeAttacker"),
    "DopeStats": ("dope", "DopeStats"),
    "DopeAdjustment": ("dope", "DopeAdjustment"),
    "AttackerState": ("dope", "AttackerState"),
    "ATTACK_MODES": ("dope", "ATTACK_MODES"),
    "PulseAttacker": ("pulse", "PulseAttacker"),
    "PulseStats": ("pulse", "PulseStats"),
    "ClosedLoopGenerator": ("generator", "ClosedLoopGenerator"),
    "clients_for_rate": ("generator", "clients_for_rate"),
    "make_flash_crowd": ("flashcrowd", "make_flash_crowd"),
    "flash_sale_mix": ("flashcrowd", "flash_sale_mix"),
}


def __getattr__(name: str):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    module = importlib.import_module(f".{module_name}", __name__)
    value = getattr(module, attr)
    globals()[name] = value
    return value


__all__ = [
    "RequestType",
    "RequestMix",
    "TrafficClass",
    "COLLA_FILT",
    "K_MEANS",
    "WORD_COUNT",
    "TEXT_CONT",
    "VOLUME_DOS",
    "VICTIM_TYPES",
    "ALL_TYPES",
    "get_type",
    "get_type_by_url",
    "alios_mix",
    "dope_mix",
    "uniform_mix",
    "TrafficGenerator",
    "make_normal_traffic",
    "make_flood",
    "AttackScenario",
    "ATTACK_SCENARIOS",
    "POWER_CLASSES",
    "DopeAttacker",
    "DopeStats",
    "DopeAdjustment",
    "AttackerState",
    "ATTACK_MODES",
    "PulseAttacker",
    "PulseStats",
    "ClosedLoopGenerator",
    "clients_for_rate",
    "make_flash_crowd",
    "flash_sale_mix",
]
