"""Key-directed bit-shuffle cipher with attack oracles and a deterministic
sensor-network telemetry simulator.

Each public name, and each submodule, is loaded on first access (PEP 562):
`import wsncrypt` runs no submodule, and `wsncrypt.encrypt` loads `cipher`
alone, so a command pays only for the modules it uses.
"""

import importlib

__version__ = "0.1.0"

# each public name, by the submodule it lives in
_HOME = {
    name: module
    for module, names in {
        "cipher": (
            "MAX_KEY_BYTES",
            "EmptyKeyError",
            "KeyLengthError",
            "NonByteAlignedError",
            "adjacent_swap",
            "bits_to_bytes",
            "bytes_to_bits",
            "complement",
            "decrypt",
            "encrypt",
            "key_directed_xor",
        ),
        "keyspace": (
            "AttackModel",
            "BruteForceEstimate",
            "KeyLengthOutOfRangeError",
            "LengthMismatchError",
            "NoKeyFitsError",
            "estimate_brute_force",
            "exhaustive_search",
            "recover_key",
            "recover_keystream",
        ),
        "sim": (
            "FrameCorruption",
            "InvalidConfigError",
            "SimConfig",
            "SimReport",
            "config_from_dict",
            "fusion_receive",
            "load_config",
            "report_to_dict",
            "run_simulation",
        ),
        "topology": ("NodeSpec", "Topology", "validate_topology"),
        "wire": (
            "Frame",
            "ReadingKind",
            "SensorReading",
            "decode_frame",
            "decode_readings",
            "encode_frame",
            "encode_readings",
        ),
    }.items()
    for name in names
}
_SUBMODULES = frozenset({*_HOME.values(), "cli", "rng"})

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _SUBMODULES:
        # the import binds the submodule on the package, so this runs once
        return importlib.import_module(f"{__name__}.{name}")
    try:
        home = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{home}"), name)
    return value


def __dir__():
    return sorted({*globals(), *_HOME, *_SUBMODULES})
