"""Text configuration files and key=value overrides.

Format (frequencies are ordinary frequencies in kHz, i.e. value = omega/2pi;
phases are suffix-tagged with "deg" or "rad"):

    # drive for a tilted-static-field run
    spin = half

    [static]
    x = 3.0          # kHz
    y = 0
    z = 5.979

    [dressing]
    frequency = 30.0 # kHz
    amplitude = 55.0 # kHz (Rabi); xi = amplitude/frequency

    [[tuning]]       # repeat the section for more components
    axis = y
    amplitude = 0.354
    harmonic = 1
    phase = 90deg    # or 1.5708rad

Parse errors report the source, line number and key.  Overrides are dotted
paths applied after the file parse, using the same value syntax:
``static.x=3.5``, ``dressing.frequency=9``, ``tuning.0.phase=45deg``,
``spin=one``.
"""

import math
from dataclasses import replace

from .config import (
    DressingField,
    DriveConfiguration,
    StaticField,
    TuningComponent,
)
from .errors import ConfigFileError

__all__ = ["load_config", "parse_config_text", "apply_overrides"]

# rad/s per kHz of ordinary frequency (value = omega/2pi); the CLI uses it too.
_KHZ = 2.0 * math.pi * 1e3


def _strip_comment(line: str) -> str:
    pos = line.find("#")
    return line if pos < 0 else line[:pos]


def _unquote(raw: str) -> str:
    raw = raw.strip()
    if len(raw) >= 2 and raw[0] == raw[-1] and raw[0] in "'\"":
        return raw[1:-1].strip()
    return raw


def _parse_float(raw, *, source, line, key):
    try:
        return float(raw)
    except ValueError:
        raise ConfigFileError(f"expected a number, got {raw!r}", source=source, line=line, key=key) from None


def _parse_int(raw, *, source, line, key):
    try:
        return int(raw)
    except ValueError:
        raise ConfigFileError(f"expected an integer, got {raw!r}", source=source, line=line, key=key) from None


def _parse_phase(raw, *, source, line, key):
    raw = _unquote(raw)
    if raw.endswith("deg"):
        return math.radians(_parse_float(raw[:-3], source=source, line=line, key=key))
    if raw.endswith("rad"):
        return _parse_float(raw[:-3], source=source, line=line, key=key)
    raise ConfigFileError(
        f"phase needs a 'deg' or 'rad' suffix (e.g. 90deg, 1.5708rad), got {raw!r}",
        source=source,
        line=line,
        key=key,
    )


def parse_config_text(text: str, source: str = "<config>") -> DriveConfiguration:
    """Parse configuration text into a DriveConfiguration (not yet validated)."""
    spin = "half"
    static = {"x": 0.0, "y": 0.0, "z": 0.0}
    dressing = {}
    tuning_blocks = []  # list of (line, dict)
    seen = set()  # (section-id, key) pairs for duplicate detection

    section = None  # None (top), "static", "dressing", or index into tuning_blocks
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        stripped = _strip_comment(rawline).strip()
        if not stripped:
            continue
        if stripped.startswith("[["):
            if not stripped.endswith("]]"):
                raise ConfigFileError("unterminated '[[' section header", source=source, line=lineno)
            name = stripped[2:-2].strip().lower()
            if name != "tuning":
                raise ConfigFileError(f"unknown section [[{name}]]", source=source, line=lineno)
            tuning_blocks.append((lineno, {}))
            section = len(tuning_blocks) - 1
            continue
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise ConfigFileError("unterminated '[' section header", source=source, line=lineno)
            name = stripped[1:-1].strip().lower()
            if name not in ("static", "dressing"):
                raise ConfigFileError(f"unknown section [{name}]", source=source, line=lineno)
            section = name
            continue
        if "=" not in stripped:
            raise ConfigFileError("expected 'key = value'", source=source, line=lineno)
        key, _, value = stripped.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if not value:
            raise ConfigFileError("missing value", source=source, line=lineno, key=key)

        sect_id = section if isinstance(section, str) else f"tuning[{section}]" if section is not None else ""
        if (sect_id, key) in seen:
            raise ConfigFileError("duplicate key", source=source, line=lineno, key=f"{sect_id or 'top level'}.{key}")
        seen.add((sect_id, key))

        if section is None:
            if key == "spin":
                spin = _unquote(value).lower()
            else:
                raise ConfigFileError("unknown top-level key", source=source, line=lineno, key=key)
        elif section == "static":
            if key not in static:
                raise ConfigFileError("unknown key in [static] (use x, y, z)", source=source, line=lineno, key=key)
            static[key] = _parse_float(value, source=source, line=lineno, key=key) * _KHZ
        elif section == "dressing":
            if key not in ("frequency", "amplitude"):
                raise ConfigFileError(
                    "unknown key in [dressing] (use frequency, amplitude)", source=source, line=lineno, key=key
                )
            dressing[key] = _parse_float(value, source=source, line=lineno, key=key) * _KHZ
        else:
            blk = tuning_blocks[section][1]
            if key == "axis":
                blk["axis"] = _unquote(value).lower()
            elif key == "amplitude":
                blk["amplitude"] = _parse_float(value, source=source, line=lineno, key=key) * _KHZ
            elif key == "harmonic":
                blk["harmonic"] = _parse_int(value, source=source, line=lineno, key=key)
            elif key == "phase":
                blk["phase"] = _parse_phase(value, source=source, line=lineno, key=key)
            else:
                raise ConfigFileError(
                    "unknown key in [[tuning]] (use axis, amplitude, harmonic, phase)",
                    source=source,
                    line=lineno,
                    key=key,
                )

    if "frequency" not in dressing:
        raise ConfigFileError("missing required key", source=source, key="dressing.frequency")
    dressing.setdefault("amplitude", 0.0)

    components = []
    for blockline, blk in tuning_blocks:
        for req in ("axis", "amplitude", "harmonic"):
            if req not in blk:
                raise ConfigFileError(
                    "missing required key in [[tuning]]", source=source, line=blockline, key=req
                )
        components.append(
            TuningComponent(
                axis=blk["axis"],
                amplitude=blk["amplitude"],
                harmonic=blk["harmonic"],
                phase=blk.get("phase", 0.0),
            )
        )

    return DriveConfiguration(
        static=StaticField(omega0x=static["x"], omega0y=static["y"], omega0z=static["z"]),
        dressing=DressingField(omega_d=dressing["amplitude"], omega=dressing["frequency"]),
        tuning=tuple(components),
        spin=spin,
    )


def load_config(path) -> DriveConfiguration:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read(), source=str(path))


def apply_overrides(config: DriveConfiguration, overrides) -> DriveConfiguration:
    """Apply ``path=value`` override strings on top of a parsed configuration."""
    for item in overrides:
        if "=" not in item:
            raise ConfigFileError("override must look like path=value", source="<override>", key=item)
        path, _, value = item.partition("=")
        path = path.strip().lower()
        value = value.strip()
        parts = path.split(".")
        src = "<override>"

        if parts == ["spin"]:
            config = replace(config, spin=_unquote(value).lower())
        elif len(parts) == 2 and parts[0] == "static" and parts[1] in ("x", "y", "z"):
            val = _parse_float(value, source=src, line=None, key=path) * _KHZ
            config = replace(config, static=replace(config.static, **{f"omega0{parts[1]}": val}))
        elif len(parts) == 2 and parts[0] == "dressing" and parts[1] in ("frequency", "amplitude"):
            val = _parse_float(value, source=src, line=None, key=path) * _KHZ
            field = "omega" if parts[1] == "frequency" else "omega_d"
            config = replace(config, dressing=replace(config.dressing, **{field: val}))
        elif len(parts) == 3 and parts[0] == "tuning":
            idx = _parse_int(parts[1], source=src, line=None, key=path)
            if not 0 <= idx < len(config.tuning):
                raise ConfigFileError(
                    f"no tuning component with index {idx} (have {len(config.tuning)})",
                    source=src,
                    key=path,
                )
            comp = config.tuning[idx]
            if parts[2] == "axis":
                comp = replace(comp, axis=_unquote(value).lower())
            elif parts[2] == "amplitude":
                comp = replace(comp, amplitude=_parse_float(value, source=src, line=None, key=path) * _KHZ)
            elif parts[2] == "harmonic":
                comp = replace(comp, harmonic=_parse_int(value, source=src, line=None, key=path))
            elif parts[2] == "phase":
                comp = replace(comp, phase=_parse_phase(value, source=src, line=None, key=path))
            else:
                raise ConfigFileError("unknown tuning field", source=src, key=path)
            tuning = list(config.tuning)
            tuning[idx] = comp
            config = replace(config, tuning=tuple(tuning))
        else:
            raise ConfigFileError("unknown override path", source=src, key=path)
    return config
