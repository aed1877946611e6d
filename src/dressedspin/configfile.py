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

Every file key is also an override path (``--set`` on the CLI), with the
same value syntax and units: the key ``k`` of section ``[s]`` is ``s.k``, of
the N-th ``[[tuning]]`` block (from 0) ``tuning.N.k``, and a top-level key is
its bare name, e.g. ``static.x=3.5``, ``dressing.frequency=9``,
``tuning.0.phase=45deg``, ``spin=one``.  Overrides apply after the file
parse.  File errors report the source, line number and bare key; override
errors report ``<override>`` and the whole path.
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

__all__ = ["load_config", "parse_config_text", "apply_overrides", "read_text"]

# rad/s per kHz of ordinary frequency (value = omega/2pi); the CLI uses it too.
_KHZ = 2.0 * math.pi * 1e3


def _unquote(raw: str) -> str:
    raw = raw.strip()
    if len(raw) >= 2 and raw[0] == raw[-1] and raw[0] in "'\"":
        return raw[1:-1].strip()
    return raw


def _parse_float(raw, **loc):
    try:
        return float(raw)
    except ValueError:
        raise ConfigFileError(f"expected a number, got {raw!r}", **loc) from None


def _parse_int(raw, **loc):
    try:
        return int(raw)
    except ValueError:
        raise ConfigFileError(f"expected an integer, got {raw!r}", **loc) from None


def _parse_phase(raw, **loc):
    raw = _unquote(raw)
    if raw.endswith("deg"):
        return math.radians(_parse_float(raw[:-3], **loc))
    if raw.endswith("rad"):
        return _parse_float(raw[:-3], **loc)
    raise ConfigFileError(f"phase needs a 'deg' or 'rad' suffix (e.g. 90deg, 1.5708rad), got {raw!r}", **loc)


def _text(raw, **_loc):
    return _unquote(raw).lower()


def _khz(raw, **loc):
    return _parse_float(raw, **loc) * _KHZ


# The key schema, in one place: section -> key -> (field, value parser).  The
# file key ``k`` in section ``s`` is the override path ``s.k`` (``tuning.N.k``
# in the N-th [[tuning]] block, plain ``k`` at the top level); both routes
# parse through ``_parse_entry``.  A section name is the DriveConfiguration
# attribute that holds its fields.
_SCHEMA = {
    "": {"spin": ("spin", _text)},
    "static": {"x": ("omega0x", _khz), "y": ("omega0y", _khz), "z": ("omega0z", _khz)},
    "dressing": {"frequency": ("omega", _khz), "amplitude": ("omega_d", _khz)},
    "tuning": {
        "axis": ("axis", _text),
        "amplitude": ("amplitude", _khz),
        "harmonic": ("harmonic", _parse_int),
        "phase": ("phase", _parse_phase),
    },
}


def _parse_entry(path, text, n_tuning, *, source, line=None, key=None):
    """``(section, tuning index or None, field, value)`` for the value at dotted
    ``path`` parsed from ``text``, with ``n_tuning`` tuning components in place.

    Errors carry ``key`` (a file passes the bare key), else the whole path.
    """
    loc = {"source": source, "line": line, "key": path if key is None else key}
    head, _, name = path.rpartition(".")
    section, indexed, index = head.partition(".")
    fields = _SCHEMA.get(section)
    if fields is None or bool(indexed) != (section == "tuning"):
        raise ConfigFileError("unknown key path", **loc)
    if name not in fields:
        where = f"in [[{section}]]" if indexed else f"in [{section}]" if section else "at the top level"
        raise ConfigFileError(f"unknown key {where} (use {', '.join(fields)})", **loc)
    field, parse = fields[name]
    idx = None
    if indexed:
        idx = _parse_int(index, **loc)
        if not 0 <= idx < n_tuning:
            raise ConfigFileError(f"no tuning component with index {idx} (have {n_tuning})", **loc)
    return section, idx, field, parse(text, **loc)


def _assign(config, path, text, *, source):
    """Return ``config`` with the value at dotted ``path`` parsed from ``text``."""
    section, idx, field, value = _parse_entry(path, text, len(config.tuning), source=source)
    value = {field: value}
    if not section:
        return replace(config, **value)
    if idx is None:
        return replace(config, **{section: replace(getattr(config, section), **value)})
    tuning = list(config.tuning)
    tuning[idx] = replace(tuning[idx], **value)
    return replace(config, tuning=tuple(tuning))


def parse_config_text(text: str, source: str = "<config>") -> DriveConfiguration:
    """Parse configuration text into a DriveConfiguration (not yet validated).

    Each section's values are collected first and each dataclass is built
    once, after the last line.
    """
    values = {"": {}, "static": {}, "dressing": {"omega_d": 0.0}}
    blocks = []  # (header line, values) of each [[tuning]] block
    seen = set()  # assigned paths, for duplicate and required-key checks

    section = ""  # path prefix of the current section: "", "static", "dressing" or "tuning.N"
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        stripped = rawline.partition("#")[0].strip()
        if not stripped:
            continue
        if stripped.startswith("[["):
            if not stripped.endswith("]]"):
                raise ConfigFileError("unterminated '[[' section header", source=source, line=lineno)
            name = stripped[2:-2].strip().lower()
            if name != "tuning":
                raise ConfigFileError(f"unknown section [[{name}]]", source=source, line=lineno)
            section = f"tuning.{len(blocks)}"
            blocks.append((lineno, {}))
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
        if "." in key:
            raise ConfigFileError("dotted key (use a section header)", source=source, line=lineno, key=key)
        path = f"{section}.{key}" if section else key
        if path in seen:
            raise ConfigFileError("duplicate key", source=source, line=lineno, key=path)
        seen.add(path)
        part, idx, field, parsed = _parse_entry(path, value, len(blocks), source=source, line=lineno, key=key)
        (values[part] if idx is None else blocks[idx][1])[field] = parsed

    if "dressing.frequency" not in seen:
        raise ConfigFileError("missing required key", source=source, key="dressing.frequency")
    for i, (blockline, _) in enumerate(blocks):
        for req in ("axis", "amplitude", "harmonic"):
            if f"tuning.{i}.{req}" not in seen:
                raise ConfigFileError("missing required key in [[tuning]]", source=source, line=blockline, key=req)
    return DriveConfiguration(
        static=StaticField(**values["static"]),
        dressing=DressingField(**values["dressing"]),
        tuning=tuple(TuningComponent(**fields) for _, fields in blocks),
        **values[""],
    )


def read_text(path) -> str:
    """The text of a UTF-8 file; a file that does not decode is a ConfigFileError naming it."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigFileError(f"not UTF-8 text ({exc.reason})", source=str(path)) from None


def load_config(path) -> DriveConfiguration:
    return parse_config_text(read_text(path), source=str(path))


def apply_overrides(config: DriveConfiguration, overrides) -> DriveConfiguration:
    """Apply ``path=value`` override strings on top of a parsed configuration."""
    for item in overrides:
        if "=" not in item:
            raise ConfigFileError("override must look like path=value", source="<override>", key=item)
        path, _, value = item.partition("=")
        config = _assign(config, path.strip().lower(), value.strip(), source="<override>")
    return config
