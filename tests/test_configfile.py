import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from dressedspin.config import AXES, SPINS, DressingField, DriveConfiguration, StaticField, TuningComponent, validate
from dressedspin.configfile import apply_overrides, load_config, parse_config_text
from dressedspin.errors import ConfigFileError

from conftest import KHZ

EXAMPLE = """
# anisotropy run
spin = half

[static]
x = 3.0
y = 0
z = 5.979

[dressing]
frequency = 30.0
amplitude = 55.0   # xi = 55/30

[[tuning]]
axis = y
amplitude = 0.354
harmonic = 1
phase = 90deg
"""


def test_parse_example():
    cfg = parse_config_text(EXAMPLE)
    assert cfg.spin == "half"
    assert cfg.static.omega0x == pytest.approx(3.0 * KHZ)
    assert cfg.static.omega0z == pytest.approx(5.979 * KHZ)
    assert cfg.dressing.omega == pytest.approx(30.0 * KHZ)
    assert cfg.xi() == pytest.approx(55.0 / 30.0)
    (comp,) = cfg.tuning
    assert comp.axis == "y"
    assert comp.amplitude == pytest.approx(0.354 * KHZ)
    assert comp.harmonic == 1
    assert comp.phase == pytest.approx(math.pi / 2)


def test_parse_phase_radians():
    cfg = parse_config_text(
        "[dressing]\nfrequency = 10\n[[tuning]]\naxis = z\namplitude = 1\nharmonic = 2\nphase = 1.5rad\n"
    )
    assert cfg.tuning[0].phase == pytest.approx(1.5)


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "drive.cfg"
    path.write_text(EXAMPLE)
    cfg = load_config(path)
    assert cfg.dressing.omega == pytest.approx(30.0 * KHZ)


def test_error_reports_line_and_key():
    bad = "[dressing]\nfrequency = 10\n[static]\nx = not_a_number\n"
    with pytest.raises(ConfigFileError) as err:
        parse_config_text(bad, source="drive.cfg")
    assert err.value.line == 4
    assert err.value.key == "x"
    assert "drive.cfg:4" in str(err.value)


def test_error_unknown_key():
    with pytest.raises(ConfigFileError) as err:
        parse_config_text("[dressing]\nfrequency = 10\nwobble = 3\n")
    assert err.value.key == "wobble"
    assert err.value.line == 3


def test_error_unknown_section():
    with pytest.raises(ConfigFileError) as err:
        parse_config_text("[coils]\nturns = 3\n")
    assert err.value.line == 1


def test_error_missing_dressing_frequency():
    with pytest.raises(ConfigFileError) as err:
        parse_config_text("[static]\nz = 1\n")
    assert err.value.key == "dressing.frequency"


def test_error_phase_without_suffix():
    bad = "[dressing]\nfrequency = 10\n[[tuning]]\naxis = y\namplitude = 1\nharmonic = 1\nphase = 90\n"
    with pytest.raises(ConfigFileError) as err:
        parse_config_text(bad)
    assert err.value.key == "phase"
    assert "deg" in str(err.value)


def test_error_duplicate_key():
    with pytest.raises(ConfigFileError) as err:
        parse_config_text("[dressing]\nfrequency = 10\nfrequency = 11\n")
    assert err.value.line == 3


def test_error_missing_tuning_field():
    bad = "[dressing]\nfrequency = 10\n[[tuning]]\naxis = y\namplitude = 1\n"
    with pytest.raises(ConfigFileError) as err:
        parse_config_text(bad)
    assert err.value.key == "harmonic"


def test_overrides():
    cfg = parse_config_text(EXAMPLE)
    cfg = apply_overrides(
        cfg,
        ["static.x=1.25", "dressing.frequency=9", "tuning.0.phase=45deg", "spin=one"],
    )
    assert cfg.static.omega0x == pytest.approx(1.25 * KHZ)
    assert cfg.dressing.omega == pytest.approx(9.0 * KHZ)
    assert cfg.tuning[0].phase == pytest.approx(math.pi / 4)
    assert cfg.spin == "one"


def test_shipped_configs_parse_and_validate():
    import pathlib

    from dressedspin.config import validate

    cfg_dir = pathlib.Path(__file__).resolve().parent.parent / "configs"
    paths = sorted(cfg_dir.glob("*.cfg"))
    assert len(paths) >= 4
    for path in paths:
        validate(load_config(path))


def test_override_bad_path():
    cfg = parse_config_text(EXAMPLE)
    with pytest.raises(ConfigFileError):
        apply_overrides(cfg, ["dressing.wobble=1"])
    with pytest.raises(ConfigFileError):
        apply_overrides(cfg, ["tuning.5.phase=1rad"])
    with pytest.raises(ConfigFileError):
        apply_overrides(cfg, ["just-a-token"])


# --- the file and override routes against one another -------------------------

KEYS = {
    "": ("spin",),
    "static": ("x", "y", "z"),
    "dressing": ("frequency", "amplitude"),
    "tuning": ("axis", "amplitude", "harmonic", "phase"),
}


def _texts(config):
    """Value text of every key of ``config``, in file units (kHz, rad)."""
    def khz(value):
        return repr(value / KHZ)

    return {
        "": {"spin": config.spin},
        "static": {"x": khz(config.static.omega0x), "y": khz(config.static.omega0y), "z": khz(config.static.omega0z)},
        "dressing": {"frequency": khz(config.dressing.omega), "amplitude": khz(config.dressing.omega_d)},
        "tuning": [
            {"axis": t.axis, "amplitude": khz(t.amplitude), "harmonic": str(t.harmonic), "phase": f"{t.phase!r}rad"}
            for t in config.tuning
        ],
    }


def _render(texts):
    """Config-file text for a ``_texts`` mapping, keys in mapping order."""
    lines = [f"{k} = {v}" for k, v in texts[""].items()]
    for name in ("static", "dressing"):
        lines += [f"[{name}]"] + [f"{k} = {v}" for k, v in texts[name].items()]
    for block in texts["tuning"]:
        lines += ["[[tuning]]"] + [f"{k} = {v}" for k, v in block.items()]
    return "\n".join(lines) + "\n"


# kHz values that are powers of two (or 0): v*KHZ/KHZ == v, so rendering is exact
_POW2 = st.integers(-30, 30).map(lambda e: math.ldexp(1.0, e))
_KHZ_VALUE = st.just(0.0) | _POW2


@st.composite
def _configs(draw):
    axes = draw(st.lists(st.sampled_from(AXES), unique=True, max_size=3))
    signed = st.builds(lambda s, v: s * v, st.sampled_from((1.0, -1.0)), _KHZ_VALUE)
    return DriveConfiguration(
        static=StaticField(*(draw(signed) * KHZ for _ in range(3))),
        dressing=DressingField(omega_d=draw(_KHZ_VALUE) * KHZ, omega=draw(_POW2) * KHZ),
        tuning=tuple(
            TuningComponent(a, draw(_KHZ_VALUE) * KHZ, draw(st.integers(1, 12)), draw(st.floats(-10.0, 10.0)))
            for a in axes
        ),
        spin=draw(st.sampled_from(SPINS)),
    )


def _shuffled(data, texts):
    def shuffle(d):
        return dict(data.draw(st.permutations(list(d.items()))))

    return {
        "": texts[""],
        "static": shuffle(texts["static"]),
        "dressing": shuffle(texts["dressing"]),
        "tuning": [shuffle(b) for b in texts["tuning"]],
    }


@settings(deadline=None)
@given(config=_configs(), data=st.data())
def test_config_text_config_round_trip(config, data):
    validate(config)
    assert parse_config_text(_render(_shuffled(data, _texts(config)))) == config


_NUMBER = st.floats(-1e6, 1e6).map(repr) | st.integers(-(10**6), 10**6).map(str) | st.sampled_from(("1e3", "-0", ".5"))
_VALUE_TEXT = {
    "spin": st.sampled_from(("half", "one", "One", "'HALF'", '"one"')),
    "axis": st.sampled_from(("x", "Y", "'z'", '"x"')),
    "harmonic": st.integers(-3, 40).map(str),
    "phase": st.builds(
        lambda v, unit, q: f"{q}{v!r}{unit}{q}", st.floats(-720.0, 720.0), st.sampled_from(("deg", "rad")),
        st.sampled_from(("", "'")),
    ),
}


@settings(deadline=None)
@given(config=_configs(), data=st.data())
def test_override_route_equals_file_route(config, data):
    # every key the schema has, set to a drawn value text by both routes
    texts = _texts(config)
    slots = [("", k) for k in KEYS[""]] + [(s, k) for s in ("static", "dressing") for k in KEYS[s]]
    slots += [(i, k) for i in range(len(config.tuning)) for k in KEYS["tuning"]]
    chosen = data.draw(st.lists(st.sampled_from(slots), unique=True, min_size=1))
    overrides = []
    for section, key in chosen:
        value = data.draw(_VALUE_TEXT.get(key, _NUMBER), label=f"{section}.{key}")
        block = texts["tuning"][section] if isinstance(section, int) else texts[section]
        block[key] = value
        path = f"tuning.{section}.{key}" if isinstance(section, int) else f"{section}.{key}".lstrip(".")
        overrides.append(f"{path}={value}")
    assert apply_overrides(config, overrides) == parse_config_text(_render(texts))


BASE = "[dressing]\nfrequency = 10\n[[tuning]]\naxis = y\namplitude = 1\nharmonic = 1\n"  # 6 lines


@settings(deadline=None)
@given(
    section=st.sampled_from(sorted(KEYS)),
    key=st.from_regex(r"[a-z][a-z0-9_]{0,10}", fullmatch=True),
    blank=st.integers(0, 3),
)
def test_unknown_key_keeps_location(section, key, blank):
    assume(key not in KEYS[section])
    header = {"": "", "static": "[static]\n", "dressing": "[dressing]\n", "tuning": "[[tuning]]\n"}[section]
    text = header + "# note\n" * blank + f"{key} = 1\n" + BASE
    line = 1 + header.count("\n") + blank
    with pytest.raises(ConfigFileError) as err:
        parse_config_text(text, source="drive.cfg")
    assert (err.value.source, err.value.line, err.value.key) == ("drive.cfg", line, key)

    path = {"": key, "tuning": f"tuning.0.{key}"}.get(section, f"{section}.{key}")
    with pytest.raises(ConfigFileError) as err:
        apply_overrides(parse_config_text(BASE), [f"{path}=1"])
    assert (err.value.source, err.value.line, err.value.key) == ("<override>", None, path)


@pytest.mark.parametrize(
    "text, line, key",
    [
        ("spin = one\nspin = half\n" + BASE, 2, "spin"),
        ("[static]\nx = 1\nx = 2\n" + BASE, 3, "static.x"),
        (BASE + "[dressing]\nfrequency = 11\n", 8, "dressing.frequency"),
        (BASE + "[[tuning]]\naxis = z\naxis = x\n", 9, "tuning.1.axis"),
        ("static.x = 3\n" + BASE, 1, "static.x"),
        ("[static]\ntuning.0.phase = 1rad\n" + BASE, 2, "tuning.0.phase"),
        (BASE + "tuning.0.phase = 1rad\n", 7, "tuning.0.phase"),
        (BASE + "phase = 90\n", 7, "phase"),
    ],
    ids=["duplicate-top", "duplicate-static", "duplicate-dressing", "duplicate-tuning",
         "dotted-top", "dotted-static", "dotted-tuning", "phase-without-suffix"],
)
def test_rejected_file_input_keeps_location(text, line, key):
    with pytest.raises(ConfigFileError) as err:
        parse_config_text(text, source="drive.cfg")
    assert (err.value.source, err.value.line, err.value.key) == ("drive.cfg", line, key)
    assert f"drive.cfg:{line}: key '{key}'" in str(err.value)


@pytest.mark.parametrize(
    "item",
    ["tuning.1.axis=z", "tuning.-1.phase=1rad", "tuning.x.phase=1rad", "tuning.0.phase=90", "tuning.phase=1rad",
     "static.x.y=1", "coils.x=1", "spin.x=one", "just-a-token"],
)
def test_rejected_override_keeps_location(item):
    with pytest.raises(ConfigFileError) as err:
        apply_overrides(parse_config_text(BASE), [item])
    assert (err.value.source, err.value.line, err.value.key) == ("<override>", None, item.partition("=")[0])
