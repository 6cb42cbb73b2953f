"""Scenario presets, geometry painting, and config loading."""

import numpy as np
import pytest

from wavecast.errors import ConfigurationError
from wavecast.scenarios import (
    C0,
    PRESETS,
    Annulus,
    Disk,
    RodLattice,
    Scenario,
    get_scenario,
    load_config,
    ring_desk,
    homogeneous_desk,
    waveguide_desk,
)


def test_all_presets_validate():
    for name in PRESETS:
        sc = get_scenario(name)
        assert sc.name == name
        assert sc.omega_min < sc.omega_max
        assert sc.chi > 1.0


def test_unknown_preset():
    with pytest.raises(ConfigurationError):
        get_scenario("not-a-scenario")


def test_preset_interval_ratios():
    # band ratio and mu = 0.1 fix the interval ratio chi
    sc = ring_desk()
    assert sc.chi == pytest.approx((sc.omega_max / (0.1 * sc.omega_min)) ** 2)
    assert sc.chi == pytest.approx(8114.9, rel=1e-3)
    assert waveguide_desk().chi == pytest.approx(215.47, rel=1e-3)
    assert homogeneous_desk().chi == pytest.approx(8114.9, rel=1e-3)


def test_ring_medium_painting():
    fn = ring_desk().medium_fn()
    x = np.array([0.0, 0.45, 0.30, 0.60, -0.45])
    y = np.zeros(5)
    eps = fn(x, y)
    # hole, annulus, hole, outside, annulus
    assert eps == pytest.approx([1.0, 4.0, 1.0, 1.0, 4.0])


def test_lattice_painting_and_removed_cells():
    sc = waveguide_desk()
    lat = sc.shapes[0]
    assert isinstance(lat, RodLattice)
    assert lat.rows == 8 and lat.cols == 8
    assert len(lat.removed) == 8
    fn = sc.medium_fn()
    # source and probe sit in emptied cells
    assert fn(*sc.source_xy) == pytest.approx(1.0)
    assert fn(*sc.probes[0]) == pytest.approx(1.0)
    for cell in lat.removed:
        assert fn(*lat.center(*cell)) == pytest.approx(1.0)
    kept = lat.center(0, 0)
    assert fn(*kept) == pytest.approx(lat.eps_r)
    assert lat.eps_r == pytest.approx(11.56)


def test_scalar_and_array_painting_agree():
    fn = ring_desk().medium_fn()
    xs = np.linspace(-0.9, 0.9, 41)
    grid = fn(xs[:, None], xs[None, :])
    assert grid.shape == (41, 41)
    for i in (0, 13, 29):
        for j in (5, 20, 40):
            assert grid[i, j] == fn(xs[i], xs[j])


def test_probe_standoff_is_enforced():
    base = homogeneous_desk()
    with pytest.raises(ConfigurationError):
        Scenario(
            name="edge-probe",
            omega_min=base.omega_min,
            omega_max=base.omega_max,
            n_int=base.n_int,
            k=base.k,
            t_final=1.0,
            source_xy=(0.0, 0.0),
            probes=((1.0 - 1.0 / base.n_int, 0.0),),
        ).validate()


def test_shape_standoff_is_enforced():
    with pytest.raises(ConfigurationError):
        Scenario(
            name="edge-disk",
            omega_min=1.0,
            omega_max=5.0,
            n_int=60,
            k=4,
            t_final=1.0,
            source_xy=(0.0, 0.0),
            probes=((0.3, 0.0),),
            shapes=(Disk(0.8, 0.0, 0.25, 2.0),),
        ).validate()


def test_analytic_reference_forbids_shapes():
    with pytest.raises(ConfigurationError):
        Scenario(
            name="bad-ref",
            omega_min=1.0,
            omega_max=5.0,
            n_int=60,
            k=4,
            t_final=1.0,
            source_xy=(0.0, 0.0),
            probes=((0.3, 0.0),),
            shapes=(Disk(0.0, 0.3, 0.1, 2.0),),
            reference="analytic",
        ).validate()


@pytest.mark.parametrize(
    "field,value",
    [
        ("omega_min", 6.0),  # above omega_max
        ("mu", 0.0),
        ("n_int", 3),
        ("k", 0),
        ("t_final", -1.0),
        ("floor_db", 3.0),
        ("reference", "exact"),
        ("m_list", (100, 100)),
        ("t_final", float("inf")),
        ("t_final", float("nan")),
        ("samples_per_period", 0),
        ("samples_per_period", 1),
        ("samples_per_period", 7),
        ("floor_db", float("nan")),
        ("amplitude", float("nan")),
        ("l_ref", float("nan")),
        ("source_xy", (float("nan"), 0.0)),
        ("probes", ((0.3, float("inf")),)),
        ("shapes", (Disk(0.0, 0.3, float("nan"), 2.0),)),
        ("t_final", 1e300),  # finite, but no trace grid that long
        ("t_final", 1e9),
        ("floor_db", -1e5),  # the wavelet width overflows
        ("floor_db", -1e-300),  # the wavelet width rounds to 0
        ("floor_db", 1e4),  # 10 ** (floor_db / 20) overflows
        ("omega_max", 1e200),  # omega_max ** 2 overflows
        ("l_ref", 0.0),
        ("l_ref", -1.0),
    ],
)
def test_validate_rejects(field, value):
    kw = dict(
        name="bad",
        omega_min=1.0,
        omega_max=5.0,
        n_int=60,
        k=4,
        t_final=1.0,
        source_xy=(0.0, 0.0),
        probes=((0.3, 0.0),),
    )
    kw[field] = value
    with pytest.raises(ConfigurationError):
        Scenario(**kw).validate()


def test_annulus_radius_order():
    with pytest.raises(ConfigurationError):
        Annulus(0.0, 0.0, 0.5, 0.4, 2.0)


@pytest.mark.parametrize("radius", [0.0, -0.25])
def test_disk_radius_positive(radius):
    # a negative radius would paint |radius| while extent subtracts it
    with pytest.raises(ConfigurationError):
        Disk(0.7, 0.0, radius, 4.0)


def test_unit_round_trip():
    sc = waveguide_desk()
    t = np.linspace(0.0, sc.t_final, 7)
    back = sc.seconds(t) * C0 / sc.l_ref
    assert np.max(np.abs(back - t)) <= 1e-12 * sc.t_final
    # the normalized band maps back to the laboratory band
    assert sc.omega_min * C0 / sc.l_ref == pytest.approx(9.81e14)
    assert sc.omega_max * C0 / sc.l_ref == pytest.approx(1.44e15)


def test_units_require_reference_length():
    sc = ring_desk()
    bare = Scenario(
        name="bare",
        omega_min=sc.omega_min,
        omega_max=sc.omega_max,
        n_int=60,
        k=4,
        t_final=1.0,
        source_xy=(0.0, 0.0),
        probes=((0.3, 0.0),),
    )
    with pytest.raises(ConfigurationError):
        bare.seconds(1.0)


def test_trace_times_resolution():
    sc = ring_desk()
    t = sc.trace_times()
    dt = t[1] - t[0]
    assert t[0] == 0.0
    assert dt == pytest.approx(
        2.0 * np.pi / sc.omega_max / sc.samples_per_period
    )
    assert t[-1] >= sc.t_final - 1e-12
    pad = sc.trace_times(pad=1.0)
    assert pad[-1] >= sc.t_final + 1.0 - dt


def test_load_config_round_trip(tmp_path):
    cfg = tmp_path / "sc.cfg"
    cfg.write_text(
        """
[scenario]
name = tiny-ring
reference = none
t_final = 4.5
l_ref = 2.5e-6

[band]
omega_min = 1.5
omega_max = 9.0

[discretization]
n_int = 48

[solvers]
k = 3
m = 150
m_list = 50, 100, 150

[source]
x = 0.0
y = 0.1

[probes]
p_east = 0.3, 0.0
p_north = 0.0, 0.35

[geometry]
ring = annulus 0.0 0.0 0.45 0.6 3.0
bump = disk -0.2 0.1 0.08 2.0
""",
        encoding="utf-8",
    )
    sc = load_config(cfg)
    assert sc.name == "tiny-ring"
    assert sc.t_final == 4.5
    assert sc.n_int == 48 and sc.k == 3
    assert sc.m_default == 150 and sc.m_list == (50, 100, 150)
    assert sc.source_xy == (0.0, 0.1)
    assert sc.probes == ((0.3, 0.0), (0.0, 0.35))
    assert isinstance(sc.shapes[0], Annulus)
    assert isinstance(sc.shapes[1], Disk)
    assert sc.l_ref == 2.5e-6
    # defaults echoed
    assert sc.mu == 0.1 and sc.floor_db == -30.0


def test_load_config_lattice(tmp_path):
    cfg = tmp_path / "lat.cfg"
    cfg.write_text(
        """
[scenario]
t_final = 2.0

[band]
omega_min = 2.0
omega_max = 6.0

[discretization]
n_int = 64

[solvers]
k = 3

[source]
x = 0.0
y = 0.0

[probes]
probe1 = 0.25, 0.25

[geometry]
rods = lattice 0.2 0.04 9.0 4 4 removed=1:1,2:2
""",
        encoding="utf-8",
    )
    sc = load_config(cfg)
    lat = sc.shapes[0]
    assert lat.pitch == 0.2 and lat.rows == 4 and lat.cols == 4
    assert lat.removed == frozenset({(1, 1), (2, 2)})
    assert sc.name == "lat"  # file stem


@pytest.mark.parametrize(
    "mutation,needle",
    [
        ("omega_max = 9.0", "omega_max"),  # dropped -> missing key
        ("n_int = 48", "n_int"),
        ("x = 0.0", "x"),
        ("p_east = 0.3, 0.0", "probe"),
    ],
)
def test_load_config_missing_keys(tmp_path, mutation, needle):
    text = """
[scenario]
t_final = 4.5

[band]
omega_min = 1.5
omega_max = 9.0

[discretization]
n_int = 48

[solvers]
k = 3

[source]
x = 0.0
y = 0.1

[probes]
p_east = 0.3, 0.0
"""
    cfg = tmp_path / "broken.cfg"
    cfg.write_text(text.replace(mutation, ""), encoding="utf-8")
    with pytest.raises(ConfigurationError, match=needle):
        load_config(cfg)


def test_load_config_bad_values(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(
        """
[scenario]
t_final = soon

[band]
omega_min = 1.5
omega_max = 9.0

[discretization]
n_int = 48

[solvers]
k = 3

[source]
x = 0.0
y = 0.0

[probes]
probe1 = 0.3, 0.0
""",
        encoding="utf-8",
    )
    with pytest.raises(ConfigurationError, match="t_final"):
        load_config(cfg)


@pytest.mark.parametrize("floor_db", ["-1e5", "-1e-300"])
def test_load_config_rejects_a_wavelet_without_width(tmp_path, floor_db):
    # sigma is inf at -1e5 and 0 at -1e-300: the first kept the closed
    # form's quadrature busy for minutes, the second ended in exit 3
    cfg = tmp_path / "floor.cfg"
    cfg.write_text(
        f"""
[scenario]
t_final = 4.5

[band]
omega_min = 1.5
omega_max = 9.0
floor_db = {floor_db}

[discretization]
n_int = 48

[solvers]
k = 3

[source]
x = 0.0
y = 0.0

[probes]
probe1 = 0.3, 0.0
""",
        encoding="utf-8",
    )
    with pytest.raises(ConfigurationError, match="floor_db"):
        load_config(cfg)


def test_load_config_bad_shape(tmp_path):
    cfg = tmp_path / "shape.cfg"
    cfg.write_text(
        """
[scenario]
t_final = 2.0

[band]
omega_min = 1.5
omega_max = 9.0

[discretization]
n_int = 48

[solvers]
k = 3

[source]
x = 0.0
y = 0.0

[probes]
probe1 = 0.3, 0.0

[geometry]
blob = pyramid 0 0 1
""",
        encoding="utf-8",
    )
    with pytest.raises(ConfigurationError, match="pyramid"):
        load_config(cfg)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigurationError):
        load_config(tmp_path / "nope.cfg")
