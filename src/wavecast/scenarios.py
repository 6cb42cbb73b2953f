"""Experiment definitions: geometry shapes and named scenario presets.

All coordinates are normalized so the physical square [-L, L]^2 maps to
[-1, 1]^2 and the exterior wave speed is 1; a scenario's `l_ref` (L in
meters) converts back to laboratory units when reporting.  Frequencies
here are normalized angular frequencies omega' = omega * L / c0.

Geometry is painted onto the background (c = 1) in declaration order,
and one callable, sampled by operator.MediumMap on one node set (the
FDTD takes its interior nodes from the stretched grid), rasterizes the
medium for both solvers, so their samples agree node for node.
"""

import configparser
import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, InvalidParameterError
from .krylov import MIN_SAMPLES_PER_PERIOD
from .signals import FLOOR_DB, make_wavelet
from .zolotarev import MU, compute_interval

C0 = 299792458.0  # m/s

# band edges shared by the first two laboratory setups, rad/s
_OMEGA_LO = 2.42e14
_OMEGA_HI = 2.18e15
_BAND_RATIO = _OMEGA_HI / _OMEGA_LO
# most output samples a trace may have; the longest preset (ring) has
# 2 777
MAX_TRACE_SAMPLES = 100_000


@dataclass(frozen=True)
class Disk:
    cx: float
    cy: float
    radius: float
    eps_r: float

    def __post_init__(self):
        # paint squares the radius and extent adds it, so a negative
        # one paints past the standoff that extent checks
        if self.radius <= 0.0:
            raise ConfigurationError(f"need radius > 0, got {self.radius}")

    def paint(self, eps, x, y):
        mask = (x - self.cx) ** 2 + (y - self.cy) ** 2 <= self.radius ** 2
        eps[mask] = self.eps_r

    @property
    def extent(self):
        return max(abs(self.cx), abs(self.cy)) + self.radius


@dataclass(frozen=True)
class Annulus:
    cx: float
    cy: float
    r_inner: float
    r_outer: float
    eps_r: float

    def __post_init__(self):
        if not 0.0 < self.r_inner < self.r_outer:
            raise ConfigurationError(
                f"need 0 < r_inner < r_outer, got {self.r_inner}, {self.r_outer}"
            )

    def paint(self, eps, x, y):
        rho2 = (x - self.cx) ** 2 + (y - self.cy) ** 2
        mask = (rho2 >= self.r_inner ** 2) & (rho2 <= self.r_outer ** 2)
        eps[mask] = self.eps_r

    @property
    def extent(self):
        return max(abs(self.cx), abs(self.cy)) + self.r_outer


@dataclass(frozen=True)
class RodLattice:
    """rows x cols square lattice of dielectric rods centered on the
    origin; `removed` lists (row, col) cells left empty (the channel)."""

    pitch: float
    radius: float
    eps_r: float
    rows: int
    cols: int
    removed: frozenset = frozenset()

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ConfigurationError("lattice needs at least one rod")
        if not 0.0 < self.radius < 0.5 * self.pitch:
            raise ConfigurationError(
                "rod radius must be positive and below half the pitch"
            )
        for cell in self.removed:
            i, j = cell
            if not (0 <= i < self.rows and 0 <= j < self.cols):
                raise ConfigurationError(f"removed cell {cell} outside lattice")

    def center(self, i, j):
        return (
            (j - (self.cols - 1) / 2.0) * self.pitch,
            (i - (self.rows - 1) / 2.0) * self.pitch,
        )

    def paint(self, eps, x, y):
        r2 = self.radius ** 2
        for i in range(self.rows):
            for j in range(self.cols):
                if (i, j) in self.removed:
                    continue
                cx, cy = self.center(i, j)
                eps[(x - cx) ** 2 + (y - cy) ** 2 <= r2] = self.eps_r

    @property
    def extent(self):
        ex = (self.cols - 1) / 2.0 * self.pitch
        ey = (self.rows - 1) / 2.0 * self.pitch
        return max(ex, ey) + self.radius


_SHAPE_TYPES = (Disk, Annulus, RodLattice)


def _numbers(value):
    """The numbers in a field value, inside points and shapes too."""
    if isinstance(value, (int, float)):
        yield value
    elif isinstance(value, (tuple, frozenset)):
        for v in value:
            yield from _numbers(v)
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from _numbers(getattr(value, f.name))


def _finite(v):
    try:
        return math.isfinite(v)
    except OverflowError:  # an int beyond the float range
        return False


@dataclass(frozen=True)
class Scenario:
    """A complete experiment: band, geometry, discretization, window.

    omega_min/omega_max are normalized; chi for the absorbing layer is
    (omega_max / (mu * omega_min))^2, fixed by the band.
    """

    name: str
    omega_min: float
    omega_max: float
    n_int: int
    k: int
    t_final: float
    source_xy: tuple
    probes: tuple
    shapes: tuple = ()
    mu: float = MU
    floor_db: float = FLOOR_DB
    amplitude: float = 1.0
    l_ref: float | None = None
    reference: str = "none"  # analytic | fdtd | none
    m_default: int = 500
    m_list: tuple = ()
    samples_per_period: int = 20

    def validate(self):
        for f in dataclasses.fields(self):
            if not all(_finite(v) for v in _numbers(getattr(self, f.name))):
                raise ConfigurationError(f"{f.name} must be finite")
        try:  # the band, floor_db and mu, checked where they are used
            self.signature()
            self.interval()
        except InvalidParameterError as exc:
            raise ConfigurationError(str(exc)) from None
        except OverflowError:  # omega_max ** 2 as a Python float
            raise ConfigurationError("omega_max is too large") from None
        if self.n_int < 4 or self.k < 1:
            raise ConfigurationError("need n_int >= 4 and k >= 1")
        if self.t_final <= 0.0:
            raise ConfigurationError("observation window must be positive")
        if self.l_ref is not None and self.l_ref <= 0.0:
            raise ConfigurationError(f"l_ref must be positive, got {self.l_ref}")
        if self.reference not in ("analytic", "fdtd", "none"):
            raise ConfigurationError(f"unknown reference {self.reference!r}")
        if self.reference == "analytic" and self.shapes:
            raise ConfigurationError(
                "free-space closed form only applies without scatterers"
            )
        if self.samples_per_period < MIN_SAMPLES_PER_PERIOD:
            raise ConfigurationError(
                f"samples_per_period must be >= {MIN_SAMPLES_PER_PERIOD} "
                "(the source convolution resolves the band at that rate)"
            )
        if self.t_final / self.trace_dt > MAX_TRACE_SAMPLES:
            raise ConfigurationError(
                f"t_final = {self.t_final:g} needs more than "
                f"{MAX_TRACE_SAMPLES} trace samples at "
                f"samples_per_period = {self.samples_per_period}"
            )
        if self.m_default < 1:
            raise ConfigurationError("m_default must be >= 1")
        if self.m_list and list(self.m_list) != sorted(set(self.m_list)):
            raise ConfigurationError("m_list must be strictly increasing")
        # scatterers, source, and probes keep a two-cell standoff from
        # the absorbing interface (evanescent content must decay first)
        h = 2.0 / self.n_int
        limit = 1.0 - 2.0 * h
        for shape in self.shapes:
            if not isinstance(shape, _SHAPE_TYPES):
                raise ConfigurationError(f"unknown shape {type(shape).__name__}")
            if shape.extent > limit:
                raise ConfigurationError(
                    f"{type(shape).__name__} extent {shape.extent:.4f} "
                    f"violates the 2-cell standoff (limit {limit:.4f})"
                )
        for x, y in (self.source_xy, *self.probes):
            if max(abs(x), abs(y)) > limit:
                raise ConfigurationError(
                    f"point ({x}, {y}) violates the 2-cell standoff"
                )
        return self

    @property
    def chi(self):
        return self.interval().chi

    def interval(self):
        return compute_interval(self.omega_min, self.omega_max, self.mu)

    def signature(self):
        return make_wavelet(self.omega_min, self.omega_max, self.floor_db)

    def medium_fn(self):
        shapes = self.shapes

        def fn(x, y):
            eps = np.ones(np.broadcast(x, y).shape)
            for shape in shapes:
                shape.paint(eps, x, y)
            return eps

        return fn

    @property
    def trace_dt(self):
        """Output sample step: samples_per_period per shortest period."""
        return 2.0 * np.pi / self.omega_max / self.samples_per_period

    def trace_times(self, pad=0.0):
        """Uniform output grid resolving the shortest period."""
        dt = self.trace_dt
        n = int(np.ceil((self.t_final + pad) / dt)) + 1
        return np.arange(n) * dt

    # unit conversions (l_ref in meters, c0 exterior speed)
    def seconds(self, t_norm):
        if self.l_ref is None:
            raise ConfigurationError(f"scenario {self.name} has no l_ref")
        return np.asarray(t_norm) * self.l_ref / C0


def _channel_lattice():
    # half a row and half a column removed, meeting at the source cell
    removed = frozenset(
        {(3, j) for j in range(4)} | {(i, 3) for i in range(3, 8)}
    )
    return RodLattice(
        pitch=0.2, radius=0.036, eps_r=11.56, rows=8, cols=8, removed=removed
    )


def homogeneous_desk():
    """Free-space validation at desk scale: 25 grid points per minimum
    wavelength, receiver far enough out that the pulse fully detaches
    from the source before it arrives."""
    n_int = 80
    omega_max = 10.0
    omega_min = omega_max / _BAND_RATIO
    return Scenario(
        name="homogeneous-desk",
        omega_min=omega_min,
        omega_max=omega_max,
        n_int=n_int,
        k=8,
        t_final=7.5,
        source_xy=(0.0, 0.0),
        probes=((0.75, 0.0),),
        l_ref=omega_max * C0 / _OMEGA_HI,
        reference="analytic",
        m_default=1600,
        m_list=(80, 400, 800, 1200, 1600),
    ).validate()


def ring_desk():
    """Dielectric annulus (eps_r = 4) around the source, desk scale."""
    n_int = 120
    omega_max = 10.0  # 18.8 points per wavelength inside the dielectric
    omega_min = omega_max / _BAND_RATIO
    return Scenario(
        name="ring-desk",
        omega_min=omega_min,
        omega_max=omega_max,
        n_int=n_int,
        k=8,
        t_final=18.0,
        source_xy=(0.0, 0.0),
        probes=((0.15, 0.15),),
        shapes=(Annulus(0.0, 0.0, 0.35, 0.55, 4.0),),
        l_ref=omega_min * C0 / _OMEGA_LO,
        reference="fdtd",
        m_default=1650,
        m_list=(250, 600, 950, 1300, 1650),
    ).validate()


def waveguide_desk():
    """Rod-lattice bend (eps_r = 11.56) at desk scale; the source sits
    at the corner where the emptied half-row and half-column meet."""
    l_ref = 0.58e-6 / 0.2  # pitch 0.58 um mapped to 0.2 normalized
    lattice = _channel_lattice()
    return Scenario(
        name="waveguide-desk",
        omega_min=9.81e14 * l_ref / C0,
        omega_max=1.44e15 * l_ref / C0,
        n_int=160,
        k=6,
        t_final=14.0,
        source_xy=lattice.center(3, 3),
        probes=(lattice.center(5, 3),),
        shapes=(lattice,),
        l_ref=l_ref,
        reference="fdtd",
        m_default=1400,
        m_list=(600, 1000, 1400),
    ).validate()


def homogeneous():
    """Laboratory-scale free-space setup (not run by the test suite)."""
    n_int = 470
    omega_max = 2.0 * np.pi / (32.0 * 2.0 / n_int)
    omega_min = omega_max / _BAND_RATIO
    l_ref = omega_max * C0 / _OMEGA_HI
    d = 3.0 * 2.0 * np.pi / (0.5 * (omega_min + omega_max))
    return Scenario(
        name="homogeneous",
        omega_min=omega_min,
        omega_max=omega_max,
        n_int=n_int,
        k=5,
        t_final=2e-13 * C0 / l_ref,
        source_xy=(0.0, 0.0),
        probes=((d, 0.0),),  # snapped to a node like every point
        l_ref=l_ref,
        reference="analytic",
        m_default=2000,
        m_list=(500, 1000, 1500, 2000),
    ).validate()


def ring():
    """Laboratory-scale annulus setup (not run by the test suite): the
    band, grid and source of homogeneous()."""
    base = homogeneous()
    return dataclasses.replace(
        base,
        name="ring",
        t_final=4e-13 * C0 / base.l_ref,
        probes=((0.15, 0.15),),
        shapes=(Annulus(0.0, 0.0, 0.35, 0.55, 4.0),),
        reference="fdtd",
        m_default=4000,
        m_list=(1000, 2000, 3000, 4000),
    ).validate()


def waveguide():
    """Laboratory-scale lattice setup (not run by the test suite): the
    band, lattice and source of waveguide_desk()."""
    base = waveguide_desk()
    return dataclasses.replace(
        base,
        name="waveguide",
        n_int=470,
        k=5,
        t_final=2e-13 * C0 / base.l_ref,
        probes=(base.shapes[0].center(6, 3),),
        m_default=3000,
        m_list=(1000, 2000, 3000),
    ).validate()


PRESETS = {
    "homogeneous": homogeneous,
    "ring": ring,
    "waveguide": waveguide,
    "homogeneous-desk": homogeneous_desk,
    "ring-desk": ring_desk,
    "waveguide-desk": waveguide_desk,
}


def get_scenario(name):
    try:
        factory = PRESETS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown scenario {name!r}; known: {', '.join(sorted(PRESETS))}"
        ) from None
    return factory()


def _cfg_value(cp, section, key, convert):
    if not cp.has_option(section, key):
        raise ConfigurationError(f"config is missing [{section}] {key}")
    raw = cp.get(section, key)
    try:
        return convert(raw)
    except ValueError as exc:
        raise ConfigurationError(
            f"bad value for [{section}] {key}: {raw!r} ({exc})"
        ) from None


def _cfg_floats(raw, n, what):
    parts = [p for p in raw.replace(",", " ").split() if p]
    if len(parts) != n:
        raise ConfigurationError(f"{what} needs {n} numbers, got {raw!r}")
    try:
        return [float(p) for p in parts]
    except ValueError:
        raise ConfigurationError(f"{what}: {raw!r} is not numeric") from None


def _cfg_shape(key, raw):
    parts = raw.split()
    if not parts:
        raise ConfigurationError(f"[geometry] {key} is empty")
    kind, args = parts[0].lower(), parts[1:]
    if kind == "disk":
        v = _cfg_floats(" ".join(args), 4, f"[geometry] {key} (disk)")
        return Disk(*v)
    if kind == "annulus":
        v = _cfg_floats(" ".join(args), 5, f"[geometry] {key} (annulus)")
        return Annulus(*v)
    if kind == "lattice":
        removed = frozenset()
        if args and args[-1].startswith("removed="):
            cells = args.pop()[len("removed="):]
            try:
                removed = frozenset(
                    (int(i), int(j))
                    for i, j in (c.split(":") for c in cells.split(",") if c)
                )
            except ValueError:
                raise ConfigurationError(
                    f"[geometry] {key}: removed cells must look like i:j,i:j"
                ) from None
        if len(args) != 5:
            raise ConfigurationError(
                f"[geometry] {key} (lattice) needs pitch radius eps_r "
                f"rows cols, got {raw!r}"
            )
        # a non-numeric field raises ValueError, which _cfg_value reports
        pitch, radius, eps_r = (float(a) for a in args[:3])
        rows, cols = int(args[3]), int(args[4])
        return RodLattice(pitch, radius, eps_r, rows, cols, removed)
    raise ConfigurationError(
        f"[geometry] {key}: unknown shape kind {kind!r} "
        "(disk, annulus, lattice)"
    )


def _ints(raw):
    return tuple(int(p) for p in raw.replace(",", " ").split())


# (section, key, Scenario field, conversion) of the scalar config keys;
# a key the file leaves out takes the field's default, and a field
# without one is required
_CFG_KEYS = (
    ("band", "omega_min", "omega_min", float),
    ("band", "omega_max", "omega_max", float),
    ("band", "mu", "mu", float),
    ("band", "floor_db", "floor_db", float),
    ("discretization", "n_int", "n_int", int),
    ("discretization", "samples_per_period", "samples_per_period", int),
    ("solvers", "k", "k", int),
    ("solvers", "m", "m_default", int),
    ("solvers", "m_list", "m_list", _ints),
    ("scenario", "t_final", "t_final", float),
    ("scenario", "amplitude", "amplitude", float),
    ("scenario", "l_ref", "l_ref", float),
    ("scenario", "reference", "reference", str),
)


def load_config(path):
    """Scenario from a sectioned key-value file.

    Required: [band] omega_min/omega_max, [discretization] n_int,
    [solvers] k, [scenario] t_final, [source] x/y, and at least one
    probe in [probes].  Geometry entries are painted in key order.
    """
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                   interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            cp.read_file(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from None
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"malformed config {path}: {exc}") from None
    if cp.defaults():
        # configparser would copy its keys into every section
        raise ConfigurationError(
            f"config {path} has a [DEFAULT] section "
            f"({', '.join(cp.defaults())}); no wavecast key belongs there")

    defaults = {f.name: f.default for f in dataclasses.fields(Scenario)}
    fields = {}
    for section, key, field, convert in _CFG_KEYS:
        if cp.has_option(section, key) or defaults[field] is dataclasses.MISSING:
            fields[field] = _cfg_value(cp, section, key, convert)
    probes = []
    if cp.has_section("probes"):
        for key, raw in cp.items("probes"):
            probes.append(tuple(_cfg_floats(raw, 2, f"[probes] {key}")))
    if not probes:
        raise ConfigurationError("config defines no probes")
    shapes = []
    if cp.has_section("geometry"):
        for key in cp.options("geometry"):
            shapes.append(_cfg_value(cp, "geometry", key,
                                     lambda raw: _cfg_shape(key, raw)))
    return Scenario(
        name=cp.get("scenario", "name", fallback=Path(path).stem),
        source_xy=(_cfg_value(cp, "source", "x", float),
                   _cfg_value(cp, "source", "y", float)),
        probes=tuple(probes),
        shapes=tuple(shapes),
        **fields,
    ).validate()
