"""The frozen-record base (``errors.Record``) against frozen dataclasses.

Each record class gets a twin from ``dataclasses.make_dataclass(frozen=True)``
with the same fields, defaults, hidden fields and ``__post_init__``, and every
example must print, compare, hash, refuse assignment, copy and pickle as its
twin does.  ``dataclasses`` is used here only, as the oracle."""
import copy
import dataclasses
import importlib
import pickle
import sys
import types

import numpy as np
import pytest

from cryoion import trap
from cryoion.errors import Record
from cryoion.fitting import FitResult
from cryoion.metrology import KIND_FRACTIONAL
from cryoion.qubit import BeamProfile
from cryoion.series import TimeSeries
from cryoion.shielding import COPPER
from cryoion.species import CA40
from cryoion.units import METER

MODULES = ("coils", "fitting", "metrology", "qubit", "series", "shielding", "species",
           "thermal", "trap", "units")
RECORDS = {cls.__name__: cls for module in MODULES
           for cls in vars(importlib.import_module(f"cryoion.{module}")).values()
           if isinstance(cls, type) and issubclass(cls, Record)
           and cls.__module__ == f"cryoion.{module}"}

#: the fields each record leaves out of its repr: the arrays
HIDDEN = {"FitResult": {"covariance"}, "FringeInversion": {"clipped"},
          "ImageProfile": {"pixel_counts"}, "RabiSignal": {"times", "excitation"},
          "TimeSeries": {"samples"}, "TrapSolution": {"null_position", "axes"}}

LAYOUT, GEOMETRY = trap.five_wire_layout(52.7e-6)
SOLUTION = trap.secular_spectrum(LAYOUT, CA40)
SERIES = TimeSeries(t0=0.5, dt=0.25, samples=[1.0, -2.0, 3.5])
FIT = FitResult(params={"a": 1.5, "b": -0.25}, covariance=np.array([[0.5, 0.1], [0.1, 0.25]]),
                residual_rms=0.125, converged=True, iterations=4, reason="cost", model_calls=6)

#: (record class name, constructor keywords); every record has at least one
EXAMPLES = [
    ("CoilPair", dict(radius=0.195, separation=0.195, turns=50, current=1.5)),
    ("FitResult", {name: getattr(FIT, name) for name in RECORDS["FitResult"].__annotations__}),
    ("FrequencyRecord", dict(kind=KIND_FRACTIONAL, series=SERIES)),
    ("LinewidthFit", dict(center_hz=12.5, fwhm_hz=0.75, fit=FIT, unconstrained=False)),
    ("InterferometerCal", dict(wavelength=633e-9, volts_per_fringe=2.0)),
    ("InterferometerCal", dict(wavelength=633e-9, volts_per_fringe=2.0, quadrature_offset=0.1)),
    ("FringeInversion", dict(displacement=SERIES, clipped=np.array([False, True, False]),
                             clipped_fraction=1 / 3)),
    ("ExcursionStats", dict(max_abs=1e-9, peak_to_peak=1.5e-9, drift=-2e-10, window_s=0.5)),
    ("ImageProfile", dict(pixel_counts=[1.0, 4.0, 1.0])),
    ("ImageProfile", dict(pixel_counts=[[1.0, 2.0], [3.0, 4.0]], pixel_pitch=8e-6,
                          magnification=10.0)),
    ("ImageFit", dict(center_m=1e-6, width_m=2e-6, amplitude=300.0, offset=10.0, fit=FIT,
                      unconstrained=True)),
    ("PhononState", dict(nbar=0.4)),
    ("DriveParams", dict(rabi_frequency=2e5, lamb_dicke=0.07)),
    ("RabiSignal", dict(times=np.linspace(0.0, 1e-5, 4), excitation=np.full(4, 0.25))),
    ("RamseyFit", dict(t_1e=2e-3, contrast0=0.95, shape="gaussian", fit=FIT,
                       unconstrained=False)),
    ("BeamProfile", dict(waist=12e-6, center=-1e-6, peak_rabi=3e5)),
    ("WaistFit", dict(profile=BeamProfile(12e-6, -1e-6, 3e5), fit=FIT, unconstrained=False)),
    ("TimeSeries", dict(t0=0.0, dt=1e-3, samples=np.arange(5.0))),
    ("ConductorSpec", dict(sigma_293k=5.96e7)),
    ("ConductorSpec", dict(sigma_293k=5.96e7, rrr=100.0, mu_r=1.0)),
    ("ShieldLayer", dict(thickness=1e-3, conductor=COPPER, temperature=4.0)),
    ("AttenuationCurve", dict(freqs_hz=[1.0, 10.0, 100.0], atten_db=[-1.0, -20.0, -60.0],
                              floor_db=-120.0)),
    ("NoiseBudget", dict(b_max_t=3.6e-12, relative_stability=7.2e-9)),
    ("RegimeFit", dict(regime="skin", extrapolated_db=-110.0, extrapolate_to_hz=50.0,
                       skin_db=-110.0, contact_db=-90.0, skin_fit=FIT, contact_fit=FIT,
                       n_used=6, n_censored=1, ambiguous=False)),
    ("IonSpecies", dict(mass_kg=CA40.mass_kg, charge_c=CA40.charge_c, label="Ca40")),
    ("SupportSpec", dict(cross_section_m2=6e-5, length_m=0.12, t_cold_k=20.0, t_hot_k=80.0)),
    ("SupportSpec", dict(cross_section_m2=6e-5, length_m=0.12, t_cold_k=20.0, t_hot_k=80.0,
                         k_table=((10.0, 100.0), (1.0, 10.0)))),
    ("CoolantSpec", dict(name="LHe", density_kg_per_l=0.125, latent_heat_j_per_g=20.8)),
    ("Strip", dict(x_min=-1e-4, x_max=1e-4, y_min=-1e-3, y_max=1e-3, role=trap.ROLE_RF)),
    ("Strip", dict(x_min=2e-4, x_max=3e-4, y_min=0.0, y_max=1e-3, role=trap.ROLE_DC,
                   dc_index=np.int64(2))),
    ("ElectrodeLayout", dict(strips=list(LAYOUT.strips), rf_voltage=LAYOUT.rf_voltage,
                             rf_omega=LAYOUT.rf_omega)),
    ("TrapSolution", {name: getattr(SOLUTION, name)
                      for name in trap.TrapSolution.__annotations__}),
    ("TrapSolution", dict(null_position=SOLUTION.null_position, height=SOLUTION.height)),
    ("FiveWireGeometry", {name: getattr(GEOMETRY, name)
                          for name in trap.FiveWireGeometry.__annotations__}),
    ("Quantity", dict(value=2, dims=METER)),
    ("Quantity", dict(value=-0.5)),
    ("Constants", dict()),
    ("Constants", dict(mu0=1.25e-6)),
]


TWINS = types.ModuleType("record_twins")


def make_twin(cls):
    """A frozen dataclass with the fields, defaults, hidden fields and
    ``__post_init__`` of ``cls``, in a module of its own so that it pickles."""
    fields = []
    for name, annotation in cls.__annotations__.items():
        default = vars(cls).get(name, dataclasses.MISSING)
        shown = name not in HIDDEN.get(cls.__name__, ())
        fields.append((name, annotation, dataclasses.field(default=default, repr=shown)))
    namespace = {"__post_init__": cls.__post_init__} if "__post_init__" in vars(cls) else {}
    twin = dataclasses.make_dataclass(cls.__name__, fields, frozen=True, namespace=namespace)
    twin.__module__ = TWINS.__name__
    return twin


@pytest.fixture(scope="module", autouse=True)
def twins_module():
    sys.modules[TWINS.__name__] = TWINS
    for name, cls in RECORDS.items():
        setattr(TWINS, name, make_twin(cls))
    yield
    del sys.modules[TWINS.__name__]


def outcome(call):
    """What ``call()`` returns, or the type of what it raises."""
    try:
        return "returns", call()
    except Exception as exc:  # the comparison is the point: any type must match
        return "raises", type(exc)


def test_every_record_has_an_example_and_no_dataclass_is_left():
    assert len(RECORDS) == 30
    assert {name for name, _ in EXAMPLES} == set(RECORDS)
    for cls in RECORDS.values():
        assert not dataclasses.is_dataclass(cls)
        assert cls._fields == tuple(cls.__annotations__)
        assert set(cls._fields) - set(cls._shown) == HIDDEN.get(cls.__name__, set())


@pytest.mark.parametrize("name, kwargs", EXAMPLES, ids=[name for name, _ in EXAMPLES])
def test_record_behaves_as_its_frozen_dataclass_twin(name, kwargs):
    cls, twin = RECORDS[name], getattr(TWINS, name)
    ours, theirs = cls(**copy.deepcopy(kwargs)), twin(**copy.deepcopy(kwargs))
    assert type(ours) is cls
    assert repr(ours) == repr(theirs)
    values = [getattr(ours, field) for field in cls._fields]
    assert repr(cls(*values)) == repr(ours)
    assert outcome(lambda: hash(ours)) == outcome(lambda: hash(theirs))

    # == on the same object, on a deep copy (distinct arrays make it raise), and
    # between classes; a deep copy has the same repr
    deep_ours, deep_theirs = copy.deepcopy(ours), copy.deepcopy(theirs)
    assert outcome(lambda: ours == ours) == outcome(lambda: theirs == theirs) == ("returns", True)
    assert outcome(lambda: ours == deep_ours) == outcome(lambda: theirs == deep_theirs)
    assert outcome(lambda: ours != deep_ours) == outcome(lambda: theirs != deep_theirs)
    assert (ours == theirs, ours != theirs, ours == values) == (False, True, False)
    clone = type(name, (Record,), {"__annotations__": dict(cls.__annotations__)})(*values)
    assert (ours == clone, ours != clone) == (False, True)  # equal fields, another class
    assert repr(deep_ours) == repr(ours)

    # a shallow copy and a pickle round trip keep the class and every field
    pickled = [pickle.loads(pickle.dumps(obj)) for obj in (ours, theirs)]
    for clone, twin_clone in ((copy.copy(ours), copy.copy(theirs)), pickled):
        assert type(clone) is cls and type(twin_clone) is twin
        assert repr(clone) == repr(ours) == repr(twin_clone)
        assert outcome(lambda: clone == ours) == outcome(lambda: twin_clone == theirs)
    shallow = copy.copy(ours)
    assert all(getattr(shallow, field) is getattr(ours, field) for field in cls._fields)

    # frozen: any assignment or deletion raises an AttributeError and changes nothing
    for attr in (*cls._fields, "not_a_field"):
        for change in (lambda obj: setattr(obj, attr, 1.0), lambda obj: delattr(obj, attr)):
            kind, ours_raised = outcome(lambda: change(ours))
            twin_kind, theirs_raised = outcome(lambda: change(theirs))
            assert kind == twin_kind == "raises"
            assert issubclass(theirs_raised, AttributeError)
            assert ours_raised is AttributeError
    assert repr(ours) == repr(theirs)
    assert all(getattr(ours, field) is value for field, value in zip(cls._fields, values))
    object.__setattr__(shallow, cls._fields[0], "set past the freeze")
    assert getattr(shallow, cls._fields[0]) == "set past the freeze"


@pytest.mark.parametrize("name, kwargs", EXAMPLES, ids=[name for name, _ in EXAMPLES])
def test_wrong_arguments_are_type_errors_as_for_the_twin(name, kwargs):
    cls, twin = RECORDS[name], getattr(TWINS, name)
    values = [getattr(cls(**kwargs), field) for field in cls._fields]
    calls = [((), {"not_a_field": 1.0, **kwargs}),  # an extra keyword
             ((*values, 1.0), {}),  # one positional argument too many
             ((values[0],), {cls._fields[0]: values[0]})]  # a field given twice
    if len(cls._defaults) < len(cls._fields):
        calls.append(((), {}))  # required fields missing
        required = [f for f in cls._fields if f not in cls._defaults]
        calls.append(((), {k: v for k, v in zip(cls._fields, values) if k != required[-1]}))
        calls.append(((), {k: v for k, v in zip(cls._fields, values) if k != required[-1]}
                      | {"not_a_field": 1.0}))
    for args, kw in calls:
        assert outcome(lambda: cls(*args, **kw)) == outcome(lambda: twin(*args, **kw)) == \
            ("raises", TypeError)


def test_layout_corner_table_is_built_once_outside_the_fields(monkeypatch):
    calls = []
    corners = trap._corners
    monkeypatch.setattr(trap, "_corners", lambda *a: calls.append(a) or corners(*a))
    layout = trap.ElectrodeLayout(strips=LAYOUT.strips, rf_voltage=LAYOUT.rf_voltage,
                                  rf_omega=LAYOUT.rf_omega)
    before = (repr(layout), hash(layout))
    first = layout.rf_corners
    assert layout.rf_corners is first and len(calls) == 1
    assert (repr(layout), hash(layout)) == before
    assert layout == LAYOUT and copy.copy(layout).rf_corners is first
