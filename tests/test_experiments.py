"""Declarative experiment API: registries, specs, builder, runner."""

import json

import pytest

from repro.errors import ConfigError
from repro.experiments import (
    Experiment,
    ExperimentSpec,
    SCHEMES,
    WORKLOADS,
    load_spec_file,
    run_experiments,
)
from repro.experiments.registry import Registry, SchemeRegistry
from repro.config import SsdSpec
from repro.harness.runner import GridRunner
from repro.nand.chip_types import TLC_3D_48L
from repro.schemes import ALL_SCHEME_KEYS, SCHEME_KEYS, make_scheme
from repro.workloads.profiles import ALL_PROFILES, WorkloadProfile


# --- registries --------------------------------------------------------------


def test_all_six_schemes_registered():
    assert set(SCHEMES.keys()) == {
        "baseline", "iispe", "dpes", "mispe", "aero_cons", "aero",
    }


def test_scheme_keys_drift_fixed():
    # mispe is constructible AND listed; the paper's comparison tuple
    # stays the historical five.
    assert "mispe" in ALL_SCHEME_KEYS
    assert SCHEME_KEYS == ("baseline", "iispe", "dpes", "aero_cons", "aero")
    assert set(SCHEME_KEYS) < set(ALL_SCHEME_KEYS)


def test_unknown_scheme_error_lists_valid_keys():
    with pytest.raises(ConfigError) as excinfo:
        SCHEMES.get("bogus")
    message = str(excinfo.value)
    for key in ALL_SCHEME_KEYS:
        assert key in message


def test_unknown_workload_error_lists_valid_keys():
    with pytest.raises(ConfigError) as excinfo:
        WORKLOADS.resolve("bogus")
    message = str(excinfo.value)
    for profile in ALL_PROFILES:
        assert profile.abbr in message


def test_every_profile_resolves_through_registry():
    for profile in ALL_PROFILES:
        assert WORKLOADS.resolve(profile.abbr) is profile


def test_make_scheme_shim_equals_registry():
    shim = make_scheme(TLC_3D_48L, "aero")
    direct = SCHEMES.create(
        "aero", TLC_3D_48L, mispredict_rate=0.0, rber_requirement=None
    )
    assert type(shim) is type(direct)
    assert shim.name == direct.name


def test_register_decorator_and_unregister():
    registry = SchemeRegistry("scheme")

    @registry.register("custom")
    def _build(profile, *, mispredict_rate=0.0, rber_requirement=None):
        return ("custom-scheme", profile)

    assert "custom" in registry
    assert registry.create("custom", TLC_3D_48L) == ("custom-scheme", TLC_3D_48L)
    with pytest.raises(ConfigError, match="already registered"):
        registry.register("custom", _build)
    registry.register("custom", _build, replace=True)
    registry.unregister("custom")
    assert "custom" not in registry


def test_plugin_scheme_visible_to_global_surface():
    @SCHEMES.register("test_plugin")
    def _build(profile, *, mispredict_rate=0.0, rber_requirement=None):
        return make_scheme(profile, "baseline")

    try:
        assert "test_plugin" in SCHEMES.keys()
        scheme = make_scheme(TLC_3D_48L, "test_plugin")
        assert scheme.name == "baseline"
        # The fluent builder grows an entry point automatically.
        spec = Experiment.test_plugin().spec()
        assert spec.scheme == "test_plugin"
    finally:
        SCHEMES.unregister("test_plugin")


def test_scheme_rejecting_params_raises_config_error():
    with pytest.raises(ConfigError, match="rejected params"):
        SCHEMES.create("baseline", TLC_3D_48L, not_a_knob=1)


def test_registry_key_must_be_string():
    with pytest.raises(ConfigError):
        Registry("thing").register("", object())


def test_failed_populate_import_is_not_sticky():
    registry = Registry("thing", populate=("no.such.module",))
    with pytest.raises(ModuleNotFoundError):
        registry.keys()
    # The failure must re-raise on retry, not silently read as empty.
    with pytest.raises(ModuleNotFoundError):
        registry.keys()


def test_factory_internal_type_errors_propagate():
    registry = SchemeRegistry("scheme")

    @registry.register("buggy")
    def _build(profile, *, mispredict_rate=0.0, rber_requirement=None):
        return "x" + 1  # a factory bug, not a params problem

    with pytest.raises(TypeError):
        registry.create("buggy", TLC_3D_48L)


def test_null_and_integer_default_params_share_fingerprint():
    plain = ExperimentSpec(scheme="aero", pec=500, workload="hm", requests=100)
    assert ExperimentSpec(
        scheme="aero", pec=500, workload="hm", requests=100,
        scheme_params={"rber_requirement": None},
    ).fingerprint == plain.fingerprint
    assert ExperimentSpec(
        scheme="aero", pec=500, workload="hm", requests=100,
        scheme_params={"mispredict_rate": 0},
    ).fingerprint == plain.fingerprint


def test_workload_registry_plugin_roundtrip():
    custom = WorkloadProfile("synthetic", "unit_test", "unit.test",
                             0.5, 16.0, 10.0)
    WORKLOADS.add(custom)
    try:
        assert WORKLOADS.resolve("unit.test") is custom
    finally:
        WORKLOADS.unregister("unit.test")


# --- ExperimentSpec ----------------------------------------------------------


def test_spec_json_roundtrip_identity():
    spec = ExperimentSpec(
        scheme="aero",
        pec=2500,
        workload="ali.A",
        requests=5000,
        seed=123,
        scheme_params={"mispredict_rate": 0.05},
    )
    rebuilt = ExperimentSpec.from_json(spec.to_json())
    assert rebuilt == spec
    assert rebuilt.fingerprint == spec.fingerprint


def test_spec_roundtrip_with_explicit_ssd():
    spec = ExperimentSpec(ssd=SsdSpec.bench(seed=9), workload="hm")
    rebuilt = ExperimentSpec.from_dict(json.loads(spec.to_json()))
    assert rebuilt.ssd == spec.ssd
    assert rebuilt.fingerprint == spec.fingerprint


def test_spec_serializes_equal_but_not_identical_profile():
    # A deepcopied/pickled SsdSpec carries a profile object that is
    # equal to the built-in but not the same instance; serialization
    # must compare by value, not identity.
    import copy

    spec = ExperimentSpec(ssd=copy.deepcopy(SsdSpec.bench(seed=9)))
    rebuilt = ExperimentSpec.from_dict(spec.to_dict())
    assert rebuilt.fingerprint == spec.fingerprint


def test_spec_rejects_truly_custom_profile():
    import dataclasses

    custom = dataclasses.replace(TLC_3D_48L, gamma=123)
    with pytest.raises(ConfigError, match="shadows a built-in"):
        ExperimentSpec(ssd=SsdSpec(profile=custom)).to_dict()


def test_spec_fingerprint_matches_grid_runner_plan():
    spec = ExperimentSpec(scheme="baseline", pec=500, workload="hm",
                          requests=300, seed=11)
    job = GridRunner().plan(
        ["baseline"], [500], ["hm"], 300, None, True, 11
    )[0]
    assert spec.resolve() == job
    assert spec.fingerprint == job.fingerprint


def test_spec_fingerprint_sensitivity():
    base = ExperimentSpec(scheme="aero", pec=500, workload="hm", requests=100)
    assert base.fingerprint == ExperimentSpec(
        scheme="aero", pec=500, workload="hm", requests=100
    ).fingerprint
    for other in (
        ExperimentSpec(scheme="baseline", pec=500, workload="hm", requests=100),
        ExperimentSpec(scheme="aero", pec=2500, workload="hm", requests=100),
        ExperimentSpec(scheme="aero", pec=500, workload="usr", requests=100),
        ExperimentSpec(scheme="aero", pec=500, workload="hm", requests=101),
        ExperimentSpec(scheme="aero", pec=500, workload="hm", requests=100,
                       seed=1),
        ExperimentSpec(scheme="aero", pec=500, workload="hm", requests=100,
                       erase_suspension=False),
        ExperimentSpec(scheme="aero", pec=500, workload="hm", requests=100,
                       scheme_params={"mispredict_rate": 0.1}),
        ExperimentSpec(scheme="aero", pec=500, workload="hm", requests=100,
                       scheme_params={"rber_requirement": 40}),
    ):
        assert other.fingerprint != base.fingerprint


def test_scheme_params_tuple_values_roundtrip_fingerprint_stably():
    # JSON turns tuples into lists; the spec canonicalizes up front so
    # a save/load cycle cannot change the fingerprint.
    spec = ExperimentSpec(scheme_params={"levels": (1, 2, 3)})
    assert spec.params == {"levels": [1, 2, 3]}
    rebuilt = ExperimentSpec.from_json(spec.to_json())
    assert rebuilt == spec
    assert rebuilt.fingerprint == spec.fingerprint


def test_scheme_params_reject_non_json_values():
    with pytest.raises(ConfigError, match="non-JSON-serializable"):
        ExperimentSpec(scheme_params={"bad": {1, 2}})


def test_scheme_params_normalized_and_order_insensitive():
    a = ExperimentSpec(scheme_params={"b": 2, "a": 1})
    b = ExperimentSpec(scheme_params=(("a", 1), ("b", 2)))
    assert a == b
    assert a.params == {"a": 1, "b": 2}
    assert hash(a) == hash(b)


def test_spec_validation_errors():
    with pytest.raises(ConfigError):
        ExperimentSpec(requests=0)
    with pytest.raises(ConfigError):
        ExperimentSpec(pec=-1)
    with pytest.raises(ConfigError, match="unknown scheme"):
        ExperimentSpec(scheme="bogus").resolve()
    with pytest.raises(ConfigError, match="unknown workload"):
        ExperimentSpec(workload="bogus").resolve()


def test_from_dict_rejects_unknown_fields_and_versions():
    with pytest.raises(ConfigError, match="unknown experiment spec fields"):
        ExperimentSpec.from_dict({"scheme": "aero", "pce": 500})
    with pytest.raises(ConfigError, match="version"):
        ExperimentSpec.from_dict({"version": 99})
    with pytest.raises(ConfigError):
        ExperimentSpec.from_dict("not a dict")


def test_minimal_dict_uses_defaults():
    spec = ExperimentSpec.from_dict({"scheme": "baseline"})
    assert spec == ExperimentSpec(scheme="baseline")


# --- fluent builder ----------------------------------------------------------


def test_builder_equals_kwargs():
    built = (
        Experiment.aero()
        .at_pec(2500)
        .workload("ali.A")
        .requests(5000)
        .spec()
    )
    assert built == ExperimentSpec(
        scheme="aero", pec=2500, workload="ali.A", requests=5000
    )


def test_builder_full_surface():
    ssd = SsdSpec.small_test(seed=3)
    built = (
        Experiment.aero_cons(mispredict_rate=0.1)
        .at_pec(500)
        .workload("hm")
        .requests(800)
        .seed(42)
        .ssd(ssd)
        .suspension(False)
        .params(rber_requirement=50)
        .spec()
    )
    assert built == ExperimentSpec(
        scheme="aero_cons",
        pec=500,
        workload="hm",
        requests=800,
        seed=42,
        ssd=ssd,
        erase_suspension=False,
        scheme_params={"mispredict_rate": 0.1, "rber_requirement": 50},
    )


def test_builder_steps_are_immutable():
    base = Experiment.baseline()
    assert base.at_pec(500) is not base
    assert base.spec().pec == ExperimentSpec().pec


def test_builder_unknown_scheme_attr():
    with pytest.raises(AttributeError, match="registered schemes"):
        Experiment.not_a_scheme
    with pytest.raises(ConfigError, match="unknown workload"):
        Experiment.aero().workload("bogus")


# --- runner ------------------------------------------------------------------


def test_run_experiments_executes_and_caches(tmp_path):
    specs = [
        ExperimentSpec(scheme=scheme, pec=500, workload="hm",
                       requests=150, seed=9)
        for scheme in ("baseline", "aero")
    ]
    first = run_experiments(specs, cache=tmp_path)
    assert first.stats.executed == 2 and first.stats.cached == 0
    assert len(first.reports) == 2
    second = run_experiments(specs, cache=tmp_path)
    assert second.stats.executed == 0 and second.stats.cached == 2
    # Cached replay is bit-identical.
    for a, b in zip(first.reports, second.reports):
        assert a.reads.mean_us == b.reads.mean_us
        assert a.makespan_us == b.makespan_us
    # The grid view indexes the same reports.
    assert first.grid.report("aero", 500, "hm") is first.reports[1]


def test_run_experiments_shares_cache_with_grid_runner(tmp_path):
    spec = ExperimentSpec(scheme="baseline", pec=500, workload="hm",
                          requests=150, seed=9)
    run_experiments([spec], cache=tmp_path)
    runner = GridRunner(cache=tmp_path)
    runner.run(schemes=("baseline",), pec_points=(500,), workloads=("hm",),
               requests=150, seed=9)
    assert runner.stats.cached == 1 and runner.stats.executed == 0


def test_run_experiments_rejects_empty():
    with pytest.raises(ConfigError):
        run_experiments([])


def test_spec_run_convenience(tmp_path):
    report = ExperimentSpec(
        scheme="baseline", pec=500, workload="hm", requests=150, seed=9
    ).run(cache=tmp_path)
    assert report.requests_completed == 150


# --- spec files --------------------------------------------------------------


def test_load_spec_file_variants(tmp_path):
    spec = ExperimentSpec(scheme="dpes", pec=500, workload="stg", requests=100)
    single = tmp_path / "one.json"
    single.write_text(spec.to_json())
    assert load_spec_file(single) == [spec]

    many = tmp_path / "many.json"
    many.write_text(json.dumps([spec.to_dict(), spec.to_dict()]))
    assert load_spec_file(many) == [spec, spec]

    wrapped = tmp_path / "wrapped.json"
    wrapped.write_text(json.dumps({"experiments": [spec.to_dict()]}))
    assert load_spec_file(wrapped) == [spec]

    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_spec_file(bad)
    with pytest.raises(ConfigError, match="cannot read"):
        load_spec_file(tmp_path / "missing.json")
