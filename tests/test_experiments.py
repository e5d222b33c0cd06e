"""Declarative experiment API: registries, specs, runner."""

import dataclasses
import hashlib
import json

import pytest

from repro.campaign import CampaignSpec, MixedCampaignSpec
from repro.errors import ConfigError
from repro.experiments import (
    ExperimentSpec,
    SCHEMES,
    WORKLOADS,
    load_spec_file,
)
from repro.experiments.registry import Registry, SchemeRegistry
from repro.faults import FaultPlan, FaultSpec
from repro.config import SsdSpec
from repro.harness.runner import GridRunner, grid_from_jobs
from repro.lifetime import LifetimeSpec
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
    # A key stays bound for the life of the process: nothing removes it.
    assert not hasattr(registry, "unregister")
    assert registry.get("custom") is _build


def test_plugin_scheme_visible_to_global_surface(isolated_registries):
    @SCHEMES.register("test_plugin")
    def _build(profile, *, mispredict_rate=0.0, rber_requirement=None):
        return make_scheme(profile, "baseline")

    assert "test_plugin" in SCHEMES.keys()
    scheme = make_scheme(TLC_3D_48L, "test_plugin")
    assert scheme.name == "baseline"
    spec = ExperimentSpec(scheme="test_plugin").validate()
    assert spec.resolve().scheme == "test_plugin"


def test_builtin_keys_refuse_replacement(isolated_registries):
    """Fingerprints hash a key, not what it resolves to, so a re-bound
    key would let a store serve the first entry's reports (the tweaked
    ``hm`` probe); no key re-binds, built in or plugin."""
    stock = WORKLOADS.resolve("hm")
    tweaked = dataclasses.replace(stock, read_ratio=0.05)
    with pytest.raises(ConfigError, match="already registered"):
        WORKLOADS.register("hm", tweaked)
    with pytest.raises(ConfigError, match="already registered"):
        WORKLOADS.add(tweaked)
    with pytest.raises(TypeError):  # there is no replace option
        WORKLOADS.register("hm", tweaked, replace=True)
    assert WORKLOADS.resolve("hm") is stock
    for registry in (SCHEMES, WORKLOADS):
        for key in registry.keys():
            entry = registry.get(key)
            with pytest.raises(ConfigError, match="already registered"):
                registry.register(key, object())
            assert registry.get(key) is entry
    # The probe's cell hashes as it did before built-ins were guarded.
    assert ExperimentSpec(
        scheme="baseline", pec=500, workload="hm", requests=120, seed=7
    ).fingerprint == (
        "a78bc3c3eb0ae983a6545256bbcdea2c51e311b4d20b8fc29c31c6627fe9b3b7"
    )
    # A variant registers under a new key, which then stays bound too.
    variant = dataclasses.replace(tweaked, abbr="hm.tweaked")
    WORKLOADS.add(variant)
    with pytest.raises(ConfigError, match="already registered"):
        WORKLOADS.register("hm.tweaked", stock)
    assert WORKLOADS.resolve("hm.tweaked") is variant
    factory = SCHEMES.get("baseline")
    SCHEMES.register("baseline.plugin", factory)
    with pytest.raises(ConfigError, match="already registered"):
        SCHEMES.register("baseline.plugin")(factory)
    assert SCHEMES.get("baseline.plugin") is factory


def test_scheme_rejecting_params_raises_config_error():
    with pytest.raises(ConfigError, match="rejected params"):
        SCHEMES.create("baseline", TLC_3D_48L, not_a_knob=1)


def test_registry_key_must_be_string():
    with pytest.raises(ConfigError):
        Registry("thing").register("", object())


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


def test_workload_registry_plugin_roundtrip(isolated_registries):
    custom = WorkloadProfile("synthetic", "unit_test", "unit.test",
                             0.5, 16.0, 10.0)
    WORKLOADS.add(custom)
    assert WORKLOADS.resolve("unit.test") is custom


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


@pytest.mark.parametrize("twin_first", [False, True])
def test_equal_ssd_specs_keep_their_own_fingerprints(twin_first):
    """``controller_overhead_us=3`` and ``3.0`` make equal, hash-equal
    specs that fingerprint apart, whichever renders first (values
    computed before spec text was memoized)."""
    spec = SsdSpec.small_test(seed=1)
    twin = dataclasses.replace(spec, controller_overhead_us=3)
    assert spec == twin and hash(spec) == hash(twin)
    order = (twin, spec) if twin_first else (spec, twin)
    keys = {id(ssd): ExperimentSpec(ssd=ssd).fingerprint for ssd in order}
    assert keys[id(spec)] == (
        "4a830dd8b96cd23cb53c8652180dbb166f354e634bf56f687ded82f15dfe5f96"
    )
    assert keys[id(twin)] == (
        "dc3c765aa9c6c2e613523ce44b97908be1e77381cdc34d37b6713f4feed39832"
    )


#: SHA-256 over the space-joined fingerprints of each job-spec class's
#: default spec (a mixed campaign needs members: one of each family),
#: computed before ``fingerprints()`` moved to ``JobSpec``.
DEFAULT_FINGERPRINTS = {
    "ExperimentSpec": (
        1, "67cecefcbffe18cdd331795c769e806de5fd9d0e9435cdaf36d4027116cd659b"
    ),
    "CampaignSpec": (
        45, "8094b4c4ac05930a69edb67870d92146a264d3339972bcee74311a64dd37a809"
    ),
    "LifetimeSpec": (
        5, "010c989f3634e360828240bf42a1c00b848bf6a985a61353f1bcc46161247990"
    ),
    "MixedCampaignSpec": (
        50, "2c91ed224f8628399c65827ca80a2d2623d2a8239b73cf1770ff4d561bfe5a09"
    ),
}


def test_job_specs_alone_have_fingerprints():
    specs = [ExperimentSpec(), CampaignSpec(), LifetimeSpec(),
             MixedCampaignSpec(members=(CampaignSpec(), LifetimeSpec()))]
    for spec in specs:
        fingerprints = spec.fingerprints()
        assert fingerprints == [job.fingerprint for job in spec.jobs()]
        digest = hashlib.sha256(" ".join(fingerprints).encode()).hexdigest()
        assert (len(fingerprints), digest) == (
            DEFAULT_FINGERPRINTS[type(spec).__name__]
        )
    # The fault plan classes share the codec, not the job protocol.
    for cls in (FaultPlan, FaultSpec):
        assert not hasattr(cls, "fingerprints")
        assert not hasattr(cls, "jobs")


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


@pytest.mark.parametrize(
    "cls, data, field",
    [
        (ExperimentSpec, {"pec": "high"}, "pec"),
        (ExperimentSpec, {"erase_suspension": 1}, "erase_suspension"),
        (ExperimentSpec, {"scheme_params": [["a", 1]]}, "scheme_params"),
        (CampaignSpec, {"requests": "10"}, "requests"),
        (CampaignSpec, {"schemes": "aero"}, "schemes"),
        (CampaignSpec, {"pec_points": [500, True]}, "pec_points"),
        (LifetimeSpec, {"block_count": "many"}, "block_count"),
        (LifetimeSpec, {"block_count": 8.7}, "block_count"),
        (LifetimeSpec, {"seed": "12"}, "seed"),
        (LifetimeSpec, {"requirement": "40"}, "requirement"),
        (LifetimeSpec, {"mispredict_rate": "x"}, "mispredict_rate"),
    ],
)
def test_from_dict_rejects_wrongly_typed_fields(cls, data, field):
    # One codec type-checks every JSON value against its field: no
    # crash in the constructor, no silent coercion.
    with pytest.raises(ConfigError, match=f"field '{field}' must be"):
        cls.from_dict(data)


def test_from_dict_loads_json_integers_into_float_fields():
    spec = LifetimeSpec.from_dict({"mispredict_rate": 0})
    assert spec.mispredict_rate == 0.0
    assert isinstance(spec.mispredict_rate, float)


# --- runner ------------------------------------------------------------------


def test_run_experiments_executes_and_caches(tmp_path):
    # A batch of specs is their resolved jobs through one GridRunner.
    specs = [
        ExperimentSpec(scheme=scheme, pec=500, workload="hm",
                       requests=150, seed=9)
        for scheme in ("baseline", "aero")
    ]
    jobs = [spec.resolve() for spec in specs]
    runner = GridRunner(cache=tmp_path)
    first = runner.execute_jobs(jobs)
    assert runner.stats.executed == 2 and runner.stats.cached == 0
    assert len(first) == 2
    second = runner.execute_jobs(jobs)
    assert runner.stats.executed == 0 and runner.stats.cached == 2
    # Cached replay is bit-identical.
    for a, b in zip(first, second):
        assert a.reads.mean_us == b.reads.mean_us
        assert a.makespan_us == b.makespan_us
    # The grid view indexes the same reports.
    assert grid_from_jobs(jobs, first).report("aero", 500, "hm") is first[1]


def test_run_experiments_shares_cache_with_grid_runner(tmp_path):
    # A `run` cell (ExperimentSpec.run) and a grid cell share one entry.
    spec = ExperimentSpec(scheme="baseline", pec=500, workload="hm",
                          requests=150, seed=9)
    spec.run(cache=tmp_path)
    runner = GridRunner(cache=tmp_path)
    runner.run(schemes=("baseline",), pec_points=(500,), workloads=("hm",),
               requests=150, seed=9)
    assert runner.stats.cached == 1 and runner.stats.executed == 0


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
