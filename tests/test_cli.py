"""``python -m repro`` CLI and the store ls/compact tooling."""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.campaign import ShardedResultStore
from repro.campaign.orchestrator import format_duration
from repro.experiments import ExperimentSpec
from repro.experiments.cli import _parse_age, main
from repro.harness.cache import CACHE_VERSION

RUN_ARGS = [
    "run", "--scheme", "aero", "--pec", "2500", "--workload", "ali.A",
    "--requests", "120", "--seed", "5",
]


@pytest.fixture(scope="module")
def warm_cache(tmp_path_factory):
    """One executed CLI run with its store directory."""
    store = str(tmp_path_factory.mktemp("cli-store"))
    assert main(RUN_ARGS + ["--store", store]) == 0
    return store


def test_run_executes_then_caches(warm_cache, capsys):
    capsys.readouterr()
    assert main(RUN_ARGS + ["--store", warm_cache]) == 0
    out = capsys.readouterr().out
    assert "aero" in out and "p99 read" in out
    assert "served from cache: 1" in out
    assert "cells executed: 0" in out


@pytest.mark.parametrize(
    "argv",
    [
        RUN_ARGS + ["--cache-dir", "unused"],
        ["campaign", "run", "--store", "unused", "--process-workers", "2"],
        ["compare", "--spec", "unused.json"],
        ["run", "--spec", "unused.json"],  # a prefix of --spec-file
    ],
)
def test_every_option_has_one_spelling(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_cache_ls_sees_the_entry(warm_cache, capsys):
    assert main(["campaign", "ls", "--store", warm_cache]) == 0
    out = capsys.readouterr().out
    assert "aero pec=2500 ali.A requests=120" in out
    assert "1 entries" in out


def test_cache_ls_json(warm_cache, capsys):
    assert main(["campaign", "ls", "--store", warm_cache, "--json"]) == 0
    entries = json.loads(capsys.readouterr().out)
    assert len(entries) == 1
    assert entries[0]["meta"]["scheme"] == "aero"
    assert not entries[0]["corrupt"]


def test_run_json_output(warm_cache, capsys):
    assert main(RUN_ARGS + ["--store", warm_cache, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["spec"]["scheme"] == "aero"
    assert payload["report"]["requests_completed"] == 120
    spec = ExperimentSpec.from_dict(payload["spec"])
    assert spec.fingerprint == payload["fingerprint"]


def test_run_param_keys_the_cell_like_the_spec(capsys):
    """``--param`` values decode as JSON into the spec's
    ``scheme_params``, so the CLI files the cell under the key the
    equivalent ``ExperimentSpec`` computes."""
    spec = ExperimentSpec(scheme="aero", pec=500, workload="hm",
                          requests=40, seed=5,
                          scheme_params={"rber_requirement": 40})
    assert main(["run", "--scheme", "aero", "--pec", "500", "--workload",
                 "hm", "--requests", "40", "--seed", "5",
                 "--param", "rber_requirement=40", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["spec"]["scheme_params"] == {"rber_requirement": 40}
    assert ExperimentSpec.from_dict(payload["spec"]) == spec
    assert payload["fingerprint"] == spec.fingerprint


def test_run_from_spec_file(tmp_path, capsys):
    spec = ExperimentSpec(scheme="baseline", pec=500, workload="hm",
                          requests=100, seed=3)
    path = tmp_path / "spec.json"
    path.write_text(spec.to_json())
    assert main(["run", "--spec-file", str(path)]) == 0
    out = capsys.readouterr().out
    assert "baseline" in out and "hm" in out


def test_run_spec_file_rejects_conflicting_flags(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(ExperimentSpec(requests=100).to_json())
    assert main(["run", "--spec-file", str(path), "--requests", "50"]) == 2
    err = capsys.readouterr().err
    assert "--spec-file" in err and "--requests" in err


def test_spec_flags_build_the_default_specs():
    # With no spec flags, each command builds its spec class's defaults:
    # the CLI keeps no copy of them.
    from repro.campaign import CampaignSpec
    from repro.experiments.cli import _spec_from_args, build_parser
    from repro.lifetime import LifetimeSpec

    parser = build_parser()
    for argv, expected in (
        (["run"], [ExperimentSpec()]),
        (["grid"], CampaignSpec()),
        (["compare"], LifetimeSpec()),
        (["campaign", "run", "--store", "unused"], CampaignSpec()),
    ):
        assert _spec_from_args(parser.parse_args(argv)) == expected, argv


@pytest.mark.parametrize(
    "argv, flag, data",
    [
        (["run", "--requests", "1200"], "--requests", {"requests": 100}),
        (["run", "--ssd", "default"], "--ssd", {"requests": 100}),
        (["compare", "--blocks", "48"], "--blocks",
         {"schemes": ["baseline"], "block_count": 4, "step": 500}),
    ],
)
def test_spec_flag_at_its_default_value_conflicts(tmp_path, capsys, argv,
                                                  flag, data):
    # Spec flags default to None, so a flag spelled with its spec
    # field's default value is still given, and conflicts with a file.
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(data))
    assert main(argv + ["--spec-file", str(path)]) == 2
    err = capsys.readouterr().err
    assert "--spec-file" in err and flag in err


@pytest.mark.parametrize(
    "argv, data, field",
    [
        (["compare", "--spec-file"], {"block_count": "many"}, "block_count"),
        (["run", "--spec-file"], {"scheme": "aero", "pec": "high"}, "pec"),
        (["campaign", "run", "--store", "s", "--spec-file"],
         {"requests": "10"}, "requests"),
        (["campaign", "status", "--store", ".", "--spec-file"],
         {"family": "mixed", "members": [
             {"family": "lifetime", "mispredict_rate": "x"}]},
         "mispredict_rate"),
        (["compare", "--spec-file"], {"schemes": "aero"}, "schemes"),
    ],
)
def test_wrongly_typed_spec_field_exits_2(tmp_path, capsys, monkeypatch,
                                          argv, data, field):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(data))
    assert main(argv + [str(path)]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and repr(field) in line


def test_cache_commands_do_not_create_directories(tmp_path, capsys):
    missing = tmp_path / "typo"
    assert main(["campaign", "ls", "--store", str(missing)]) == 2
    assert "no such store directory" in capsys.readouterr().err
    assert main(["campaign", "compact", "--store", str(missing),
                 "--max-entries", "0"]) == 2
    assert not missing.exists()


@pytest.mark.parametrize("command", ["status", "ls", "compact"])
def test_store_commands_refuse_a_directory_that_is_not_a_store(
    tmp_path, capsys, command
):
    (tmp_path / "notes.txt").write_text("not a store")
    assert main(["campaign", command, "--store", str(tmp_path)]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line == f"error: not a result store: {tmp_path}"
    assert [path.name for path in tmp_path.iterdir()] == ["notes.txt"]


def test_store_commands_reject_a_database_that_is_not_sqlite(
    tmp_path, capsys
):
    (tmp_path / "results.sqlite").write_bytes(b"not a database " * 10)
    assert main(["campaign", "status", "--store", str(tmp_path)]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and "is not a store" in line


def test_unknown_scheme_exits_2(capsys):
    assert main(["run", "--scheme", "bogus", "--requests", "10"]) == 2
    err = capsys.readouterr().err
    assert "unknown scheme 'bogus'" in err and "aero" in err


def test_unknown_workload_exits_2(capsys):
    assert main(["run", "--workload", "bogus", "--requests", "10"]) == 2
    assert "unknown workload" in capsys.readouterr().err


def test_grid_smoke(tmp_path, capsys):
    args = [
        "grid", "--schemes", "baseline,aero", "--pecs", "500",
        "--workloads", "hm", "--requests", "100", "--seed", "7",
        "--store", str(tmp_path),
    ]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "geomean" in out and "1.000" in out
    assert main(args) == 0  # warm re-run
    assert "served from cache: 2" in capsys.readouterr().out


def test_grid_without_literal_baseline_scheme(tmp_path, capsys):
    # The first scheme column is the normalization baseline; "baseline"
    # itself need not be in the list.
    assert main([
        "grid", "--schemes", "aero_cons,aero", "--pecs", "500",
        "--workloads", "hm", "--requests", "80", "--seed", "7",
        "--store", str(tmp_path),
    ]) == 0
    out = capsys.readouterr().out
    assert "aero_cons" in out and "geomean" in out


def test_grid_rejects_empty_axis(capsys):
    assert main(["grid", "--schemes", ","]) == 2
    assert "at least one of schemes" in capsys.readouterr().err


@pytest.mark.parametrize("percentile", ["150", "-1", "nan", "p99"])
def test_grid_rejects_a_percentile_outside_0_100_before_any_cell(
    tmp_path, capsys, percentile
):
    store = tmp_path / "store"
    with pytest.raises(SystemExit) as exit_info:
        main(["grid", "--schemes", "baseline", "--pecs", "500",
              "--workloads", "hm", "--requests", "80",
              "--percentile", percentile, "--store", str(store)])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert "percentile must be a number within [0, 100]" in captured.err
    assert captured.out == ""
    assert not store.exists()  # no store opened, so no cell ran


def test_spec_commands_print_one_footer(tmp_path, capsys):
    store = str(tmp_path / "store")
    commands = [
        (RUN_ARGS, "cells", 1),
        (["grid", "--schemes", "baseline,aero", "--pecs", "500",
          "--workloads", "hm", "--requests", "80", "--seed", "7"], "cells", 2),
        (["compare", "--schemes", "baseline,aero", "--blocks", "4",
          "--step", "500", "--max-pec", "2000"], "curves", 2),
    ]
    for argv, noun, count in commands:
        for executed, cached in ((count, 0), (0, count)):  # fresh, warm
            assert main(argv + ["--store", store]) == 0
            [footer] = [
                line for line in capsys.readouterr().out.splitlines()
                if "served from cache" in line
            ]
            assert footer == (
                f"  {noun} executed: {executed}, served from cache: {cached}"
            ), argv
    # compare prints the footer without a store too.
    assert main(commands[2][0]) == 0
    assert "  curves executed: 2, served from cache: 0" in (
        capsys.readouterr().out.splitlines()
    )


def test_compare_smoke(capsys):
    assert main([
        "compare", "--schemes", "baseline,aero", "--blocks", "4",
        "--step", "500", "--max-pec", "12000",
    ]) == 0
    out = capsys.readouterr().out
    assert "Lifetime comparison" in out and "vs baseline" in out


COMPARE_ARGS = [
    "compare", "--schemes", "baseline,aero", "--blocks", "4",
    "--step", "500", "--max-pec", "2000",
]


def test_compare_fail_after_then_resume(tmp_path, capsys):
    store = str(tmp_path / "store")
    # the first curve is durable before the injected crash: exit 2
    assert main(COMPARE_ARGS + ["--store", store, "--fail-after", "1"]) == 2
    [line] = [
        line for line in capsys.readouterr().err.splitlines()
        if line.startswith("error: ")
    ]
    assert line.startswith("error: cell 0 (")  # the PoisonCellError
    assert "injected crash_after_put" in line
    assert ShardedResultStore(store).stats().keys == 1
    assert main(COMPARE_ARGS + ["--store", store]) == 0
    assert "curves executed: 1, served from cache: 1" in (
        capsys.readouterr().out
    )
    assert main(COMPARE_ARGS + ["--store", store, "--fail-after", "0"]) == 2
    assert "--fail-after must be >= 1" in capsys.readouterr().err
    assert main(COMPARE_ARGS + ["--fail-after", "1"]) == 2
    assert "--fail-after needs --store" in capsys.readouterr().err


def test_compare_engine_and_executor_flags(capsys):
    assert main([
        "compare", "--schemes", "baseline,aero", "--blocks", "4",
        "--step", "500", "--engine", "kernel", "--workers", "2",
    ]) == 0
    out = capsys.readouterr().out
    assert "Lifetime comparison" in out


def test_bench_smoke_writes_artifact(tmp_path, capsys):
    artifact = tmp_path / "BENCH_smoke.json"
    assert main([
        "bench", "--smoke", "--out", str(artifact),
        "--blocks", "8", "--step", "500", "--repeats", "1",
        "--schemes", "baseline,aero", "--grid-requests", "60",
        "--grid-repeats", "1",
    ]) == 0
    out = capsys.readouterr().out
    assert "lifetime sweep" in out and "grid cell" in out
    payload = json.loads(artifact.read_text())
    assert payload["version"] == 1
    assert payload["label"] == "BENCH_smoke"
    sweep = payload["lifetime_sweep"]
    assert sweep["speedup"] > 0
    assert sweep["cold"] is True
    assert set(sweep["per_scheme"]) == {"baseline", "aero"}
    cell = payload["grid_cell"]
    assert cell["engine_object"]["median_s"] > 0
    assert cell["engine_kernel"]["median_s"] > 0
    assert cell["speedup"] > 0
    assert cell["cold"] is True
    assert payload["config"]["smoke"] is True


def test_bench_quartiles_interpolate_within_the_sample():
    """Quartiles are NumPy's default (inclusive) percentiles: never
    the sample's extremes for three times, never outside it for two."""
    import repro.harness.bench as bench

    assert bench._quartiles([2.321, 3.027, 2.938]) == [2.6295, 2.9825]
    assert bench._quartiles([1.0, 2.0]) == [1.25, 1.75]
    assert bench._quartiles_us([1000, 3000]) == {
        "p25": 1.5, "p50": 2.0, "p75": 2.5,
    }


def test_bench_grid_cell_times_cold_cells(monkeypatch):
    """Every timed repeat misses the point shares: its engine builds the
    trace, and on the kernel engine runs the fill and the replay's FTL
    pass, exactly once."""
    import repro.harness.bench as bench
    import repro.kernels.cell as kernel_cell
    from repro.workloads.synthetic import SyntheticTraceGenerator

    calls = []
    for owner, name in (
        (SyntheticTraceGenerator, "generate"),
        (kernel_cell, "_fill"),
        (kernel_cell, "_ftl_pass"),
    ):
        def counted(*args, _name=name, _original=getattr(owner, name)):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(owner, name, counted)
    timed = []
    time_repeats = bench._time_repeats

    def counting_time_repeats(fn, repeats):
        before = len(calls)
        times = time_repeats(fn, repeats)
        timed.append(sorted(calls[before:]))
        return times

    monkeypatch.setattr(bench, "_time_repeats", counting_time_repeats)
    config = bench.BenchConfig.smoke_config()
    result = bench.bench_grid_cell(config)
    assert result["cold"] is True
    assert timed == [
        ["generate"], ["_fill", "_ftl_pass", "generate"]
    ] * config.grid_repeats


def test_bench_lifetime_sweep_times_cold_alternating_sweeps(monkeypatch):
    """Every timed kernel sweep draws its block set (its first curve
    misses the block-set share), the engines alternate repeat by
    repeat, and quartiles sit beside each median."""
    from dataclasses import replace

    import repro.harness.bench as bench
    import repro.lifetime.comparison as comparison
    from repro.kernels.state import JitterTable

    events = []
    table_init = JitterTable.__init__

    def counting_init(self, models):
        events.append("draw")
        table_init(self, models)

    compare = comparison.compare_schemes

    def recording(*args, engine, **kwargs):
        events.append(engine)
        return compare(*args, engine=engine, **kwargs)

    monkeypatch.setattr(JitterTable, "__init__", counting_init)
    monkeypatch.setattr(comparison, "compare_schemes", recording)
    timed = []
    time_repeats = bench._time_repeats

    def counting_time_repeats(fn, repeats):
        before = len(events)
        times = time_repeats(fn, repeats)
        timed.append(events[before:])
        return times

    monkeypatch.setattr(bench, "_time_repeats", counting_time_repeats)
    config = replace(
        bench.BenchConfig.smoke_config(), schemes=("baseline", "aero")
    )
    result = bench.bench_lifetime_sweep(config)
    assert result["cold"] is True
    sweeps = 1 + len(config.schemes)  # the full sweep, then each scheme
    assert timed == [["object"], ["kernel", "draw"]] * config.repeats * sweeps
    for engine in ("object", "kernel"):
        summary = result[f"engine_{engine}"]
        low, high = summary["quartiles_s"]
        assert low <= summary["median_s"] <= high
        for key in config.schemes:
            low, high = result["per_scheme"][key][f"{engine}_quartiles_s"]
            assert low <= result["per_scheme"][key][f"{engine}_s"] <= high


@pytest.mark.parametrize("flag", ["--repeats", "--grid-repeats", "--grid-requests"])
def test_bench_rejects_a_non_positive_count_before_any_work(
    tmp_path, capsys, flag
):
    artifact = tmp_path / "BENCH_smoke.json"
    for value in ("0", "-2"):
        with pytest.raises(SystemExit) as exit_info:
            main(["bench", "--smoke", "--out", str(artifact), flag, value])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        [error] = [
            line for line in captured.err.splitlines() if "error:" in line
        ]
        assert error.endswith(
            f"argument {flag}: must be a positive integer, got '{value}'"
        )
        assert captured.out == ""
    assert not artifact.exists()


def test_cache_gc_prunes_and_reports(tmp_path, capsys):
    store = str(tmp_path)
    for seed in (1, 2):
        assert main([
            "run", "--scheme", "baseline", "--pec", "500", "--workload", "hm",
            "--requests", "80", "--seed", str(seed), "--store", store,
        ]) == 0
    capsys.readouterr()

    # Dry run deletes nothing.
    assert main(["campaign", "compact", "--store", store,
                 "--max-entries", "1", "--dry-run"]) == 0
    assert "would remove 1" in capsys.readouterr().out
    assert len(ShardedResultStore(store).entries()) == 2

    # Real gc keeps the newest entry.
    assert main(["campaign", "compact", "--store", store,
                 "--max-entries", "1"]) == 0
    assert "removed 1" in capsys.readouterr().out
    assert len(ShardedResultStore(store).entries()) == 1


def test_cache_gc_older_than_and_corrupt(tmp_path, capsys, damage_row):
    store = str(tmp_path)
    assert main([
        "run", "--scheme", "baseline", "--pec", "500", "--workload", "hm",
        "--requests", "80", "--seed", "1", "--store", store,
    ]) == 0
    # a record failing its checksum: listed, never served
    handle = ShardedResultStore(store)
    [entry] = handle.entries()
    corrupt = "de" + "ad" * 31
    handle.put(corrupt, handle.get(entry.key))
    damage_row(store, corrupt, "crc = crc + 1")
    capsys.readouterr()

    assert main(["campaign", "ls", "--store", store]) == 0
    out = capsys.readouterr().out
    assert "<corrupt entry>" in out and "1 corrupt/stale" in out

    # Age out everything: backdate records, prune older than 1h.
    for key in (entry.key, corrupt):
        damage_row(store, key, "ts = ?", time.time() - 7200)
    assert main(["campaign", "compact", "--store", store,
                 "--older-than", "1h"]) == 0
    assert "removed 2" in capsys.readouterr().out
    assert not ShardedResultStore(store).entries()


def test_parse_age_units():
    assert _parse_age("90") == 90.0
    assert _parse_age("90s") == 90.0
    assert _parse_age("15m") == 900.0
    assert _parse_age("2h") == 7200.0
    assert _parse_age("7d") == 7 * 86400.0
    assert _parse_age("inf") == float("inf")  # valid: removes nothing by age
    with pytest.raises(Exception):
        _parse_age("soon")


@pytest.mark.parametrize("age", ["nan", "-1"])
def test_compact_refuses_a_nan_or_negative_age(tmp_path, capsys, age):
    """Every comparison with NaN is false, so a ``< 0`` check alone let
    ``--older-than nan`` through to prune nothing and exit 0."""
    store = str(tmp_path)
    assert main([
        "run", "--scheme", "baseline", "--pec", "500", "--workload", "hm",
        "--requests", "80", "--seed", "1", "--store", store,
    ]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit_info:
        main(["campaign", "compact", "--store", store, "--older-than", age])
    assert exit_info.value.code == 2
    assert "age must be >= 0" in capsys.readouterr().err
    assert len(ShardedResultStore(store).entries()) == 1


def test_format_age_units():
    # One formatter serves store-entry ages and campaign ETAs.
    assert format_duration(30) == "30s"
    assert format_duration(90) == "1.5m"
    assert format_duration(7200) == "2.0h"
    assert format_duration(2 * 86400) == "2.0d"


def test_python_dash_m_entry_point():
    """The real subprocess entry (`python -m repro`) wires up."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "--help"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0
    assert "{run,grid,compare,bench,campaign,metrics}" in proc.stdout


# --- campaign ----------------------------------------------------------------

CAMPAIGN_ARGS = [
    "campaign", "run",
    "--schemes", "baseline,aero", "--pecs", "500",
    "--workloads", "hm", "--requests", "120", "--seed", "1234",
]


def test_campaign_run_executes_then_resumes(tmp_path, capsys):
    store = str(tmp_path / "store")
    assert main(CAMPAIGN_ARGS + ["--store", store]) == 0
    out = capsys.readouterr().out
    assert "campaign complete: 2 cells" in out
    assert "executed 2" in out
    assert "[campaign]" in out  # live progress lines

    assert main(CAMPAIGN_ARGS + ["--store", store]) == 0
    out = capsys.readouterr().out
    assert "resumed 2" in out


def test_campaign_run_json_stats(tmp_path, capsys):
    store = str(tmp_path / "store")
    assert main(
        CAMPAIGN_ARGS + ["--store", store, "--quiet", "--json"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["stats"]["total"] == 2
    assert payload["stats"]["executed"] == 2
    assert payload["spec"]["schemes"] == ["baseline", "aero"]


def test_campaign_run_from_spec_file(tmp_path, capsys):
    from repro.campaign import CampaignSpec

    spec = CampaignSpec(
        schemes=("baseline",), pec_points=(500,), workloads=("hm",),
        requests=120, seed=1234,
    )
    spec_file = tmp_path / "campaign.json"
    spec_file.write_text(spec.to_json())
    store = str(tmp_path / "store")
    assert main(
        ["campaign", "run", "--store", store, "--spec-file", str(spec_file)]
    ) == 0
    assert "1 cells" in capsys.readouterr().out

    # status against the same spec file reports completion
    assert main(
        ["campaign", "status", "--store", store,
         "--spec-file", str(spec_file)]
    ) == 0
    out = capsys.readouterr().out
    assert "1/1 cells done" in out
    assert "1 entries" in out


def test_campaign_spec_file_rejects_conflicting_flags(tmp_path, capsys):
    spec_file = tmp_path / "campaign.json"
    spec_file.write_text('{"schemes": ["baseline"]}')
    code = main(
        ["campaign", "run", "--store", str(tmp_path / "s"),
         "--spec-file", str(spec_file), "--requests", "99"]
    )
    assert code == 2
    assert "--requests" in capsys.readouterr().err


def test_campaign_fail_after_then_resume(tmp_path, capsys):
    store = str(tmp_path / "store")
    # The injected crash exits 2 with one error line, like compare's.
    assert main(CAMPAIGN_ARGS + ["--store", store, "--fail-after", "1",
                                 "--quiet"]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line == "error: injected failure after 1 cells"
    assert main(CAMPAIGN_ARGS + ["--store", store]) == 0
    out = capsys.readouterr().out
    assert "resumed 1" in out
    assert "executed 1" in out
    assert main(CAMPAIGN_ARGS + ["--store", store, "--fail-after", "0"]) == 2
    assert "--fail-after must be >= 1" in capsys.readouterr().err


def test_campaign_compact_reports(tmp_path, capsys):
    store = str(tmp_path / "store")
    assert main(CAMPAIGN_ARGS + ["--store", store, "--quiet"]) == 0
    capsys.readouterr()
    assert main(["campaign", "compact", "--store", store]) == 0
    assert "dropped 0 dead records" in capsys.readouterr().out
    # gc knobs route through the store's gc surface
    assert main(
        ["campaign", "compact", "--store", store, "--max-entries", "1"]
    ) == 0
    out = capsys.readouterr().out
    assert "removed 1 entries" in out
    assert "kept 1" in out


def test_campaign_compact_keep_corrupt_needs_gc_knob(
    tmp_path, capsys, damage_row
):
    store = str(tmp_path / "store")
    assert main(CAMPAIGN_ARGS + ["--store", store, "--quiet"]) == 0
    # stale records: plain compaction would drop them
    for key in list(ShardedResultStore(store).keys()):
        damage_row(store, key, "version = ?", CACHE_VERSION - 1)
    capsys.readouterr()
    assert main(["campaign", "compact", "--store", store,
                 "--keep-corrupt"]) == 2
    assert "--keep-corrupt needs --max-entries or --older-than" in (
        capsys.readouterr().err
    )
    assert ShardedResultStore(store).stats().stale == 2
    # with a gc knob the flag is honoured: the stale records survive
    assert main(["campaign", "compact", "--store", store,
                 "--keep-corrupt", "--older-than", "7d"]) == 0
    assert ShardedResultStore(store).stats().stale == 2


def test_campaign_status_requires_existing_store(tmp_path, capsys):
    assert main(
        ["campaign", "status", "--store", str(tmp_path / "nope")]
    ) == 2
    assert "no such store" in capsys.readouterr().err


def test_campaign_run_with_fault_plan_recovers(tmp_path, capsys):
    """The CLI chaos smoke: a kill_worker fault is retried and the
    campaign still exits 0 with a supervision summary."""
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps({
        "fault_plan": {
            "seed": 3,
            "faults": [
                {"kind": "kill_worker", "cell": 0, "attempt": 1},
            ],
        },
    }))
    assert main(CAMPAIGN_ARGS + [
        "--store", str(tmp_path / "store"),
        "--fault-plan", str(plan_path),
        "--max-retries", "2", "--cell-timeout", "120",
        "--engine", "object",
    ]) == 0
    out = capsys.readouterr().out
    assert "campaign complete: 2 cells" in out
    assert "supervision: 1 retries" in out
    assert "1 worker rebuilds" in out


def test_campaign_run_on_poison_fail_exits_2(tmp_path, capsys):
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps({
        "seed": 3,
        "faults": [{"kind": "kill_worker", "cell": 0, "attempt": None}],
    }))
    assert main(CAMPAIGN_ARGS + [
        "--store", str(tmp_path / "store"),
        "--fault-plan", str(plan_path),
        "--max-retries", "0", "--on-poison", "fail",
        "--engine", "object",
    ]) == 2
    assert "quarantined after 1 attempts" in capsys.readouterr().err


def test_campaign_run_quarantine_reported(tmp_path, capsys):
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps({
        "seed": 3,
        "faults": [{"kind": "kill_worker", "cell": 0, "attempt": None}],
    }))
    assert main(CAMPAIGN_ARGS + [
        "--store", str(tmp_path / "store"),
        "--fault-plan", str(plan_path),
        "--max-retries", "1", "--workers", "2",
        "--quiet", "--json",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["stats"]["quarantined"] == 1
    assert payload["stats"]["executed"] == 1
    [record] = payload["quarantined"]
    assert record["reason"] == "worker_death"


def test_campaign_run_sigterm_drains_then_resumes(tmp_path):
    """SIGTERM mid-run: the running cell finishes and is stored, the
    rest are reported as not started, the exit code is 128 + SIGTERM,
    and the same command resumes without re-running a cell."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps({
        "faults": [{"kind": "slow_cell", "cell": 1, "delay_s": 1.0}],
    }))
    store = str(tmp_path / "store")
    command = [
        sys.executable, "-m", "repro", "campaign", "run",
        "--store", store, "--schemes", "baseline,aero", "--pecs", "500",
        "--workloads", "hm,ali.A,usr", "--requests", "120",
        "--seed", "1234", "--progress-interval", "0",
    ]
    proc = subprocess.Popen(
        command + ["--fault-plan", str(plan_path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )
    # Signal only once cell 1 is in flight: its slow_cell fault writes
    # one stderr line as its sleep starts.
    for line in proc.stderr:
        if "slow_cell: cell 1 " in line:
            proc.send_signal(signal.SIGTERM)
            break
    out = proc.communicate(timeout=300)[0]
    assert proc.returncode == 128 + signal.SIGTERM
    assert "1/6 cells" in out
    assert "caught SIGTERM" in out
    assert "campaign interrupted: 6 cells" in out
    [line] = [line for line in out.splitlines() if "interrupted:" in line
              and "not started" in line]
    not_started = int(line.split()[1])
    # cell 1 was running when the signal came: it drains, 2..5 never start
    assert not_started == 4
    done = 6 - not_started
    assert ShardedResultStore(store).stats().keys == done

    resumed = subprocess.run(
        command, capture_output=True, text=True, env=env, timeout=300,
    )
    assert resumed.returncode == 0
    assert "campaign complete: 6 cells" in resumed.stdout
    assert f"(executed {not_started}; resumed {done} " in resumed.stdout
    stats = ShardedResultStore(store).stats()
    assert (stats.keys, stats.superseded) == (6, 0)


def test_campaign_run_rejects_bad_fault_plan(tmp_path, capsys):
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps({
        "faults": [{"kind": "meteor_strike"}],
    }))
    assert main(CAMPAIGN_ARGS + [
        "--store", str(tmp_path / "store"),
        "--fault-plan", str(plan_path),
    ]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(CAMPAIGN_ARGS + [
        "--store", str(tmp_path / "store2"),
        "--fault-plan", str(tmp_path / "missing.json"),
    ]) == 2
    assert "error:" in capsys.readouterr().err
    # "0" is no cell index: the plan is refused before any store
    # exists, instead of running a campaign that injects nothing.
    plan_path.write_text(json.dumps({
        "fault_plan": {"faults": [{"kind": "kill_worker", "cell": "0"}]},
    }))
    assert main(CAMPAIGN_ARGS + [
        "--store", str(tmp_path / "store3"), "--fault-plan", str(plan_path),
    ]) == 2
    assert "error: fault spec field 'cell'" in capsys.readouterr().err
    assert not (tmp_path / "store3").exists()
