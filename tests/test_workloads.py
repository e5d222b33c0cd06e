"""Traces, Table 3 profiles, synthetic generation, format parsers."""

import csv

import pytest

from repro.errors import ConfigError, TraceError
from repro.experiments.registry import WORKLOADS
from repro.units import SECTOR_BYTES
from repro.workloads import (
    ALL_PROFILES,
    SyntheticTraceGenerator,
    Trace,
    TraceRequest,
    load_alibaba_csv,
    load_msrc_csv,
)


def _write_rows(path, rows):
    with path.open("w", newline="") as handle:
        csv.writer(handle).writerows(rows)


class TestTrace:
    def test_request_validation(self):
        with pytest.raises(TraceError):
            TraceRequest(arrival_us=-1, lba=0, sectors=1, is_read=True)
        with pytest.raises(TraceError):
            TraceRequest(arrival_us=0, lba=0, sectors=0, is_read=True)

    def test_time_ordering_enforced(self):
        a = TraceRequest(10.0, 0, 1, True)
        b = TraceRequest(5.0, 0, 1, True)
        with pytest.raises(TraceError):
            Trace([a, b])

    def test_statistics(self):
        requests = [
            TraceRequest(0.0, 0, 8, True),
            TraceRequest(100.0, 8, 24, False),
            TraceRequest(200.0, 0, 16, True),
        ]
        trace = Trace(requests)
        assert trace.read_ratio == pytest.approx(2 / 3)
        assert trace.duration_us == 200.0


class TestProfiles:
    def test_eleven_workloads(self):
        assert len(ALL_PROFILES) == 11
        assert sum(1 for p in ALL_PROFILES if p.suite == "alibaba") == 5
        assert sum(1 for p in ALL_PROFILES if p.suite == "msrc") == 6

    def test_table3_values(self):
        ali_a = WORKLOADS.resolve("ali.A")
        assert ali_a.read_ratio == 0.07
        assert ali_a.avg_request_kb == 54.0
        assert ali_a.acceleration == 1.0
        rsrch = WORKLOADS.resolve("rsrch")
        assert rsrch.acceleration == 10.0
        assert rsrch.effective_inter_arrival_us == pytest.approx(42190.0)

    def test_unknown_abbr(self):
        with pytest.raises(ConfigError):
            WORKLOADS.resolve("nope")


class TestSyntheticGenerator:
    def test_reproducible(self):
        profile = WORKLOADS.resolve("hm")
        g1 = SyntheticTraceGenerator(profile, footprint_bytes=1 << 26, seed=5)
        g2 = SyntheticTraceGenerator(profile, footprint_bytes=1 << 26, seed=5)
        t1, t2 = g1.generate(300), g2.generate(300)
        assert [(r.arrival_us, r.lba, r.sectors, r.is_read) for r in t1.requests] == [
            (r.arrival_us, r.lba, r.sectors, r.is_read) for r in t2.requests
        ]

    @pytest.mark.parametrize("abbr", ["ali.A", "ali.E", "rsrch", "prxy", "usr"])
    def test_matches_profile_statistics(self, abbr):
        profile = WORKLOADS.resolve(abbr)
        generator = SyntheticTraceGenerator(
            profile, footprint_bytes=1 << 28, seed=11
        )
        trace = generator.generate(3000)
        assert trace.read_ratio == pytest.approx(profile.read_ratio, abs=0.05)
        mean_bytes = (
            sum(r.sectors for r in trace.requests) * SECTOR_BYTES / len(trace)
        )
        mean_gap = (trace.requests[-1].arrival_us - trace.requests[0].arrival_us) / (len(trace) - 1)
        assert mean_bytes == pytest.approx(profile.avg_request_kb * 1024, rel=0.25)
        assert mean_gap == pytest.approx(
            profile.effective_inter_arrival_us, rel=0.25
        )

    def test_addresses_within_footprint(self):
        profile = WORKLOADS.resolve("stg")
        footprint = 1 << 24
        generator = SyntheticTraceGenerator(profile, footprint_bytes=footprint, seed=2)
        trace = generator.generate(500)
        assert max(r.end_lba for r in trace.requests) * SECTOR_BYTES <= footprint

    def test_tiny_footprint_rejected(self):
        with pytest.raises(TraceError):
            SyntheticTraceGenerator(WORKLOADS.resolve("hm"), footprint_bytes=100)


class TestFormats:
    def test_msrc_round_trip(self, tmp_path):
        profile = WORKLOADS.resolve("hm")
        trace = SyntheticTraceGenerator(profile, 1 << 24, seed=1).generate(100)
        path = tmp_path / "trace.csv"
        _write_rows(path, [
            [
                int(round(r.arrival_us * 10)), "synth", 0,
                "Read" if r.is_read else "Write",
                r.lba * SECTOR_BYTES, r.sectors * SECTOR_BYTES, 0,
            ]
            for r in trace.requests
        ])
        loaded = load_msrc_csv(path)
        assert len(loaded) == len(trace)
        # The loader normalizes timestamps to trace start.
        origin = trace.requests[0].arrival_us
        for original, parsed in zip(trace.requests, loaded.requests):
            assert parsed.lba == original.lba
            assert parsed.sectors == original.sectors
            assert parsed.is_read == original.is_read
            assert parsed.arrival_us == pytest.approx(
                original.arrival_us - origin, abs=0.2
            )

    def test_alibaba_round_trip(self, tmp_path):
        profile = WORKLOADS.resolve("ali.B")
        trace = SyntheticTraceGenerator(profile, 1 << 24, seed=1).generate(100)
        path = tmp_path / "trace.csv"
        _write_rows(path, [
            [
                3, "R" if r.is_read else "W",
                r.lba * SECTOR_BYTES, r.sectors * SECTOR_BYTES,
                int(round(r.arrival_us)),
            ]
            for r in trace.requests
        ])
        loaded = load_alibaba_csv(path)
        assert len(loaded) == len(trace)
        assert load_alibaba_csv(path, device_id=99).requests == []

    def test_malformed_msrc_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,host,0,Frobnicate,0,4096,0\n")
        with pytest.raises(TraceError):
            load_msrc_csv(path)
        path.write_text("1,host,0\n")
        with pytest.raises(TraceError):
            load_msrc_csv(path)

    def test_malformed_alibaba_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,X,0,4096,1\n")
        with pytest.raises(TraceError):
            load_alibaba_csv(path)
