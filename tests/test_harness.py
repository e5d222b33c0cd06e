"""Evaluation-grid harness."""

import pytest

from repro.harness import EvaluationGrid, GridCell, GridRunner, run_workload_cell


@pytest.fixture(scope="module")
def small_grid():
    return GridRunner().run(
        schemes=("baseline", "aero"),
        pec_points=(500,),
        workloads=("hm",),
        requests=200,
        seed=42,
    )


def test_grid_contains_all_cells(small_grid):
    assert small_grid.schemes() == ["aero", "baseline"]
    assert small_grid.workloads() == ["hm"]
    assert small_grid.pec_points() == [500]
    assert len(small_grid.cells) == 2


def test_report_lookup(small_grid):
    report = small_grid.report("aero", 500, "hm")
    assert report.scheme == "aero"
    assert report.requests_completed == 200
    with pytest.raises(KeyError):
        small_grid.report("dpes", 500, "hm")


def test_normalized_read_tail(small_grid):
    table = small_grid.normalized_read_tail(99.0, 500)
    assert table["hm"]["baseline"] == pytest.approx(1.0)
    assert table["hm"]["aero"] > 0


def test_geomean_identity_for_baseline(small_grid):
    geomean = small_grid.geomean_normalized(lambda r: r.read_tail(99.0), 500)
    assert geomean["baseline"] == pytest.approx(1.0)


def test_run_workload_cell_is_deterministic():
    a = run_workload_cell("baseline", 500, "stg", requests=150, seed=9)
    b = run_workload_cell("baseline", 500, "stg", requests=150, seed=9)
    assert a.reads.mean_us == b.reads.mean_us
    assert a.makespan_us == b.makespan_us


def test_suspension_flag_plumbs_through():
    report = run_workload_cell(
        "baseline", 2500, "prxy", requests=300, erase_suspension=False, seed=3
    )
    assert report.erase_suspensions == 0


def test_empty_grid():
    grid = EvaluationGrid()
    assert grid.schemes() == []
    assert grid.workloads() == []


def test_report_lookup_uses_index(small_grid):
    # add() populated the keyed index alongside the cell list.
    assert len(small_grid._index) == len(small_grid.cells)
    report = small_grid.report("baseline", 500, "hm")
    assert report.scheme == "baseline"


def test_in_place_cell_replacement_resolves_fresh(small_grid):
    grid = EvaluationGrid()
    for cell in small_grid.cells:
        grid.add(cell)
    grid.report("baseline", 500, "hm")  # prime the index
    swapped = GridCell("baseline", 500, "hm", small_grid.cells[1].report)
    position = [c.scheme for c in grid.cells].index("baseline")
    grid.cells[position] = swapped
    assert grid.report("baseline", 500, "hm") is swapped.report


def test_duplicate_key_keeps_first_match_and_index(small_grid):
    # The pre-index linear scan returned the first matching cell;
    # duplicates must preserve that and not degrade later lookups.
    grid = EvaluationGrid()
    first = small_grid.cells[0]
    shadow = GridCell(first.scheme, first.pec, first.workload,
                      small_grid.cells[1].report)
    grid.add(first)
    grid.add(shadow)
    assert grid.report(*first.key) is first.report
    assert grid._indexed == len(grid.cells)


def test_direct_cell_append_still_resolves(small_grid):
    # Legacy code appended to .cells directly; report() must detect the
    # stale index and rebuild it rather than miss the new cell.
    grid = EvaluationGrid()
    grid.cells.extend(small_grid.cells)
    assert grid.report("aero", 500, "hm").scheme == "aero"
    grid.cells.append(GridCell("fake", 999, "zz", grid.cells[0].report))
    assert grid.report("fake", 999, "zz") is grid.cells[0].report
    with pytest.raises(KeyError):
        grid.report("fake", 999, "missing")
