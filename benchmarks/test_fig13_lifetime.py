"""Figure 13: SSD lifetime and reliability under the five erase schemes.

Paper results reproduced here (shape and approximate factors):
* Baseline crosses the 63-bit RBER requirement at ~5.3K P/E cycles;
* AERO extends lifetime by ~43 %, AEROcons by ~30 %, DPES by ~26 %;
* i-ISPE *shortens* lifetime by ~25 % on 3D chips;
* AERO's aggressive under-erasure elevates MRBER from the start but
  flattens its growth (the margin is spent up front, the stress saved
  compounds).
"""

from repro.analysis.tables import format_table
from repro.lifetime import compare_schemes
from repro.nand.chip_types import TLC_3D_48L

PAPER_GAINS = {
    "aero": 0.43,
    "aero_cons": 0.30,
    "dpes": 0.26,
    "iispe": -0.25,
}


def test_fig13_lifetime(once, bench_runner):
    comparison = once(
        compare_schemes,
        TLC_3D_48L,
        block_count=48,
        step=50,
        seed=0xF13,
        runner=bench_runner,
    )

    base_life = comparison.lifetime("baseline")
    rows = []
    for key in ("baseline", "iispe", "dpes", "aero_cons", "aero"):
        curve = comparison.curves[key]
        rows.append(
            [
                key,
                curve.lifetime_pec,
                f"{curve.lifetime_pec / base_life - 1:+.1%}",
                f"{PAPER_GAINS.get(key, 0.0):+.0%}" if key != "baseline" else "--",
                round(curve.mrber_at(250), 1),
                round(curve.mrber_at(4000), 1),
            ]
        )
    print()
    print(
        format_table(
            ["scheme", "lifetime PEC", "gain", "paper", "MRBER@0.25K", "MRBER@4K"],
            rows,
            title="Figure 13 — average MRBER growth and lifetime (1-yr retention)",
        )
    )

    # Baseline endpoint near the paper's 5.3K.
    assert 4500 <= base_life <= 6200
    # Ordering: AERO > AEROcons > Baseline > i-ISPE; DPES > Baseline.
    assert comparison.lifetime("aero") > comparison.lifetime("aero_cons")
    assert comparison.lifetime("aero_cons") > base_life
    assert comparison.lifetime("dpes") > base_life
    assert comparison.lifetime("iispe") < base_life
    # Approximate factors (generous bands around the paper's numbers).
    assert 0.25 <= comparison.improvement("aero") <= 0.75
    assert 0.10 <= comparison.improvement("aero_cons") <= 0.45
    assert 0.08 <= comparison.improvement("dpes") <= 0.40
    assert -0.45 <= comparison.improvement("iispe") <= -0.10
    # AERO pays up-front MRBER for slower growth.
    aero = comparison.curves["aero"]
    baseline = comparison.curves["baseline"]
    assert aero.mrber_at(250) > baseline.mrber_at(250) + 5
    late_growth_aero = aero.mrber_at(5000) - aero.mrber_at(3000)
    late_growth_base = baseline.mrber_at(5000) - baseline.mrber_at(3000)
    assert late_growth_aero < late_growth_base
