"""AERO reproduction: Adaptive Erase Operation for NAND flash SSDs.

A full-system reproduction of Cho et al., *AERO: Adaptive Erase
Operation for Improving Lifetime and Performance of Modern NAND
Flash-Based SSDs* (ASPLOS 2024): the AERO mechanism (FELP, shallow
erasure, ECC-margin-aware aggressive reduction), every comparison
baseline (ISPE, m-ISPE, i-ISPE, DPES), a calibrated statistical NAND
device model standing in for the paper's 160 real chips, a page-level
FTL, and an event-driven multi-channel SSD simulator.

The declarative experiment API (:mod:`repro.experiments`) is the front
door: an :class:`ExperimentSpec` describes one (scheme, PEC, workload)
cell, the :data:`SCHEMES` / :data:`WORKLOADS` plugin registries resolve
every string key, and results flow through a fingerprint-keyed SQLite
result store shared by the Python API and the ``python -m repro`` CLI.

Quick start::

    from repro import Experiment

    report = (Experiment.aero()
              .at_pec(2500)
              .workload("ali.A")
              .requests(5000)
              .run(cache=".repro-store"))
    print(report.reads.percentile(99.99))

or, equivalently, from the shell::

    python -m repro run --scheme aero --pec 2500 --workload ali.A \\
        --requests 5000 --store .repro-store

The lower layers remain importable directly — ``build_ssd`` for a live
:class:`Ssd` object, ``make_scheme`` for a bare erase scheme,
``repro.harness.run_grid`` for campaign grids.
"""

from repro.config import GcSpec, SchedulerSpec, SsdSpec
from repro.core import (
    AeroEraseScheme,
    EraseTimingTable,
    FelpPredictor,
    ShallowEraseFlags,
    build_aggressive_table,
    build_conservative_table,
    published_aggressive_table,
    published_conservative_table,
)
from repro.erase import (
    BaselineIspeScheme,
    DpesScheme,
    EraseOperationResult,
    EraseScheme,
    IntelligentIspeScheme,
    MIspeScheme,
)
from repro.nand import (
    Block,
    ChipProfile,
    MLC_3D_48L,
    NandChip,
    NandGeometry,
    RberModel,
    TLC_2D_2XNM,
    TLC_3D_48L,
)
from repro.schemes import ALL_SCHEME_KEYS, SCHEME_KEYS, make_scheme
from repro.ssd import Ssd, build_ssd
from repro.experiments import SCHEMES, WORKLOADS
from repro.experiments.spec import Experiment, ExperimentSpec
from repro.experiments.runner import run_experiment, run_experiments

__version__ = "1.1.0"

__all__ = [
    "ALL_SCHEME_KEYS",
    "AeroEraseScheme",
    "BaselineIspeScheme",
    "Block",
    "ChipProfile",
    "DpesScheme",
    "EraseOperationResult",
    "EraseScheme",
    "EraseTimingTable",
    "Experiment",
    "ExperimentSpec",
    "FelpPredictor",
    "GcSpec",
    "IntelligentIspeScheme",
    "MIspeScheme",
    "MLC_3D_48L",
    "NandChip",
    "NandGeometry",
    "RberModel",
    "SCHEMES",
    "SCHEME_KEYS",
    "SchedulerSpec",
    "ShallowEraseFlags",
    "Ssd",
    "SsdSpec",
    "TLC_2D_2XNM",
    "TLC_3D_48L",
    "WORKLOADS",
    "build_aggressive_table",
    "build_conservative_table",
    "build_ssd",
    "make_scheme",
    "published_aggressive_table",
    "published_conservative_table",
    "run_experiment",
    "run_experiments",
    "__version__",
]
