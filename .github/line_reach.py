"""Line reach (ROADMAP item 17): fail on any src/ function no workload starts.

Run from the repository root (about 3 min; needs numpy, pytest,
pytest-benchmark and hypothesis, as the tier-1 suite does):

    python .github/line_reach.py

It runs the workloads and records which ``src/`` code objects start:
functions, methods and closures, not lambdas, comprehensions or class
and module bodies. The workloads are

- ``benchmarks/`` under pytest with ``--benchmark-disable``;
- the five ``examples/*.py``;
- one fresh and one resume pass of each perfbench workload, through
  ``perfbench/plans.py``;
- every step of ``.github/workflows/ci.yml`` whose name says "smoke"
  or "probe", run by bash from a scratch directory;

never ``tests/``. Every Python process they start records, CLI
subprocesses and forked campaign workers included: a
``usercustomize`` module on a scratch ``PYTHONUSERBASE`` installs a
call-only tracer through ``sys.settrace`` and ``threading.settrace``
(it returns ``None``, so no line events are traced), and each process
writes what started when it exits, through ``atexit`` or ``os._exit``
(forked workers leave through ``os._exit``). A worker killed with
SIGKILL writes nothing.

It prints the never-started functions per package and exits 1 if one
is not on ``ALLOW``. Each entry there names why the function stays
although no workload starts it, as one of four reasons.
"""

import collections
import os
import pathlib
import re
import shutil
import subprocess
import sys
import tempfile

ROOT = pathlib.Path.cwd()
SRC = ROOT / "src"

ORACLE = "test oracle"
GUARD = "input validation, or error, signal or fault handling"
API = "API that README.md or a package docstring shows users"


def unproduced(test):
    """Reason 4: an input no committed workload produces, run by ``test``."""
    return f"an input no workload produces; run by {test}"


#: ``module:qualname`` of each function that stays unstarted, and why.
ALLOW = {
    # (1) Test oracles.
    "repro.core.felp:FelpPredictor.predict": ORACLE,
    "repro.erase.mispe:MIspeScheme.measure": ORACLE,
    "repro.ftl.ftl:PageLevelFtl.check_consistency": ORACLE,
    # ...and what check_consistency reads.
    "repro.ftl.mapping:PageMappingTable.items": ORACLE,
    "repro.ftl.mapping:PageMappingTable.mapped_count": ORACLE,
    "repro.nand.block:Block.page_lpn": ORACLE,
    # The model's analytic mtEP/mtBERS and required pulses, which the
    # Figure 4 population tests and the block-array kernels check against.
    "repro.nand.erase_model:BlockEraseModel.min_t_bers_us": ORACLE,
    "repro.nand.erase_model:BlockEraseModel.min_t_ep_final_us": ORACLE,
    "repro.nand.erase_model:BlockEraseModel.required_pulses": ORACLE,
    # Tests read every metric through the parsed exposition.
    "repro.telemetry.exposition:ParsedFamily.value": ORACLE,
    # (2) Input validation, or error, signal or fault handling.
    "repro.campaign.store:ShardedResultStore.quarantine": GUARD,
    "repro.campaign.supervisor:CellSupervisor._interrupt_pending": GUARD,
    "repro.campaign.supervisor:ProcessWorker.kill": GUARD,
    "repro.campaign.supervisor:_error_payload": GUARD,
    "repro.errors:EraseFailure.__init__": GUARD,
    "repro.experiments.cli:_cmd_campaign_run.<locals>.handle_signal": GUARD,
    "repro.experiments.cli:_parse_age": GUARD,
    "repro.experiments.cli:_parse_param": GUARD,
    "repro.experiments.spec:_canonical_param": GUARD,
    "repro.faults.plan:FaultPlan.has_compact_interrupt": GUARD,
    "repro.harness.bench:_count": GUARD,
    # Addresses as error messages print them.
    "repro.nand.geometry:BlockAddress.__str__": GUARD,
    "repro.nand.geometry:PageAddress.__str__": GUARD,
    "repro.nand.geometry:PlaneAddress.__str__": GUARD,
    # (3) API that README.md or a package docstring shows users.
    "repro.campaign.orchestrator:run_campaign": API,
    "repro.erase.scheme:EraseScheme._run": API,  # plugin schemes
    "repro.erase.scheme:EraseScheme.batch_kernel": API,
    "repro.experiments:__getattr__": API,  # repro.experiments.ExperimentSpec
    "repro.experiments.spec:ExperimentSpec.fingerprint": API,
    "repro.experiments.spec:ExperimentSpec.run": API,
    "repro.experiments.spec:SpecBase.from_json": API,
    "repro.experiments.spec:SpecBase.to_json": API,
    "repro.harness.store:ResultStore.__contains__": API,
    "repro.harness.store:ResultStore.get": API,
    "repro.harness.store:ResultStore.put": API,
    "repro.schemes:make_scheme": API,
    # (4) Inputs no committed workload produces.
    "repro.campaign.spec:load_campaign_file": unproduced(
        "tests/test_cli.py::test_campaign_run_from_spec_file"
    ),
    "repro.config:SsdSpec.bench": unproduced(  # --ssd bench
        "tests/test_config.py::"
        "test_logical_space_must_fit_beside_the_gc_reserve"
    ),
    # Reads of pages nothing wrote.
    "repro.kernels.cell:run_trace_kernel.<locals>.credit_request": unproduced(
        "tests/test_cell_kernel.py::TestEngineEquivalence::"
        "test_reads_of_never_written_pages"
    ),
    # The m-ISPE scheme as a lifetime scheme.
    "repro.schemes:_build_mispe": unproduced(
        "tests/test_kernels.py::test_deterministic_scheme_kernel_is_exact"
    ),
    "repro.erase.mispe:MIspeScheme._run": unproduced(
        "tests/test_kernels.py::test_deterministic_scheme_kernel_is_exact"
    ),
    "repro.erase.mispe:MIspeScheme.batch_kernel": unproduced(
        "tests/test_kernels.py::test_deterministic_scheme_kernel_is_exact"
    ),
    "repro.kernels.erase:MispeBatchKernel._run_batch": unproduced(
        "tests/test_kernels.py::test_deterministic_scheme_kernel_is_exact"
    ),
    # Trace files (examples/trace_replay.py --trace).
    "repro.workloads.alibaba:load_alibaba_csv": unproduced(
        "tests/test_workloads.py::TestFormats::test_alibaba_round_trip"
    ),
    "repro.workloads.msrc:load_msrc_csv": unproduced(
        "tests/test_workloads.py::TestFormats::test_msrc_round_trip"
    ),
}

#: The ``usercustomize`` body; ``main`` prepends ``_OUT`` (the directory
#: each process writes its record to) and ``_SRC`` (the real path of
#: ``src/`` plus a separator).
RECORDER = '''\
import atexit, os, sys, tempfile, threading

_seen = {}


def _tracer(frame, event, arg):
    code = frame.f_code
    _seen[id(code)] = code


def _dump():
    real = {}
    lines = set()
    for code in list(_seen.values()):
        name = code.co_filename
        if name not in real:
            real[name] = os.path.realpath(name)
        if real[name].startswith(_SRC):
            lines.add(f"{real[name][len(_SRC) - 1:]}:"
                      f"{code.co_firstlineno}:{code.co_name}\\n")
    fd, _ = tempfile.mkstemp(dir=_OUT, suffix=".txt")
    with os.fdopen(fd, "w") as out:
        out.writelines(sorted(lines))


_exit = os._exit


def _recorded_exit(code):
    try:
        _dump()
    finally:
        _exit(code)


os._exit = _recorded_exit
atexit.register(_dump)
threading.settrace(_tracer)
sys.settrace(_tracer)
'''

PERFBENCH = '''\
import sys
from pathlib import Path

import plans

work = Path(sys.argv[1])
for name, workload in plans.WORKLOADS.items():
    done = workload.fresh(1, work)
    assert not done.failed, (name, "fresh", done.failed)
    root, filling = workload.prepare_resume(1, work, done)
    assert filling is None or not filling.failed, (name, "fill")
    done = workload.resume(1, root)
    assert not done.failed, (name, "resume", done.failed)
'''


def ci_steps(words=("smoke", "probe")):
    """``(name, script)`` of each CI step whose name holds one of
    ``words``, read from ci.yml's ``- name:`` / ``run: |`` blocks."""
    lines = (ROOT / ".github/workflows/ci.yml").read_text().splitlines()
    steps, name = [], None
    for i, line in enumerate(lines):
        found = re.match(r"\s*- name: (.*)", line)
        if found:
            name = found.group(1)
            continue
        found = re.match(r"(\s*)run: (.*)", line)
        if not found or name is None or not any(
            word in name.lower() for word in words
        ):
            continue
        indent, head = len(found.group(1)), found.group(2)
        if head != "|":
            steps.append((name, head))
            continue
        body = []
        for text in lines[i + 1:]:
            if text.strip() and len(text) - len(text.lstrip()) <= indent:
                break
            body.append(text)
        width = min(len(t) - len(t.lstrip()) for t in body if t.strip())
        steps.append((name, "\n".join(t[width:] for t in body) + "\n"))
    return steps


def run(label, argv, cwd, env):
    print(f"== {label}", flush=True)
    done = subprocess.run(argv, cwd=cwd, env=env, stdout=subprocess.DEVNULL)
    if done.returncode:
        sys.exit(f"line reach: workload {label!r} exited {done.returncode}")


def run_workloads(scratch, env):
    py = sys.executable
    src = dict(env, PYTHONPATH=str(SRC))
    run("benchmarks/", [py, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                        "--benchmark-disable", str(ROOT / "benchmarks")],
        ROOT, src)
    for example in sorted((ROOT / "examples").glob("*.py")):
        run(f"examples/{example.name}", [py, str(example)], scratch, src)
    work = scratch / "perfbench"
    work.mkdir()
    run("perfbench fresh + resume", [py, "-B", "-c", PERFBENCH, str(work)],
        ROOT, dict(env, PYTHONPATH=f"{SRC}{os.pathsep}{ROOT / 'perfbench'}"))
    for index, (name, script) in enumerate(ci_steps()):
        step = scratch / f"step{index}"
        step.mkdir()
        for top in ("src", "tests", "perfbench"):
            (step / top).symlink_to(ROOT / top)
        run(name, ["bash", "-e", "-c", script], step, env)


def functions():
    """``(path, firstlineno, name) -> module:qualname`` of every
    function, method and closure compiled from ``src/``."""
    found = {}

    def walk(code, rel, module, qual, scope):
        for const in code.co_consts:
            if not hasattr(const, "co_code"):
                continue
            name = const.co_name
            if name.startswith("<"):  # lambdas, comprehensions
                continue
            sub = f"{qual}{'.<locals>.' if scope == 'def' else '.'}{name}" \
                if qual else name
            if const.co_flags & 0x1:  # CO_OPTIMIZED: a function body
                found[(rel, const.co_firstlineno, name)] = f"{module}:{sub}"
                walk(const, rel, module, sub, "def")
            else:  # a class body
                walk(const, rel, module, sub, "class")

    for path in sorted(SRC.rglob("*.py")):
        rel = "/" + str(path.relative_to(SRC))
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        module = module.removesuffix(".__init__")
        code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
        walk(code, rel, module, "", "module")
    return found


def main():
    scratch = pathlib.Path(tempfile.mkdtemp(prefix="line-reach-"))
    try:
        out, base = scratch / "out", scratch / "userbase"
        out.mkdir()
        env = dict(os.environ, PYTHONUSERBASE=str(base))
        env.pop("PYTHONNOUSERSITE", None)
        site = subprocess.run(
            [sys.executable, "-c",
             "import site; print(site.getusersitepackages())"],
            env=env, check=True, capture_output=True, text=True,
        ).stdout.strip()
        os.makedirs(site)
        pathlib.Path(site, "usercustomize.py").write_text(
            f"_OUT = {str(out)!r}\n"
            f"_SRC = {os.path.join(os.path.realpath(SRC), '')!r}\n"
            + RECORDER
        )
        runs = scratch / "runs"
        runs.mkdir()
        run_workloads(runs, env)
        started = set()
        for record in out.iterdir():
            for line in record.read_text().splitlines():
                rel, first, name = line.rsplit(":", 2)
                started.add((rel, int(first), name))
        if not started:
            sys.exit("line reach: no process recorded (is the user site off?)")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    per_package = collections.defaultdict(list)
    for key, qual in functions().items():
        if key not in started:
            package = ".".join(pathlib.PurePath(key[0][1:]).parent.parts)
            per_package[package].append(qual)
    for package, quals in sorted(per_package.items()):
        print(f"{package}: {len(quals)} never started")
        for qual in sorted(quals):
            print(f"  {qual}" + (f"  [{ALLOW[qual]}]" if qual in ALLOW else ""))
    never = sorted(qual for quals in per_package.values() for qual in quals)
    stale = sorted(set(ALLOW) - set(never))
    for qual in stale:
        print(f"allow-listed but started or gone: {qual}")
    unlisted = [qual for qual in never if qual not in ALLOW]
    print(f"{len(never)} functions never started, "
          f"{len(unlisted)} not on the allow-list")
    sys.exit(1 if unlisted or stale else 0)


if __name__ == "__main__":
    main()
