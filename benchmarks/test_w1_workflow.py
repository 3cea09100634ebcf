"""Experiment W1 — workflow engine throughput, schedule quality, resume cost.

Seeded fan-out sweeps (script -> place/run x width -> collect) run through
a full portal deployment at widths 2..16.  For each width we report the
virtual-time makespan, stage throughput, and how close the executor's
schedule comes to the DAG's critical-path lower bound — the longest
weighted root-to-leaf path no executor width can beat.  A final run
crashes the executor mid-DAG and resumes from the journal, and the
overhead of the crash (extra virtual seconds and re-driven stages versus
the uninterrupted baseline) is the resume cost.  The verdict lands in
``BENCH_workflow.json`` at the repo root so regressions in the executor
hot path are diffable across PRs.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from benchmarks.conftest import record_table
from repro.grid.jobs import JobSpec
from repro.portal.uiserver import PortalDeployment, UserInterfaceServer
from repro.services.jobsubmit import jobs_to_xml
from repro.shell import (
    BatchScriptStage,
    GlobusrunStage,
    MetaScheduleStage,
    SrbPutStage,
    Workflow,
    const,
    critical_path,
    provenance_tree,
    ref,
    stage_timings,
)

SEED = 7
UI_HOST = "ui.bench.org"
GLOBUSRUN_HOST = "globusrun.sdsc.edu"
WIDTHS = (2, 4, 8, 16)
RESUME_WIDTH = 8
RESUME_CUT = 7


def _sweep(width: int) -> Workflow:
    stages = [
        BatchScriptStage(
            "script",
            scheduler="PBS",
            params={"executable": "/bin/sweep", "cpus": "1"},
        ),
    ]
    collect_inputs = {}
    for index in range(width):
        jobs = jobs_to_xml([
            ("", JobSpec(
                name=f"bench-{index}",
                executable="echo",
                arguments=[f"point-{index}"],
            )),
        ])
        stages.append(MetaScheduleStage(
            f"place-{index}", inputs={"jobs": const(jobs)},
        ))
        stages.append(GlobusrunStage(
            f"run-{index}",
            inputs={
                "jobs": ref(f"place-{index}", "placed"),
                "script": ref("script", "script"),
            },
        ))
        collect_inputs[f"r{index}"] = ref(f"run-{index}", "results")
    stages.append(SrbPutStage(
        "collect", path="/home/portal/bench-sweep.out", inputs=collect_inputs,
    ))
    return Workflow(f"bench-w{width}", stages)


def _executor(deployment, width: int, run_id: str):
    ui = UserInterfaceServer(deployment, host=UI_HOST)
    return ui.workflow_executor(
        _sweep(width), run_id=run_id, seed=SEED, journal_name=f"wf-{run_id}",
    )


def _run_width(width: int) -> dict:
    deployment = PortalDeployment.build(durable=True)
    executor = _executor(deployment, width, f"run-w{width}")
    result = executor.run()
    assert result.done, result.failed
    timings = stage_timings(executor.journal)
    bound = critical_path(executor.workflow, timings)
    stages = len(result.stage_order)
    return {
        "width": width,
        "stages": stages,
        "makespan_s": round(result.makespan, 6),
        "stages_per_s": round(stages / result.makespan, 4),
        "critical_path_s": round(bound["length"], 6),
        "slowdown_vs_bound": round(result.makespan / bound["length"], 4),
    }


def _run_resume() -> dict:
    baseline_deployment = PortalDeployment.build(durable=True)
    baseline = _executor(baseline_deployment, RESUME_WIDTH, "run-resume")
    whole = baseline.run()
    assert whole.done, whole.failed

    deployment = PortalDeployment.build(durable=True)
    first = _executor(deployment, RESUME_WIDTH, "run-resume")
    started = deployment.network.clock.now
    first.run(max_stages=RESUME_CUT)
    network = deployment.network
    network.take_down(GLOBUSRUN_HOST)
    network.bring_up(GLOBUSRUN_HOST)
    deployment.rebuilders[GLOBUSRUN_HOST]()
    second = _executor(deployment, RESUME_WIDTH, "run-resume")
    resumed = second.run()
    assert resumed.done, resumed.failed
    total = deployment.network.clock.now - started
    assert provenance_tree(second.store, "run-resume") == provenance_tree(
        baseline.store, "run-resume"
    )
    return {
        "width": RESUME_WIDTH,
        "cut_after_stages": RESUME_CUT,
        "baseline_makespan_s": round(whole.makespan, 6),
        "resumed_total_s": round(total, 6),
        "overhead_s": round(total - whole.makespan, 6),
        "stages_recovered": len(second.completed) - len(resumed.stage_order),
        "stages_redriven": len(resumed.stage_order),
    }


def test_workflow_throughput_schedule_quality_and_resume_cost():
    runs = [_run_width(width) for width in WIDTHS]
    resume = _run_resume()

    for run in runs:
        # the schedule stays within a small factor of the lower bound
        assert run["slowdown_vs_bound"] < 20.0, run
        assert run["stages_per_s"] > 0.0, run
    # resume re-drives only the unfinished stages, never the whole DAG
    assert resume["stages_redriven"] == 2 * RESUME_WIDTH + 2 - RESUME_CUT
    # journal replay costs no virtual time beyond re-driving those stages
    assert resume["overhead_s"] < resume["baseline_makespan_s"]

    record_table(
        "W1  sweep makespan vs critical-path lower bound",
        ["width", "stages", "makespan s", "stages/s", "bound s", "slowdown"],
        [
            [r["width"], r["stages"], r["makespan_s"], r["stages_per_s"],
             r["critical_path_s"], r["slowdown_vs_bound"]]
            for r in runs
        ],
    )
    record_table(
        "W1  crash/resume overhead (width 8, cut after 7 stages)",
        ["baseline s", "crashed+resumed s", "overhead s", "re-driven stages"],
        [[resume["baseline_makespan_s"], resume["resumed_total_s"],
          resume["overhead_s"], resume["stages_redriven"]]],
    )

    out = Path(__file__).parent.parent / "BENCH_workflow.json"
    out.write_text(json.dumps({
        "benchmark": "w1_workflow",
        "command": "PYTHONPATH=src python -m pytest -q -p no:cacheprovider "
                   "benchmarks/test_w1_workflow.py",
        "python": f"{sys.version_info.major}.{sys.version_info.minor}",
        "seed": SEED,
        "widths": list(WIDTHS),
        "runs": runs,
        "resume": resume,
    }, indent=2, sort_keys=True) + "\n", encoding="utf-8")
