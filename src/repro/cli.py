"""Command-line interface: regenerate any paper artefact from a shell.

Usage::

    python -m repro fig3 [--wait-step N] [--json]
    python -m repro fig4
    python -m repro table1 [--paper-only]
    python -m repro allocation [--simulated]
    python -m repro fig5 [--plots] [--analytic]
    python -m repro ablations [--which segments|fixed-point|threshold|jitter|kernel|all]
    python -m repro validate [--seeds N]
    python -m repro sensitivity [--scales 0.5 1.0 2.0]
    python -m repro study [--scenario NAME ...] [--grid] [--jobs N] [--seed N]
    python -m repro sweep [--scenario NAME] [--axis FIELD=V1,V2] [--replications N]
                          [--ci-target HW [--ci-relative] --max-replications N --budget N]
                          [--fabric N [--worker-mode process] [--resume]
                           [--chaos-profile P --chaos-seed N]]
    python -m repro worker --connect HOST:PORT [--id NAME]
                           [--chaos-profile P --chaos-seed N]
    python -m repro serve [--host H] [--port P] [--pool-size N]
    python -m repro solvers
    python -m repro networks
    python -m repro lint [paths ...] [--rule ID] [--json]

Every command accepts ``--json`` to emit machine-readable results
instead of ASCII reports; ``study`` runs declarative
:mod:`repro.pipeline` scenarios and prints
:class:`~repro.pipeline.result.StudyResult` documents that round-trip
through ``StudyResult.from_json``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.core.sensitivity import deadline_sensitivity
from repro.core.timing_params import PAPER_TABLE_I
from repro.experiments import (
    run_bound_validation,
    run_fig1,
    run_fig3,
    run_fig4,
    run_fig5,
    run_fixed_point_ablation,
    run_jitter_ablation,
    run_kernel_ablation,
    run_paper_allocation,
    run_pure_et_baseline,
    run_segment_ablation,
    run_simulation_allocation,
    run_table1,
    run_threshold_sweep,
)
from repro.experiments.reporting import format_table
from repro.fabric.resilience import CHAOS_PROFILES as _CHAOS_PROFILES
from repro.pipeline.scenario import KERNELS
from repro.pipeline.serialize import to_jsonable

# Each command handler returns ``(text, data)``: the classic ASCII report
# and a structure for ``--json`` (serialised via ``to_jsonable``).


def _wait_step(args) -> int:
    """Effective dwell-sweep stride (flag left unset means 2)."""
    return 2 if args.wait_step is None else args.wait_step


def _cmd_fig1(args):
    result = run_fig1()
    return result.report(), result


def _cmd_fig3(args):
    result = run_fig3(wait_step=_wait_step(args))
    return result.report(), result


def _cmd_fig4(args):
    result = run_fig4(wait_step=_wait_step(args))
    return result.report(), result


def _cmd_table1(args):
    result = run_table1(
        include_simulation=not args.paper_only, wait_step=_wait_step(args)
    )
    text = result.paper_report() if args.paper_only else result.report()
    return text, result


def _cmd_allocation(args):
    paper = run_paper_allocation()
    texts = [paper.report()]
    data = {"paper": paper, "simulated": None}
    if args.simulated:
        simulated = run_simulation_allocation(wait_step=_wait_step(args))
        texts.append(simulated.report())
        data["simulated"] = simulated
    return "\n\n".join(texts), data


def _cmd_fig5(args):
    result = run_fig5(
        use_flexray=not args.analytic,
        wait_step=_wait_step(args),
        kernel=getattr(args, "kernel", "auto"),
    )
    data = {
        "slot_names": result.slot_names,
        "all_deadlines_met": result.all_deadlines_met(),
        "summary": result.trace.summary_rows(),
    }
    return result.report(plots=args.plots), data


def _cmd_ablations(args):
    texts = []
    data = {}
    if args.which in ("segments", "all"):
        data["segments"] = run_segment_ablation(wait_step=_wait_step(args))
        texts.append(data["segments"].report())
    if args.which in ("fixed-point", "all"):
        data["fixed_point"] = run_fixed_point_ablation()
        texts.append(data["fixed_point"].report())
    if args.which in ("threshold", "all"):
        data["threshold"] = run_threshold_sweep()
        texts.append(data["threshold"].report())
    if args.which in ("jitter", "all"):
        data["jitter"] = run_jitter_ablation(wait_step=_wait_step(args))
        texts.append(data["jitter"].report())
    if args.which in ("kernel", "all"):
        data["kernel"] = run_kernel_ablation(wait_step=_wait_step(args))
        texts.append(data["kernel"].report())
        data["kernel_flexray"] = run_kernel_ablation(
            wait_step=_wait_step(args), scenario="fig5-cosim"
        )
        texts.append(data["kernel_flexray"].report())
    return "\n\n".join(texts), data


def _cmd_validate(args):
    bound = run_bound_validation(seeds=args.seeds, wait_step=_wait_step(args))
    pure = run_pure_et_baseline(wait_step=_wait_step(args))
    data = {"bound_validation": bound, "pure_et_baseline": pure}
    return bound.report() + "\n\n" + pure.report(), data


def _cmd_sensitivity(args):
    points = deadline_sensitivity(PAPER_TABLE_I, args.scales)
    rows = [
        [
            p.scale,
            p.slots_non_monotonic if p.slots_non_monotonic is not None else "infeasible",
            p.slots_monotonic if p.slots_monotonic is not None else "infeasible",
        ]
        for p in points
    ]
    text = "Deadline-tightness sensitivity (paper Table I)\n" + format_table(
        ["scale", "slots (non-monotonic)", "slots (monotonic)"], rows
    )
    return text, points


def _cmd_study(args):
    from repro.pipeline import get_scenario, run_many, scenario_grid, scenarios

    if args.list:
        registered = scenarios()
        text = "Registered scenarios\n" + format_table(
            ["name", "source", "description"],
            [[s.name, s.source, s.description] for s in registered],
        )
        return text, {s.name: s.to_dict() for s in registered}

    try:
        selected = [
            get_scenario(name) for name in (args.scenario or ["paper-table1"])
        ]
    except KeyError as exc:
        # surface unknown names as a domain error, not a traceback
        raise ValueError(exc.args[0]) from None
    if args.wait_step is not None:
        selected = [
            s.derive(name=s.name, wait_step=_wait_step(args)) for s in selected
        ]
    if args.seed is not None:
        # Reproducible co-simulation from the shell: the seed reaches
        # FlexRayNetwork.loss_seed and the sporadic disturbance streams.
        selected = [s.derive(name=s.name, seed=args.seed) for s in selected]
    if args.grid:
        selected = [point for s in selected for point in scenario_grid(s)]
    results = run_many(selected, max_workers=args.jobs, executor=args.executor)
    text = "\n\n".join(result.summary() for result in results)
    data = results[0].to_dict() if len(results) == 1 else [r.to_dict() for r in results]
    return text, data


def _parse_axis(text: str):
    """``field=v1,v2,...`` with ints/floats/bools parsed, else strings."""
    if "=" not in text:
        raise ValueError(
            f"bad --axis {text!r}; expected FIELD=VALUE[,VALUE...]"
        )
    name, _, raw = text.partition("=")
    values = []
    for token in raw.split(","):
        token = token.strip()
        if not token:
            continue
        lowered = token.lower()
        if lowered in ("true", "false"):
            values.append(lowered == "true")
            continue
        for kind in (int, float):
            try:
                values.append(kind(token))
                break
            except ValueError:
                continue
        else:
            values.append(token)
    if not values:
        raise ValueError(f"--axis {text!r} has no values")
    return name.strip(), values


def _cmd_sweep(args):
    from repro.pipeline import get_scenario, run_sweep

    try:
        base = get_scenario(args.scenario)
    except KeyError as exc:
        raise ValueError(exc.args[0]) from None
    if args.wait_step is not None:
        base = base.derive(name=base.name, wait_step=_wait_step(args))
    axes = {}
    for text in args.axis or []:
        name, values = _parse_axis(text)
        if name in axes:
            raise ValueError(
                f"--axis {name!r} given twice; put every value in one flag, "
                f"e.g. --axis {name}={','.join(map(str, axes[name] + values))}"
            )
        axes[name] = values
    if args.fabric is not None:
        return _run_fabric_sweep_cmd(args, base, axes)
    if args.resume:
        raise ValueError("--resume needs --fabric (it resumes a fabric JSONL)")
    if args.chaos_profile is not None or args.chaos_seed is not None:
        raise ValueError(
            "--chaos-profile/--chaos-seed need --fabric (chaos storms "
            "exercise the fleet's recovery machinery)"
        )
    result = run_sweep(
        base,
        axes=axes,
        replications=args.replications,
        seed0=args.seed0,
        executor=args.executor,
        max_workers=args.jobs,
        jsonl_path=args.output,
        keep_results=False,
        ci_target=args.ci_target,
        ci_relative=args.ci_relative,
        max_replications=args.max_replications,
        budget=args.budget,
    )
    text = result.report()
    if args.output:
        text += f"\nper-run JSONL streamed to {args.output}"
    return text, result.to_dict()


def _run_fabric_sweep_cmd(args, base, axes):
    """``repro sweep --fabric N``: run the grid on a local worker fleet.

    Bitwise identical to the serial path on the same spec; ``--resume``
    re-reads the ``--output`` JSONL as the done-set, so a killed sweep
    continues where it stopped instead of recomputing landed rows (a
    torn final line — the killed-writer artifact — is recovered and
    reported).  ``--chaos-profile``/``--chaos-seed`` run the fleet
    under a named seeded fault storm; the result must still match the
    serial path bitwise.
    """
    from repro.fabric import run_fabric_sweep

    if args.ci_target is not None or args.budget is not None or args.max_replications is not None:
        raise ValueError(
            "adaptive stopping (--ci-target/--max-replications/--budget) "
            "needs round barriers and runs single-host; drop --fabric or "
            "the adaptive flags"
        )
    if args.fabric < 1:
        raise ValueError(f"--fabric needs at least 1 worker, got {args.fabric}")
    if args.resume and not args.output:
        raise ValueError("--resume needs --output (the JSONL to resume from)")
    if args.chaos_seed is not None and args.chaos_profile is None:
        raise ValueError(
            "--chaos-seed needs --chaos-profile (the storm to seed)"
        )
    result = run_fabric_sweep(
        base,
        axes=axes,
        replications=args.replications,
        seed0=args.seed0,
        workers=args.fabric,
        worker_mode=args.worker_mode,
        lease_timeout=args.lease_timeout,
        max_attempts=args.max_attempts,
        jsonl_path=args.output,
        resume_path=args.output if args.resume else None,
        keep_results=False,
        chaos_seed=args.chaos_seed,
        chaos_profile=args.chaos_profile,
    )
    fabric = result.config.get("fabric", {})
    text = result.report()
    text += (
        f"\nfabric: {args.fabric} {args.worker_mode} worker(s), "
        f"{len(fabric.get('requeues', []))} requeue(s), "
        f"{fabric.get('resumed', 0)} row(s) resumed, "
        f"{fabric.get('recovered_tail', 0)} torn row(s) recovered"
    )
    if args.chaos_profile is not None:
        chaos = fabric.get("chaos", {})
        text += (
            f"\nchaos: profile {chaos.get('profile')} seed {chaos.get('seed')}, "
            f"{fabric.get('protocol_errors', 0)} protocol error(s), "
            f"{fabric.get('read_timeouts', 0)} read timeout(s), "
            f"{fabric.get('duplicates_ignored', 0)} duplicate(s) ignored"
        )
    if args.output:
        text += f"\nper-run JSONL streamed to {args.output}"
    return text, result.to_dict()


def _cmd_worker(args):
    """``repro worker --connect HOST:PORT``: one fabric worker loop."""
    from repro.fabric import FabricWorker, chaos_plan, parse_endpoint

    host, port = parse_endpoint(args.connect)
    if args.chaos_seed is not None and args.chaos_profile is None:
        raise ValueError("--chaos-seed needs --chaos-profile (the storm to seed)")
    fault_plan = None
    if args.chaos_profile is not None:
        fault_plan = chaos_plan(
            args.chaos_profile,
            args.chaos_seed if args.chaos_seed is not None else 0,
            worker_index=args.chaos_index,
            fleet_size=args.chaos_fleet,
        )
    worker = FabricWorker(
        host,
        port,
        worker_id=args.id,
        die_after=args.die_after,
        fault_plan=fault_plan,
    )
    done = worker.run()
    text = f"{worker.worker_id}: {done} job(s) completed"
    data = {
        "worker": worker.worker_id,
        "jobs_done": done,
        "stats": dict(worker.stats),
    }
    return text, data


def _cmd_serve(args):
    """``repro serve``: run the content-addressed design-study service."""
    from repro.fabric import StudyService

    service = StudyService(host=args.host, port=args.port, pool_size=args.pool_size)
    service.start()
    # announce the bound endpoint up-front (port 0 means "pick one"),
    # so scripts can read it before the server blocks
    print(f"study service listening on {service.host}:{service.port}", flush=True)
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        service.stop()
    jobs = {job_id: record.snapshot() for job_id, record in service.jobs.items()}
    return f"study service stopped after {len(jobs)} job(s)", {"jobs": jobs}


def _cmd_lint(args):
    """Static determinism-contract analysis (``repro.qa``).

    Returns a third tuple element — the process exit code — so a dirty
    tree gates CI (0 clean, 1 error findings, 2 usage errors).
    """
    from repro.qa import all_rules, lint_paths, render_text, report_dict, rules_by_id

    rules = list(all_rules())
    if args.rule:
        by_id = rules_by_id()
        unknown = [rule_id for rule_id in args.rule if rule_id not in by_id]
        if unknown:
            raise ValueError(
                f"unknown rule id(s) {', '.join(unknown)}; "
                f"available: {', '.join(sorted(by_id))}"
            )
        rules = [by_id[rule_id] for rule_id in args.rule]
    paths = args.paths or ["src"]
    result = lint_paths(paths, rules=rules)
    return (
        render_text(result),
        report_dict(result, paths, rules),
        result.exit_code,
    )


def _cmd_solvers(args):
    """List registered solver backends with their capability metadata."""
    from repro.solvers import solver_table

    table = solver_table()
    allocator_rows = [
        [
            spec["name"],
            "yes" if spec["optimal"] else "no",
            spec["complexity"],
            "any" if spec["methods"] is None else ",".join(spec["methods"]),
            spec["max_apps"] if spec["max_apps"] is not None else "-",
            "yes" if spec["randomized"] else "no",
            spec["summary"],
        ]
        for spec in table["allocators"]
    ]
    method_rows = [
        [
            spec["name"],
            "yes" if spec["exact"] else "no",
            spec["bound"],
            "yes" if spec["safe"] else "no",
            spec["summary"],
        ]
        for spec in table["analysis_methods"]
    ]
    text = (
        "Registered allocators\n"
        + format_table(
            ["name", "optimal", "complexity", "methods", "max apps", "randomized", "summary"],
            allocator_rows,
        )
        + "\n\nRegistered analysis methods\n"
        + format_table(
            ["name", "exact", "bound", "safe", "summary"], method_rows
        )
    )
    return text, table


def _cmd_networks(args):
    """List registered network backends with their family metadata."""
    from repro.sim.network import network_table

    table = network_table()
    rows = [
        [
            spec["name"],
            "yes" if spec["deterministic"] else "no",
            "yes" if spec["analytic_delays"] else "no",
            spec["loss"],
            spec["summary"],
        ]
        for spec in table
    ]
    text = "Registered network backends\n" + format_table(
        ["name", "deterministic", "analytic", "loss", "summary"], rows
    )
    return text, {"networks": table}


def _cmd_all(args):
    """Regenerate every artefact in one pass (paper-exact parts first)."""
    sections = [
        ("allocation", _cmd_allocation),
        ("table1", _cmd_table1),
        ("fig1", _cmd_fig1),
        ("fig3", _cmd_fig3),
        ("fig4", _cmd_fig4),
        ("fig5", _cmd_fig5),
        ("ablations", _cmd_ablations),
        ("validate", _cmd_validate),
        ("sensitivity", _cmd_sensitivity),
    ]
    texts = []
    data = {}
    for name, command in sections:
        text, section_data = command(args)
        texts.append(text)
        data[name] = section_data
    rule = "\n" + "=" * 72 + "\n"
    return rule.join(texts), data


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate artefacts of the DATE 2019 CPS resource paper.",
    )
    parser.add_argument(
        "--wait-step",
        type=int,
        default=None,
        help="dwell-sweep stride in samples (higher = faster, coarser)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        default=False,
        help="emit machine-readable JSON instead of ASCII reports",
    )
    # The same flags are accepted after the subcommand (the documented
    # position); SUPPRESS keeps the subparser from clobbering top-level
    # values when the flag is omitted there.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--wait-step", type=int, default=argparse.SUPPRESS)
    common.add_argument("--json", action="store_true", default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser(
        "fig1", parents=[common], help="Figure 1: scheme state-machine demonstration"
    )
    sub.add_parser(
        "fig3", parents=[common], help="Figure 3: dwell/wait relation on the servo rig"
    )
    sub.add_parser("fig4", parents=[common], help="Figure 4: PWL dwell models")

    p_table = sub.add_parser(
        "table1", parents=[common], help="Table I timing parameters"
    )
    p_table.add_argument("--paper-only", action="store_true")

    p_alloc = sub.add_parser(
        "allocation", parents=[common], help="Section V slot allocation"
    )
    p_alloc.add_argument("--simulated", action="store_true")

    p_fig5 = sub.add_parser("fig5", parents=[common], help="Figure 5 co-simulation")
    p_fig5.add_argument("--plots", action="store_true")
    p_fig5.add_argument("--analytic", action="store_true")
    p_fig5.add_argument(
        "--kernel",
        choices=list(KERNELS),
        default="auto",
        help=(
            "co-simulation kernel (auto = the batch fast path, event = "
            "the reference kernel; traces are identical across kernels)"
        ),
    )

    p_abl = sub.add_parser(
        "ablations",
        parents=[common],
        help="E6-E8, E11 (jitter) and E12 (kernel) ablations",
    )
    p_abl.add_argument(
        "--which",
        choices=["segments", "fixed-point", "threshold", "jitter", "kernel", "all"],
        default="all",
    )

    p_val = sub.add_parser(
        "validate", parents=[common], help="E9-E10 soundness validation"
    )
    p_val.add_argument("--seeds", type=int, default=5)

    p_sens = sub.add_parser(
        "sensitivity", parents=[common], help="deadline-tightness sweep"
    )
    p_sens.add_argument(
        "--scales", type=float, nargs="+", default=[0.5, 0.75, 1.0, 1.5, 2.0]
    )

    p_study = sub.add_parser(
        "study",
        parents=[common],
        help="run declarative pipeline scenarios (see --list)",
    )
    p_study.add_argument(
        "--scenario",
        action="append",
        metavar="NAME",
        help="registered scenario name (repeatable; default paper-table1)",
    )
    p_study.add_argument(
        "--grid",
        action="store_true",
        help="expand each scenario into the default sweep grid "
        "(deadline scales x dwell shapes x allocators)",
    )
    p_study.add_argument(
        "--jobs", type=int, default=None, help="parallel workers for the sweep"
    )
    p_study.add_argument(
        "--executor",
        choices=["thread", "process"],
        default="thread",
        help="worker pool kind (process sidesteps the GIL for co-sim grids)",
    )
    p_study.add_argument(
        "--seed",
        type=int,
        default=None,
        help="base random seed (frame loss + sporadic disturbance arrivals)",
    )
    p_study.add_argument(
        "--list", action="store_true", help="list registered scenarios and exit"
    )

    p_sweep = sub.add_parser(
        "sweep",
        parents=[common],
        help="seeded Monte-Carlo replication grid over one scenario",
    )
    p_sweep.add_argument(
        "--scenario",
        default="multirate-cosim-analytic",
        metavar="NAME",
        help="base scenario to expand (default multirate-cosim-analytic)",
    )
    p_sweep.add_argument(
        "--axis",
        action="append",
        metavar="FIELD=V1,V2,...",
        help="grid axis over a scenario field (repeatable), "
        "e.g. --axis loss_rate=0,0.05 --axis deadline_scale=1,0.75",
    )
    p_sweep.add_argument(
        "--replications",
        type=int,
        default=3,
        help="seeded repeats per grid cell (default 3); with --ci-target "
        "this is the per-cell minimum before stopping is considered",
    )
    p_sweep.add_argument(
        "--ci-target",
        type=float,
        default=None,
        metavar="HW",
        help="adaptive mode: stop a cell once its QoC 95%% CI half-width "
        "is <= HW and re-grant the freed budget to high-variance cells "
        "(needs --max-replications and/or --budget)",
    )
    p_sweep.add_argument(
        "--ci-relative",
        action="store_true",
        default=False,
        help="interpret --ci-target as a fraction of each cell's |mean| "
        "instead of an absolute half-width",
    )
    p_sweep.add_argument(
        "--max-replications",
        type=int,
        default=None,
        metavar="N",
        help="adaptive mode: per-cell replication ceiling",
    )
    p_sweep.add_argument(
        "--budget",
        type=int,
        default=None,
        metavar="N",
        help="adaptive mode: global replication ceiling across all cells",
    )
    p_sweep.add_argument(
        "--seed0", type=int, default=0, help="first replication seed"
    )
    p_sweep.add_argument(
        "--executor",
        choices=["thread", "process"],
        default="thread",
        help="worker pool kind (process recommended for co-sim grids)",
    )
    p_sweep.add_argument(
        "--jobs", type=int, default=None, help="parallel workers"
    )
    p_sweep.add_argument(
        "--output",
        metavar="PATH",
        default=None,
        help="stream one JSON line per finished run to this file",
    )
    p_sweep.add_argument(
        "--fabric",
        type=int,
        default=None,
        metavar="N",
        help="run the grid on a local fleet of N fabric workers "
        "(content-addressed jobs; bitwise identical to the serial path)",
    )
    p_sweep.add_argument(
        "--worker-mode",
        choices=["thread", "process"],
        default="thread",
        help="fabric worker kind (process = real subprocesses over TCP)",
    )
    p_sweep.add_argument(
        "--resume",
        action="store_true",
        default=False,
        help="adopt finished rows from the --output JSONL before "
        "dispatching (worker-failed rows are retried)",
    )
    p_sweep.add_argument(
        "--lease-timeout",
        type=float,
        default=30.0,
        metavar="SEC",
        help="fabric: seconds a leased job may go without result or "
        "heartbeat before re-queueing (default 30)",
    )
    p_sweep.add_argument(
        "--max-attempts",
        type=int,
        default=3,
        metavar="N",
        help="fabric: lease attempts per job before it is recorded as a "
        "worker failure (default 3)",
    )
    p_sweep.add_argument(
        "--chaos-profile",
        choices=list(_CHAOS_PROFILES),
        default=None,
        metavar="PROFILE",
        help="fabric: run the fleet under this named seeded fault storm "
        f"({', '.join(_CHAOS_PROFILES)}); the merged result must still "
        "match the serial path bitwise",
    )
    p_sweep.add_argument(
        "--chaos-seed",
        type=int,
        default=None,
        metavar="N",
        help="fabric: chaos storm seed (default 0); the same seed "
        "reproduces the same fault sequence and recovery counts",
    )

    p_worker = sub.add_parser(
        "worker",
        parents=[common],
        help="fabric worker: lease sweep jobs from a coordinator",
    )
    p_worker.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="coordinator endpoint to lease jobs from",
    )
    p_worker.add_argument(
        "--id", default=None, metavar="NAME", help="worker id (default pid-derived)"
    )
    p_worker.add_argument(
        "--die-after",
        type=int,
        default=None,
        metavar="N",
        help="fault injection: drop the connection when leasing job N+1",
    )
    p_worker.add_argument(
        "--chaos-profile",
        choices=list(_CHAOS_PROFILES),
        default=None,
        metavar="PROFILE",
        help="run this worker's connection under a named seeded fault storm",
    )
    p_worker.add_argument(
        "--chaos-seed",
        type=int,
        default=None,
        metavar="N",
        help="chaos storm seed (default 0)",
    )
    p_worker.add_argument(
        "--chaos-index",
        type=int,
        default=0,
        metavar="I",
        help="this worker's index in the chaos fleet plan (default 0)",
    )
    p_worker.add_argument(
        "--chaos-fleet",
        type=int,
        default=1,
        metavar="N",
        help="chaos fleet size the plan is derived for (default 1)",
    )

    p_serve = sub.add_parser(
        "serve",
        parents=[common],
        help="content-addressed design-study service (submit/status/fetch)",
    )
    p_serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    p_serve.add_argument(
        "--port", type=int, default=0, help="bind port (default 0 = ephemeral)"
    )
    p_serve.add_argument(
        "--pool-size",
        type=int,
        default=2,
        metavar="N",
        help="study executor threads (default 2)",
    )

    sub.add_parser(
        "solvers",
        parents=[common],
        help="list registered allocator/analysis backends and capabilities",
    )

    sub.add_parser(
        "networks",
        parents=[common],
        help="list registered co-simulation network backends",
    )

    p_lint = sub.add_parser(
        "lint",
        parents=[common],
        help="static determinism-contract analysis (QA001-QA005)",
    )
    p_lint.add_argument(
        "paths",
        nargs="*",
        metavar="PATH",
        help="files or directories to lint (default: src)",
    )
    p_lint.add_argument(
        "--rule",
        action="append",
        metavar="ID",
        help="run only this rule (repeatable), e.g. --rule QA003",
    )

    p_all = sub.add_parser(
        "all", parents=[common], help="regenerate every artefact in one pass"
    )
    p_all.add_argument("--paper-only", action="store_true")
    p_all.add_argument("--simulated", action="store_true")
    p_all.add_argument("--plots", action="store_true")
    p_all.add_argument("--analytic", action="store_true")
    p_all.add_argument("--which", default="all")
    p_all.add_argument("--seeds", type=int, default=3)
    p_all.add_argument(
        "--scales", type=float, nargs="+", default=[0.5, 0.75, 1.0, 1.5, 2.0]
    )

    return parser


_COMMANDS = {
    "fig1": _cmd_fig1,
    "fig3": _cmd_fig3,
    "fig4": _cmd_fig4,
    "table1": _cmd_table1,
    "allocation": _cmd_allocation,
    "fig5": _cmd_fig5,
    "ablations": _cmd_ablations,
    "validate": _cmd_validate,
    "sensitivity": _cmd_sensitivity,
    "study": _cmd_study,
    "sweep": _cmd_sweep,
    "worker": _cmd_worker,
    "serve": _cmd_serve,
    "solvers": _cmd_solvers,
    "networks": _cmd_networks,
    "lint": _cmd_lint,
    "all": _cmd_all,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # Handlers return (text, data) or (text, data, exit_code);
        # ``lint`` uses the third form to gate CI on findings.
        outcome = _COMMANDS[args.command](args)
    except ValueError as exc:
        # Domain errors (unknown scenario, bad stride, infeasible set)
        # surface as a clean CLI diagnostic, not a traceback.
        message = exc.args[0] if exc.args else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return 2
    text, data = outcome[0], outcome[1]
    code = outcome[2] if len(outcome) == 3 else 0
    if args.json:
        print(json.dumps(to_jsonable(data), indent=2))
    else:
        print(text)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
