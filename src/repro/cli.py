"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``models``
    List the model zoo.
``plan``
    Run the DiffusionPipe front-end for one model/cluster/batch and
    print the chosen configuration (optionally dumping the plan JSON
    and a Chrome trace of the pipeline timeline).
``sweep``
    Compare DiffusionPipe against all baselines over a batch list.
``table1`` / ``table2``
    Print the profiling tables of §2.
``bench``
    Measure headline performance numbers (cold/warm DP table builds,
    one sweep's wall-clock) and print them, or emit stable-schema JSON
    with ``--json`` for CI artifacts.
``serve``
    Run the concurrent planning service (JSON lines over TCP).
``bench-serve``
    Drive a request stream against cold and snapshot-warmed services.
``snapshot``
    Warm the planner caches with a sweep and persist them to disk.
``analyze``
    Run the static invariant rules (AST engine) over the package —
    cache ownership, registry-only builders, lock discipline,
    determinism, float equality — and exit non-zero on findings.
"""

from __future__ import annotations

import argparse
import sys

from .baselines import (
    DataParallelBaseline,
    GPipeBaseline,
    SPPBaseline,
    Zero3Baseline,
)
from .catalog import MODELS, build_cluster, build_model, group_sizes
from .cluster import p4de_cluster
from .core import (
    DiffusionPipePlanner,
    PlannerOptions,
    extract_bubbles,
    fill_strategy_names,
)
from .errors import ReproError
from .harness import format_table, pct
from .profiling import Profiler
from .schedule import schedule_family_names


def cmd_models(args: argparse.Namespace) -> int:
    rows = []
    for name, factory in MODELS.items():
        model = factory()
        rows.append(
            [
                name,
                model.name,
                ", ".join(model.backbone_names),
                str(sum(c.num_layers for c in model.non_trainable)),
                "yes" if model.self_conditioning else "no",
            ]
        )
    print(
        format_table(
            ["key", "model", "backbones", "frozen layers", "self-cond"], rows
        )
    )
    return 0


def cmd_plan(args: argparse.Namespace) -> int:
    model = build_model(args.model, args.self_conditioning)
    cluster = build_cluster(args.gpus, args.speed_factors)
    profile = Profiler(cluster).profile(model)
    try:
        # Construction validates option combinations too (e.g. an
        # explicit --schedule that mismatches the model's backbone
        # count, or a chunked schedule with --heterogeneous).
        planner = DiffusionPipePlanner(
            model,
            cluster,
            profile,
            options=PlannerOptions(
                group_sizes=group_sizes(cluster),
                keep_timeline=True,
                heterogeneous_replication=args.heterogeneous,
                fill_strategy=args.fill_strategy,
                schedule=args.schedule,
            ),
        )
        ev = planner.plan(args.batch)
    except ReproError as exc:
        print(f"planning failed: {exc}", file=sys.stderr)
        return 1
    plan = ev.plan
    rows = [
        ["configuration", plan.config_label],
        ["schedule", plan.schedule],
        ["iteration", f"{plan.iteration_ms:.1f} ms"],
        ["throughput", f"{plan.throughput:.1f} samples/s"],
        ["bubble ratio", f"{pct(plan.bubble_ratio_unfilled)} -> "
                         f"{pct(plan.bubble_ratio_filled)}"],
        ["NT leftover", f"{plan.leftover_ms:.1f} ms"],
    ]
    if plan.fill is not None:
        fill = plan.fill
        rows.append(["fill strategy", fill.strategy])
        rows.append(["fill fraction", pct(fill.fill_fraction)])
        filled_bubbles = sum(1 for u in fill.per_bubble if u.filled_ms > 0)
        rows.append(["bubbles filled",
                     f"{filled_bubbles}/{fill.num_bubbles}"])
        if fill.candidates_dropped:
            rows.append(["candidates dropped", str(fill.candidates_dropped)])
        if fill.beam_peak:
            rows.append(["beam peak", str(fill.beam_peak)])
            rows.append(["states pruned", str(fill.states_pruned)])
    if plan.memory:
        rows.append(["peak memory", f"{plan.memory.peak_bytes / 1e9:.1f} GB"])
    print(format_table(["metric", "value"],
                       rows, title=f"{model.name} @ batch {args.batch}"))
    if args.out:
        from .export import save_plan

        save_plan(plan, args.out)
        print(f"plan written to {args.out}")
    if args.trace and ev.timeline is not None:
        from .export import timeline_to_chrome_trace

        bubbles = extract_bubbles(ev.timeline)
        meta = {i: (b.start, b.devices) for i, b in enumerate(bubbles)}
        timeline_to_chrome_trace(
            ev.timeline,
            plan.fill.items if plan.fill else (),
            meta,
            path=args.trace,
        )
        print(f"chrome trace written to {args.trace}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    model = build_model(args.model, args.self_conditioning)
    cluster = build_cluster(args.gpus, args.speed_factors)
    profile = Profiler(cluster).profile(model)
    opts = PlannerOptions(
        group_sizes=group_sizes(cluster),
        heterogeneous_replication=args.heterogeneous,
        fill_strategy=args.fill_strategy,
        schedule=args.schedule,
    )
    try:
        planner = DiffusionPipePlanner(model, cluster, profile, options=opts)
    except ReproError as exc:
        print(f"planning failed: {exc}", file=sys.stderr)
        return 1
    engines = []
    if len(model.backbone_names) == 1:
        engines = [
            SPPBaseline(model, cluster, profile, options=opts),
            GPipeBaseline(model, cluster, profile),
            DataParallelBaseline(model, cluster, profile),
            Zero3Baseline(model, cluster, profile),
        ]
    rows = []
    for batch in args.batches:
        row = [str(batch)]
        try:
            row.append(f"{planner.plan(batch).plan.throughput:.0f}")
        except ReproError:
            row.append("OOM")
        for eng in engines:
            try:
                res = eng.run(batch)
                row.append("OOM" if res.oom else f"{res.throughput:.0f}")
            except ReproError:
                row.append("-")
        rows.append(row)
    headers = ["batch", "DiffusionPipe"] + [e.name for e in engines]
    print(format_table(headers, rows,
                       title=f"{model.name} on {args.gpus} GPUs (samples/s)"))
    return 0


def cmd_table1(args: argparse.Namespace) -> int:
    cluster = p4de_cluster(1)
    rows = []
    for key in ("sd", "controlnet"):
        model = build_model(key, None)
        profile = Profiler(cluster).profile(model)
        row = [model.name]
        for b in (8, 16, 32, 64):
            nt = sum(
                profile.component_fwd_ms(c.name, b) for c in model.non_trainable
            )
            t = sum(
                profile.component_train_ms(n, b) for n in model.backbone_names
            )
            row.append(pct(nt / t, 0))
        rows.append(row)
    print(format_table(["Model / Batch size", "8", "16", "32", "64"], rows,
                       title="Table 1 - NT/T forward ratio"))
    return 0


def cmd_table2(args: argparse.Namespace) -> int:
    rows = []
    for key in ("sd", "controlnet"):
        model = build_model(key, None)
        row = [model.name]
        for machines in (1, 2, 4, 8):
            cluster = p4de_cluster(machines)
            profile = Profiler(cluster).profile(model)
            res = DataParallelBaseline(model, cluster, profile).run(
                8 * cluster.world_size
            )
            row.append(pct(res.sync_share))
        rows.append(row)
    print(format_table(["Model / GPU count", "8", "16", "32", "64"], rows,
                       title="Table 2 - sync share of DDP iteration"))
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    from .perf import format_bench, run_bench, write_json

    report = run_bench(best_of=args.best_of, sweep=not args.skip_sweep)
    print(format_bench(report))
    if args.json:
        write_json(report, args.json)
        print(f"bench report written to {args.json}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from .service import PlanService
    from .service.server import serve

    service = PlanService(workers=args.workers, snapshot=args.snapshot)
    serve(
        service,
        args.host,
        args.port,
        ready_cb=lambda port: print(
            f"repro serve listening on {args.host}:{port} "
            f"({args.workers or 'thread'} workers)",
            flush=True,
        ),
    )
    return 0


def cmd_bench_serve(args: argparse.Namespace) -> int:
    from .service.bench import format_report, run_bench

    report = run_bench(
        model=args.model,
        gpus=args.gpus,
        batches=tuple(args.batches),
        repeats=args.repeats,
        snapshot_path=args.snapshot,
        workers=args.workers,
    )
    print(format_report(report))
    return 0 if report["identical_responses"] else 1


def cmd_snapshot(args: argparse.Namespace) -> int:
    from .service import PlanRequest, PlanService

    with PlanService() as service:
        for batch in args.batches:
            service.plan(
                PlanRequest(
                    model=args.model,
                    gpus=args.gpus,
                    batch=batch,
                    heterogeneous=args.heterogeneous,
                    fill_strategy=args.fill_strategy,
                )
            )
        counts = service.snapshot(args.out)
    total = sum(n for name, n in counts.items() if name != "skipped")
    print(f"{total} cache entries written to {args.out}")
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from .analysis import analyze, get_rule, rule_names

    if args.list_rules:
        rows = []
        for name in rule_names():
            rule = get_rule(name)
            rows.append([name, ", ".join(rule.scope), rule.description])
        print(format_table(["rule", "scope", "description"], rows,
                           title="repro analyze rules"))
        return 0
    try:
        selected = tuple(args.rules) if args.rules else rule_names()
        for name in selected:
            get_rule(name)  # validates; unknown ids raise
        findings = analyze(
            paths=[Path(p) for p in args.paths] if args.paths else None,
            rule_names_=selected,
        )
    except ReproError as exc:
        print(f"analysis failed: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(
            {
                "rules": list(selected),
                "count": len(findings),
                "findings": [f.as_dict() for f in findings],
            },
            indent=2,
        ))
    else:
        for finding in findings:
            print(finding.format())
        noun = "finding" if len(findings) == 1 else "findings"
        print(f"repro analyze: {len(findings)} {noun} "
              f"({len(selected)} rules)")
    return 1 if findings else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="DiffusionPipe reproduction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("models", help="list the model zoo").set_defaults(
        func=cmd_models
    )

    def planner_args(p: argparse.ArgumentParser) -> None:
        """Model, cluster and planner options shared by plan and sweep."""
        p.add_argument("--model", default="sd", choices=sorted(MODELS))
        p.add_argument("--gpus", type=int, default=8)
        p.add_argument("--self-conditioning", action="store_true",
                       default=None)
        p.add_argument("--heterogeneous", action="store_true",
                       help="allow per-stage replica counts (non-divisible "
                            "S, D) for all models; for cdm-* each chain "
                            "position's count is shared by its co-located "
                            "down/up stages")
        p.add_argument("--speed-factors", nargs="+", metavar="RANK=FACTOR",
                       help="per-device relative compute speeds (1.0 "
                            "nominal), e.g. '0=0.5' runs rank 0 at half "
                            "speed; the partitioner prices each stage "
                            "window at its bottleneck device")
        p.add_argument("--fill-strategy", default="greedy",
                       choices=fill_strategy_names(),
                       help="bubble-filling policy: greedy (the paper's "
                            "Algorithms 1+2), lookahead (plans across "
                            "bubbles, never worse than greedy), none "
                            "(leave bubbles idle)")
        p.add_argument("--schedule", default="auto",
                       choices=("auto",) + schedule_family_names(),
                       help="pipeline schedule family; auto picks onef1b "
                            "for single-backbone models and bidirectional "
                            "for cascaded ones")

    p = sub.add_parser("plan", help="plan one training configuration")
    planner_args(p)
    p.add_argument("--batch", type=int, default=256)
    p.add_argument("--out", help="write the plan JSON here")
    p.add_argument("--trace", help="write a chrome trace here")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("sweep", help="compare against the baselines")
    planner_args(p)
    p.add_argument("--batches", type=int, nargs="+",
                   default=[64, 128, 256, 384])
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("bench",
                       help="measure headline performance numbers")
    p.add_argument("--best-of", type=int, default=3,
                   help="runs per timing point; floors are reported")
    p.add_argument("--skip-sweep", action="store_true",
                   help="only time table builds (skip the planner sweep)")
    p.add_argument("--json", metavar="PATH",
                   help="also write the report as stable-schema JSON "
                        "(repro-bench/1) for CI artifacts")
    p.set_defaults(func=cmd_bench)

    sub.add_parser("table1", help="print Table 1").set_defaults(func=cmd_table1)
    sub.add_parser("table2", help="print Table 2").set_defaults(func=cmd_table2)

    p = sub.add_parser("serve", help="run the planning service")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7461,
                   help="TCP port (0 picks an ephemeral one)")
    p.add_argument("--workers", type=int, default=0,
                   help="worker processes; 0 evaluates on a thread pool "
                        "sharing one in-process cache")
    p.add_argument("--snapshot",
                   help="warm caches from this snapshot file (see "
                        "'repro snapshot')")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("bench-serve",
                       help="measure cold vs snapshot-warmed service latency")
    p.add_argument("--model", default="sd", choices=sorted(MODELS))
    p.add_argument("--gpus", type=int, default=8)
    p.add_argument("--batches", type=int, nargs="+", default=[64, 128, 256])
    p.add_argument("--repeats", type=int, default=2)
    p.add_argument("--workers", type=int, default=0)
    p.add_argument("--snapshot", help="keep the snapshot file here")
    p.set_defaults(func=cmd_bench_serve)

    p = sub.add_parser("snapshot",
                       help="warm the planner caches and persist them")
    p.add_argument("--model", default="sd", choices=sorted(MODELS))
    p.add_argument("--gpus", type=int, default=8)
    p.add_argument("--batches", type=int, nargs="+",
                   default=[64, 128, 256, 384])
    p.add_argument("--heterogeneous", action="store_true")
    p.add_argument("--fill-strategy", default="greedy",
                   choices=fill_strategy_names())
    p.add_argument("--out", required=True, help="snapshot file to write")
    p.set_defaults(func=cmd_snapshot)

    p = sub.add_parser(
        "analyze",
        help="run the static invariant rules over the package",
    )
    p.add_argument("paths", nargs="*",
                   help="files or directories to analyze (default: the "
                        "installed repro package)")
    p.add_argument("--rule", action="append", dest="rules", metavar="ID",
                   help="run only this rule (repeatable); unknown ids "
                        "are rejected with the sorted catalog")
    p.add_argument("--list-rules", action="store_true",
                   help="print the rule catalog and exit")
    p.add_argument("--json", action="store_true",
                   help="machine-readable findings (stable schema: "
                        "rules, count, findings[path/line/rule/message])")
    p.set_defaults(func=cmd_analyze)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        raise SystemExit(str(exc)) from exc


if __name__ == "__main__":
    raise SystemExit(main())
