"""Command-line front end.

Subcommands: form, train, allreduce-bench, verify, sweep. Exit codes:
0 success, 1 usage or IO problem, 2 infeasible, 3 invariant violation.
RAVNEST_SEED overrides the config seed.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

from . import clusterform, configio, data, modelcore, multiring, oracle, orchestrator, pipeline
from .clusterform import GAParams, ModelFootprint
from .errors import (
    ConfigError,
    FlowControlError,
    InfeasibleError,
    LayoutError,
    MeasurementError,
    NumericError,
    PartitionError,
    ProtocolError,
    RavnestError,
    SchemaError,
    StalenessError,
    StallError,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_VIOLATION = 3


def _seed_override(seed: int) -> int:
    env = os.environ.get("RAVNEST_SEED")
    if env is not None:
        try:
            seed = int(env)
        except ValueError as exc:
            raise ConfigError(f"RAVNEST_SEED must be an integer, got {env!r}") from exc
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    return seed


def _load_config(path) -> configio.ExperimentConfig:
    """Parse an experiment config; RAVNEST_SEED overrides each of its seeds."""
    cfg = configio.parse_experiment_config(path)
    cfg.seed = cfg.train.seed = cfg.ga.seed = _seed_override(cfg.seed)
    return cfg


def _load_plan_for(cfg: configio.ExperimentConfig) -> clusterform.SessionPlan:
    pool = configio.parse_inventory(cfg.inventory_path.read_text())
    if cfg.topology_path is not None:
        nodes, _, _ = configio.parse_topology(cfg.topology_path.read_text())
        pool = [nodes[n.node_id] if n.node_id in nodes else n for n in pool]
    model = cfg.model()
    footprint = ModelFootprint.from_model(model, cfg.train.batch_size)
    return clusterform.plan_session(pool, footprint, cfg.q, model, cfg.ga)


def cmd_form(args) -> int:
    inventory_path = Path(args.inventory)
    if not inventory_path.exists():
        print(f"error: inventory file not found: {inventory_path}", file=sys.stderr)
        return EXIT_USAGE
    footprint_path = Path(args.model_footprint)
    if not footprint_path.exists():
        print(f"error: footprint file not found: {footprint_path}", file=sys.stderr)
        return EXIT_USAGE
    pool = configio.parse_inventory(inventory_path.read_text())
    model, batch_size = configio.parse_footprint(footprint_path.read_text())
    footprint = ModelFootprint.from_model(model, batch_size)
    seed = _seed_override(args.seed)
    plan = clusterform.plan_session(
        pool, footprint, args.q, model, GAParams(seed=seed)
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "plan.txt").write_text(configio.serialize_plan(plan))
    (out / "rings.txt").write_text(plan.ring_schedule.dump())
    print(f"feasible plan with {plan.q} clusters, {len(plan.ring_schedule.rings)} rings")
    print(f"wrote {out / 'plan.txt'}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _load_config(args.config)
    model = cfg.model()
    if args.plan:
        plan = configio.parse_plan(Path(args.plan).read_text())
        if plan.model.arch != tuple(cfg.arch) or plan.model.loss != cfg.loss:
            raise ConfigError(
                f"plan was built for arch {plan.model.arch}/{plan.model.loss}, "
                f"config wants {tuple(cfg.arch)}/{cfg.loss}"
            )
    else:
        plan = _load_plan_for(cfg)
    peers = [len(plan.pipelines[cid]) for cid in plan.cluster_ids]
    cfg.train.validate(peers)
    if args.dry_run:
        print(f"config ok: {len(peers)} clusters, peers per cluster {peers}, "
              f"k_target={cfg.train.k_target}, kappa={cfg.train.kappa}")
        return EXIT_OK

    _, params = modelcore.build_model(cfg.arch, cfg.seed, cfg.activation, cfg.loss)
    dataset = data.make_dataset(cfg.generator, model, cfg.n_samples, cfg.seed, cfg.noise)
    out = Path(args.out) if args.out else Path(cfg.out_dir) / cfg.name
    out.mkdir(parents=True, exist_ok=True)
    try:
        result = orchestrator.train(model, params.values, plan, cfg.train, dataset,
                                     link_overrides=cfg.link_overrides)
    except NumericError as exc:
        ckpt = out / "last_good.ckpt"
        if exc.checkpoint_values is not None:
            configio.write_checkpoint(ckpt, exc.checkpoint_values)
            print(f"error: {exc}; last good parameters in {ckpt}", file=sys.stderr)
        raise

    (out / "config.resolved.txt").write_text(configio.resolved_config_text(cfg))
    (out / "plan.txt").write_text(configio.serialize_plan(plan))
    metrics_csv = result.metrics_csv()
    (out / "metrics.csv").write_text(metrics_csv)
    for cid in plan.cluster_ids:
        (out / f"staleness_c{cid}.csv").write_text(pipeline.staleness_csv(result.staleness[cid]))
    summary = result.summary()
    (out / "summary.txt").write_text(configio.write_summary(summary))
    configio.write_checkpoint(out / "final.ckpt", result.mean_values)
    if result.net_trace_csv is not None:
        (out / "trace.csv").write_text(result.net_trace_csv)
    manifest = {
        "config_sha256": configio.sha256_file(args.config),
        "inventory_sha256": configio.sha256_file(cfg.inventory_path),
        "plan_sha256": configio.sha256_bytes(configio.serialize_plan(plan).encode()),
        "metrics_sha256": result.metrics_hash(),
        "seed": cfg.seed,
        "eta_used": repr(result.eta_used),
    }
    if cfg.topology_path:
        manifest["topology_sha256"] = configio.sha256_file(cfg.topology_path)
    (out / "manifest.txt").write_text(configio.write_manifest(manifest))
    print(
        f"t={result.clock.t} cycles={result.clock.cycle} "
        f"final_loss={result.final_loss:.6g} max_tau={result.max_tau()} "
        f"virtual_time={result.virtual_time:.6g}"
    )
    print(f"wrote {out}/metrics.csv")
    return EXIT_OK


def cmd_allreduce_bench(args) -> int:
    try:
        sizes = [float(s) for s in args.sizes.split(",") if s.strip()]
    except ValueError:
        raise ConfigError(f"--sizes must be byte counts, got {args.sizes!r}") from None
    if not sizes:
        raise ConfigError("--sizes requires at least one byte count")
    if not all(0 < size < math.inf for size in sizes):
        raise ConfigError(f"--sizes must be positive and finite, got {args.sizes!r}")
    # one cluster has no all-reduce, and its zero-cost baseline has no ratio
    if args.clusters < 2 or args.rings < 1:
        raise ConfigError("--clusters must be >= 2 and --rings >= 1")
    if not (0 < args.bandwidth < math.inf and 0 <= args.latency < math.inf):
        raise ConfigError("--bandwidth must be positive and --latency >= 0, both finite")
    rows = ["clusters,rings,param_bytes,rounds,bytes_per_member,multi_ring_s,single_ring_s,ratio"]
    for size in sizes:
        n_params = max(args.rings, int(size // 8))
        per = n_params // args.rings
        layout = []
        start = 0
        for r in range(args.rings):
            length = per + (n_params % args.rings if r == args.rings - 1 else 0)
            layout.append(multiring.ParamRange(start, length))
            start += length
        layouts = {cid: list(layout) for cid in range(args.clusters)}
        schedule = multiring.build_ring_schedule(layouts)
        report = multiring.allreduce_cost(schedule, args.bandwidth, args.latency)
        r0 = report.rings[0]
        rows.append(
            f"{args.clusters},{len(report.rings)},{n_params * 8},{r0.rounds},"
            f"{r0.bytes_per_member!r},{report.critical_seconds!r},"
            f"{report.single_ring_seconds!r},{report.critical_ratio!r}"
        )
    table = "\n".join(rows) + "\n"
    print(table, end="")
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text("# schema: ravnest-bench-v1\n" + table)
    return EXIT_OK


def cmd_verify(args) -> int:
    report = oracle.run_verification()
    print(report.to_text())
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(report.to_csv())
    return EXIT_OK if report.all_passed else EXIT_VIOLATION


def cmd_sweep(args) -> int:
    cfg = _load_config(args.config)
    try:
        values = [int(v) for v in args.values.split(",") if v.strip()]
    except ValueError:
        raise ConfigError(f"--values must be integers, got {args.values!r}") from None
    if not values:
        print("error: --values requires at least one entry", file=sys.stderr)
        return EXIT_USAGE
    if args.param not in ("q", "c"):
        print(f"error: unsupported sweep parameter {args.param!r}", file=sys.stderr)
        return EXIT_USAGE
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    model = cfg.model()
    rows = ["q,updates,allreduce_cycles,final_loss,max_tau,virtual_time"]
    for q in values:
        cfg.q = q
        plan = _load_plan_for(cfg)
        peers = [len(plan.pipelines[cid]) for cid in plan.cluster_ids]
        cfg.train.validate(peers)
        _, params = modelcore.build_model(cfg.arch, cfg.seed, cfg.activation, cfg.loss)
        dataset = data.make_dataset(cfg.generator, model, cfg.n_samples, cfg.seed, cfg.noise)
        result = orchestrator.train(model, params.values, plan, cfg.train, dataset,
                                     link_overrides=cfg.link_overrides)
        rows.append(
            f"{q},{result.clock.t},{result.clock.cycle},{result.final_loss!r},"
            f"{result.max_tau()},{result.virtual_time!r}"
        )
    (out / "sweep.csv").write_text("# schema: ravnest-sweep-v1\n" + "\n".join(rows) + "\n")
    print("\n".join(rows))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ravnest",
        description="Desk-scale decentralized asynchronous training testbed",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("form", help="cluster a node inventory and emit a session plan")
    p.add_argument("--inventory", required=True)
    p.add_argument("--model-footprint", required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="plan_out")
    p.set_defaults(fn=cmd_form)

    p = sub.add_parser("train", help="run the full decentralized training loop")
    p.add_argument("--config", required=True)
    p.add_argument("--plan", default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--dry-run", action="store_true")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("allreduce-bench", help="cost table: multi-ring vs single ring")
    p.add_argument("--clusters", type=int, default=3)
    p.add_argument("--rings", type=int, default=2)
    p.add_argument("--sizes", default="", help="comma-separated parameter byte counts")
    p.add_argument("--bandwidth", type=float, default=1e8)
    p.add_argument("--latency", type=float, default=0.0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_allreduce_bench)

    p = sub.add_parser("verify", help="run the oracle suite")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("sweep", help="sweep cluster counts and concatenate summaries")
    p.add_argument("--config", required=True)
    p.add_argument("--param", default="q")
    p.add_argument("--values", required=True)
    p.add_argument("--out", default="sweep_out")
    p.set_defaults(fn=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except (ConfigError, SchemaError, FileNotFoundError, IsADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (InfeasibleError, PartitionError) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (
        StallError,
        StalenessError,
        NumericError,
        ProtocolError,
        FlowControlError,
        LayoutError,
        MeasurementError,
    ) as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except RavnestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
