"""File formats: topology, inventory, footprint, plan, experiment config,
summary, manifest, and binary checkpoints.

Everything textual is flat key=value under [sections] or whitespace rows;
no nesting, no includes. Every emitted file carries a schema tag and the
readers reject unknown versions.
"""

from __future__ import annotations

import configparser
import hashlib
import math
import struct
from dataclasses import MISSING, dataclass, field, fields
from itertools import zip_longest
from operator import attrgetter
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np

from . import data, modelcore
from .clusterform import GAParams, ModelFootprint, SessionPlan, plan_session
from .errors import (
    ConfigError, InfeasibleError, LayoutError, PartitionError, SchemaError, TopologyError,
)
from .modelcore import ModelSpec
from .orchestrator import TrainConfig
from .simnet import LinkSpec, NodeSpec

PLAN_SCHEMA = "ravnest-plan-v1"
SUMMARY_SCHEMA = "ravnest-summary-v1"
MANIFEST_SCHEMA = "ravnest-manifest-v1"
CHECKPOINT_MAGIC = b"RAVNCKPT"
CHECKPOINT_VERSION = 1


def _clean_lines(text: str):
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line


def _sections(text: str) -> dict[str, list[str]]:
    out: dict[str, list[str]] = {}
    current = None
    for line in _clean_lines(text):
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            out.setdefault(current, [])
        else:
            if current is None:
                raise SchemaError(f"content before any section header: {line!r}")
            out[current].append(line)
    return out


def _key_values(lines: list[str], what: str, allowed: set[str], required=()) -> dict[str, str]:
    """``key = value`` lines of one section, checked against its key set."""
    kv = {}
    for line in lines:
        key, sep, val = line.partition("=")
        if not sep:
            raise SchemaError(f"{what}: expected key = value, got {line!r}")
        kv[key.strip()] = val.strip()
    unknown = set(kv) - allowed
    if unknown:
        raise SchemaError(f"unknown {what} keys: {sorted(unknown)}")
    for key in required:
        if key not in kv:
            raise SchemaError(f"{what} missing {key!r}")
    return kv


def _ints(fields: list[str], what: str, n: int | None = None) -> list[int]:
    """``fields`` converted to integers; ``n``, if given, is the required count."""
    try:
        values = [int(v) for v in fields]
    except ValueError:
        raise SchemaError(f"{what}: expected integers, got {fields}") from None
    if n is not None and len(values) != n:
        raise SchemaError(f"{what}: expected {n} integers, got {len(values)}")
    return values


# ---------------------------------------------------------------------------
# topology and inventory


def _node_row(line: str) -> NodeSpec:
    """``node_id ram_bytes bandwidth_Bps [speed_factor]``"""
    parts = line.split()
    if len(parts) not in (3, 4):
        raise SchemaError(f"node row needs 3 or 4 fields: {line!r}")
    try:
        return NodeSpec(parts[0], *(float(v) for v in parts[1:]))
    except ValueError:
        raise SchemaError(f"node row has a non-numeric field: {line!r}") from None


def _node_rows(nodes) -> list[str]:
    return [f"{n.node_id} {n.ram_bytes!r} {n.bandwidth_Bps!r} {n.speed_factor!r}" for n in nodes]


def parse_inventory(text: str) -> list[NodeSpec]:
    """Rows: node_id ram_bytes bandwidth_Bps [speed_factor]."""
    # a [nodes] header is tolerated
    nodes = [_node_row(line) for line in _clean_lines(text) if not line.startswith("[")]
    if not nodes:
        raise SchemaError("inventory holds no nodes")
    return nodes


def serialize_inventory(nodes: list[NodeSpec]) -> str:
    lines = ["# node_id ram_bytes bandwidth_Bps speed_factor", "[nodes]", *_node_rows(nodes)]
    return "\n".join(lines) + "\n"


def parse_topology(text: str):
    """Returns (nodes, link overrides, default latency)."""
    secs = _sections(text)
    unknown = set(secs) - {"defaults", "nodes", "links"}
    if unknown:
        raise SchemaError(f"unknown topology sections: {sorted(unknown)}")
    defaults = _key_values(secs.get("defaults", []), "topology default", {"latency"})
    latency = float(defaults.get("latency", 0.0))
    nodes = {n.node_id: n for n in map(_node_row, secs.get("nodes", []))}
    links: dict[tuple[str, str], LinkSpec] = {}
    for line in secs.get("links", []):
        parts = line.split()
        if len(parts) != 4:
            raise SchemaError(f"link row needs 4 fields (src dst latency bw): {line!r}")
        src, dst = parts[0], parts[1]
        for end in (src, dst):
            if end not in nodes:
                raise SchemaError(f"link references unknown node {end!r}")
        try:
            links[(src, dst)] = LinkSpec(src, dst, float(parts[2]), float(parts[3]))
        except (TopologyError, ValueError) as exc:
            raise SchemaError(f"link row {line!r}: {exc}") from None
    if not nodes:
        raise SchemaError("topology holds no nodes")
    return nodes, links, latency


# ---------------------------------------------------------------------------
# model footprint file


def parse_footprint(text: str) -> tuple[ModelSpec, int]:
    """[model] arch/activation/loss/batch_size -> (ModelSpec, batch_size)."""
    secs = _sections(text)
    if set(secs) != {"model"}:
        raise SchemaError(f"footprint file needs exactly a [model] section, got {sorted(secs)}")
    kv = _key_values(
        secs["model"], "footprint", {"arch", "activation", "loss", "batch_size"}, ("arch", "batch_size")
    )
    arch = _ints(kv["arch"].split(","), "footprint arch")
    model = modelcore.model_spec(arch, kv.get("activation", "tanh"), kv.get("loss", "mse"))
    (batch_size,) = _ints([kv["batch_size"]], "footprint batch_size")
    return model, batch_size


# ---------------------------------------------------------------------------
# session plan


def serialize_plan(plan: SessionPlan) -> str:
    lines = [f"# schema: {PLAN_SCHEMA}", "[meta]"]
    lines.append(f"q = {plan.q}")
    lines.append(f"arch = {','.join(str(a) for a in plan.model.arch)}")
    hidden = plan.model.layers[0].activation if len(plan.model.layers) > 1 else "identity"
    lines.append(f"activation = {hidden}")
    lines.append(f"loss = {plan.model.loss}")
    lines.append(f"batch_size = {plan.footprint.batch_size}")
    lines.append("[nodes]")
    lines += _node_rows(plan.nodes.values())  # pool order; assignment rows align with it
    lines.append("[assignment]")
    for node_id, cid in zip(plan.nodes, plan.assignment):
        lines.append(f"{node_id} {cid}")
    lines.append("[pipelines]")
    for cid in plan.cluster_ids:
        lines.append(f"{cid} " + " ".join(plan.pipelines[cid]))
    lines.append("[layouts]")
    for cid in plan.cluster_ids:
        for peer, sub in enumerate(plan.layouts[cid]):
            lines.append(
                f"{cid} {peer} {sub.layer_lo} {sub.layer_hi} {sub.param_start} {sub.param_len}"
            )
    lines.append("[rings]")
    for ring in plan.ring_schedule.rings:
        members = ",".join(f"{c}:{p}" for c, p in ring.members)
        lines.append(f"{ring.ring_id} {ring.start} {ring.length} {members}")
    return "\n".join(lines) + "\n"


# columns of the plan sections that parse_plan derives instead of reading
_DERIVED_PLAN_COLUMNS = {
    "pipelines": "cluster_id node_id...",
    "layouts": "cluster_id peer layer_lo layer_hi param_start param_len",
    "rings": "ring_id start length cluster:peer,...",
}


def parse_plan(text: str) -> SessionPlan:
    """Read ``[meta]``, ``[nodes]`` and ``[assignment]``, and rebuild the plan
    from them with ``plan_session``. The file's ``[pipelines]``, ``[layouts]``
    and ``[rings]`` rows must equal the rebuilt ones."""
    first = text.splitlines()[0].strip() if text.splitlines() else ""
    if first != f"# schema: {PLAN_SCHEMA}":
        raise SchemaError(f"not a {PLAN_SCHEMA} file (got {first!r})")
    secs = _sections(text)
    needed = {"meta", "nodes", "assignment", *_DERIVED_PLAN_COLUMNS}
    if set(secs) != needed:
        raise SchemaError(f"plan needs sections {sorted(needed)}, got {sorted(secs)}")
    meta_keys = ("q", "arch", "activation", "loss", "batch_size")
    meta = _key_values(secs["meta"], "plan meta", set(meta_keys), meta_keys)
    arch = _ints(meta["arch"].split(","), "plan meta arch")
    model = modelcore.model_spec(arch, meta["activation"], meta["loss"])
    (batch_size,) = _ints([meta["batch_size"]], "plan meta batch_size")
    (q,) = _ints([meta["q"]], "plan meta q")

    pool = [_node_row(line) for line in secs["nodes"]]
    if len(secs["assignment"]) != len(pool):
        raise SchemaError("assignment rows do not match the node list")
    assignment = []
    for line, node in zip(secs["assignment"], pool):
        node_id, *cid = line.split()
        if node_id != node.node_id:
            raise SchemaError(
                f"assignment rows out of order: {node_id!r} where {node.node_id!r} expected"
            )
        assignment += _ints(cid, f"assignment row {line!r}", 1)
    try:
        footprint = ModelFootprint.from_model(model, batch_size)
        plan = plan_session(pool, footprint, q, model, assignment=assignment)
    except (ConfigError, InfeasibleError, PartitionError, LayoutError) as exc:
        raise SchemaError(f"plan: {exc}") from exc

    derived = _sections(serialize_plan(plan))
    for name, columns in _DERIVED_PLAN_COLUMNS.items():
        for found, expected in zip_longest(secs[name], derived[name], fillvalue=""):
            if found.split() != expected.split():
                raise SchemaError(
                    f"plan [{name}] has row {found!r} where [assignment] gives {expected!r} "
                    f"(columns: {columns})"
                )
    return plan


# ---------------------------------------------------------------------------
# experiment config


@dataclass(kw_only=True)
class ExperimentConfig:
    name: str  # the config file's stem when the config leaves it out
    seed: int = 0
    out_dir: str = "runs"
    arch: list[int]
    activation: str = "tanh"
    loss: str = "mse"
    generator: str
    n_samples: int
    noise: float = 0.0
    inventory_path: Path
    topology_path: Path | None = None
    q: int
    train: TrainConfig
    ga: GAParams = field(default_factory=GAParams)
    link_overrides: dict = field(default_factory=dict)

    def model(self) -> ModelSpec:
        return modelcore.model_spec(self.arch, self.activation, self.loss)


class ConfigKey(NamedTuple):
    """One experiment-config key. ``target`` is an ExperimentConfig field or
    ``train.<field>`` / ``ga.<field>``; the field's default is the key's
    default, and a field without one makes the key required. ``check`` is an
    optional (predicate, domain) pair that each read value must satisfy."""

    section: str
    key: str
    target: str
    parse: Callable[[str], Any] = str
    text: Callable[[Any], str] = str
    check: tuple[Callable[[Any], bool], str] | None = None


def _bool(text: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {text!r}") from None


_FINITE_NON_NEGATIVE = (lambda v: 0 <= v < math.inf, "finite and >= 0")
_POSITIVE = (lambda v: v >= 1, ">= 1")
_EXISTING_FILE = (lambda p: p is None or p.is_file(), "an existing file")

CONFIG_SCHEMA = (
    ConfigKey("experiment", "name", "name"),
    ConfigKey("experiment", "seed", "seed", int, check=(lambda v: v >= 0, ">= 0")),
    ConfigKey("experiment", "out_dir", "out_dir"),
    ConfigKey("model", "arch", "arch", lambda s: [int(a) for a in s.split(",")],
              lambda arch: ",".join(str(a) for a in arch)),
    ConfigKey("model", "activation", "activation"),
    ConfigKey("model", "loss", "loss"),
    ConfigKey("data", "generator", "generator",
              check=(lambda v: v in data.GENERATORS, f"one of {', '.join(data.GENERATORS)}")),
    ConfigKey("data", "n_samples", "n_samples", int, check=_POSITIVE),
    ConfigKey("data", "noise", "noise", float, check=_FINITE_NON_NEGATIVE),
    ConfigKey("cluster", "inventory", "inventory_path", Path, check=_EXISTING_FILE),
    ConfigKey("cluster", "q", "q", int, check=_POSITIVE),
    ConfigKey("topology", "file", "topology_path", lambda s: Path(s) if s else None,
              lambda p: str(p or ""), _EXISTING_FILE),
    ConfigKey("topology", "default_latency", "train.default_latency", float,
              check=_FINITE_NON_NEGATIVE),
    ConfigKey("train", "eta", "train.eta", lambda s: s if s == "auto" else float(s),
              check=(lambda v: v == "auto" or 0 <= v < math.inf, "auto, or finite and >= 0")),
    ConfigKey("train", "kappa", "train.kappa", int),
    ConfigKey("train", "k_target", "train.k_target", int),
    ConfigKey("train", "batch_size", "train.batch_size", int),
    ConfigKey("train", "n_accum", "train.n_accum", int),
    ConfigKey("train", "max_inflight", "train.max_inflight", lambda s: int(s) or None,
              lambda v: str(v or 0)),
    ConfigKey("train", "enforce_t", "train.enforce_T", _bool, lambda b: str(b).lower()),
    ConfigKey("train", "t_bound", "train.T_bound", int),
    ConfigKey("train", "barrier_mode", "train.barrier_mode"),
    ConfigKey("train", "fwd_cost_coeff", "train.fwd_cost_coeff", float,
              check=_FINITE_NON_NEGATIVE),
    ConfigKey("train", "bwd_cost_ratio", "train.bwd_cost_ratio", float,
              check=_FINITE_NON_NEGATIVE),
    ConfigKey("train", "max_events", "train.max_events", lambda s: int(s) or None,
              lambda v: str(v or 0)),
    ConfigKey("train", "trace_enabled", "train.trace_enabled", _bool, lambda b: str(b).lower()),
    ConfigKey("ga", "pop_size", "ga.pop_size", int),
    ConfigKey("ga", "generations", "ga.generations", int),
    ConfigKey("ga", "crossover_rate", "ga.crossover_rate", float),
    ConfigKey("ga", "mutation_rate", "ga.mutation_rate", float),
    ConfigKey("ga", "elitism_k", "ga.elitism_k", int),
    ConfigKey("ga", "tournament_k", "ga.tournament_k", int),
)
# targets whose field has no default, so their key must be given
_REQUIRED_TARGETS = {
    prefix + f.name
    for prefix, cls in (("", ExperimentConfig), ("train.", TrainConfig), ("ga.", GAParams))
    for f in fields(cls)
    if f.default is MISSING and f.default_factory is MISSING
}


def parse_experiment_config(path: str | Path) -> ExperimentConfig:
    """Strict INI parse over ``CONFIG_SCHEMA``: unknown sections or keys are
    rejected, each value must convert to its type and lie in its domain, and
    referenced files, relative to the config file, must exist. Cross-key rules
    are left to ``TrainConfig.validate`` and ``evolve``."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    values: dict[str, dict] = {"": {"name": path.stem}, "train": {}, "ga": {}}
    try:
        cp.read(path)
        for section in cp.sections():
            keys = {row.key for row in CONFIG_SCHEMA if row.section == section}
            if not keys:
                raise ConfigError(f"unknown config section [{section}]")
            unknown = set(cp[section]) - keys
            if unknown:
                raise ConfigError(f"unknown keys in [{section}]: {sorted(unknown)}")
        if "experiment" not in cp:  # required although each of its keys has a default
            raise ConfigError("config missing section [experiment]")
        for row in CONFIG_SCHEMA:
            owner, _, attr = row.target.rpartition(".")
            raw = cp.get(row.section, row.key, fallback=None)
            if raw is None:
                if row.target in _REQUIRED_TARGETS and attr not in values[owner]:
                    raise ConfigError(f"config [{row.section}] missing key {row.key!r}")
                continue
            try:
                value = row.parse(raw)
                if isinstance(value, Path):
                    value = (path.parent / value).resolve()
                if row.check and not row.check[0](value):
                    raise ValueError(f"must be {row.check[1]}")
            except ValueError as exc:
                raise ConfigError(f"config [{row.section}] {row.key} = {raw}: {exc}") from None
            values[owner][attr] = value
        top, train, ga = values.values()
        if top.get("topology_path"):
            _, top["link_overrides"], latency = parse_topology(top["topology_path"].read_text())
            train.setdefault("default_latency", latency)
    except configparser.MissingSectionHeaderError as exc:
        raise ConfigError(f"{path}: line {exc.lineno} comes before any [section] header") from None
    except (configparser.Error, ValueError) as exc:
        # configparser messages span lines; the error contract is one line
        raise ConfigError(f"{path}: {' '.join(str(exc).split())}") from None
    cfg = ExperimentConfig(**top, train=TrainConfig(**train), ga=GAParams(**ga))
    cfg.train.seed = cfg.ga.seed = cfg.seed
    return cfg


def resolved_config_text(cfg: ExperimentConfig) -> str:
    """Canonical key=value dump of the fully resolved configuration."""
    lines = ["# schema: ravnest-config-resolved-v1"]
    for row in CONFIG_SCHEMA:
        if f"[{row.section}]" not in lines:
            lines.append(f"[{row.section}]")
        lines.append(f"{row.key} = {row.text(attrgetter(row.target)(cfg))}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# metrics / summary / manifest / checkpoints


def read_metrics_csv(text: str) -> list[dict]:
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# schema: "):
        raise SchemaError("metrics csv missing its schema line")
    schema = lines[0][len("# schema: "):]
    if schema != "ravnest-metrics-v1":
        raise SchemaError(f"unknown metrics schema {schema!r}")
    header = lines[1].split(",")
    rows = []
    for line in lines[2:]:
        if not line:
            continue
        vals = line.split(",")
        row = {}
        for key, val in zip(header, vals):
            row[key] = None if val == "" else float(val)
        rows.append(row)
    return rows


def write_summary(summary: dict) -> str:
    lines = [f"# schema: {SUMMARY_SCHEMA}"]
    for key in sorted(summary):
        val = summary[key]
        lines.append(f"{key} = {'' if val is None else repr(val) if isinstance(val, float) else val}")
    return "\n".join(lines) + "\n"


def parse_summary(text: str) -> dict:
    lines = text.splitlines()
    if not lines or lines[0] != f"# schema: {SUMMARY_SCHEMA}":
        raise SchemaError("not a ravnest summary file")
    out = {}
    for line in lines[1:]:
        if not line.strip():
            continue
        key, _, val = line.partition("=")
        out[key.strip()] = val.strip()
    return out


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path: str | Path) -> str:
    return sha256_bytes(Path(path).read_bytes())


def write_manifest(entries: dict) -> str:
    lines = [f"# schema: {MANIFEST_SCHEMA}"]
    for key in sorted(entries):
        lines.append(f"{key} = {entries[key]}")
    return "\n".join(lines) + "\n"


def write_checkpoint(path: str | Path, values: np.ndarray) -> None:
    """magic | u32 version | u64 count | count x little-endian fp64."""
    arr = np.ascontiguousarray(values, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<IQ", CHECKPOINT_VERSION, arr.size))
        fh.write(arr.tobytes())


def read_checkpoint(path: str | Path) -> np.ndarray:
    raw = Path(path).read_bytes()
    if raw[:8] != CHECKPOINT_MAGIC:
        raise SchemaError(f"{path}: not a ravnest checkpoint")
    if len(raw) < 8 + 12:
        raise SchemaError(f"{path}: truncated checkpoint header ({len(raw)} bytes)")
    version, count = struct.unpack_from("<IQ", raw, 8)
    if version != CHECKPOINT_VERSION:
        raise SchemaError(f"{path}: unsupported checkpoint version {version}")
    if len(raw) < 8 + 12 + 8 * count:
        raise SchemaError(f"{path}: truncated checkpoint, {count} values declared in {len(raw)} bytes")
    values = np.frombuffer(raw, dtype="<f8", count=count, offset=8 + 12)
    return values.astype(np.float64)
