"""File formats: topology, inventory, footprint, plan, experiment config,
summary, manifest, and binary checkpoints.

Everything textual is flat key=value under [sections] or whitespace rows;
no nesting, no includes. Every emitted file carries a schema tag and the
readers reject unknown versions.
"""

from __future__ import annotations

import configparser
import hashlib
import struct
from dataclasses import dataclass, field
from itertools import zip_longest
from pathlib import Path

import numpy as np

from . import modelcore
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


@dataclass
class ExperimentConfig:
    name: str
    seed: int
    out_dir: str
    arch: list[int]
    activation: str
    loss: str
    generator: str
    n_samples: int
    noise: float
    inventory_path: Path
    topology_path: Path | None
    q: int
    train: TrainConfig
    ga: GAParams = field(default_factory=GAParams)
    link_overrides: dict = field(default_factory=dict)

    def model(self) -> ModelSpec:
        return modelcore.model_spec(self.arch, self.activation, self.loss)


_CONFIG_KEYS = {
    "experiment": {"name", "seed", "out_dir"},
    "model": {"arch", "activation", "loss"},
    "data": {"generator", "n_samples", "noise"},
    "cluster": {"inventory", "q"},
    "topology": {"file", "default_latency"},
    "train": {
        "eta", "kappa", "k_target", "batch_size", "n_accum", "max_inflight",
        "enforce_t", "t_bound", "barrier_mode", "fwd_cost_coeff", "bwd_cost_ratio",
        "max_events", "trace_enabled",
    },
    "ga": {"pop_size", "generations", "crossover_rate", "mutation_rate", "elitism_k",
           "tournament_k"},
}
# keys without a default, per required section
_REQUIRED_CONFIG_KEYS = {
    "experiment": (),
    "model": ("arch",),
    "data": ("generator", "n_samples"),
    "cluster": ("inventory", "q"),
    "train": ("kappa", "k_target", "batch_size"),
}


def parse_experiment_config(path: str | Path) -> ExperimentConfig:
    """Strict INI parse: unknown sections or keys are rejected, referenced
    files must exist, values must convert to their types, numeric ranges are
    validated downstream."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        return _read_experiment_config(path)
    except configparser.MissingSectionHeaderError as exc:
        raise ConfigError(f"{path}: line {exc.lineno} comes before any [section] header") from None
    except (configparser.Error, ValueError) as exc:
        # configparser messages span lines; the error contract is one line
        raise ConfigError(f"{path}: {' '.join(str(exc).split())}") from None


def _read_experiment_config(path: Path) -> ExperimentConfig:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    cp.read(path)
    for section in cp.sections():
        if section not in _CONFIG_KEYS:
            raise ConfigError(f"unknown config section [{section}]")
        unknown = set(cp[section]) - _CONFIG_KEYS[section]
        if unknown:
            raise ConfigError(f"unknown keys in [{section}]: {sorted(unknown)}")
    for required, keys in _REQUIRED_CONFIG_KEYS.items():
        if required not in cp:
            raise ConfigError(f"config missing section [{required}]")
        for key in keys:
            if key not in cp[required]:
                raise ConfigError(f"config [{required}] missing key {key!r}")

    exp = cp["experiment"]

    inventory_path = (path.parent / cp["cluster"]["inventory"]).resolve()
    if not inventory_path.exists():
        raise ConfigError(f"inventory file not found: {inventory_path}")
    topology_path = None
    link_overrides: dict = {}
    topo_latency = 0.0
    if "topology" in cp and cp["topology"].get("file"):
        topology_path = (path.parent / cp["topology"]["file"]).resolve()
        if not topology_path.exists():
            raise ConfigError(f"topology file not found: {topology_path}")
        _, link_overrides, topo_latency = parse_topology(topology_path.read_text())
    latency_override = cp.getfloat("topology", "default_latency", fallback=None)

    train_sec = cp["train"]
    eta_raw = train_sec.get("eta", "auto").strip()
    eta: float | str = "auto" if eta_raw == "auto" else float(eta_raw)
    train = TrainConfig(
        eta=eta,
        kappa=train_sec.getint("kappa"),
        k_target=train_sec.getint("k_target"),
        batch_size=train_sec.getint("batch_size"),
        n_accum=train_sec.getint("n_accum", 1),
        max_inflight=train_sec.getint("max_inflight", 0) or None,
        enforce_T=train_sec.getboolean("enforce_t", False),
        T_bound=train_sec.getint("t_bound", 0),
        barrier_mode=train_sec.get("barrier_mode", "drain"),
        seed=exp.getint("seed", 0),
        fwd_cost_coeff=train_sec.getfloat("fwd_cost_coeff", 1e-9),
        bwd_cost_ratio=train_sec.getfloat("bwd_cost_ratio", 2.0),
        default_latency=latency_override if latency_override is not None else topo_latency,
        max_events=train_sec.getint("max_events", 0) or None,
        trace_enabled=train_sec.getboolean("trace_enabled", False),
    )
    ga = GAParams(seed=train.seed)
    if "ga" in cp:
        g = cp["ga"]
        ga = GAParams(
            pop_size=g.getint("pop_size", ga.pop_size),
            generations=g.getint("generations", ga.generations),
            crossover_rate=g.getfloat("crossover_rate", ga.crossover_rate),
            mutation_rate=g.getfloat("mutation_rate", ga.mutation_rate),
            elitism_k=g.getint("elitism_k", ga.elitism_k),
            tournament_k=g.getint("tournament_k", ga.tournament_k),
            seed=train.seed,
        )

    return ExperimentConfig(
        name=exp.get("name", path.stem),
        seed=train.seed,
        out_dir=exp.get("out_dir", "runs"),
        arch=[int(a) for a in cp["model"]["arch"].split(",")],
        activation=cp["model"].get("activation", "tanh"),
        loss=cp["model"].get("loss", "mse"),
        generator=cp["data"]["generator"],
        n_samples=cp["data"].getint("n_samples"),
        noise=cp["data"].getfloat("noise", 0.0),
        inventory_path=inventory_path,
        topology_path=topology_path,
        q=cp["cluster"].getint("q"),
        train=train,
        ga=ga,
        link_overrides=link_overrides,
    )


def resolved_config_text(cfg: ExperimentConfig) -> str:
    """Canonical key=value dump of the fully resolved configuration."""
    t = cfg.train
    lines = [
        "# schema: ravnest-config-resolved-v1",
        "[experiment]",
        f"name = {cfg.name}",
        f"seed = {cfg.seed}",
        f"out_dir = {cfg.out_dir}",
        "[model]",
        f"arch = {','.join(str(a) for a in cfg.arch)}",
        f"activation = {cfg.activation}",
        f"loss = {cfg.loss}",
        "[data]",
        f"generator = {cfg.generator}",
        f"n_samples = {cfg.n_samples}",
        f"noise = {cfg.noise!r}",
        "[cluster]",
        f"inventory = {cfg.inventory_path}",
        f"q = {cfg.q}",
        "[topology]",
        f"file = {cfg.topology_path if cfg.topology_path else ''}",
        f"default_latency = {t.default_latency!r}",
        "[train]",
        f"eta = {t.eta}",
        f"kappa = {t.kappa}",
        f"k_target = {t.k_target}",
        f"batch_size = {t.batch_size}",
        f"n_accum = {t.n_accum}",
        f"max_inflight = {t.max_inflight if t.max_inflight else 0}",
        f"enforce_t = {str(t.enforce_T).lower()}",
        f"t_bound = {t.T_bound}",
        f"barrier_mode = {t.barrier_mode}",
        f"fwd_cost_coeff = {t.fwd_cost_coeff!r}",
        f"bwd_cost_ratio = {t.bwd_cost_ratio!r}",
        f"max_events = {t.max_events or 0}",
        f"trace_enabled = {str(t.trace_enabled).lower()}",
        "[ga]",
        f"pop_size = {cfg.ga.pop_size}",
        f"generations = {cfg.ga.generations}",
        f"crossover_rate = {cfg.ga.crossover_rate!r}",
        f"mutation_rate = {cfg.ga.mutation_rate!r}",
        f"elitism_k = {cfg.ga.elitism_k}",
        f"tournament_k = {cfg.ga.tournament_k}",
    ]
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
