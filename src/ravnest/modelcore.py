"""Hand-differentiated models (linear regression and small MLPs) that can be
split at layer boundaries into sequential submodels.

All arithmetic is fp64. Initialization draws from a Philox4x64 counter-based
generator keyed by the seed, so (arch, seed) -> bitwise identical parameters
on every platform and run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, NumericError, PartitionError, ShapeError

FLOAT_BYTES = 8

ACTIVATIONS = ("identity", "tanh", "relu")
LOSSES = ("mse", "softmax_ce")


@dataclass(frozen=True)
class LayerSpec:
    """One affine layer (W: out x in, b: out) plus its post-activation."""

    index: int
    in_dim: int
    out_dim: int
    activation: str

    @property
    def param_count(self) -> int:
        return self.in_dim * self.out_dim + self.out_dim

    @property
    def param_bytes(self) -> int:
        return self.param_count * FLOAT_BYTES

    @property
    def activation_bytes_per_sample(self) -> int:
        return self.out_dim * FLOAT_BYTES


@dataclass(frozen=True)
class ModelSpec:
    """Layer sequence plus the loss evaluated after the final layer."""

    arch: tuple[int, ...]
    layers: tuple[LayerSpec, ...]
    loss: str

    @property
    def param_count(self) -> int:
        return sum(l.param_count for l in self.layers)

    @property
    def param_bytes(self) -> int:
        return self.param_count * FLOAT_BYTES

    @property
    def fwdbwd_bytes_per_sample(self) -> int:
        return sum(l.activation_bytes_per_sample for l in self.layers)

    @property
    def in_dim(self) -> int:
        return self.arch[0]

    @property
    def out_dim(self) -> int:
        return self.arch[-1]


@dataclass
class ParameterVector:
    """Flat fp64 parameter block with an ordered (block_id, start, length) map.

    Blocks tile [0, len(values)) exactly: contiguous, non-overlapping, in
    order. Block ids are layer indices.
    """

    values: np.ndarray
    blocks: list[tuple[int, int, int]]

    def validate(self) -> None:
        if self.values.dtype != np.float64:
            raise ShapeError("parameter values must be fp64")
        cursor = 0
        for _, start, length in self.blocks:
            if start != cursor or length <= 0:
                raise ShapeError("blocks must tile the value array contiguously")
            cursor += length
        if cursor != self.values.shape[0]:
            raise ShapeError(
                f"blocks cover {cursor} values, array holds {self.values.shape[0]}"
            )
        if not np.isfinite(self.values).all():
            raise NumericError("parameter vector contains non-finite values")

    def copy(self) -> "ParameterVector":
        return ParameterVector(self.values.copy(), list(self.blocks))


@dataclass(frozen=True)
class SubmodelSpec:
    """Contiguous layer range owned by one peer.

    param_start/param_len locate the owned parameters in the global flat
    index space, so ring schedules can address them directly;
    layer_offsets locates each owned layer inside the local parameters.
    """

    layer_lo: int
    layer_hi: int  # exclusive
    layers: tuple[LayerSpec, ...]
    param_start: int
    param_len: int
    activation_bytes_per_sample: int
    layer_offsets: tuple[int, ...]

    @property
    def param_bytes(self) -> int:
        return self.param_len * FLOAT_BYTES

    @property
    def in_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def out_dim(self) -> int:
        return self.layers[-1].out_dim


@dataclass
class Batch:
    """One micro-batch drawn from a single cluster's disjoint shard."""

    inputs: np.ndarray
    targets: np.ndarray
    batch_id: int
    cluster_id: int

    def __post_init__(self):
        if self.inputs.shape[0] != self.targets.shape[0]:
            raise ShapeError(
                f"batch {self.batch_id}: {self.inputs.shape[0]} inputs vs "
                f"{self.targets.shape[0]} targets"
            )

    @property
    def n_samples(self) -> int:
        return self.inputs.shape[0]


@dataclass
class ForwardContext:
    """Everything backward needs: per-layer inputs and pre-activations, and
    the output (the last layer's post-activation; each earlier layer's is the
    next layer's input)."""

    layer_inputs: tuple[np.ndarray, ...]
    preacts: tuple[np.ndarray, ...]
    output: np.ndarray


def model_spec(
    arch: Sequence[int], hidden_activation: str = "tanh", loss: str = "mse"
) -> ModelSpec:
    """Layer metadata for an architecture, without drawing any parameters."""
    arch = tuple(int(a) for a in arch)
    if len(arch) < 2:
        raise ConfigError(f"arch needs >= 2 entries, got {arch}")
    if any(a <= 0 for a in arch):
        raise ConfigError(f"arch entries must be positive, got {arch}")
    if hidden_activation not in ACTIVATIONS:
        raise ConfigError(f"unknown activation {hidden_activation!r}")
    if loss not in LOSSES:
        raise ConfigError(f"unknown loss {loss!r}")
    n_layers = len(arch) - 1
    layers = tuple(
        LayerSpec(
            index=i,
            in_dim=arch[i],
            out_dim=arch[i + 1],
            activation=hidden_activation if i < n_layers - 1 else "identity",
        )
        for i in range(n_layers)
    )
    return ModelSpec(arch=arch, layers=layers, loss=loss)


def build_model(
    arch: Sequence[int],
    seed: int,
    hidden_activation: str = "tanh",
    loss: str = "mse",
) -> tuple[ModelSpec, ParameterVector]:
    """Create a model and its deterministically initialized parameters.

    Weights and biases are uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)), drawn
    layer by layer (W then b) from Philox4x64 keyed by ``seed``.
    """
    model = model_spec(arch, hidden_activation, loss)
    layers = model.layers
    if seed < 0:
        raise ConfigError("seed must be a non-negative integer")

    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    chunks = []
    blocks = []
    cursor = 0
    for lay in layers:
        lim = 1.0 / np.sqrt(lay.in_dim)
        w = rng.uniform(-lim, lim, size=lay.in_dim * lay.out_dim)
        b = rng.uniform(-lim, lim, size=lay.out_dim)
        chunks.append(w)
        chunks.append(b)
        blocks.append((lay.index, cursor, lay.param_count))
        cursor += lay.param_count
    params = ParameterVector(np.concatenate(chunks), blocks)
    params.validate()
    return model, params


def make_submodel(model: ModelSpec, lo: int, hi: int, param_start: int) -> SubmodelSpec:
    """The submodel owning layers [lo, hi), its parameters at ``param_start``."""
    layers = model.layers[lo:hi]
    offsets = [0]
    for lay in layers:
        offsets.append(offsets[-1] + lay.param_count)
    return SubmodelSpec(
        layer_lo=lo,
        layer_hi=hi,
        layers=layers,
        param_start=param_start,
        param_len=offsets[-1],
        activation_bytes_per_sample=layers[-1].activation_bytes_per_sample,
        layer_offsets=tuple(offsets[:-1]),
    )


def full_submodel(model: ModelSpec) -> SubmodelSpec:
    """The whole model viewed as a single peer's submodel."""
    return make_submodel(model, 0, len(model.layers), 0)


def _layer_wb(values: np.ndarray, offset: int, lay: LayerSpec):
    w_len = lay.in_dim * lay.out_dim
    w = values[offset : offset + w_len].reshape(lay.out_dim, lay.in_dim)
    b = values[offset + w_len : offset + w_len + lay.out_dim]
    return w, b


def _activate(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "identity":
        return z
    if kind == "tanh":
        return np.tanh(z)
    if kind == "relu":
        return np.maximum(z, 0.0)
    raise ConfigError(f"unknown activation {kind!r}")


def _activate_grad(z: np.ndarray, a: np.ndarray, kind: str) -> np.ndarray:
    """Derivative of a non-identity activation, from its pre-activation ``z``
    and its post-activation ``a``."""
    if kind == "tanh":
        return 1.0 - a * a
    if kind == "relu":
        return (z > 0.0).astype(np.float64)
    raise ConfigError(f"unknown activation {kind!r}")


def forward(
    sub: SubmodelSpec, params: ParameterVector, inputs: np.ndarray
) -> tuple[np.ndarray, ForwardContext]:
    """Run the owned layers; returns output activations and a saved context.

    Pure function of its arguments: no state is touched.
    """
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != sub.in_dim:
        raise ShapeError(
            f"forward input shape {x.shape} incompatible with in_dim {sub.in_dim}"
        )
    layer_inputs = []
    preacts = []
    for lay, offset in zip(sub.layers, sub.layer_offsets):
        w, b = _layer_wb(params.values, offset, lay)
        z = x @ w.T
        z += b
        layer_inputs.append(x)
        preacts.append(z)
        x = _activate(z, lay.activation)
    return x, ForwardContext(tuple(layer_inputs), tuple(preacts), x)


def backward(
    sub: SubmodelSpec,
    params: ParameterVector,
    ctx: ForwardContext,
    upstream_grads: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of the loss w.r.t. this submodel's parameters and inputs.

    ``params`` must be the parameter state the forward pass saw (callers that
    allow staleness pass the stashed copy). Pure function of its arguments.
    """
    g = np.asarray(upstream_grads, dtype=np.float64)
    if g.shape != (ctx.preacts[-1].shape[0], sub.out_dim):
        raise ShapeError(
            f"upstream grad shape {g.shape}, expected "
            f"{(ctx.preacts[-1].shape[0], sub.out_dim)}"
        )
    param_grads = np.empty(sub.param_len, dtype=np.float64)
    post = ctx.output
    for i in range(len(sub.layers) - 1, -1, -1):
        lay = sub.layers[i]
        offset = sub.layer_offsets[i]
        w, _ = _layer_wb(params.values, offset, lay)
        x = ctx.layer_inputs[i]
        if lay.activation == "identity":
            dz = g
        else:
            dz = g * _activate_grad(ctx.preacts[i], post, lay.activation)
        w_end = offset + lay.in_dim * lay.out_dim
        np.matmul(dz.T, x, out=param_grads[offset:w_end].reshape(lay.out_dim, lay.in_dim))
        dz.sum(axis=0, out=param_grads[w_end : offset + lay.param_count])
        g = dz @ w
        post = x
    return param_grads, g


def loss_and_grad(loss: str, outputs: np.ndarray, targets: np.ndarray):
    """Loss value and its gradient w.r.t. the model outputs.

    mse: (1/n) * sum of squared errors over all samples and outputs.
    softmax_ce: mean negative log-likelihood of row-wise softmax.
    """
    y = np.asarray(outputs, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    if y.shape != t.shape:
        raise ShapeError(f"outputs {y.shape} vs targets {t.shape}")
    n = y.shape[0]
    if loss == "mse":
        diff = y - t
        value = float(np.sum(diff * diff)) / n
        return value, (2.0 / n) * diff
    if loss == "softmax_ce":
        shifted = y - y.max(axis=1, keepdims=True)
        expv = np.exp(shifted)
        probs = expv / expv.sum(axis=1, keepdims=True)
        value = float(-np.sum(t * np.log(probs + 1e-300))) / n
        return value, (probs - t) / n
    raise ConfigError(f"unknown loss {loss!r}")


def apply_update(params: ParameterVector, grads: np.ndarray, eta: float) -> ParameterVector:
    """In-place SGD step over the owned blocks: values <- values - eta*grads."""
    if eta < 0.0:
        raise ConfigError(f"eta must be >= 0, got {eta}")
    g = np.asarray(grads, dtype=np.float64)
    if g.shape != params.values.shape:
        raise ShapeError(
            f"grads shape {g.shape} not aligned with params {params.values.shape}"
        )
    if not np.isfinite(g).all():
        raise NumericError("non-finite gradient; aborting update")
    params.values -= eta * g
    if not np.isfinite(params.values).all():
        raise NumericError("parameters became non-finite after update")
    return params


def full_loss(model: ModelSpec, values: np.ndarray, x: np.ndarray, t: np.ndarray) -> float:
    sub = full_submodel(model)
    pv = ParameterVector(np.asarray(values, dtype=np.float64), _blocks_of(sub))
    y, _ = forward(sub, pv, x)
    value, _ = loss_and_grad(model.loss, y, t)
    return value


def full_gradient(
    model: ModelSpec, values: np.ndarray, x: np.ndarray, t: np.ndarray
) -> tuple[float, np.ndarray]:
    """Full-batch loss and gradient over all parameters (measurement path)."""
    sub = full_submodel(model)
    pv = ParameterVector(np.asarray(values, dtype=np.float64), _blocks_of(sub))
    y, ctx = forward(sub, pv, x)
    value, dy = loss_and_grad(model.loss, y, t)
    grads, _ = backward(sub, pv, ctx, dy)
    return value, grads


def _blocks_of(sub: SubmodelSpec) -> list[tuple[int, int, int]]:
    return [(lay.index, off, lay.param_count) for lay, off in zip(sub.layers, sub.layer_offsets)]


def peer_vector(sub: SubmodelSpec, full_values: np.ndarray) -> ParameterVector:
    """Local ParameterVector for one peer, sliced out of the full flat array."""
    vals = np.array(
        full_values[sub.param_start : sub.param_start + sub.param_len],
        dtype=np.float64,
    )
    return ParameterVector(vals, _blocks_of(sub))


def assemble_full(subs: Sequence[SubmodelSpec], vectors: Sequence[ParameterVector]) -> np.ndarray:
    """Concatenate peer vectors back into the full flat parameter array."""
    total = subs[-1].param_start + subs[-1].param_len
    out = np.empty(total, dtype=np.float64)
    for sub, vec in zip(subs, vectors):
        out[sub.param_start : sub.param_start + sub.param_len] = vec.values
    return out


def layer_cost_bytes(lay: LayerSpec, batch_size: int = 0) -> int:
    """Split weight of one layer: parameter bytes plus per-batch activation bytes."""
    return lay.param_bytes + batch_size * lay.activation_bytes_per_sample


def partition_model(
    model: ModelSpec,
    peer_capacities: Sequence[float],
    batch_size: int = 0,
    atoms: Sequence[tuple[int, int]] | None = None,
) -> list[SubmodelSpec]:
    """Greedy proportional split of the layer sequence across peers.

    Each peer takes consecutive atoms (layers, or caller-supplied layer
    ranges) while staying at or below its proportional share of the total
    cost; every peer must end up within its capacity. Boundaries always fall
    on atom boundaries, order is preserved, and the union of the returned
    ranges is the whole model.
    """
    caps = [float(c) for c in peer_capacities]
    if not caps:
        raise ConfigError("need at least one peer capacity")
    if any(c <= 0 for c in caps):
        raise ConfigError(f"capacities must be positive, got {caps}")
    if atoms is None:
        atoms = [(i, i + 1) for i in range(len(model.layers))]
    else:
        atoms = [tuple(a) for a in atoms]
        if atoms[0][0] != 0 or atoms[-1][1] != len(model.layers) or any(
            atoms[i][1] != atoms[i + 1][0] for i in range(len(atoms) - 1)
        ):
            raise ConfigError(f"atoms must tile the layer range, got {atoms}")

    costs = [
        float(sum(layer_cost_bytes(model.layers[i], batch_size) for i in range(lo, hi)))
        for lo, hi in atoms
    ]
    total_cost = sum(costs)
    total_cap = sum(caps)
    if total_cap < total_cost:
        raise PartitionError(
            f"capacity deficit: peers hold {total_cap:.0f} bytes, "
            f"model needs {total_cost:.0f} (short {total_cost - total_cap:.0f})"
        )
    if len(atoms) < len(caps):
        raise PartitionError(
            f"{len(caps)} peers but only {len(atoms)} splittable units"
        )

    eps = 1e-9 * total_cost

    def suffix_fits(start: int, peer: int) -> bool:
        # greedy-max from the left decides contiguous feasibility exactly
        i = start
        for p in range(peer, len(caps)):
            left = len(caps) - 1 - p
            if p == len(caps) - 1:
                return len(atoms) - i >= 1 and sum(costs[i:]) <= caps[p] + eps
            acc = 0.0
            taken = 0
            while i < len(atoms) - left and acc + costs[i] <= caps[p] + eps:
                acc += costs[i]
                taken += 1
                i += 1
            if taken == 0:
                return False
        return True

    takes: list[int] = []
    ai = 0
    rem_cost = total_cost
    rem_cap = total_cap
    for p, cap in enumerate(caps):
        if p == len(caps) - 1:
            takes.append(len(atoms) - ai)
            break
        target = rem_cost * cap / rem_cap
        must_leave = len(caps) - 1 - p  # one atom per remaining peer
        taken = 0
        acc = 0.0
        while ai + taken < len(atoms) - must_leave:
            nxt = acc + costs[ai + taken]
            if taken >= 1 and (nxt > target + eps or nxt > cap + eps):
                break
            acc = nxt
            taken += 1
        # grow past the proportional target if the tail cannot hold the rest
        while not suffix_fits(ai + taken, p + 1):
            can_grow = (
                ai + taken < len(atoms) - must_leave
                and acc + costs[ai + taken] <= cap + eps
            )
            if not can_grow:
                short = sum(costs[ai + taken :]) - sum(caps[p + 1 :])
                raise PartitionError(
                    f"no layer-boundary split fits: after peer {p}, remaining "
                    f"peers are {max(short, 0.0):.0f} bytes short"
                )
            acc += costs[ai + taken]
            taken += 1
        takes.append(taken)
        ai += taken
        rem_cost -= acc
        rem_cap -= cap

    subs = []
    ai = 0
    param_cursor = 0
    for p, taken in enumerate(takes):
        lo = atoms[ai][0]
        hi = atoms[ai + taken - 1][1]
        load = sum(costs[ai : ai + taken])
        if load > caps[p] + eps:
            raise PartitionError(
                f"peer {p} assigned {load:.0f} bytes over capacity {caps[p]:.0f} "
                f"(deficit {load - caps[p]:.0f}); no layer-boundary split fits"
            )
        subs.append(make_submodel(model, lo, hi, param_cursor))
        param_cursor += subs[-1].param_len
        ai += taken
    return subs


def validate_partition(model: ModelSpec, subs: Sequence[SubmodelSpec]) -> None:
    """Check that submodels reconstruct the full layer sequence exactly."""
    if subs[0].layer_lo != 0 or subs[-1].layer_hi != len(model.layers):
        raise PartitionError("submodels do not cover the full layer range")
    for a, b in zip(subs, subs[1:]):
        if a.layer_hi != b.layer_lo:
            raise PartitionError(f"gap or overlap between layers {a.layer_hi} and {b.layer_lo}")
        if a.param_start + a.param_len != b.param_start:
            raise PartitionError("parameter ranges are not contiguous")
