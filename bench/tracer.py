"""Outside-in span tracer for the ravnest layers.

The tracer replaces module attributes and class methods of the layer modules
with timing wrappers, and restores the originals on ``uninstall``. Nothing in
``src/`` knows about it. Three kinds of span are recorded:

- calls to public functions and public methods of classes defined in a layer
  module, named ``function`` or ``Class.method``;
- event-loop actions, wrapped as ``EventQueue.push`` receives them and
  attributed to the module that defined the action (``event:<name>``);
- message handlers, wrapped as ``Network.register`` receives them
  (``handler``), plus the orchestrator's pipeline callbacks.

A span's self time is its duration minus the durations of the spans it
encloses, so per-layer self times add up to the wall time of the outermost
spans. Aggregates are kept per (layer, name); individual spans are kept only
up to ``max_spans`` for the Chrome Trace Event export.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import defaultdict

LAYERS = ("modelcore", "simnet", "pipeline", "multiring", "orchestrator", "data", "clusterform")
OTHER = "other"

# Private methods worth a span: the orchestrator callbacks the pipelines call.
EXTRA_METHODS = (("orchestrator", "_Trainer", ("_on_update", "_on_batch_done", "_on_admitted")),)


def layer_of_module(module_name: str | None) -> str:
    if module_name and module_name.startswith("ravnest."):
        layer = module_name.split(".", 2)[1]
        if layer in LAYERS:
            return layer
    return OTHER


def _wrap_targets():
    """Yield (owner, attribute, layer, span name) for every traced callable."""
    for layer in LAYERS:
        mod = importlib.import_module(f"ravnest.{layer}")
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                yield mod, attr, layer, attr
            elif inspect.isclass(obj):
                for mattr, mobj in vars(obj).items():
                    if not mattr.startswith("_") and inspect.isfunction(mobj):
                        yield obj, mattr, layer, f"{obj.__name__}.{mattr}"
    for layer, cls_name, methods in EXTRA_METHODS:
        cls = getattr(importlib.import_module(f"ravnest.{layer}"), cls_name)
        for mattr in methods:
            yield cls, mattr, layer, f"{cls_name}.{mattr}"


class Tracer:
    """Span aggregates, probe counters and (optionally) raw spans."""

    def __init__(self, max_spans: int = 0):
        self.stats: dict[tuple[str, str], list] = {}  # key -> [calls, busy_s, self_s]
        self.counters: defaultdict[str, float] = defaultdict(float)
        self.ring_windows: list[list[float]] = []  # [kickoff vt, last round vt]
        self.spans: list[tuple[str, str, float, float]] = []  # layer, name, start, dur
        self.max_spans = max_spans
        self._stack: list[list[float]] = []  # child seconds of each open span
        self._patches: list[tuple[object, str, object]] = []
        self._event_keys: dict[object, tuple[str, str]] = {}
        self._links: dict = {}

    # -- spans -------------------------------------------------------------

    def wrap(self, layer: str, name: str, fn, probe=None):
        stat = self.stats.setdefault((layer, name), [0, 0.0, 0.0])
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if probe is not None:
                    probe(tracer, args, kwargs, result)
                return result
            finally:
                dur = clock() - start
                stack.pop()
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if len(spans) < tracer.max_spans:
                    spans.append((layer, name, start, dur))

        traced.__wrapped__ = fn
        traced.__module__ = getattr(fn, "__module__", None)
        return traced

    def _event(self, action):
        code = getattr(action, "__code__", None) or type(action)
        key = self._event_keys.get(code)
        if key is None:
            name = getattr(action, "__name__", type(action).__name__)
            key = (layer_of_module(getattr(action, "__module__", None)), f"event:{name}")
            self._event_keys[code] = key
        return self.wrap(key[0], key[1], action)

    # -- patching ------------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> "Tracer":
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._links.clear()  # link specs of the one network a timed call builds
        from ravnest import simnet

        for owner, attr, layer, name in list(_wrap_targets()):
            if (owner, attr) in ((simnet.EventQueue, "push"), (simnet.Network, "register")):
                continue
            fn = vars(owner)[attr]
            self._patch(owner, attr, self.wrap(layer, name, fn, PROBES.get((layer, name))))

        push = simnet.EventQueue.push
        register = simnet.Network.register
        tracer = self

        def traced_push(queue, when, action):
            return push(queue, when, tracer._event(action))

        def traced_register(network, node_id, handler):
            layer = layer_of_module(getattr(handler, "__module__", None))
            return register(network, node_id, tracer.wrap(layer, "handler", handler))

        self._patch(simnet.EventQueue, "push", traced_push)
        self._patch(simnet.Network, "register", traced_register)
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- readout -------------------------------------------------------------

    def stat(self, layer: str, name: str) -> tuple[int, float, float]:
        calls, busy, self_s = self.stats.get((layer, name), (0, 0.0, 0.0))
        return calls, busy, self_s

    def layer_self(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS + (OTHER,)}
        for (layer, _), (_, _, self_s) in self.stats.items():
            out[layer] += self_s
        return out

    def event_calls(self) -> int:
        return sum(s[0] for (_, name), s in self.stats.items() if name.startswith("event:"))

    def chrome_events(self, pid: int, process_name: str) -> list[dict]:
        """Chrome Trace Event records: one pid per workload, one tid per layer."""
        tids = {layer: i for i, layer in enumerate(LAYERS + (OTHER,))}
        events = [{"ph": "M", "pid": pid, "tid": 0, "name": "process_name",
                   "args": {"name": process_name}}]
        for layer, tid in tids.items():
            events.append({"ph": "M", "pid": pid, "tid": tid, "name": "thread_name",
                           "args": {"name": layer}})
        t0 = min((s[2] for s in self.spans), default=0.0)
        for layer, name, start, dur in self.spans:
            events.append({"ph": "X", "pid": pid, "tid": tids[layer], "cat": layer,
                           "name": name, "ts": (start - t0) * 1e6, "dur": dur * 1e6})
        return events


# ---------------------------------------------------------------------------
# probes: counters read from a traced call's arguments and result


def _send_probe(tracer: Tracer, args, kwargs, deliver_at) -> None:
    network, msg = args[0], args[1]
    now = args[2] if len(args) > 2 else kwargs.get("now")
    if now is None:
        now = network.now
    nbytes = msg.payload_bytes
    tracer.counters[f"msgs.{msg.kind}"] += 1
    tracer.counters["payload_bytes"] += nbytes
    if msg.kind == "ring_chunk":
        tracer.counters["chunk_bytes"] += nbytes
    key = (msg.sender, msg.receiver)
    link = tracer._links.get(key)
    if link is None:
        link = tracer._links[key] = network.link_for(msg.sender, msg.receiver)
    wait = deliver_at - now - nbytes / link.bandwidth - link.latency
    if wait > 1e-12 * deliver_at:  # above the rounding of the delivery time
        tracer.counters["link_wait_vs"] += wait


def _layer_flop(sub, n_samples: int) -> float:
    return float(sum(2 * n_samples * lay.in_dim * lay.out_dim for lay in sub.layers))


def _forward_probe(tracer, args, kwargs, result) -> None:
    tracer.counters["flop"] += _layer_flop(args[0], args[2].shape[0])


def _backward_probe(tracer, args, kwargs, result) -> None:
    tracer.counters["flop"] += 2.0 * _layer_flop(args[0], args[3].shape[0])


def _admit_probe(tracer, args, kwargs, result) -> None:
    tracer.counters["admit.accepted"] += result == "accepted"


def _kickoff_probe(tracer, args, kwargs, result) -> None:
    now = args[1]
    tracer.ring_windows.append([now, now])


def _handle_probe(tracer, args, kwargs, result) -> None:
    tracer.ring_windows[-1][1] = args[2]


def _evaluate_probe(tracer, args, kwargs, result) -> None:
    tracer.counters["evaluate.feasible"] += result.feasible


PROBES = {
    ("simnet", "Network.send"): _send_probe,
    ("modelcore", "forward"): _forward_probe,
    ("modelcore", "backward"): _backward_probe,
    ("pipeline", "ClusterPipeline.admit_batch"): _admit_probe,
    ("multiring", "AllReduceController.kickoff"): _kickoff_probe,
    ("multiring", "AllReduceController.handle"): _handle_probe,
    ("clusterform", "evaluate"): _evaluate_probe,
}


# ---------------------------------------------------------------------------
# per-layer metrics of a traced run


def layer_metrics(tracer: Tracer, setup_tracer: Tracer, n_ops: int) -> dict[str, float]:
    """Per-layer metrics, per timed call (per train or evolve) unless a ratio."""
    per = 1.0 / n_ops
    counters = tracer.counters

    def calls(layer, name):
        return tracer.stat(layer, name)[0] * per

    def busy(layer, name):
        return tracer.stat(layer, name)[1] * per

    def self_s(layer, name):
        return tracer.stat(layer, name)[2] * per

    def share(part, whole):
        return part / whole if whole else 0.0

    gflop = counters["flop"] * per / 1e9
    metrics = {f"{layer}.self_s": s * per for layer, s in tracer.layer_self().items()}
    metrics.update({
        "modelcore.forward.calls": calls("modelcore", "forward"),
        "modelcore.forward.busy_s": busy("modelcore", "forward"),
        "modelcore.backward.busy_s": busy("modelcore", "backward"),
        "modelcore.apply_update.busy_s": busy("modelcore", "apply_update"),
        "modelcore.full_gradient.calls": calls("modelcore", "full_gradient"),
        "modelcore.full_gradient.busy_s": busy("modelcore", "full_gradient"),
        "modelcore.gflop": gflop,
        "modelcore.gflops_per_s": share(
            gflop, busy("modelcore", "forward") + busy("modelcore", "backward")
        ),
        "simnet.events": tracer.event_calls() * per,
        "simnet.loop_self_s": self_s("simnet", "EventQueue.run_until")
        + self_s("simnet", "Network.run_until"),
        "simnet.send.calls": calls("simnet", "Network.send"),
        "simnet.send.self_s": self_s("simnet", "Network.send"),
        "simnet.deliver.self_s": self_s("simnet", "event:deliver"),
        "simnet.payload_bytes": counters["payload_bytes"] * per,
        "simnet.link_wait_vs": counters["link_wait_vs"] * per,
        "pipeline.dispatch.calls": calls("pipeline", "ClusterPipeline.dispatch"),
        "pipeline.admit.calls": calls("pipeline", "ClusterPipeline.admit_batch"),
        "pipeline.admit.accepted_frac": share(
            counters["admit.accepted"], tracer.stat("pipeline", "ClusterPipeline.admit_batch")[0]
        ),
        "pipeline.values.busy_s": busy("pipeline", "ClusterPipeline.full_values")
        + busy("pipeline", "ClusterPipeline.load_values"),
        "multiring.handle.calls": calls("multiring", "AllReduceController.handle"),
        "multiring.chunk_bytes": counters["chunk_bytes"] * per,
        "multiring.apply_ring_mean.calls": calls("multiring", "apply_ring_mean"),
        "multiring.apply_ring_mean.busy_s": busy("multiring", "apply_ring_mean"),
        "data.make_batch.calls": calls("data", "make_batch"),
        "data.make_batch.self_s": self_s("data", "make_batch"),
        "clusterform.evolve.busy_s": busy("clusterform", "evolve"),
        "clusterform.evaluate.calls": calls("clusterform", "evaluate"),
        "clusterform.evaluate.self_s": self_s("clusterform", "evaluate"),
        "clusterform.feasible_frac": share(
            counters["evaluate.feasible"], tracer.stat("clusterform", "evaluate")[0]
        ),
        "clusterform.plan_session.busy_s": setup_tracer.stat("clusterform", "plan_session")[1],
    })
    for kind in ("activation", "gradient", "control", "ring_chunk"):
        metrics[f"simnet.msgs.{kind}"] = counters[f"msgs.{kind}"] * per
    return metrics
