import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import tiny_plan
from ravnest import configio
from ravnest.clusterform import ModelFootprint
from ravnest.errors import ConfigError, SchemaError

TOPOLOGY = """\
# three desks
[defaults]
latency = 0.002
[nodes]
n0 8e9 1e8 1.0
n1 4e9 5e7 0.8
n2 4e9 5e7
[links]
n0 n1 0.001 2e7
"""

INVENTORY = """\
# id ram bandwidth speed
n0 8e9 1e8 1.0
n1 4e9 5e7
"""

FOOTPRINT = """\
[model]
arch = 4,4,4
activation = tanh
loss = mse
batch_size = 2
"""

CONFIG = """\
[experiment]
name = demo
seed = 11
out_dir = runs

[model]
arch = 4,4,4
activation = tanh
loss = mse

[data]
generator = mlp
n_samples = 64

[cluster]
inventory = inventory.txt
q = 2

[train]
eta = 0.05
kappa = 5
k_target = 20
batch_size = 2
"""


class TestTopology:
    def test_parse_defaults_nodes_links(self):
        nodes, links, latency = configio.parse_topology(TOPOLOGY)
        assert latency == 0.002
        assert nodes["n1"].speed_factor == 0.8
        assert nodes["n2"].speed_factor == 1.0
        assert links[("n0", "n1")].bandwidth == 2e7

    def test_unknown_section_rejected(self):
        with pytest.raises(SchemaError, match="unknown topology sections"):
            configio.parse_topology("[wormholes]\nn0 n1 0 1\n")

    def test_link_to_unknown_node_rejected(self):
        with pytest.raises(SchemaError, match="unknown node"):
            configio.parse_topology("[nodes]\nn0 1 1\n[links]\nn0 zz 0 1\n")


class TestInventory:
    def test_parse_rows(self):
        nodes = configio.parse_inventory(INVENTORY)
        assert [n.node_id for n in nodes] == ["n0", "n1"]
        assert nodes[0].ram_bytes == 8e9

    def test_round_trip(self):
        nodes = configio.parse_inventory(INVENTORY)
        again = configio.parse_inventory(configio.serialize_inventory(nodes))
        assert again == nodes

    def test_bad_row_rejected(self):
        with pytest.raises(SchemaError):
            configio.parse_inventory("n0 only-two\n")

    def test_non_numeric_field_rejected(self):
        with pytest.raises(SchemaError, match="non-numeric"):
            configio.parse_inventory("n0 4e9 fast 1.0\n")


class TestFootprintFile:
    def test_parse(self):
        model, batch = configio.parse_footprint(FOOTPRINT)
        assert model.arch == (4, 4, 4)
        assert batch == 2
        fp = ModelFootprint.from_model(model, batch)
        assert fp.M > 0

    def test_unknown_key_rejected(self):
        with pytest.raises(SchemaError, match="unknown footprint keys"):
            configio.parse_footprint("[model]\narch = 4,4\nbatch_size = 1\ncolor = red\n")


class TestPlanFile:
    def test_round_trip_bitwise(self):
        _, _, plan = tiny_plan([2, 3])
        text = configio.serialize_plan(plan)
        parsed = configio.parse_plan(text)
        assert configio.serialize_plan(parsed) == text

    def test_parse_preserves_structure(self):
        _, _, plan = tiny_plan([2, 1])
        parsed = configio.parse_plan(configio.serialize_plan(plan))
        assert parsed.q == plan.q
        assert parsed.assignment == plan.assignment
        assert parsed.pipelines == plan.pipelines
        assert len(parsed.ring_schedule.rings) == len(plan.ring_schedule.rings)

    def test_wrong_schema_rejected(self):
        with pytest.raises(SchemaError, match="ravnest-plan-v1"):
            configio.parse_plan("# schema: something-else\n")

    def test_tampered_param_len_rejected(self):
        _, _, plan = tiny_plan([2])
        text = configio.serialize_plan(plan)
        lines = text.splitlines()
        idx = lines.index("[layouts]") + 1
        parts = lines[idx].split()
        parts[-1] = str(int(parts[-1]) + 1)
        lines[idx] = " ".join(parts)
        with pytest.raises(SchemaError, match="param_len"):
            configio.parse_plan("\n".join(lines) + "\n")

    @settings(max_examples=40, deadline=None)
    @given(
        peer_counts=st.lists(st.integers(1, 3), min_size=1, max_size=3),
        speeds=st.lists(st.floats(0.25, 4.0), min_size=1, max_size=3),
        data=st.data(),
    )
    def test_round_trip_and_any_changed_derived_integer_rejected(self, peer_counts, speeds, data):
        text = configio.serialize_plan(tiny_plan(peer_counts, speed_factors=tuple(speeds))[2])
        assert configio.serialize_plan(configio.parse_plan(text)) == text
        lines = text.splitlines()
        integers = []  # (line index, match) of every integer in a derived section's rows
        section = None
        for i, line in enumerate(lines):
            if line.startswith("["):
                section = line
            elif section in ("[pipelines]", "[layouts]", "[rings]"):
                integers += [(i, m) for m in re.finditer(r"\d+", line)]
        i, m = data.draw(st.sampled_from(integers))
        value = data.draw(st.integers(0, 99).filter(lambda v: v != int(m.group())))
        lines[i] = lines[i][:m.start()] + str(value) + lines[i][m.end():]
        with pytest.raises(SchemaError):
            configio.parse_plan("\n".join(lines) + "\n")


class TestExperimentConfig:
    def _write(self, tmp_path, config_text=CONFIG):
        (tmp_path / "inventory.txt").write_text(INVENTORY)
        cfg_path = tmp_path / "exp.ini"
        cfg_path.write_text(config_text)
        return cfg_path

    def test_parse_valid(self, tmp_path):
        cfg = configio.parse_experiment_config(self._write(tmp_path))
        assert cfg.name == "demo"
        assert cfg.train.kappa == 5
        assert cfg.train.eta == 0.05
        assert cfg.q == 2

    def test_unknown_key_rejected(self, tmp_path):
        bad = CONFIG + "wormhole = yes\n"
        with pytest.raises(ConfigError, match="unknown keys"):
            configio.parse_experiment_config(self._write(tmp_path, bad))

    def test_unknown_section_rejected(self, tmp_path):
        bad = CONFIG + "\n[warp]\nspeed = 9\n"
        with pytest.raises(ConfigError, match="unknown config section"):
            configio.parse_experiment_config(self._write(tmp_path, bad))

    def test_missing_inventory_rejected(self, tmp_path):
        cfg_path = tmp_path / "exp.ini"
        cfg_path.write_text(CONFIG)
        with pytest.raises(ConfigError, match="inventory"):
            configio.parse_experiment_config(cfg_path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            configio.parse_experiment_config(tmp_path / "nope.ini")


# Per config key: a strategy for valid text, and text the reader must reject
# (non-convertible or out of the key's domain). Both are written out here, not
# read from configio.CONFIG_SCHEMA, so the schema is not its own oracle.
_UNSIGNED = st.integers(0, 10**6).map(str)
_COUNT = st.integers(1, 10**6).map(str)
_AMOUNT = st.floats(0, 1e3).map(repr)  # finite and >= 0
_RATE = st.floats(0, 1).map(repr)
_BOOLEAN = st.sampled_from(["yes", "no", "on", "off", "true", "False", "1", "0"])
_WORD = st.text("abc_-019", max_size=8)
CONFIG_KEYS = {
    ("experiment", "name"): (_WORD, []),
    ("experiment", "seed"): (_UNSIGNED, ["-1", "x", "1.5"]),
    ("experiment", "out_dir"): (_WORD, []),
    ("model", "arch"): (st.lists(st.integers(1, 9), min_size=2, max_size=5).map(
        lambda arch: ",".join(map(str, arch))), ["4,x", ""]),
    ("model", "activation"): (st.sampled_from(["tanh", "relu"]), []),
    ("model", "loss"): (st.sampled_from(["mse", "softmax_ce"]), []),
    ("data", "generator"): (st.sampled_from(["linear", "mlp", "classify"]), ["spiral", ""]),
    ("data", "n_samples"): (_COUNT, ["0", "-3", "x"]),
    ("data", "noise"): (_AMOUNT, ["-1", "-0.5", "nan", "inf", "x"]),
    ("cluster", "inventory"): (st.just("inventory.txt"), ["missing.txt"]),
    ("cluster", "q"): (_COUNT, ["0", "-1", "two"]),
    ("topology", "file"): (st.sampled_from(["", "topology.txt"]), ["missing.txt"]),
    ("topology", "default_latency"): (_AMOUNT, ["-0.001", "inf", "nan", "x"]),
    ("train", "eta"): (st.just("auto") | _AMOUNT, ["-1", "inf", "nan", "fast"]),
    ("train", "kappa"): (_COUNT, ["x", "1.5"]),
    ("train", "k_target"): (_COUNT, ["x"]),
    ("train", "batch_size"): (_COUNT, ["x"]),
    ("train", "n_accum"): (_COUNT, ["x"]),
    ("train", "max_inflight"): (_UNSIGNED, ["x"]),
    ("train", "enforce_t"): (_BOOLEAN, ["maybe", "2"]),
    ("train", "t_bound"): (_UNSIGNED, ["x"]),
    ("train", "barrier_mode"): (st.sampled_from(["drain", "snapshot"]), []),
    ("train", "fwd_cost_coeff"): (_AMOUNT, ["-1e-9", "inf", "nan"]),
    ("train", "bwd_cost_ratio"): (_AMOUNT, ["-2", "inf", "nan"]),
    ("train", "max_events"): (_UNSIGNED, ["x"]),
    ("train", "trace_enabled"): (_BOOLEAN, ["maybe"]),
    ("ga", "pop_size"): (st.integers(2, 100).map(str), ["x"]),
    ("ga", "generations"): (_COUNT, ["x"]),
    ("ga", "crossover_rate"): (_RATE, ["x"]),
    ("ga", "mutation_rate"): (_RATE, ["x"]),
    ("ga", "elitism_k"): (st.integers(0, 2).map(str), ["x"]),
    ("ga", "tournament_k"): (_COUNT, ["x"]),
}
REQUIRED_KEYS = {
    ("model", "arch"), ("data", "generator"), ("data", "n_samples"), ("cluster", "inventory"),
    ("cluster", "q"), ("train", "kappa"), ("train", "k_target"), ("train", "batch_size"),
}
# every key at a valid value, optional ones sometimes left out
_VALID_CONFIGS = st.fixed_dictionaries({
    key: valid if key in REQUIRED_KEYS else st.none() | valid
    for key, (valid, _) in CONFIG_KEYS.items()
})
_BAD_VALUES = [(key, bad) for key, (_, bads) in CONFIG_KEYS.items() for bad in bads]


@pytest.fixture(scope="module")
def config_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("config")
    (path / "inventory.txt").write_text(INVENTORY)
    (path / "topology.txt").write_text(TOPOLOGY)
    return path


def _write_config(path, values):
    lines = ["[experiment]"]  # the one section required without a required key
    for section, key in CONFIG_KEYS:
        text = values[section, key]
        if text is not None:
            if f"[{section}]" not in lines:
                lines.append(f"[{section}]")
            lines.append(f"{key} = {text}")
    path.write_text("\n".join(lines) + "\n")
    return path


class TestConfigSchema:
    def test_key_list_covers_the_schema(self):
        assert list(CONFIG_KEYS) == [(row.section, row.key) for row in configio.CONFIG_SCHEMA]

    def test_readme_train_block_lists_every_key(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = readme.split("```ini\n[experiment]\n", 1)[1].split("```", 1)[0]
        listed, section = [], "experiment"
        for line in block.splitlines():
            line = line.split("#", 1)[0].strip()
            if line.startswith("["):
                section = line[1:-1]
            elif line:
                listed.append((section, line.partition("=")[0].strip()))
        assert listed == list(CONFIG_KEYS)

    @settings(max_examples=100, deadline=None)
    @given(values=_VALID_CONFIGS)
    def test_resolved_config_round_trips_byte_identically(self, config_dir, values):
        cfg = configio.parse_experiment_config(_write_config(config_dir / "exp.ini", values))
        text = configio.resolved_config_text(cfg)
        (config_dir / "resolved.ini").write_text(text)
        again = configio.parse_experiment_config(config_dir / "resolved.ini")
        assert configio.resolved_config_text(again) == text

    @settings(max_examples=100, deadline=None)
    @given(values=_VALID_CONFIGS, case=st.sampled_from(_BAD_VALUES))
    def test_bad_value_is_one_line_naming_its_key(self, config_dir, values, case):
        (section, key), bad = case
        path = _write_config(config_dir / "bad.ini", {**values, (section, key): bad})
        with pytest.raises(ConfigError) as err:
            configio.parse_experiment_config(path)
        message = str(err.value)
        assert f"[{section}] {key}" in message and "\n" not in message


class TestMetricsReader:
    def test_rejects_unknown_schema(self):
        with pytest.raises(SchemaError):
            configio.read_metrics_csv("# schema: ravnest-metrics-v99\nt\n1\n")

    def test_rejects_missing_schema(self):
        with pytest.raises(SchemaError):
            configio.read_metrics_csv("t,cluster\n1,0\n")


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        values = np.random.default_rng(0).normal(size=37)
        path = tmp_path / "x.ckpt"
        configio.write_checkpoint(path, values)
        got = configio.read_checkpoint(path)
        assert np.array_equal(got, values)

    def test_header_layout(self, tmp_path):
        path = tmp_path / "x.ckpt"
        configio.write_checkpoint(path, np.array([1.0]))
        raw = path.read_bytes()
        assert raw[:8] == b"RAVNCKPT"
        assert int.from_bytes(raw[8:12], "little") == 1  # version
        assert int.from_bytes(raw[12:20], "little") == 1  # count

    @pytest.mark.parametrize("length", [14, 40])
    def test_truncated_rejected(self, tmp_path, length):
        path = tmp_path / "x.ckpt"
        configio.write_checkpoint(path, np.arange(5.0))
        path.write_bytes(path.read_bytes()[:length])
        with pytest.raises(SchemaError, match="truncated"):
            configio.read_checkpoint(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "x.ckpt"
        path.write_bytes(b"NOTMAGIC" + b"\0" * 20)
        with pytest.raises(SchemaError):
            configio.read_checkpoint(path)


class TestSummary:
    def test_round_trip(self):
        text = configio.write_summary({"final_loss": 0.25, "updates": 100, "note": None})
        parsed = configio.parse_summary(text)
        assert parsed["updates"] == "100"
        assert float(parsed["final_loss"]) == 0.25
