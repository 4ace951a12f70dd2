import re

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
