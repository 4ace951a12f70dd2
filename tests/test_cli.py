import hashlib
import os
from unittest import mock

import pytest

from conftest import tiny_plan
from ravnest import cli, clusterform, configio

INVENTORY = """\
n0 4000 1e6 1.0
n1 4000 1e6 1.0
n2 4000 1e6 1.0
n3 4000 1e6 1.0
"""

TINY_INVENTORY = """\
n0 10 1e6
n1 10 1e6
"""

FOOTPRINT = """\
[model]
arch = 4,4,4,4,4
activation = tanh
loss = mse
batch_size = 2
"""

CONFIG = """\
[experiment]
name = demo
seed = 11
out_dir = {out}

[model]
arch = 4,4,4,4,4
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
k_target = 40
batch_size = 2
"""


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "inventory.txt").write_text(INVENTORY)
    (tmp_path / "footprint.txt").write_text(FOOTPRINT)
    (tmp_path / "exp.ini").write_text(CONFIG.format(out=tmp_path / "runs"))
    return tmp_path


class TestForm:
    def test_feasible_exit_zero_and_plan_written(self, workdir, capsys):
        rc = cli.main([
            "form", "--inventory", str(workdir / "inventory.txt"),
            "--model-footprint", str(workdir / "footprint.txt"),
            "--q", "2", "--seed", "3", "--out", str(workdir / "plan"),
        ])
        assert rc == 0
        plan_text = (workdir / "plan" / "plan.txt").read_text()
        plan = configio.parse_plan(plan_text)
        assert configio.serialize_plan(plan) == plan_text  # bitwise round trip
        assert (workdir / "plan" / "rings.txt").exists()

    def test_infeasible_exit_two(self, workdir):
        (workdir / "tiny.txt").write_text(TINY_INVENTORY)
        rc = cli.main([
            "form", "--inventory", str(workdir / "tiny.txt"),
            "--model-footprint", str(workdir / "footprint.txt"),
            "--q", "2", "--out", str(workdir / "plan"),
        ])
        assert rc == 2

    def test_missing_inventory_exit_one(self, workdir, capsys):
        rc = cli.main([
            "form", "--inventory", str(workdir / "nope.txt"),
            "--model-footprint", str(workdir / "footprint.txt"),
            "--q", "2", "--out", str(workdir / "plan"),
        ])
        assert rc == 1
        assert "nope.txt" in capsys.readouterr().err


class TestTrain:
    def test_dry_run_validates_without_output(self, workdir):
        rc = cli.main(["train", "--config", str(workdir / "exp.ini"), "--dry-run"])
        assert rc == 0
        assert not (workdir / "runs").exists()

    def test_run_dir_contents(self, workdir):
        out = workdir / "run1"
        rc = cli.main(["train", "--config", str(workdir / "exp.ini"), "--out", str(out)])
        assert rc == 0
        for name in ("config.resolved.txt", "plan.txt", "metrics.csv", "summary.txt",
                     "manifest.txt", "final.ckpt", "staleness_c1.csv", "staleness_c2.csv"):
            assert (out / name).exists(), name

    def test_summary_matches_independent_recompute(self, workdir):
        out = workdir / "run2"
        assert cli.main(["train", "--config", str(workdir / "exp.ini"), "--out", str(out)]) == 0
        summary = configio.parse_summary((out / "summary.txt").read_text())
        rows = configio.read_metrics_csv((out / "metrics.csv").read_text())
        updates = [r for r in rows if r["cluster"] is not None and r["cluster"] >= 0]
        assert int(summary["updates"]) == len(updates) == 40
        assert int(summary["allreduce_cycles"]) == 40 // 5
        taus = [int(r["tau"]) for r in updates if r["tau"] is not None]
        assert int(summary["max_tau"]) == max(taus)
        csv_hash = hashlib.sha256((out / "metrics.csv").read_bytes()).hexdigest()
        assert summary["metrics_sha256"] == csv_hash

    def test_same_config_same_hash(self, workdir):
        outs = []
        for name in ("a", "b"):
            out = workdir / name
            assert cli.main(["train", "--config", str(workdir / "exp.ini"), "--out", str(out)]) == 0
            outs.append(hashlib.sha256((out / "metrics.csv").read_bytes()).hexdigest())
        assert outs[0] == outs[1]

    def test_env_seed_override_changes_run(self, workdir, monkeypatch):
        out_a = workdir / "a"
        assert cli.main(["train", "--config", str(workdir / "exp.ini"), "--out", str(out_a)]) == 0
        monkeypatch.setenv("RAVNEST_SEED", "999")
        out_b = workdir / "b"
        assert cli.main(["train", "--config", str(workdir / "exp.ini"), "--out", str(out_b)]) == 0
        ha = hashlib.sha256((out_a / "metrics.csv").read_bytes()).hexdigest()
        hb = hashlib.sha256((out_b / "metrics.csv").read_bytes()).hexdigest()
        assert ha != hb
        manifest = (out_b / "manifest.txt").read_text()
        assert "seed = 999" in manifest

    def test_explicit_plan_consumed(self, workdir):
        assert cli.main([
            "form", "--inventory", str(workdir / "inventory.txt"),
            "--model-footprint", str(workdir / "footprint.txt"),
            "--q", "2", "--seed", "11", "--out", str(workdir / "plan"),
        ]) == 0
        rc = cli.main([
            "train", "--config", str(workdir / "exp.ini"),
            "--plan", str(workdir / "plan" / "plan.txt"),
            "--out", str(workdir / "run3"),
        ])
        assert rc == 0

    def test_bad_config_exit_one(self, workdir):
        (workdir / "bad.ini").write_text(
            CONFIG.format(out=workdir / "runs") + "typo_key = 1\n"
        )
        assert cli.main(["train", "--config", str(workdir / "bad.ini")]) == 1

    def test_topology_latency_and_overrides_reach_the_network(self, workdir):
        (workdir / "topology.txt").write_text(
            "[defaults]\nlatency = 0.01\n"
            "[nodes]\nn0 4000 1e6 1.0\nn1 4000 1e6 1.0\nn2 4000 1e6 1.0\nn3 4000 1e6 1.0\n"
        )
        traced = CONFIG.format(out=workdir / "runs") + "\n[topology]\nfile = topology.txt\n"
        (workdir / "topo.ini").write_text(traced)
        out_base = workdir / "no_topo"
        out_topo = workdir / "with_topo"
        assert cli.main(["train", "--config", str(workdir / "exp.ini"), "--out", str(out_base)]) == 0
        assert cli.main(["train", "--config", str(workdir / "topo.ini"), "--out", str(out_topo)]) == 0
        vt_base = float(configio.parse_summary((out_base / "summary.txt").read_text())["virtual_time"])
        vt_topo = float(configio.parse_summary((out_topo / "summary.txt").read_text())["virtual_time"])
        assert vt_topo > vt_base  # per-hop latency from the topology file applies

    def test_trace_dump_when_enabled(self, workdir):
        (workdir / "traced.ini").write_text(
            CONFIG.format(out=workdir / "runs") + "trace_enabled = true\n"
        )
        out = workdir / "traced"
        assert cli.main(["train", "--config", str(workdir / "traced.ini"),
                         "--out", str(out)]) == 0
        lines = (out / "trace.csv").read_text().splitlines()
        assert lines[0] == "# schema: ravnest-trace-v1"
        assert lines[1] == "time,kind,sender,receiver,step_tag,bytes"
        kinds = {row.split(",")[1] for row in lines[2:]}
        assert {"activation", "gradient", "ring_chunk", "control"} <= kinds

    def test_resolved_config_reproduces_the_run(self, workdir):
        text = CONFIG.format(out=workdir / "runs").replace("eta = 0.05", "eta = auto")
        (workdir / "auto.ini").write_text(text + "trace_enabled = true\n")
        first, again = workdir / "first", workdir / "again"
        assert cli.main(["train", "--config", str(workdir / "auto.ini"),
                         "--out", str(first)]) == 0
        assert cli.main(["train", "--config", str(first / "config.resolved.txt"),
                         "--out", str(again)]) == 0
        for name in ("metrics.csv", "trace.csv", "config.resolved.txt"):
            assert (again / name).read_bytes() == (first / name).read_bytes(), name

    def test_formed_plan_reproduces_the_planned_run(self, workdir):
        assert cli.main([
            "form", "--inventory", str(workdir / "inventory.txt"),
            "--model-footprint", str(workdir / "footprint.txt"),
            "--q", "2", "--seed", "11", "--out", str(workdir / "plan"),
        ]) == 0
        formed = workdir / "plan" / "plan.txt"
        planned, read = workdir / "planned", workdir / "read"
        assert cli.main(["train", "--config", str(workdir / "exp.ini"),
                         "--out", str(planned)]) == 0
        assert cli.main(["train", "--config", str(workdir / "exp.ini"),
                         "--plan", str(formed), "--out", str(read)]) == 0
        assert (read / "plan.txt").read_bytes() == formed.read_bytes()
        assert (read / "metrics.csv").read_bytes() == (planned / "metrics.csv").read_bytes()


class TestBench:
    def test_three_clusters_four_rounds(self, capsys):
        rc = cli.main([
            "allreduce-bench", "--clusters", "3", "--rings", "2",
            "--sizes", "80000", "--bandwidth", "1e6",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        header, row = out.strip().splitlines()
        cols = dict(zip(header.split(","), row.split(",")))
        assert cols["rounds"] == "4"  # 2(C-1) with C=3

    def test_equal_rings_ratio_is_reciprocal(self, capsys):
        rc = cli.main([
            "allreduce-bench", "--clusters", "4", "--rings", "5",
            "--sizes", "400000", "--bandwidth", "1e7",
        ])
        assert rc == 0
        header, row = capsys.readouterr().out.strip().splitlines()
        cols = dict(zip(header.split(","), row.split(",")))
        assert float(cols["ratio"]) == pytest.approx(1 / 5)

    def test_empty_sizes_usage_error(self):
        assert cli.main(["allreduce-bench", "--sizes", ""]) == 1


class TestVerify:
    def test_verify_passes_and_writes_csv(self, tmp_path, capsys):
        rc = cli.main(["verify", "--out", str(tmp_path / "oracle.csv")])
        assert rc == 0
        text = (tmp_path / "oracle.csv").read_text()
        assert text.startswith("# schema: ravnest-oracle-v1")
        assert "checks passed" in capsys.readouterr().out


class TestSweep:
    def test_sweep_over_q(self, workdir):
        out = workdir / "sweep"
        rc = cli.main([
            "sweep", "--config", str(workdir / "exp.ini"),
            "--param", "q", "--values", "1,2", "--out", str(out),
        ])
        assert rc == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "# schema: ravnest-sweep-v1"
        assert lines[1].startswith("q,")
        assert len(lines) == 4  # schema + header + two rows

    def test_env_seed_reaches_the_planner(self, workdir, monkeypatch):
        seeds = []
        plan_session = clusterform.plan_session

        def spy(pool, footprint, q, model, ga):
            seeds.append(ga.seed)
            return plan_session(pool, footprint, q, model, ga)

        monkeypatch.setattr(clusterform, "plan_session", spy)
        monkeypatch.setenv("RAVNEST_SEED", "999")
        assert cli.main([
            "sweep", "--config", str(workdir / "exp.ini"),
            "--values", "2", "--out", str(workdir / "sweep"),
        ]) == 0
        assert seeds == [999]

    def test_bad_param_usage_error(self, workdir):
        assert cli.main([
            "sweep", "--config", str(workdir / "exp.ini"),
            "--param", "banana", "--values", "1", "--out", str(workdir / "s"),
        ]) == 1


def _train(w, *extra):
    return ["train", "--config", str(w / "exp.ini"), *extra]


def _non_numeric_kappa(w):
    (w / "exp.ini").write_text(CONFIG.format(out=w / "runs").replace("kappa = 5", "kappa = five"))
    return _train(w, "--dry-run")


def _non_numeric_inventory(w):
    (w / "inventory.txt").write_text(INVENTORY.replace("n1 4000 1e6", "n1 4000 fast"))


def _non_numeric_inventory_train(w):
    _non_numeric_inventory(w)
    return _train(w, "--dry-run")


def _non_numeric_inventory_form(w):
    _non_numeric_inventory(w)
    return ["form", "--inventory", str(w / "inventory.txt"),
            "--model-footprint", str(w / "footprint.txt"), "--q", "2", "--out", str(w / "plan")]


def _plan(w, old, new):
    text = configio.serialize_plan(tiny_plan([2, 2])[2])
    assert old in text
    (w / "plan.txt").write_text(text.replace(old, new))
    return _train(w, "--plan", str(w / "plan.txt"))


def _plan_missing_meta_key(w):
    return _plan(w, "q = 2\n", "")


def _plan_short_node_row(w):
    return _plan(w, "[nodes]\n", "[nodes]\nn9 4000\n")


def _config_without(w, line):
    text = CONFIG.format(out=w / "runs")
    assert line in text
    (w / "exp.ini").write_text(text.replace(line, ""))
    return _train(w, "--dry-run")


def _config_missing_generator(w):
    return _config_without(w, "generator = mlp\n")


def _config_missing_kappa(w):
    return _config_without(w, "kappa = 5\n")


def _config_without_section_headers(w):
    (w / "exp.ini").write_text("seed = 11\nkappa = 5\n")
    return _train(w, "--dry-run")


def _form_with_footprint(w, old, new):
    assert old in FOOTPRINT
    (w / "footprint.txt").write_text(FOOTPRINT.replace(old, new))
    return ["form", "--inventory", str(w / "inventory.txt"),
            "--model-footprint", str(w / "footprint.txt"), "--q", "2", "--out", str(w / "plan")]


def _footprint_non_numeric_arch(w):
    return _form_with_footprint(w, "arch = 4,4,4,4,4", "arch = 4,x,4")


def _footprint_non_numeric_batch_size(w):
    return _form_with_footprint(w, "batch_size = 2", "batch_size = two")


def _plan_non_numeric_q(w):
    return _plan(w, "q = 2\n", "q = two\n")


def _plan_bad_assignment_row(w):
    return _plan(w, "c1n0 1\n", "c1n0 one\n")


def _plan_short_layouts_row(w):
    return _plan(w, "1 0 0 1 0 20\n", "1 0 0 1 0\n")


def _plan_bad_rings_row(w):
    return _plan(w, "1:0,2:0", "1-0,2:0")


def _plan_ring_member_out_of_range(w):
    return _plan(w, "1:1,2:1", "1:1,2:9")


def _plan_extra_layouts_row(w):
    return _plan(w, "2 1 1 2 20 20\n", "2 1 1 2 20 20\n2 2 1 2 20 20\n")


def _config_with_ga(w, line):
    (w / "exp.ini").write_text(CONFIG.format(out=w / "runs") + f"\n[ga]\n{line}\n")
    return _train(w, "--dry-run")


def _ga_tournament_k_zero(w):
    return _config_with_ga(w, "tournament_k = 0")


def _ga_elitism_k_above_pop_size(w):
    return _config_with_ga(w, "elitism_k = 100")


def _plan_for_matching_config(w, old, new):
    """_plan with the config's arch set to the plan's, so that only the plan can fail."""
    text = CONFIG.format(out=w / "runs").replace("arch = 4,4,4,4,4", "arch = 4,4,4")
    (w / "exp.ini").write_text(text)
    return _plan(w, old, new)


def _plan_unknown_pipeline_node(w):
    return _plan_for_matching_config(w, "1 c1n0 c1n1\n", "1 c1n0 c9n9\n")


def _plan_negative_speed(w):
    return _plan_for_matching_config(w, " 1.0\n[assignment]", " -1.0\n[assignment]")


def _plan_q_above_pipelines(w):
    return _plan_for_matching_config(w, "q = 2\n", "q = 5\n")


def _plan_assignment_contradicts_pipelines(w):
    return _plan_for_matching_config(w, "c1n1 1\nc2n0 2\n", "c1n1 2\nc2n0 1\n")


def _plan_assignment_outside_q(w):
    return _plan_for_matching_config(w, "c1n0 1\n", "c1n0 7\n")


def _plan_zero_batch_size(w):
    return _plan_for_matching_config(w, "batch_size = 2\n", "batch_size = 0\n")


def _config_with_topology(w, topology):
    (w / "topology.txt").write_text(topology)
    text = CONFIG.format(out=w / "runs") + "\n[topology]\nfile = topology.txt\n"
    (w / "exp.ini").write_text(text)
    return _train(w, "--dry-run")


def _topology_link_negative_latency(w):
    return _config_with_topology(w, "[nodes]\n" + INVENTORY + "[links]\nn0 n1 -0.001 1e6\n")


def _topology_link_zero_bandwidth(w):
    return _config_with_topology(w, "[nodes]\n" + INVENTORY + "[links]\nn0 n1 0.001 0\n")


def _topology_node_zero_speed(w):
    nodes = INVENTORY.replace("n1 4000 1e6 1.0", "n1 4000 1e6 0.0")
    return _config_with_topology(w, "[nodes]\n" + nodes)


def _config_with_train(w, lines):
    (w / "exp.ini").write_text(CONFIG.format(out=w / "runs") + lines)
    return _train(w, "--dry-run")


def _train_negative_fwd_cost(w):
    return _config_with_train(w, "fwd_cost_coeff = -1e-9\n")


def _train_negative_bwd_ratio(w):
    return _config_with_train(w, "bwd_cost_ratio = -2\n")


def _train_negative_default_latency(w):
    return _config_with_train(w, "\n[topology]\ndefault_latency = -0.001\n")


def _train_enforced_negative_t_bound(w):
    return _config_with_train(w, "enforce_t = true\nt_bound = -1\n")


def _train_negative_max_inflight(w):
    return _config_with_train(w, "max_inflight = -1\n")


def _train_negative_max_events(w):
    return _config_with_train(w, "max_events = -5\n")


def _train_nan_eta(w):
    (w / "exp.ini").write_text(CONFIG.format(out=w / "runs").replace("eta = 0.05", "eta = nan"))
    return _train(w, "--dry-run")


def _config_replacing(w, old, new):
    text = CONFIG.format(out=w / "runs")
    assert old in text
    (w / "exp.ini").write_text(text.replace(old, new))
    return _train(w, "--dry-run")


def _config_negative_noise(w):
    return _config_replacing(w, "n_samples = 64\n", "n_samples = 64\nnoise = -1\n")


def _config_zero_q(w):
    return _config_replacing(w, "q = 2\n", "q = 0\n")


def _config_negative_seed(w):
    return _config_replacing(w, "seed = 11\n", "seed = -1\n")


def _config_infinite_eta(w):
    return _config_replacing(w, "eta = 0.05\n", "eta = inf\n")


@pytest.fixture(autouse=True)
def _environment_restored():
    """A malformed-input case may set RAVNEST_SEED; no later test sees it."""
    with mock.patch.dict(os.environ):
        yield


def _env_negative_seed(w):
    os.environ["RAVNEST_SEED"] = "-1"
    return _train(w, "--dry-run")


def _form(w, *extra):
    return ["form", "--inventory", str(w / "inventory.txt"),
            "--model-footprint", str(w / "footprint.txt"), "--out", str(w / "plan"), *extra]


def _form_zero_q(w):
    return _form(w, "--q", "0")


def _form_negative_q(w):
    return _form(w, "--q", "-1")


def _form_negative_seed(w):
    return _form(w, "--q", "2", "--seed", "-1")


def _sweep(w, values):
    return ["sweep", "--config", str(w / "exp.ini"), "--values", values, "--out", str(w / "s")]


def _sweep_zero_q(w):
    return _sweep(w, "0")


def _sweep_non_numeric_values(w):
    return _sweep(w, "x")


def _bench(*extra):
    return ["allreduce-bench", "--sizes", "800", *extra]


def _bench_zero_rings(w):
    return _bench("--rings", "0")


def _bench_zero_bandwidth(w):
    return _bench("--bandwidth", "0")


def _bench_zero_clusters(w):
    return _bench("--clusters", "0")


def _bench_one_cluster(w):
    return _bench("--clusters", "1")


def _bench_negative_latency(w):
    return _bench("--latency", "-1")


def _bench_non_numeric_sizes(w):
    return _bench("--sizes", "x")


@pytest.mark.parametrize("malformed", [
    _non_numeric_kappa,
    _non_numeric_inventory_train,
    _non_numeric_inventory_form,
    _plan_missing_meta_key,
    _plan_short_node_row,
    _config_missing_generator,
    _config_missing_kappa,
    _config_without_section_headers,
    _footprint_non_numeric_arch,
    _footprint_non_numeric_batch_size,
    _plan_non_numeric_q,
    _plan_bad_assignment_row,
    _plan_short_layouts_row,
    _plan_bad_rings_row,
    _plan_ring_member_out_of_range,
    _plan_extra_layouts_row,
    _ga_tournament_k_zero,
    _ga_elitism_k_above_pop_size,
    _plan_unknown_pipeline_node,
    _plan_negative_speed,
    _plan_q_above_pipelines,
    _plan_assignment_contradicts_pipelines,
    _plan_assignment_outside_q,
    _plan_zero_batch_size,
    _topology_link_negative_latency,
    _topology_link_zero_bandwidth,
    _topology_node_zero_speed,
    _train_negative_fwd_cost,
    _train_negative_bwd_ratio,
    _train_negative_default_latency,
    _train_enforced_negative_t_bound,
    _train_negative_max_inflight,
    _train_negative_max_events,
    _train_nan_eta,
    _config_negative_noise,
    _config_zero_q,
    _config_negative_seed,
    _config_infinite_eta,
    _env_negative_seed,
    _form_zero_q,
    _form_negative_q,
    _form_negative_seed,
    _sweep_zero_q,
    _sweep_non_numeric_values,
    _bench_zero_rings,
    _bench_zero_bandwidth,
    _bench_zero_clusters,
    _bench_one_cluster,
    _bench_negative_latency,
    _bench_non_numeric_sizes,
])
def test_malformed_input_exits_one_with_one_error_line(workdir, capsys, malformed):
    rc = cli.main(malformed(workdir))
    err = capsys.readouterr().err
    assert rc == 1
    assert len(err.splitlines()) == 1 and err.startswith("error:"), err
    assert "Traceback" not in err
