"""End-to-end command-line driver tests (exit codes, artifacts, idempotence)."""

import csv
import json

import numpy as np
import pytest

from rlogit import cli, trim
from rlogit.network import load_network


def run(*argv):
    return cli.main(list(argv))


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One generated instance with simulated observations, shared per module."""
    root = tmp_path_factory.mktemp("cli")
    assert run("generate", "--kind", "dag", "--nodes", "20", "--instances", "2",
               "--seed", "1", "--out", str(root / "nets")) == 0
    net_path = root / "nets" / "net_dag_20_0.json"
    assert run("simulate", "--network", str(net_path), "--n", "300",
               "--seed", "3", "--out", str(root / "train.jsonl")) == 0
    return root


def test_generate_writes_instances_and_meta(workspace):
    meta = json.loads((workspace / "nets" / "generate_meta.json").read_text())
    assert len(meta["instances"]) == 2
    for entry in meta["instances"]:
        assert (workspace / "nets" / entry["file"]).is_file()


def test_generate_deterministic(tmp_path, workspace):
    assert run("generate", "--kind", "dag", "--nodes", "20", "--instances", "2",
               "--seed", "1", "--out", str(tmp_path)) == 0
    a = (workspace / "nets" / "net_dag_20_0.json").read_bytes()
    b = (tmp_path / "net_dag_20_0.json").read_bytes()
    assert a == b


def test_generate_lmdc(tmp_path):
    assert run("generate", "--kind", "lmdc", "--m", "5", "--L", "0", "--U", "3",
               "--out", str(tmp_path)) == 0
    assert (tmp_path / "bic.json").is_file() and (tmp_path / "muc.json").is_file()


def test_invalid_kind_is_usage_error(tmp_path):
    assert run("generate", "--kind", "mesh", "--out", str(tmp_path)) == 2


def test_simulate_deterministic(workspace, tmp_path):
    net_path = workspace / "nets" / "net_dag_20_0.json"
    out = tmp_path / "again.jsonl"
    assert run("simulate", "--network", str(net_path), "--n", "300",
               "--seed", "3", "--out", str(out)) == 0
    assert out.read_bytes() == (workspace / "train.jsonl").read_bytes()
    assert sum(1 for _ in open(out)) == 300


@pytest.mark.parametrize("line, message", [
    ('{"origin": "o", "dest": "d", "path": ["o"', "line 2: malformed JSON"),
    ('{"origin": "o", "path": ["o", "d"]}', 'line 2: expected an object with "origin", "dest"'),
])
def test_estimate_on_malformed_observations_prints_one_error(workspace, tmp_path, capsys,
                                                             line, message):
    first = (workspace / "train.jsonl").read_text().splitlines()[0]
    bad = tmp_path / "bad.jsonl"
    bad.write_text(first + "\n" + line + "\n")
    code = run("estimate", "--network", str(workspace / "nets" / "net_dag_20_0.json"),
               "--observations", str(bad), "--method", "nfxp", "--out", str(tmp_path / "out"))
    assert code == cli.EXIT_ESTIMATION_FAILED
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: InvalidPath: line 2: ")
    assert message in err[0]


def test_estimate_both_methods(workspace, tmp_path):
    net_path = workspace / "nets" / "net_dag_20_0.json"
    code = run("estimate", "--network", str(net_path),
               "--observations", str(workspace / "train.jsonl"),
               "--method", "nfxp,ecp",
               "--out", str(tmp_path))
    assert code == 0
    r_nfxp = json.loads((tmp_path / "result_nfxp.json").read_text())
    r_ecp = json.loads((tmp_path / "result_ecp.json").read_text())
    assert abs(r_nfxp["loglik_per_obs"] - r_ecp["loglik_per_obs"]) <= 1e-4
    assert np.max(np.abs(np.array(r_nfxp["beta_hat"]) - np.array(r_ecp["beta_hat"]))) <= 1e-3
    with open(tmp_path / "results.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert {r["estimator"] for r in rows} == {"nfxp", "ecp"}
    assert r_ecp["trace"] and all("pres" in record for record in r_ecp["trace"])
    assert r_nfxp["trace"] and all("loglik" in record for record in r_nfxp["trace"])


def test_estimate_missing_observations(workspace, tmp_path):
    net_path = workspace / "nets" / "net_dag_20_0.json"
    code = run("estimate", "--network", str(net_path),
               "--observations", str(workspace / "nope.jsonl"),
               "--out", str(tmp_path))
    assert code == 3
    assert not (tmp_path / "results.csv").exists()


def test_estimate_unknown_method(workspace, tmp_path):
    code = run("estimate", "--network", str(workspace / "nets" / "net_dag_20_0.json"),
               "--observations", str(workspace / "train.jsonl"),
               "--method", "mcmc", "--out", str(tmp_path))
    assert code == 2


def test_estimate_success_rate_mode(workspace, tmp_path):
    net_path = workspace / "nets" / "net_dag_20_0.json"
    code = run("estimate", "--network", str(net_path),
               "--observations", str(workspace / "train.jsonl"),
               "--method", "nfxp", "--runs", "3",
               "--out", str(tmp_path))
    assert code == 0
    with open(tmp_path / "results.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert "success_rate" in rows[0]


def test_trim_and_passthrough(workspace, tmp_path):
    net_path = workspace / "nets" / "net_dag_20_0.json"
    assert run("trim", "--network", str(net_path), "--drop", "0.5",
               "--observations", str(workspace / "train.jsonl"),
               "--out", str(tmp_path / "t")) == 0
    trimmed = load_network(tmp_path / "t" / "trimmed.json")
    full = load_network(net_path)
    assert trimmed.n_states <= full.n_states
    report = json.loads((tmp_path / "t" / "trim_report.json").read_text())
    assert report["states_after"] == trimmed.n_states
    # drop 0 is a pass-through
    assert run("trim", "--network", str(net_path), "--drop", "0",
               "--out", str(tmp_path / "p")) == 0
    passthrough = load_network(tmp_path / "p" / "trimmed.json")
    assert passthrough.n_states == full.n_states


def test_trim_reports_the_threshold_it_applied(tmp_path):
    # at the default drop of 0.9 the cut of this network backs off to a
    # smaller fraction; the report names the threshold that made the cut
    assert run("generate", "--kind", "dag", "--nodes", "20", "--instances", "1",
               "--seed", "1", "--out", str(tmp_path / "nets")) == 0
    net_path = tmp_path / "nets" / "net_dag_20_0.json"
    assert run("trim", "--network", str(net_path), "--beta0=-1,-1,-1,-1",
               "--out", str(tmp_path / "t")) == 0
    epsilon = json.loads((tmp_path / "t" / "trim_report.json").read_text())["epsilon"]
    net, trimmed = load_network(net_path), load_network(tmp_path / "t" / "trimmed.json")
    flow = trim.flow_vector(net, np.full(4, -1.0), "o")
    assert epsilon < np.quantile(flow.values[flow.values > 0], 0.9)
    assert trim.trim(net, flow, epsilon).states == trimmed.states
    kept = [net.state_index(s) for s in trimmed.states if s not in ("o", net.destination)]
    assert np.min(flow.values[kept]) >= epsilon


def test_two_stage_init_from(workspace, tmp_path):
    net_path = workspace / "nets" / "net_dag_20_0.json"
    assert run("estimate", "--network", str(net_path),
               "--observations", str(workspace / "train.jsonl"),
               "--method", "ecp", "--out", str(tmp_path / "s1")) == 0
    code = run("estimate", "--network", str(net_path),
               "--observations", str(workspace / "train.jsonl"),
               "--method", "nfxp", "--init-from", str(tmp_path / "s1" / "result_ecp.json"),
               "--out", str(tmp_path / "s2"))
    assert code == 0
    res = json.loads((tmp_path / "s2" / "result_nfxp.json").read_text())
    assert res["status"] == "Converged"


def test_export_formats(workspace, tmp_path):
    net_path = workspace / "nets" / "net_dag_20_0.json"
    for fmt, name in (("json", "p.json"), ("cbf", "p.cbf")):
        assert run("export", "--network", str(net_path),
                   "--observations", str(workspace / "train.jsonl"),
                   "--format", fmt, "--out", str(tmp_path / name)) == 0
        assert (tmp_path / name).stat().st_size > 0
    assert run("export", "--network", str(net_path),
               "--observations", str(workspace / "train.jsonl"),
               "--format", "mps", "--out", str(tmp_path / "p.mps")) == 2


def test_report_svg(workspace, tmp_path):
    net_path = workspace / "nets" / "net_dag_20_0.json"
    assert run("estimate", "--network", str(net_path),
               "--observations", str(workspace / "train.jsonl"),
               "--method", "nfxp,ecp", "--out", str(tmp_path / "res")) == 0
    assert run("report", "--results", str(tmp_path / "res" / "results.csv"),
               "--y-column", "time", "--out", str(tmp_path / "rep")) == 0
    svg = (tmp_path / "rep" / "sweep.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


def test_config_file_defaults(workspace, tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "# experiment defaults\n"
        f"network = {workspace / 'nets' / 'net_dag_20_0.json'}\n"
        f"observations = {workspace / 'train.jsonl'}\n"
        "method = nfxp\n"
        f"out = {tmp_path / 'cfg_out'}\n"
    )
    assert run("--config", str(cfg), "estimate") == 0
    assert (tmp_path / "cfg_out" / "result_nfxp.json").is_file()
    # explicit flag overrides the config value
    assert run("--config", str(cfg), "estimate", "--out", str(tmp_path / "flag_out")) == 0
    assert (tmp_path / "flag_out" / "result_nfxp.json").is_file()
