import csv
import hashlib
import io
import json
import subprocess
import sys

import pytest

from molbo.cli import _pair_of_index, main
from molbo.molgraph import parse_smiles
from molbo.synthesis import load_dag


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def join_args(small_pool_path, tmp_path):
    def build(out_name="run.jsonl", **extra):
        out = tmp_path / out_name
        argv = [
            "optimize", "--pool", str(small_pool_path), "--objective", "heavy_atom",
            "--target", "10", "--oracle", "join", "--kernel", "ot",
            "--budget", "2", "--explorer-steps", "6", "--seed", "11",
            "--out", str(out),
        ]
        for key, value in extra.items():
            argv += [f"--{key}", str(value)]
        return argv, out

    return build


class TestDist:
    def test_identical_molecules(self, capsys):
        code, out, _ = run_cli(capsys, "dist", "C", "C")
        assert code == 0
        payload = json.loads(out)
        assert payload["distances"] == [0.0, 0.0, 0.0, 0.0]
        assert payload["config_order"] == [
            "unit_raw", "unit_norm", "mass_raw", "mass_norm",
        ]

    def test_different_molecules_all_positive(self, capsys):
        code, out, _ = run_cli(capsys, "dist", "CC", "C")
        assert code == 0
        assert all(v > 0 for v in json.loads(out)["distances"])

    @pytest.mark.parametrize("a,b,distances", [
        ("CC(=O)O", "OCCN",
         "6.0, 0.3157894736842105, 45.041000000000004, 0.3718217540615507"),
        ("c1ccccc1O", "CS(=O)(=O)C",
         "9.666666666666668, 0.40277777777777785, 133.12833333333333, 0.7072228331412038"),
    ], ids=["acid-aminoethanol", "phenol-sulfone"])
    def test_pinned_stdout(self, capsys, a, b, distances):
        code, out, _ = run_cli(capsys, "dist", a, b)
        assert code == 0
        assert out == ('{"config_order": ["unit_raw", "unit_norm", "mass_raw", "mass_norm"], '
                       f'"distances": [{distances}]}}\n')

    def test_invalid_smiles_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "dist", "C(", "C")
        assert code == 2
        assert not out
        assert "error" in err


class TestGram:
    def test_csv_header_and_symmetry(self, capsys, small_pool_path):
        code, out, _ = run_cli(
            capsys, "gram", "--pool", str(small_pool_path), "--kernel", "ot"
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        header, data = rows[0], rows[1:]
        assert len(header) == 10 and len(data) == 10
        assert header[0] == parse_smiles("C").canonical_form
        matrix = [[float(v) for v in row] for row in data]
        for i in range(10):
            assert matrix[i][i] == pytest.approx(1.0)
            for j in range(10):
                assert matrix[i][j] == pytest.approx(matrix[j][i], abs=1e-12)

    def test_pinned_sum_csv(self, capsys, small_pool_path):
        # numpy's vectorised exp may differ in the last bit between CPUs, so
        # this digest was recorded with numpy 2.4.6 wheels on x86-64 (the
        # versions tier-1 CI installs)
        code, out, _ = run_cli(
            capsys, "gram", "--pool", str(small_pool_path), "--kernel", "sum"
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == \
            "c863adebaed127a1b91ee40596c12812e8379fbc367881898b641fe0742c6806"

    def test_config_entries_match_flags(self, capsys, small_pool_path, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"kernel": "fingerprint"}))
        pool = ("--pool", str(small_pool_path))
        code, by_file, _ = run_cli(capsys, "gram", *pool, "--config", str(cfg_path))
        assert code == 0
        assert by_file == run_cli(capsys, "gram", *pool, "--kernel", "fingerprint")[1]
        assert by_file != run_cli(capsys, "gram", *pool)[1]  # the OT default

    def test_missing_pool_exit_2(self, capsys, tmp_path):
        missing = tmp_path / "nope.smi"
        code, _, err = run_cli(capsys, "gram", "--pool", str(missing))
        assert code == 2
        assert str(missing) in err


class TestOptimize:
    def test_summary_and_artifacts(self, capsys, join_args):
        argv, out_path = join_args()
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        summary = json.loads(out)
        assert set(summary) == {"best_value", "best_molecule", "evaluations", "stalled"}
        assert summary["evaluations"] == 10 + 2
        assert summary["stalled"] is False
        assert out_path.exists()
        dag = load_dag(str(out_path)[: -len(".jsonl")] + ".dag.json")
        assert summary["best_molecule"] in dag.nodes

    def test_summary_reports_stall(self, capsys, join_args):
        # no rule of the template library fires on the small join pool, so
        # the random baseline rates nothing beyond the pool
        argv, out_path = join_args(out_name="stall.jsonl", oracle="template",
                                   method="rand")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        summary = json.loads(out)
        assert summary["stalled"] is True
        assert summary["evaluations"] == 10
        assert len(out_path.read_text().splitlines()) == 1  # the header only

    def test_budget_zero_returns_pool_max(self, capsys, join_args):
        argv, _ = join_args(out_name="zero.jsonl", budget="0")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        summary = json.loads(out)
        assert summary["best_value"] == -(10 - 3)  # best pool molecule has 3 heavy atoms

    def test_byte_identical_logs(self, capsys, join_args):
        argv1, out1 = join_args(out_name="one.jsonl")
        argv2, out2 = join_args(out_name="two.jsonl")
        assert run_cli(capsys, *argv1)[0] == 0
        assert run_cli(capsys, *argv2)[0] == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_required(self, capsys, small_pool_path):
        code, _, err = run_cli(
            capsys, "optimize", "--pool", str(small_pool_path), "--oracle", "join"
        )
        assert code == 2
        assert "seed" in err

    def test_missing_pool_exit_2(self, capsys, tmp_path):
        missing = tmp_path / "absent.smi"
        code, _, err = run_cli(
            capsys, "optimize", "--pool", str(missing), "--seed", "1"
        )
        assert code == 2
        assert str(missing) in err

    def test_config_file_with_flag_override(self, capsys, small_pool_path, tmp_path):
        config = {
            "pool": str(small_pool_path),
            "objective": "heavy_atom",
            "target": 10,
            "oracle": "join",
            "budget": 5,
            "seed": 3,
            "explorer_steps": 6,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "cfg_run.jsonl"
        # flag overrides config budget 5 -> 1
        code, text, _ = run_cli(
            capsys, "optimize", "--config", str(cfg_path), "--budget", "1",
            "--out", str(out),
        )
        assert code == 0
        assert json.loads(text)["evaluations"] == 11

    @pytest.mark.parametrize("config,named", [
        ([1, 2], "JSON object"),
        ({"betas": 3}, "'betas'"),
        ({"qed_bands": {"mass": {"a": 1}}}, "'qed_bands'"),
        ({"contribution_table": [1]}, "'contribution_table'"),
        ({"conditions": ["nope"]}, "'nope'"),
        ({"budget": [1]}, "'budget'"),
        ({"budget": True}, "'budget'"),
        ({"target": 25.0}, "'target'"),
        ({"seed": "1"}, "'seed'"),
        ({"explorer_steps": None}, "'explorer_steps'"),
        ({"alpha1": [1], "kernel": "sum"}, "'alpha1'"),
        ({"alpha2": False, "kernel": "sum"}, "'alpha2'"),
        ({"conditions": 5}, "'conditions'"),
        ({"conditions": [1]}, "'conditions'"),
        ({"pool": [1]}, "'pool'"),
        ({"pool": 1}, "'pool'"),
        ({"n_bits": 100, "kernel": "fingerprint"}, "'n_bits'"),
        ({"max_path_len": 0}, "'max_path_len'"),
        ({"alpha1": 20, "kernel": "sum"}, "'alpha1'"),
    ], ids=["not-an-object", "betas", "qed-bands", "contribution-table", "condition",
            "budget-list", "budget-bool", "target-float", "seed-string",
            "explorer-steps-null", "alpha1-list", "alpha2-bool", "conditions-int",
            "conditions-not-names", "pool-list", "pool-int", "n-bits-range",
            "max-path-len-range", "alpha1-range"])
    def test_malformed_config_exit_2(self, capsys, small_pool_path, tmp_path, config,
                                     named):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "bad_run.jsonl"
        # a config that sets the pool gets no --pool flag, which would win
        pool_flag = [] if "pool" in config else ["--pool", str(small_pool_path)]
        code, text, err = run_cli(
            capsys, "optimize", *pool_flag, "--seed", "1",
            "--config", str(cfg_path), "--out", str(out),
        )
        assert code == 2
        assert not text
        assert named in err
        assert not out.exists()  # rejected before the log header is written


    # sha256 of the header line of `optimize --budget 0`, recorded before the
    # config codec replaced the CLI's own config parsing
    @pytest.mark.parametrize("config,digest", [
        ({"objective": "heavy_atom", "target": 10, "oracle": "join", "budget": 5,
          "seed": 3, "explorer_steps": 6},
         "51ebac772e2a06d569d7a66ca1a7dd12b5f60ac8c070b6276da709de56c4d861"),
        ({"kernel": "sum", "betas": [1, 2, 1, 1], "alpha1": 1, "contribution_table": {"C": 1},
          "qed_bands": {"mass": {"a": 0, "b": 10, "c": 20, "d": 30}}, "objective": "qed",
          "seed": 5, "oracle": "join"},
         "7131212ac7a5da445d7fce9697ee5ad7378b957a5e6e734a964cc3a29a89148b"),
        ({"kernel": "ot", "betas": [0.5, 1.0, 2.0, 0.25], "objective": "logp", "seed": 7,
          "method": "rand", "explorer-steps": 9},
         "a60aec17a81573bac9ef25f74b8c402c6a571a1f46872ccabe27f0bd61750c3e"),
        ({"kernel": "fingerprint", "objective": "penlogp", "seed": 9, "oracle": "template",
          "conditions": ["heat", "base"]},
         "742674ba6b50f110ddf2cdd1946667be2a113ce4e18b7af34ed9275008fead72"),
    ], ids=["flat", "sum", "ot", "fingerprint"])
    def test_pinned_header(self, capsys, small_pool_path, tmp_path, config, digest):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"pool": str(small_pool_path), **config}))
        out = tmp_path / "header.jsonl"
        code, _, _ = run_cli(capsys, "optimize", "--config", str(cfg_path),
                             "--budget", "0", "--out", str(out))
        assert code == 0
        header = out.read_bytes().split(b"\n")[0]
        assert hashlib.sha256(header).hexdigest() == digest

    def test_config_entries_match_flags(self, capsys, small_pool_path, tmp_path):
        settings = {"objective": "logp", "target": 7, "kernel": "fingerprint",
                    "oracle": "join", "budget": 2, "explorer_steps": 5, "seed": 4,
                    "method": "chembo"}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"pool": str(small_pool_path), **settings}))
        by_file, by_flags = tmp_path / "file.jsonl", tmp_path / "flags.jsonl"
        code, file_out, _ = run_cli(capsys, "optimize", "--config", str(cfg_path),
                                    "--out", str(by_file))
        assert code == 0
        flags = [f"--{k.replace('_', '-')}={v}" for k, v in settings.items()]
        code, flag_out, _ = run_cli(capsys, "optimize", "--pool", str(small_pool_path),
                                    *flags, "--out", str(by_flags))
        assert code == 0
        assert file_out == flag_out
        assert by_file.read_bytes() == by_flags.read_bytes()
        assert json.loads(by_file.read_text().splitlines()[0])["config"]["kernel"] == {
            "family": "fingerprint", "n_bits": 2048, "max_path_len": 7}

    def test_config_sets_fingerprint_parameters(self, capsys, small_pool_path, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"kernel": "fingerprint", "n_bits": 512,
                                        "max_path_len": 3}))
        out = tmp_path / "run.jsonl"
        code, _, _ = run_cli(capsys, "optimize", "--pool", str(small_pool_path), "--seed", "1",
                             "--budget", "0", "--config", str(cfg_path), "--out", str(out))
        assert code == 0
        assert json.loads(out.read_text().splitlines()[0])["config"]["kernel"] == {
            "family": "fingerprint", "n_bits": 512, "max_path_len": 3}


class TestExplore:
    def test_config_entries_match_flags(self, capsys, small_pool_path, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"oracle": "join", "explorer-steps": 4, "seed": 5}))
        dags = tmp_path / "file.dag.json", tmp_path / "flags.dag.json"
        code, file_out, _ = run_cli(capsys, "explore", "--pool", str(small_pool_path),
                                    "--config", str(cfg_path), "--out", str(dags[0]))
        assert code == 0
        code, flag_out, _ = run_cli(capsys, "explore", "--pool", str(small_pool_path),
                                    "--oracle", "join", "--explorer-steps", "4",
                                    "--seed", "5", "--out", str(dags[1]))
        assert code == 0
        assert file_out == flag_out
        assert len(json.loads(file_out)["new_molecules"]) == 4
        assert dags[0].read_bytes() == dags[1].read_bytes()

    def test_reports_new_molecules(self, capsys, small_pool_path, tmp_path):
        dag_out = tmp_path / "explore.dag.json"
        code, out, _ = run_cli(
            capsys, "explore", "--pool", str(small_pool_path), "--oracle", "join",
            "--explorer-steps", "5", "--seed", "2", "--out", str(dag_out),
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["new_molecules"]) == 5
        assert len(payload["pool"]) == 15
        dag = load_dag(dag_out)
        assert all(m in dag.nodes for m in payload["new_molecules"])


class TestAnalyze:
    def test_row_count_capped_by_pairs(self, capsys, small_pool_path):
        code, out, _ = run_cli(
            capsys, "analyze", "--pool", str(small_pool_path),
            "--objective", "heavy_atom", "--sample-pairs", "1000", "--seed", "0",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == [
            "distance_unit_raw", "distance_unit_norm",
            "distance_mass_raw", "distance_mass_norm", "abs_objective_diff",
        ]
        assert len(rows) - 1 == 10 * 9 // 2

    def test_identical_pool_rows_all_zero(self, capsys, tmp_path):
        pool = tmp_path / "same.smi"
        pool.write_text("CCO\nOCC\nC(C)O\n")
        code, out, _ = run_cli(
            capsys, "analyze", "--pool", str(pool), "--objective", "qed",
            "--sample-pairs", "3",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert len(rows) == 3
        for row in rows:
            assert all(float(v) == 0.0 for v in row)

    def test_sampled_subset(self, capsys, small_pool_path):
        code, out, _ = run_cli(
            capsys, "analyze", "--pool", str(small_pool_path),
            "--objective", "logp", "--sample-pairs", "7", "--seed", "1",
        )
        assert code == 0
        assert len(list(csv.reader(io.StringIO(out)))) == 8

    def test_pinned_csv(self, capsys, small_pool_path):
        code, out, _ = run_cli(
            capsys, "analyze", "--pool", str(small_pool_path),
            "--sample-pairs", "30", "--seed", "3",
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "8f9b0ee366547efcb76855322b427534ecb50da4bbc59a8642412686f8ed8c78")

    def test_config_entries_match_flags(self, capsys, small_pool_path, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"objective": "heavy_atom", "target": 4, "seed": 9}))
        pool = ("--pool", str(small_pool_path), "--sample-pairs", "12")
        code, by_file, _ = run_cli(capsys, "analyze", *pool, "--config", str(cfg_path))
        assert code == 0
        assert by_file == run_cli(capsys, "analyze", *pool, "--objective", "heavy_atom",
                                  "--target", "4", "--seed", "9")[1]
        assert by_file != run_cli(capsys, "analyze", *pool)[1]  # qed, seed 0

    def test_pair_of_index_is_the_enumeration(self):
        for n in range(2, 61):
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            assert [_pair_of_index(k, n) for k in range(len(pairs))] == pairs, n

    def test_zero_distance_implies_zero_diff(self, capsys, tmp_path):
        pool = tmp_path / "mix.smi"
        pool.write_text("CCO\nOCC\nCC\nCCC\n")
        code, out, _ = run_cli(
            capsys, "analyze", "--pool", str(pool), "--objective", "penlogp",
            "--sample-pairs", "6",
        )
        rows = list(csv.reader(io.StringIO(out)))[1:]
        for row in rows:
            if float(row[0]) == 0.0:
                assert float(row[4]) == 0.0


class TestRecipe:
    def test_json_and_graph_outputs(self, capsys, join_args, tmp_path):
        argv, out_path = join_args(out_name="forrecipe.jsonl")
        assert run_cli(capsys, *argv)[0] == 0
        dag_path = str(out_path)[: -len(".jsonl")] + ".dag.json"
        dag = load_dag(dag_path)
        target = next(n.molecule for n in dag.nodes.values() if n.parents)
        graph_out = tmp_path / "graph.txt"
        code, out, _ = run_cli(
            capsys, "recipe", "--dag", dag_path, "--molecule", target,
            "--graph-out", str(graph_out),
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["target"] == target
        assert payload["steps"][-1]["molecule"] == target
        assert all(
            set(s) == {"molecule", "parents", "template", "conditions", "step"}
            for s in payload["steps"]
        )
        assert graph_out.read_text().startswith("node ")
        assert payload["graph_text"] in graph_out.read_text()

    def test_unknown_molecule_exit_3(self, capsys, join_args):
        argv, out_path = join_args(out_name="missing.jsonl")
        assert run_cli(capsys, *argv)[0] == 0
        dag_path = str(out_path)[: -len(".jsonl")] + ".dag.json"
        code, _, err = run_cli(
            capsys, "recipe", "--dag", dag_path, "--molecule",
            "ClC(Cl)(Cl)Cl",
        )
        assert code == 3
        assert "error" in err

    @pytest.mark.parametrize("content, named", [
        ("{}", "'nodes'"),
        ("[1]", "'nodes'"),
        ('{"nodes": [1]}', "'molecule'"),
        ('{"nodes": [{"molecule": "CC", "template": null, "conditions": [], "step": 0}]}',
         "'parents'"),
        ('{"nodes": [{"molecule": "CC", "parents": "C", "template": null, "conditions": [],'
         ' "step": 0}]}', "'parents'"),
        ('{"nodes": [{"molecule": "CCC", "parents": ["C", "CC"], "template": "join",'
         ' "conditions": ["join"], "step": 1}, {"molecule": "C", "parents": [],'
         ' "template": null, "conditions": [], "step": 0}]}', "'CC'"),
        ("{nodes", "Expecting"),
    ])
    def test_malformed_dag_exit_2(self, capsys, tmp_path, content, named):
        dag_path = tmp_path / "bad.dag.json"
        dag_path.write_text(content)
        code, out, err = run_cli(capsys, "recipe", "--dag", str(dag_path), "--molecule", "CCC")
        assert code == 2 and not out
        assert err.startswith("error: ") and named in err
        assert "Traceback" not in err

    def test_missing_dag_file_exit_2(self, capsys, tmp_path):
        dag_path = tmp_path / "absent.dag.json"
        code, out, err = run_cli(capsys, "recipe", "--dag", str(dag_path), "--molecule", "CC")
        assert code == 2 and not out
        assert str(dag_path) in err


def test_module_entry_point(small_pool_path):
    proc = subprocess.run(
        [sys.executable, "-m", "molbo", "dist", "CCO", "CC"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert len(payload["distances"]) == 4
