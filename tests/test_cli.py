import csv
import json
import os
import platform

import numpy as np
import pytest

import bagel
from bagel import cli
from bagel.numerics import decode_array, encode_array
from bagel.smart_design import load_instance as load_sd, run_methods, sd_generate_instance
from bagel.engine import StopCondition
from bagel.prior_nmf import PriorNmfProblem
from bagel.smart_design import SmartDesignProblem


def encoded(values, **fields):
    """An encoded array document; fields override its shape or bytes."""
    return json.dumps(dict(encode_array(np.array(values, dtype=float)), **fields))


SD_ENCODED = ('{"problem": "smart-design", "X": %s, "y": %s,'
              ' "components": [{"size": 1, "weight": 1.0}], "B": 1.0}')
NMF_ENCODED = '{"problem": "prior-nmf", "n": 2, "k": 1, "db": [[1, 1]], "A": %s}'
NMF_PLANTED = ('{"problem": "prior-nmf", "n": 3, "k": 4, "db": [[1, 0, 0], [0, 1, 0], [0, 0, 1],'
               ' [1, 1, 0], [0, 1, 1]], "A": [[1.0], [2.0], [3.0]], "planted": %s}')
SD_FIELDS = ('{"problem": "smart-design", "X": [[1.0], [2.0]], "y": [1.0, 2.0],'
             ' "components": [{"size": 1, "weight": %s}], "B": %s}')
# Bad instance files whose error message must name the bad field
NAMED_FIELD = {
    **{NMF_PLANTED % planted: "planted"
       for planted in ("[0, 1, 2, 99]", "[-1, 0, 1, 2]", "[0, 0, 1, 2]", "[0, 1]",
                       "[0.5, 1, 2, 3]")},
    SD_FIELDS % ("NaN", "1.0"): "weight",
    SD_FIELDS % ("1.0", "NaN"): "bound",
}


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def rows_without_wall(path):
    return [{k: v for k, v in row.items() if k != "wall_ms"} for row in read_rows(path)]


class TestGenerate:
    def test_smart_design_roundtrip(self, tmp_path):
        out = str(tmp_path / "inst.json")
        rc = cli.main(["generate", "--problem", "smart-design", "--n", "10",
                       "--samples", "100", "--cost", "0.6", "--seed", "7", "--out", out])
        assert rc == 0
        loaded = load_sd(out)
        direct = sd_generate_instance(10, 100, 0.6, seed=7)
        assert np.allclose(loaded.X, direct.X)
        assert np.allclose(loaded.y, direct.y)
        assert loaded.bound == pytest.approx(direct.bound)

    def test_digest_stable(self, tmp_path, capsys):
        out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        cli.main(["generate", "--problem", "smart-design", "--n", "10",
                  "--samples", "100", "--cost", "0.6", "--seed", "7", "--out", out1])
        d1 = capsys.readouterr().out.split()[0]
        cli.main(["generate", "--problem", "smart-design", "--n", "10",
                  "--samples", "100", "--cost", "0.6", "--seed", "7", "--out", out2])
        d2 = capsys.readouterr().out.split()[0]
        assert d1 == d2

    def test_prior_nmf_shapes(self, tmp_path):
        out = str(tmp_path / "nmf.json")
        rc = cli.main(["generate", "--problem", "prior-nmf", "--n", "20",
                       "--true-topics", "4", "--false-topics", "2", "--docs", "50",
                       "--seed", "3", "--out", out])
        assert rc == 0
        doc = json.load(open(out))
        assert decode_array(doc["A"]).shape == (20, 50)
        assert len(doc["db"]) == 6

    @pytest.mark.parametrize("generate, search", [
        (["--problem", "smart-design", "--n", "10", "--samples", "100", "--cost", "0.6"],
         ["--folds", "2"]),
        (["--problem", "prior-nmf", "--n", "20"], ["--iters", "50"]),
    ], ids=["smart-design", "prior-nmf"])
    def test_list_form_solves_alike(self, tmp_path, generate, search):
        """Files written before arrays were encoded hold them as nested lists."""
        encoded_path, again, listed_path = (tmp_path / name for name in
                                            ("enc.json", "again.json", "list.json"))
        for path in (encoded_path, again):
            assert cli.main(["generate", *generate, "--seed", "3", "--out", str(path)]) == 0
        assert encoded_path.read_bytes() == again.read_bytes()
        doc = json.loads(encoded_path.read_text())
        for key in ("X", "y", "A"):
            if key in doc:
                doc[key] = decode_array(doc[key]).tolist()
        with open(listed_path, "w") as fh:
            json.dump(doc, fh)

        def solved(path):
            out = str(path) + ".csv"
            assert cli.main(["solve", "--instance", str(path), "--out", out, *search]) == 0
            return [{k: v for k, v in row.items() if k not in ("wall_ms", "instance_id")}
                    for row in read_rows(out)]

        assert solved(listed_path) == solved(encoded_path)

    @pytest.mark.parametrize("flags, error", [
        (["--problem", "smart-design", "--n", "10", "--samples", "100", "--cost", "1.5"],
         "error: cost_percent"),
        # 2 words make 3 distinct non-empty topics, not 4 + 2.
        (["--problem", "prior-nmf", "--n", "2", "--true-topics", "4", "--false-topics", "2"],
         "error: true_topics + false_topics"),
    ], ids=["cost", "topics"])
    def test_invalid_shape_exits_1(self, tmp_path, capsys, flags, error):
        out = tmp_path / "x.json"
        rc = cli.main(["generate", *flags, "--seed", "7", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.startswith(error)
        assert not out.exists()

    def test_bagel_seed_env_is_ignored(self, tmp_path, monkeypatch):
        argv = ["generate", "--problem", "prior-nmf", "--n", "20", "--seed", "0", "--out"]
        assert cli.main(argv + [str(tmp_path / "a.json")]) == 0
        monkeypatch.setenv("BAGEL_SEED", "5")
        assert cli.main(argv + [str(tmp_path / "b.json")]) == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


class TestSolve:
    @pytest.fixture()
    def sd_instance(self, tmp_path):
        out = str(tmp_path / "inst.json")
        cli.main(["generate", "--problem", "smart-design", "--n", "10",
                  "--samples", "100", "--cost", "0.6", "--seed", "7", "--out", out])
        return out

    def test_report_schema(self, sd_instance, tmp_path):
        out = str(tmp_path / "res.csv")
        rc = cli.main(["solve", "--instance", sd_instance, "--out", out, "--folds", "2"])
        assert rc == 0
        rows = read_rows(out)
        assert {r["method"] for r in rows} == {"bagel", "l2_br", "l2_or"}
        for r in rows:
            assert 0.0 <= float(r["tightness"]) < 1.0
        assert os.path.exists(out + ".meta.json")

    def test_roundtrip_matches_in_process(self, sd_instance, tmp_path):
        out = str(tmp_path / "res.csv")
        cli.main(["solve", "--instance", sd_instance, "--out", out, "--folds", "2"])
        rows = read_rows(out)
        direct = run_methods(load_sd(sd_instance), folds=2,
                             stop=StopCondition(wall_seconds=600.0))
        assert len(rows) == len(direct)
        for file_row, mem_row in zip(rows, direct):
            assert file_row["method"] == mem_row["method"]
            assert float(file_row["train_loss"]) == pytest.approx(mem_row["train_loss"], rel=1e-12)

    def test_node_cap_marks_incomplete(self, sd_instance, tmp_path):
        out = str(tmp_path / "res.csv")
        rc = cli.main(["solve", "--instance", sd_instance, "--out", out,
                       "--folds", "1", "--node-cap", "2"])
        assert rc == 0
        bagel_rows = [r for r in read_rows(out) if r["method"] == "bagel"]
        assert all(r["completed"] == "false" for r in bagel_rows)

    def test_node_cap_zero_writes_the_better_baseline(self, sd_instance, tmp_path):
        # The search starts from the better repair baseline, so a search
        # that opens no node still writes its bagel row: the seed itself.
        out = str(tmp_path / "res.csv")
        assert cli.main(["solve", "--instance", sd_instance, "--out", out,
                         "--folds", "2", "--node-cap", "0"]) == 0
        rows = read_rows(out)
        assert [(r["method"], r["fold"]) for r in rows] == [
            (m, f) for f in ("0", "1") for m in ("bagel", "l2_br", "l2_or")]
        for fold in ("0", "1"):
            bagel, br, orr = (r for r in rows if r["fold"] == fold)
            seed = min((br, orr), key=lambda r: float(r["train_loss"]))
            for column in ("train_loss", "test_loss", "tightness"):
                assert bagel[column] == seed[column]
            assert bagel["nodes"] == "0" and bagel["completed"] == "false"

    def test_trace_replay(self, sd_instance, tmp_path):
        out = str(tmp_path / "res.csv")
        trace = str(tmp_path / "trace.ndjson")
        cli.main(["solve", "--instance", sd_instance, "--out", out,
                  "--folds", "1", "--trace", trace])
        records = [json.loads(line) for line in open(trace)]
        assert records[0]["depth"] == 0 and records[0]["trail"] == []
        assert all(set(r) == {"id", "depth", "trail", "loss", "status"} for r in records)

    def test_meta_records_effective_seed(self, sd_instance, tmp_path):
        out = str(tmp_path / "res.csv")
        rc = cli.main(["solve", "--instance", sd_instance, "--out", out,
                       "--folds", "1", "--seed", "5"])
        assert rc == 0
        with open(out + ".meta.json") as fh:
            assert json.load(fh)["seed"] == 5

    @pytest.mark.parametrize("content", [
        "{not json", "[1, 2]", '{"problem": "tsp"}',
        '{"problem": "smart-design", "X": [[1.0]], "y": [1.0], "components": 5, "B": 1.0}',
        '{"problem": "smart-design", "X": [[1.0]], "y": [1.0],'
        ' "components": [{"size": 1, "weight": 1.0}], "B": null}',
        '{"problem": "smart-design", "X": [[1.0], [2.0]], "y": [1.0],'
        ' "components": [{"size": 1, "weight": 1.0}], "B": 1.0}',
        '{"problem": "smart-design", "X": [1.0, 2.0], "y": [1.0, 2.0],'
        ' "components": [{"size": 1, "weight": 1.0}], "B": 1.0}',
        '{"problem": "smart-design", "X": [[1.0, 2.0], [1.0]], "y": [1.0, 2.0],'
        ' "components": [{"size": 2, "weight": 1.0}], "B": 1.0}',
        '{"problem": "smart-design", "X": [[1.0], [2.0]], "y": [[1.0], [2.0]],'
        ' "components": [{"size": 1, "weight": 1.0}], "B": 1.0}',
        '{"problem": "prior-nmf", "n": 2, "k": 1, "db": [[1, 0, 1]], "A": [[1.0], [1.0]]}',
        '{"problem": "prior-nmf", "n": 2, "k": 1, "db": [[1, 0]], "A": [[1.0], [1.0], [1.0]]}',
        SD_ENCODED % (encoded([[np.nan], [1.0]]), encoded([1.0, 2.0])),
        SD_ENCODED % (encoded([[1.0], [np.inf]]), encoded([1.0, 2.0])),
        SD_ENCODED % (encoded([[1.0], [2.0]]), encoded([1.0, -np.inf])),
        NMF_ENCODED % encoded([[np.nan], [1.0]]),
        NMF_ENCODED % encoded([[1.0], [np.inf]]),
        NMF_ENCODED % encoded([[1.0], [-1.0]]),
        SD_ENCODED % (encoded([1.0], shape=[2, 1]), encoded([1.0, 2.0])),
        NMF_ENCODED % encoded([1.0, 1.0, 1.0], shape=[2, 1]),
        SD_ENCODED % (encoded([[1.0], [2.0]], f8="AAAA*AAA8D8AAAAAAAAAQA=="),
                      encoded([1.0, 2.0])),
        SD_ENCODED % (encoded([[1.0], [2.0]], shape=2), encoded([1.0, 2.0])),
        NMF_ENCODED % encoded([[1.0], [2.0]], shape="2x1"),
        NMF_ENCODED % encoded([[1.0], [2.0]], f8=5),
        *NAMED_FIELD,
    ])
    def test_bad_instance_exits_1(self, tmp_path, capsys, content):
        inst, out, trace = tmp_path / "bad.json", tmp_path / "res.csv", tmp_path / "t.ndjson"
        inst.write_text(content)
        rc = cli.main(["solve", "--instance", str(inst), "--out", str(out),
                       "--trace", str(trace)])
        assert rc == 1
        assert NAMED_FIELD.get(content, "error:") in capsys.readouterr().err
        assert not out.exists() and not trace.exists()
        assert not (tmp_path / "res.csv.meta.json").exists()

    def test_meta_records_search_flags(self, tmp_path):
        inst, out = str(tmp_path / "nmf.json"), str(tmp_path / "res.csv")
        cli.main(["generate", "--problem", "prior-nmf", "--n", "20", "--seed", "3",
                  "--out", inst])
        assert cli.main(["solve", "--instance", inst, "--out", out,
                         "--iters", "50", "--node-cap", "3"]) == 0
        with open(out + ".meta.json") as fh:
            meta = json.load(fh)
        assert (meta["iters"], meta["restarts"], meta["pruning"]) == (50, 1, "on")

    def test_meta_records_versions(self, sd_instance, tmp_path):
        out, out_dir = str(tmp_path / "res.csv"), str(tmp_path / "sweep")
        assert cli.main(["solve", "--instance", sd_instance, "--out", out, "--folds", "1"]) == 0
        with open(out + ".meta.json") as fh:
            versions = json.load(fh)["versions"]
        assert set(versions) == {"bagel", "numpy", "python", "blas"}
        assert (versions["bagel"], versions["numpy"], versions["python"]) == (
            bagel.__version__, np.__version__, platform.python_version())
        assert versions["blas"] is None or isinstance(versions["blas"], str)
        # The versions decide whether a bench cell is resumed, so its sidecar
        # records them too.
        assert cli.main(["bench", "--problem", "smart-design", "--out-dir", out_dir,
                         "--grid-n", "10", "--seeds", "1", "--folds", "1"]) == 0
        with open(os.path.join(out_dir, "sd_n10_m100_c0.6_s0.csv.meta.json")) as fh:
            assert json.load(fh)["versions"] == versions

    @pytest.mark.parametrize("problem", ["smart-design", "prior-nmf"])
    def test_meta_records_search_warnings(self, tmp_path, monkeypatch, problem):
        inst, out = str(tmp_path / "inst.json"), str(tmp_path / "res.csv")
        generate = {"smart-design": ["--n", "10", "--samples", "100", "--cost", "0.6"],
                    "prior-nmf": ["--n", "20"]}[problem]
        cli.main(["generate", "--problem", problem, *generate, "--seed", "3", "--out", inst])
        argv = ["solve", "--instance", inst, "--out", out, "--folds", "1", "--iters", "50",
                "--node-cap", "10"]

        def warnings():
            assert cli.main(argv) == 0
            with open(out + ".meta.json") as fh:
                return json.load(fh)["warnings"]

        assert warnings() == []
        # A trainer whose node 1 fits better than its parent: one warning.
        cls = SmartDesignProblem if problem == "smart-design" else PriorNmfProblem
        train = cls.train

        def forced(self, node):
            loss = train(self, node)
            return -1.0 if node.id == 1 else loss

        monkeypatch.setattr(cls, "train", forced)
        (warning,) = warnings()
        assert warning.startswith("node 1 loss -1 below parent loss ")

    def test_versions_blas_null_without_show_config_modes(self, monkeypatch):
        monkeypatch.setattr(np, "show_config", lambda: None)  # numpy < 1.26
        assert cli._versions()["blas"] is None

    @pytest.mark.parametrize("generate, search", [
        (["--problem", "prior-nmf", "--n", "20"], ["--iters", "-5"]),
        (["--problem", "smart-design", "--n", "10", "--samples", "100", "--cost", "0.6"],
         ["--folds", "0"]),
        (["--problem", "prior-nmf", "--n", "20"], ["--node-cap", "-1"]),
        (["--problem", "prior-nmf", "--n", "20"], ["--timeout-s", "-1"]),
        (["--problem", "smart-design", "--n", "10", "--samples", "100", "--cost", "0.6"],
         ["--node-cap", "-1"]),
        (["--problem", "smart-design", "--n", "10", "--samples", "100", "--cost", "0.6"],
         ["--timeout-s", "-1"]),
    ])
    def test_negative_count_exits_1(self, tmp_path, capsys, generate, search):
        inst, out, trace = str(tmp_path / "inst.json"), tmp_path / "res.csv", tmp_path / "t.ndjson"
        cli.main(["generate", *generate, "--seed", "3", "--out", inst])
        capsys.readouterr()
        rc = cli.main(["solve", "--instance", inst, "--out", str(out),
                       "--trace", str(trace), *search])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists() and not (tmp_path / "res.csv.meta.json").exists()
        assert not trace.exists()

    def test_missing_instance_exits_2(self, tmp_path):
        rc = cli.main(["solve", "--instance", str(tmp_path / "nope.json"),
                       "--out", str(tmp_path / "res.csv")])
        assert rc == 2

    def test_prior_nmf_solve(self, tmp_path):
        inst = str(tmp_path / "nmf.json")
        cli.main(["generate", "--problem", "prior-nmf", "--n", "20", "--true-topics", "4",
                  "--false-topics", "2", "--docs", "50", "--seed", "3", "--noiseless",
                  "--out", inst])
        out = str(tmp_path / "res.csv")
        rc = cli.main(["solve", "--instance", inst, "--out", out,
                       "--iters", "50", "--node-cap", "40"])
        assert rc == 0
        (row,) = read_rows(out)
        assert float(row["best_loss"]) > 0 or row["best_loss"] == "nan"
        assert int(row["nodes"]) <= 40

    @pytest.mark.parametrize("node_cap", ["40", "0"])
    def test_prior_nmf_row_carries_assignment(self, tmp_path, monkeypatch, node_cap):
        inst = str(tmp_path / "nmf.json")
        cli.main(["generate", "--problem", "prior-nmf", "--n", "20", "--true-topics", "4",
                  "--false-topics", "2", "--docs", "50", "--seed", "3", "--out", inst])
        searches = []
        search = cli.bagel_search

        def keep_result(*args, **kwargs):
            searches.append(search(*args, **kwargs))
            return searches[-1]

        monkeypatch.setattr(cli, "bagel_search", keep_result)
        out = str(tmp_path / "res.csv")
        assert cli.main(["solve", "--instance", inst, "--out", out,
                         "--iters", "50", "--node-cap", node_cap]) == 0
        (row,) = read_rows(out)
        ((best, _),) = searches
        if node_cap == "0":  # no node opened, so no incumbent
            assert best is None and row["assignment"] == ""
        else:
            assert [int(j) for j in row["assignment"].split()] == best.model.assignment
            assert len(best.model.assignment) == 4

    def test_append_adds_rows_under_the_same_columns(self, sd_instance, tmp_path):
        out = str(tmp_path / "res.csv")
        argv = ["solve", "--instance", sd_instance, "--out", out, "--folds", "1", "--append"]
        assert cli.main(argv) == 0 and cli.main(argv) == 0
        rows = rows_without_wall(out)
        assert len(rows) == 6 and rows[:3] == rows[3:]

    def test_append_to_other_columns_exits_1(self, sd_instance, tmp_path, capsys):
        out, trace = tmp_path / "res.csv", tmp_path / "trace.ndjson"
        out.write_text("instance_id,best_loss\nabc,1.0\n")
        rc = cli.main(["solve", "--instance", sd_instance, "--out", str(out), "--folds", "1",
                       "--append", "--trace", str(trace)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: cannot append")
        assert out.read_text() == "instance_id,best_loss\nabc,1.0\n"
        assert not trace.exists() and not (tmp_path / "res.csv.meta.json").exists()

    @pytest.mark.parametrize("append", [False, True], ids=["fresh", "append"])
    def test_failed_sidecar_write_leaves_no_output(self, sd_instance, tmp_path, monkeypatch,
                                                   append):
        out, trace = tmp_path / "res.csv", tmp_path / "trace.ndjson"
        argv = ["solve", "--instance", sd_instance, "--out", str(out), "--folds", "1"]
        if append:
            assert cli.main(argv) == 0
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}

        def disk_full(path, config):
            with open(path, "w") as fh:
                fh.write("{")  # half-written
            raise OSError("no space left on device")

        monkeypatch.setattr(cli, "_write_meta", disk_full)
        rc = cli.main(argv + ["--trace", str(trace)] + (["--append"] if append else []))
        assert rc == 2
        # No new CSV, sidecar or trace, no temporary file, and an --append
        # target byte-identical.
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before

    def test_determinism_excluding_wall_time(self, sd_instance, tmp_path):
        out1, out2 = str(tmp_path / "r1.csv"), str(tmp_path / "r2.csv")
        cli.main(["solve", "--instance", sd_instance, "--out", out1, "--folds", "2"])
        cli.main(["solve", "--instance", sd_instance, "--out", out2, "--folds", "2"])
        assert rows_without_wall(out1) == rows_without_wall(out2)


class TestBench:
    def test_small_grid(self, tmp_path):
        out_dir = str(tmp_path / "sweep")
        rc = cli.main(["bench", "--problem", "smart-design", "--out-dir", out_dir,
                       "--grid-n", "10", "--grid-samples", "100", "--grid-cost", "0.6,0.9",
                       "--seeds", "1", "--folds", "1", "--timeout-s", "60"])
        assert rc == 0
        agg = read_rows(os.path.join(out_dir, "aggregate.csv"))
        cells = {r["cell"] for r in agg}
        assert cells == {"sd_n10_m100_c0.6_s0", "sd_n10_m100_c0.9_s0"}

    def test_resume_skips_existing_cells(self, tmp_path):
        out_dir = str(tmp_path / "sweep")
        args = ["bench", "--problem", "smart-design", "--out-dir", out_dir,
                "--grid-n", "10", "--grid-samples", "100", "--grid-cost", "0.6",
                "--seeds", "1", "--folds", "1", "--timeout-s", "60"]
        cli.main(args)
        cell = os.path.join(out_dir, "sd_n10_m100_c0.6_s0.csv")
        stamp = os.path.getmtime(cell)
        before = open(cell).read()
        cli.main(args)
        assert open(cell).read() == before
        assert os.path.getmtime(cell) == stamp

    @pytest.mark.parametrize("problem", ["smart-design", "prior-nmf"])
    @pytest.mark.parametrize("flags", [["--seeds", "1", "--timeout-s", "-1"],
                                       ["--seeds", "0"], ["--seeds", "-1"]],
                             ids=["timeout-s=-1", "seeds=0", "seeds=-1"])
    def test_bad_value_exits_1(self, tmp_path, capsys, problem, flags):
        out_dir = tmp_path / "sweep"
        rc = cli.main(["bench", "--problem", problem, "--out-dir", str(out_dir),
                       "--grid-n", "10", *flags])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not out_dir.exists()

    def test_other_bagel_version_recomputes_cell(self, tmp_path):
        out_dir = str(tmp_path / "sweep")
        args = ["bench", "--problem", "prior-nmf", "--out-dir", out_dir,
                "--grid-n", "20", "--seeds", "1", "--iters", "20"]
        cell = os.path.join(out_dir, "nmf_n20_t4_f2_m50_s0.csv")
        assert cli.main(args) == 0
        rows = rows_without_wall(cell)
        # A cell solved by another bagel version, whose rows differ.
        with open(cell + ".meta.json") as fh:
            meta = json.load(fh)
        meta["versions"]["bagel"] = "0.1.0"
        with open(cell + ".meta.json", "w") as fh:
            json.dump(meta, fh)
        with open(cell, "a") as fh:
            fh.write(",".join(["stale"] * len(rows[0])) + "\n")
        assert cli.main(args) == 0
        assert rows_without_wall(cell) == rows
        with open(cell + ".meta.json") as fh:
            assert json.load(fh)["versions"]["bagel"] == bagel.__version__

    def test_changed_search_flags_recompute_cell(self, tmp_path):
        out_dir = str(tmp_path / "sweep")
        args = ["bench", "--problem", "prior-nmf", "--out-dir", out_dir,
                "--grid-n", "20", "--seeds", "1"]
        cell = os.path.join(out_dir, "nmf_n20_t4_f2_m50_s0.csv")
        assert cli.main(args + ["--iters", "20"]) == 0
        before = rows_without_wall(cell)
        assert cli.main(args + ["--iters", "200"]) == 0
        assert rows_without_wall(cell) != before
        with open(cell + ".meta.json") as fh:
            assert json.load(fh)["iters"] == 200

    @pytest.mark.parametrize("generate, grid, search", [
        (["--problem", "smart-design", "--n", "10", "--samples", "100", "--cost", "0.6"],
         ["--problem", "smart-design", "--grid-n", "10", "--grid-samples", "100",
          "--grid-cost", "0.6"],
         ["--folds", "2"]),
        (["--problem", "prior-nmf", "--n", "20", "--true-topics", "4", "--false-topics", "2",
          "--docs", "50"],
         ["--problem", "prior-nmf", "--grid-n", "20", "--grid-true", "4", "--grid-false", "2",
          "--grid-docs", "50"],
         ["--iters", "30"]),
    ], ids=["smart-design", "prior-nmf"])
    def test_cell_rows_match_solve(self, tmp_path, generate, grid, search):
        inst, out = str(tmp_path / "inst.json"), str(tmp_path / "res.csv")
        out_dir = str(tmp_path / "sweep")
        assert cli.main(["generate", *generate, "--seed", "0", "--out", inst]) == 0
        assert cli.main(["solve", "--instance", inst, "--out", out, *search]) == 0
        assert cli.main(["bench", *grid, "--seeds", "1", "--out-dir", out_dir, *search]) == 0
        (cell,) = [f for f in os.listdir(out_dir) if f.endswith(".csv") and f != "aggregate.csv"]

        def comparable(path):
            return [{k: v for k, v in row.items() if k not in ("wall_ms", "instance_id")}
                    for row in read_rows(path)]

        solved = comparable(out)
        assert comparable(os.path.join(out_dir, cell)) == solved
        for row in solved:
            assert np.isfinite(float(row.get("planted_loss", 0.0)))
        if "prior-nmf" in grid:
            (row,) = solved
            assert len(row["assignment"].split()) == 4  # one topic per column
