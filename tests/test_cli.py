import base64
import csv
import dataclasses
import hashlib
import json
import os
import platform
import threading
import time

import numpy as np
import pytest

import bagel
from bagel import cli, numerics
from bagel.smart_design import run_methods, save_instance, sd_generate_instance
from bagel.engine import StopCondition
from bagel.prior_nmf import PriorNmfProblem, nmf_generate_instance
from bagel.smart_design import SmartDesignProblem
from oracles import BENCHMARK_WORKLOADS, benchmark_shaped


def load_sd(path):
    """The instance of a smart-design file, loaded as `solve` loads it."""
    return cli._load_instance(path)[1]


def f8_array(values):
    """The base64 form of an array, as files had it before the binary tail;
    readers no longer decode it."""
    a = np.asarray(values, dtype="<f8")
    return {"shape": list(a.shape), "f8": base64.b64encode(a.tobytes()).decode("ascii")}

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
NMF_DOC, SD_DOC = json.loads(NMF_PLANTED % "null"), json.loads(SD_FIELDS % ("1.0", "1.0"))
# Integer and number fields given another JSON type, which int() and
# float() would coerce
NAMED_FIELD.update({
    **{json.dumps({**NMF_DOC, field: value}): "error: %s must be" % field
       for field, value in (("k", 2.7), ("k", True), ("n", 3.9), ("seed", 3.9),
                            ("noise_sigma", "0.1"), ("noise_sigma", True))},
    **{json.dumps({**SD_DOC, field: value}): "error: %s must be" % field
       for field, value in (("seed", 3.9), ("B", "1.5"), ("B", True), ("noise_sigma", "0"))},
    **{json.dumps({**SD_DOC, "components": [{"size": 1, "weight": 1.0, field: value}]}):
       "error: %s must be" % field
       for field, value in (("size", 1.5), ("size", True), ("weight", "2"), ("weight", True))},
})
# Smart-design files the solve cannot use: no component, one sample, and
# weights whose exact total overflows float64 (inf alone does not).
NAMED_FIELD.update({
    json.dumps({**SD_DOC, "X": [[], []], "components": []}): "error: components",
    json.dumps({**SD_DOC, "X": [[1.0]], "y": [1.0]}): "error: samples",
    **{json.dumps({**SD_DOC, "X": [[1.0] * len(weights)] * 2,
                   "components": [{"size": 1, "weight": w} for w in weights]}): "error: weights"
       for weights in ([1e308, 1e308], [float("inf"), 1e308, 1e308])},
})
# An empty component, component sizes that miss X's width, and no topic
NAMED_FIELD.update({
    json.dumps({**SD_DOC, "components": [{"size": 0, "weight": 1.0}]}):
        "error: input_size must be >= 1",
    json.dumps({**SD_DOC, "components": [{"size": 2, "weight": 1.0}]}):
        "error: component sizes must partition the feature axis",
    json.dumps({**NMF_DOC, "k": 0}): "error: k must be >= 1",
})
# A negative seed, which fold splits and NMF starts cannot use
NAMED_FIELD.update({json.dumps({**doc, "seed": -1}): "error: seed must be >= 0, got -1"
                    for doc in (SD_DOC, NMF_DOC)})
# A prior-nmf file with no document has nothing to factorize.
NAMED_FIELD['{"problem": "prior-nmf", "n": 2, "k": 1, "db": [[1, 1]], "A": [[], []]}'] = (
    "error: docs must be >= 1, got 0")
# A prior-nmf database of rows of two lengths, and an empty one
NAMED_FIELD['{"problem": "prior-nmf", "n": 2, "k": 1, "db": [[1, 1], [1]], "A": [[1.0], [1.0]]}'] = (
    "error: topic length must equal n_words")
NAMED_FIELD['{"problem": "prior-nmf", "n": 2, "k": 1, "db": [], "A": [[1.0], [1.0]]}'] = (
    "error: k cannot exceed the database size")
# X = [[1], [2]] and y = [1, 2] in a binary tail
SD_TAIL = np.array([1.0, 2.0, 1.0, 2.0], dtype="<f8").tobytes()


def sd_binary(tail=SD_TAIL, x_at=0, y_at=16, x_shape=(2, 1)):
    header = {"problem": "smart-design", "X": {"shape": x_shape, "at": x_at},
              "y": {"shape": [2], "at": y_at}, "components": [{"size": 1, "weight": 1.0}],
              "B": 1.0}
    return json.dumps(header).encode() + b"\n" + tail


def nmf_binary(A, shape=None):
    A = np.asarray(A, dtype="<f8")
    header = {"problem": "prior-nmf", "n": 2, "k": 1, "db": [[1, 1]],
              "A": {"shape": shape or list(A.shape), "at": 0}}
    return json.dumps(header).encode() + b"\n" + A.tobytes()


def sd_values(X, y):
    """A binary-tail smart-design file of these X and y values."""
    return sd_binary(tail=np.concatenate([np.ravel(X), y]).astype("<f8").tobytes())


# Bad array files: test id -> (file bytes, the error text naming the array)
BAD_ARRAYS = {
    "tail-truncated": (sd_binary(tail=SD_TAIL[:-8]), "error: array 'y'"),
    "tail-8-extra-bytes": (sd_binary(tail=SD_TAIL + bytes(8)), "error: array 'y'"),
    "at-negative": (sd_binary(x_at=-16), "error: array 'X'"),
    "at-float": (sd_binary(y_at=16.0), "error: array 'y'"),
    "at-string": (sd_binary(y_at="16"), "error: array 'y'"),
    "at-past-end": (sd_binary(y_at=32), "error: array 'y'"),
    "header-not-json": (b"{not json\n" + SD_TAIL, "error:"),
    "shape-int": (sd_binary(x_shape=2), "error: array 'X'"),
    "shape-string": (sd_binary(x_shape="2x1"), "error: array 'X'"),
    # One value fewer than the header's shape of X: y's bytes start early.
    "shape-too-long": (sd_binary(tail=SD_TAIL[8:], y_at=8), "error: array 'y'"),
    "X-nan": (sd_values([np.nan, 1.0], [1.0, 2.0]), "error: matrix entries must be finite"),
    "X-inf": (sd_values([1.0, np.inf], [1.0, 2.0]), "error: matrix entries must be finite"),
    "y-minus-inf": (sd_values([1.0, 2.0], [1.0, -np.inf]), "error: vector entries must be finite"),
    "A-nan": (nmf_binary([[np.nan], [1.0]]), "error: matrix entries must be finite"),
    "A-inf": (nmf_binary([[1.0], [np.inf]]), "error: matrix entries must be finite"),
    "A-negative": (nmf_binary([[1.0], [-1.0]]), "error: A must be non-negative"),
    "A-shape-mismatch": (nmf_binary([1.0, 1.0, 1.0], shape=[2, 1]), "error: array 'A'"),
    "A-no-docs": (nmf_binary(np.zeros((2, 0))), "error: docs must be >= 1, got 0"),
}


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def rows_without_wall(path):
    return [{k: v for k, v in row.items() if k != "wall_ms"} for row in read_rows(path)]


def files(directory):
    """{name: bytes} of every file in a directory."""
    return {path.name: path.read_bytes() for path in directory.iterdir()}


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
        doc, _ = numerics.read_instance(out)
        assert doc["A"].shape == (20, 50)
        assert len(doc["db"]) == 6

    @pytest.mark.parametrize("generate, search", [
        (["--problem", "smart-design", "--n", "10", "--samples", "100", "--cost", "0.6"],
         ["--folds", "2"]),
        (["--problem", "prior-nmf", "--n", "20"], ["--iters", "50"]),
    ], ids=["smart-design", "prior-nmf"])
    def test_list_form_solves_alike(self, tmp_path, capsys, generate, search):
        """A file with no tail holds its arrays as nested lists, in one JSON
        document, maybe pretty-printed; the base64 form of older files is
        a validation error."""
        binary, again = tmp_path / "bin.json", tmp_path / "again.json"
        for path in (binary, again):
            assert cli.main(["generate", *generate, "--seed", "3", "--out", str(path)]) == 0
        assert binary.read_bytes() == again.read_bytes()
        doc, _ = numerics.read_instance(binary)
        arrays = [key for key in ("X", "y", "A") if key in doc]
        listed = {**doc, **{key: doc[key].tolist() for key in arrays}}
        f8 = {**doc, **{key: f8_array(doc[key]) for key in arrays}}
        older = {"f8.json": (f8, None), "list.json": (listed, None), "indent.json": (listed, 2)}
        for name, (older_doc, indent) in older.items():
            with open(tmp_path / name, "w") as fh:
                json.dump(older_doc, fh, indent=indent)

        def solved(path):
            out = str(path) + ".csv"
            assert cli.main(["solve", "--instance", str(path), "--out", out, *search]) == 0
            return [{k: v for k, v in row.items() if k not in ("wall_ms", "instance_id")}
                    for row in read_rows(out)]

        expected = solved(binary)
        for name in ("list.json", "indent.json"):
            assert solved(tmp_path / name) == expected, name
        out = tmp_path / "f8.csv"
        rc = cli.main(["solve", "--instance", str(tmp_path / "f8.json"), "--out", str(out),
                       *search])
        assert rc == 1
        assert "error: array '%s'" % arrays[0] in capsys.readouterr().err
        assert not out.exists() and not (tmp_path / "f8.csv.meta.json").exists()

    @pytest.mark.parametrize("error", [OSError("disk full"), KeyboardInterrupt()],
                             ids=["oserror", "interrupt"])
    def test_failed_write_leaves_no_file(self, tmp_path, monkeypatch, error):
        def write_header_then_fail(path, doc):
            with open(path, "wb") as fh:
                fh.write(b'{"problem": "smart-design"}\n')
            raise error

        monkeypatch.setattr(numerics, "write_instance", write_header_then_fail)
        out = tmp_path / "inst.json"
        argv = ["generate", "--problem", "smart-design", "--n", "10", "--seed", "7",
                "--out", str(out)]
        if isinstance(error, OSError):
            assert cli.main(argv) == 2
        else:
            with pytest.raises(KeyboardInterrupt):
                cli.main(argv)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flags, error", [
        (["--problem", "smart-design", "--n", "10", "--samples", "100", "--cost", "1.5"],
         "error: cost_percent"),
        # 2 words make 3 distinct non-empty topics, not 4 + 2.
        (["--problem", "prior-nmf", "--n", "2", "--true-topics", "4", "--false-topics", "2"],
         "error: true_topics + false_topics"),
        (["--problem", "smart-design", "--n", "10", "--samples", "1"], "error: samples"),
        # A later --seed overrides the default 7.
        (["--problem", "smart-design", "--n", "10", "--seed", "-1"],
         "error: seed must be >= 0, got -1\n"),
        (["--problem", "prior-nmf", "--n", "20", "--seed", "-1"],
         "error: seed must be >= 0, got -1\n"),
    ], ids=["cost", "topics", "samples", "seed-sd", "seed-nmf"])
    def test_invalid_shape_exits_1(self, tmp_path, capsys, flags, error):
        out = tmp_path / "x.json"
        rc = cli.main(["generate", "--seed", "7", *flags, "--out", str(out)])
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
        # one stop reason per search, that is per fold
        with open(out + ".meta.json") as fh:
            assert json.load(fh)["stops"] == ["node_cap", "node_cap"]

    def test_trace_replay(self, sd_instance, tmp_path):
        out = str(tmp_path / "res.csv")
        trace = str(tmp_path / "trace.ndjson")
        cli.main(["solve", "--instance", sd_instance, "--out", out,
                  "--folds", "1", "--trace", trace])
        records = [json.loads(line) for line in open(trace)]
        assert records[0]["depth"] == 0 and records[0]["trail"] == []
        assert all(set(r) == {"id", "depth", "trail", "loss", "bound", "status"}
                   for r in records)

    def test_prior_nmf_trace_names_untrained_nodes(self, tmp_path):
        """A node the lower bound prunes has a null loss and a bound at or
        above the best loss; no node fails; the sidecar counts the trained
        nodes."""
        inst = str(tmp_path / "inst.json")
        cli.main(["generate", "--problem", "prior-nmf", "--n", "20", "--seed", "3", "--out", inst])
        for pruning in ("on", "off"):
            out, trace = str(tmp_path / "res.csv"), str(tmp_path / "trace.ndjson")
            assert cli.main(["solve", "--instance", inst, "--out", out, "--iters", "50",
                             "--pruning", pruning, "--trace", trace]) == 0
            records = [json.loads(line) for line in open(trace)]
            (row,) = read_rows(out)
            with open(out + ".meta.json") as fh:
                (counts,) = json.load(fh)["nodes"]
            assert counts["failed"] == 0
            untrained = [r for r in records if r["loss"] is None]
            assert all(r["status"] == "pruned" and r["bound"] >= float(row["best_loss"])
                       for r in untrained)
            assert bool(untrained) == (pruning == "on")
            assert counts["trained"] == sum(r["loss"] is not None for r in records)

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
        *NAMED_FIELD,
        *(pytest.param(content, id=name) for name, (content, _) in BAD_ARRAYS.items()),
    ])
    def test_bad_instance_exits_1(self, tmp_path, capsys, content):
        inst, out, trace = tmp_path / "bad.json", tmp_path / "res.csv", tmp_path / "t.ndjson"
        if isinstance(content, bytes):
            inst.write_bytes(content)
            named = dict(BAD_ARRAYS.values())[content]
        else:
            inst.write_text(content)
            named = NAMED_FIELD.get(content, "error:")
        rc = cli.main(["solve", "--instance", str(inst), "--out", str(out),
                       "--trace", str(trace)])
        assert rc == 1
        assert named in capsys.readouterr().err
        assert not out.exists() and not trace.exists()
        assert not (tmp_path / "res.csv.meta.json").exists()

    @pytest.mark.parametrize("flags, first, second", [
        (["--out", "r.csv", "--trace", "r.csv"], "--out", "--trace"),
        (["--out", "r.csv", "--trace", "r.csv.meta.json"], "--out's .meta.json", "--trace"),
        (["--out", "inst.json"], "--instance", "--out"),
        (["--out", "r.csv", "--trace", "./r.csv"], "--out", "--trace"),
    ])
    def test_colliding_paths_exit_1(self, sd_instance, tmp_path, monkeypatch, capsys,
                                    flags, first, second):
        # Staged outputs that share a target would merge, and an --out on
        # the instance would replace it: the solve writes nothing instead.
        monkeypatch.chdir(tmp_path)
        data = (tmp_path / "inst.json").read_bytes()
        rc = cli.main(["solve", "--instance", "inst.json", "--folds", "1", *flags])
        assert rc == 1
        assert "error: %s and %s name the same file" % (first, second) in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["inst.json"]
        assert (tmp_path / "inst.json").read_bytes() == data

    def test_meta_records_search_flags(self, tmp_path):
        inst, out = str(tmp_path / "nmf.json"), str(tmp_path / "res.csv")
        cli.main(["generate", "--problem", "prior-nmf", "--n", "20", "--seed", "3",
                  "--out", inst])
        assert cli.main(["solve", "--instance", inst, "--out", out,
                         "--iters", "50", "--node-cap", "3"]) == 0
        with open(out + ".meta.json") as fh:
            meta = json.load(fh)
        assert (meta["iters"], meta["pruning"]) == (50, "on")
        assert "restarts" not in meta

    @pytest.mark.parametrize("limit, stop", [
        (["--node-cap", "3"], "node_cap"), (["--timeout-s", "0"], "timeout"), ([], "completed"),
    ])
    def test_meta_records_stop_reason(self, tmp_path, limit, stop):
        inst, out = str(tmp_path / "nmf.json"), str(tmp_path / "res.csv")
        cli.main(["generate", "--problem", "prior-nmf", "--n", "20", "--true-topics", "4",
                  "--false-topics", "2", "--docs", "50", "--seed", "3", "--out", inst])
        assert cli.main(["solve", "--instance", inst, "--out", out, *limit]) == 0
        with open(out + ".meta.json") as fh:
            assert json.load(fh)["stops"] == [stop]
        (row,) = read_rows(out)
        assert row["completed"] == str(stop == "completed").lower()

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

    @pytest.mark.parametrize("generate, search", [
        (["--problem", "prior-nmf", "--n", "20"], ["--iters", "50", "--node-cap", "7"]),
        (["--problem", "smart-design", "--n", "10", "--samples", "100", "--cost", "0.6"],
         ["--folds", "2"]),
    ])
    def test_meta_records_node_counts(self, tmp_path, generate, search):
        inst, out = str(tmp_path / "inst.json"), str(tmp_path / "res.csv")
        cli.main(["generate", *generate, "--seed", "3", "--out", inst])
        assert cli.main(["solve", "--instance", inst, "--out", out, *search]) == 0
        with open(out + ".meta.json") as fh:
            meta = json.load(fh)
        # one entry per search, in the order of the searched rows
        searched = [r for r in read_rows(out) if r.get("method", "bagel") == "bagel"]
        assert len(meta["nodes"]) == len(meta["stops"]) == len(searched)
        for counts, row in zip(meta["nodes"], searched):
            assert set(counts) == {"opened", "trained", "pruned", "failed", "leaves"}
            assert counts["opened"] == int(row["nodes"])
            assert counts["pruned"] + counts["failed"] + counts["leaves"] <= counts["opened"]
            assert counts["trained"] <= counts["opened"] - counts["failed"]
        if "--node-cap" in search:
            assert meta["stops"] == ["node_cap"] and meta["nodes"][0]["opened"] == 7

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
        # A flag the problem kind does not use is still validated.
        (["--problem", "smart-design", "--n", "10", "--samples", "100", "--cost", "0.6"],
         ["--iters", "-5"]),
        (["--problem", "prior-nmf", "--n", "20"], ["--folds", "0"]),
        (["--problem", "prior-nmf", "--n", "20"], ["--seed", "-1"]),
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

    @pytest.mark.parametrize("argv", [
        ["solve", "--instance", "inst.json", "--out", "res.csv", "--restarts", "2"],
        ["generate", "--problem", "prior-nmf", "--n", "20", "--out", "nmf.json",
         "--sparsity", "0.5"],
    ], ids=["restarts", "sparsity"])
    def test_removed_flag_is_a_usage_error(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not os.listdir(tmp_path)

    def test_missing_instance_exits_2(self, tmp_path):
        rc = cli.main(["solve", "--instance", str(tmp_path / "nope.json"),
                       "--out", str(tmp_path / "res.csv")])
        assert rc == 2

    @pytest.mark.parametrize("flag", [["--timeout-s", "-1"], ["--node-cap", "-1"]],
                             ids=["timeout-s", "node-cap"])
    def test_bad_stop_flag_fails_before_the_read(self, tmp_path, capsys, flag):
        rc = cli.main(["solve", "--instance", str(tmp_path / "nope.json"),
                       "--out", str(tmp_path / "res.csv"), *flag])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not os.listdir(tmp_path)

    @pytest.mark.parametrize("generate, search, k", [
        (["--n", "20", "--true-topics", "4", "--false-topics", "2", "--docs", "50",
          "--seed", "3", "--noiseless"], ["--iters", "50", "--node-cap", "40"], 4),
        (["--n", "20", "--seed", "3"], ["--iters", "50", "--strategy", "best-first"], 4),
        # The paper grid's top cell, under the default DFS
        (["--n", "150", "--true-topics", "8", "--false-topics", "10", "--docs", "300",
          "--seed", "2"], [], 8),
    ], ids=["noiseless", "best-first", "top-cell"])
    def test_prior_nmf_solve(self, tmp_path, generate, search, k):
        """Each search completes on k distinct topics, the planted ones."""
        inst = str(tmp_path / "nmf.json")
        cli.main(["generate", "--problem", "prior-nmf", *generate, "--out", inst])
        out = str(tmp_path / "res.csv")
        assert cli.main(["solve", "--instance", inst, "--out", out, *search]) == 0
        (row,) = read_rows(out)
        with open(out + ".meta.json") as fh:
            assert json.load(fh)["stops"] == ["completed"]
        topics = row["assignment"].split()
        assert len(set(topics)) == len(topics) == k
        assert float(row["recovery"]) == 1.0 and row["completed"] == "true"
        assert np.isfinite(float(row["best_loss"]))

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

    def test_append_decides_before_the_solve(self, sd_instance, tmp_path, monkeypatch):
        # --out is missing when the solve starts and appears, with other
        # columns, while it runs: the rows replace it under their own header.
        out = tmp_path / "res.csv"
        solve = cli.PROBLEMS["smart-design"].solve

        def solve_then_create(*args):
            rows = solve(*args)
            out.write_text("instance_id,best_loss\nabc,1.0\n")
            return rows
        monkeypatch.setitem(cli.PROBLEMS, "smart-design", dataclasses.replace(
            cli.PROBLEMS["smart-design"], solve=solve_then_create))
        assert cli.main(["solve", "--instance", sd_instance, "--out", str(out),
                         "--folds", "1", "--append"]) == 0
        with open(out, newline="") as fh:
            lines = list(csv.reader(fh))
        assert lines[0] == cli.PROBLEMS["smart-design"].fields
        assert len(lines) == 4 and ["abc", "1.0"] not in lines

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


class TestLoad:
    """`cli._load_instance`: one buffer read, arrays as views of it, and the
    digest hashed beside the search."""

    GENERATE = {
        "smart-design": (["--n", "10", "--samples", "100", "--cost", "0.6"],
                         lambda: sd_generate_instance(10, 100, 0.6, seed=3), ("X", "y")),
        "prior-nmf": (["--n", "20"], lambda: nmf_generate_instance(20, 4, 2, 50, seed=3),
                      ("A",)),
    }

    def generate(self, tmp_path, capsys, problem):
        """(path, digest printed) of a generated instance file."""
        path = tmp_path / "inst.json"
        flags, _, _ = self.GENERATE[problem]
        assert cli.main(["generate", "--problem", problem, *flags, "--seed", "3",
                         "--out", str(path)]) == 0
        digest, printed_path = capsys.readouterr().out.split()
        assert printed_path == str(path)
        return path, digest

    @pytest.mark.parametrize("problem", list(GENERATE))
    def test_arrays_are_aligned_read_only_views(self, tmp_path, capsys, problem):
        path, _ = self.generate(tmp_path, capsys, problem)
        _, direct, names = self.GENERATE[problem]
        kind, instance, data = cli._load_instance(str(path))
        assert kind == problem and bytes(data) == path.read_bytes()
        buffer = np.frombuffer(data, np.uint8)
        for name in names:
            a, expected = getattr(instance, name), getattr(direct(), name)
            assert a.dtype == np.float64 and a.flags.c_contiguous and a.flags.aligned
            assert not a.flags.writeable and np.shares_memory(a, buffer)
            assert np.array_equal(a.view(np.uint64), expected.view(np.uint64))
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1.0

    def test_unsized_file_is_read_whole(self, tmp_path, capsys):
        # A pipe's size is not known before it is read; the one read takes
        # all of it, and its arrays are aligned read-only views as a
        # regular file's are.
        path, _ = self.generate(tmp_path, capsys, "smart-design")
        raw = path.read_bytes()
        read_fd, write_fd = os.pipe()

        def feed():
            with open(write_fd, "wb") as fh:
                for at in range(0, len(raw), 1000):  # in pieces, as a pipe may be
                    fh.write(raw[at:at + 1000])
                    fh.flush()
        feeder = threading.Thread(target=feed)
        feeder.start()
        try:
            _, instance, data = cli._load_instance("/dev/fd/%d" % read_fd)
        finally:
            os.close(read_fd)
            feeder.join(timeout=10)
        assert not feeder.is_alive() and bytes(data) == raw
        _, direct, _ = cli._load_instance(str(path))
        buffer = np.frombuffer(data, np.uint8)
        for name in ("X", "y"):
            a = getattr(instance, name)
            assert a.dtype == np.float64 and a.flags.c_contiguous and a.flags.aligned
            assert not a.flags.writeable and np.shares_memory(a, buffer)
            assert np.array_equal(a.view(np.uint64), getattr(direct, name).view(np.uint64))

    @pytest.mark.parametrize("problem", list(GENERATE))
    def test_unpadded_header_loads_as_copies(self, tmp_path, capsys, problem):
        # Files written before the header was padded: the tail starts off
        # the 8-byte grid, so each array is an aligned copy of the same bits,
        # and the file solves to the same rows.
        path, _ = self.generate(tmp_path, capsys, problem)
        raw = path.read_bytes()
        head, tail = raw.split(b"\n", 1)
        assert len(head) != len(head.rstrip(b" ")) and (len(head.rstrip(b" ")) + 1) % 8
        unpadded = tmp_path / "unpadded.json"
        unpadded.write_bytes(head.rstrip(b" ") + b"\n" + tail)
        _, padded_instance, _ = cli._load_instance(str(path))
        _, instance, data = cli._load_instance(str(unpadded))
        for name in self.GENERATE[problem][2]:
            a = getattr(instance, name)
            assert a.flags.owndata and a.flags.aligned and a.flags.c_contiguous
            assert not np.shares_memory(a, np.frombuffer(data, np.uint8))
            assert np.array_equal(a.view(np.uint64),
                                  getattr(padded_instance, name).view(np.uint64))
        rows = []
        for instance_path in (path, unpadded):
            out = tmp_path / ("%s.csv" % instance_path.stem)
            assert cli.main(["solve", "--instance", str(instance_path), "--out", str(out),
                             "--folds", "2", "--iters", "20"]) == 0
            rows.append([{k: v for k, v in row.items() if k not in ("wall_ms", "instance_id")}
                         for row in read_rows(out)])
        assert rows[0] and rows[0] == rows[1]

    @pytest.mark.parametrize("form", ["binary", "nested-list"])
    @pytest.mark.parametrize("problem", list(GENERATE))
    def test_instance_id_is_the_file_digest(self, tmp_path, capsys, problem, form):
        path, printed = self.generate(tmp_path, capsys, problem)
        if form == "nested-list":
            doc, _ = numerics.read_instance(path)
            path = tmp_path / "list.json"
            path.write_text(json.dumps({k: v.tolist() if isinstance(v, np.ndarray) else v
                                        for k, v in doc.items()}))
            printed = None
        digest = hashlib.sha256(path.read_bytes()).hexdigest()[:12]
        assert printed in (None, digest)
        out = tmp_path / "res.csv"
        assert cli.main(["solve", "--instance", str(path), "--out", str(out),
                         "--folds", "1", "--iters", "20"]) == 0
        assert {row["instance_id"] for row in read_rows(out)} == {digest}
        assert json.loads((tmp_path / "res.csv.meta.json").read_text())["instance_id"] == digest

    @pytest.mark.parametrize("failure", ["append-columns", "solve-raises"])
    def test_failure_after_load_joins_the_digest(self, tmp_path, capsys, monkeypatch,
                                                 failure):
        path, _ = self.generate(tmp_path, capsys, "smart-design")
        out = tmp_path / "res.csv"
        argv = ["solve", "--instance", str(path), "--out", str(out), "--folds", "1"]
        if failure == "append-columns":
            out.write_text("instance_id,best_loss\nabc,1.0\n")
            argv.append("--append")
        else:
            def fail(*args):
                raise ValueError("no solve")
            monkeypatch.setitem(cli.PROBLEMS, "smart-design", dataclasses.replace(
                cli.PROBLEMS["smart-design"], solve=fail))
        # A slow digest: still running when the error is raised.
        digest = cli._digest
        monkeypatch.setattr(cli, "_digest", lambda data: time.sleep(0.2) or digest(data))
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        threads = threading.active_count()
        assert cli.main(argv) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert threading.active_count() == threads
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


# CSV rows (method, fold, train_loss, test_loss, tightness, nodes, completed)
# and sidecar node counts (opened, trained, pruned, failed, leaves) of
# `bagel solve` on `oracles.benchmark_shaped` instances, recorded with
# bagel 0.8.0, numpy 2.4 and its OpenBLAS 0.3.31 on x86-64.
BENCHMARK_SHAPED_SOLVES = {
    ("sd-many", 1): ([
        "bagel 0 6.140496865847769 3.101983075822715 0.9836608937927946 25 true",
        "l2_br 0 6.158358988306507 3.0331777455501356 0.9643492909866601 0 true",
        "l2_or 0 6.140496865847769 3.101983075822715 0.9836608937927946 0 true",
        "bagel 1 6.093433148227643 3.175476234787769 0.9865769971160582 25 true",
        "l2_br 1 6.098738714224449 3.1660252153778172 0.9643492909866601 0 true",
        "l2_or 1 6.098738714224449 3.1660252153778172 0.9643492909866601 0 true",
        "bagel 2 5.943984798519908 3.491534800370218 0.9836608937927946 25 true",
        "l2_br 2 5.95331553754581 3.4418242099523764 0.9643492909866601 0 true",
        "l2_or 2 5.95331553754581 3.4418242099523764 0.9643492909866601 0 true",
        "bagel 3 6.034135089451661 3.2712723903905094 0.9865769971160582 25 true",
        "l2_br 3 6.037629212190193 3.2639845629478503 0.9643492909866601 0 true",
        "l2_or 3 6.037629212190193 3.2639845629478503 0.9643492909866601 0 true",
        "bagel 4 6.244130663245056 2.8859423404708564 0.9865769971160582 25 true",
        "l2_br 4 6.2501161488511014 2.869075786302159 0.9643492909866601 0 true",
        "l2_or 4 6.2501161488511014 2.869075786302159 0.9643492909866601 0 true",
    ], [(25, 25, 13, 0, 0)] + [(25, 25, 11, 0, 2)] * 4),
    ("sd-many", 2): ([
        "bagel 0 5.984296055300571 3.4432672784754548 0.9865769971160582 25 true",
        "l2_br 0 5.985591552373648 3.4442937001809963 0.9643492909866601 0 true",
        "l2_or 0 5.985591552373648 3.4442937001809963 0.9643492909866601 0 true",
        "bagel 1 6.209225293703275 2.901068642467544 0.9836608937927946 25 true",
        "l2_br 1 6.216103944484392 2.87304741435589 0.9643492909866601 0 true",
        "l2_or 1 6.216103944484392 2.87304741435589 0.9643492909866601 0 true",
        "bagel 2 6.151955143763121 3.0950363218709223 0.9836608937927946 25 true",
        "l2_br 2 6.152676507800848 3.0888803741744435 0.9643492909866601 0 true",
        "l2_or 2 6.152676507800848 3.0888803741744435 0.9643492909866601 0 true",
        "bagel 3 6.011910688809687 3.343044638378757 0.9836608937927946 25 true",
        "l2_br 3 6.015938633367322 3.332777243181231 0.9643492909866601 0 true",
        "l2_or 3 6.015938633367322 3.332777243181231 0.9643492909866601 0 true",
        "bagel 4 6.099286881984365 3.1844165933538062 0.9865769971160582 25 true",
        "l2_br 4 6.110528631605252 3.1476095445775627 0.9643492909866601 0 true",
        "l2_or 4 6.110528631605252 3.1476095445775627 0.9643492909866601 0 true",
    ], [(25, 25, 11, 0, 2)] * 5),
    ("sd-tall", 1): ([
        "bagel 0 68.51724530838652 34.70731722184272 0.950849053816445 11 true",
        "l2_br 0 68.51724530838652 34.70731722184272 0.950849053816445 0 true",
        "l2_or 0 68.51724530838652 34.70731722184272 0.950849053816445 0 true",
    ], [(11, 11, 6, 0, 0)]),
    ("sd-tall", 2): ([
        "bagel 0 68.63076202247096 34.47782055195017 0.950849053816445 11 true",
        "l2_br 0 68.63076202247096 34.47782055195017 0.950849053816445 0 true",
        "l2_or 0 68.63076202247096 34.47782055195017 0.950849053816445 0 true",
    ], [(11, 11, 6, 0, 0)]),
}


class TestBenchmarkShapedSolves:
    """The smart-design benchmark workloads' solves give the rows and node
    counts recorded above.  Node counts and the text columns must match
    exactly; the losses and tightness within 1e-12 relative, since
    another BLAS may round their last bits otherwise."""

    @pytest.mark.parametrize("workload, seed", list(BENCHMARK_SHAPED_SOLVES))
    def test_rows_and_node_counts(self, tmp_path, workload, seed):
        path, out = str(tmp_path / "inst.json"), str(tmp_path / "res.csv")
        save_instance(benchmark_shaped(workload, seed), path)
        _, flags = BENCHMARK_WORKLOADS[workload]
        assert cli.main(["solve", "--instance", path, "--out", out] + flags) == 0
        rows, nodes = BENCHMARK_SHAPED_SOLVES[workload, seed]
        got = rows_without_wall(out)
        assert len(got) == len(rows)
        for row, expected in zip(got, rows):
            method, fold, train, test, tight, opened, completed = expected.split()
            assert [row[c] for c in ("method", "fold", "nodes", "completed")] == [
                method, fold, opened, completed]
            for column, value in (("train_loss", train), ("test_loss", test),
                                  ("tightness", tight)):
                assert float(row[column]) == pytest.approx(float(value), rel=1e-12, abs=0)
        meta = json.loads((tmp_path / "res.csv.meta.json").read_text())
        assert [tuple(n[k] for k in ("opened", "trained", "pruned", "failed", "leaves"))
                for n in meta["nodes"]] == nodes


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
                                       ["--seeds", "0"], ["--seeds", "-1"],
                                       ["--seeds", "1", "--folds", "0"],
                                       ["--seeds", "1", "--iters", "-1"]],
                             ids=["timeout-s=-1", "seeds=0", "seeds=-1", "folds=0",
                                  "iters=-1"])
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

    def test_interrupted_cell_is_not_resumed(self, tmp_path, monkeypatch):
        out_dir = tmp_path / "sweep"
        args = ["bench", "--problem", "prior-nmf", "--out-dir", str(out_dir),
                "--grid-n", "20", "--seeds", "1"]
        cell = str(out_dir / "nmf_n20_t4_f2_m50_s0.csv")
        assert cli.main(args + ["--iters", "20"]) == 0
        before = files(out_dir)

        def interrupt(path, config):
            raise KeyboardInterrupt

        # Interrupted after the --iters 200 rows are staged, before their
        # sidecar: the cell keeps its --iters 20 rows and sidecar.
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_write_meta", interrupt)
            with pytest.raises(KeyboardInterrupt):
                cli.main(args + ["--iters", "200"])
        assert files(out_dir) == before  # and no *.tmp
        stamp = os.path.getmtime(cell)
        assert cli.main(args + ["--iters", "20"]) == 0
        assert os.path.getmtime(cell) == stamp
        assert cli.main(args + ["--iters", "200"]) == 0
        with open(cell + ".meta.json") as fh:
            assert json.load(fh)["iters"] == 200

    def test_interrupted_move_leaves_nothing_to_resume(self, tmp_path, monkeypatch):
        out_dir = tmp_path / "sweep"
        args = ["bench", "--problem", "prior-nmf", "--out-dir", str(out_dir),
                "--grid-n", "20", "--seeds", "1"]
        cell = str(out_dir / "nmf_n20_t4_f2_m50_s0.csv")
        assert cli.main(args + ["--iters", "20"]) == 0
        rows = rows_without_wall(cell)
        replace, calls = os.replace, []

        def interrupt_second(src, dst):
            calls.append(dst)
            if len(calls) == 2:  # the CSV is in place, its sidecar not yet
                raise KeyboardInterrupt
            replace(src, dst)

        with monkeypatch.context() as patch:
            patch.setattr(os, "replace", interrupt_second)
            with pytest.raises(KeyboardInterrupt):
                cli.main(args + ["--iters", "200"])
        assert calls[1].endswith(".meta.json")
        assert not [name for name in os.listdir(out_dir) if name.endswith(".tmp")]
        # The --iters 200 rows have no sidecar, so an --iters 20 rerun
        # solves the cell again rather than resuming them.
        assert rows_without_wall(cell) != rows
        assert not os.path.exists(cell + ".meta.json")
        assert cli.main(args + ["--iters", "20"]) == 0
        assert rows_without_wall(cell) == rows
        with open(cell + ".meta.json") as fh:
            assert json.load(fh)["iters"] == 20

    def test_sidecar_of_an_older_sweep_is_resumed(self, tmp_path):
        # A sidecar written before it recorded node_cap, warnings, stops
        # and nodes still identifies its cell.
        out_dir = tmp_path / "sweep"
        args = ["bench", "--problem", "prior-nmf", "--out-dir", str(out_dir),
                "--grid-n", "20", "--seeds", "1", "--iters", "20"]
        cell = str(out_dir / "nmf_n20_t4_f2_m50_s0.csv")
        assert cli.main(args) == 0
        with open(cell + ".meta.json") as fh:
            meta = json.load(fh)
        old = {key: meta[key] for key in ("instance_id", "problem", "seed", "strategy",
                                          "pruning", "timeout_s", "folds", "iters", "versions")}
        with open(cell + ".meta.json", "w") as fh:
            json.dump(old, fh)
        before = files(out_dir)
        stamps = [os.path.getmtime(path) for path in (cell, cell + ".meta.json")]
        assert cli.main(args) == 0
        assert [os.path.getmtime(path) for path in (cell, cell + ".meta.json")] == stamps
        assert files(out_dir) == before

    def test_truncated_sidecar_is_solved_again(self, tmp_path):
        out_dir = tmp_path / "sweep"
        args = ["bench", "--problem", "prior-nmf", "--out-dir", str(out_dir),
                "--grid-n", "20", "--seeds", "1", "--iters", "20"]
        cell = str(out_dir / "nmf_n20_t4_f2_m50_s0.csv")
        assert cli.main(args) == 0
        rows = rows_without_wall(cell)
        with open(cell + ".meta.json", "rb") as fh:
            meta = fh.read()
        with open(cell + ".meta.json", "wb") as fh:
            fh.write(meta[:40])
        assert cli.main(args) == 0
        with open(cell + ".meta.json", "rb") as fh:
            assert fh.read() == meta
        assert rows_without_wall(cell) == rows

    def test_interrupted_aggregate_keeps_its_old_file(self, tmp_path, monkeypatch):
        out_dir = tmp_path / "sweep"
        args = ["bench", "--problem", "prior-nmf", "--out-dir", str(out_dir),
                "--grid-n", "20", "--seeds", "1", "--iters", "20"]
        assert cli.main(args) == 0
        before = files(out_dir)
        write_rows = cli._write_rows

        def interrupt(path, fields, rows, append=False):
            # The header alone reaches the file before the interrupt.
            write_rows(path, fields, rows[:0], append)
            raise KeyboardInterrupt

        with monkeypatch.context() as patch:
            patch.setattr(cli, "_write_rows", interrupt)
            with pytest.raises(KeyboardInterrupt):
                cli.main(args)
        assert files(out_dir) == before  # and no *.tmp

    def test_sweep_continues_past_bad_cells(self, tmp_path):
        out_dir = tmp_path / "sweep"
        assert cli.main(["bench", "--problem", "prior-nmf", "--out-dir", str(out_dir),
                         "--grid-n", "20", "--grid-true", "1,4", "--seeds", "1",
                         "--iters", "20"]) == 0
        bad, good = read_rows(str(out_dir / "aggregate.csv"))
        assert bad["cell"] == "nmf_n20_t1_f2_m50_s0"
        assert bad["note"] == "true_topics must be >= 2, got 1"
        assert bad["mean_best_loss"] == bad["mean_recovery"] == "nan"
        assert good["cell"] == "nmf_n20_t4_f2_m50_s0" and good["note"] == ""
        assert np.isfinite(float(good["mean_best_loss"]))
        assert sorted(os.listdir(out_dir)) == [
            "aggregate.csv", "nmf_n20_t4_f2_m50_s0.csv", "nmf_n20_t4_f2_m50_s0.csv.meta.json"]

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
        # The cell's sidecar is solve's, but for the instance path and id.
        sidecars = []
        for path in (out, os.path.join(out_dir, cell)):
            with open(path + ".meta.json") as fh:
                sidecars.append({k: v for k, v in json.load(fh).items()
                                 if k not in ("instance", "instance_id")})
        assert sidecars[0] == sidecars[1]
        assert sidecars[1]["stops"] and sidecars[1]["node_cap"] is None
        for row in solved:
            assert np.isfinite(float(row.get("planted_loss", 0.0)))
        if "prior-nmf" in grid:
            (row,) = solved
            assert len(row["assignment"].split()) == 4  # one topic per column
