"""End-to-end tests for the command-line interface."""

import subprocess
import sys
from importlib import resources

import pytest

from chaintag.cli import main
from chaintag.corpus import ColumnSchema, load_corpus
from chaintag.model_io import load_model
from chaintag.tagschema import bundled_schema, format_schema


def run_cli(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.fixture(scope="module")
def toy_path(tmp_path_factory):
    text = (
        resources.files("chaintag.data").joinpath("toy.tsv").read_text("utf-8")
    )
    path = tmp_path_factory.mktemp("corpus") / "toy.tsv"
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def toy_model(toy_path, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("model") / "toy.model")
    code = run_cli([
        "train", toy_path, "--columns", "mot,lemme,tag",
        "--model", path, "--max-iterations", "40",
    ])
    assert code == 0
    return path


# --- schema -----------------------------------------------------------


def test_schema_validate(capsys):
    assert run_cli(["schema", "validate"]) == 0
    out = capsys.readouterr().out
    assert out == "schema OK: 16 L0 tags, 72 L1 tags, 107 L2 tags\n"


def test_schema_product(capsys):
    assert run_cli(["schema", "product"]) == 0
    out = capsys.readouterr().out
    assert out == "107 valid combinations of 4608 raw cartesian combinations\n"


def test_schema_decompose(capsys):
    assert run_cli(["schema", "decompose", "NFS"]) == 0
    assert capsys.readouterr().out == "N F S EPS\n"


def test_schema_recombine(capsys):
    assert run_cli(["schema", "recombine", "N", "F", "S", "EPS"]) == 0
    assert capsys.readouterr().out == "NFS\n"


def test_schema_recombine_rejects_invalid_tuples(capsys):
    assert run_cli(["schema", "recombine", "ADV", "M", "P", "EPS"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "ADV" in captured.err


def test_schema_errors_go_to_stderr(capsys, tmp_path):
    bad = tmp_path / "bad.schema"
    bad.write_text("[L0]\nX\nX\n", encoding="utf-8")
    assert run_cli(["schema", "validate", "--schema", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("chaintag: ")


# --- train ------------------------------------------------------------


def test_train_creates_a_reloadable_model(toy_model, capsys):
    model = load_model(toy_model)
    assert model.weights.size > 0
    assert model.iterations > 0
    assert len(model.labels) == 28  # distinct tags in the toy corpus


def test_train_prints_a_trace_summary(toy_path, tmp_path, capsys):
    code = run_cli([
        "train", toy_path, "--columns", "mot,lemme,tag",
        "--model", str(tmp_path / "m"), "--max-iterations", "5",
    ])
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "objective" in captured.err


def test_train_warns_when_the_optimizer_does_not_converge(tmp_path, capsys):
    corpus = tmp_path / "c.tsv"
    corpus.write_text("le\tD\nsel\tN\n\nla\tD\nmer\tN\n", encoding="utf-8")
    argv = ["train", str(corpus), "--columns", "mot,tag",
            "--model", str(tmp_path / "m")]
    assert run_cli(argv + ["--max-iterations", "1"]) == 0
    err = capsys.readouterr().err
    assert "trained 1 iterations" in err and "stopped: max_iterations" in err
    assert "warning: training did not converge" in err
    assert run_cli(argv) == 0
    err = capsys.readouterr().err
    assert "objective calls, stopped: converged" in err
    assert "warning" not in err


def test_train_rejects_a_cell_spelled_like_a_boundary_sentinel(tmp_path, capsys):
    corpus = tmp_path / "c.tsv"
    corpus.write_text("le\tD\n_B-1\tN\n", encoding="utf-8")
    code = run_cli(["train", str(corpus), "--columns", "mot,tag",
                    "--model", str(tmp_path / "m")])
    assert code == 1
    assert "boundary sentinel" in capsys.readouterr().err


def test_cv_rejects_a_derived_cell_spelled_like_a_boundary_sentinel(
    tmp_path, capsys
):
    # `train` reads its columns as they are; recipes derive columns in the
    # pipelines that `cv` runs.  Rmot of "xy_B+1" with lemma "xy" is "_B+1".
    corpus = tmp_path / "c.tsv"
    corpus.write_text(
        "le\tle\tDETDEFMS\nxy_B+1\txy\tNMS\n\n"
        "le\tle\tDETDEFMS\nchat\tchat\tNMS\n",
        encoding="utf-8",
    )
    code = run_cli(["cv", str(corpus), "--columns", "mot,lemme,tag",
                    "--pipeline", "II", "--k", "2", "--max-iterations", "2"])
    assert code == 1
    err = capsys.readouterr().err
    assert "derived column Rmot holds '_B+1'" in err
    assert "boundary sentinel" in err


def test_train_is_deterministic(toy_path, tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    for path in (a, b):
        assert run_cli([
            "train", toy_path, "--columns", "mot,lemme,tag",
            "--model", path, "--max-iterations", "15",
        ]) == 0
    assert open(a, "rb").read() == open(b, "rb").read()


def test_train_fails_on_the_template_file_before_the_corpus(capsys):
    code = run_cli([
        "train", "/nonexistent/corpus.tsv", "--columns", "mot,tag",
        "--templates", "/nonexistent/templates.txt", "--model", "/tmp/x",
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert "template" in err and "templates.txt" in err
    assert "corpus.tsv" not in err  # fail-fast: corpus never touched


def test_train_needs_at_least_two_columns(toy_path, capsys):
    code = run_cli([
        "train", toy_path, "--columns", "mot", "--model", "/tmp/x",
    ])
    assert code == 1


# --- tag --------------------------------------------------------------


def test_tag_reproduces_gold_on_the_training_file(toy_path, toy_model,
                                                  tmp_path):
    out = str(tmp_path / "tagged.tsv")
    code = run_cli([
        "tag", toy_path, "--columns", "mot,lemme,tag",
        "--model", toy_model, "--column", "Res", "--output", out,
    ])
    assert code == 0
    widened = ColumnSchema(("mot", "lemme", "tag", "Res"))
    tagged = load_corpus(out, widened)  # output re-parses
    assert tagged.column("Res") == tagged.column("tag")


def test_tag_writes_to_stdout_by_default(toy_path, toy_model, capsys):
    code = run_cli([
        "tag", toy_path, "--columns", "mot,lemme,tag", "--model", toy_model,
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "\tDETDEFMS\tDETDEFMS" in out


def test_tag_rejects_an_empty_corpus(toy_model, tmp_path, capsys):
    empty = tmp_path / "empty.tsv"
    empty.write_text("", encoding="utf-8")
    code = run_cli([
        "tag", str(empty), "--columns", "mot,lemme", "--model", toy_model,
    ])
    assert code == 1
    assert "chaintag:" in capsys.readouterr().err


def test_tag_rejects_too_narrow_corpora(toy_path, toy_model, tmp_path,
                                        capsys):
    narrow = tmp_path / "narrow.tsv"
    narrow.write_text("le\nchat\n", encoding="utf-8")
    code = run_cli([
        "tag", str(narrow), "--columns", "mot", "--model", toy_model,
    ])
    assert code == 1
    assert "column" in capsys.readouterr().err


# --- cv ---------------------------------------------------------------


def test_cv_ten_folds_on_the_toy_corpus(toy_path, capsys):
    code = run_cli([
        "cv", toy_path, "--columns", "mot,lemme,tag",
        "--pipeline", "IVbis", "--k", "10", "--seed", "7",
        "--max-iterations", "8",
    ])
    assert code == 0
    out = capsys.readouterr().out
    for fold in range(10):
        assert "fold-%d-accuracy\t" % fold in out
    assert "folds\t10" in out and "seed\t7" in out


def test_cv_component_pipeline_reports_component_accuracies(toy_path, capsys):
    code = run_cli([
        "cv", toy_path, "--columns", "mot,lemme,tag",
        "--pipeline", "VIII", "--k", "2", "--seed", "3",
        "--max-iterations", "8",
    ])
    assert code == 0
    out = capsys.readouterr().out
    for k in range(4):
        assert "G%d-accuracy\t" % k in out


def test_cv_rejects_k_below_two(toy_path, capsys):
    code = run_cli([
        "cv", toy_path, "--columns", "mot,lemme,tag",
        "--pipeline", "IVbis", "--k", "1",
    ])
    assert code == 1
    assert "--k" in capsys.readouterr().err


def test_cv_accepts_a_pipeline_spec_file(toy_path, tmp_path, capsys):
    spec = tmp_path / "run.ini"
    spec.write_text(
        "[pipeline]\nid = IVbis\nseed = 2\n"
        "[training]\nmax_iterations = 8\n",
        encoding="utf-8",
    )
    code = run_cli([
        "cv", toy_path, "--columns", "mot,lemme,tag",
        "--pipeline", str(spec), "--k", "2",
    ])
    assert code == 0
    assert "pipeline\tIVbis" in capsys.readouterr().out


def test_cv_unknown_pipeline(toy_path, capsys):
    code = run_cli([
        "cv", toy_path, "--columns", "mot,lemme,tag", "--pipeline", "IX",
    ])
    assert code == 1


def test_cv_is_deterministic(toy_path, capsys):
    argv = [
        "cv", toy_path, "--columns", "mot,lemme,tag",
        "--pipeline", "IVbis", "--k", "2", "--seed", "5",
        "--max-iterations", "8",
    ]
    assert run_cli(argv) == 0
    first = capsys.readouterr().out
    assert run_cli(argv) == 0
    assert capsys.readouterr().out == first


def test_cv_reads_a_schema_file(toy_path, tmp_path):
    path = tmp_path / "reference.schema"
    path.write_text(format_schema(bundled_schema()), encoding="utf-8")
    code = run_cli([
        "cv", toy_path, "--columns", "mot,lemme,tag",
        "--pipeline", "IVbis", "--k", "2", "--max-iterations", "8",
        "--schema", str(path),
    ])
    assert code == 0


def test_cv_writes_report_files(toy_path, tmp_path):
    out = str(tmp_path / "report.txt")
    code = run_cli([
        "cv", toy_path, "--columns", "mot,lemme,tag",
        "--pipeline", "IVbis", "--k", "2", "--max-iterations", "8",
        "--output", out,
    ])
    assert code == 0
    assert "mean-accuracy" in open(out, encoding="utf-8").read()


def test_cv_label_column_must_exist(toy_path, capsys):
    code = run_cli([
        "cv", toy_path, "--columns", "mot,lemme,etiquette",
        "--pipeline", "IVbis", "--k", "2",
    ])
    assert code == 1
    assert "label column" in capsys.readouterr().err


# --- exit codes and plumbing ------------------------------------------


def test_usage_errors_exit_with_one(capsys):
    assert run_cli(["train", "--bogus"]) == 1
    assert run_cli(["nonsense"]) == 1


def test_removed_flags_are_usage_errors(capsys):
    for argv in (
        ["train", "C", "--columns", "mot,tag", "--model", "M", "--threads", "1"],
        ["tag", "C", "--columns", "mot", "--model", "M", "--threads", "1"],
        ["cv", "C", "--columns", "mot,tag", "--pipeline", "IV", "--threads", "1"],
        ["schema", "validate", "--threads", "1"],
        ["train", "C", "--columns", "mot,tag", "--model", "M", "--schema", "S"],
        ["tag", "C", "--columns", "mot", "--model", "M", "--schema", "S"],
    ):
        assert run_cli(argv) == 1, argv
        assert "unrecognized arguments" in capsys.readouterr().err


def test_internal_errors_exit_with_two(toy_path, monkeypatch, capsys):
    import chaintag.cli as cli_module

    def boom(*args, **kwargs):
        raise RuntimeError("invariant violated")

    monkeypatch.setattr(cli_module, "cross_validate", boom)
    code = run_cli([
        "cv", toy_path, "--columns", "mot,lemme,tag",
        "--pipeline", "IVbis", "--k", "2",
    ])
    assert code == 2
    assert "internal error" in capsys.readouterr().err


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "chaintag", "schema", "decompose", "VINDP3S"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "V 3 S INDP\n"
