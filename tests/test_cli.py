import json

import pytest
from conftest import GOLDEN_DIR
from hypothesis import given, settings, strategies as st

from ehr2icd.cli import main
from ehr2icd.ner import AnnotatedExample, EntitySpan
from ehr2icd.ner.corpus import write_internal
from ehr2icd.samples import sample_path

RAW_CSV = (
    "Gender,Age,Diagnosis,Diagnosis Date\n"
    "F,21,The patient's condition results in Diabetes Mellitus,10 years ago\n"
    "F,56,Tonsillitis,8/4/1439\n"
    "f,19 years,Arthritis,6/4/1439\n"
    "M,22,Hypertension,14/5/1439\n"
)
NORMALIZED_CSV = (
    "Gender,Age,Diagnosis,Diagnosis Date\n"
    "Female,56,Tonsillitis,8/4/1439\n"
    "Female,19,Arthritis,6/4/1439\n"
    "Male,22,Hypertension,14/5/1439\n"
)


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


def _micro_corpus(tmp_path):
    examples = []
    for disease in ("Cystitis", "Anxiety", "Hypertension", "Migraine", "Coryza"):
        for prefix in ("", "The disease is ", "Old known ", "Patient has "):
            text = prefix + disease
            start = len(prefix)
            examples.append(
                AnnotatedExample(text, (EntitySpan(start, len(text), disease),))
            )
    path = tmp_path / "corpus.jsonl"
    write_internal(path, examples)
    return path, examples


def test_normalize_matches_expected_rows(tmp_path, capsys):
    raw = _write(tmp_path, "raw.csv", RAW_CSV)
    out = tmp_path / "normalized.csv"
    assert main(["normalize", "--input", str(raw), "--output", str(out)]) == 0
    assert out.read_text() == NORMALIZED_CSV
    err = capsys.readouterr().err
    assert "dropped 1" in err and "date=1" in err


def test_normalize_missing_header_exits_2(tmp_path, capsys):
    raw = _write(
        tmp_path, "raw.csv", "Gender,Age,Diagnosis Date\nF,20,9/4/1439\n"
    )
    rc = main(["normalize", "--input", str(raw), "--output", str(tmp_path / "o.csv")])
    assert rc == 2
    assert "Diagnosis" in capsys.readouterr().err


def test_normalize_is_idempotent(tmp_path):
    raw = _write(tmp_path, "raw.csv", RAW_CSV)
    once = tmp_path / "once.csv"
    twice = tmp_path / "twice.csv"
    main(["normalize", "--input", str(raw), "--output", str(once)])
    main(["normalize", "--input", str(once), "--output", str(twice)])
    assert once.read_bytes() == twice.read_bytes()


def test_usage_error_exits_1(tmp_path, capsys):
    assert main(["normalize", "--no-such-flag"]) == 1
    assert capsys.readouterr().err != ""


def test_unknown_command_exits_1(capsys):
    assert main(["frobnicate"]) == 1
    assert capsys.readouterr().err != ""


def test_train_reports_split_and_is_deterministic(tmp_path, capsys):
    corpus, _ = _micro_corpus(tmp_path)
    model_a = tmp_path / "a.model"
    model_b = tmp_path / "b.model"
    assert main(["train", "--corpus", str(corpus), "--model-out", str(model_a)]) == 0
    err = capsys.readouterr().err
    assert "split 14/6" in err
    assert "held-out accuracy" in err
    assert main(["train", "--corpus", str(corpus), "--model-out", str(model_b)]) == 0
    assert model_a.read_bytes() == model_b.read_bytes()


def test_train_rejects_overlapping_record(tmp_path, capsys):
    path = tmp_path / "corpus.jsonl"
    good = {"content": "Cystitis", "entities": [[0, 8, "Disease"]]}
    bad = {"content": "Colon cancer", "entities": [[0, 12, "Disease"], [6, 12, "Disease"]]}
    path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
    rc = main(["train", "--corpus", str(path), "--model-out", str(tmp_path / "m")])
    assert rc == 2
    assert "2" in capsys.readouterr().err


def test_annotate_then_link_matches_direct_link(tmp_path, sample_kb_path):
    corpus, _ = _micro_corpus(tmp_path)
    model = tmp_path / "m.model"
    main(["train", "--corpus", str(corpus), "--model-out", str(model)])

    normalized = _write(tmp_path, "normalized.csv", NORMALIZED_CSV)
    annotations = tmp_path / "spans.jsonl"
    assert (
        main(
            [
                "annotate",
                "--input", str(normalized),
                "--model", str(model),
                "--output", str(annotations),
            ]
        )
        == 0
    )
    lines = [json.loads(l) for l in annotations.read_text().splitlines()]
    assert [l["row_index"] for l in lines] == [1, 2, 3]

    via_annotations = tmp_path / "a.csv"
    via_model = tmp_path / "b.csv"
    assert (
        main(
            [
                "link",
                "--input", str(normalized),
                "--annotations", str(annotations),
                "--kb", str(sample_kb_path),
                "--output", str(via_annotations),
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "link",
                "--input", str(normalized),
                "--model", str(model),
                "--kb", str(sample_kb_path),
                "--output", str(via_model),
            ]
        )
        == 0
    )
    assert via_annotations.read_bytes() == via_model.read_bytes()


def test_link_requires_kb(tmp_path, capsys):
    normalized = _write(tmp_path, "n.csv", NORMALIZED_CSV)
    rc = main(
        ["link", "--input", str(normalized), "--output", str(tmp_path / "s.csv")]
    )
    assert rc == 1
    assert "kb" in capsys.readouterr().err.lower()


def test_link_threshold_unreachable_gives_all_na(
    tmp_path, sample_kb_path, sample_model_path
):
    normalized = _write(tmp_path, "n.csv", NORMALIZED_CSV)
    out = tmp_path / "standard.csv"
    rc = main(
        [
            "link",
            "--input", str(normalized),
            "--model", str(sample_model_path),
            "--kb", str(sample_kb_path),
            "--output", str(out),
            "--score-threshold", "1.01",
        ]
    )
    assert rc == 0
    for line in out.read_text().splitlines()[1:]:
        assert line.endswith(",,,")


def test_evaluate_prints_comparison_table(
    tmp_path, capsys, sample_kb_path, sample_model_path, sample_corpus_path
):
    out_dir = tmp_path / "eval"
    rc = main(
        [
            "evaluate",
            "--corpus", str(sample_corpus_path),
            "--kb", str(sample_kb_path),
            "--model", str(sample_model_path),
            "--out-dir", str(out_dir),
        ]
    )
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "Annotator,True result,False result,Accuracy"
    for line in lines[1:3]:
        name, true, false, percent = line.split(",")
        assert name in ("tagger", "dictionary")
        assert int(true) + int(false) == 173
        assert percent.endswith("%")
    assert (out_dir / "outcomes_tagger.csv").exists()
    assert (out_dir / "outcomes_dictionary.csv").exists()
    summary = json.loads((out_dir / "summary.json").read_text())
    assert set(summary) == {"tagger", "dictionary"}


def test_evaluate_accepts_stoplist_and_extra_terms_files(
    tmp_path, capsys, sample_kb_path, sample_model_path, sample_corpus_path
):
    from ehr2icd.samples import sample_path

    rc = main(
        [
            "evaluate",
            "--corpus", str(sample_corpus_path),
            "--kb", str(sample_kb_path),
            "--model", str(sample_model_path),
            "--out-dir", str(tmp_path / "eval"),
            "--stoplist", str(sample_path("stoplist.txt")),
            "--extra-terms", str(sample_path("extra_terms.txt")),
        ]
    )
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3


def test_evaluate_empty_corpus_exits_2(
    tmp_path, capsys, sample_kb_path, sample_model_path
):
    empty = _write(tmp_path, "empty.jsonl", "")
    rc = main(
        [
            "evaluate",
            "--corpus", str(empty),
            "--kb", str(sample_kb_path),
            "--model", str(sample_model_path),
            "--out-dir", str(tmp_path / "eval"),
        ]
    )
    assert rc == 2
    assert capsys.readouterr().err != ""


def test_report_command_reproduces_golden(tmp_path):
    out_dir = tmp_path / "report"
    rc = main(
        [
            "report",
            "--input", str(GOLDEN_DIR / "standard.csv"),
            "--out-dir", str(out_dir),
        ]
    )
    assert rc == 0
    for name in (
        "by_category.csv",
        "by_category_gender.csv",
        "by_category_agebin.csv",
        "by_month.csv",
        "summary.csv",
    ):
        assert (out_dir / name).read_bytes() == (
            GOLDEN_DIR / "report" / name
        ).read_bytes()


def test_pipeline_all_textual_dates(
    tmp_path, sample_kb_path, sample_model_path, capsys
):
    raw = _write(
        tmp_path,
        "raw.csv",
        "Gender,Age,Diagnosis,Diagnosis Date\n"
        "F,20,Cystitis,5 years ago\n"
        "M,30,Hypertension,more than 10 years\n",
    )
    out_dir = tmp_path / "out"
    rc = main(
        [
            "pipeline",
            "--input", str(raw),
            "--kb", str(sample_kb_path),
            "--model", str(sample_model_path),
            "--out-dir", str(out_dir),
        ]
    )
    assert rc == 0
    standard_lines = (out_dir / "standard.csv").read_text().splitlines()
    assert len(standard_lines) == 1  # header only
    summary = (out_dir / "report" / "summary.csv").read_text().splitlines()
    assert "total_rows,0" in summary[2]


def test_pipeline_json_report_format(
    tmp_path, sample_kb_path, sample_model_path, sample_ehr_path
):
    out_dir = tmp_path / "out"
    rc = main(
        [
            "pipeline",
            "--input", str(sample_ehr_path),
            "--kb", str(sample_kb_path),
            "--model", str(sample_model_path),
            "--out-dir", str(out_dir),
            "--format", "json",
        ]
    )
    assert rc == 0
    document = json.loads((out_dir / "report" / "report.json").read_text())
    assert document["total_rows"] == 21
    assert document["na_rows"] == 5


def test_config_file_and_flag_override(tmp_path, sample_kb_path, sample_model_path):
    config = _write(
        tmp_path,
        "pipeline.cfg",
        f"kb_path = {sample_kb_path}\nmodel_path = {sample_model_path}\n"
        "score_threshold = 1.01\n",
    )
    normalized = _write(tmp_path, "n.csv", NORMALIZED_CSV)
    out = tmp_path / "s.csv"
    rc = main(
        [
            "link",
            "--input", str(normalized),
            "--output", str(out),
            "--config", str(config),
        ]
    )
    assert rc == 0
    assert all(line.endswith(",,,") for line in out.read_text().splitlines()[1:])

    # The flag overrides the config value.
    rc = main(
        [
            "link",
            "--input", str(normalized),
            "--output", str(out),
            "--config", str(config),
            "--score-threshold", "0",
        ]
    )
    assert rc == 0
    assert any(not line.endswith(",,,") for line in out.read_text().splitlines()[1:])


def test_bad_config_exits_1(tmp_path, capsys):
    config = _write(tmp_path, "bad.cfg", "no_such_key = 5\n")
    normalized = _write(tmp_path, "n.csv", NORMALIZED_CSV)
    rc = main(
        [
            "link",
            "--input", str(normalized),
            "--output", str(tmp_path / "s.csv"),
            "--config", str(config),
        ]
    )
    assert rc == 1
    assert "no_such_key" in capsys.readouterr().err


NOT_UTF8 = b"Gender,Age\n\xff\xfe\n"
MODEL_HEAD = "ehr2icd-tagger\t1\nfeatures\tv1\nepochs\t10\nseed\t13\n"
STANDARD_HEAD = (
    "Gender,Age,Diagnosis,Diagnosis Date,ICD_10 Code,ICD_10 Name,ICD_10 Category\n"
)
LINK = ["link", "--input", "{norm}", "--output", "{out}/s.csv"]
TRAIN = ["train", "--model-out", "{out}/m.txt", "--corpus"]
EVALUATE = [
    "evaluate", "--corpus", "{corpus}", "--kb", "{kb}", "--model", "{model}",
    "--out-dir", "{out}",
]

# (command, contents of the file that replaces "{bad}", expected exit code)
MALFORMED_INPUTS = {
    "raw-export-normalize": (
        ["normalize", "--output", "{out}/n.csv", "--input"], NOT_UTF8, 2
    ),
    "raw-export-pipeline": (
        ["pipeline", "--kb", "{kb}", "--model", "{model}", "--out-dir", "{out}", "--input"],
        NOT_UTF8,
        2,
    ),
    "kb": ([*LINK, "--model", "{model}", "--kb"], NOT_UTF8, 2),
    "model": ([*LINK, "--kb", "{kb}", "--model"], NOT_UTF8, 2),
    "model-weight": (
        [*LINK, "--kb", "{kb}", "--model"], (MODEL_HEAD + "bias\tO\tx\n").encode(), 2
    ),
    "model-epochs": (
        [*LINK, "--kb", "{kb}", "--model"],
        MODEL_HEAD.replace("\t10", "\tten").encode(),
        2,
    ),
    "corpus": (TRAIN, NOT_UTF8, 2),
    "corpus-line-not-object": (TRAIN, b"1\n", 2),
    "corpus-entity-not-list": (TRAIN, b'{"content": "Cystitis", "entities": [5]}\n', 2),
    "corpus-lone-surrogate": (
        TRAIN,
        b'{"content": "\\ud800 Cystitis", "entities": [[2, 10]]}\n'
        b'{"content": "Cystitis", "entities": [[0, 8]]}\n'
        b'{"content": "a Cystitis", "entities": [[2, 10]]}\n',
        2,
    ),
    "annotations-no-content": (
        [*LINK, "--kb", "{kb}", "--annotations"],
        b'{"row_index": 1, "entities": []}\n',
        2,
    ),
    "annotations-short-entity": (
        [*LINK, "--kb", "{kb}", "--annotations"],
        b'{"row_index": 1, "content": "Tonsillitis", "entities": [[0]]}\n',
        2,
    ),
    "annotations-invalid-json": (
        [*LINK, "--kb", "{kb}", "--annotations"], b'{"row_index": 1,\n', 2
    ),
    "standard": (["report", "--out-dir", "{out}", "--input"], NOT_UTF8, 2),
    "standard-age-not-integer": (
        ["report", "--out-dir", "{out}", "--input"],
        (STANDARD_HEAD + "Female,x,Cystitis,9/4/1439,,,\n").encode(),
        2,
    ),
    "standard-age-zero": (
        ["report", "--out-dir", "{out}", "--input"],
        (STANDARD_HEAD + "Female,0,Cystitis,9/4/1439,,,\n").encode(),
        2,
    ),
    "stoplist": ([*EVALUATE, "--stoplist"], NOT_UTF8, 2),
    "extra-terms": ([*EVALUATE, "--extra-terms"], NOT_UTF8, 2),
    "config": ([*LINK, "--config"], NOT_UTF8, 1),
}


def _argv(template, bad, tmp_path):
    files = {
        "bad": bad,
        "out": tmp_path / "out",
        "norm": _write(tmp_path, "n.csv", NORMALIZED_CSV),
        "kb": sample_path("sample_kb.tsv"),
        "model": sample_path("sample_model.txt"),
        "corpus": sample_path("sample_corpus.jsonl"),
    }
    return [arg.format(**files) for arg in [*template, "{bad}"]]


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_input_exits_with_code_naming_file(case, tmp_path, capsys):
    template, contents, code = MALFORMED_INPUTS[case]
    bad = tmp_path / "bad_input"
    bad.write_bytes(contents)
    # An uncaught exception (a traceback) fails the test here.
    assert main(_argv(template, bad, tmp_path)) == code
    assert str(bad) in capsys.readouterr().err


MAIN_INPUT_COMMANDS = [
    ["normalize", "--output", "{out}/n.csv", "--input"],
    TRAIN,
    ["annotate", "--model", "{model}", "--output", "{out}/a.jsonl", "--input"],
    ["link", "--kb", "{kb}", "--model", "{model}", "--output", "{out}/s.csv", "--input"],
    ["evaluate", "--kb", "{kb}", "--model", "{model}", "--out-dir", "{out}", "--corpus"],
    ["report", "--out-dir", "{out}", "--input"],
    ["pipeline", "--kb", "{kb}", "--model", "{model}", "--out-dir", "{out}", "--input"],
]
# Valid starts of each input format, so that generated files get past the
# first line often enough to reach the later checks.
FORMAT_PREFIXES = [
    b"",
    b"Gender,Age,Diagnosis,Diagnosis Date\n",
    STANDARD_HEAD.encode(),
    b'{"content": "Cystitis", "entities": [',
    b'{"content": "Cystitis", "annotation": [',
]


@settings(max_examples=60, deadline=None)
@given(
    template=st.sampled_from(MAIN_INPUT_COMMANDS),
    prefix=st.sampled_from(FORMAT_PREFIXES),
    tail=st.one_of(st.binary(max_size=64), st.text(max_size=64).map(str.encode)),
)
def test_any_main_input_bytes_exit_0_1_or_2(tmp_path_factory, template, prefix, tail):
    tmp_path = tmp_path_factory.mktemp("any_bytes")
    bad = tmp_path / "input"
    bad.write_bytes(prefix + tail)
    assert main(_argv(template, bad, tmp_path)) in (0, 1, 2)
