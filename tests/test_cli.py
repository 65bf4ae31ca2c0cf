import csv
import errno
import gc
import inspect
import io
import json
import os
import shlex
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from conftest import DATA_DIR, GOLDEN_DIR, count_parses, feeding_fifo
from hypothesis import given, settings, strategies as st

from ehr2icd import cli
from ehr2icd.cli import main
from ehr2icd.config import PipelineConfig, load_config
from ehr2icd.errors import ConfigError
from ehr2icd.ner import AnnotatedExample, EntitySpan, train_tagger
from ehr2icd.ner.corpus import write_internal
from ehr2icd.samples import sample_path
from ehr2icd.standard import read_standard_csv

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


SRC = str(Path(cli.__file__).resolve().parents[1])


def _child_env(**extra) -> dict:
    """The environment of a child interpreter that imports this checkout."""
    pythonpath = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": pythonpath, **extra}


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


def test_normalize_drops_an_age_or_date_too_long_for_int(tmp_path, capsys):
    digits = "9" * 5000
    raw = _write(
        tmp_path,
        "raw.csv",
        "Gender,Age,Diagnosis,Diagnosis Date\n"
        f"F,{digits},Cystitis,9/4/1439\n"
        f"M,{digits} years,Cystitis,9/4/1439\n"
        f"F,30,Cystitis,{digits}/2/2020\n"
        f"M,30,Cystitis,9/{digits}/2020\n"
        "F,30,Cystitis,9/4/1439\n",
    )
    out = tmp_path / "normalized.csv"
    assert main(["normalize", "--input", str(raw), "--output", str(out)]) == 0
    assert out.read_text().splitlines()[1:] == ["Female,30,Cystitis,9/4/1439"]
    err = capsys.readouterr().err
    assert "kept 1 rows, dropped 4 (missing=0, gender=0, age=2, date=2)" in err


def test_normalize_drops_a_day_or_month_out_of_range(tmp_path, capsys):
    raw = _write(
        tmp_path,
        "raw.csv",
        "Gender,Age,Diagnosis,Diagnosis Date\n"
        "F,30,Cystitis,45/13/2020\n"
        "M,30,Cystitis,32/1/2020\n"
        "F,30,Cystitis,9/13/1439\n"
        "M,30,Cystitis,31/12/1439\n",
    )
    out = tmp_path / "normalized.csv"
    assert main(["normalize", "--input", str(raw), "--output", str(out)]) == 0
    assert out.read_text().splitlines()[1:] == ["Male,30,Cystitis,31/12/1439"]
    err = capsys.readouterr().err
    assert "kept 1 rows, dropped 3 (missing=0, gender=0, age=0, date=3)" in err


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


@pytest.mark.parametrize(
    "header,row",
    [
        ("Gender,Age,Diagnosis,Diagnosis Date,Note,Note", "M,30,Asthma,1/2/1440,first,second"),
        ("Gender,Age,Diagnosis,Diagnosis Date,Gender", "M,30,Asthma,1/2/1440,F"),
    ],
    ids=["extra-column", "standard-column"],
)
def test_normalize_rejects_a_column_named_twice(tmp_path, capsys, header, row):
    # Cells under one name cannot be told apart: the second "Note" would
    # overwrite the first, and the second "Gender" would be written back as
    # the first one's value.
    raw = _write(tmp_path, "raw.csv", f"{header}\n{row}\n")
    out = tmp_path / "normalized.csv"
    assert main(["normalize", "--input", str(raw), "--output", str(out)]) == 2
    assert f"{raw}: row 1: column " in capsys.readouterr().err
    assert not out.exists()


def test_normalize_reproduces_extra_columns_byte_for_byte(tmp_path):
    # Rows already in canonical form come back unchanged, extra cells
    # included: quoted commas and quotes, blanks, non-ASCII text, and extra
    # columns before, between and after the standard ones.
    text = (
        'Clinic,Gender,Age,Note,Diagnosis,Diagnosis Date,Ward\n'
        '"North, annex",Female,56,"said ""twice""",Tonsillitis,8/4/1439,\n'
        'South,Male,22,,Hypertension,14/5/1439,ß-2\n'
        ',Female,19,x,Arthritis,6/4/1439,"line\nbreak"\n'
    )
    raw = tmp_path / "raw.csv"
    raw.write_bytes(text.encode())
    out = tmp_path / "normalized.csv"
    assert main(["normalize", "--input", str(raw), "--output", str(out)]) == 0
    assert out.read_bytes() == raw.read_bytes()


@pytest.mark.parametrize(
    "source, golden, histogram",
    [
        (
            sample_path("sample_ehr.csv"),
            "sample_ehr_normalized.csv",
            "kept 19 rows, dropped 1 (missing=0, gender=0, age=0, date=1)",
        ),
        # Extra columns before, between and after the standard ones, with
        # quoted, blank, multi-line and non-ASCII cells, a CRLF row, and rows
        # dropped for each reason.
        (
            DATA_DIR / "extra_columns_ehr.csv",
            "extra_columns_normalized.csv",
            "kept 6 rows, dropped 5 (missing=2, gender=1, age=1, date=1)",
        ),
    ],
    ids=["sample", "extra-columns"],
)
def test_normalize_matches_its_golden(tmp_path, capsys, source, golden, histogram):
    out = tmp_path / "normalized.csv"
    assert main(["normalize", "--input", str(source), "--output", str(out)]) == 0
    assert out.read_bytes() == (DATA_DIR / golden).read_bytes()
    assert f"normalize: {histogram}" in capsys.readouterr().err


def test_a_bare_cr_in_a_diagnosis_survives_every_round_trip(
    tmp_path, sample_kb_path, sample_model_path
):
    # csv.writer with lineterminator="\n" left a lone CR unquoted, so the
    # next reader ended the row there: report and link exited 2.
    text = "Asthma\rDiabetes mellitus type 1"
    raw = tmp_path / "raw.csv"
    raw.write_bytes(
        f'Gender,Age,Diagnosis,Diagnosis Date\nF,20,"{text}",9/4/1439\nM,30,Cystitis,1/2/1440\n'
        .encode()
    )
    model = ["--kb", str(sample_kb_path), "--model", str(sample_model_path)]
    out_dir = tmp_path / "out"
    assert main(["pipeline", "--input", str(raw), "--out-dir", str(out_dir), *model]) == 0
    standard = out_dir / "standard.csv"
    assert main(["report", "--input", str(standard), "--out-dir", str(tmp_path / "report")]) == 0
    for name in os.listdir(out_dir / "report"):
        assert (tmp_path / "report" / name).read_bytes() == (out_dir / "report" / name).read_bytes()
    rows = read_standard_csv(standard)
    assert [row.diagnosis_text for row in rows] == [text, text, "Cystitis"]

    normalized = tmp_path / "normalized.csv"
    assert main(["normalize", "--input", str(raw), "--output", str(normalized)]) == 0
    annotations = tmp_path / "spans.jsonl"
    argv = ["--input", str(normalized)]
    annotate = ["annotate", *argv, "--model", str(sample_model_path)]
    assert main([*annotate, "--output", str(annotations)]) == 0
    linked = tmp_path / "linked.csv"
    assert main(["link", *argv, *model, "--output", str(linked)]) == 0
    assert linked.read_bytes() == standard.read_bytes()
    via_annotations = tmp_path / "via_annotations.csv"
    link = ["link", *argv, "--kb", str(sample_kb_path), "--annotations", str(annotations)]
    assert main([*link, "--output", str(via_annotations)]) == 0
    assert via_annotations.read_bytes() == standard.read_bytes()


def test_usage_error_exits_1(tmp_path, capsys):
    assert main(["normalize", "--no-such-flag"]) == 1
    assert capsys.readouterr().err != ""


def test_unknown_command_exits_1(capsys):
    assert main(["frobnicate"]) == 1
    assert capsys.readouterr().err != ""


# Each command's required options, with placeholder values: the parser
# rejects what follows them before any file is opened.
REQUIRED_OPTIONS = {
    "normalize": ["--input", "in.csv", "--output", "out.csv"],
    "train": ["--corpus", "corpus.jsonl", "--model-out", "out.model"],
    "annotate": ["--input", "in.csv", "--model", "in.model", "--output", "out.jsonl"],
    "link": ["--input", "in.csv", "--output", "out.csv"],
    "evaluate": ["--corpus", "corpus.jsonl", "--out-dir", "out"],
    "report": ["--input", "in.csv", "--out-dir", "out"],
    "pipeline": ["--input", "in.csv", "--out-dir", "out"],
}
HELP_CASES = {
    "help": ["--help"],
    "version": ["--version"],
    "no-command": [],
    "unknown-command": ["frobnicate"],
    "option-before-command": ["--bogus", "report", *REQUIRED_OPTIONS["report"]],
    "bad-choice": ["report", *REQUIRED_OPTIONS["report"], "--format", "xml"],
    "bad-type": ["train", *REQUIRED_OPTIONS["train"], "--epochs", "ten"],
    **{f"{command}-help": [command, "--help"] for command in REQUIRED_OPTIONS},
    **{
        f"{command}-unknown-option": [command, *options, "--bogus"]
        for command, options in REQUIRED_OPTIONS.items()
    },
    **{f"{command}-missing-option": [command] for command in REQUIRED_OPTIONS},
}


def _help_transcript(argv, capsys) -> str:
    """The exit code, standard output and standard error of ``main(argv)``."""
    try:
        code = main(argv)
    except SystemExit as exc:  # --help and --version
        code = exc.code
    out, err = capsys.readouterr()
    return f"exit: {code}\n--- stdout\n{out}--- stderr\n{err}"


def _options(parser) -> dict[str, list[str]]:
    """Each command's options, as its parser holds them."""
    [commands] = parser._subparsers._group_actions
    return {
        name: [flag for action in p._actions for flag in action.option_strings]
        for name, p in commands.choices.items()
    }


@pytest.mark.parametrize("command", [None, *REQUIRED_OPTIONS])
def test_the_parser_gives_arguments_to_the_named_command_only(command):
    argv = ["--version"] if command is None else ["--version", command, "--help"]
    options = _options(cli._build_parser(argv))
    assert list(options) == list(REQUIRED_OPTIONS)
    for name, flags in options.items():
        if name == command:
            assert set(REQUIRED_OPTIONS[name][::2]) < set(flags)
        else:
            assert flags == ["-h", "--help"]


@pytest.mark.parametrize("name", HELP_CASES)
def test_help_and_usage_match_their_goldens(name, monkeypatch, capsys):
    # Help text wraps at the terminal's width, which COLUMNS sets.
    monkeypatch.setenv("COLUMNS", "80")
    transcript = _help_transcript(HELP_CASES[name], capsys)
    assert transcript.encode() == (DATA_DIR / "help" / f"{name}.txt").read_bytes()


def _argparse_args(argv):
    """argparse's arguments for ``argv``, or None if it exits or rejects them."""
    try:
        with redirect_stdout(io.StringIO()):  # the text of --help and --version
            return cli._build_parser(argv).parse_args(argv)
    except (ConfigError, SystemExit):
        return None


def _comparable(args) -> dict:
    # By type and repr, so that a NaN equals a NaN and 1 does not equal 1.0.
    return {key: (type(value), repr(value)) for key, value in vars(args).items()}


def _assert_parses_as_argparse(argv, accepted: bool) -> None:
    """``cli._parse`` declines ``argv`` or gives argparse's arguments, and
    takes it if ``accepted``."""
    fast, expected = cli._parse(argv), _argparse_args(argv)
    if fast is not None:
        assert expected is not None, argv
        assert _comparable(fast) == _comparable(expected), argv
    assert fast is not None or not accepted, argv


def _usage_lines() -> list[list[str]]:
    """The ``ehr2icd`` command lines under the README's "CLI" heading."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## CLI\n")[1].split("\n## ")[0]
    lines = section.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("ehr2icd ")]


# The command lines of perfbench/bench.py's cli_job.
BENCH_LINES = [
    ["train", "--corpus", "in/corpus.jsonl", "--model-out", "out/model.txt"],
    [
        "evaluate", "--corpus", "in/heldout.jsonl", "--kb", "in/kb.tsv",
        "--model", "out/model.txt", "--out-dir", "out/evaluate",
    ],
    [
        "pipeline", "--input", "in/raw.csv", "--kb", "in/kb.tsv",
        "--model", "out/model.txt", "--out-dir", "out/pipeline",
    ],
]


def test_the_readme_shows_every_command():
    assert {argv[0] for argv in _usage_lines()} == set(cli._COMMANDS)


@pytest.mark.parametrize("argv", _usage_lines() + BENCH_LINES, ids=" ".join)
def test_plain_command_lines_take_the_fast_path(argv):
    _assert_parses_as_argparse(argv, accepted=True)


REQUIRED_REPORT = ["report", "--input", "a", "--out-dir", "b"]
REQUIRED_TRAIN = ["train", "--corpus", "c", "--model-out", "m"]
# Argument lists that only argparse parses, one for each reason the fast path
# declines, and the forms it leaves to argparse that argparse takes.
DECLINED = {
    "no-argv": [],
    "version": ["--version"],
    "option-first": ["--input", "a", *REQUIRED_REPORT],
    "unknown-command": ["frobnicate", "--input", "a"],
    "no-last-value": [*REQUIRED_REPORT, "--format"],
    "repeated": [*REQUIRED_REPORT, "--input", "c"],
    "repeated-bad-first": [*REQUIRED_TRAIN, "--epochs", "ten", "--epochs", "5"],
    "missing-required": ["report", "--input", "a"],
    "option-as-value": ["report", "--input", "-x", "--out-dir", "b"],
    "negative": [*REQUIRED_TRAIN, "--seed", "-1"],
    "dash": ["report", "--input", "-", "--out-dir", "b"],
    "bad-type": [*REQUIRED_TRAIN, "--epochs", "ten"],
    "bad-choice": [*REQUIRED_REPORT, "--format", "xml"],
    "unknown-option": [*REQUIRED_REPORT, "--bogus", "x"],
    "abbreviated": ["report", "--in", "a", "--out-dir", "b"],
    "equals": ["report", "--input=a", "--out-dir", "b", "--format", "json"],
    "help": [*REQUIRED_REPORT, "-h"],
}


@pytest.mark.parametrize("argv", DECLINED.values(), ids=DECLINED)
def test_the_fast_path_declines_what_only_argparse_parses(argv):
    assert cli._parse(argv) is None


def test_argparse_takes_the_forms_the_fast_path_declines():
    for name in ("repeated", "negative", "dash", "abbreviated", "equals"):
        assert _argparse_args(DECLINED[name]) is not None, name


# Option values by type: (taken by the fast path, left to argparse).
VALUES = {
    None: (
        ["", " ", "a b", "x=y", "٣", " 5", "5_0", "nan", "report", "in.csv"],
        ["-", "-1", "-x", "--input"],
    ),
    int: (["5", "٣", " 5", "5_0", "+7", "0"], ["ten", "", "5.0", "nan", "-1", "-"]),
    float: (["0.5", "nan", "٣", " 5", "5_0", "1e3", "inf"], ["x", "", "-1", "-0.5", "-"]),
    "choices": (["csv", "json"], ["xml", "", "CSV", "-"]),
}


@st.composite
def _command_lines(draw):
    """An argument list drawn from the option table, and whether the fast path
    must take it: every required option and some others, in any order, with
    valid values. A third are left so; a third have one value made invalid;
    a third are perturbed in one way."""
    name = draw(st.sampled_from(list(cli._COMMANDS)))
    options = cli._COMMANDS[name].options
    kind = draw(st.sampled_from(["plain", "invalid", "perturbed"]))
    invalid = None
    if kind == "invalid":  # an option with a type, with choices, or any option
        sort = draw(st.sampled_from(["type", "choices", None]))
        of_sort = [o for o in options if sort is None or getattr(o, sort) is not None]
        invalid = draw(st.sampled_from(of_sort or options))
    chosen = draw(st.lists(st.sampled_from(options), unique=True))
    chosen += [o for o in options if (o.required or o == invalid) and o not in chosen]
    chosen = draw(st.permutations(chosen))
    pairs = []
    for option in chosen:
        good, bad = VALUES["choices" if option.choices else option.type]
        values = st.sampled_from(bad if option == invalid else good)
        if option != invalid and option.type is None and option.choices is None:
            free = st.text(max_size=8).filter(lambda v: not v.startswith("-"))
            values = st.one_of(values, free)
        pairs.append([option.flag, draw(values)])
    perturbations = [
        "abbreviate", "equals", "repeat", "unknown", "help", "no-value", "no-required",
        "option-first",
    ]
    perturbation = draw(st.sampled_from(perturbations)) if kind == "perturbed" else None
    at = draw(st.integers(0, len(pairs) - 1))
    if perturbation == "abbreviate":
        flag = pairs[at][0]
        pairs[at][0] = flag[: draw(st.integers(3, len(flag) - 1))]
    elif perturbation == "equals":
        pairs[at] = ["=".join(pairs[at])]
    elif perturbation == "repeat":  # first with any value, valid or not
        flag = pairs[at][0]
        pairs.insert(at, [flag, draw(st.sampled_from(["5", "ten", "json", "xml", "-x"]))])
    elif perturbation == "unknown":
        pairs.insert(at, ["--bogus", "x"])
    elif perturbation == "help":
        pairs.insert(at, [draw(st.sampled_from(["-h", "--help"]))])
    elif perturbation == "no-value":
        pairs[-1].pop()
    elif perturbation == "no-required":
        pairs = [pair for pair in pairs if pair[0] != options[0].flag]  # always required
    argv = [name, *(item for pair in pairs for item in pair)]
    if perturbation == "option-first":
        argv = [*argv[1:3], name, *argv[3:]]
    return argv, kind == "plain"


@settings(max_examples=300, deadline=None)
@given(_command_lines())
def test_the_fast_path_gives_argparses_arguments_or_declines(case):
    argv, accepted = case
    _assert_parses_as_argparse(argv, accepted)


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


def _misaligned_corpus() -> str:
    """A corpus whose eighth example, on line 9 (after a blank line), has a
    span that cuts a token; in the shuffled training split it is another
    example number."""
    good = [{"content": f"Cystitis case {i}", "entities": [[0, 8]]} for i in range(11)]
    bad = {"content": "fever and cough", "entities": [[1, 5]]}
    lines = [json.dumps(record) for record in good[:3]] + [""]
    lines += [json.dumps(record) for record in good[3:7]] + [json.dumps(bad)]
    lines += [json.dumps(record) for record in good[7:]]
    return "\n".join(lines) + "\n"


def test_train_names_file_line_of_misaligned_span(tmp_path, capsys):
    corpus = _write(tmp_path, "c.jsonl", _misaligned_corpus())
    model = tmp_path / "m.model"
    assert main(["train", "--corpus", str(corpus), "--model-out", str(model)]) == 2
    err = capsys.readouterr().err
    assert err == (
        f"error: {corpus}: row 9: span (1, 5) 'ever' does not align with token boundaries\n"
    )
    assert not model.exists()


def test_train_names_the_position_of_a_misaligned_span_read_from_a_pipe(tmp_path):
    # A pipe can be read only once: the line comes from that one read.
    argv = ["train", "--corpus", "/dev/stdin", "--model-out", "m.model"]
    proc = _run_in(tmp_path, argv, _misaligned_corpus().encode())
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr == (
        b"error: /dev/stdin: row 9: span (1, 5) 'ever' does not align with "
        b"token boundaries\n"
    )
    assert list(tmp_path.iterdir()) == []


def test_train_under_optimize_flag_writes_bundled_model(
    tmp_path, sample_corpus_path, sample_model_path
):
    # The real CLI in a fresh interpreter with asserts stripped (-O) trains the
    # bundled model byte for byte: no invariant of training rests on assert.
    model = tmp_path / "m.model"
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "ehr2icd.cli", "train",
         "--corpus", str(sample_corpus_path), "--model-out", str(model)],
        env=_child_env(),
        capture_output=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert model.read_bytes() == sample_model_path.read_bytes()


def test_train_defaults_are_the_configs(capsys):
    # train --help and train_tagger state no default of their own: each is
    # PipelineConfig's.
    defaults = PipelineConfig()
    with pytest.raises(SystemExit) as exit_:
        main(["train", "--help"])
    assert exit_.value.code == 0
    shown = " ".join(capsys.readouterr().out.split())
    assert f"--seed SEED shuffle seed (default {defaults.seed})" in shown
    assert f"--epochs EPOCHS training epochs (default {defaults.epochs})" in shown
    assert (
        "--train-fraction TRAIN_FRACTION train split fraction "
        f"(default {defaults.train_fraction})" in shown
    )
    parameters = inspect.signature(train_tagger).parameters
    assert parameters["epochs"].default == defaults.epochs
    assert parameters["seed"].default == defaults.seed


def test_train_on_too_small_corpus_names_the_empty_split(tmp_path, capsys):
    one_line = '{"content": "Cystitis", "entities": [[0, 8]]}\n'
    corpus = _write(tmp_path, "corpus.jsonl", one_line)
    model = tmp_path / "m.model"
    assert main(["train", "--corpus", str(corpus), "--model-out", str(model)]) == 2
    assert capsys.readouterr().err == (
        f"error: {corpus}: training split is empty: train_fraction 0.7 of 1 example(s) "
        "leaves none to train on\n"
    )
    assert not model.exists()


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


def test_link_rejects_annotations_of_other_text(
    tmp_path, capsys, sample_ehr_path, sample_kb_path, sample_model_path
):
    annotations = tmp_path / "spans.jsonl"
    rc = main(
        [
            "annotate",
            "--input", str(sample_ehr_path),
            "--model", str(sample_model_path),
            "--output", str(annotations),
        ]
    )
    assert rc == 0
    # Row 4 reads "Cystitis" in the annotated input; its span must not be
    # linked against another text.
    edited = sample_ehr_path.read_text().replace(
        "F,18,Cystitis,", "F,18,Asthma and migraine sititsyC,"
    )
    changed = _write(tmp_path, "changed.csv", edited)
    out = tmp_path / "standard.csv"
    capsys.readouterr()
    rc = main(
        [
            "link",
            "--input", str(changed),
            "--annotations", str(annotations),
            "--kb", str(sample_kb_path),
            "--output", str(out),
        ]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert str(annotations) in err and "rows [4]" in err
    assert not out.exists()


def test_link_rejects_a_repeated_annotation_row(tmp_path, capsys, sample_kb_path):
    normalized = _write(
        tmp_path, "n.csv", "Gender,Age,Diagnosis,Diagnosis Date\nFemale,20,Cystitis,9/4/1439\n"
    )
    annotations = _write(
        tmp_path,
        "spans.jsonl",
        '{"row_index": 1, "content": "Cystitis", "entities": []}\n'
        '{"row_index": 1, "content": "Cystitis", "entities": [[0, 8, "Disease"]]}\n',
    )
    out = tmp_path / "standard.csv"
    rc = main(
        [
            "link",
            "--input", str(normalized),
            "--annotations", str(annotations),
            "--kb", str(sample_kb_path),
            "--output", str(out),
        ]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{annotations}: row 2:" in err and "row_index 1" in err
    assert not out.exists()


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


def test_evaluate_builds_no_jaccard_index(
    tmp_path, capsys, monkeypatch, private_cache_home, sample_kb_path, sample_model_path,
    sample_corpus_path,
):
    def run(out_dir):
        rc = main(
            [
                "evaluate",
                "--corpus", str(sample_corpus_path),
                "--kb", str(sample_kb_path),
                "--model", str(sample_model_path),
                "--out-dir", str(out_dir),
            ]
        )
        return rc, capsys.readouterr().out, (out_dir / "summary.json").read_bytes()

    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "other_cache"))
    expected = run(tmp_path / "plain")

    def no_index(entries):
        raise AssertionError("evaluate compiled the Jaccard index")

    monkeypatch.setattr("ehr2icd.linker.build_index", no_index)
    monkeypatch.setenv("XDG_CACHE_HOME", str(private_cache_home))
    for run_kind in ("miss", "hit"):
        assert run(tmp_path / run_kind) == expected, run_kind
    assert expected[0] == 0


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
    assert capsys.readouterr().err == f"error: {empty}: contains no examples\n"


def test_failed_evaluate_keeps_previous_outcome_files(
    tmp_path, capsys, sample_kb_path, sample_model_path, sample_corpus_path
):
    out_dir = tmp_path / "eval"
    partial = tmp_path / "part.jsonl"
    partial.write_text("".join(sample_corpus_path.read_text().splitlines(True)[:10]))

    def evaluate(corpus):
        return main(
            [
                "evaluate",
                "--corpus", str(corpus),
                "--kb", str(sample_kb_path),
                "--model", str(sample_model_path),
                "--out-dir", str(out_dir),
            ]
        )

    assert evaluate(partial) == 0
    names = ["outcomes_dictionary.csv", "outcomes_tagger.csv"]
    previous = [(out_dir / name).read_bytes() for name in names]
    (out_dir / "summary.json").unlink()
    (out_dir / "summary.json").mkdir()
    assert evaluate(sample_corpus_path) == 2
    assert [(out_dir / name).read_bytes() for name in names] == previous
    assert sorted(os.listdir(out_dir)) == names + ["summary.json"]


def test_a_bare_cr_in_a_corpus_text_stays_in_its_outcome_row(
    tmp_path, capsys, sample_kb_path, sample_model_path
):
    texts = ["Patient has Asthma\rand Cystitis", "Cystitis"]
    corpus = _write(
        tmp_path,
        "corpus.jsonl",
        json.dumps({"content": texts[0], "entities": [[12, 18]]}) + "\n"
        + json.dumps({"content": texts[1], "entities": [[0, 8]]}) + "\n",
    )
    out_dir = tmp_path / "eval"
    argv = [
        "evaluate", "--corpus", str(corpus), "--kb", str(sample_kb_path),
        "--model", str(sample_model_path), "--out-dir", str(out_dir),
    ]
    assert main(argv) == 0
    for name in ("outcomes_tagger.csv", "outcomes_dictionary.csv"):
        with (out_dir / name).open(newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["record_id", "gold_text", "predicted", "classification"]
        assert [len(row) for row in rows] == [4, 4], name
        assert [row[:2] for row in rows] == [["1", texts[0]], ["2", texts[1]]], name


def test_a_bare_cr_in_a_standard_cell_stays_in_its_report_row(tmp_path):
    standard = _write(
        tmp_path,
        "standard.csv",
        "Gender,Age,Diagnosis,Diagnosis Date,ICD_10 Code,ICD_10 Name,ICD_10 Category\n"
        '"Fe\rmale",20,Cystitis,9/4/1439,N30.9,Cystitis,"N3\r0"\n',
    )
    out_dir = tmp_path / "report"
    assert main(["report", "--input", str(standard), "--out-dir", str(out_dir)]) == 0
    expected = {
        "by_category.csv": [["Category", "Count"], ["N3\r0", "1"]],
        "by_category_gender.csv": [["Category", "Gender", "Count"], ["N3\r0", "Fe\rmale", "1"]],
        "by_category_agebin.csv": [["Category", "AgeBin", "Count"], ["N3\r0", "10-29", "1"]],
    }
    for name, rows in expected.items():
        with (out_dir / name).open(newline="", encoding="utf-8") as fh:
            assert list(csv.reader(fh)) == rows, name


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


def test_json_report_matches_its_golden(
    tmp_path, sample_kb_path, sample_model_path, sample_ehr_path
):
    argv = _pipeline_argv(tmp_path / "out", sample_ehr_path, sample_kb_path, sample_model_path)
    assert main([*argv, "--format", "json"]) == 0
    golden = (DATA_DIR / "report.json").read_bytes()
    assert (tmp_path / "out" / "report" / "report.json").read_bytes() == golden
    # The report command writes the same document from the standard file.
    standard = str(GOLDEN_DIR / "standard.csv")
    argv = ["report", "--input", standard, "--out-dir", str(tmp_path / "r"), "--format", "json"]
    assert main(argv) == 0
    assert (tmp_path / "r" / "report.json").read_bytes() == golden


def _assert_golden(out_dir):
    produced = sorted(p.relative_to(out_dir) for p in out_dir.rglob("*") if p.is_file())
    expected = sorted(p.relative_to(GOLDEN_DIR) for p in GOLDEN_DIR.rglob("*") if p.is_file())
    assert produced == expected
    for name in expected:
        assert (out_dir / name).read_bytes() == (GOLDEN_DIR / name).read_bytes(), name


def _pipeline_argv(out_dir, sample_ehr_path, sample_kb_path, sample_model_path):
    return [
        "pipeline",
        "--input", str(sample_ehr_path),
        "--kb", str(sample_kb_path),
        "--model", str(sample_model_path),
        "--out-dir", str(out_dir),
    ]


def _evaluate_argv(out_dir, kb_path):
    return [
        "evaluate",
        "--corpus", str(sample_path("sample_corpus.jsonl")),
        "--kb", str(kb_path),
        "--model", str(sample_path("sample_model.txt")),
        "--out-dir", str(out_dir),
    ]


def test_pipeline_reads_the_kb_image_on_a_second_run(
    tmp_path, monkeypatch, private_cache_home, sample_ehr_path, sample_kb_path,
    sample_model_path,
):
    parses = count_parses(monkeypatch)
    for run in ("miss", "hit"):
        argv = _pipeline_argv(tmp_path / run, sample_ehr_path, sample_kb_path, sample_model_path)
        assert main(argv) == 0
        _assert_golden(tmp_path / run)
        assert len(parses) == 1, run
    assert len(list((private_cache_home / "ehr2icd").iterdir())) == 1


def test_pipeline_with_an_unwritable_cache_writes_the_golden_outputs(
    tmp_path, sample_ehr_path, sample_kb_path, sample_model_path
):
    not_a_directory = tmp_path / "cache"
    not_a_directory.write_text("a regular file\n")
    env = _child_env(XDG_CACHE_HOME=str(not_a_directory))
    for run in ("first", "second"):
        argv = _pipeline_argv(tmp_path / run, sample_ehr_path, sample_kb_path, sample_model_path)
        proc = subprocess.run(
            [sys.executable, "-m", "ehr2icd.cli", *argv],
            env=env,
            capture_output=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        assert b"Traceback" not in proc.stderr
        _assert_golden(tmp_path / run)
    assert not_a_directory.read_text() == "a regular file\n"


@pytest.mark.parametrize("command", ["evaluate", "--version"])
def test_a_closed_stdout_exits_2_with_one_error_line(tmp_path, command, sample_kb_path):
    # Without PYTHONUNBUFFERED, standard output to a pipe is buffered until
    # the command ends; a reader that has gone is reported as a data error,
    # not by the interpreter's own flush at exit (exit 120).
    argv = _evaluate_argv(tmp_path / "out", sample_kb_path) if command == "evaluate" else [command]
    env = _child_env()
    env.pop("PYTHONUNBUFFERED", None)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ehr2icd.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr.decode()) == (2, "error: [Errno 32] Broken pipe\n")


def test_a_stdout_closed_at_start_is_no_error(tmp_path, sample_kb_path):
    # Started with fd 1 closed, the interpreter sets sys.stdout to None and
    # print() writes nothing; there is nothing to flush either.
    argv = _evaluate_argv(tmp_path / "out", sample_kb_path)
    proc = subprocess.run(
        ["sh", "-c", 'exec "$0" -m ehr2icd.cli "$@" >&-', sys.executable, *argv],
        env=_child_env(),
        capture_output=True,
        timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert (tmp_path / "out" / "summary.json").is_file()


# Runs the CLI as the program, with sys.argv set, and prints the exit code,
# the collector's state after main() and the generation of every collection
# that ran during the command.
AS_PROGRAM = """
import gc, json, sys
from ehr2icd.cli import main
sys.argv = ["ehr2icd", *sys.argv[1:]]
starts = []
gc.callbacks.append(lambda phase, info: phase == "start" and starts.append(info["generation"]))
code = main()
del gc.callbacks[-1]
print(json.dumps([code, gc.isenabled(), gc.get_freeze_count(), starts]))
"""


def test_the_program_collects_nothing_during_a_command_and_freezes_at_the_end(
    tmp_path, sample_ehr_path, sample_kb_path, sample_model_path
):
    argv = _pipeline_argv(tmp_path / "out", sample_ehr_path, sample_kb_path, sample_model_path)
    proc = subprocess.run(
        [sys.executable, "-c", AS_PROGRAM, *argv],
        env=_child_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    code, enabled, frozen, starts = json.loads(proc.stdout)
    assert (code, enabled, starts) == (0, True, [])
    assert frozen > 0
    _assert_golden(tmp_path / "out")


# Runs the module as __main__ in a namespace that no module owns, as
# launchers built on runpy do; the caller's module stays __main__.
RUN_MODULE = "import runpy; runpy.run_module('ehr2icd.cli', run_name='__main__')"


@pytest.mark.parametrize(
    "command", ["normalize", "pipeline", "evaluate", "missing-input", "usage", "--version"]
)
def test_run_module_as_main_runs_as_python_dash_m_does(
    tmp_path, command, sample_ehr_path, sample_kb_path, sample_model_path, sample_corpus_path
):
    model = ["--kb", str(sample_kb_path), "--model", str(sample_model_path)]
    argv = {
        "normalize": ["normalize", "--input", str(sample_ehr_path), "--output", "n.csv"],
        "pipeline": ["pipeline", "--input", str(sample_ehr_path), "--out-dir", "out", *model],
        "evaluate": ["evaluate", "--corpus", str(sample_corpus_path), "--out-dir", "ev", *model],
        "missing-input": ["normalize", "--input", "missing.csv", "--output", "n.csv"],
        "usage": ["frobnicate"],
        "--version": ["--version"],
    }[command]
    runs = {}
    for way, launcher in (("m", ["-m", "ehr2icd.cli"]), ("runpy", ["-c", RUN_MODULE])):
        cwd = tmp_path / way
        cwd.mkdir()
        proc = subprocess.run(
            [sys.executable, *launcher, *argv],
            cwd=cwd,
            env=_child_env(),
            capture_output=True,
            timeout=60,
        )
        files = {
            path.relative_to(cwd).as_posix(): path.read_bytes()
            for path in sorted(cwd.rglob("*"))
            if path.is_file()
        }
        runs[way] = (proc.returncode, proc.stdout, proc.stderr, files)
    assert runs["runpy"] == runs["m"]
    code, _, stderr, files = runs["m"]
    assert code == {"missing-input": 2, "usage": 1}.get(command, 0), stderr
    assert b"Traceback" not in stderr
    assert bool(files) == (command in ("normalize", "pipeline", "evaluate"))


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_a_library_call_leaves_the_collector_as_it_was(tmp_path, enabled):
    raw = _write(tmp_path, "raw.csv", RAW_CSV)
    was_enabled = gc.isenabled()
    frozen = gc.get_freeze_count()
    (gc.enable if enabled else gc.disable)()
    try:
        assert main(["normalize", "--input", str(raw), "--output", str(tmp_path / "n.csv")]) == 0
        assert main(["normalize", "--no-such-flag"]) == 1
        assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)
    finally:
        (gc.enable if was_enabled else gc.disable)()


# Runs one command with the collector off and prints the exit code and the
# number of unreachable objects it left.
CYCLIC_GARBAGE = """
import gc, json, sys
from ehr2icd.cli import main
gc.disable()
gc.collect()
code = main(sys.argv[1:])
print(json.dumps([code, gc.collect()]))
"""


@pytest.mark.parametrize("command", ["pipeline", "train", "evaluate"])
def test_a_command_leaves_as_much_cyclic_garbage_on_ten_times_its_input(
    tmp_path, command, sample_ehr_path, sample_corpus_path, sample_kb_path, sample_model_path
):
    # The program runs each command with the collector off (see the cli
    # docstring). That holds memory flat only while no row, example or text
    # makes a reference cycle, so the garbage left must not grow with input.
    def repeated(path, times, header):
        lines = path.read_text().splitlines(keepends=True)
        head, body = (lines[:1], lines[1:]) if header else ([], lines)
        out = tmp_path / f"{times}x_{path.name}"
        out.write_text("".join(head + body * times))
        return str(out)

    garbage = []
    for times in (1, 10):
        run = tmp_path / f"run{times}"
        argv = {
            "pipeline": _pipeline_argv(
                run, repeated(sample_ehr_path, times, True), sample_kb_path, sample_model_path
            ),
            "train": [
                "train", "--corpus", repeated(sample_corpus_path, times, False),
                "--model-out", str(run / "model.txt"), "--epochs", "2",
            ],
            "evaluate": [
                "evaluate", "--corpus", repeated(sample_corpus_path, times, False),
                "--kb", str(sample_kb_path), "--model", str(sample_model_path),
                "--out-dir", str(run),
            ],
        }[command]
        run.mkdir()
        proc = subprocess.run(
            [sys.executable, "-c", CYCLIC_GARBAGE, *argv],
            # Each run misses the KB image cache, so both take the same path.
            env=_child_env(XDG_CACHE_HOME=str(run / "cache")),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        code, unreachable = json.loads(proc.stdout.splitlines()[-1])
        assert code == 0, proc.stderr
        garbage.append(unreachable)
    assert garbage[0] == garbage[1]


EVALUATE_OUTPUTS = ("outcomes_tagger.csv", "outcomes_dictionary.csv", "summary.json")


def _evaluate(capsys, out_dir, kb_path):
    """Stdout and the output files' bytes of ``evaluate`` on the bundled samples."""
    capsys.readouterr()
    assert main(_evaluate_argv(out_dir, kb_path)) == 0
    return capsys.readouterr().out, [(out_dir / name).read_bytes() for name in EVALUATE_OUTPUTS]


def test_evaluate_reads_the_lexicon_image_on_a_second_run(
    tmp_path, capsys, monkeypatch, private_cache_home, sample_kb_path
):
    not_a_directory = tmp_path / "cache"
    not_a_directory.write_text("a regular file\n")
    monkeypatch.setenv("XDG_CACHE_HOME", str(not_a_directory))
    expected = _evaluate(capsys, tmp_path / "uncached", sample_kb_path)
    monkeypatch.setenv("XDG_CACHE_HOME", str(private_cache_home))
    parses = count_parses(monkeypatch)
    for run in ("miss", "hit"):
        assert _evaluate(capsys, tmp_path / run, sample_kb_path) == expected, run
        assert len(parses) == 1, run
    images = list((private_cache_home / "ehr2icd").iterdir())
    assert [image.suffix for image in images] == [".lexicon"]


def test_a_kb_read_from_a_pipe_is_never_cached(
    tmp_path, capsys, monkeypatch, private_cache_home, sample_ehr_path, sample_kb_path,
    sample_model_path,
):
    # As with --kb <(cat kb.tsv), whose resolved name is new on every run.
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "other_cache"))
    expected = _evaluate(capsys, tmp_path / "regular", sample_kb_path)
    monkeypatch.setenv("XDG_CACHE_HOME", str(private_cache_home))
    fifo = tmp_path / "kb.fifo"
    os.mkfifo(fifo)
    kb_bytes = sample_kb_path.read_bytes()
    for run in ("first", "second"):
        out_dir = tmp_path / run
        with feeding_fifo(fifo, kb_bytes):
            argv = _pipeline_argv(out_dir / "pipeline", sample_ehr_path, fifo, sample_model_path)
            assert main(argv) == 0
        _assert_golden(out_dir / "pipeline")
        with feeding_fifo(fifo, kb_bytes):
            assert _evaluate(capsys, out_dir / "evaluate", fifo) == expected
    assert not (private_cache_home / "ehr2icd").exists()


def _run_in(cwd: Path, argv: list[str], stdin: bytes) -> subprocess.CompletedProcess:
    """The CLI run as the program in ``cwd``, with ``stdin`` fed through a pipe."""
    return subprocess.run(
        [sys.executable, "-m", "ehr2icd.cli", *argv],
        cwd=cwd,
        env=_child_env(),
        input=stdin,
        capture_output=True,
        timeout=60,
    )


def _piped_inputs(tmp_path) -> dict[str, Path]:
    norm = _write(tmp_path, "n.csv", NORMALIZED_CSV)
    annotations = _write(
        tmp_path,
        "a.jsonl",
        "".join(
            json.dumps({"row_index": row, "content": text, "entities": [[0, len(text)]]}) + "\n"
            for row, text in enumerate(("Tonsillitis", "Arthritis", "Hypertension"), start=1)
        ),
    )
    return {
        "raw": sample_path("sample_ehr.csv"),
        "norm": norm,
        "annotations": annotations,
        "standard": GOLDEN_DIR / "standard.csv",
        "corpus": sample_path("sample_corpus.jsonl"),
        "kb": sample_path("sample_kb.tsv"),
        "model": sample_path("sample_model.txt"),
        "stoplist": sample_path("stoplist.txt"),
        "extra": sample_path("extra_terms.txt"),
        "config": _write(tmp_path, "c.cfg", "epochs = 3\nscore_threshold = 0.3\n"),
    }


# Each command with every file it reads named by a placeholder; outputs are
# written under the run's working directory.
PIPED_COMMANDS = {
    "normalize": ["normalize", "--input", "{raw}", "--output", "n.csv"],
    "train": [
        "train", "--corpus", "{corpus}", "--stoplist", "{stoplist}", "--config", "{config}",
        "--model-out", "m.txt",
    ],
    "annotate": ["annotate", "--input", "{norm}", "--model", "{model}", "--output", "a.jsonl"],
    "link-annotations": [
        "link", "--input", "{norm}", "--kb", "{kb}", "--annotations", "{annotations}",
        "--config", "{config}", "--output", "s.csv",
    ],
    "link-model": [
        "link", "--input", "{norm}", "--kb", "{kb}", "--model", "{model}", "--output", "s.csv",
    ],
    "evaluate": [
        "evaluate", "--corpus", "{corpus}", "--kb", "{kb}", "--model", "{model}",
        "--stoplist", "{stoplist}", "--extra-terms", "{extra}", "--out-dir", "out",
    ],
    "report-csv": ["report", "--input", "{standard}", "--out-dir", "out"],
    "report-json": ["report", "--input", "{standard}", "--out-dir", "out", "--format", "json"],
    "pipeline": [
        "pipeline", "--input", "{raw}", "--kb", "{kb}", "--model", "{model}",
        "--config", "{config}", "--out-dir", "out",
    ],
}
PIPED_FILES = [
    (command, arg[1:-1])
    for command, argv in PIPED_COMMANDS.items()
    for arg in argv
    if arg.startswith("{")
]


def _piped_run(tmp_path, command: str, piped: str | None, way: str = "pipe"):
    """Exit code, standard output and error, and every file written, of
    ``command`` run with its files, the one named ``piped`` read from a pipe
    on /dev/stdin (``way`` "pipe") or from a copy that starts with a UTF-8
    byte order mark ("bom")."""
    run_dir = tmp_path / f"run-{piped}-{way}"
    run_dir.mkdir()
    inputs = _piped_inputs(tmp_path)
    stdin = b""
    if piped and way == "pipe":
        stdin = inputs[piped].read_bytes()
        inputs[piped] = "/dev/stdin"
    elif piped:
        copy = tmp_path / "bom" / inputs[piped].name
        copy.parent.mkdir(exist_ok=True)
        copy.write_bytes(b"\xef\xbb\xbf" + inputs[piped].read_bytes())
        inputs[piped] = copy
    argv = [arg.format(**inputs) for arg in PIPED_COMMANDS[command]]
    proc = _run_in(run_dir, argv, stdin)
    written = {
        str(path.relative_to(run_dir)): path.read_bytes()
        for path in sorted(run_dir.rglob("*"))
        if path.is_file()
    }
    return proc.returncode, proc.stdout, proc.stderr, written


@pytest.mark.parametrize("command, piped", PIPED_FILES, ids=map("-".join, PIPED_FILES))
def test_every_file_read_from_a_pipe_gives_the_same_bytes(tmp_path, command, piped):
    # Fed with subprocess input, /dev/stdin is a pipe that can be read only
    # once; a "< file" redirect would make it the regular file itself. A
    # leading byte order mark, as Excel's "CSV UTF-8" export writes, is
    # dropped from every file.
    expected = _piped_run(tmp_path, command, None)
    assert expected[0] == 0, expected[2]
    assert _piped_run(tmp_path, command, piped) == expected
    assert _piped_run(tmp_path, command, piped, "bom") == expected


def test_failed_pipeline_keeps_previous_output_set(
    tmp_path, capsys, sample_kb_path, sample_model_path, sample_ehr_path, sample_ehr_300_path
):
    out_dir = tmp_path / "out"

    def pipeline(raw):
        return main(
            [
                "pipeline",
                "--input", str(raw),
                "--kb", str(sample_kb_path),
                "--model", str(sample_model_path),
                "--out-dir", str(out_dir),
            ]
        )

    assert pipeline(sample_ehr_path) == 0
    previous = (out_dir / "standard.csv").read_bytes()
    shutil.rmtree(out_dir / "report")
    (out_dir / "report").write_text("not a directory\n")
    capsys.readouterr()
    assert pipeline(sample_ehr_300_path) == 2
    assert "report" in capsys.readouterr().err
    # The new standard file was written, but not put in place without its report.
    assert (out_dir / "standard.csv").read_bytes() == previous
    assert sorted(os.listdir(out_dir)) == ["report", "standard.csv"]


@pytest.mark.parametrize(
    "replace",
    [
        {tag: "nan" for tag in ("B-Disease", "I-Disease", "L-Disease", "O", "U-Disease")},
        {"O": "inf"},
        {"U-Disease": "-inf"},
    ],
    ids=["all-bias-nan", "bias-O-inf", "bias-U-minus-inf"],
)
def test_pipeline_rejects_non_finite_model_weight(
    replace, tmp_path, capsys, sample_kb_path, sample_model_path, sample_ehr_300_path
):
    # NaN or infinite scores would tag silently wrong spans and exit 0.
    lines = sample_model_path.read_text().splitlines(keepends=True)
    first_bad = None
    for index, line in enumerate(lines):
        feat, _, rest = line.partition("\t")
        tag = rest.partition("\t")[0]
        if feat == "bias" and tag in replace:
            lines[index] = f"bias\t{tag}\t{replace[tag]}\n"
            first_bad = index + 1 if first_bad is None else first_bad
    model = _write(tmp_path, "bad.model", "".join(lines))
    out_dir = tmp_path / "out"
    argv = [
        "pipeline",
        "--input", str(sample_ehr_300_path),
        "--kb", str(sample_kb_path),
        "--model", str(model),
        "--out-dir", str(out_dir),
    ]
    assert main(argv) == 2
    assert f"{model}: row {first_bad}: weight " in capsys.readouterr().err
    assert not (out_dir / "standard.csv").exists()
    assert not (out_dir / "report").exists()


@pytest.mark.parametrize(
    "header,line",
    [
        ("epochs\t10\nepochs\t-3\nseed\t13\n", 4),
        ("epochs\t-3\nseed\t13\n", 3),
    ],
    ids=["repeated-epochs", "negative-epochs"],
)
def test_pipeline_rejects_a_bad_model_header(
    header, line, tmp_path, capsys, sample_kb_path, sample_model_path, sample_ehr_300_path
):
    # Loaded, such a model would report epochs -3, and save_model would write it back.
    weights = sample_model_path.read_text().split("seed\t13\n", 1)[1]
    model = _write(tmp_path, "bad.model", "ehr2icd-tagger\t1\nfeatures\tv1\n" + header + weights)
    out_dir = tmp_path / "out"
    argv = [
        "pipeline",
        "--input", str(sample_ehr_300_path),
        "--kb", str(sample_kb_path),
        "--model", str(model),
        "--out-dir", str(out_dir),
    ]
    assert main(argv) == 2
    assert f"{model}: row {line}: " in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["pipeline", "link"])
def test_tagger_and_linker_called_once_per_normalized_record(
    command, tmp_path, monkeypatch, sample_kb_path, sample_model_path, sample_ehr_300_path
):
    # The benchmark's trace counts texts, spans and lookups from these calls,
    # so per-text caching must stay behind predict and lookup, not in the CLI.
    normalized = tmp_path / "normalized.csv"
    assert main(["normalize", "--input", str(sample_ehr_300_path), "--output", str(normalized)]) == 0
    with normalized.open(newline="") as fh:
        texts = [row["Diagnosis"] for row in csv.DictReader(fh)]
    assert len(set(texts)) < len(texts)  # repeated texts would hit a cache
    predicted, assigned = [], []

    def counted(calls, real, key):
        def wrapper(*args, **kwargs):
            calls.append(key(*args))
            return real(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(cli, "predict", counted(predicted, cli.predict, lambda m, t: t))
    monkeypatch.setattr(
        cli, "assign", counted(assigned, cli.assign, lambda r, *_: r.diagnosis_text)
    )
    common = ["--kb", str(sample_kb_path), "--model", str(sample_model_path)]
    if command == "pipeline":
        argv = ["pipeline", "--input", str(sample_ehr_300_path), "--out-dir", str(tmp_path / "o")]
    else:
        argv = ["link", "--input", str(normalized), "--output", str(tmp_path / "s.csv")]
    assert main(argv + common) == 0
    assert predicted == texts
    assert assigned == texts


def test_pipeline_counts_every_input_row_on_standard_error(
    tmp_path, capsys, sample_kb_path, sample_model_path
):
    raw = _write(tmp_path, "raw.csv", RAW_CSV)
    argv = _pipeline_argv(tmp_path / "out", raw, sample_kb_path, sample_model_path)
    assert main(argv) == 0
    assert "input_rows=4 normalized=3 dropped=1 (missing=0, gender=0, age=0, date=1)" in (
        capsys.readouterr().err
    )


def test_pipeline_checks_one_standard_row_per_span_or_record(
    tmp_path, monkeypatch, sample_ehr_path, sample_kb_path, sample_model_path
):
    # A broken assign that drops a record's rows is caught, not written.
    monkeypatch.setattr(cli, "assign", lambda record, spans, kb, threshold: [])
    argv = _pipeline_argv(tmp_path / "out", sample_ehr_path, sample_kb_path, sample_model_path)
    with pytest.raises(RuntimeError, match="row accounting violated: 0 standard rows"):
        main(argv)
    assert not (tmp_path / "out" / "standard.csv").exists()


def test_link_names_the_first_five_rows_without_annotations(tmp_path, capsys, sample_kb_path):
    rows = "".join(f"Female,{20 + i},Disease {i},8/4/1439\n" for i in range(7))
    normalized = _write(tmp_path, "n.csv", "Gender,Age,Diagnosis,Diagnosis Date\n" + rows)
    annotations = _write(
        tmp_path, "a.jsonl", '{"row_index": 1, "content": "Other", "entities": []}\n'
    )
    argv = [
        "link", "--input", str(normalized), "--kb", str(sample_kb_path),
        "--annotations", str(annotations), "--output", str(tmp_path / "s.csv"),
    ]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: {annotations}: no annotations of the input's Diagnosis for rows "
        "[1, 2, 3, 4, 5] (and possibly more)\n"
    )


def test_evaluate_writes_its_summary_indented_with_sorted_keys(tmp_path, sample_kb_path):
    assert main(_evaluate_argv(tmp_path, sample_kb_path)) == 0
    text = (tmp_path / "summary.json").read_text()
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
    assert text.startswith('{\n  "dictionary": {\n    "')


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


@pytest.mark.parametrize("source", ["flag", "config"])
def test_nan_score_threshold_exits_1(
    source, tmp_path, capsys, sample_kb_path, sample_model_path, sample_ehr_path
):
    argv = [
        "pipeline",
        "--input", str(sample_ehr_path),
        "--kb", str(sample_kb_path),
        "--model", str(sample_model_path),
        "--out-dir", str(tmp_path / "out"),
    ]
    if source == "flag":
        argv += ["--score-threshold", "nan"]
    else:
        argv += ["--config", str(_write(tmp_path, "nan.cfg", "score_threshold = nan\n"))]
    assert main(argv) == 1
    assert "score_threshold" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize("key, first, second", [("epochs", 10, 3), ("seed", 13, 7)])
def test_a_repeated_config_key_exits_1_and_writes_nothing(
    tmp_path, capsys, sample_corpus_path, key, first, second
):
    config = _write(
        tmp_path, "repeat.cfg", f"{key} = {first}\n# a comment\n\n{key} = {second}\n"
    )
    with pytest.raises(ConfigError, match=rf"repeat\.cfg: line 4: {key} repeats line 1"):
        load_config(config)
    model = tmp_path / "m.txt"
    argv = [
        "train", "--corpus", str(sample_corpus_path), "--model-out", str(model),
        "--config", str(config),
    ]
    assert main(argv) == 1
    assert f"{config}: line 4" in capsys.readouterr().err
    assert not model.exists()


def test_readme_config_block_loads_as_the_defaults(tmp_path):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Configuration", 1)[1]
    block = section.split("```\n", 2)[1]
    assert "epochs = 10" in block
    config = _write(tmp_path, "readme.cfg", block)
    assert load_config(config) == PipelineConfig()


NOT_UTF8 = b"Gender,Age\n\xff\xfe\n"
REPEATED_COLUMN = (
    b"Gender,Age,Diagnosis,Diagnosis Date,Note,Note\nM,30,Asthma,1/2/1440,first,second\n"
)
# One digit more than int() converts by default (sys.get_int_max_str_digits()).
LONG_NUMBER = b"9" * 4301
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
    "raw-export-repeated-column": (
        ["normalize", "--output", "{out}/n.csv", "--input"], REPEATED_COLUMN, 2
    ),
    "raw-export-missing-column": (
        ["pipeline", "--out-dir", "{out}", "--kb", "{kb}", "--model", "{model}", "--input"],
        b"Gender,Age,Diagnosis\nM,30,Asthma\n",
        2,
    ),
    "kb": ([*LINK, "--model", "{model}", "--kb"], NOT_UTF8, 2),
    "kb-duplicate-code": (
        ["pipeline", "--out-dir", "{out}", "--input", "{ehr}", "--model", "{model}", "--kb"],
        b"E10.9\tDiabetes\nE10.9\tDiabetes again\n",
        2,
    ),
    "kb-invalid-code": (
        ["pipeline", "--out-dir", "{out}", "--input", "{ehr}", "--model", "{model}", "--kb"],
        b"E10.9\tDiabetes\nNOPE\tBad code\n",
        2,
    ),
    "kb-four-columns": (
        ["pipeline", "--out-dir", "{out}", "--input", "{ehr}", "--model", "{model}", "--kb"],
        b"E10.9\tDiabetes\tSugar|DM\tan extra column\n",
        2,
    ),
    "kb-one-column": (
        ["pipeline", "--out-dir", "{out}", "--input", "{ehr}", "--model", "{model}", "--kb"],
        b"E10.9\tDiabetes\nE11.9\n",
        2,
    ),
    "model": ([*LINK, "--kb", "{kb}", "--model"], NOT_UTF8, 2),
    "model-features-v2": (
        ["pipeline", "--out-dir", "{out}", "--input", "{ehr}", "--kb", "{kb}", "--model"],
        MODEL_HEAD.replace("\tv1", "\tv2").encode(),
        2,
    ),
    "model-weight": (
        [*LINK, "--kb", "{kb}", "--model"], (MODEL_HEAD + "bias\tO\tx\n").encode(), 2
    ),
    "model-weight-nan": (
        [*LINK, "--kb", "{kb}", "--model"], (MODEL_HEAD + "bias\tO\tnan\n").encode(), 2
    ),
    "model-repeated-weight": (
        [*LINK, "--kb", "{kb}", "--model"],
        (MODEL_HEAD + "bias\tO\t1.0\nbias\tO\t2.0\n").encode(),
        2,
    ),
    "model-unknown-tag": (
        [*LINK, "--kb", "{kb}", "--model"],
        (MODEL_HEAD + "bias\tX-Disease\t1.0\n").encode(),
        2,
    ),
    "model-epochs": (
        [*LINK, "--kb", "{kb}", "--model"],
        MODEL_HEAD.replace("\t10", "\tten").encode(),
        2,
    ),
    "corpus": (TRAIN, NOT_UTF8, 2),
    "corpus-line-not-object": (TRAIN, b"1\n", 2),
    "corpus-entity-not-list": (TRAIN, b'{"content": "Cystitis", "entities": [5]}\n', 2),
    "corpus-entity-past-content": (
        TRAIN, b'{"content": "Cystitis", "entities": [[0, 15, "Disease"]]}\n', 2
    ),
    "corpus-entities-overlap": (
        TRAIN, b'{"content": "Colon cancer", "entities": [[0, 12], [6, 12]]}\n', 2
    ),
    "corpus-point-past-content": (
        TRAIN,
        b'{"content": "Cystitis", "metadata": {"status": "done"}, "annotation": '
        b'[{"label": ["Disease Name"], "points": [{"start": 0, "end": 20}]}]}\n',
        2,
    ),
    "corpus-long-number": (
        TRAIN, b'{"content": "Cystitis", "entities": [[0, %s]]}\n' % LONG_NUMBER, 2
    ),
    "corpus-long-number-evaluate": (
        ["evaluate", "--kb", "{kb}", "--model", "{model}", "--out-dir", "{out}", "--corpus"],
        b'{"content": "Cystitis", "entities": [[0, %s]]}\n' % LONG_NUMBER,
        2,
    ),
    # JSON's true and false are not offsets or row indexes, though Python's
    # bool is an int.
    "corpus-boolean-entity-evaluate": (
        ["evaluate", "--kb", "{kb}", "--model", "{model}", "--out-dir", "{out}", "--corpus"],
        b'{"content": "Asthma attack", "entities": [[false, true, "Disease"]]}\n',
        2,
    ),
    "corpus-boolean-point": (
        TRAIN,
        b'{"content": "Asthma attack", "metadata": {"status": "done"}, "annotation": '
        b'[{"label": ["Disease Name"], "points": [{"start": false, "end": 5}]}]}\n',
        2,
    ),
    "annotations-boolean-row-index": (
        [*LINK, "--kb", "{kb}", "--annotations"],
        b'{"row_index": true, "content": "Tonsillitis", "entities": [[0, 11]]}\n'
        b'{"row_index": 2, "content": "Arthritis", "entities": []}\n'
        b'{"row_index": 3, "content": "Hypertension", "entities": []}\n',
        2,
    ),
    "corpus-empty": (TRAIN, b"", 2),
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
    "annotations-long-row-index": (
        [*LINK, "--kb", "{kb}", "--annotations"],
        b'{"row_index": %s, "content": "Tonsillitis", "entities": []}\n' % LONG_NUMBER,
        2,
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
    "standard-long-date": (
        ["report", "--out-dir", "{out}", "--input"],
        STANDARD_HEAD.encode() + b"Female,20,Cystitis,%s/4/1439,,,\n" % LONG_NUMBER,
        2,
    ),
    "standard-date-out-of-range": (
        ["report", "--out-dir", "{out}", "--input"],
        (STANDARD_HEAD + "Female,20,Cystitis,45/13/2020,,,\n").encode(),
        2,
    ),
    "standard-half-coded": (
        ["report", "--out-dir", "{out}", "--input"],
        (STANDARD_HEAD + "Female,20,Cystitis,9/4/1439,A06.81,Amebic cystitis,\n").encode(),
        2,
    ),
    "standard-category-only": (
        ["report", "--out-dir", "{out}", "--input"],
        (STANDARD_HEAD + "Female,20,Cystitis,9/4/1439,,,A06\n").encode(),
        2,
    ),
    "stoplist": ([*EVALUATE, "--stoplist"], NOT_UTF8, 2),
    "extra-terms": ([*EVALUATE, "--extra-terms"], NOT_UTF8, 2),
    "config": ([*LINK, "--config"], NOT_UTF8, 1),
    "config-repeated-key": (
        [*LINK, "--config"], b"score_threshold = 0.2\nscore_threshold = 0.3\n", 1
    ),
    "config-lookup-k": ([*LINK, "--config"], b"lookup_k = 4\n", 1),
}


def _argv(template, bad, tmp_path):
    """``template`` with ``bad`` as its last argument. The output directory
    is made here, so a command that writes a file in it can succeed."""
    (tmp_path / "out").mkdir(exist_ok=True)
    files = {
        "bad": bad,
        "out": tmp_path / "out",
        "ehr": sample_path("sample_ehr.csv"),
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
    out = tmp_path / "out"
    assert not [path for path in out.rglob("*") if path.is_file()]


# The row and detail that some of MALFORMED_INPUTS' errors give after the path.
MALFORMED_DETAILS = {
    "raw-export-missing-column": (
        "row 1: required column 'Diagnosis Date' is missing from the header"
    ),
    "kb-duplicate-code": "row 2: duplicate code 'E10.9', first on row 1",
    "kb-invalid-code": "row 2: invalid ICD-10 code 'NOPE'",
    "kb-four-columns": "row 1: expected 2 or 3 tab-separated columns",
    "kb-one-column": "row 2: expected 2 or 3 tab-separated columns",
    "model-features-v2": "row 2: model uses unknown feature-template version 'v2'",
    "corpus-empty": "contains no examples",
}


@pytest.mark.parametrize("case", sorted(MALFORMED_DETAILS))
def test_a_bad_input_file_is_named_with_its_row(case, tmp_path, capsys):
    template, contents, code = MALFORMED_INPUTS[case]
    detail = MALFORMED_DETAILS[case]
    bad = tmp_path / "bad_input"
    bad.write_bytes(contents)
    assert main(_argv(template, bad, tmp_path)) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {bad}: {detail}\n")


@pytest.mark.parametrize(
    "below, code",
    [("", errno.EEXIST), ("sub", errno.ENOTDIR)],
    ids=["is-a-file", "under-a-file"],
)
def test_report_and_pipeline_report_an_unwritable_out_dir_alike(tmp_path, capsys, below, code):
    blocker = _write(tmp_path, "blocker", "a regular file\n")
    out_dir = blocker / below if below else blocker
    errors = []
    for argv in (
        ["report", "--input", str(GOLDEN_DIR / "standard.csv")],
        [
            "pipeline", "--input", str(sample_path("sample_ehr.csv")),
            "--kb", str(sample_path("sample_kb.tsv")),
            "--model", str(sample_path("sample_model.txt")),
        ],
    ):
        assert main([*argv, "--out-dir", str(out_dir)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors.append(captured.err)
    expected = OSError(code, os.strerror(code), str(out_dir))
    assert errors == [f"error: {expected}\n"] * 2


CORPUS = sample_path("sample_corpus.jsonl").read_bytes()
# (command, with the file argument last; that file's contents; expected exit
# code; the error it reports). The first cases give valid files but flags
# that leave the command unable to run.
ERROR_BRANCHES = {
    "train-fraction-above-1": (
        [*TRAIN[:-1], "--train-fraction", "1.5", "--corpus"],
        CORPUS,
        1,
        "train_fraction must be in (0, 1), got 1.5",
    ),
    "train-epochs-negative": (
        [*TRAIN[:-1], "--epochs", "-1", "--corpus"], CORPUS, 1, "epochs must be >= 0, got -1"
    ),
    "link-without-annotations-or-model": (
        [*LINK, "--kb"],
        sample_path("sample_kb.tsv").read_bytes(),
        1,
        "link requires --annotations or --model",
    ),
    "evaluate-without-kb": (
        ["evaluate", "--model", "{model}", "--out-dir", "{out}", "--corpus"],
        CORPUS,
        1,
        "evaluate requires --kb",
    ),
    "evaluate-without-model": (
        ["evaluate", "--kb", "{kb}", "--out-dir", "{out}", "--corpus"],
        CORPUS,
        1,
        "evaluate requires --model",
    ),
    "pipeline-without-kb": (
        ["pipeline", "--model", "{model}", "--out-dir", "{out}", "--input"],
        sample_path("sample_ehr.csv").read_bytes(),
        1,
        "pipeline requires --kb and --model",
    ),
    "pipeline-without-model": (
        ["pipeline", "--kb", "{kb}", "--out-dir", "{out}", "--input"],
        sample_path("sample_ehr.csv").read_bytes(),
        1,
        "pipeline requires --kb and --model",
    ),
    "kb-blank-name": (
        [*LINK, "--model", "{model}", "--kb"],
        b"A06.81\tAmebic cystitis\nA09\t \tGastroenteritis\n",
        2,
        "row 2: entry name is empty",
    ),
    "corpus-annotation-not-objects": (
        TRAIN,
        b'{"content": "Cystitis", "annotation": ["Disease Name"]}\n',
        2,
        "row 1: annotation must be a list of objects",
    ),
    "corpus-points-not-objects": (
        TRAIN,
        b'{"content": "Cystitis", "annotation": [{"label": ["Disease Name"], '
        b'"points": [[0, 7]]}]}\n',
        2,
        "row 1: points must be a list of objects",
    ),
    "corpus-entities-not-list": (
        TRAIN, b'{"content": "Cystitis", "entities": {"0": 8}}\n', 2, "entities must be a list"
    ),
    "annotations-of-other-texts": (
        [*LINK, "--kb", "{kb}", "--annotations"],
        b'{"row_index": 1, "content": "Tonsillitis", "entities": [[0, 11]]}\n'
        b'{"row_index": 3, "content": "Asthma", "entities": []}\n',
        2,
        "given_input: no annotations of the input's Diagnosis for rows [2, 3] "
        "(and possibly more)",
    ),
    "raw-export-field-too-large": (
        ["normalize", "--output", "{out}/n.csv", "--input"],
        b"Gender,Age,Diagnosis,Diagnosis Date\nF,20,%s,9/4/1439\n"
        % (b"x" * (csv.field_size_limit() + 1)),
        2,
        "field larger than field limit",
    ),
}


@pytest.mark.parametrize("case", sorted(ERROR_BRANCHES))
def test_an_error_branch_exits_with_one_error_line_and_writes_nothing(case, tmp_path, capsys):
    template, contents, code, detail = ERROR_BRANCHES[case]
    given = tmp_path / "given_input"
    given.write_bytes(contents)
    # An uncaught exception (a traceback) fails the test here.
    assert main(_argv(template, given, tmp_path)) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("error: ") and detail in line, line
    assert not [path for path in (tmp_path / "out").rglob("*") if path.is_file()]


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


PIPELINE = ["pipeline", "--input", "{ehr}", "--out-dir", "{out}"]
ANNOTATION_LINES = (
    b'{"row_index": 1, "content": "Tonsillitis", "entities": [[0, 11]]}\n'
    b'{"row_index": 2, "content": "Arthritis", "entities": []}\n'
    b'{"row_index": 3, "content": "Hypertension", "entities": []}\n'
)
# Each file argument besides a command's main input: (the command, with the
# file last; valid starts of the file's format, up to a whole valid file).
FILE_ARGUMENTS = {
    "kb": (
        [*PIPELINE, "--model", "{model}", "--kb"],
        [b"", b"# curated\n", b"C16\tMalignant neoplasm of stomach\tStomach Cancer|",
         sample_path("sample_kb.tsv").read_bytes()],
    ),
    "kb-lexicon": (
        ["evaluate", "--corpus", "{corpus}", "--model", "{model}", "--out-dir", "{out}", "--kb"],
        [b"", b"A06.81\tAmebic cystitis\n", sample_path("sample_kb.tsv").read_bytes()],
    ),
    "model": (
        [*PIPELINE, "--kb", "{kb}", "--model"],
        [b"", b"ehr2icd-tagger\t1\n", MODEL_HEAD.encode(), MODEL_HEAD.encode() + b"bias\tO\t",
         sample_path("sample_model.txt").read_bytes()],
    ),
    "config": (
        [*PIPELINE, "--kb", "{kb}", "--model", "{model}", "--config"],
        [b"", b"# settings\n", b"score_threshold = ", b"epochs = 3\nseed = 7\n"],
    ),
    "config-evaluate": (
        [*EVALUATE, "--config"],
        [b"", b"train_fraction = 0.7\n", b"stoplist = disease, ", b"score_threshold = 0.5\n"],
    ),
    "stoplist": (
        [*EVALUATE, "--stoplist"],
        [b"", b"# vague\n", b"disease\npain\n", sample_path("stoplist.txt").read_bytes()],
    ),
    "extra-terms": (
        [*EVALUATE, "--extra-terms"],
        [b"", b"shortness of breath\n", sample_path("extra_terms.txt").read_bytes()],
    ),
    "annotations": (
        [*LINK, "--kb", "{kb}", "--annotations"],
        [b"", b'{"row_index": 1, "content": "Tonsillitis", "entities": [', ANNOTATION_LINES],
    ),
}


@pytest.mark.parametrize("argument", sorted(FILE_ARGUMENTS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_any_bytes_in_each_file_argument_exit_0_1_or_2(tmp_path_factory, argument, data):
    template, prefixes = FILE_ARGUMENTS[argument]
    prefix = data.draw(st.sampled_from(prefixes), label="prefix")
    tail = data.draw(
        st.one_of(st.binary(max_size=64), st.text(max_size=64).map(str.encode)), label="tail"
    )
    tmp_path = tmp_path_factory.mktemp("any_file")
    bad = tmp_path / "input"
    bad.write_bytes(prefix + tail)
    stdout, stderr = io.StringIO(), io.StringIO()
    # An uncaught exception fails the test here.
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = main(_argv(template, bad, tmp_path))
    assert code in (0, 1, 2)
    assert "Traceback" not in stderr.getvalue()
    written = [path for path in (tmp_path / "out").rglob("*") if path.is_file()]
    if code:
        assert not written, written
    else:
        assert written
    assert not list(tmp_path.rglob("*.tmp"))
