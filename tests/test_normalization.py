
import pytest
from hypothesis import given, strategies as st

from ehr2icd.ingestion import RawRecord
from ehr2icd.normalization import (
    DateTriple,
    normalize_age,
    normalize_date,
    normalize_gender,
    normalize_with_reason,
)

GENDER_FORMATS = ("F", "f", "female", "Female", "M", "m", "male", "Male")


@pytest.mark.parametrize(
    "raw,expected",
    [("m", "Male"), ("f", "Female"), ("F", "Female")],
)
def test_gender_table_cases(raw, expected):
    assert normalize_gender(raw) == expected


def test_gender_unknown_is_na():
    # "unknown" is in none of the eight enumerated formats.
    assert "unknown" not in GENDER_FORMATS
    assert normalize_gender("unknown") is None


@pytest.mark.parametrize("raw", GENDER_FORMATS)
def test_gender_idempotent_on_outputs(raw):
    canonical = normalize_gender(raw)
    assert normalize_gender(canonical) == canonical


def test_gender_is_not_substring_matched():
    assert normalize_gender("foo") is None
    assert normalize_gender("Males") is None


@pytest.mark.parametrize(
    "raw,expected",
    [
        ("16", 16),
        ("16 y", 16),
        ("16 years", 16),
        ("4 m", None),
        ("4 months", None),
        ("2 1/2", 2),
    ],
)
def test_age_table_patterns(raw, expected):
    assert normalize_age(raw) == expected


@pytest.mark.parametrize(
    "raw", ["16", "16 y", "16 yrs", "16 year", "16 years", "16Y", "16 YEARS"]
)
def test_age_equals_leading_integer(raw):
    assert normalize_age(raw) == 16


@pytest.mark.parametrize("raw", ["0", "0 years", "0 1/2"])
def test_ages_under_one_year_are_na(raw):
    assert normalize_age(raw) is None


@pytest.mark.parametrize("raw", ["1", "1 y", "1 year", "1 1/2", "01"])
def test_an_age_of_exactly_one_year_is_kept(raw):
    assert normalize_age(raw) == 1


@pytest.mark.parametrize("raw", ["sixteen", "16 years old", "", "1/2", "-3"])
def test_unrecognized_ages_are_na(raw):
    assert normalize_age(raw) is None


@pytest.mark.parametrize(
    "raw,rendered",
    [("08-7-1439", "8/7/1439"), ("11/8/1439", "11/8/1439")],
)
def test_date_table_cases(raw, rendered):
    assert normalize_date(raw).render() == rendered


# More digits than int() converts by default (sys.get_int_max_str_digits()).
TOO_LONG = "9" * 5000


@pytest.mark.parametrize(
    "raw", [TOO_LONG, f"{TOO_LONG} years", f"{TOO_LONG} 1/2", f"0{TOO_LONG}"]
)
def test_an_age_too_long_for_int_is_na(raw):
    assert normalize_age(raw) is None


@pytest.mark.parametrize(
    "raw", [f"{TOO_LONG}/2/2020", f"9/{TOO_LONG}/2020", f"9-2-{TOO_LONG}"]
)
def test_a_date_too_long_for_int_is_na(raw):
    assert normalize_date(raw) is None


def test_textual_date_is_na():
    assert normalize_date("more than 10 years") is None
    assert normalize_date("5 years ago") is None


def test_zero_date_component_is_na():
    assert normalize_date("0/4/1439") is None


@pytest.mark.parametrize(
    "raw", ["45/13/2020", "32/1/2020", "1/13/2020", "31-0-1439", "99/99/99999", "07/013/1439"]
)
def test_a_day_above_31_or_a_month_above_12_is_na(raw):
    assert normalize_date(raw) is None


@pytest.mark.parametrize(
    "raw,triple",
    [("31/12/2020", (31, 12, 2020)), ("30-2-1439", (30, 2, 1439)), ("1/1/1", (1, 1, 1))],
)
def test_dates_at_the_calendar_bounds_are_kept(raw, triple):
    # Dates stay in their source calendar: a month's own length is not checked.
    assert normalize_date(raw) == triple


@given(
    st.integers(min_value=1, max_value=31),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=9999),
)
def test_date_render_parse_identity(day, month, year):
    triple = DateTriple(day, month, year)
    rendered = triple.render()
    assert "-" not in rendered
    assert normalize_date(rendered) == triple


def _raw(gender, age, diagnosis, date):
    return RawRecord(gender, age, diagnosis, date, row_index=1)

def test_normalize_record_cystitis_row():
    record, reason = normalize_with_reason(_raw("F", "20", "Cystitis", "9/4/1439"))
    assert reason is None
    assert record.gender == "Female"
    assert record.age_years == 20
    assert record.diagnosis_date == DateTriple(9, 4, 1439)
    assert record.diagnosis_text == "Cystitis"


def test_normalize_record_textual_date_dropped():
    assert normalize_with_reason(
        _raw("female", "40", "Ischemic Heart Disease", "5 years ago")
    ) == (None, "date")


def test_normalize_record_year_marker_age():
    record, _ = normalize_with_reason(_raw("M", "6 yr", "Autism", "29/1/1439"))
    assert (record.gender, record.age_years) == ("Male", 6)
    assert record.diagnosis_date == DateTriple(29, 1, 1439)


def test_drop_iff_any_na():
    # Brute force over one passing and one failing value per field.
    genders = ["F", "unknown"]
    ages = ["20", "4 m"]
    dates = ["9/4/1439", "more than 10 years"]
    for gender in genders:
        for age in ages:
            for date in dates:
                record = _raw(gender, age, "Cystitis", date)
                any_na = (
                    normalize_gender(gender) is None
                    or normalize_age(age) is None
                    or normalize_date(date) is None
                )
                assert (normalize_with_reason(record)[0] is None) == any_na


def test_failure_reason_names_first_failing_field():
    assert normalize_with_reason(_raw("x", "20", "d", "9/4/1439"))[1] == "gender"
    assert normalize_with_reason(_raw("F", "4 m", "d", "9/4/1439"))[1] == "age"
    assert normalize_with_reason(_raw("F", "20", "d", "soon"))[1] == "date"
    assert normalize_with_reason(_raw("F", "20", "d", "9/4/1439"))[1] is None


def test_diagnosis_text_passes_through_verbatim():
    text = "  The disease is Gastroenteritis  "
    record, _ = normalize_with_reason(_raw("F", "20", text, "9/4/1439"))
    assert record.diagnosis_text == text


def test_normalized_record_is_immutable():
    raw = RawRecord("F", "20", "Cystitis", "9/4/1439", 7)
    record, _ = normalize_with_reason(raw)
    assert record == ("Female", 20, DateTriple(9, 4, 1439), "Cystitis", 7)
    assert record._fields == (
        "gender", "age_years", "diagnosis_date", "diagnosis_text", "row_index"
    )
    with pytest.raises(AttributeError):
        record.age_years = 30


NORMALIZERS = (normalize_gender, normalize_age, normalize_date)

# ASCII, Arabic-Indic, Extended Arabic-Indic, Devanagari and mathematical
# digits: "\d" matches them all and int() reads them all.
_DIGITS = "0123456789\u0663\u06f5\u0967\U0001d7d8"
_number = st.text(alphabet=_DIGITS, min_size=1, max_size=4)
_pad = st.sampled_from(["", " ", "  ", "\t", "\u00a0", "\n"])
_bare_cells = st.one_of(
    st.sampled_from(GENDER_FORMATS + ("unknown", "Males", "", "0", "0 years", "4 m")),
    _number,
    st.tuples(
        _number, st.sampled_from([" y", "yr", " YEARS", " m", "month", " months", " 1/2"])
    ).map("".join),
    st.tuples(_number, st.sampled_from("/-"), _number, st.sampled_from("/-"), _number).map(
        "".join
    ),
    st.text(max_size=6),
)
_cells = st.tuples(_pad, _bare_cells, _pad).map("".join)


@given(st.lists(_cells, min_size=1, max_size=20))
def test_memoized_normalizers_match_their_uncached_bodies(cells):
    for normalize in NORMALIZERS:
        expected = [normalize.__wrapped__(cell) for cell in cells]
        # Twice (misses, then hits), then again from an empty memo.
        assert [normalize(cell) for cell in cells] == expected
        assert [normalize(cell) for cell in cells] == expected
        normalize.cache_clear()
        assert [normalize(cell) for cell in cells] == expected

