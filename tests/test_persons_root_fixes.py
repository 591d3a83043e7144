"""Root fixes in ``oracle/persons.py``: a father capture without a word no
longer aborts the household, and the relation templates compile without
``FutureWarning: Possible nested set``."""

import re
import warnings

import pytest

from pdf_extractors_ray.oracle import persons


@pytest.mark.parametrize(
    "data",
    ["(1) X s. , 30", "(2) X d. ?, 12", "(1) X s. — and Y, 30", "(3) X ss. ), 4"],
)
def test_get_father_without_a_word_is_none(data):
    """The reference raises AttributeError here (``.group`` on a failed
    word search); the deliberate deviation returns None, as no capture does."""
    assert persons.get_father(data) is None


def test_get_father_unchanged_where_a_word_follows():
    assert persons.get_father("(1) Horos s. Petesouchos, 30") == "Petesouchos"
    assert persons.get_father("(2) T d. Kronion and Taues, 12") == "Kronion"
    assert persons.get_father("(1) X s. of the declarant, 30") == ""
    assert persons.get_father("(1) X, farmer, 30") is None


def test_household_with_wordless_father_capture_completes():
    household = {
        "household_number": "131-Ox-9",
        "declarant_name": "Kronion s. Pnepheros and Taues, farmer, 40",
        "declarant_name_parsed": ["Kronion"],
        "declarant_id": ["131-Ox-9-d1"],
        "name_of_family_members": [
            "(1) Kronion [declarant] s. Pnepheros and Taues, farmer, 40",
            "(2) X s. , 30",
            "(3) Y d. ?, 12",
        ],
        "name_of_non_family_members": [],
        "slaves": [],
    }
    out = persons.extract_persons_for_household(household)
    assert len(out) == 3
    assert out[1]["father"] is None and out[2]["father"] is None


def _all_templates():
    return persons._REL_TEMPLATES + [
        persons._REL_NOS, persons._REL_NOS_AND, persons._REL_FM1, persons._REL_FM2,
    ]


@pytest.mark.parametrize("fill", ["1|l", "2", "13"])
def test_relation_templates_compile_without_future_warning(fill):
    with warnings.catch_warnings():
        warnings.simplefilter("error", FutureWarning)
        for tmpl in _all_templates():
            re.compile(tmpl.format(fill), re.IGNORECASE)


def test_escaped_nested_set_keeps_its_meaning():
    """``[\\[\\d|l]`` is the class ``[[\\d|l]`` was read as: the same parse."""
    old = persons._REL_NOS_AND.replace(r"[\[\d|l]", r"[[\d|l]")
    assert old != persons._REL_NOS_AND
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", FutureWarning)
        want = re._parser.parse(old.format("2"), re.IGNORECASE)
    got = re._parser.parse(persons._REL_NOS_AND.format("2"), re.IGNORECASE)
    assert str(got) == str(want)
