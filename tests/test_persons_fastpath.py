"""The kinship cascade's literal screens and number-reference index must not
change a single output.

``persons_unscreened.py`` is a verbatim copy of ``oracle/persons.py`` as it
was before the screens: every pattern ran on every member, and every
``ref_no`` scanned every member. The differential tests run both on the
households of a seeded transcript corpus, on the persons-surrogate
households and on generated households, and require equal results. The
screen tests check each screen on its own: whenever it says "skip", the
patterns it guards really find nothing.
"""

import copy
import importlib.util
import os

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pdf_extractors_ray.oracle import census, persons
from pdf_extractors_ray.ops.surrogate import _render_persons_turns_py
from pdf_extractors_ray.sources.transcripts import _FAMILY_CYCLE, conv_turns


def _load_unscreened():
    # loaded as a sibling of oracle/persons.py so its relative import of
    # .census resolves exactly as it did in the package
    spec = importlib.util.spec_from_file_location(
        "pdf_extractors_ray.oracle._persons_unscreened",
        os.path.join(os.path.dirname(__file__), "persons_unscreened.py"),
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


unscreened = _load_unscreened()
# get_father's root fix (a capture without a word gives None instead of
# raising) is a deliberate deviation of both modules from the reference;
# the screens never touched get_father, so the copy takes the fixed one
unscreened.get_father = persons.get_father
# the same parse without the "Possible nested set" FutureWarning (checked in
# test_persons_root_fixes.py); the copy's template is otherwise verbatim
unscreened._REL_NOS_AND = persons._REL_NOS_AND


def _outcome(mod, household):
    try:
        return mod.extract_persons_for_household(copy.deepcopy(household))
    except Exception as e:  # both versions must fail alike, too
        return type(e)


def _assert_same(households):
    assert households
    for h in households:
        assert _outcome(persons, h) == _outcome(unscreened, h), h


def test_fastpath_equals_unscreened_on_transcript_corpus():
    """Every household of the census conversations among the first 3,000
    of a seeded ``synthesize_transcripts`` corpus."""
    households = []
    for ci in range(3000):
        if _FAMILY_CYCLE[ci % len(_FAMILY_CYCLE)] == "census":
            _, _, texts = conv_turns(ci, seed=21)
            households += census.extract_census_conv(texts, list(range(len(texts))))
    assert len(households) > 4000
    _assert_same(households)


def test_fastpath_equals_unscreened_on_persons_surrogate():
    households = []
    for k in range(540):
        households += census.extract_census_conv([t for _, t in _render_persons_turns_py(k)])
    _assert_same(households)


# ---------------------------------------------------------------------------
# generated households: member strings built from the cascade's own
# literals, in mixed case, with the characters re.IGNORECASE folds onto
# i, k and s, and the number-reference shapes the index must keep

_TOKENS = [
    "Kronion", "Taues", "Apollonios", "Thaisas", "Aurelius", "Aur.", "X",
    "s.", "d.", "?s.", "?d.", "s.?", "ss.", "s./d.", "s. (or d.?)", "s. or gs.",
    "(s. Horos)", "(d. Didymos)", "(s.", "(d.", "of", "and", "the", ",", ", ", ";",
    "(", ")", "[", "]", "?", "(?)", "—",
    "[declarant]", "(declarant)", "[declarant,", "[of declarant]", "declarant",
    "husband of", "divorced husband of", "wife of", "deceased wife of", "wife",
    "wife (?)", "wife and sister of", "wife and full sister of", "full sister and wife",
    "perhaps wife and sister", "probably wife", "sister and divorced wife of",
    "sister of", "sister", "brother of", "br. of", "br.", "brother of the father",
    "son of", "son", "daughter of", "daughter", "child of", "mother of", "father of",
    "relative", "born to", "offspring of", "slave of", "female", "male", "freedw.",
    "[no. 1]", "[no. l]", "[no. 2]?", "nos. 2 and 3", "nos. 2? and 1", "(no. 4?)",
    "no.3", "no. 1", "(no. 2)", "nos.", "noss.", "No.", "NOS.", "[no. 12]",
    "age lost", "age not given", "probably 30", "(probably 20)", "30", "12, 14",
    "farmer", "priest of Tothoes", "weaver", "ſ", "K", "İ", "ı",
    # whole clauses, so that declarant relations and number links are common
    ", wife of the declarant", ", probably wife of Kronion [declarant]",
    ", husband of the declarant", ", son of the declarant", "(daughter of declarant)",
    ", sister and wife of the declarant", ", brother of the father [declarant]",
    ", mother of the declarant", ", child of [declarant]",
    ", wife of Kronion [no. 1]", ", son of Taues [no. 2]?", ", brother of nos. 2 and 3",
    ", daughter of X (no. 4?)", ", sister of Y [no. l]", ", husband of Z (no. 1)",
]
_FOLDS = {"s": "ſ", "k": "K", "i": "İ", "I": "ı"}


@st.composite
def _token(draw):
    tok = draw(st.sampled_from(_TOKENS))
    case = draw(st.sampled_from(["keep", "upper", "lower", "title", "swap"]))
    tok = {"keep": tok, "upper": tok.upper(), "lower": tok.lower(),
           "title": tok.title(), "swap": tok.swapcase()}[case]
    if draw(st.integers(0, 4)) == 0:  # fold one letter onto its non-ASCII twin
        spots = [j for j, ch in enumerate(tok) if ch in _FOLDS]
        if spots:
            j = draw(st.sampled_from(spots))
            tok = tok[:j] + _FOLDS[tok[j]] + tok[j + 1:]
    return tok


@st.composite
def _member(draw, number):
    body = " ".join(draw(st.lists(_token(), min_size=1, max_size=9)))
    return f"({number}) {body}" if draw(st.integers(0, 9)) else body


def _members(max_size):
    return st.integers(0, max_size).flatmap(
        lambda n: st.tuples(*[_member(i + 1) for i in range(n)]).map(list)
    )


@st.composite
def _household(draw):
    names = draw(st.lists(st.sampled_from(["Kronion", "Taues", "Aur. Horos", "X"]),
                          min_size=1, max_size=2))
    return {
        "household_number": draw(st.sampled_from(["131-Ox-1", "117-Ar-2"])),
        "declarant_name": draw(st.one_of(st.none(), _member(1))),
        "declarant_name_parsed": names,
        "declarant_id": [f"d{i + 1}" for i in range(len(names))],
        "name_of_family_members": draw(_members(6)),
        "name_of_non_family_members": draw(_members(3)),
        "slaves": draw(_members(2)),
    }


@settings(max_examples=400, deadline=None)
@given(_household())
def test_fastpath_equals_unscreened_on_generated_households(h):
    assert _outcome(persons, h) == _outcome(unscreened, h)


# ---------------------------------------------------------------------------
# screen soundness: a skipped pattern could not have matched

_SCREENS = {
    "declarant": [persons._REL1, persons._REL2, persons._REL_SD, persons._REL_SELF],
    "(s. ": [persons._PGF],
    "(d. ": [persons._MGF],
    "husband of ": [persons._HUSBAND],
    "wife ": [persons._WIFE],
    "br": [persons._BROTHER],
    "sister": [persons._SISTER],
}
_text = st.lists(_token(), max_size=12).map(" ".join)


@pytest.mark.parametrize("literal", sorted(_SCREENS))
@settings(max_examples=300, deadline=None)
@given(data=_text)
@example(data="(ſ. Horos)")
@example(data="x, ſiſter of Y")
@example(data="huſband of Y")
@example(data="wİfe of Y")
@example(data="X [DECLARANT]")
def test_absent_screen_is_sound(literal, data):
    if persons._absent(literal, data):
        for pat in _SCREENS[literal]:
            assert pat.search(data) is None and pat.findall(data) == []


def test_absent_screen_does_not_skip_non_ascii_matches():
    assert persons._PGF.search("(ſ. Horos)") and not persons._absent("(s. ", "(ſ. Horos)")
    assert persons._SISTER.search("x, ſister of Y") and not persons._absent("sister", "x, ſister of Y")


@settings(max_examples=300, deadline=None)
@given(name=_text)
@example(name="X [Declarant]")
def test_declarant_tag_screen_is_sound(name):
    if "[declarant" not in name:
        assert persons._DECLARANT_TAG.search(name) is None


@settings(max_examples=300, deadline=None)
@given(data=_text, ref_no=st.integers(1, 13))
@example(data="X, son of Y [no. 1]", ref_no=1)
@example(data="X, son of Y [NO. L]", ref_no=1)
@example(data="(1) X, son of Y no. 2", ref_no=1)
@example(data="(2) X, son of Y no. l", ref_no=2)
@example(data="(12) X nos. 1 and 2", ref_no=12)
def test_number_reference_screens_are_sound(data, ref_no):
    """Members outside the index, and index entries whose tail lacks the
    referenced number, cannot match any ref_no's patterns."""
    pat, literals = persons._number_ref_pattern(ref_no)
    index = persons._number_ref_index([{"data": data}])
    if not index:
        assert persons._NUM_AND.search(data) is None and pat.search(data) is None
        return
    (_, _, tail, and_values), = index
    if and_values is None and not any(lit in tail for lit in literals):
        assert pat.search(data) is None
    assert persons.find_number_reference(ref_no, [{"data": data}]) == (
        unscreened.find_number_reference(ref_no, [{"data": data}])
    )
