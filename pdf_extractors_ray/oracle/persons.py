r"""Person extraction + within-household kinship resolution (roman-census
stage B).

Reimplements ``roman-census/persons.py``: the per-member regex extractor
bank (``:8-345``), person-record builder (``:348-385``), declarant ID
matching (``:389-411``), the numeric cross-reference kinship cascade
(``:542-728``) and declarant synthesis (``:731-769``).

Each household is independent (groups are ≤30 members), so the engine runs
this as an embarrassingly-parallel ``map_batches`` over household rows —
no shuffle (SURVEY.md §2.4 J1-J3: within-group joins only).

Python ``re`` is used deliberately instead of Arrow RE2: the cascades rely
on lookbehind and backtracking semantics RE2 does not implement
(SURVEY.md §7.5 #1; e.g. the spouse negative lookbehind, persons.py:257).

Literal screens. Most member texts cannot match most of the bank, so a
pattern is skipped when its text provably lacks a literal that every match
of the pattern must contain; the result is then what the failed search
would have given. Under ``re.IGNORECASE`` the letters i, k and s also match
non-ASCII characters (İ ı, the Kelvin sign, ſ) that ``str.lower`` does not
map to them, so ``_absent`` screens only ASCII texts, where a
case-insensitive match of a lowercase literal is exactly a substring of
``text.lower()``; any other text runs the full pattern. The screens:

- ``get_relation_to_declarant``: all four patterns contain ``declarant``.
- ``_PGF`` / ``_MGF``: both open with the literal ``(s. `` / ``(d. ``.
- ``_HUSBAND``: ``husband of ``; every ``_WIFE`` alternative starts with
  ``wife ``.
- ``_BROTHER``: every alternative contains ``br``; ``_SISTER``: ``sister``.
- ``_DECLARANT_TAG`` is case-sensitive and every alternative contains
  ``[declarant``, so a plain ``in`` test suffices.
- Number references: every pattern of ``find_number_reference`` contains a
  match of ``nos*\.``. ``set_relationship_ids`` finds the members holding
  one once per household and scans only those for each ``ref_no``,
  instead of every member for every ``ref_no``.
"""

from __future__ import annotations

import re
from functools import lru_cache

from .census import get_occupation as _census_occupation


def _absent(literal: str, data: str) -> bool:
    """True only if ``data`` holds no ``re.IGNORECASE`` match of the
    lowercase ``literal``; non-ASCII texts are never screened out."""
    return data.isascii() and literal not in data.lower()


# ---------------------------------------------------------------------------
# field extractors (persons.py:8-345) — compiled once at import; the Ray
# actor pool re-exports this module as its per-worker compiled bank (ST6)

_NAME_HEAD = re.compile(r"^\s*[\(\d+\)]*\s*(.*?)(?=\s*,\s*)", re.IGNORECASE)
_NAME_RELTOK = re.compile(
    r"(\?d\.|\?s\.|s\.|d\.|mother of|ss\.|son of| daughter of|brother of|father of|slave of|child of|wife of|child of|female|male|wife|freed|offspring of)",
    re.IGNORECASE,
)
_NAME_BEFORE_REL = re.compile(
    r"^\s*[\(\d+\)]*\s*(.*?)(?=\s+[\?d\.|\?s\.|s\.|d\.|mother of|ss\.|son of| daughter of|brother of|father of|slave of|child of|wife of|male|female|wife|freed|offspring of]+)"
)
_NAME_BEFORE_REL2 = re.compile(
    r"^\s*[\(\d+\)]*\s*(.*)(?=\s*\W\s*(\?d\.|\?s\.|s\.|d\.|mother of|ss\.|son of| daughter of|brother of|father of|slave of|child of|wife of|male|female|wife|freed|offspring of))",
    re.IGNORECASE,
)
_DECLARANT_TAG = re.compile(r"(\[declarant]| \[declarant\] |(\[declarant) |\[declarant)")
_LEADING_NUM = re.compile(r"^\s*\(\d+\)\s*")


def get_name(data) -> str | None:
    """4-tier name fallback (persons.py:8-43)."""
    if not isinstance(data, str):
        return ""
    m = _NAME_HEAD.search(data)
    if not m:
        return None
    name = m.group(1).strip()
    if _NAME_RELTOK.search(name) is not None:
        found = _NAME_BEFORE_REL.search(data)
        if found:
            name = found.group(1).strip()
            if len(name) == 0:
                found = _NAME_BEFORE_REL2.search(data)
                if found:
                    name = found.group(1).strip()
        else:
            found = _NAME_BEFORE_REL2.search(data)
            if found:
                name = found.group(1).strip()
    if "[declarant" in name:
        name = _DECLARANT_TAG.sub(" ", name)
    name = name.replace("(s.", "").replace("(d.", "")
    return name.strip()


def strip_member_number(data: str) -> str:
    return _LEADING_NUM.sub("", data)


_FEMALE_PARTS = {"d.", "?d.", "(d.", "daughter", "wife", "sister", "freedw."}
_MALE_PARTS = {"s.", "?s.", "s.?", "son", "(s.", "brother"}


def get_sex(data: str, mtype: str) -> str | None:
    """Token walk with role-type-dependent rules (persons.py:50-101)."""
    return _sex(strip_member_number(data), mtype)


def _sex(data: str, mtype: str) -> str | None:
    if "s. (or d.?)" in data:
        return "male or female"
    sex = None
    for part in data.split(" "):
        if mtype in ("F", "K"):
            if part == "s./d.":
                return "male or female"
            if part in _FEMALE_PARTS or "mother" in part or "female" in part:
                if sex is None:
                    sex = "female"
                    if "?" in part:
                        sex = "possible " + sex
                else:
                    sex = sex + "or female"
                break
            if part in _MALE_PARTS or "father" in part or "male" in part:
                sex = "male"
                if "?" in part:
                    sex = "possible " + sex
                break
        elif mtype == "S":
            if "female" in part:
                return "female"
            if "male" in part:
                return "male"
    return sex


_PROBABLY_AGE = re.compile(r"(\(probably\s+.*)|(probably\s+.*)|\?.*probable.*", re.IGNORECASE)
_AGE = re.compile(r"(?<=;\s|,\s)([\[\.\]]*\d+.*)", re.IGNORECASE)


def get_age(data: str) -> str:
    """Literal / regex / 'probably' cascade (persons.py:104-128)."""
    return _age(strip_member_number(data))


def _age(data: str) -> str:
    age = ""
    if "age lost" in data:
        age = "age lost"
    if "age not given" in data:
        age = "age not given"
    if len(age) == 0:
        found = _AGE.findall(data)
        if found:
            age = " or ".join(m.strip() for m in found)
            if age == "2nd certain)":
                m = _PROBABLY_AGE.search(data)
                if m:
                    age = m.group(0).strip()
        else:
            m = _PROBABLY_AGE.search(data)
            if m:
                age = m.group(0).strip()
    return age


_ROLES = {"F": "family member", "K": "free non-kin", "S": "slave"}
_TYPES = {"family member": "FM", "free non-kin": "NK", "slave": "S"}


def get_role(mtype: str) -> str | None:
    return _ROLES.get(mtype)


def get_type(role: str) -> str | None:
    return _TYPES.get(role)


# persons.py:154-160 — gazetteer (differs slightly from household.py's)
OCCUPATIONS = [
    "public farmer and priest", "public farmer", "farmer", "priest", "mason",
    "discharged solder", "workman", "idiotes", "former gym- nasiarch", "metallikos",
    "discharged veteran", "hyperetes", "hierotek- ton", "tax-exempt hieronikes",
    "nekrotaphos", "woolwasher", "linenweaver", "sitometrosakkophoros",
    "former exegetai", "member of the hiera synodos",
    "councillor", "taurotrophos", "fisherman", "weaver", "scribe", "doctor",
    "lathe turner", "stonecutter", "tailor", "cloth-beater",
]


def get_occupation(line: str | None) -> str:
    """Same shape as census.get_occupation but with persons.py's list."""
    return _census_occupation(line, OCCUPATIONS)


_FATHER_AND = re.compile(
    r"(?: s\. \(or d\.\?\) of | s\. \(\?\) of | s\.\/d\. | d\. \(\?\) of |\?d\.|\?s\.| s\.\? of | s\.|d\.|ss\.|son of| daughter of|father of|child of|born to)(.*?)(?:and)",
    re.IGNORECASE,
)
_FATHER = re.compile(
    r"(?: s\. \(or d\.\?\) of | s\. \(\?\) of | d\. \(\?\) of |\?d\.|\?s\.| s\.\? of | s\.|d\.|ss\.|son of| daughter of|father of|child of|born to)([—\s+\w+.?[\]))]+)",
    re.IGNORECASE,
)
_WORD = re.compile(r"\b(\w+)\b", re.IGNORECASE)


def get_father(data: str) -> str | None:
    """Kin-token anchored capture, "and"-variant pattern choice, declarant
    suppression, first-word normalize (persons.py:188-211).

    Deliberate deviation from the reference: a capture with no word
    character in it (``"(1) X s. , 30"``: the capture is ``","``) gives
    ``None``, as no capture does. The reference calls ``.group(1)`` on the
    failed word search and raises ``AttributeError``, which aborts the
    whole household."""
    pat = _FATHER_AND if " and " in data else _FATHER
    m = pat.search(data)
    father = m.group(1).strip() if m else None
    if father is not None:
        if "declarant" in father:
            father = ""
        else:
            word = _WORD.search(father)
            father = word.group(1) if word else None
    return father


_MOTHER = re.compile(r"(?:\D\s+and\s+)([—\s+\w+\(.?[\]))]+)", re.IGNORECASE)


def get_mother(data: str) -> str | None:
    """'and'-clause capture with 'wife' suppression (persons.py:213-227)."""
    m = _MOTHER.search(data)
    mother = m.group(1).strip() if m else None
    if mother is not None and "wife" in mother:
        mother = None
    if mother is not None:
        mother = mother.split(" ")[0]
    return mother


_PGF = re.compile(r"\(s\. ([\w+\s+.\[\]]+)\)", re.IGNORECASE)
_MGF = re.compile(r"\(d\. ([\w+\s+.\[\]]+)\)", re.IGNORECASE)


def get_paternal_grandfather(data: str, household_id: str = "") -> str | None:
    """``(s. X)`` capture with the 117-Ar-2 exemption (persons.py:230-242)."""
    if household_id == "117-Ar-2" or _absent("(s. ", data):
        return None
    m = _PGF.search(data)
    gf = m.group(1).strip() if m else None
    if gf is not None:
        gf = gf.split(" ")[0]
    return gf


def get_maternal_grandfather(data: str, household_id: str = "") -> str | None:
    if household_id == "117-Ar-2" or _absent("(d. ", data):
        return None
    m = _MGF.search(data)
    return m.group(1).strip() if m else None


_HUSBAND = re.compile(r"(?<!divorced |deceased )(?:husband of )([\w\s.[\]]+)", re.IGNORECASE)
_WIFE = re.compile(
    r"(?<!divorced |deceased )(?:wife of |wife and full sister of |wife and sister of )([\w\s.[\]]+)", re.IGNORECASE
)


def get_spouse(data: str) -> str | None:
    """Husband/wife capture with negative lookbehind (persons.py:256-271)."""
    m = None if _absent("husband of ", data) else _HUSBAND.search(data)
    if m:
        return m.group(1).strip()
    m = None if _absent("wife ", data) else _WIFE.search(data)
    if m:
        spouse = m.group(1).strip()
        if "s." in spouse:
            spouse = spouse.split(" ")[0]
        return spouse
    return None


_BROTHER = re.compile(r"(?:, |,)(?:brother of |br\. of|br\. )([\w\s.[\]]+)", re.IGNORECASE)
_SISTER = re.compile(
    r"(?:, |,)(?:sister of |sister and former wife of |sister and wife of |sister and divorced wife of |sister )([\w\s.[\]']+)",
    re.IGNORECASE,
)


def get_siblings(data: str) -> list[str]:
    found = [] if _absent("br", data) else _BROTHER.findall(data)
    if not _absent("sister", data):
        found += _SISTER.findall(data)
    return [m.strip() for m in found]


_REL1 = re.compile(
    r"(?:, |,|\()(perhaps wife and sister|probably wife |full sister and wife|wife and sister|sister and wife|sister and divorced wife|wife|sister|brother of the father|husband|brother|relative|son|daughter|child|mother)(?:[\s+\w+\s+]+)\[*declarant\]*\)*",
    re.IGNORECASE,
)
_REL2 = re.compile(
    r"(?:, |,|\()(perhaps wife and sister|probably wife |full sister and wife|wife and sister|sister and wife|sister and divorced wife|wife|sister|brother of the father|husband|brother|relative|son|daughter|child|mother)(?:[\s+\w+\s+]+).*\[*declarant\]*\)*",
    re.IGNORECASE,
)
_REL_SD = re.compile(r"(s\. or gs\.|s\.\/d\.|s\.|d\.).*?(\[declarant\]|\[declarant,|\[of declarant\]*)", re.IGNORECASE)
_REL_SELF = re.compile(
    r"^(?!.*(?:s\.|d\.).*?\[declarant\]).*\[declarant\]|^(?!.*(?:s\.|d\.).*?\[declarant\]).*\(declarant\)",
    re.IGNORECASE,
)


def get_relation_to_declarant(data: str) -> str | None:
    """3-tier cascade + self-detection (persons.py:286-317)."""
    if _absent("declarant", data):
        return None
    m = _REL1.search(data)
    if m:
        return m.group(1).lower()
    m = _REL2.search(data)
    if m:
        return m.group(1).lower()
    m = _REL_SD.search(data)
    if m:
        v = m.group(1).lower()
        if v == "s. or gs.":
            return "self"
        if v == "s.":
            return "son"
        if v == "d.":
            return "daughter"
        if "s" in v and "d" in v:
            return "son or daughter"
        return None
    if _REL_SELF.search(data):
        return "self"
    return None


_PARSEABLE = re.compile(r"\(*\d+\)", re.IGNORECASE)


def is_parseable_member(data: str) -> bool:
    return bool(_PARSEABLE.search(data))


_SLAVE_MOTHER = re.compile(r"(?:offspring of )(.*?),", re.IGNORECASE)
_OWNER = re.compile(r"(?:slave[ \(\w\)]* of )(.*?),", re.IGNORECASE)


def get_slave_mother(data: str) -> str | None:
    m = _SLAVE_MOTHER.search(data)
    return m.group(1).strip() if m else None


def get_owner(data: str) -> str | None:
    m = _OWNER.search(data)
    return m.group(1).strip() if m else None


# ---------------------------------------------------------------------------
# record builder (persons.py:348-385)

PERSON_COLUMNS = [
    "household_id", "id", "name", "sex", "age", "occupation", "father",
    "mother", "paternal_grandfather", "maternal_grandfather", "spouse",
    "siblings", "children", "relation_to_declarant", "role", "owner",
]


def parse_person(household_id: str, member_strings: list[str], mtype: str) -> list[dict]:
    members = []
    for data in member_strings:
        if not is_parseable_member(data):
            continue
        body = strip_member_number(data)
        m: dict = {"household_id": household_id, "name": get_name(data),
                   "sex": _sex(body, mtype), "age": _age(body)}
        if mtype in ("F", "K"):
            m["occupation"] = get_occupation(data)
            m["father"] = get_father(data)
            m["mother"] = get_mother(data)
            m["paternal_grandfather"] = get_paternal_grandfather(data, household_id)
            m["maternal_grandfather"] = get_maternal_grandfather(data, household_id)
            m["spouse"] = get_spouse(data)
            m["siblings"] = get_siblings(data)
            m["children"] = []
            m["relation_to_declarant"] = get_relation_to_declarant(data)
            m["owner"] = None
        else:
            m["father"] = None
            m["mother"] = get_slave_mother(data)
            m["occupation"] = None
            m["paternal_grandfather"] = None
            m["maternal_grandfather"] = None
            m["relation_to_declarant"] = None
            m["spouse"] = None
            m["siblings"] = []
            m["children"] = []
            m["owner"] = get_owner(data)
        m["role"] = get_role(mtype)
        m["data"] = data
        members.append(m)
    return members


# ---------------------------------------------------------------------------
# within-household resolution (persons.py:389-728) — J1/J2/J3 in SURVEY §2.4


def set_personal_ids(household_id, declarant_ids, declarant_names, persons) -> None:
    """Fuzzy declarant match → declarant id, else positional id (:389-411)."""
    id_index = 1
    for person in persons:
        if person.get("relation_to_declarant") == "self" and person.get("id") is None:
            pname = person["name"].replace("Aurelius", "Aur.")
            for i, dec_name in enumerate(declarant_names):
                dname = dec_name.strip().replace("Aurelius", "Aur.")
                if pname.startswith(dname) or dname.startswith(pname) or dname in pname or person["name"] in dname:
                    person["id"] = declarant_ids[i]
                    break
        if person.get("id") is None:
            person["id"] = f"{household_id}-{get_type(person['role'])}{id_index}"
            id_index += 1


def find_person(relation: str, persons: list[dict]) -> list[dict]:
    return [p for p in persons if p.get("relation_to_declarant") and relation in p["relation_to_declarant"]]


def _filter_siblings(existing: list[str], sibling_ids: list[str]) -> None:
    for ex in existing:
        if ex in sibling_ids:
            sibling_ids.remove(ex)


def update_ids(person: dict, related: list[dict], relationship: str, question_mark: bool = False) -> None:
    """Bidirectional link writes with '?'-suffix uncertainty (persons.py:437-477)."""
    related_id = related[0]["id"]
    person_id = person["id"]
    if question_mark:
        related_id += "?"
        person_id += "?"
    if relationship == "father":
        person["father"] = related_id
        related[0]["children"].append(person_id)
    if relationship == "mother":
        person["mother"] = related_id
        related[0]["children"].append(person_id)
    if relationship == "spouse":
        person["spouse"] = related_id
        related[0]["spouse"] = person_id
    if relationship == "siblings":
        sib_ids = [p["id"] for p in related]
        _filter_siblings(person["siblings"], sib_ids)
        if question_mark:
            sib_ids = [s + "?" for s in sib_ids]
        person["siblings"].extend(sib_ids)
        for sib in related:
            sib["siblings"].append(person_id)
    if relationship == "children":
        for child in related:
            child_id = child["id"] + ("?" if question_mark else "")
            person["children"].append(child_id)
            if person["sex"] == "male":
                child["father"] = person_id
            if person["sex"] == "female":
                child["mother"] = person_id
            if person["sex"] is None:  # assumed father (persons.py:475-476)
                child["father"] = person_id


def _remove_declarant_entry(persons: list[dict], key: str) -> None:
    for person in persons:
        for item in person[key]:  # live-list iteration, mirroring :514-518
            if "declarant" in item:
                person[key].remove(item)


def set_relationship_ids_based_on_declarant(persons: list[dict]) -> None:
    """Declarant-relative defaulting (persons.py:479-512)."""
    # the links written below never touch relation_to_declarant, so the
    # members carrying one are collected once for every lookup
    related = [p for p in persons if p.get("relation_to_declarant")]
    for declarant in find_person("self", related):
        father = find_person("father", related)
        if father:
            update_ids(declarant, father, "father")
        mother = find_person("mother", related)
        if mother:
            update_ids(declarant, mother, "mother")
        wife = find_person("wife", related)
        if wife:
            update_ids(declarant, wife, "spouse", "probably" in wife[0]["relation_to_declarant"])
        husband = find_person("husband", related)
        if husband:
            update_ids(declarant, husband, "spouse")
        siblings = find_person("brother", related) + find_person("sister", related)
        if siblings:
            update_ids(declarant, siblings, "siblings")
            _remove_declarant_entry(siblings, "siblings")
        children = find_person("son", related) + find_person("daughter", related) + find_person("son or daughter", related)
        if children:
            update_ids(declarant, children, "children")
            _remove_declarant_entry(children, "children")


_RELWORDS = (
    r"(wife \(\?\)|full sister and wife|wife and sister|sister and wife|wife and full sister"
    r"|sister and divorced wife|wife|sister|brother of the father|husband|brother|relative"
    r"|son|daughter|child|mother|br\.)"
)
_REL_TEMPLATES = [
    r",\s*" + _RELWORDS + r"\s*of\s*[^\[]*\[*\s*nos*\.\s*(?:{})\s*\]\?*(.*brother)*",
    r",*\s*" + _RELWORDS + r"\s*of\s*[^\[]*\[*\s*nos*\.\s*(?:{})\s*\]\?*(.*brother)*",
    r",\s*" + _RELWORDS + r"\s*of\s*[^\[]*\(*\s*nos*\.\s*(?:{})\s*\)\?*(.*brother)*",
    r",*\s*" + _RELWORDS + r"\s*of\s*[^\[]*\(*\s*nos*\.\s*(?:{})\s*\)\?*(.*brother)*",
    r",\s*" + _RELWORDS + r"\s*of\s*[^\[]*no\.[{}]\?*(.*brother)*",
]
_REL_NOS = (
    r"[,]\s*(full sister and wife|wife and sister|sister and wife|wife and full sister"
    r"|sister and divorced wife|wife|sister|brother of the father|husband|brother|relative"
    r"|son|daughter|child|mother|br\.)\s*of\s*[^\[]*nos\. [{}]\?*"
)
_REL_NOS_AND = (
    r"[,]\s*(full sister and wife|wife and sister|sister and wife|wife and full sister"
    r"|sister and divorced wife|wife|sister|brother of the father|husband|brother|relative"
    r"|son|daughter|child|mother|br\.)\s*of\s*[^\[]*nos\. [\[\d|l]\?* and]* [{}]\?*"
)
_REL_FM1 = r"(s\.\/d\.|s\.|d\.|daughter|child|son).*?\[*\s*nos*\.\s*(?:{})\s*\]\?*"
_REL_FM2 = r"(s\.\/d\.|s\.|d\.|daughter|child|son).*?\(*\s*nos*\.\s*(?:{})\s*\)\?*"


def _set_specific_relation(person, by_person, relation, ref_index, question_mark=False):
    """Relation-word → link-type dispatch (persons.py:520-539)."""
    if relation in ("wife and sister", "sister and wife", "wife and full sister",
                    "sister and divorced wife", "wife her brother", "full sister and wife"):
        update_ids(person, [by_person], "spouse", question_mark)
        update_ids(person, [by_person], "siblings")
        _remove_reference_num_entry(by_person, ref_index, "siblings")
    elif relation in ("wife", "husband", "wife (?)"):
        update_ids(person, [by_person], "spouse", question_mark)
    elif relation in ("sister", "brother", "br."):
        update_ids(person, [by_person], "siblings")
        _remove_reference_num_entry(by_person, ref_index, "siblings")
    elif relation in ("son", "daughter", "child"):
        update_ids(person, [by_person], "children", question_mark)
        _remove_reference_num_entry(by_person, ref_index, "children")
    elif relation in ("mother", "father"):
        update_ids(person, [by_person], relation, question_mark)


@lru_cache(maxsize=512)
def _rel_pattern(tmpl: str, fill: str):
    """Formatted+compiled cascade pattern, memoized per (template, index) —
    avoids re-formatting and re-cache lookups in the hot kinship loop."""
    return re.compile(tmpl.format(fill), re.IGNORECASE)


def set_relations(person, by_person, ref_index, question_mark=False):
    """9-pattern relation cascade (persons.py:542-633)."""
    fill = "1|l" if ref_index == 1 else str(ref_index)
    data = by_person["data"]
    for tmpl in _REL_TEMPLATES:
        m = _rel_pattern(tmpl, fill).search(data)
        if m:
            relation = m.group(1)
            if relation:
                if len(m.groups()) > 1 and m.group(2):
                    relation += m.group(2).lower()
                _set_specific_relation(person, by_person, relation, ref_index, question_mark)
            return
    for tmpl in (_REL_NOS, _REL_NOS_AND):
        m = _rel_pattern(tmpl, fill).search(data)
        if m:
            _set_specific_relation(person, by_person, m.group(1).lower(), ref_index, question_mark)
            return
    for tmpl in (_REL_FM1, _REL_FM2):
        m = _rel_pattern(tmpl, fill).search(data)
        if m:
            relation = m.group(1).lower()
            if relation.startswith("s"):
                _set_specific_relation(person, by_person, "son", ref_index, question_mark)
            if relation.startswith("d"):
                _set_specific_relation(person, by_person, "daughter", ref_index, question_mark)
            if relation.startswith("child"):
                _set_specific_relation(person, by_person, "daughter", ref_index, question_mark)
            return


_NUM_AND = re.compile(r"(?:nos\. )(\d\?* and \d\?*)", re.IGNORECASE)
_ENTRY_NUM_AND = re.compile(r"(?:nos\. )(\d and \d)", re.IGNORECASE)
_ENTRY_NUM = re.compile(r"(nos\. [\d|l]|\[no\. *[\d|l]\?*\])", re.IGNORECASE)


def _remove_reference_num_entry(by_person, ref_index, key):
    """Drop textual 'no. N' entries superseded by resolved ids (persons.py:648-666)."""
    for item in by_person[key]:  # live-list iteration, as in the reference
        m = _ENTRY_NUM_AND.search(item)
        if m:
            if str(ref_index) in m.group(1).strip().split(" and "):
                by_person[key].remove(item)
        else:
            for match in _ENTRY_NUM.findall(item):
                value = match.strip()
                if ref_index == 1:
                    if "1" in value or "l" in value:
                        by_person[key].remove(item)
                elif str(ref_index) in value:
                    by_person[key].remove(item)


@lru_cache(maxsize=64)
def _number_ref_pattern(ref_no: int):
    """The 'no. N' pattern for ``ref_no`` (OCR 'l' also stands for 1) and
    the literals one of which every match of it contains."""
    fill = f"{ref_no}|l" if ref_no == 1 else str(ref_no)
    pat = re.compile(
        r"\[*\s*nos*\.\s*({0})\s*\]\?*|\(*\s*nos*\.\s*({0})\s*\)\?*|no\.({0}\?*)".format(fill),
        re.IGNORECASE,
    )
    return pat, ("1", "l", "L") if ref_no == 1 else (str(ref_no),)


_NUMBER_REF = re.compile(r"nos*\.", re.IGNORECASE)


def _number_ref_index(persons: list[dict]) -> list[tuple]:
    """``(position, data, tail, "nos. A and B" values or None)`` for each
    member that can hold a number reference. Every pattern below contains
    a match of ``_NUMBER_REF``, and a referenced number follows it, so it
    lies in ``tail``, the text after the first such match (two matches
    of ``_NUMBER_REF`` cannot overlap). ``_NUM_AND`` does not depend on
    ``ref_no``."""
    index = []
    for position, person in enumerate(persons, 1):
        data = person["data"]
        ref = _NUMBER_REF.search(data)
        if ref:
            m = _NUM_AND.search(data)
            and_values = m.group(1).strip().split(" and ") if m else None
            index.append((position, data, data[ref.end():], and_values))
    return index


def _number_references(ref_no: int, index: list[tuple]) -> list:
    ref = str(ref_no)
    pat, literals = _number_ref_pattern(ref_no)
    indexes: list = []
    for position, data, tail, and_values in index:
        if and_values is not None:
            indexes.extend(position for val in and_values if val == ref)
            continue
        if not any(lit in tail for lit in literals):
            continue
        m = pat.search(data)
        if m:
            value = m.group(1) or m.group(2) or m.group(3)
            if value.startswith("l"):
                value = "1"
            if value == ref:
                indexes.append(f"{position}?" if "?" in m.group(0) else position)
    return indexes


def find_number_reference(ref_no: int, persons: list[dict]):
    """Members whose text references 'no. N' — OCR 'l'≈'1' (persons.py:691-728)."""
    return _number_references(ref_no, _number_ref_index(persons))


def set_relationship_ids(persons: list[dict]) -> None:
    """Full within-household resolution (persons.py:669-688)."""
    set_relationship_ids_based_on_declarant(persons)
    index = _number_ref_index(persons)
    if not index:
        return
    for ref_no, person in enumerate(persons, 1):
        for ref in _number_references(ref_no, index):
            question_mark = isinstance(ref, str)
            val = int(str(ref).rstrip("?"))
            set_relations(person, persons[val - 1], ref_no, question_mark)


def add_declarant_as_person(household_id, dec_line, declarant_names, declarant_ids, persons) -> bool:
    """Synthesize missing declarant rows (persons.py:731-769)."""
    if find_person("self", persons) or not isinstance(dec_line, str):
        return False
    added = False
    lines = dec_line.split(";")
    for index, dec_name in enumerate(declarant_names):
        line = lines[index].lstrip("and") if index < len(lines) else dec_line
        person = {
            "household_id": household_id,
            "id": declarant_ids[index],
            "name": dec_name,
            "age": get_age(line),
            "sex": get_sex(line, "F"),
            "occupation": get_occupation(line),
            "father": get_father(line),
            "mother": get_mother(line),
            "paternal_grandfather": get_paternal_grandfather(line),
            "maternal_grandfather": get_maternal_grandfather(line),
            "spouse": get_spouse(line),
            "siblings": get_siblings(line),
            "children": [],
            "role": "family member",
            "relation_to_declarant": "self",
            "owner": None,
            "data": dec_line,
        }
        persons.insert(0, person) if persons else persons.append(person)
        added = True
    return added


def extract_persons_for_household(household: dict) -> list[dict]:
    """Stage-B lifecycle for ONE household row (persons.py:783-800)."""
    household_id = household["household_number"]
    dec_ids = list(household.get("declarant_id") or [])
    dec_names = list(household.get("declarant_name_parsed") or [])

    persons: list[dict] = []
    family = parse_person(household_id, list(household.get("name_of_family_members") or []), "F")
    set_personal_ids(household_id, dec_ids, dec_names, family)
    set_relationship_ids(family)
    if add_declarant_as_person(household_id, household.get("declarant_name"), dec_names, dec_ids, family):
        set_relationship_ids_based_on_declarant(family)
    persons.extend(family)

    non_kin = parse_person(household_id, list(household.get("name_of_non_family_members") or []), "K")
    set_personal_ids(household_id, dec_ids, dec_names, non_kin)
    set_relationship_ids(non_kin)
    persons.extend(non_kin)

    slaves = parse_person(household_id, list(household.get("slaves") or []), "S")
    set_personal_ids(household_id, dec_ids, dec_names, slaves)
    persons.extend(slaves)

    for p in persons:
        p.pop("data", None)
    return [{k: p.get(k) for k in PERSON_COLUMNS} for p in persons]
