r"""Vectorized invoice field extraction (actor-pool stage).

The reference applies 13 ``re.search`` patterns per OCR fragment
(``nordic-logistics-invoice/nordic-invoice.py:8-23,103-115``). Here the
whole pattern bank runs as Arrow RE2 kernels (``pyarrow.compute
.extract_regex``) over the ``text`` column — one vectorized pass per field
per batch, zero Python-per-row work. The stage is a callable class so the
pattern bank is prepared once per actor (``__init__``), not per batch
(SURVEY.md §2.3 ST6).

RE2 is equivalent to the reference's Python ``re`` for this bank (no
lookbehind/backtracking in these patterns) once ``\s`` is widened to cover
NBSP (RE2's ``\s`` is ASCII-only; Python's matches U+00A0); the unit tests
compare this stage against the pure-Python oracle on every fixture,
including an NBSP one (SURVEY.md §2.8 equivalence rule).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from ..oracle.invoice import PATTERNS

FIELD_PREFIX = "f:"


def _re2_named(pattern: str) -> str:
    """Name the single capturing group ``v`` (extract_regex needs names)."""
    # every pattern in the bank has exactly one unnamed capturing group;
    # inner groups are all non-capturing "(?:"
    out, i, done = [], 0, False
    while i < len(pattern):
        ch = pattern[i]
        if ch == "\\":
            out.append(pattern[i : i + 2])
            i += 2
            continue
        if ch == "(" and not done and not pattern.startswith("(?", i):
            out.append("(?P<v>")
            done = True
        else:
            out.append(ch)
        i += 1
    return "".join(out)


# RE2's \s is ASCII-only while Python re's \s also matches Unicode
# whitespace — NBSP (U+00A0) in particular, which this corpus's PDF text
# carries (the catalog family splits on NBSP bytes). Widen \s so the
# vectorized bank matches the Python oracle on NBSP-separated fields.
RE2_PATTERNS = {
    name: _re2_named(p).replace(r"\s", r"[\s\x{00A0}]")
    for name, p in PATTERNS.items()
}


class InvoiceFieldExtractor:
    """map_batches actor: adds one ``f:<field>`` column per bank pattern."""

    def __init__(self) -> None:
        self.patterns = dict(RE2_PATTERNS)

    def __call__(self, batch: pa.Table) -> pa.Table:
        text = batch["text"]
        # lost-anchor re-prefix quirk (nordic-invoice.py:69-70)
        prefixed = pc.binary_join_element_wise(
            pa.array(["Order No."] * len(text), text.type), text, ""
        )
        text = pc.if_else(pc.starts_with(text, ":"), prefixed, text)
        for name, pat in self.patterns.items():
            extracted = pc.extract_regex(text, pat)
            batch = batch.append_column(FIELD_PREFIX + name, pc.struct_field(extracted, "v"))
        return batch
