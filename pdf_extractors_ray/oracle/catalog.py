"""Catalog line state machine (mobil-oil family).

Reimplements the ordered-fold semantics of
``mobil-oil/mobil-oil-extractor.py:31-121`` (``parse_lines``) and the
page-banner prefix strip (``:134-144`` ``remove_duplicate_lines``) over one
conversation's ordered turn texts.

Carried state: ``(manufacturer, year, model, engine, oils, valid)`` with a
one-line lookahead for the manufacturer rule (``:50-51``). A row is emitted
each time context closes (flush-on-transition ``:53-54,65-66,78-79,100`` and
a trailing flush at end of conversation, ``:118-119``).

Divergences (documented, deliberate):
- the reference's per-record ``list(set(oils))`` is hash-order-unstable
  across processes (``:54``); we canonicalize to ``sorted(set(oils))``
  (SURVEY.md §7.5 #2);
- the reference emits the fitz page number; our input unit is the transcript
  turn, so rows carry ``ref_turn`` = the ``turn_idx`` of the emitting line;
- an "(Electric/Gas)" line after a model but before any engine is ignored
  (the engine stays None). The reference's branch (:96-109) appends it to
  the engine, which here would be ``None + str``: a ``TypeError`` that sinks
  the whole conversation's fold. Its source is not in the tree, so whether
  it raises there too is unchecked.

NBSP semantics: the reference's PDF text extraction yields non-breaking
spaces (U+00A0), and its string handling keys on them — manufacturer/year
``split("\xa0")`` (:56,:67), engine ``replace("\xa0","")`` (:97), NBSP
bytes inside two boilerplate literals (:15-16). Reproduced byte-for-byte;
verified by the differential tests against the reference's own code
(tests/test_reference_differential.py).
"""

from __future__ import annotations

import re

BANNER = "FILTERS FOR PASSENGER CARS AND LIGHT TRUCKS/ FILTRES POUR VOITURES PARTICULIERES ET"

# boilerplate bank (mobil-oil-extractor.py:6-29): literal lines + startswith
# prefixes that the parser must skip
_SKIP_LITERALS = frozenset(
    {
        "MANUFACTURER-MODEL-ENGINE",
        "FABRICANT-MODELE-MOTEUR",
        "FABRICANTE-MODELO-MOTOR",
        "Oil",
        BANNER,
        "VEHICULES UTILITAIRES LEGERS/ FILTROS PARA AUTOMOVILES Y CAMIONES LIGEROS",
        "Voir las page 2 pour une explication des renvois en bas de la page.",
        "Consulte la página 2 para obtener una explicación de las nota en la parte inferior de la página",
        # NBSP (\xa0) bytes verbatim from the reference source (:15-16) —
        # the PDF extractor emits non-breaking spaces, and the reference's
        # string handling keys on them (see also the splits/strip below)
        "equipped with a Hengst filter housing cap, using AC-Delco # PF2257G. Synthetic Oil Application. Premium filter recommended.\xa0\xa0\xa0 568 Supplied aftermarket version GM O-ring #12577653",
        "only fits 2004 and later Cadillac, Chevrolet, GMC V6 engines. Synthetic Oil Application. Premium Filter Recommended.\xa0\xa0\xa0",
    }
)
_SKIP_PREFIXES = (
    "3 Availability limited to existing inventory.",
    "1 25 PSI by-pass valve Oil Filter",
    "threaded engine stud.",
    "574 Models without engine oil cooler.",
    "threads - Only use on VIN X - Sedan models",
    "Recommended.",
    "Filter recommended.",
    "Premium Filter Recommended.",
    "550 Synthetic Oil Application.",
    "For vehicles where the filter housing cap has a center post.",
)

RE_MANUFACTURER = re.compile(r"^[A-Z ]{2,}$|([A-Z ]{2,})\W\(cont'd\)")
RE_YEAR = re.compile(r"^\d{4}$|(^\d{4})\W\(cont'd\)$")
RE_MODEL = re.compile(r"^[A-Z0-9a-z\-\s\(\)]+$")
RE_MODEL_SAAB = re.compile(r"^[A-Z0-9a-z\-\s\(\)\.]+$")
RE_ENGINE = re.compile(r"^[A-Za-z0-9\s\.\(\)\/\-\:\,]+$")
RE_OILCODE = re.compile(r"M1C*-\d+\w|F\d{5}|Pri\.\sF\d{5}|Sec\.\sL\/F|w\/\sOil\sCooler\sM1C*-\d+\w")
_ELECTRIC_GAS = ("(Electric/Gas)", "(Electric/Gas) (Mexico)", "(Electric/Gas) (Canada)")


def is_boilerplate_line(line: str) -> bool:
    """True when the parser body must skip the line (inverse of the
    reference's ``valid_line``, mobil-oil-extractor.py:6-29)."""
    return line in _SKIP_LITERALS or line.startswith(_SKIP_PREFIXES)


OUTPUT_COLUMNS = ["ref_turn", "manufacturer", "year", "model", "engine", "oils"]


class CatalogMachine:
    """The catalog state machine with explicit, resumable state.

    Carried state: ``started`` (page banner seen — the prefix strip of
    ``remove_duplicate_lines``, :134-144), ``valid`` (the ``Oil`` gate,
    :111-112) and the record context ``(manufacturer, year, model, engine,
    oils)``. ``feed`` consumes an ordered slice of lines (one-line
    lookahead supplied for the final line), so the same machine drives the
    whole-conversation fold AND the salted windows' heads and tails
    (stages/salted.py).
    """

    def __init__(self, started: bool = False, valid: bool = False):
        self.started = started
        self.valid = valid
        self.manufacturer = self.year = self.model = self.engine = None
        self.oils: list[str] = []
        self.rows: list[dict] = []

    def context_complete(self) -> bool:
        return bool(self.manufacturer and self.model and self.engine and self.oils)

    def emit(self, ref_turn: int) -> None:
        self.rows.append(
            {
                "ref_turn": int(ref_turn),
                "manufacturer": self.manufacturer,
                "year": self.year,
                "model": self.model,
                "engine": self.engine,
                "oils": sorted(set(self.oils)),
            }
        )

    def flush_transition(self, ref_turn: int) -> None:
        """The flush+reset the manufacturer/year rules perform (:52-59)."""
        if self.context_complete():
            self.emit(ref_turn)
        self.model = self.engine = None
        self.oils = []

    def feed(self, lines: list[str], idxs: list[int], lookahead: str = "") -> None:
        n = len(lines)
        for i, raw in enumerate(lines):
            line = raw.strip()
            if not self.started:
                if line == BANNER:
                    self.started = True
                else:
                    continue
            if self.valid and not is_boilerplate_line(line):
                nxt = lines[i + 1].strip() if i + 1 < n else lookahead
                # manufacturer: ALL-CAPS line whose next line is a year
                # (:50-61); the reference splits on NBSP ("\xa0" — the PDF
                # extractor's space), NOT on ASCII space
                if RE_MANUFACTURER.match(line) and RE_YEAR.match(nxt):
                    self.flush_transition(idxs[i])
                    self.manufacturer = line.split("\xa0")[0]
                    continue
                # year (:63-71)
                if RE_YEAR.match(line):
                    self.flush_transition(idxs[i])
                    self.year = line.split("\xa0")[0]
                    continue
                # model — SAAB admits dots in the model regex (:74-93)
                model_re = RE_MODEL_SAAB if self.manufacturer == "SAAB" else RE_MODEL
                if model_re.match(line) and self.manufacturer and not RE_OILCODE.match(line):
                    if self.model and self.engine and self.oils:
                        self.emit(idxs[i])
                    self.model = line
                    self.engine = None
                    self.oils = []
                    continue
                # engine / oil-code branch (:96-109); engines space-stripped
                if RE_ENGINE.match(line) and self.model:
                    # NBSP-strip, not space-strip (reference :97)
                    stripped = line.replace("\xa0", "")
                    if not RE_OILCODE.match(stripped):
                        if self.engine is not None and stripped not in _ELECTRIC_GAS:
                            self.emit(idxs[i])
                            self.oils = []
                        if stripped not in _ELECTRIC_GAS:
                            self.engine = stripped
                        elif self.engine is not None:
                            self.engine = self.engine + " " + stripped
                    else:
                        self.oils.extend(RE_OILCODE.findall(stripped))
                    continue
            if line == "Oil":  # validity gate (:111-112)
                self.valid = True

    def finish(self, last_idx: int) -> None:
        """Trailing flush at end of conversation (:118-119)."""
        if self.model and self.engine and self.oils:
            self.emit(last_idx)

    def state(self) -> dict:
        return {
            "started": self.started,
            "valid": self.valid,
            "manufacturer": self.manufacturer,
            "year": self.year,
            "model": self.model,
            "engine": self.engine,
            "oils": list(self.oils),
        }

    def load_state(self, state: dict) -> None:
        self.started = state["started"]
        self.valid = state["valid"]
        self.manufacturer = state["manufacturer"]
        self.year = state["year"]
        self.model = state["model"]
        self.engine = state["engine"]
        self.oils = list(state["oils"])


def extract_catalog_conv(texts: list[str], turn_idxs: list[int]) -> list[dict]:
    """Run the catalog state machine over one conversation, in turn order."""
    machine = CatalogMachine()
    machine.feed(list(texts), list(turn_idxs))
    machine.finish(turn_idxs[-1] if turn_idxs else 0)
    return machine.rows
