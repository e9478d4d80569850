"""Data model for researchers, publications, and recruitment competitions.

Input files (one directory, fixed names):

* ``researchers.csv``: comma-separated with header
  ``id,gender,family_name,university_id,sds_id,rank,career_start_year,
  career_end_year,affiliation_history``. Gender is ``F``/``M``, rank is
  ``AST``/``ASO``/``FUL``, ``career_end_year`` may be empty (still active),
  and ``affiliation_history`` holds semicolon-separated ``year:university:sds``
  triples overriding the base affiliation for specific years (empty means
  the affiliation never changed). A family name or university is not blank,
  nor is the university or SDS of an override, and every SDS, base or
  override, is listed in ``taxonomy.csv``.
* ``publications.jsonl``: one JSON object per line with the string fields
  ``id`` and ``subject_category``, the integers ``year`` and ``citations``,
  and ``byline``, an ordered array of ``{"author": ..., "university": ...}``
  objects that each have both keys, each value a string or null.
* ``competitions.jsonl``: one JSON object per line with the string fields
  ``id``, ``sds``, ``university`` and ``president``, the integer ``year``,
  and the string arrays ``members`` (4 ids), ``applicants``, ``winners``.
  In both files an id is nonempty, a bool is not an integer, and a missing
  field or a value of another JSON type is a ``MalformedRecord``.
* ``taxonomy.csv``: comma-separated with header
  ``sds_id,uda_id,byline_convention`` where the convention is ``ALPHA`` or
  ``CONTRIB`` and the UDA is not blank.

In both CSV files a record with fewer fields than the header reads each
missing trailing field as empty, and a record with a field past the header
is a ``MalformedRecord`` naming the file and line.

Byline authors and competition applicants that do not resolve to roster
researchers are kept as opaque external keys: they shape fractional weights
and competition rosters but never receive scores. Committee members and
presidents, by contrast, must resolve. Publications of any year load and
validate: each reader keeps to its own window, so a publication outside both
windows is ignored, not rejected.

The record types (``SdsRecord``, ``Researcher``, ``Publication``,
``Competition`` and ``BylineEntry``) are slotted dataclasses: a corpus holds
one per field, researcher, publication, competition and byline position, and
a per-instance ``__dict__`` would be most of their memory. Byline entries
are also frozen, so a loaded or generated corpus shares one entry object
between every byline that names the same author at the same university.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from enum import Enum
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .errors import ConfigError, DanglingReference, DataError, DuplicateId, MalformedRecord

DEFAULT_PRODUCTIVITY_WINDOW = (2004, 2008)
DEFAULT_COLLABORATION_WINDOW = (2001, 2010)

RESEARCHER_COLUMNS = [
    "id", "gender", "family_name", "university_id", "sds_id", "rank",
    "career_start_year", "career_end_year", "affiliation_history",
]
TAXONOMY_COLUMNS = ["sds_id", "uda_id", "byline_convention"]


class Gender(str, Enum):
    FEMALE = "F"
    MALE = "M"


class Rank(str, Enum):
    ASSISTANT = "AST"
    ASSOCIATE = "ASO"
    FULL = "FUL"


class Convention(str, Enum):
    """How a field orders its bylines: alphabetically or by contribution."""

    ALPHABETICAL = "ALPHA"
    CONTRIBUTION = "CONTRIB"


@dataclass(slots=True)
class SdsRecord:
    """One fine-grained field (SDS) with its discipline (UDA) and convention."""

    sds_id: str
    uda_id: str
    convention: Convention


@dataclass(slots=True)
class Researcher:
    id: str
    gender: Gender
    family_name: str
    university_id: str
    sds_id: str
    rank: Rank
    career_start_year: int
    career_end_year: int | None = None
    # sparse per-year overrides of the base affiliation, sorted by year
    affiliations: tuple[tuple[int, str, str], ...] = ()

    def active_in(self, year: int) -> bool:
        if year < self.career_start_year:
            return False
        return self.career_end_year is None or year <= self.career_end_year

    def affiliation_in(self, year: int) -> tuple[str, str] | None:
        """(university, sds) for a career year, None outside the career."""
        return self.timeline(year, year)[0]

    def timeline(self, lo: int, hi: int) -> tuple[tuple[str, str] | None, ...]:
        """(university, sds) for each year from lo to hi, None outside the
        career; of two overrides for one year, the later one wins."""
        base = (self.university_id, self.sds_id)
        line = [base if self.active_in(year) else None
                for year in range(lo, hi + 1)]
        for year, uni, sds in self.affiliations:  # the last override wins
            if lo <= year <= hi and line[year - lo] is not None:
                line[year - lo] = (uni, sds)
        return tuple(line)

    def career_years_in(self, window: tuple[int, int]) -> int:
        lo = max(window[0], self.career_start_year)
        hi = window[1] if self.career_end_year is None else min(window[1], self.career_end_year)
        return max(0, hi - lo + 1)


@dataclass(frozen=True, slots=True)
class BylineEntry:
    """One byline position; immutable, so bylines may share it."""

    author: str | None  # researcher id, opaque external key, or unknown
    university: str | None = None


@dataclass(slots=True)
class Publication:
    id: str
    year: int
    subject_category_id: str
    citations: int
    byline: list[BylineEntry]


@dataclass(slots=True)
class Competition:
    id: str
    sds_id: str
    university_id: str
    year: int
    president: str
    members: list[str]
    applicants: list[str]
    winners: list[str]

    @property
    def committee(self) -> list[str]:
        return [self.president, *self.members]


@dataclass
class Corpus:
    """Every entity plus the windows; no record changes after load.

    It holds no derived index or cache: readers that need a lookup (the
    scoring pass, the feature index) build their own from these fields.
    The analysis pipeline empties ``publications`` once extraction has
    returned, since no later stage reads one and they are most of a
    corpus's memory.
    """

    researchers: dict[str, Researcher] = field(default_factory=dict)
    publications: dict[str, Publication] = field(default_factory=dict)
    competitions: dict[str, Competition] = field(default_factory=dict)
    taxonomy: dict[str, SdsRecord] = field(default_factory=dict)
    productivity_window: tuple[int, int] = DEFAULT_PRODUCTIVITY_WINDOW
    collaboration_window: tuple[int, int] = DEFAULT_COLLABORATION_WINDOW

    @property
    def year_range(self) -> tuple[int, int]:
        return (min(self.productivity_window[0], self.collaboration_window[0]),
                max(self.productivity_window[1], self.collaboration_window[1]))


@dataclass
class CorpusPaths:
    researchers: Path
    publications: Path
    competitions: Path
    taxonomy: Path

    @classmethod
    def in_dir(cls, directory: str | Path) -> CorpusPaths:
        d = Path(directory)
        return cls(
            researchers=d / "researchers.csv",
            publications=d / "publications.jsonl",
            competitions=d / "competitions.jsonl",
            taxonomy=d / "taxonomy.csv",
        )


@dataclass
class Violation:
    entity_type: str
    entity_id: str
    message: str


@dataclass
class ValidationReport:
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, entity_type: str, entity_id: str, message: str) -> None:
        self.violations.append(Violation(entity_type, entity_id, message))


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------

def _parse_int(value: str, path, line_no: int, fieldname: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise MalformedRecord(path, line_no, fieldname, f"expected integer, got {value!r}")


def _parse_enum(kind: type[Enum], row: dict[str, str], name: str, path, line_no: int):
    """The member of ``kind`` that ``row[name]`` names, surrounding blanks aside."""
    try:
        return kind(row[name].strip())
    except ValueError:
        *others, last = [member.value for member in kind]
        raise MalformedRecord(path, line_no, name,
                              f"expected {', '.join(others)} or {last}, got {row[name]!r}")


def _csv_rows(path: Path, columns: list[str]):
    """(line, row dict) for each record of a CSV file with a header; a
    missing trailing field reads as ``""``, a field past the header is a
    ``MalformedRecord``."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh, restval="")
        try:
            missing = [c for c in columns
                       if reader.fieldnames is None or c not in reader.fieldnames]
            if missing:
                raise MalformedRecord(path, 1, missing[0], "missing column in header")
            for row in reader:
                if None in row:  # DictReader files fields past the header under None
                    raise MalformedRecord(path, reader.line_num, "-",
                                          f"{len(row[None])} field(s) past the header")
                yield reader.line_num, row
        except csv.Error as exc:
            # DictReader.line_num stops at the last good record; its reader's
            # count includes the line that failed
            raise MalformedRecord(path, reader.reader.line_num, "-",
                                  f"invalid CSV: {exc}")


def _new_id(value: str, seen: dict, entity: str, path, line_no: int,
            name: str = "id") -> str:
    """``value``, the id of a record of ``entity`` read from field ``name``:
    a MalformedRecord when it is empty, a DuplicateId when ``seen`` holds it."""
    if not value:
        raise MalformedRecord(path, line_no, name, "empty id")
    if value in seen:
        raise DuplicateId(entity, value)
    return value


def _load_taxonomy(path: Path) -> dict[str, SdsRecord]:
    taxonomy: dict[str, SdsRecord] = {}
    for line, row in _csv_rows(path, TAXONOMY_COLUMNS):
        sds_id = _new_id(row["sds_id"].strip(), taxonomy, "sds", path, line, "sds_id")
        convention = _parse_enum(Convention, row, "byline_convention", path, line)
        uda_id = row["uda_id"].strip()
        if not uda_id:  # the audit keys its per-UDA rows by it
            raise MalformedRecord(path, line, "uda_id", "blank value")
        taxonomy[sds_id] = SdsRecord(sds_id, uda_id, convention)
    return taxonomy


def _parse_affiliations(raw: str, path, line_no: int) -> tuple[tuple[int, str, str], ...]:
    raw = raw.strip()
    if not raw:
        return ()
    triples = []
    for piece in raw.split(";"):
        piece = piece.strip()
        if not piece:
            continue
        parts = piece.split(":")
        if len(parts) != 3:
            raise MalformedRecord(path, line_no, "affiliation_history",
                                  f"expected year:university:sds, got {piece!r}")
        year = _parse_int(parts[0], path, line_no, "affiliation_history")
        university, sds = parts[1].strip(), parts[2].strip()
        if not (university and sds):
            raise MalformedRecord(path, line_no, "affiliation_history",
                                  f"blank university or SDS in {piece!r}")
        triples.append((year, university, sds))
    return tuple(sorted(triples))


def _load_researchers(path: Path) -> dict[str, Researcher]:
    researchers: dict[str, Researcher] = {}
    for line, row in _csv_rows(path, RESEARCHER_COLUMNS):
        rid = _new_id(row["id"].strip(), researchers, "researcher", path, line)
        gender = _parse_enum(Gender, row, "gender", path, line)
        rank = _parse_enum(Rank, row, "rank", path, line)
        for name in ("family_name", "university_id"):  # blanks would match each other
            if not row[name].strip():
                raise MalformedRecord(path, line, name, "blank value")
        start = _parse_int(row["career_start_year"], path, line, "career_start_year")
        end_raw = row["career_end_year"].strip()
        end = _parse_int(end_raw, path, line, "career_end_year") if end_raw else None
        researchers[rid] = Researcher(
            id=rid,
            gender=gender,
            family_name=row["family_name"],
            university_id=row["university_id"].strip(),
            sds_id=row["sds_id"].strip(),
            rank=rank,
            career_start_year=start,
            career_end_year=end,
            affiliations=_parse_affiliations(row["affiliation_history"], path, line),
        )
    return researchers


# the one JSON type of each field
PUBLICATION_FIELDS = {"id": str, "year": int, "subject_category": str,
                      "citations": int, "byline": list}
COMPETITION_FIELDS = {"id": str, "sds": str, "university": str, "year": int,
                      "president": str, "members": list, "applicants": list,
                      "winners": list}
# the Competition attribute of each competitions.jsonl field, in file order
COMPETITION_ATTRIBUTES = {
    name: {"sds": "sds_id", "university": "university_id"}.get(name, name)
    for name in COMPETITION_FIELDS}
_KIND_NAMES = {str: "a string", int: "an integer", list: "a list"}


def _jsonl_records(path: Path, fields: dict[str, type]):
    """(line, record) for each nonblank line whose record has each field of
    ``fields`` of exactly its type (a bool is not an int); a list other than
    ``byline`` holds strings. Each loader checks the ``id`` (``_new_id``), and
    the publication loader checks the byline entries."""
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise MalformedRecord(path, line_no, "-", f"invalid JSON: {exc.msg}")
            if not isinstance(record, dict):
                raise MalformedRecord(path, line_no, "-", "expected a JSON object")
            for name, kind in fields.items():
                value = record.get(name)  # None, never a kind, when missing
                if type(value) is not kind:
                    raise MalformedRecord(
                        path, line_no, name, "missing field" if name not in record
                        else f"expected {_KIND_NAMES[kind]}, got {value!r}")
                if kind is list and name != "byline" and not all(type(v) is str for v in value):
                    raise MalformedRecord(path, line_no, name, "expected a list of strings")
            yield line_no, record


def _load_publications(path: Path) -> dict[str, Publication]:
    publications: dict[str, Publication] = {}
    entries: dict[tuple[str | None, str | None], BylineEntry] = {}
    for line_no, record in _jsonl_records(path, PUBLICATION_FIELDS):
        pid = _new_id(record["id"], publications, "publication", path, line_no)
        byline = []
        for entry in record["byline"]:
            if type(entry) is not dict or "author" not in entry or "university" not in entry:
                raise MalformedRecord(path, line_no, "byline", "expected {author, university}")
            author, university = entry["author"], entry["university"]
            if not ((author is None or type(author) is str)
                    and (university is None or type(university) is str)):
                raise MalformedRecord(path, line_no, "byline", "expected strings or null")
            shared = entries.get((author, university))
            if shared is None:
                shared = entries[author, university] = BylineEntry(author, university)
            byline.append(shared)
        publications[pid] = Publication(pid, record["year"], record["subject_category"],
                                        record["citations"], byline)
    return publications


def _load_competitions(path: Path) -> dict[str, Competition]:
    competitions: dict[str, Competition] = {}
    for line_no, record in _jsonl_records(path, COMPETITION_FIELDS):
        cid = _new_id(record["id"], competitions, "competition", path, line_no)
        competitions[cid] = Competition(**{attr: record[name] for name, attr
                                           in COMPETITION_ATTRIBUTES.items()})
    return competitions


def _load_utf8(loader, path: Path):
    """``loader(path)``, with bytes that are not UTF-8 reported by line and a
    path that cannot be read as a file (missing, or a directory, say) as a
    DataError that names it: the one check that an input file exists.

    The text decoder fails a whole chunk ahead of the records parsed so far,
    so only then is the file read again, line by line in binary, for the
    first line that does not decode.
    """
    try:
        return loader(path)
    except OSError as exc:
        raise DataError(f"cannot read input file {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        with open(path, "rb") as fh:
            for line_no, raw in enumerate(fh, start=1):
                try:
                    raw.decode("utf-8")
                except UnicodeDecodeError:
                    break
        raise MalformedRecord(path, line_no, "-",
                              f"invalid UTF-8: {exc.reason}") from None


def check_windows(error=ConfigError, **windows: tuple[int, int]) -> None:
    """Raise ``error`` for a window whose start year is after its end year."""
    for name, (lo, hi) in windows.items():
        if lo > hi:
            raise error(f"{name} {lo}:{hi} is reversed")


def load_corpus(
    directory: str | Path,
    productivity_window: tuple[int, int] = DEFAULT_PRODUCTIVITY_WINDOW,
    collaboration_window: tuple[int, int] = DEFAULT_COLLABORATION_WINDOW,
) -> Corpus:
    """Load and cross-link a corpus from the four input files of a directory.

    Raises ConfigError for a reversed window, before any file is read;
    DataError for an input file that is missing or cannot be read,
    MalformedRecord (also for bytes that are not UTF-8 and for unreadable
    CSV), DuplicateId, or DanglingReference. Unresolved committee and
    taxonomy references are collected across the whole corpus and reported
    together rather than one at a time. Invariant violations that are data
    (not parse failures) are left to ``validate_corpus``.
    """
    check_windows(productivity_window=productivity_window,
                  collaboration_window=collaboration_window)
    paths = CorpusPaths.in_dir(directory)
    taxonomy = _load_utf8(_load_taxonomy, paths.taxonomy)
    researchers = _load_utf8(_load_researchers, paths.researchers)
    publications = _load_utf8(_load_publications, paths.publications)
    competitions = _load_utf8(_load_competitions, paths.competitions)

    dangling: list[tuple[str, str]] = []
    for r in researchers.values():
        if r.sds_id not in taxonomy:
            dangling.append((r.sds_id, f"researcher {r.id}"))
        for year, _, sds in r.affiliations:
            if sds not in taxonomy:
                dangling.append((sds, f"researcher {r.id} (affiliation {year})"))
    for comp in competitions.values():
        if comp.sds_id not in taxonomy:
            dangling.append((comp.sds_id, f"competition {comp.id}"))
        if comp.president not in researchers:
            dangling.append((comp.president, f"competition {comp.id} (president)"))
        for m in comp.members:
            if m not in researchers:
                dangling.append((m, f"competition {comp.id} (member)"))
    if dangling:
        raise DanglingReference(dangling)

    return Corpus(
        researchers=researchers,
        publications=publications,
        competitions=competitions,
        taxonomy=taxonomy,
        productivity_window=productivity_window,
        collaboration_window=collaboration_window,
    )


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def validate_corpus(corpus: Corpus) -> ValidationReport:
    """Check every type invariant; violations are data, not failures.

    Publication years are not checked against the windows, which only
    decide what each reader looks at.
    """
    report = ValidationReport()

    for r in corpus.researchers.values():
        if r.career_end_year is not None and r.career_end_year < r.career_start_year:
            report.add("researcher", r.id,
                       f"career ends {r.career_end_year} before it starts {r.career_start_year}")
        seen_years: set[int] = set()
        for year, _, _ in r.affiliations:
            if not r.active_in(year):
                report.add("researcher", r.id,
                           f"affiliation year {year} outside career interval")
            if year in seen_years:
                report.add("researcher", r.id,
                           f"conflicting affiliations for year {year}")
            seen_years.add(year)

    for pub in corpus.publications.values():
        if not pub.byline:
            report.add("publication", pub.id, "empty byline")
        if pub.citations < 0:
            report.add("publication", pub.id, f"negative citations {pub.citations}")

    for comp in corpus.competitions.values():
        if len(comp.members) != 4:
            report.add("competition", comp.id,
                       f"committee size {1 + len(comp.members)} != 5 "
                       "(president plus 4 members required)")
        for role, ids in (("committee members", comp.committee),
                          ("applicants", comp.applicants), ("winners", comp.winners)):
            if len(set(ids)) != len(ids):
                report.add("competition", comp.id, f"{role} are not distinct")
        for rid in comp.committee:
            r = corpus.researchers.get(rid)
            if r is None:
                continue  # load_corpus rejects unresolved committees
            if r.rank is not Rank.FULL:
                report.add("competition", comp.id,
                           f"committee member {rid} is not a full professor")
            elif r.sds_id != comp.sds_id:
                report.add("competition", comp.id,
                           f"committee member {rid} belongs to SDS {r.sds_id}, "
                           f"competition is in {comp.sds_id}")
        for a in comp.applicants:
            end = getattr(corpus.researchers.get(a), "career_end_year", None)
            if end is not None and end < comp.year:
                report.add("competition", comp.id, f"applicant {a}'s career ended in {end}")
        for w in comp.winners:
            if w not in comp.applicants:
                report.add("competition", comp.id, f"winner {w} is not an applicant")
        if not 1 <= len(comp.winners) <= 2:
            report.add("competition", comp.id,
                       f"{len(comp.winners)} winners (must be 1 or 2)")

    return report


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def write_table(path: str | Path, header, rows) -> None:
    """The one CSV writer: UTF-8 in the csv module's default dialect (CRLF
    line ends, a float as its repr, ``None`` as an empty field)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_lines(path: str | Path, records) -> None:
    """The one JSON-lines writer: UTF-8, one ``json.dumps`` (ASCII-escaped)
    of each record per line."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(record) + "\n" for record in records)


def _json_str(text: str | None) -> str:
    return "null" if text is None else encode_basestring_ascii(text)


def write_corpus(corpus: Corpus, directory: str | Path) -> CorpusPaths:
    """Write the corpus back to the four standard files.

    ``load_corpus`` reads back what was written, with one exception that
    ``json.dumps`` shares: a high surrogate followed by a low surrogate,
    stored as two code points (e.g. the id ``'\\ud800\\udc80'``), is written
    as two ``\\u`` escapes and read back as the one astral character they
    encode.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = CorpusPaths.in_dir(directory)

    write_table(paths.taxonomy, TAXONOMY_COLUMNS,
                ([rec.sds_id, rec.uda_id, rec.convention.value]
                 for rec in corpus.taxonomy.values()))
    write_table(paths.researchers, RESEARCHER_COLUMNS,
                ([r.id, r.gender.value, r.family_name, r.university_id, r.sds_id,
                  r.rank.value, r.career_start_year, r.career_end_year,
                  ";".join(f"{y}:{u}:{s}" for y, u, s in r.affiliations)]
                 for r in corpus.researchers.values()))

    # the largest file, so each line is formatted directly; the bytes equal
    # json.dumps of {"id", "year", "subject_category", "citations",
    # "byline": [{"author", "university"}, ...]}
    with open(paths.publications, "w", encoding="utf-8") as fh:
        for pub in corpus.publications.values():
            byline = ", ".join(
                f'{{"author": {_json_str(e.author)}, '
                f'"university": {_json_str(e.university)}}}'
                for e in pub.byline)
            fh.write(f'{{"id": {_json_str(pub.id)}, "year": {pub.year}, '
                     f'"subject_category": {_json_str(pub.subject_category_id)}, '
                     f'"citations": {pub.citations}, "byline": [{byline}]}}\n')

    write_lines(paths.competitions,
                ({name: getattr(comp, attr) for name, attr in COMPETITION_ATTRIBUTES.items()}
                 for comp in corpus.competitions.values()))
    return paths
