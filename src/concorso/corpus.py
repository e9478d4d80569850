"""Data model for researchers, publications, and recruitment competitions.

Input files (one directory, fixed names unless paths are given explicitly):

* ``researchers.csv``: comma-separated with header
  ``id,gender,family_name,university_id,sds_id,rank,career_start_year,
  career_end_year,affiliation_history``. Gender is ``F``/``M``, rank is
  ``AST``/``ASO``/``FUL``, ``career_end_year`` may be empty (still active),
  and ``affiliation_history`` holds semicolon-separated ``year:university:sds``
  triples overriding the base affiliation for specific years (empty means
  the affiliation never changed).
* ``publications.jsonl``: one JSON object per line with fields ``id``,
  ``year``, ``subject_category``, ``citations``, and ``byline`` (ordered
  array of ``{"author": ..., "university": ...}``; either value may be null).
* ``competitions.jsonl``: one JSON object per line with fields ``id``,
  ``sds``, ``university``, ``year``, ``president``, ``members`` (4 ids),
  ``applicants``, ``winners``.
* ``taxonomy.csv``: comma-separated with header
  ``sds_id,uda_id,byline_convention`` where the convention is ``ALPHA`` or
  ``CONTRIB``.

Byline authors and competition applicants that do not resolve to roster
researchers are kept as opaque external keys: they shape fractional weights
and competition rosters but never receive scores. Committee members and
presidents, by contrast, must resolve.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from enum import Enum
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .errors import DanglingReference, DataError, DuplicateId, MalformedRecord

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


@dataclass
class SdsRecord:
    """One fine-grained field (SDS) with its discipline (UDA) and convention."""

    sds_id: str
    uda_id: str
    convention: Convention


@dataclass
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
        if not self.active_in(year):
            return None
        hit = None
        for y, uni, sds in self.affiliations:
            if y == year:
                hit = (uni, sds)
        return hit if hit is not None else (self.university_id, self.sds_id)

    def timeline(self, lo: int, hi: int) -> tuple[tuple[str, str] | None, ...]:
        """``affiliation_in(year)`` for each year from lo to hi, in one pass."""
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


@dataclass
class BylineEntry:
    author: str | None  # researcher id, opaque external key, or unknown
    university: str | None = None


@dataclass
class Publication:
    id: str
    year: int
    subject_category_id: str
    citations: int
    byline: list[BylineEntry]

    def position_of(self, researcher_id: str) -> int | None:
        for i, entry in enumerate(self.byline):
            if entry.author == researcher_id:
                return i
        return None


@dataclass
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
    """Immutable-after-load container for every entity plus the windows."""

    researchers: dict[str, Researcher] = field(default_factory=dict)
    publications: dict[str, Publication] = field(default_factory=dict)
    competitions: dict[str, Competition] = field(default_factory=dict)
    taxonomy: dict[str, SdsRecord] = field(default_factory=dict)
    productivity_window: tuple[int, int] = DEFAULT_PRODUCTIVITY_WINDOW
    collaboration_window: tuple[int, int] = DEFAULT_COLLABORATION_WINDOW
    _pubs_by_author: dict[str, list[Publication]] | None = field(
        default=None, init=False, repr=False, compare=False)

    @property
    def year_range(self) -> tuple[int, int]:
        return (min(self.productivity_window[0], self.collaboration_window[0]),
                max(self.productivity_window[1], self.collaboration_window[1]))

    def convention_for(self, sds_id: str) -> Convention:
        return self.taxonomy[sds_id].convention

    def publications_by_author(self, author_id: str) -> list[Publication]:
        if self._pubs_by_author is None:
            index: dict[str, list[Publication]] = {}
            for pub in self.publications.values():
                seen: set[str] = set()
                for entry in pub.byline:
                    if entry.author is not None and entry.author not in seen:
                        index.setdefault(entry.author, []).append(pub)
                        seen.add(entry.author)
            self._pubs_by_author = index
        return self._pubs_by_author.get(author_id, [])


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
    except (TypeError, ValueError):
        raise MalformedRecord(path, line_no, fieldname, f"expected integer, got {value!r}")


def _csv_rows(path: Path, columns: list[str]):
    """(line, row dict) for each record of a CSV file with a header."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        try:
            missing = [c for c in columns
                       if reader.fieldnames is None or c not in reader.fieldnames]
            if missing:
                raise MalformedRecord(path, 1, missing[0], "missing column in header")
            for row in reader:
                yield reader.line_num, row
        except csv.Error as exc:
            # DictReader.line_num stops at the last good record; its reader's
            # count includes the line that failed
            raise MalformedRecord(path, reader.reader.line_num, "-",
                                  f"invalid CSV: {exc}")


def _load_taxonomy(path: Path) -> dict[str, SdsRecord]:
    taxonomy: dict[str, SdsRecord] = {}
    for line, row in _csv_rows(path, TAXONOMY_COLUMNS):
        sds_id = (row["sds_id"] or "").strip()
        if not sds_id:
            raise MalformedRecord(path, line, "sds_id", "empty id")
        if sds_id in taxonomy:
            raise DuplicateId("sds", sds_id)
        conv_raw = (row["byline_convention"] or "").strip()
        try:
            convention = Convention(conv_raw)
        except ValueError:
            raise MalformedRecord(path, line, "byline_convention",
                                  f"expected ALPHA or CONTRIB, got {conv_raw!r}")
        taxonomy[sds_id] = SdsRecord(sds_id, (row["uda_id"] or "").strip(), convention)
    return taxonomy


def _parse_affiliations(raw: str, path, line_no: int) -> tuple[tuple[int, str, str], ...]:
    raw = (raw or "").strip()
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
        triples.append((year, parts[1], parts[2]))
    return tuple(sorted(triples))


def _load_researchers(path: Path) -> dict[str, Researcher]:
    researchers: dict[str, Researcher] = {}
    for line, row in _csv_rows(path, RESEARCHER_COLUMNS):
        rid = (row["id"] or "").strip()
        if not rid:
            raise MalformedRecord(path, line, "id", "empty id")
        if rid in researchers:
            raise DuplicateId("researcher", rid)
        try:
            gender = Gender(row["gender"].strip())
        except (AttributeError, ValueError):
            raise MalformedRecord(path, line, "gender",
                                  f"expected F or M, got {row.get('gender')!r}")
        try:
            rank = Rank(row["rank"].strip())
        except (AttributeError, ValueError):
            raise MalformedRecord(path, line, "rank",
                                  f"expected AST, ASO or FUL, got {row.get('rank')!r}")
        start = _parse_int(row["career_start_year"], path, line, "career_start_year")
        end_raw = (row["career_end_year"] or "").strip()
        end = _parse_int(end_raw, path, line, "career_end_year") if end_raw else None
        researchers[rid] = Researcher(
            id=rid,
            gender=gender,
            family_name=row["family_name"],
            university_id=(row["university_id"] or "").strip(),
            sds_id=(row["sds_id"] or "").strip(),
            rank=rank,
            career_start_year=start,
            career_end_year=end,
            affiliations=_parse_affiliations(row["affiliation_history"], path, line),
        )
    return researchers


def _jsonl_records(path: Path):
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
            yield line_no, record


def _record_field(record: dict, key: str, path, line_no: int):
    if key not in record:
        raise MalformedRecord(path, line_no, key, "missing field")
    return record[key]


def _coerce_int(value, path, line_no: int, key: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise MalformedRecord(path, line_no, key, f"expected integer, got {value!r}")
    return value


def _coerce_str_list(value, path, line_no: int, key: str) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise MalformedRecord(path, line_no, key, "expected a list of strings")
    return list(value)


def _load_publications(path: Path) -> dict[str, Publication]:
    publications: dict[str, Publication] = {}
    for line_no, record in _jsonl_records(path):
        pid = _record_field(record, "id", path, line_no)
        if not isinstance(pid, str) or not pid:
            raise MalformedRecord(path, line_no, "id", "expected nonempty string")
        if pid in publications:
            raise DuplicateId("publication", pid)
        byline_raw = _record_field(record, "byline", path, line_no)
        if not isinstance(byline_raw, list):
            raise MalformedRecord(path, line_no, "byline", "expected a list")
        byline = []
        for entry in byline_raw:
            if not isinstance(entry, dict):
                raise MalformedRecord(path, line_no, "byline", "entries must be objects")
            author = entry.get("author")
            university = entry.get("university")
            if author is not None and not isinstance(author, str):
                raise MalformedRecord(path, line_no, "byline", "author must be string or null")
            if university is not None and not isinstance(university, str):
                raise MalformedRecord(path, line_no, "byline", "university must be string or null")
            byline.append(BylineEntry(author=author, university=university))
        publications[pid] = Publication(
            id=pid,
            year=_coerce_int(_record_field(record, "year", path, line_no), path, line_no, "year"),
            subject_category_id=str(_record_field(record, "subject_category", path, line_no)),
            citations=_coerce_int(_record_field(record, "citations", path, line_no),
                                  path, line_no, "citations"),
            byline=byline,
        )
    return publications


def _load_competitions(path: Path) -> dict[str, Competition]:
    competitions: dict[str, Competition] = {}
    for line_no, record in _jsonl_records(path):
        cid = _record_field(record, "id", path, line_no)
        if not isinstance(cid, str) or not cid:
            raise MalformedRecord(path, line_no, "id", "expected nonempty string")
        if cid in competitions:
            raise DuplicateId("competition", cid)
        competitions[cid] = Competition(
            id=cid,
            sds_id=str(_record_field(record, "sds", path, line_no)),
            university_id=str(_record_field(record, "university", path, line_no)),
            year=_coerce_int(_record_field(record, "year", path, line_no), path, line_no, "year"),
            president=str(_record_field(record, "president", path, line_no)),
            members=_coerce_str_list(_record_field(record, "members", path, line_no),
                                     path, line_no, "members"),
            applicants=_coerce_str_list(_record_field(record, "applicants", path, line_no),
                                        path, line_no, "applicants"),
            winners=_coerce_str_list(_record_field(record, "winners", path, line_no),
                                     path, line_no, "winners"),
        )
    return competitions


def _load_utf8(loader, path: Path):
    """``loader(path)``, with bytes that are not UTF-8 reported by line.

    The text decoder fails a whole chunk ahead of the records parsed so far,
    so only then is the file read again, line by line in binary, for the
    first line that does not decode.
    """
    try:
        return loader(path)
    except UnicodeDecodeError as exc:
        with open(path, "rb") as fh:
            for line_no, raw in enumerate(fh, start=1):
                try:
                    raw.decode("utf-8")
                except UnicodeDecodeError:
                    break
        raise MalformedRecord(path, line_no, "-",
                              f"invalid UTF-8: {exc.reason}") from None


def load_corpus(
    paths: CorpusPaths | str | Path,
    productivity_window: tuple[int, int] = DEFAULT_PRODUCTIVITY_WINDOW,
    collaboration_window: tuple[int, int] = DEFAULT_COLLABORATION_WINDOW,
) -> Corpus:
    """Load and cross-link a corpus from its four input files.

    Raises MalformedRecord (also for bytes that are not UTF-8 and for
    unreadable CSV), DuplicateId, or DanglingReference. Unresolved
    committee and taxonomy references are collected across the whole corpus
    and reported together rather than one at a time. Invariant violations
    that are data (not parse failures) are left to ``validate_corpus``.
    """
    if not isinstance(paths, CorpusPaths):
        paths = CorpusPaths.in_dir(paths)
    for p in (paths.researchers, paths.publications, paths.competitions, paths.taxonomy):
        if not Path(p).exists():
            raise DataError(f"input file not found: {p}")

    taxonomy = _load_utf8(_load_taxonomy, Path(paths.taxonomy))
    researchers = _load_utf8(_load_researchers, Path(paths.researchers))
    publications = _load_utf8(_load_publications, Path(paths.publications))
    competitions = _load_utf8(_load_competitions, Path(paths.competitions))

    dangling: list[tuple[str, str]] = []
    for r in researchers.values():
        if r.sds_id not in taxonomy:
            dangling.append((r.sds_id, f"researcher {r.id}"))
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
    """Check every type invariant; violations are data, not failures."""
    report = ValidationReport()
    lo, hi = corpus.year_range

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
        if not lo <= pub.year <= hi:
            report.add("publication", pub.id,
                       f"year {pub.year} outside corpus range {lo}-{hi}")

    for comp in corpus.competitions.values():
        if len(comp.members) != 4:
            report.add("competition", comp.id,
                       f"committee size {1 + len(comp.members)} != 5 "
                       "(president plus 4 members required)")
        committee = comp.committee
        if len(set(committee)) != len(committee):
            report.add("competition", comp.id, "committee members are not distinct")
        for rid in committee:
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
        applicant_set = set(comp.applicants)
        for w in comp.winners:
            if w not in applicant_set:
                report.add("competition", comp.id, f"winner {w} is not an applicant")
        if not 1 <= len(comp.winners) <= 2:
            report.add("competition", comp.id,
                       f"{len(comp.winners)} winners (must be 1 or 2)")

    return report


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _affiliation_string(r: Researcher) -> str:
    return ";".join(f"{y}:{u}:{s}" for y, u, s in r.affiliations)


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

    with open(paths.taxonomy, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(TAXONOMY_COLUMNS)
        for rec in corpus.taxonomy.values():
            writer.writerow([rec.sds_id, rec.uda_id, rec.convention.value])

    with open(paths.researchers, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESEARCHER_COLUMNS)
        for r in corpus.researchers.values():
            writer.writerow([
                r.id, r.gender.value, r.family_name, r.university_id, r.sds_id,
                r.rank.value, r.career_start_year,
                "" if r.career_end_year is None else r.career_end_year,
                _affiliation_string(r),
            ])

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

    with open(paths.competitions, "w", encoding="utf-8") as fh:
        for comp in corpus.competitions.values():
            record = {
                "id": comp.id,
                "sds": comp.sds_id,
                "university": comp.university_id,
                "year": comp.year,
                "president": comp.president,
                "members": comp.members,
                "applicants": comp.applicants,
                "winners": comp.winners,
            }
            fh.write(json.dumps(record) + "\n")

    return paths
