"""Loading, validation, and round-trip serialization of corpus files."""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from concorso.corpus import (
    BylineEntry,
    Competition,
    Convention,
    Corpus,
    CorpusPaths,
    Gender,
    Publication,
    Rank,
    Researcher,
    SdsRecord,
    load_corpus,
    validate_corpus,
    write_corpus,
)
from concorso.errors import (
    DanglingReference,
    DataError,
    DuplicateId,
    MalformedRecord,
)

RESEARCHER_HEADER = ("id,gender,family_name,university_id,sds_id,rank,"
                     "career_start_year,career_end_year,affiliation_history\n")
TAXONOMY_HEADER = "sds_id,uda_id,byline_convention\n"


def write_inputs(directory, researchers="", publications="", competitions="",
                 taxonomy="MAT-05,09,ALPHA\nFIS-01,02,CONTRIB\n"):
    (directory / "researchers.csv").write_text(RESEARCHER_HEADER + researchers)
    (directory / "publications.jsonl").write_text(publications)
    (directory / "competitions.jsonl").write_text(competitions)
    (directory / "taxonomy.csv").write_text(TAXONOMY_HEADER + taxonomy)
    return directory


THREE_RESEARCHERS = (
    "r1,F,Rossi,U1,MAT-05,AST,2000,,\n"
    "r2,M,Bianchi,U1,MAT-05,FUL,1990,,2006:U2:MAT-05\n"
    "r3,F,Verdi,U2,FIS-01,ASO,1995,2009,\n"
)
TWO_PUBLICATIONS = (
    '{"id": "p1", "year": 2005, "subject_category": "SC1", "citations": 12,'
    ' "byline": [{"author": "r1", "university": "U1"},'
    ' {"author": "r2", "university": "U1"},'
    ' {"author": "ext-smith", "university": null}]}\n'
    '{"id": "p2", "year": 2007, "subject_category": "SC2", "citations": 0,'
    ' "byline": [{"author": "r3", "university": "U2"}]}\n'
)


def test_empty_corpus_loads(tmp_path):
    corpus = load_corpus(write_inputs(tmp_path, taxonomy=""))
    assert corpus.researchers == {}
    assert corpus.publications == {}
    assert corpus.competitions == {}
    assert corpus.taxonomy == {}
    assert validate_corpus(corpus).ok


def test_hand_fixture_field_by_field(tmp_path):
    corpus = load_corpus(write_inputs(
        tmp_path, researchers=THREE_RESEARCHERS, publications=TWO_PUBLICATIONS))

    assert sorted(corpus.researchers) == ["r1", "r2", "r3"]
    r1 = corpus.researchers["r1"]
    assert r1 == Researcher("r1", Gender.FEMALE, "Rossi", "U1", "MAT-05",
                            Rank.ASSISTANT, 2000, None, ())
    r2 = corpus.researchers["r2"]
    assert r2.gender is Gender.MALE
    assert r2.rank is Rank.FULL
    assert r2.career_end_year is None
    assert r2.affiliations == ((2006, "U2", "MAT-05"),)
    r3 = corpus.researchers["r3"]
    assert r3.career_end_year == 2009
    assert r3.rank is Rank.ASSOCIATE

    assert sorted(corpus.publications) == ["p1", "p2"]
    p1 = corpus.publications["p1"]
    assert p1.year == 2005
    assert p1.subject_category_id == "SC1"
    assert p1.citations == 12
    assert p1.byline == [BylineEntry("r1", "U1"), BylineEntry("r2", "U1"),
                         BylineEntry("ext-smith", None)]
    p2 = corpus.publications["p2"]
    assert p2.citations == 0
    assert p2.byline == [BylineEntry("r3", "U2")]

    assert corpus.taxonomy["MAT-05"] == SdsRecord("MAT-05", "09", Convention.ALPHABETICAL)
    assert corpus.taxonomy["FIS-01"].convention is Convention.CONTRIBUTION
    assert validate_corpus(corpus).ok


def test_affiliation_helpers(tmp_path):
    corpus = load_corpus(write_inputs(tmp_path, researchers=THREE_RESEARCHERS))
    r2 = corpus.researchers["r2"]
    # override applies only to its own year, then reverts to the base record
    assert r2.affiliation_in(2005) == ("U1", "MAT-05")
    assert r2.affiliation_in(2006) == ("U2", "MAT-05")
    assert r2.affiliation_in(2007) == ("U1", "MAT-05")
    assert r2.affiliation_in(1989) is None

    r3 = corpus.researchers["r3"]
    assert r3.affiliation_in(2009) == ("U2", "FIS-01")
    assert r3.affiliation_in(2010) is None
    assert r3.active_in(1995) and not r3.active_in(1994)
    assert r3.career_years_in((2004, 2008)) == 5
    assert r3.career_years_in((2008, 2012)) == 2
    assert r3.career_years_in((2010, 2012)) == 0


def test_publication_position_of(tmp_path):
    corpus = load_corpus(write_inputs(
        tmp_path, researchers=THREE_RESEARCHERS, publications=TWO_PUBLICATIONS))
    p1 = corpus.publications["p1"]
    assert p1.position_of("r1") == 0
    assert p1.position_of("ext-smith") == 2
    assert p1.position_of("r3") is None


def test_publications_by_author_index(tmp_path):
    corpus = load_corpus(write_inputs(
        tmp_path, researchers=THREE_RESEARCHERS, publications=TWO_PUBLICATIONS))
    assert [p.id for p in corpus.publications_by_author("r1")] == ["p1"]
    assert [p.id for p in corpus.publications_by_author("ext-smith")] == ["p1"]
    assert corpus.publications_by_author("nobody") == []


def test_unknown_president_is_dangling(tmp_path):
    comp = ('{"id": "c1", "sds": "MAT-05", "university": "U1", "year": 2008,'
            ' "president": "r999", "members": ["r2", "r2", "r2", "r2"],'
            ' "applicants": ["r1"], "winners": ["r1"]}\n')
    with pytest.raises(DanglingReference) as err:
        load_corpus(write_inputs(tmp_path, researchers=THREE_RESEARCHERS,
                                 competitions=comp))
    assert err.value.problems == [("r999", "competition c1 (president)")]
    assert "r999" in str(err.value)


def test_dangling_references_are_collected(tmp_path):
    comp = ('{"id": "c1", "sds": "GEO-99", "university": "U1", "year": 2008,'
            ' "president": "r999", "members": ["r2", "r888", "r2", "r2"],'
            ' "applicants": ["r1", "ext-jones"], "winners": ["r1"]}\n')
    with pytest.raises(DanglingReference) as err:
        load_corpus(write_inputs(tmp_path, researchers=THREE_RESEARCHERS,
                                 competitions=comp))
    refs = sorted(ref for ref, _ in err.value.problems)
    # external applicants are legitimate; committee and taxonomy refs are not
    assert refs == ["GEO-99", "r888", "r999"]


def test_external_applicants_and_authors_allowed(tmp_path):
    comp = ('{"id": "c1", "sds": "MAT-05", "university": "U1", "year": 2008,'
            ' "president": "r2", "members": ["r1", "r1", "r1", "r1"],'
            ' "applicants": ["r1", "ext-jones"], "winners": ["r1"]}\n')
    corpus = load_corpus(write_inputs(tmp_path, researchers=THREE_RESEARCHERS,
                                      publications=TWO_PUBLICATIONS,
                                      competitions=comp))
    assert corpus.competitions["c1"].applicants == ["r1", "ext-jones"]


def test_duplicate_researcher_id(tmp_path):
    with pytest.raises(DuplicateId) as err:
        load_corpus(write_inputs(tmp_path, researchers=THREE_RESEARCHERS * 2))
    assert err.value.entity == "researcher"
    assert err.value.dup_id == "r1"


def test_duplicate_publication_id(tmp_path):
    with pytest.raises(DuplicateId):
        load_corpus(write_inputs(tmp_path, researchers=THREE_RESEARCHERS,
                                 publications=TWO_PUBLICATIONS * 2))


def test_malformed_gender_names_line_and_field(tmp_path):
    bad = "r9,X,Neri,U1,MAT-05,AST,2000,,\n"
    with pytest.raises(MalformedRecord) as err:
        load_corpus(write_inputs(tmp_path, researchers=THREE_RESEARCHERS + bad))
    assert err.value.field == "gender"
    assert err.value.line_no == 5  # header + three good rows
    assert "researchers.csv" in err.value.path


def test_malformed_year(tmp_path):
    bad = "r9,M,Neri,U1,MAT-05,AST,soon,,\n"
    with pytest.raises(MalformedRecord) as err:
        load_corpus(write_inputs(tmp_path, researchers=bad))
    assert err.value.field == "career_start_year"


def test_malformed_affiliation_triple(tmp_path):
    bad = "r9,M,Neri,U1,MAT-05,AST,2000,,2005:U2\n"
    with pytest.raises(MalformedRecord) as err:
        load_corpus(write_inputs(tmp_path, researchers=bad))
    assert err.value.field == "affiliation_history"


def test_malformed_json_line(tmp_path):
    with pytest.raises(MalformedRecord) as err:
        load_corpus(write_inputs(tmp_path, publications='{"id": "p1", broken\n'))
    assert err.value.line_no == 1


def test_missing_json_field(tmp_path):
    pub = '{"id": "p1", "year": 2005, "subject_category": "SC1", "byline": []}\n'
    with pytest.raises(MalformedRecord) as err:
        load_corpus(write_inputs(tmp_path, publications=pub))
    assert err.value.field == "citations"


def test_non_integer_citations(tmp_path):
    pub = ('{"id": "p1", "year": 2005, "subject_category": "SC1",'
           ' "citations": "many", "byline": [{"author": "r1", "university": null}]}\n')
    with pytest.raises(MalformedRecord) as err:
        load_corpus(write_inputs(tmp_path, publications=pub))
    assert err.value.field == "citations"


def test_missing_header_column(tmp_path):
    write_inputs(tmp_path)
    (tmp_path / "taxonomy.csv").write_text("sds_id,uda_id\nMAT-05,09\n")
    with pytest.raises(MalformedRecord) as err:
        load_corpus(tmp_path)
    assert err.value.field == "byline_convention"


def test_bad_convention(tmp_path):
    with pytest.raises(MalformedRecord) as err:
        load_corpus(write_inputs(tmp_path, taxonomy="MAT-05,09,SORTED\n"))
    assert err.value.field == "byline_convention"


def test_missing_file_is_data_error(tmp_path):
    write_inputs(tmp_path)
    (tmp_path / "publications.jsonl").unlink()
    with pytest.raises(DataError):
        load_corpus(tmp_path)


@pytest.mark.parametrize("name, line", [
    ("taxonomy.csv", 3), ("researchers.csv", 1),
    ("publications.jsonl", 2), ("competitions.jsonl", 1)])
def test_invalid_utf8_names_file_and_line(tmp_path, name, line):
    write_inputs(tmp_path, researchers=THREE_RESEARCHERS,
                 publications=TWO_PUBLICATIONS, competitions="\n")
    path = tmp_path / name
    lines = path.read_bytes().split(b"\n")
    lines[line - 1] = b"\xe9" + lines[line - 1]  # Latin-1, not UTF-8
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(MalformedRecord) as err:
        load_corpus(tmp_path)
    assert err.value.path == str(path)
    assert err.value.line_no == line
    assert "invalid UTF-8" in str(err.value)


def test_unreadable_csv_names_file_and_line(tmp_path):
    huge = '"' + "x" * 200_000 + '"'  # past csv.field_size_limit()
    write_inputs(tmp_path, researchers=THREE_RESEARCHERS
                 + f"r4,F,{huge},U1,MAT-05,AST,2000,,\n")
    with pytest.raises(MalformedRecord) as err:
        load_corpus(tmp_path)
    assert err.value.path == str(tmp_path / "researchers.csv")
    assert err.value.line_no == 5
    assert "invalid CSV" in str(err.value)


ONE_COMPETITION = (
    '{"id": "c1", "sds": "MAT-05", "university": "U1", "year": 2008,'
    ' "president": "r2", "members": ["r1", "r1", "r1", "r1"],'
    ' "applicants": ["r1", "ext-jones"], "winners": ["r1"]}\n'
)
P2_BYLINE = '"byline": [{"author": "r3", "university": "U2"}]'


def _loaded(corpus):
    return (corpus.taxonomy, corpus.researchers, corpus.publications,
            corpus.competitions)


@pytest.mark.parametrize("name, old, new, error, detail", [
    ("taxonomy.csv", "MAT-05,09", " ,09", MalformedRecord,
     {"line_no": 2, "field": "sds_id"}),
    ("researchers.csv", "r1,F", ",F", MalformedRecord,
     {"line_no": 2, "field": "id"}),
    ("competitions.jsonl", ONE_COMPETITION, "[]\n", MalformedRecord,
     {"line_no": 1, "field": "-"}),
    ("competitions.jsonl", '"members": ["r1", "r1"', '"members": ["r1", 1',
     MalformedRecord, {"line_no": 1, "field": "members"}),
    ("competitions.jsonl", '"applicants": ["r1", "ext-jones"]',
     '"applicants": "r1"', MalformedRecord,
     {"line_no": 1, "field": "applicants"}),
    ("competitions.jsonl", '"winners": ["r1"]', '"winners": [null]',
     MalformedRecord, {"line_no": 1, "field": "winners"}),
    ("publications.jsonl", '"id": "p2"', '"id": 2', MalformedRecord,
     {"line_no": 2, "field": "id"}),
    ("publications.jsonl", '"id": "p2"', '"id": ""', MalformedRecord,
     {"line_no": 2, "field": "id"}),
    ("publications.jsonl", P2_BYLINE, '"byline": {"author": "r3"}',
     MalformedRecord, {"line_no": 2, "field": "byline"}),
    ("publications.jsonl", P2_BYLINE, '"byline": ["r3"]', MalformedRecord,
     {"line_no": 2, "field": "byline"}),
    ("publications.jsonl", '"author": "r3"', '"author": 3', MalformedRecord,
     {"line_no": 2, "field": "byline"}),
    ("publications.jsonl", '"university": "U2"', '"university": ["U2"]',
     MalformedRecord, {"line_no": 2, "field": "byline"}),
    ("competitions.jsonl", '"id": "c1"', '"id": ""', MalformedRecord,
     {"line_no": 1, "field": "id"}),
    ("taxonomy.csv", "FIS-01,02", "MAT-05,02", DuplicateId,
     {"entity": "sds", "dup_id": "MAT-05"}),
    ("competitions.jsonl", ONE_COMPETITION, ONE_COMPETITION * 2, DuplicateId,
     {"entity": "competition", "dup_id": "c1"}),
    # blank JSONL lines and empty affiliation pieces are skipped
    ("publications.jsonl", '\n{"id": "p2"', '\n\n{"id": "p2"', None, {}),
    ("researchers.csv", ",2006:U2:MAT-05", ",;2006:U2:MAT-05;;", None, {}),
])
def test_loader_edge_cases(tmp_path, name, old, new, error, detail):
    # one edit of one file of a small valid corpus
    base, edited = tmp_path / "base", tmp_path / "edited"
    for directory in (base, edited):
        directory.mkdir()
        write_inputs(directory, researchers=THREE_RESEARCHERS,
                     publications=TWO_PUBLICATIONS, competitions=ONE_COMPETITION)
    path = edited / name
    text = path.read_text()
    assert text.count(old) == 1
    path.write_text(text.replace(old, new))
    if error is None:
        assert _loaded(load_corpus(edited)) == _loaded(load_corpus(base))
        return
    with pytest.raises(error) as err:
        load_corpus(edited)
    for attr, value in detail.items():
        assert getattr(err.value, attr) == value
    if error is MalformedRecord:
        assert str(err.value).startswith(f"{path}:{detail['line_no']}: ")


def make_validation_fixture(tmp_path):
    researchers = (
        "r1,F,Rossi,U1,MAT-05,AST,2000,,\n"
        "r2,M,Bianchi,U1,MAT-05,FUL,1990,,\n"
        "r3,F,Verdi,U2,FIS-01,ASO,2010,2005,\n"       # ends before it starts
        "r4,M,Neri,U1,MAT-05,FUL,1990,,1985:U2:MAT-05;1986:U3:MAT-05\n"
        "r5,F,Galli,U1,MAT-05,FUL,1990,,2005:U2:MAT-05;2005:U3:MAT-05\n"
        "r6,M,Riva,U1,MAT-05,FUL,1990,,\n"
        "r7,F,Fontana,U1,MAT-05,FUL,1990,,\n"
        "r8,M,Costa,U2,FIS-01,FUL,1990,,\n"
    )
    publications = (
        '{"id": "p1", "year": 2005, "subject_category": "SC1", "citations": -3,'
        ' "byline": []}\n'
        '{"id": "p2", "year": 1999, "subject_category": "SC1", "citations": 1,'
        ' "byline": [{"author": "r1", "university": "U1"}]}\n'
    )
    competitions = (
        # three-member committee, winner outside the applicant list
        '{"id": "c1", "sds": "MAT-05", "university": "U1", "year": 2008,'
        ' "president": "r2", "members": ["r4", "r5", "r6"],'
        ' "applicants": ["r1"], "winners": ["ext-x"]}\n'
        # assistant professor on the committee, wrong-SDS member, zero winners
        '{"id": "c2", "sds": "MAT-05", "university": "U1", "year": 2008,'
        ' "president": "r2", "members": ["r1", "r8", "r6", "r7"],'
        ' "applicants": ["r1"], "winners": []}\n'
        # duplicated member
        '{"id": "c3", "sds": "MAT-05", "university": "U1", "year": 2008,'
        ' "president": "r2", "members": ["r4", "r4", "r6", "r7"],'
        ' "applicants": ["r1"], "winners": ["r1"]}\n'
    )
    return load_corpus(write_inputs(tmp_path, researchers=researchers,
                                    publications=publications,
                                    competitions=competitions))


def test_validation_catches_each_violation(tmp_path):
    report = validate_corpus(make_validation_fixture(tmp_path))
    assert not report.ok
    by_entity = {}
    for v in report.violations:
        by_entity.setdefault((v.entity_type, v.entity_id), []).append(v.message)

    assert any("before it starts" in m for m in by_entity[("researcher", "r3")])
    assert any("outside career" in m for m in by_entity[("researcher", "r4")])
    assert len([m for m in by_entity[("researcher", "r4")] if "outside career" in m]) == 2
    assert any("conflicting affiliations for year 2005" in m
               for m in by_entity[("researcher", "r5")])

    assert any("empty byline" in m for m in by_entity[("publication", "p1")])
    assert any("negative citations" in m for m in by_entity[("publication", "p1")])
    assert any("outside corpus range" in m for m in by_entity[("publication", "p2")])

    c1 = by_entity[("competition", "c1")]
    assert any("committee size 4 != 5" in m for m in c1)
    assert any("winner" in m and "not an applicant" in m for m in c1)
    c2 = by_entity[("competition", "c2")]
    assert any("not a full professor" in m for m in c2)
    assert any("belongs to SDS FIS-01" in m for m in c2)
    assert any("0 winners" in m for m in c2)
    assert any("not distinct" in m for m in by_entity[("competition", "c3")])


def test_round_trip_is_lossless(tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    comp = ('{"id": "c1", "sds": "MAT-05", "university": "U1", "year": 2008,'
            ' "president": "r2", "members": ["r1", "r1", "r1", "r1"],'
            ' "applicants": ["r1", "ext-jones"], "winners": ["r1"]}\n')
    corpus = load_corpus(write_inputs(src, researchers=THREE_RESEARCHERS,
                                      publications=TWO_PUBLICATIONS,
                                      competitions=comp))
    out = tmp_path / "out"
    write_corpus(corpus, out)
    reloaded = load_corpus(out)
    assert reloaded == corpus

    # and writing the reloaded corpus again produces identical bytes
    out2 = tmp_path / "out2"
    write_corpus(reloaded, out2)
    for name in ("researchers.csv", "publications.jsonl",
                 "competitions.jsonl", "taxonomy.csv"):
        assert (out / name).read_bytes() == (out2 / name).read_bytes()


def test_round_trip_random_corpora(tmp_path):
    rng = np.random.default_rng(42)
    for trial in range(5):
        corpus = Corpus(productivity_window=(2004, 2008),
                        collaboration_window=(2001, 2010))
        corpus.taxonomy["S1"] = SdsRecord("S1", "U", Convention.ALPHABETICAL)
        n = int(rng.integers(1, 8))
        for i in range(n):
            start = int(rng.integers(1980, 2006))
            overrides = tuple(
                (int(y), f"U{int(rng.integers(1, 4))}", "S1")
                for y in sorted(rng.choice(np.arange(start, 2011), size=int(rng.integers(0, 3)),
                                           replace=False)))
            corpus.researchers[f"r{i}"] = Researcher(
                id=f"r{i}",
                gender=Gender.FEMALE if rng.random() < 0.5 else Gender.MALE,
                family_name=f"Name{i}",
                university_id=f"U{int(rng.integers(1, 4))}",
                sds_id="S1",
                rank=Rank.ASSISTANT,
                career_start_year=start,
                career_end_year=None if rng.random() < 0.5 else int(rng.integers(start, 2012)),
                affiliations=overrides,
            )
        for j in range(int(rng.integers(0, 6))):
            authors = rng.permutation(n)[:max(1, int(rng.integers(1, max(2, n))))]
            corpus.publications[f"p{j}"] = Publication(
                id=f"p{j}",
                year=int(rng.integers(2001, 2011)),
                subject_category_id="SC1",
                citations=int(rng.poisson(4)),
                byline=[BylineEntry(f"r{a}", None if rng.random() < 0.3 else "U1")
                        for a in authors],
            )
        out = tmp_path / f"trial{trial}"
        write_corpus(corpus, out)
        reloaded = load_corpus(out)
        assert reloaded == corpus


# ---------------------------------------------------------------------------
# affiliation timelines
# ---------------------------------------------------------------------------

OVERRIDE_YEARS = st.integers(1988, 2014)  # narrow, so override years repeat


@settings(max_examples=300, deadline=None)
@example(start=2000, end_offset=3, overrides=[(2001, "U1", "S1"), (2001, "U2", "S2"),
                                               (2005, "U3", "S1")], lo=1999, span=6)
@example(start=2000, end_offset=None, overrides=[], lo=2003, span=-2)
@given(start=st.integers(1985, 2012),
       end_offset=st.one_of(st.none(), st.integers(-2, 20)),
       overrides=st.lists(st.tuples(OVERRIDE_YEARS, st.sampled_from(["U1", "U2", "U3"]),
                                    st.sampled_from(["S1", "S2"])), max_size=6),
       lo=st.integers(1980, 2016),
       span=st.integers(-4, 14))
def test_timeline_equals_affiliation_in_per_year(start, end_offset, overrides,
                                                 lo, span):
    # careers that end inside the window, windows that start before the
    # career, repeated override years (the last one wins), and lo > hi
    r = Researcher(id="r1", gender=Gender.FEMALE, family_name="Rossi",
                   university_id="U0", sds_id="S0", rank=Rank.FULL,
                   career_start_year=start,
                   career_end_year=None if end_offset is None else start + end_offset,
                   affiliations=tuple(overrides))
    hi = lo + span
    assert r.timeline(lo, hi) == tuple(r.affiliation_in(y) for y in range(lo, hi + 1))


# ---------------------------------------------------------------------------
# publications.jsonl lines
# ---------------------------------------------------------------------------

# text with non-ASCII letters, quotes, backslashes, control characters and
# lone surrogates, all of which json.dumps escapes
TEXT = st.text(st.one_of(
    st.characters(),
    st.characters(max_codepoint=0x1f),
    st.sampled_from(['"', "\\", "/", "\x7f", "\u2028", "\ud800", "\udc80",
                     "\udfff", "\u00e8", "\U0001f600"])))
OPTIONAL_TEXT = st.one_of(st.none(), TEXT)
BYLINES = st.lists(st.builds(BylineEntry, author=OPTIONAL_TEXT,
                             university=OPTIONAL_TEXT), max_size=4)
PUBLICATIONS = st.lists(
    st.builds(Publication, id=TEXT.filter(bool), year=st.integers(),
              subject_category_id=TEXT, citations=st.integers(),
              byline=BYLINES),
    max_size=6, unique_by=lambda p: json.loads(json.dumps(p.id)))


def _dumps_record(pub):
    return json.dumps({
        "id": pub.id,
        "year": pub.year,
        "subject_category": pub.subject_category_id,
        "citations": pub.citations,
        "byline": [{"author": e.author, "university": e.university}
                   for e in pub.byline],
    }) + "\n"


def _json_round_trip(pub):
    def text(value):
        return json.loads(json.dumps(value))
    return Publication(
        id=text(pub.id), year=pub.year,
        subject_category_id=text(pub.subject_category_id),
        citations=pub.citations,
        byline=[BylineEntry(text(e.author), text(e.university)) for e in pub.byline])


@settings(max_examples=100, deadline=None)
@example(publications=[
    Publication(id='p"1\\', year=10**30, subject_category_id="\u00e8\n\ud800",
                citations=-(10**20),
                byline=[BylineEntry(None, None), BylineEntry("x\x00", "U\u2028")]),
    Publication(id="p2", year=2001, subject_category_id="", citations=0, byline=[])])
@given(publications=PUBLICATIONS)
def test_publication_lines_equal_json_dumps(publications):
    corpus = Corpus(publications={p.id: p for p in publications})
    with tempfile.TemporaryDirectory() as directory:
        paths = write_corpus(corpus, directory)
        written = Path(paths.publications).read_bytes()
        assert written == "".join(map(_dumps_record, publications)).encode("ascii")
        # reading back gives every field as written, except that JSON joins a
        # high surrogate followed by a low one into the character they encode
        assert load_corpus(paths).publications == {
            p.id: p for p in map(_json_round_trip, publications)}

