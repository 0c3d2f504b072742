"""FIG4: the Appendix A sample document, end to end.

Everything the paper demonstrates on its running example: the schema
of Section 4.2, the single nested INSERT, the dot-notation query of
Section 4.1, the meta-data of Section 5 and the entity handling of
Section 6.1.
"""

from repro.core import compare
from repro.workloads import SAMPLE_DOCUMENT
from repro.xmlkit import parse


class TestAppendixA:
    def test_schema_contains_papers_types(self, uni_tool):
        script = uni_tool.schema_script()
        for name in ("TypeVA_Subject", "Type_Professor",
                     "TypeVA_Professor", "Type_Course", "TypeVA_Course",
                     "Type_Student", "TypeVA_Student",
                     "Type_University"):
            assert f"CREATE TYPE {name}" in script
        assert "CREATE TABLE TabUniversity" in script

    def test_single_insert(self, stored_university):
        _tool, stored = stored_university
        assert stored.load_result.insert_count == 1
        statement = stored.load_result.sql[0]
        # the nested constructor calls of the Section 4.2 INSERT
        assert statement.startswith("INSERT INTO TabUniversity")
        assert "TypeVA_Student(Type_Student(" in statement
        assert "TypeVA_Subject('Database Systems'," in statement

    def test_section_4_1_query(self, stored_university):
        """Family names of students subscribed to a course of
        Professor Jaeger."""
        tool, _stored = stored_university
        result = tool.query(
            "/University/Student",
            predicate=("Course/Professor/PName", "=", "Jaeger"),
            select="LName")
        assert result.rows == [("Conrad",)]

    def test_entity_expansion_in_database(self, stored_university):
        """Section 6.1: '&cs;' is expanded at its occurrences before
        storage..."""
        tool, _stored = stored_university
        assert tool.query("/University/StudyCourse").scalar() == \
            "Computer Science"

    def test_entity_recovered_on_export(self, stored_university):
        """... and recovered from the meta-table on the way out."""
        tool, stored = stored_university
        text = tool.fetch_text(stored.doc_id)
        assert "&cs;" in text
        assert parse_roundtrips(text)

    def test_metadata_row(self, stored_university):
        tool, stored = stored_university
        info = tool.metadata.document_info(stored.doc_id)
        assert info[0] == "appendix_a.xml"
        assert info[3] == "1.0"
        assert info[4] == "UTF-8"

    def test_perfect_fidelity(self, stored_university):
        tool, stored = stored_university
        rebuilt = tool.fetch(stored.doc_id)
        report = compare(parse(SAMPLE_DOCUMENT), rebuilt)
        assert report.score == 1.0
        assert report.order_preserved

    def test_all_subjects_stored(self, stored_university):
        tool, _stored = stored_university
        result = tool.query(
            "/University/Student/Course/Professor/Subject")
        assert sorted(row[0] for row in result.rows) == [
            "CAD", "CAE", "Database Systems", "Operat. Systems"]


def parse_roundtrips(text: str) -> bool:
    """The exported text must itself be a well-formed document...
    once it carries the DTD that defines its entities."""
    wrapped = ('<!DOCTYPE University [<!ENTITY cs "Computer Science">'
               "]>" + text.split("?>", 1)[-1])
    document = parse(wrapped)
    return document.root_element.tag == "University"
