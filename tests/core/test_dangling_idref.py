"""Dangling IDREFs fail loudly at load time (ORA-22888).

Section 4.4 turns IDREF attributes into REF columns filled by
deferred UPDATEs.  When the referenced ID never appears in the
document, that UPDATE's subquery would silently leave the column
NULL — the loader now refuses instead, naming the offending ID value
and the document path of the referencing element.
"""

import pytest

from repro.core import XML2Oracle
from repro.core.loader import element_path
from repro.ordb.errors import DanglingReference
from repro.xmlkit import parse

DTD = """
<!ELEMENT School (Student+, Course+, Enrolment*)>
<!ELEMENT Student (SName)>
<!ATTLIST Student sid ID #REQUIRED>
<!ELEMENT Course (CName)>
<!ATTLIST Course cid ID #REQUIRED>
<!ELEMENT Enrolment EMPTY>
<!ATTLIST Enrolment who IDREF #REQUIRED what IDREF #REQUIRED>
<!ELEMENT SName (#PCDATA)>
<!ELEMENT CName (#PCDATA)>
"""

SAMPLE = """
<School>
  <Student sid="s1"><SName>Conrad</SName></Student>
  <Course cid="c1"><CName>DB II</CName></Course>
  <Enrolment who="s1" what="c1"/>
</School>
"""


@pytest.fixture
def tool():
    tool = XML2Oracle(validate_documents=False)
    tool.register_schema(DTD, sample_document=SAMPLE)
    return tool


class TestDanglingDetection:
    def test_good_document_loads(self, tool):
        stored = tool.store(parse(SAMPLE))
        assert stored.load_result.update_count == 2

    def test_dangling_idref_raises(self, tool):
        bad = SAMPLE.replace('what="c1"', 'what="c404"')
        with pytest.raises(DanglingReference) as excinfo:
            tool.store(parse(bad))
        message = str(excinfo.value)
        assert message.startswith("ORA-22888")
        assert "'c404'" in message          # the offending ID value
        assert "/School/Enrolment" in message  # where it sits
        assert "what" in message            # which attribute

    def test_sibling_position_in_path(self, tool):
        bad = """
        <School>
          <Student sid="s1"><SName>A</SName></Student>
          <Course cid="c1"><CName>B</CName></Course>
          <Enrolment who="s1" what="c1"/>
          <Enrolment who="s1" what="c404"/>
        </School>
        """
        with pytest.raises(DanglingReference) as excinfo:
            tool.store(parse(bad))
        assert "/School/Enrolment[2]" in str(excinfo.value)

    def test_failed_load_leaves_no_partial_rows(self, tool):
        bad = SAMPLE.replace('who="s1"', 'who="ghost"')
        counts_before = {
            name: len(table.data.rows)
            for name, table in tool.db.catalog.tables.items()}
        with pytest.raises(DanglingReference):
            tool.store(parse(bad))
        counts_after = {
            name: len(table.data.rows)
            for name, table in tool.db.catalog.tables.items()}
        assert counts_after == counts_before

    def test_raised_before_any_sql_runs(self, tool):
        """The check fires at load-generation time, not mid-script."""
        from repro.core.loader import DocumentLoader

        schema = tool.schemas[-1]
        bad = SAMPLE.replace('what="c1"', 'what="c404"')
        loader = DocumentLoader(schema.plan, doc_id=99)
        statements_before = len(loader.result.statements)
        with pytest.raises(DanglingReference):
            loader.load(parse(bad))
        # generated INSERTs exist but none were handed to the engine
        assert statements_before == 0

    def test_validator_catches_it_first_when_enabled(self):
        from repro.xmlkit.errors import XMLValidityError

        tool = XML2Oracle()
        tool.register_schema(DTD, sample_document=SAMPLE)
        bad = SAMPLE.replace('what="c1"', 'what="c404"')
        with pytest.raises(XMLValidityError):
            tool.store(parse(bad))


class TestWarningPathPreserved:
    """Targets without an ID attribute keep the warn-and-NULL path."""

    _DTD = """
    <!ELEMENT Root (Target, Pointer)>
    <!ELEMENT Target (#PCDATA)>
    <!ELEMENT Pointer EMPTY>
    <!ATTLIST Pointer to IDREF #REQUIRED>
    """
    _SAMPLE = '<Root><Target>x</Target><Pointer to="t1"/></Root>'

    def test_no_id_attribute_warns_instead(self):
        # force the IDREF to point at an ID-less element type (the
        # sample-based inference never produces this, but explicit
        # idref_targets can)
        from repro.core import analyze, load_document
        from repro.dtd import parse_dtd

        plan = analyze(parse_dtd(self._DTD),
                       idref_targets={("Pointer", "to"): "Target"})
        result = load_document(plan, parse(self._SAMPLE), doc_id=1)
        assert any("no ID" in warning
                   for warning in result.warnings)
        # the column is left NULL rather than raising
        update = next(s for s in result.sql if "UPDATE" in s)
        assert "= NULL" in update


class TestElementPath:
    def test_root_only(self):
        root = parse("<R/>").root_element
        assert element_path(root) == "/R"

    def test_nested_with_positions(self):
        document = parse("<A><B/><B><C/></B></A>")
        second_b = document.root_element.find_all("B")[1]
        child = second_b.find("C")
        assert element_path(child) == "/A/B[2]/C"
