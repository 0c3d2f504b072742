"""The loader's statements are ASTs; SQL text is printed on demand.

Over a corpus that covers every storage decision — nested collections
(Appendix A and seeded university documents), ID/IDREF with deferred
UPDATEs, recursion, many-to-many IDREFs, mixed and ANY content and
Oracle-8 mode's REF subqueries — the printed SQL parses back to the
very tree the loader built, and executing the tree stores exactly what
executing the printed text stores.
"""

from hypothesis import given, settings, strategies as st

from repro.core import XML2Oracle, compare, load_document
from repro.core.plan import MappingConfig
from repro.obs import Observability
from repro.ordb import CompatibilityMode
from repro.ordb.sql import ast
from repro.ordb.sql.parser import parse_statement
from repro.workloads import (
    SAMPLE_DOCUMENT,
    UNIVERSITY_DTD,
    make_university_xml,
)
from repro.workloads.corpus import CORPUS
from repro.xmlkit import parse

from ..integration.test_many_to_many import (
    ENROLMENT_DOCUMENT,
    ENROLMENT_DTD,
)

#: name -> (DTD text or None for the internal subset, document text)
DOCUMENTS = dict(CORPUS, appendix_a=(None, SAMPLE_DOCUMENT),
                 enrolment=(ENROLMENT_DTD, ENROLMENT_DOCUMENT))

MODES = (CompatibilityMode.ORACLE9, CompatibilityMode.ORACLE8)

#: the Appendix A INSERT, byte for byte as the loader has always
#: printed it
APPENDIX_A_INSERT = (
    "INSERT INTO TabUniversity VALUES(Type_University('D1',"
    " 'Computer Science', TypeVA_Student(Type_Student('23374', 'Conrad',"
    " 'Matthias', TypeVA_Course(Type_Course('Database Systems II',"
    " TypeVA_Professor(Type_Professor('Kudrass',"
    " TypeVA_Subject('Database Systems', 'Operat. Systems'),"
    " 'Computer Science')), '4'), Type_Course('CAD Intro',"
    " TypeVA_Professor(Type_Professor('Jaeger', TypeVA_Subject('CAD',"
    " 'CAE'), 'Computer Science')), '4'))), Type_Student('00011',"
    " 'Meier', 'Ralf', NULL))))")

#: Oracle-8 mode: child tables filled first, parents point at them
#: through REF subqueries
APPENDIX_A_ORACLE8 = [
    "INSERT INTO TabUniversity VALUES(Type_University('D1',"
    " 'Computer Science'))",
    "INSERT INTO TabCourse VALUES(Type_Course('D1.00000002',"
    " 'Database Systems II', '4'))",
    "INSERT INTO TabProfessor VALUES(Type_Professor('D1.00000003',"
    " 'Kudrass', TypeVA_Subject('Database Systems', 'Operat. Systems'),"
    " 'Computer Science', (SELECT REF(x_) FROM TabCourse x_"
    " WHERE x_.IDCourse = 'D1.00000002')))",
]


def load(dtd, text, mode=CompatibilityMode.ORACLE9, markup=False,
         doc_id=1):
    document = parse(text)
    tool = XML2Oracle(mode=mode, metadata=False,
                      config=MappingConfig(mixed_as_markup=markup))
    schema = tool.register_schema(dtd or document.doctype.dtd,
                                  sample_document=document)
    return tool, load_document(schema.plan, document, doc_id)


def assert_round_trip(result):
    assert len(result.sql) == len(result.statements)
    for statement, text in zip(result.statements, result.sql):
        assert isinstance(statement, (ast.Insert, ast.Update))
        assert parse_statement(text) == statement, text


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(DOCUMENTS)),
       mode=st.sampled_from(MODES), markup=st.booleans(),
       doc_id=st.integers(min_value=1, max_value=10**6))
def test_corpus_statements_print_and_parse_back(name, mode, markup,
                                                doc_id):
    _, result = load(*DOCUMENTS[name], mode=mode, markup=markup,
                     doc_id=doc_id)
    assert_round_trip(result)


@settings(max_examples=25, deadline=None)
@given(students=st.integers(min_value=0, max_value=20),
       seed=st.integers(min_value=0, max_value=9999),
       mode=st.sampled_from(MODES))
def test_seeded_university_statements_print_and_parse_back(
        students, seed, mode):
    text = make_university_xml(students, seed=seed)
    _, result = load(UNIVERSITY_DTD, text, mode=mode)
    assert_round_trip(result)


def test_appendix_a_prints_the_classic_insert():
    _, result = load(*DOCUMENTS["appendix_a"])
    assert result.sql == [APPENDIX_A_INSERT]
    assert result.insert_count == 1 and result.update_count == 0


def test_appendix_a_oracle8_prints_ref_subqueries():
    _, result = load(*DOCUMENTS["appendix_a"],
                     mode=CompatibilityMode.ORACLE8)
    assert result.sql[:3] == APPENDIX_A_ORACLE8
    assert result.insert_count == len(result.statements) == 7


def test_deferred_idrefs_are_update_nodes():
    _, result = load(*DOCUMENTS["bibliography"])
    assert (result.insert_count, result.update_count) == (7, 3)
    update = result.statements[-1]
    assert isinstance(update, ast.Update)
    assert result.sql[-1] == (
        "UPDATE TabCites t_ SET attrref = (SELECT REF(x_) FROM TabArticle"
        " x_ WHERE x_.attrkey = 'Sha99') WHERE t_.IDCites = 'D1.00000006'")


def test_executing_trees_stores_what_executing_text_stores():
    for name, (dtd, text) in sorted(DOCUMENTS.items()):
        for mode in MODES:
            fetched = []
            for as_text in (False, True):
                tool, result = load(dtd, text, mode=mode)
                for statement, sql in zip(result.statements, result.sql):
                    tool.db.execute(sql if as_text else statement)
                tool.documents[1] = tool.schemas[0]
                fetched.append(tool.fetch(1))
            assert compare(*fetched).score == 1.0, (name, mode)


def test_trace_labels_show_the_rendered_sql():
    obs = Observability(enabled=True, slow_query_threshold=0.0)
    tool = XML2Oracle(obs=obs)
    tool.register_schema("<!ELEMENT Uni (Name, Student*)>"
                         " <!ELEMENT Name (#PCDATA)>"
                         " <!ELEMENT Student (#PCDATA)>")
    obs.tracer.reset()
    tool.store("<Uni><Name>HTWK</Name><Student>O'Neil</Student></Uni>")
    store = obs.tracer.last_root
    batch = next(span for span in store.children
                 if span.name == "execute")
    labels = [span.attributes["sql"] for span in batch.children]
    assert labels == ["INSERT INTO TabUni VALUES(Type_Uni('D1', 'HTWK',"
                      " TypeVA_Student('O''Neil')))"]
    metadata = store.find("metadata")
    meta_label = metadata.children[0].attributes["sql"]
    assert meta_label.startswith("INSERT INTO TabMetadata VALUES(1, ")
    assert len(meta_label) == 120
    assert [entry.sql for entry in obs.slow_log.entries][-2:] == [
        labels[0], meta_label]
