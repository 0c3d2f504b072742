"""Durable stores log the loader's ASTs and recover without parsing.

A document stored through the facade reaches the WAL as the very
``Insert``/``Update`` trees the loader built, so reopening the store
replays it without a single ``parse_statement`` call.  The same holds
behind the shard router, and a rebalance that replays the router
journal onto a new shard count ends with the rows a single engine
holds.
"""

import pytest

from repro.core import XML2Oracle
from repro.ordb import (
    CompatibilityMode,
    Database,
    ShardedDatabase,
    verify_integrity,
)
from repro.ordb import engine, sharding
from repro.ordb.sql import ast
from repro.ordb.wal import WriteAheadLog, decode_transaction
from repro.workloads import UNIVERSITY_DTD, make_university_xml
from repro.workloads.corpus import BIBLIOGRAPHY_DOCUMENT, BIBLIOGRAPHY_DTD

#: scalar-only views of the stored data: REF values carry engine
#: OIDs, so references are compared through what they point at
BIBLIOGRAPHY_QUERIES = (
    "SELECT m.DocID, m.DocName FROM TabMetadata m",
    "SELECT a.IDArticle, a.attrkey, a.attrTitle FROM TabArticle a",
    "SELECT c.IDCites, DEREF(c.attrref).attrkey FROM TabCites c",
    "SELECT a.IDArticle, DEREF(c.COLUMN_VALUE).IDCites"
    " FROM TabArticle a, TABLE(a.attrCites) c",
)

UNIVERSITY8_QUERIES = (
    "SELECT m.DocID, m.DocName FROM TabMetadata m",
    "SELECT u.IDUniversity, u.attrStudyCourse FROM TabUniversity u",
    "SELECT s.IDStudent, s.attrStudNr, s.attrLName,"
    " DEREF(s.refUniversity).IDUniversity FROM TabStudent s",
    "SELECT s.IDStudent, DEREF(c.COLUMN_VALUE).attrName"
    " FROM TabStudent s, TABLE(s.attrCourse) c",
    "SELECT p.IDProfessor, p.attrPName, DEREF(p.refCourse).IDCourse"
    " FROM TabProfessor p",
)


def snapshot(db, queries) -> dict:
    return {sql: sorted(db.execute(sql).rows, key=repr)
            for sql in queries}


@pytest.fixture
def parsed(monkeypatch) -> list[str]:
    """Every SQL text the engines and the router parse from here on."""
    texts: list[str] = []
    original = engine.parse_statement

    def counting(text):
        texts.append(text)
        return original(text)

    monkeypatch.setattr(engine, "parse_statement", counting)
    monkeypatch.setattr(sharding, "parse_statement", counting)
    return texts


def is_ddl(text: str) -> bool:
    return text.lstrip().upper().startswith("CREATE")


def test_store_logs_asts_and_recovery_parses_nothing(tmp_path, parsed):
    db = Database(path=tmp_path, fsync="off")
    tool = XML2Oracle(db=db)
    tool.register_schema(BIBLIOGRAPHY_DTD,
                         sample_document=BIBLIOGRAPHY_DOCUMENT)
    db.checkpoint()  # the schema's DDL text is now in the checkpoint
    stored = tool.store(BIBLIOGRAPHY_DOCUMENT, doc_name="bib.xml")
    assert stored.load_result.update_count == 3
    expected = snapshot(db, BIBLIOGRAPHY_QUERIES)
    db.close()

    log = WriteAheadLog(tmp_path / "wal.log")
    records = [decode_transaction(payload)[1] for payload in log.open()]
    log.close()
    assert len(records) == 1  # one store, one transaction
    assert all(isinstance(s, (ast.Insert, ast.Update)) for s in records[0])
    assert records[0][:len(stored.load_result.statements)] \
        == stored.load_result.statements

    parsed.clear()
    recovered = Database(path=tmp_path, fsync="off")
    try:
        assert parsed == []
        assert recovered.recovery_info["statements_replayed"] \
            == len(records[0])
        assert verify_integrity(recovered) == []
        assert snapshot(recovered, BIBLIOGRAPHY_QUERIES) == expected
    finally:
        recovered.close()


def test_sharded_store_reopen_and_rebalance(tmp_path, parsed):
    mode = CompatibilityMode.ORACLE8  # REF subqueries across tables
    texts = [make_university_xml(students, seed=students)
             for students in (0, 1, 3, 4, 6)]
    single = XML2Oracle(mode=mode)
    sharded = XML2Oracle(db=ShardedDatabase(n_shards=2, path=tmp_path,
                                            fsync="off", mode=mode))
    for tool in (single, sharded):
        tool.register_schema(UNIVERSITY_DTD)
        for index, text in enumerate(texts):
            tool.store(text, doc_name=f"uni{index}.xml")
    for doc_id in range(1, len(texts) + 1):
        assert sharded.fetch_text(doc_id) == single.fetch_text(doc_id)
    expected = snapshot(single.db, UNIVERSITY8_QUERIES)
    sharded.db.close()

    # the router hands every shard parsed trees, DDL included, so the
    # shard logs replay without the parser
    parsed.clear()
    db = ShardedDatabase(path=tmp_path, fsync="off")
    try:
        assert parsed == []
        assert db.verify() == []
        assert snapshot(db, UNIVERSITY8_QUERIES) == expected
        parsed.clear()
        info = db.rebalance(3)
        assert info["n_shards"] == 3
        # the router journal keeps the schema's DDL as the text it
        # came in as; the documents are trees
        assert [text for text in parsed if not is_ddl(text)] == []
        assert db.verify() == []
        assert snapshot(db, UNIVERSITY8_QUERIES) == expected
    finally:
        db.close()

    parsed.clear()
    reopened = ShardedDatabase(path=tmp_path, fsync="off")
    try:
        assert parsed == []
        assert reopened.n_shards == 3
        assert reopened.verify() == []
        assert snapshot(reopened, UNIVERSITY8_QUERIES) == expected
    finally:
        reopened.close()
