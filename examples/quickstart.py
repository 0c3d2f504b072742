#!/usr/bin/env python3
"""Quickstart: the paper's Appendix A example, end to end.

Run with:  python examples/quickstart.py

Walks the full XML2Oracle pipeline on the university document the
paper uses throughout: parse document + DTD, generate the
object-relational schema, store with a single INSERT, query with dot
notation, and reconstruct the document (entities included).
"""

from repro.core import XML2Oracle, compare
from repro.workloads import SAMPLE_DOCUMENT
from repro.xmlkit import parse


def main() -> None:
    print("=" * 70)
    print("1. Parse the Appendix A document (DTD in the internal"
          " subset)")
    print("=" * 70)
    document = parse(SAMPLE_DOCUMENT)
    print(f"root element: <{document.root_element.tag}>,"
          f" {document.count_nodes('element')} elements")

    print()
    print("=" * 70)
    print("2. Generate and execute the object-relational schema"
          " (Section 4.2)")
    print("=" * 70)
    tool = XML2Oracle()
    schema = tool.register_schema(document.doctype.dtd)
    print(tool.schema_script())

    print()
    print("=" * 70)
    print("3. Store the document — one nested INSERT (Section 4.2)")
    print("=" * 70)
    stored = tool.store(document, doc_name="appendix_a.xml")
    statement = stored.load_result.sql[0]
    print(f"INSERT statements: {stored.load_result.insert_count}")
    print(statement[:400] + ("..." if len(statement) > 400 else ""))

    print()
    print("=" * 70)
    print("4. Query with dot notation (Section 4.1)")
    print("=" * 70)
    query = tool.path_query(
        "/University/Student",
        predicate=("Course/Professor/PName", "=", "Jaeger"),
        select="LName")
    print("SQL:", query.sql)
    result = tool.db.execute(query.sql)
    print("students of Professor Jaeger:",
          [row[0] for row in result.rows])

    print()
    print("=" * 70)
    print("5. Reconstruct the document (Sections 5/6.1: meta-data"
          " and entities)")
    print("=" * 70)
    text = tool.fetch_text(stored.doc_id, indent="  ")
    print(text)
    report = compare(document, tool.fetch(stored.doc_id))
    print("round-trip fidelity:", report.describe())


if __name__ == "__main__":
    main()
