"""Meta-data management: Section 5's TabMetadata plus the Section 6.1
and Section 7 extensions.

The meta-table records, per stored document: provenance (name, URL),
the SchemaID of its document type, prolog information (XML version,
character set, standalone), and the ``DocData`` array that maps each
database name back to the XML construct it was derived from — the
information that distinguishes element-derived from attribute-derived
columns, which the mapping otherwise loses.

Extensions implemented as proposed by the paper:

* ``TabEntity`` (Section 6.1): internal entity definitions, so the
  retriever can re-substitute entity references that the parser
  expanded.
* ``TabMiscNode`` (Section 7 future work): comments and processing
  instructions with their location, so round-trips can restore them.
"""

from __future__ import annotations

from repro.ordb.engine import Database
from repro.ordb.sql import ast
from repro.relational.shredder import sql_quote
from repro.xmlkit.dom import (
    Comment,
    Document,
    Element,
    Node,
    ProcessingInstruction,
)
from .generator import type_members
from .plan import MappingPlan

_METADATA_SCHEMA = """
CREATE TYPE Type_DocData AS OBJECT(
  XML_Type VARCHAR2(64),
  XML_Name VARCHAR2(4000),
  DB_Name VARCHAR2(4000),
  DB_Type VARCHAR2(4000),
  NameSpace VARCHAR2(4000));
CREATE TYPE TypeVA_DocData AS TABLE OF Type_DocData;
CREATE TABLE TabMetadata(
  DocID INTEGER PRIMARY KEY,
  DocName VARCHAR2(4000),
  URL VARCHAR2(4000),
  SchemaID VARCHAR2(64),
  NameSpace VARCHAR2(4000),
  XMLVersion VARCHAR2(16),
  CharacterSet VARCHAR2(64),
  Standalone CHAR(1),
  DocData TypeVA_DocData,
  LoadDate DATE)
 NESTED TABLE DocData STORE AS TabDocData_List;
CREATE TABLE TabEntity(
  SchemaID VARCHAR2(64) NOT NULL,
  EntityName VARCHAR2(4000) NOT NULL,
  Replacement VARCHAR2(4000));
CREATE TABLE TabMiscNode(
  DocID INTEGER NOT NULL,
  Position VARCHAR2(4000) NOT NULL,
  Kind VARCHAR2(16) NOT NULL,
  Target VARCHAR2(4000),
  Content VARCHAR2(4000));
"""

_NULL = ast.Literal(None)


def _insert(table: str, *values: ast.Expr | str | int | None) -> ast.Insert:
    """``INSERT INTO table VALUES(...)``; plain Python values become
    literals (None is NULL)."""
    return ast.Insert(table, values=tuple(
        value if isinstance(value, ast.Expr) else ast.Literal(value)
        for value in values))


class MetadataRegistry:
    """Owns the meta-tables of one database instance."""

    def __init__(self, db: Database):
        self.db = db
        self._ensure_schema()

    def _ensure_schema(self) -> None:
        if "TABMETADATA" in self.db.catalog.tables:
            return
        self.db.executescript(_METADATA_SCHEMA)

    # -- document registration --------------------------------------------------------

    def register_document(self, doc_id: int, document: Document,
                          plan: MappingPlan,
                          doc_name: str = "", url: str = "",
                          load_date: str = "2002-03-25",
                          on=None) -> None:
        """Record one stored document (Section 5's meta-table row).

        ``load_date`` is explicit rather than ``SYSDATE`` to keep every
        generated script deterministic and replayable.  ``on`` is the
        executor — a :class:`~repro.ordb.sessions.Session` or the
        database itself — so the row joins the caller's transaction.
        """
        standalone = None
        if document.standalone is not None:
            standalone = "Y" if document.standalone else "N"
        # Section 5: "the namespace definitions are stored in the
        # meta-table as well" — record the root's default namespace
        namespace = document.root_element.get("xmlns")
        (on or self.db).execute(_insert(
            "TabMetadata", doc_id, doc_name, url, plan.schema_id or "",
            namespace, document.xml_version or "1.0",
            document.encoding or "UTF-8", standalone,
            self._doc_data(plan), ast.DateLiteral(load_date)))

    def _doc_data(self, plan: MappingPlan) -> ast.Expr:
        """The ``DocData`` collection: one ``Type_DocData`` per
        mapping of *plan*."""
        items = tuple(
            ast.FunctionCall("Type_DocData", tuple(
                ast.Literal(value) for value in entry) + (_NULL,))
            for entry in self.doc_data_entries(plan))
        return (ast.FunctionCall("TypeVA_DocData", items)
                if items else _NULL)

    def doc_data_entries(self, plan: MappingPlan
                         ) -> list[tuple[str, str, str, str]]:
        """(XML_Type, XML_Name, DB_Name, DB_Type) for every mapping.

        This answers the question the paper says the schema alone
        cannot: was a database attribute derived from an element or
        from an XML attribute?
        """
        entries: list[tuple[str, str, str, str]] = []
        for element in plan.elements.values():
            if element.object_type is not None:
                entries.append(("element", element.name,
                                element.object_type, "OBJECT TYPE"))
            if element.table is not None:
                entries.append(("element", element.name,
                                element.table, "TABLE"))
            for member in type_members(element, plan):
                if member.kind == "xmlattr":
                    entries.append((
                        "attribute", member.attribute.xml_name,
                        member.column, member.sql_type))
                elif member.kind == "text":
                    entries.append(("element", element.name,
                                    member.column, member.sql_type))
                elif member.kind == "link":
                    entries.append(("element", member.link.child.name,
                                    member.column, member.sql_type))
        return entries

    def document_info(self, doc_id: int):
        result = self.db.execute(
            f"SELECT m.DocName, m.URL, m.SchemaID, m.XMLVersion,"
            f" m.CharacterSet, m.Standalone, m.NameSpace"
            f" FROM TabMetadata m WHERE m.DocID = {doc_id}")
        return result.first()

    def document_count(self) -> int:
        return int(self.db.execute(
            "SELECT COUNT(*) FROM TabMetadata").scalar())

    # -- entities (Section 6.1) --------------------------------------------------------

    def register_entities(self, schema_id: str,
                          entities: dict[str, str],
                          on=None) -> None:
        for name, replacement in entities.items():
            (on or self.db).execute(
                _insert("TabEntity", schema_id, name, replacement))

    def entities_for(self, schema_id: str) -> dict[str, str]:
        result = self.db.execute(
            f"SELECT e.EntityName, e.Replacement FROM TabEntity e"
            f" WHERE e.SchemaID = {sql_quote(schema_id)}")
        return {str(name): str(replacement or "")
                for name, replacement in result.rows}

    # -- comments / PIs (Section 7 extension) ----------------------------------------------

    def register_misc_nodes(self, doc_id: int,
                            document: Document, on=None) -> int:
        """Store comments and processing instructions with locations."""
        count = 0
        for position, node in _walk_positions(document):
            if isinstance(node, Comment):
                kind, target, content = "comment", "", node.data
            elif isinstance(node, ProcessingInstruction):
                kind, target, content = "pi", node.target, node.data
            else:
                continue
            (on or self.db).execute(_insert(
                "TabMiscNode", doc_id, position, kind, target, content))
            count += 1
        return count

    def misc_nodes(self, doc_id: int) -> list[tuple[str, str, str, str]]:
        result = self.db.execute(
            f"SELECT n.Position, n.Kind, n.Target, n.Content"
            f" FROM TabMiscNode n WHERE n.DocID = {doc_id}"
            f" ORDER BY 1")
        return [(str(p), str(k), str(t or ""), str(c or ""))
                for p, k, t, c in result.rows]

    def restore_misc_nodes(self, doc_id: int, root: Element,
                           document: Document | None = None) -> int:
        """Reinsert stored comments/PIs into a reconstructed tree.

        In-root nodes ("1/...") go back into *root* at their recorded
        child positions; document-level nodes ("doc/...") are attached
        to *document* when one is given.
        """
        count = 0
        for position, kind, target, content in self.misc_nodes(doc_id):
            node: Node = (Comment(content) if kind == "comment"
                          else ProcessingInstruction(target, content))
            steps = position.split("/")
            if steps[0] == "doc":
                if document is not None:
                    node.parent = document
                    index = min(int(steps[1]) - 1,
                                len(document.children))
                    document.children.insert(max(index, 0), node)
                    count += 1
                continue
            parent: Element | None = root
            for step in steps[1:-1]:
                children = parent.child_elements
                index = int(step) - 1
                parent = (children[index]
                          if 0 <= index < len(children) else None)
                if parent is None:
                    break
            if parent is None:
                continue
            index = min(max(int(steps[-1]) - 1, 0),
                        len(parent.children))
            node.parent = parent
            parent.children.insert(index, node)
            count += 1
        return count


def _walk_positions(document: Document):
    """Yield (position, node) pairs for misc-node bookkeeping.

    Positions inside the root element are '1/<child indexes>' where
    indexes count *element* children on the path and the final step is
    the raw child slot; document-level nodes get 'doc/<slot>'.
    """

    def walk(element: Element, prefix: str):
        element_index = 0
        for slot, child in enumerate(element.children, start=1):
            if isinstance(child, Element):
                element_index += 1
                yield from walk(child, f"{prefix}/{element_index}")
            else:
                yield f"{prefix}/{slot}", child

    for slot, child in enumerate(document.children, start=1):
        if isinstance(child, Element):
            yield from walk(child, "1")
        else:
            yield f"doc/{slot}", child
