"""INSERT generation: store a document according to a mapping plan.

The headline behaviour of Section 4.2: with nested collection types a
whole document becomes a *single* INSERT statement whose nested
constructor calls mirror the document tree.  Storage decisions that
involve object tables (recursion, Oracle-8 child tables, ID/IDREF)
add further INSERTs — child rows first, parents referencing them
through scalar subqueries on the synthetic ``IDElementname`` keys the
paper introduces exactly for this purpose ("We introduced an
additional unique attribute for the sole purpose of simplifying the
generation of INSERT operations").
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ordb.errors import DanglingReference
from repro.ordb.sql import ast
from repro.ordb.sql.render import render_sql
from repro.xmlkit.dom import Document, Element
from repro.xmlkit.serializer import serialize
from .generator import TypeMember, type_members
from .plan import ElementKind, ElementPlan, MappingPlan, Storage


#: the shared NULL argument of every constructor call
_NULL = ast.Literal(None)
#: ``REF(x_)``, the select list of every REF subquery
_REF_ITEMS = (ast.SelectItem(
    ast.FunctionCall("REF", (ast.ColumnPath(("x_",)),))),)


@dataclass
class LoadResult:
    """Everything the facade needs to know about one load.

    ``statements`` holds the load script as ASTs, ready for
    :meth:`~repro.ordb.engine.Database.execute`; :attr:`sql` prints
    it as SQL text on demand.
    """

    doc_id: int
    statements: list[ast.Insert | ast.Update] = field(default_factory=list)
    root_row_id: str = ""
    warnings: list[str] = field(default_factory=list)

    @property
    def sql(self) -> list[str]:
        """The load script as SQL text, one string per statement."""
        return [render_sql(statement) for statement in self.statements]

    @property
    def insert_count(self) -> int:
        return sum(1 for s in self.statements if isinstance(s, ast.Insert))

    @property
    def update_count(self) -> int:
        return sum(1 for s in self.statements if isinstance(s, ast.Update))


@dataclass
class _PendingIdref:
    """An IDREF column to fill in after all rows exist."""

    table: str
    id_column: str
    row_id: str
    column: str
    idref_value: str
    target: ElementPlan
    element: Element
    attribute: str


def element_path(element: Element) -> str:
    """An XPath-like location for error messages:
    ``/Root/Child[2]/Leaf``."""
    parts: list[str] = []
    node: object = element
    while isinstance(node, Element):
        parent = node.parent
        if isinstance(parent, Element):
            siblings = parent.find_all(node.tag)
            if len(siblings) > 1:
                position = next(
                    index for index, sibling
                    in enumerate(siblings, start=1)
                    if sibling is node)
                parts.append(f"{node.tag}[{position}]")
            else:
                parts.append(node.tag)
        else:
            parts.append(node.tag)
        node = parent
    return "/" + "/".join(reversed(parts))


def _ref_lookup(table: str, column: tuple[str, ...],
               value: str) -> ast.ScalarSubquery:
    """``(SELECT REF(x_) FROM table x_ WHERE x_.column = 'value')``."""
    return ast.ScalarSubquery(ast.SelectStmt(
        _REF_ITEMS, (ast.TableRef(table, "x_"),),
        ast.BinaryOp("=", ast.ColumnPath(("x_",) + column),
                     ast.Literal(value))))


class DocumentLoader:
    """Generates the statements that store one document."""

    def __init__(self, plan: MappingPlan, doc_id: int, tracer=None):
        self.plan = plan
        self.doc_id = doc_id
        #: optional :class:`repro.obs.Tracer`; adds a ``shred`` span
        self.tracer = tracer
        self.result = LoadResult(doc_id)
        self._counter = 0
        self._root_element: Element | None = None
        #: DOM elements already stored as rows (pass A): node -> row id
        self._stored_rows: dict[int, str] = {}
        self._row_elements: dict[int, Element] = {}
        self._pending_idrefs: list[_PendingIdref] = []

    # -- public API --------------------------------------------------------------

    def load(self, document: Document | Element) -> LoadResult:
        if self.tracer is None:
            return self._load(document)
        with self.tracer.span("insert_gen", doc_id=self.doc_id) as span:
            result = self._load(document)
            span.set(inserts=result.insert_count,
                     updates=result.update_count)
            return result

    def _load(self, document: Document | Element) -> LoadResult:
        root = (document.root_element if isinstance(document, Document)
                else document)
        if root.tag != self.plan.root.name:
            raise ValueError(
                f"document root <{root.tag}> does not match schema root"
                f" <{self.plan.root.name}>")
        self._root_element = root
        self._insert_id_targets(root)
        self.result.root_row_id = self._insert_table_row(
            self.plan.root, root, parent_id=None, parent_plan=None,
            parent_link=None)
        self._emit_idref_updates()
        return self.result

    # -- identifiers ----------------------------------------------------------------

    def _row_id_for(self, element: Element) -> str:
        """Root gets the bare ``D<doc>`` id the retriever looks up."""
        if element is self._root_element:
            return f"D{self.doc_id}"
        self._counter += 1
        return f"D{self.doc_id}.{self._counter:08d}"

    # -- pass A: ID/IDREF targets ------------------------------------------------------

    def _idref_target_names(self) -> set[str]:
        names: set[str] = set()
        for plan in self.plan.elements.values():
            pool = (plan.attr_list.attributes if plan.attr_list
                    else plan.attributes)
            for attribute in pool:
                if attribute.ref_target is not None:
                    names.add(attribute.ref_target)
        return names

    def _insert_id_targets(self, root: Element) -> None:
        target_names = self._idref_target_names()
        if not target_names:
            return
        for element in root.iter_elements():
            if element.tag not in target_names or element is root:
                continue
            plan = self.plan.element(element.tag)
            if plan is None or not plan.is_table_stored:
                continue
            if id(element) in self._stored_rows:
                continue
            self._insert_table_row(plan, element, parent_id=None,
                                   parent_plan=None, parent_link=None)

    # -- table rows ----------------------------------------------------------------------

    def _insert_table_row(self, plan: ElementPlan, element: Element,
                          parent_id: str | None,
                          parent_plan: ElementPlan | None,
                          parent_link) -> str:
        if id(element) in self._stored_rows:
            return self._stored_rows[id(element)]
        row_id = self._row_id_for(element)
        self._stored_rows[id(element)] = row_id
        self._row_elements[id(element)] = element
        arguments: list[ast.Expr] = []
        child_table_links = []
        for member in type_members(plan, self.plan):
            if member.kind == "parentref":
                if (parent_plan is not None and parent_link is not None
                        and member.parent is parent_plan):
                    arguments.append(self._ref_subquery(
                        parent_plan, parent_id))
                else:
                    arguments.append(_NULL)
            else:
                arguments.append(self._member_value(
                    member, plan, element, row_id))
        for link in plan.links:
            if link.storage is Storage.CHILD_TABLE:
                child_table_links.append(link)
        constructor = ast.FunctionCall(plan.object_type, tuple(arguments))
        self.result.statements.append(
            ast.Insert(plan.table, values=(constructor,)))
        for link in child_table_links:
            for child_element in element.find_all(link.child.name):
                self._insert_table_row(link.child, child_element,
                                       parent_id=row_id,
                                       parent_plan=plan,
                                       parent_link=link)
        return row_id

    @staticmethod
    def _ref_subquery(target: ElementPlan, row_id: str | None) -> ast.Expr:
        if row_id is None:
            return _NULL
        return _ref_lookup(target.table, (target.id_column,), row_id)

    # -- member values --------------------------------------------------------------------

    def _member_value(self, member: TypeMember, plan: ElementPlan,
                      element: Element, row_id: str) -> ast.Expr:
        if member.kind == "id":
            return ast.Literal(row_id)
        if member.kind == "text":
            return self._text_value(plan, element)
        if member.kind == "xmlattr":
            return self._attribute_value(member, plan, element, row_id)
        if member.kind == "attrlist":
            return self._attrlist_value(plan, element, row_id)
        assert member.kind == "link"
        return self._link_value(member.link, element)

    def _text_value(self, plan: ElementPlan,
                    element: Element) -> ast.Literal:
        if plan.kind is ElementKind.ANY or (
                plan.kind is ElementKind.MIXED
                and self.plan.config.mixed_as_markup):
            inner = "".join(serialize(child)
                            for child in element.children)
            return ast.Literal(inner)
        if plan.kind is ElementKind.MIXED:
            return ast.Literal(element.text_content())
        return ast.Literal(element.text())

    def _attribute_value(self, member: TypeMember, plan: ElementPlan,
                         element: Element, row_id: str) -> ast.Expr:
        attribute = member.attribute
        value = element.get(attribute.xml_name)
        if value is None:
            return _NULL
        if attribute.ref_target is None:
            return ast.Literal(value)
        target = self.plan.element(attribute.ref_target)
        if plan.is_table_stored:
            # fill by UPDATE once every row exists (forward IDREFs)
            self._pending_idrefs.append(_PendingIdref(
                table=plan.table, id_column=plan.id_column,
                row_id=row_id, column=member.column,
                idref_value=value, target=target,
                element=element, attribute=attribute.xml_name))
            return _NULL
        # inline element: the target row already exists (pass A)
        return self._idref_subquery(target, value)

    def _idref_subquery(self, target: ElementPlan,
                        value: str) -> ast.Expr:
        id_attribute = next(
            (attribute for attribute in
             (target.attr_list.attributes if target.attr_list
              else target.attributes)
             if attribute.is_id), None)
        if id_attribute is None:
            self.result.warnings.append(
                f"IDREF '{value}': target <{target.name}> has no ID"
                f" attribute column")
            return _NULL
        if target.attr_list is not None:
            column = (target.attr_list.column, id_attribute.db_name)
        else:
            column = (id_attribute.db_name,)
        return _ref_lookup(target.table, column, value)

    def _attrlist_value(self, plan: ElementPlan, element: Element,
                        row_id: str) -> ast.Expr:
        attr_list = plan.attr_list
        assert attr_list is not None
        if not any(element.has_attribute(a.xml_name)
                   for a in attr_list.attributes):
            return _NULL
        arguments: list[ast.Expr] = []
        for attribute in attr_list.attributes:
            value = element.get(attribute.xml_name)
            if value is None:
                arguments.append(_NULL)
            elif attribute.ref_target is not None:
                target = self.plan.element(attribute.ref_target)
                arguments.append(self._idref_subquery(target, value))
            else:
                arguments.append(ast.Literal(value))
        return ast.FunctionCall(attr_list.type_name, tuple(arguments))

    # -- link values -------------------------------------------------------------------------

    def _link_value(self, link, element: Element) -> ast.Expr:
        children = element.find_all(link.child.name)
        if not children:
            return _NULL
        if link.storage is Storage.SCALAR_COLUMN:
            return ast.Literal(self._scalar_text(link.child, children[0]))
        if link.storage is Storage.SCALAR_COLLECTION:
            return ast.FunctionCall(link.collection_type, tuple(
                ast.Literal(self._scalar_text(link.child, child))
                for child in children))
        if link.storage is Storage.OBJECT_COLUMN:
            return self._inline_constructor(link.child, children[0])
        if link.storage is Storage.OBJECT_COLLECTION:
            return ast.FunctionCall(link.collection_type, tuple(
                self._inline_constructor(link.child, child)
                for child in children))
        if link.storage is Storage.REF_COLUMN:
            child_id = self._insert_table_row(
                link.child, children[0], None, None, None)
            return self._ref_subquery(link.child, child_id)
        assert link.storage is Storage.REF_COLLECTION
        subqueries = []
        for child in children:
            child_id = self._insert_table_row(link.child, child, None,
                                              None, None)
            subqueries.append(self._ref_subquery(link.child, child_id))
        return ast.FunctionCall(link.collection_type, tuple(subqueries))

    def _scalar_text(self, plan: ElementPlan, element: Element) -> str:
        if plan.kind is ElementKind.EMPTY:
            return "Y"  # presence flag for empty elements
        if plan.kind is ElementKind.ANY or (
                plan.kind is ElementKind.MIXED
                and self.plan.config.mixed_as_markup):
            return "".join(serialize(child) for child in element.children)
        if plan.kind is ElementKind.MIXED:
            return element.text_content()
        return element.text()

    def _inline_constructor(self, plan: ElementPlan,
                            element: Element) -> ast.FunctionCall:
        row_id = ""  # inline objects carry no synthetic id
        arguments = []
        for member in type_members(plan, self.plan):
            if member.kind == "parentref":
                arguments.append(_NULL)
            else:
                arguments.append(self._member_value(member, plan,
                                                    element, row_id))
        return ast.FunctionCall(plan.object_type, tuple(arguments))

    # -- pass C: IDREF updates ------------------------------------------------------------------

    def _target_id_attribute(self, target: ElementPlan):
        pool = (target.attr_list.attributes if target.attr_list
                else target.attributes)
        return next((a for a in pool if a.is_id), None)

    def _check_idref_target(self, pending: _PendingIdref) -> None:
        """ORA-22888 when a forward IDREF never finds its row.

        Without this check the deferred UPDATE's scalar subquery comes
        back empty and the column is silently left NULL — a dangling
        REF the retriever only trips over much later.  Fail at load
        time instead, naming the offending ID value and where in the
        document it sits.  (Targets *without* an ID attribute keep the
        historical warn-and-NULL behaviour of
        :meth:`_idref_subquery`.)
        """
        id_attribute = self._target_id_attribute(pending.target)
        if id_attribute is None:
            return
        for candidate in self._row_elements.values():
            if (candidate.tag == pending.target.name
                    and candidate.get(id_attribute.xml_name)
                    == pending.idref_value):
                return
        raise DanglingReference(
            f"IDREF {pending.attribute}="
            f"'{pending.idref_value}' at"
            f" {element_path(pending.element)} references no"
            f" <{pending.target.name}> element: no row in"
            f" {pending.target.table} carries"
            f" {id_attribute.xml_name}='{pending.idref_value}'")

    def _emit_idref_updates(self) -> None:
        for pending in self._pending_idrefs:
            self._check_idref_target(pending)
            subquery = self._idref_subquery(pending.target,
                                            pending.idref_value)
            self.result.statements.append(ast.Update(
                pending.table, "t_",
                ((ast.ColumnPath((pending.column,)), subquery),),
                ast.BinaryOp("=", ast.ColumnPath(("t_", pending.id_column)),
                             ast.Literal(pending.row_id))))


def load_document(plan: MappingPlan, document: Document | Element,
                  doc_id: int) -> LoadResult:
    """Generate the load statements for *document* (convenience
    wrapper)."""
    return DocumentLoader(plan, doc_id).load(document)
