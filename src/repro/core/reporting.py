"""Comparison reporting: the paper's qualitative table, computed.

Produces the decomposition/navigation numbers that the paper's
argument rests on, for one document across all five mappings (the OR
mapping in both modes and the three generic baselines).  Used by the
`relational_comparison` example, the CLM benchmarks and tests, so the
numbers in EXPERIMENTS.md are regenerable from one place.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core.loader import load_document
from repro.core.queries import PathQueryBuilder
from repro.core.xml2oracle import XML2Oracle
from repro.dtd.model import DTD
from repro.ordb.engine import Database
from repro.ordb.schema import CompatibilityMode
from repro.relational.attribute import AttributeMapping
from repro.relational.edge import EdgeMapping
from repro.relational.inlining import InliningMapping
from repro.xmlkit.dom import Document, Element


@dataclass
class MappingMeasurement:
    """One mapping's numbers for one document/query pair."""

    label: str
    insert_statements: int
    load_seconds: float
    query_joins: int
    query_seconds: float
    query_rows: int


@dataclass
class ComparisonReport:
    """All mappings side by side."""

    document_nodes: int
    measurements: list[MappingMeasurement] = field(default_factory=list)

    def by_label(self, label: str) -> MappingMeasurement:
        for measurement in self.measurements:
            if measurement.label == label:
                return measurement
        raise KeyError(label)

    def format_table(self) -> str:
        header = (f"{'mapping':<22}{'INSERTs':>8}{'load s':>9}"
                  f"{'joins':>7}{'query s':>9}{'rows':>6}")
        lines = [header, "-" * len(header)]
        for m in self.measurements:
            lines.append(
                f"{m.label:<22}{m.insert_statements:>8}"
                f"{m.load_seconds:>9.4f}{m.query_joins:>7}"
                f"{m.query_seconds:>9.4f}{m.query_rows:>6}")
        return "\n".join(lines)

    def ordering_holds(self) -> bool:
        """The CLM1 claim: OR9 < OR8 <= inlining < attribute < edge."""
        counts = [self.by_label(label).insert_statements
                  for label in ("or_oracle9", "or_oracle8", "inlining",
                                "attribute", "edge")]
        return (counts[0] == 1 and counts[0] < counts[1]
                and counts[1] <= counts[2] < counts[3] < counts[4])


def compare_mappings(dtd: DTD, document: Document | Element,
                     path: list[str],
                     query_repeats: int = 1) -> ComparisonReport:
    """Measure all five mappings on *document* and *path*."""
    root = (document.root_element if isinstance(document, Document)
            else document)
    report = ComparisonReport(
        document_nodes=sum(1 for _ in root.iter()))
    for mode, label in ((CompatibilityMode.ORACLE9, "or_oracle9"),
                        (CompatibilityMode.ORACLE8, "or_oracle8")):
        report.measurements.append(
            _measure_or(dtd, document, path, mode, label,
                        query_repeats))
    report.measurements.append(
        _measure_baseline(dtd, document, path, "inlining",
                          query_repeats))
    report.measurements.append(
        _measure_baseline(dtd, document, path, "attribute",
                          query_repeats))
    report.measurements.append(
        _measure_baseline(dtd, document, path, "edge", query_repeats))
    return report


def _measure_or(dtd: DTD, document, path: list[str],
                mode: CompatibilityMode, label: str,
                query_repeats: int) -> MappingMeasurement:
    tool = XML2Oracle(mode=mode, metadata=False,
                      validate_documents=False)
    tool.register_schema(dtd)
    plan = tool.schemas[0].plan
    result = load_document(plan, document, 1)
    start = time.perf_counter()
    # SQL text, like the baselines send: the load time compares
    # mappings, not text against pre-built statements
    for statement in result.sql:
        tool.db.execute(statement)
    load_seconds = time.perf_counter() - start
    query = PathQueryBuilder(plan).build("/" + "/".join(path))
    start = time.perf_counter()
    for _ in range(query_repeats):
        rows = tool.db.execute(query.sql).rows
    query_seconds = (time.perf_counter() - start) / query_repeats
    return MappingMeasurement(label, result.insert_count, load_seconds,
                              query.join_count, query_seconds,
                              len(rows))


def _measure_baseline(dtd: DTD, document, path: list[str], label: str,
                      query_repeats: int) -> MappingMeasurement:
    db = Database()
    if label == "edge":
        mapping = EdgeMapping()
        mapping.install(db)
        sql = mapping.path_query(path, doc_id=1)
    elif label == "attribute":
        mapping = AttributeMapping()
        mapping.prepare(mapping.collect_names(document))
        mapping.install(db)
        sql = mapping.path_query(path, doc_id=1)
    else:
        mapping = InliningMapping(dtd)
        mapping.install(db)
        sql = mapping.path_query(path)
    start = time.perf_counter()
    result = mapping.load(db, document, 1)
    load_seconds = time.perf_counter() - start
    joins = db.explain(sql).join_count
    start = time.perf_counter()
    for _ in range(query_repeats):
        rows = db.execute(sql).rows
    query_seconds = (time.perf_counter() - start) / query_repeats
    return MappingMeasurement(label, result.insert_count, load_seconds,
                              joins, query_seconds, len(rows))
