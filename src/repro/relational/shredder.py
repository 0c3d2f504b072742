"""Shared machinery for the generic relational mappings.

The paper's motivation (Section 1) contrasts its content-oriented
object-relational mapping with the *structure-oriented* relational
algorithms of Florescu & Kossmann [5] and Shanmugasundaram et al. [9]:
generic edge/attribute tables and DTD inlining.  Those baselines are
implemented in this package so the reproduction can measure the two
drawbacks the paper names — the "high degree of decomposition ...
which turns the upload of a document into a large number of relational
insert operations" and the loss of non-data content.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ordb.identifiers import MAX_IDENTIFIER_LENGTH, is_reserved
from repro.ordb.sql.render import quote_string as sql_quote
from repro.xmlkit.dom import Document, Element

#: Upper bound for shredded text values (same default as Section 4.1).
VALUE_LENGTH = 4000


@dataclass
class LoadReport:
    """What it took to load one document."""

    doc_id: int
    statements: list[str] = field(default_factory=list)

    @property
    def insert_count(self) -> int:
        return len(self.statements)


def sanitize_name(name: str, prefix: str = "", used: set[str] | None = None
                  ) -> str:
    """Make *name* a legal, unique SQL identifier.

    Applies the same rules Section 5 worries about: strip illegal
    characters, avoid reserved words, respect the 30-character limit,
    and disambiguate collisions with a numeric suffix.
    """
    cleaned = "".join(ch if ch.isalnum() or ch == "_" else "_"
                      for ch in name)
    if not cleaned or not (cleaned[0].isalpha() or cleaned[0] == "_"):
        cleaned = "X" + cleaned
    candidate = prefix + cleaned
    if is_reserved(candidate):
        candidate += "_"
    candidate = candidate[:MAX_IDENTIFIER_LENGTH]
    if used is None:
        return candidate
    base = candidate
    suffix = 1
    while candidate.upper() in used:
        suffix += 1
        tail = str(suffix)
        candidate = base[:MAX_IDENTIFIER_LENGTH - len(tail)] + tail
    used.add(candidate.upper())
    return candidate


def clip_value(text: str) -> str:
    """Truncate shredded text to the relational value length."""
    return text[:VALUE_LENGTH]


def document_root(document: Document | Element) -> Element:
    """Accept either a Document or an Element for loading APIs."""
    if isinstance(document, Document):
        return document.root_element
    return document


class NodeIdAllocator:
    """Dense node ids for one shredding run (0 is the virtual root)."""

    def __init__(self) -> None:
        self._next = 0

    def allocate(self) -> int:
        self._next += 1
        return self._next
