"""Seeded inputs and the independent oracle the checks compare against.

Documents come from the repository's own ``make_university_xml``
generator (the paper's Appendix A document type), drawn with shapes
taken from one ``random.Random(seed)``.  The oracle parses the same
text with the standard library's ElementTree, never with the parser
under test, and answers the benchmark's path queries in plain Python.
"""

from __future__ import annotations

import random
import xml.etree.ElementTree as ET
from collections import Counter
from dataclasses import dataclass

from repro.workloads.university import make_university_xml

ROOT_TABLE = "TabUniversity"
ROOT_ID = "IDUniversity"

#: Value domains of ``make_university_xml`` (the predicates query them).
PROFESSORS = ("Kudrass", "Jaeger", "Weicker", "Hartmann", "Vogel")
DEPARTMENTS = ("Computer Science", "Mathematics", "Electrical Engineering")
LAST_NAMES = ("Conrad", "Meier", "Schulz", "Lehmann", "Fischer",
              "Wagner", "Becker", "Hoffmann", "Koch", "Richter")


class Deck:
    """An endless seeded stream that deals every item of *items* once
    per shuffled pass, so the mix of a run of draws is the same for
    every seed and only its order changes."""

    def __init__(self, rng: random.Random, items):
        self.rng = rng
        self.items = list(items)
        self._pending: list = []

    def next(self):
        if not self._pending:
            self._pending = list(self.items)
            self.rng.shuffle(self._pending)
        return self._pending.pop()


class Documents:
    """An endless seeded stream of university documents.

    Shapes come in shuffled blocks that each hold the same 24 shapes,
    spread evenly over the student range and the other size knobs, so
    two seeds differ in content and order but hardly in the amount of
    work a run of documents carries.
    """

    BLOCK = 24

    def __init__(self, rng: random.Random, min_students: int,
                 max_students: int):
        self.rng = rng
        span = max_students - min_students
        # (students, courses per student, professors per course,
        # subjects per professor): 12 combinations of the last three,
        # each twice, against evenly spread student counts
        self.shapes = Deck(rng, [
            (min_students + round(i * span / (self.BLOCK - 1)),
             1 + i % 3, 1 + (i // 3) % 2, 1 + (i // 6) % 2)
            for i in range(self.BLOCK)])

    def next(self) -> str:
        students, courses, professors, subjects = self.shapes.next()
        return make_university_xml(
            students=students, courses_per_student=courses,
            professors_per_course=professors,
            subjects_per_professor=subjects,
            seed=self.rng.randrange(2 ** 31))


@dataclass
class Professor:
    name: str
    dept: str


@dataclass
class Course:
    name: str
    professors: list[Professor]


@dataclass
class Student:
    number: str
    last_name: str
    first_name: str
    courses: list[Course]


def oracle_document(text: str) -> list[Student]:
    """The students of one document, read by ElementTree."""
    root = ET.fromstring(text)
    students = []
    for student in root.iter("Student"):
        courses = [
            Course(course.findtext("Name"),
                   [Professor(p.findtext("PName"), p.findtext("Dept"))
                    for p in course.findall("Professor")])
            for course in student.findall("Course")]
        students.append(Student(student.get("StudNr"),
                                student.findtext("LName"),
                                student.findtext("FName"), courses))
    return students


# -- the path queries, as (facade arguments, oracle) pairs --------------------
#
# Each query runs through ``XML2Oracle.query(path, predicate, doc_id,
# select=...)``; the dot-notation SQL unnests collections, so a result
# holds one row per matching (student, course, professor) binding.


def point_query(doc_id: int, professor: str) -> dict:
    """Last names of one document's students taught by *professor*."""
    return {"path": "/University/Student",
            "predicate": ("Course/Professor/PName", "=", professor),
            "doc_id": doc_id, "select": "LName"}


def point_answer(students: list[Student], professor: str) -> Counter:
    return Counter((s.last_name,) for s in students for c in s.courses
                   for p in c.professors if p.name == professor)


#: Cross-document queries: no doc_id, so every stored row is scanned.
SCAN_QUERIES = (
    [("course_by_professor", name) for name in PROFESSORS]
    + [("course_by_dept", name) for name in DEPARTMENTS]
    + [("student_by_last_name", name) for name in LAST_NAMES])


def scan_query(kind: str, value: str) -> dict:
    if kind == "course_by_professor":
        return {"path": "/University/Student/Course",
                "predicate": ("Professor/PName", "=", value),
                "select": "Name"}
    if kind == "course_by_dept":
        return {"path": "/University/Student/Course",
                "predicate": ("Professor/Dept", "=", value),
                "select": "Name"}
    return {"path": "/University/Student",
            "predicate": ("LName", "=", value), "select": "FName"}


def scan_answer(documents: list[list[Student]], kind: str,
                value: str) -> Counter:
    answer: Counter = Counter()
    for students in documents:
        for s in students:
            if kind == "student_by_last_name":
                if s.last_name == value:
                    answer[(s.first_name,)] += 1
                continue
            for c in s.courses:
                for p in c.professors:
                    if (p.name if kind == "course_by_professor"
                            else p.dept) == value:
                        answer[(c.name,)] += 1
    return answer
