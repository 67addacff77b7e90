"""Tests of the benchmark's own release checker and input generator.

Run from the repository root: ``python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import check  # noqa: E402
import gen  # noqa: E402

SENT = "a,b,c\n1,x,p\n1,y,p\n2,x,q\n2,x,q\n"
#: a valid 2-anonymous release of SENT with 2 stars
RELEASED = "a,b,c\n1,*,p\n1,*,p\n2,x,q\n2,x,q\n"


def problems(released: str, k: int, stars: object) -> list[str]:
    return check.audit(SENT, released, k, stars)[0]


def test_valid_release_passes():
    assert check.audit(SENT, RELEASED, 2, 2) == ([], 2, 12)


def test_corrupted_cell_is_flagged():
    corrupted = RELEASED.replace("2,x,q\n2,x,q", "2,x,q\n2,z,q")
    found = problems(corrupted, 1, 2)
    assert any("neither" in problem for problem in found)


def test_non_k_anonymous_release_is_flagged():
    found = problems(SENT, 2, 0)
    assert any("smaller than k=2" in problem for problem in found)


def test_wrong_stars_count_is_flagged():
    assert problems(RELEASED, 2, 3) == [
        "reported stars 3 but the release has 2"]


def test_shape_and_header_changes_are_flagged():
    assert problems(RELEASED.replace("a,b,c", "a,b,d"), 2, 2)
    assert problems(RELEASED.rsplit("2,x,q\n", 1)[0], 1, 2)
    assert problems(RELEASED.replace("1,*,p\n1,*,p", "1,*\n1,*"), 1, 0)


def test_audit_accepts_the_input_as_lists():
    header, rows = check.parse(SENT)
    assert check.audit((header, rows), RELEASED, 2, 2) == ([], 2, 12)


def test_generator_is_a_pure_function_of_seed_stream_and_index():
    first = gen.table_csv(3, "cold-solve", 5, 50)
    assert first == gen.table_csv(3, "cold-solve", 5, 50)
    assert first != gen.table_csv(4, "cold-solve", 5, 50)
    assert first != gen.table_csv(3, "warm-hits", 5, 50)
    header, rows = check.parse(first)
    assert tuple(header) == gen.HEADER
    assert len(rows) == 50 and all(len(row) == 7 for row in rows)
    assert gen.digest([first]) == gen.digest([first])
    assert gen.digest([first, ""]) != gen.digest([first])
