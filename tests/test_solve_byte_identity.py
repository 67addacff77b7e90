"""Byte-identity lock on the Theorem 4.2 solve path, and its table cache.

The center/ball solver (``center_cover``) and the standalone Reduce
heuristic (``reduce_cover``) run on vectorised kernels: the neighbour
index sorts each distance row with one stable ``argsort``, and the
Reduce split reads the anchor's distances in one call per peel.  Those
kernels must not change a single released byte, so this suite pins the
SHA-256 digests of seeded census releases (recorded before the kernels
were vectorised) on every backend, checks the split against the scalar
per-member sort it replaced on a tie-heavy group, and checks that a
solved table is collected together with its cached backends.
"""

from __future__ import annotations

import copy
import gc
import hashlib
import pickle
import weakref

import numpy as np
import pytest

from repro.algorithms.center_cover import CenterCoverAnonymizer
from repro.algorithms.reduce_cover import ReduceCoverAnonymizer
from repro.core.backend import available_backends, get_backend, make_backend
from repro.core.partition import split_into_small_groups
from repro.core.table import Table
from repro.workloads import census_table, quasi_identifiers

#: sha256 of ``anonymize(quasi_identifiers(census_table(400, seed)), 4)
#: .anonymized.to_csv()``, identical on every backend
RELEASE_DIGESTS = {
    (11, "center_cover"):
        "a18b3f98878b3d628f9d45fe4f7143293930c36b84950ed72d0c71cb0a945127",
    (11, "reduce_cover"):
        "45154bc2044c3b474c9284ab5b94b47b3caf8b1a351dfce7d33ac0bf91d05c6e",
    (12, "center_cover"):
        "ac4481443705281a6ef9e5243f161238f85d5ef8e24e98b95c22d76ad345e184",
    (12, "reduce_cover"):
        "fd84edfec9894afd62c1b389ee0b257c2e5cefa4f9d8ffe4fd30781078902fcd",
    (13, "center_cover"):
        "fcdf1b8ae9b2bd623cf98d553bb50156454b17e183166e6e9f4a1c3227645b56",
    (13, "reduce_cover"):
        "3cef1bb7fe55fea9c0f6e86d5b269e1d5598d1c28a04ebeebfbcea8a37cf9856",
}

SOLVERS = {
    "center_cover": CenterCoverAnonymizer,
    "reduce_cover": ReduceCoverAnonymizer,
}


@pytest.mark.parametrize("backend", available_backends())
@pytest.mark.parametrize("seed, algorithm", sorted(RELEASE_DIGESTS))
def test_release_digest_is_pinned(seed, algorithm, backend):
    table = quasi_identifiers(census_table(400, seed=seed))
    result = SOLVERS[algorithm](backend=backend).anonymize(table, 4)
    digest = hashlib.sha256(result.anonymized.to_csv().encode()).hexdigest()
    assert digest == RELEASE_DIGESTS[seed, algorithm]


def _reference_split(backend, groups, k):
    """The split with one scalar ``distance`` call per member as sort key."""
    result = []
    for raw in groups:
        members = sorted(raw)
        while len(members) >= 2 * k:
            anchor = members[0]
            members.sort(key=lambda i: backend.distance(anchor, i))
            result.append(frozenset(members[:k]))
            members = members[k:]
        result.append(frozenset(members))
    return result


def _tie_heavy_table() -> Table:
    # 3 binary columns and 40 rows: every distance is 0..3, so each
    # anchor sees long runs of equidistant members (and duplicates)
    data = np.random.default_rng(7).integers(0, 2, size=(40, 3))
    return Table([tuple(int(v) for v in row) for row in data])


@pytest.mark.parametrize("warm", ["cold", "rows", "matrix"])
@pytest.mark.parametrize("backend", available_backends())
def test_split_matches_scalar_sort_under_ties(backend, warm):
    table = _tie_heavy_table()
    k = 3
    groups = [range(0, 25), range(25, 31), range(31, 40)]
    resolved = make_backend(table, backend)
    if warm == "rows":
        for i in range(table.n_rows):
            resolved.distance_row(i)
    elif warm == "matrix":
        resolved.distance_matrix()
    expected = _reference_split(make_backend(table, "python"), groups, k)
    assert split_into_small_groups(table, groups, k,
                                   backend=resolved) == expected
    assert all(k <= len(g) <= 2 * k - 1 for g in expected)


def test_solved_table_is_collected_with_its_backends():
    table = quasi_identifiers(census_table(60, seed=3))
    backend = get_backend(table)
    result = CenterCoverAnonymizer().anonymize(table, 3)
    assert result.is_valid(table)
    table_ref, backend_ref = weakref.ref(table), weakref.ref(backend)
    del table, backend, result
    gc.collect()
    assert table_ref() is None
    assert backend_ref() is None


def test_backend_cache_stays_out_of_pickles_and_copies():
    table = Table([(0, 1), (1, 0), (1, 1)], attributes=["a", "b"])
    get_backend(table, "python").distance_row(0)
    assert table.backend_cache()
    clones = (pickle.loads(pickle.dumps(table)), copy.copy(table),
              copy.deepcopy(table))
    for clone in clones:
        assert clone == table and clone.attributes == ("a", "b")
        assert clone.backend_cache() == {}
        assert get_backend(clone, "python").table is clone
