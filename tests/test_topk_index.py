"""Unit + property tests for ε-approximate top-k maintenance.

The central invariant (§II-A):

    members[i] = { p alive : <u_i, p> >= (1-ε)·ω_k(u_i, P) }

must hold after every insertion and deletion, with τ = 0 while |P| <= k.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.topk import ADD, REMOVE, ApproxTopKIndex
from repro.data.database import Database
from repro.geometry.sampling import sample_utilities_with_basis


def check_invariant(index: ApproxTopKIndex, db: Database) -> None:
    ids, pts = db.snapshot()
    for i in range(index.pool_size):
        u = index.utility(i)
        members = set(index.members_of(i))
        if ids.size == 0:
            assert members == set()
            continue
        scores = pts @ u
        if ids.size <= index.k:
            tau = 0.0
        else:
            tau = (1.0 - index.eps) * float(
                np.partition(scores, ids.size - index.k)[ids.size - index.k])
        expect = {int(ids[j]) for j in np.flatnonzero(scores >= tau - 1e-12)}
        # Allow boundary tuples to differ only by floating error.
        sym = members ^ expect
        for pid in sym:
            score = float(db.point(pid) @ u)
            assert abs(score - tau) < 1e-9, (i, pid, score, tau)


def make_index(points, m=24, k=1, eps=0.05, seed=0):
    db = Database(points)
    utils = sample_utilities_with_basis(m, points.shape[1], seed=seed)
    return db, ApproxTopKIndex(db, utils, k, eps)


class TestBootstrap:
    def test_invariant_after_build(self, small_cloud):
        db, index = make_index(small_cloud)
        check_invariant(index, db)

    def test_inverted_index_consistency(self, small_cloud):
        db, index = make_index(small_cloud)
        for i in range(index.pool_size):
            for pid in index.members_of(i):
                assert i in index.sets_containing(pid)

    def test_small_db_all_members(self, rng):
        pts = rng.random((3, 3))
        db, index = make_index(pts, k=5)
        for i in range(index.pool_size):
            assert set(index.members_of(i)) == {0, 1, 2}

    def test_k_and_eps_validation(self, small_cloud):
        db = Database(small_cloud)
        utils = sample_utilities_with_basis(8, 4, seed=0)
        with pytest.raises(ValueError):
            ApproxTopKIndex(db, utils, 0, 0.05)
        with pytest.raises(ValueError):
            ApproxTopKIndex(db, utils, 1, 0.0)


class TestInsert:
    def test_dominating_insert_joins_every_set(self, small_cloud):
        db, index = make_index(small_cloud)
        pid, deltas = index.insert(np.array([1.0, 1.0, 1.0, 1.0]))
        added_everywhere = {d.u_index for d in deltas
                            if d.kind == ADD and d.tuple_id == pid}
        assert added_everywhere == set(range(index.pool_size))
        check_invariant(index, db)

    def test_weak_insert_changes_nothing(self, small_cloud):
        db, index = make_index(small_cloud)
        _, deltas = index.insert(np.array([0.001, 0.001, 0.001, 0.001]))
        assert deltas == []
        check_invariant(index, db)

    def test_insert_can_evict(self, rng):
        # Points near the threshold get evicted when a strong point
        # raises ω_k.
        pts = rng.random((100, 3)) * 0.5
        db, index = make_index(pts, eps=0.02)
        _, deltas = index.insert(np.array([1.0, 1.0, 1.0]))
        assert any(d.kind == REMOVE for d in deltas)
        check_invariant(index, db)

    def test_equal_score_is_reached_and_never_evicted(self):
        # Axis utilities score a tuple by one coordinate, exactly, and
        # eps = 0.5 halves exactly, so τ_0 = 0.8 / 2 == 0.4 bit for bit.
        db = Database(np.array([[0.8, 0.1], [0.45, 0.2], [0.3, 0.9]]))
        index = ApproxTopKIndex(db, np.eye(2), 1, 0.5)
        assert index.threshold(0) == 0.4
        run = index.begin_insert_run([[0.4, 0.0], [0.9, 0.0]])
        pid_eq, deltas = run.step()  # score == τ_0: reached
        assert (0, pid_eq, ADD) in {(d.u_index, d.tuple_id, d.kind)
                                    for d in deltas}
        pid_top, deltas = run.step()  # τ_0 = 0.45, tuple 1's exact score
        assert index.threshold(0) == 0.45
        assert {(d.u_index, d.tuple_id, d.kind) for d in deltas
                if d.kind == REMOVE} == {(0, pid_eq, REMOVE)}
        assert index.members_of(0) == [1, 0, pid_top]
        check_invariant(index, db)


class TestDelete:
    def test_delete_topk_tuple_rebuilds(self, small_cloud, rng):
        db, index = make_index(small_cloud)
        u0 = index.utility(4)  # a sampled (non-basis) utility
        ids, _ = db.top_k(u0, 1)
        deltas = index.delete(int(ids[0]))
        assert any(d.kind == REMOVE and d.tuple_id == int(ids[0])
                   for d in deltas)
        check_invariant(index, db)

    def test_delete_margin_tuple_cheap(self, small_cloud):
        db, index = make_index(small_cloud, eps=0.2)
        # Find a member that is not in the exact top-1 of any utility.
        all_top = set()
        for i in range(index.pool_size):
            ids, _ = db.top_k(index.utility(i), 1)
            all_top.add(int(ids[0]))
        margin = None
        for pid in range(len(db)):
            if pid not in all_top and index.sets_containing(pid):
                margin = pid
                break
        if margin is None:
            pytest.skip("no margin member in this draw")
        index.delete(margin)
        check_invariant(index, db)

    def test_delete_to_empty(self, rng):
        pts = rng.random((3, 2))
        db, index = make_index(pts, m=6)
        for pid in range(3):
            index.delete(pid)
        assert len(db) == 0
        for i in range(index.pool_size):
            assert index.members_of(i) == []

    def test_deltas_describe_exact_membership_change(self, small_cloud):
        db, index = make_index(small_cloud)
        before = {i: set(index.members_of(i)) for i in range(index.pool_size)}
        ids, _ = db.top_k(index.utility(0), 1)
        deltas = index.delete(int(ids[0]))
        after = {i: set(index.members_of(i)) for i in range(index.pool_size)}
        replay = {i: set(before[i]) for i in before}
        for d in deltas:
            if d.kind == ADD:
                replay[d.u_index].add(d.tuple_id)
            else:
                replay[d.u_index].discard(d.tuple_id)
        assert replay == after


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 300), k=st.integers(1, 3),
       n_ops=st.integers(1, 25))
def test_random_ops_preserve_invariant(seed, k, n_ops):
    rng = np.random.default_rng(seed)
    pts = rng.random((20, 3))
    db = Database(pts)
    utils = sample_utilities_with_basis(10, 3, seed=seed + 1)
    index = ApproxTopKIndex(db, utils, k, 0.08)
    for _ in range(n_ops):
        alive = db.ids()
        if alive.size <= k + 1 or rng.random() < 0.55:
            index.insert(rng.random(3))
        else:
            index.delete(int(alive[rng.integers(alive.size)]))
        check_invariant(index, db)
