"""Lease protocol unit tests: atomic claim, heartbeat, TTL, steal."""

from __future__ import annotations

import os
import sys
import threading
import time

import pytest

from repro.cache.leases import (
    Lease,
    LeaseHeartbeat,
    LeaseSettings,
    acquire_lease,
    lease_age_seconds,
    lease_is_expired,
    read_lease,
    steal_expired_lease,
)


@pytest.fixture
def lease_path(tmp_path):
    return tmp_path / "cell.lease"


class TestAcquire:
    def test_acquire_creates_file_and_returns_lease(self, lease_path):
        lease = acquire_lease(lease_path, "w0")
        assert isinstance(lease, Lease)
        assert lease.owner == "w0"
        assert lease_path.exists()

    def test_second_acquire_loses(self, lease_path):
        assert acquire_lease(lease_path, "w0") is not None
        assert acquire_lease(lease_path, "w1") is None

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "run" / "leases" / "cell.lease"
        assert acquire_lease(path, "w0") is not None

    def test_body_is_advisory_metadata(self, lease_path):
        lease = acquire_lease(lease_path, "w0", LeaseSettings(ttl_seconds=7.0))
        body = read_lease(lease_path)
        assert body["owner"] == "w0"
        assert body["token"] == lease.token
        assert body["pid"] == os.getpid()
        assert body["ttl_seconds"] == 7.0

    def test_concurrent_acquire_exactly_one_winner(self, lease_path):
        """N threads race the O_CREAT|O_EXCL claim; exactly one wins."""
        barrier = threading.Barrier(8)
        wins = []

        def contender(name):
            barrier.wait()
            if acquire_lease(lease_path, name) is not None:
                wins.append(name)

        threads = [
            threading.Thread(target=contender, args=(f"w{i}",))
            for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(wins) == 1

    def test_torn_body_still_honoured_via_mtime(self, lease_path):
        acquire_lease(lease_path, "w0")
        lease_path.write_bytes(b'{"own')  # damaged mid-write
        assert read_lease(lease_path) is None
        # Liveness comes from the mtime clock, not the body.
        assert not lease_is_expired(lease_path, LeaseSettings(ttl_seconds=60))
        assert acquire_lease(lease_path, "w1") is None


class TestRenewRelease:
    def test_renew_bumps_heartbeat_clock(self, lease_path):
        lease = acquire_lease(lease_path, "w0")
        past = time.time() - 100.0
        os.utime(lease_path, (past, past))
        assert lease_age_seconds(lease_path) > 90
        assert lease.renew() is True
        assert lease_age_seconds(lease_path) < 5

    def test_renew_after_steal_reports_loss(self, lease_path):
        lease = acquire_lease(lease_path, "w0")
        lease_path.unlink()
        assert lease.renew() is False

    def test_release_removes_file(self, lease_path):
        lease = acquire_lease(lease_path, "w0")
        lease.release()
        assert not lease_path.exists()

    def test_release_of_stolen_lease_is_not_an_error(self, lease_path):
        lease = acquire_lease(lease_path, "w0")
        lease_path.unlink()
        lease.release()  # no raise

    def test_release_reopens_the_claim(self, lease_path):
        acquire_lease(lease_path, "w0").release()
        assert acquire_lease(lease_path, "w1") is not None


class TestExpiry:
    def test_fresh_lease_not_expired(self, lease_path):
        acquire_lease(lease_path, "w0")
        assert not lease_is_expired(lease_path, LeaseSettings(ttl_seconds=60))

    def test_stale_mtime_expires(self, lease_path):
        acquire_lease(lease_path, "w0")
        past = time.time() - 120.0
        os.utime(lease_path, (past, past))
        assert lease_is_expired(lease_path, LeaseSettings(ttl_seconds=60))

    def test_missing_file_is_released_not_expired(self, lease_path):
        assert lease_age_seconds(lease_path) is None
        assert not lease_is_expired(lease_path, LeaseSettings(ttl_seconds=60))


class TestSteal:
    def _expire(self, path):
        past = time.time() - 120.0
        os.utime(path, (past, past))

    def test_steal_of_live_lease_refused(self, lease_path):
        acquire_lease(lease_path, "w0")
        settings = LeaseSettings(ttl_seconds=60)
        assert steal_expired_lease(lease_path, "w1", settings) is None

    def test_steal_of_expired_lease_wins(self, lease_path):
        acquire_lease(lease_path, "w0")
        self._expire(lease_path)
        settings = LeaseSettings(ttl_seconds=60)
        stolen = steal_expired_lease(lease_path, "w1", settings)
        assert stolen is not None
        assert stolen.owner == "w1"
        assert read_lease(lease_path)["owner"] == "w1"
        # No stale tombs left behind.
        tombs = list(lease_path.parent.glob("*.stale-*"))
        assert tombs == []

    def test_concurrent_steal_exactly_one_winner(self, lease_path):
        acquire_lease(lease_path, "w0")
        self._expire(lease_path)
        settings = LeaseSettings(ttl_seconds=60)
        barrier = threading.Barrier(8)
        wins = []

        def stealer(name):
            barrier.wait()
            if steal_expired_lease(lease_path, name, settings) is not None:
                wins.append(name)

        threads = [
            threading.Thread(target=stealer, args=(f"s{i}",))
            for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(wins) == 1
        assert read_lease(lease_path)["owner"] in {w for w in wins}


def _expire(path):
    past = time.time() - 120.0
    os.utime(path, (past, past))


def _steal_round(path, settings, workers=8):
    """One expired lease, ``workers`` threads stealing at once."""
    acquire_lease(path, "w0")
    _expire(path)
    barrier = threading.Barrier(workers, timeout=30)
    wins = []

    def stealer(name):
        barrier.wait()
        if steal_expired_lease(path, name, settings) is not None:
            wins.append(name)

    threads = [
        threading.Thread(target=stealer, args=(f"s{i}",))
        for i in range(workers)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
        assert not t.is_alive()
    return wins


def _process_stealer(path, name, rounds, start, done, wins):
    settings = LeaseSettings(ttl_seconds=60)
    for round_index in range(rounds):
        start.wait()
        if steal_expired_lease(path, name, settings) is not None:
            with wins.get_lock():
                wins[round_index] += 1
        done.wait()


class TestStealStress:
    """Single-winner steals, sampled until a race would show.

    A steal that checks expiry and then renames, with nothing tying the
    two steps to one lease generation, lets a late stealer rename the
    fresh lease the first winner just acquired; such a steal fails this
    loop within a few dozen rounds.
    """

    def test_looped_eight_thread_steal_single_winner(self, tmp_path):
        settings = LeaseSettings(ttl_seconds=60)
        deadline = time.monotonic() + 10.0
        rounds = 0
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the stealers finely
        try:
            while rounds < 300 and time.monotonic() < deadline:
                path = tmp_path / f"cell{rounds}.lease"
                wins = _steal_round(path, settings)
                assert len(wins) == 1, f"round {rounds}: winners {wins}"
                assert read_lease(path)["owner"] == wins[0]
                rounds += 1
        finally:
            sys.setswitchinterval(interval)
        assert rounds >= 20
        leftovers = [p for p in tmp_path.iterdir() if ".steal-" in p.name]
        assert leftovers == []

    def test_multi_process_steal_single_winner(self, tmp_path):
        import multiprocessing

        ctx = multiprocessing.get_context("spawn")
        workers, rounds = 4, 25
        path = tmp_path / "cell.lease"
        start = ctx.Barrier(workers + 1)
        done = ctx.Barrier(workers + 1)
        wins = ctx.Array("i", rounds)
        procs = [
            ctx.Process(
                target=_process_stealer,
                args=(str(path), f"p{i}", rounds, start, done, wins),
            )
            for i in range(workers)
        ]
        for proc in procs:
            proc.start()
        try:
            for round_index in range(rounds):
                if path.exists():
                    path.unlink()
                acquire_lease(path, "w0")
                _expire(path)
                start.wait(timeout=60)
                done.wait(timeout=60)
                assert wins[round_index] == 1, (round_index, list(wins))
        except BaseException:
            start.abort()  # release workers waiting on an abandoned round
            done.abort()
            raise
        finally:
            for proc in procs:
                proc.join(timeout=30)
                if proc.is_alive():  # pragma: no cover - cleanup
                    proc.kill()
        assert all(proc.exitcode == 0 for proc in procs)


class TestHeartbeat:
    def test_heartbeat_keeps_lease_fresh(self, lease_path):
        settings = LeaseSettings(ttl_seconds=1.0, heartbeat_seconds=0.05)
        lease = acquire_lease(lease_path, "w0", settings)
        with LeaseHeartbeat(lease, settings) as hb:
            time.sleep(0.4)
            assert lease_age_seconds(lease_path) < 0.5
            assert hb.lost is False

    def test_heartbeat_latches_lost_after_steal(self, lease_path):
        settings = LeaseSettings(ttl_seconds=1.0, heartbeat_seconds=0.05)
        lease = acquire_lease(lease_path, "w0", settings)
        hb = LeaseHeartbeat(lease, settings).start()
        try:
            lease_path.unlink()
            deadline = time.time() + 2.0
            while not hb.lost and time.time() < deadline:
                time.sleep(0.02)
            assert hb.lost is True
        finally:
            hb.stop()

    def test_effective_heartbeat_defaults_to_quarter_ttl(self):
        assert LeaseSettings(ttl_seconds=8.0).effective_heartbeat == 2.0
        assert (
            LeaseSettings(ttl_seconds=8.0, heartbeat_seconds=0.5)
            .effective_heartbeat
            == 0.5
        )
