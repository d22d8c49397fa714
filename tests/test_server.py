"""Tests for the network serving tier (repro.server + the blocking client).

The contracts under test:

* requests over the socket hit the same ``QueryService`` surface as
  in-process calls — served results are byte-identical to an
  uninterrupted in-process run of the same seeds (warm-start off, so
  decisions are pure functions of each session's seed);
* admission control is explicit: a full queue, a tenant at quota, or a
  draining server answer a coded rejection carrying ``retry_after``,
  never an unbounded buffer;
* graceful drain persists through the replay-based snapshot machinery,
  so a restarted server resumes every session bit-exactly;
* the ``repro_server_*`` telemetry series appear alongside the other
  layers in one snapshot.
"""

import asyncio
import json

import numpy as np
import pytest

from repro import telemetry
from repro.detection.cache import DetectionCache, SqliteBackend
from repro.serving import QueryService, ServerError, ServingClient
from repro.serving import state as serving_state
from repro.server import (
    AsyncQueryServer,
    ServerConfig,
    ServerThread,
    restore_state,
)
from repro.video.repository import single_clip_repository
from repro.video.synthetic import place_instances


def make_repo(total_frames=20_000, per_category=25, seed=0):
    rng = np.random.default_rng(seed)
    buses = place_instances(
        per_category, total_frames, rng, mean_duration=120,
        skew_fraction=0.1, category="bus", with_boxes=False,
    )
    trucks = place_instances(
        per_category, total_frames, rng, mean_duration=120,
        skew_fraction=0.15, category="truck", with_boxes=False,
        start_id=per_category,
    )
    return single_clip_repository(total_frames, list(buses) + list(trucks))


def make_service(**kwargs):
    kwargs.setdefault("chunk_frames", 2500)
    kwargs.setdefault("frames_per_tick", 16)
    return QueryService(make_repo(), **kwargs)


def serve(config=None, **service_kwargs):
    """A ServerThread hosting a fresh single-clip service."""
    return ServerThread(
        lambda: AsyncQueryServer(make_service(**service_kwargs), config)
    )


# ------------------------------------------------------------- round trips

def test_ping_and_stats_roundtrip():
    with serve() as host:
        with ServingClient(*host.address) as client:
            assert client.ping()
            stats = client.stats()
            assert stats["accepted"] == 0
            assert stats["requests"] >= 1


def test_submit_status_results_roundtrip():
    with serve() as host:
        with ServingClient(*host.address) as client:
            sid = client.submit("synthetic", "bus", limit=3,
                                max_samples=400, seed=11)
            status = client.wait_terminal(sid)
            assert status["session_id"] == sid
            assert status["results_found"] > 0
            results = client.results(sid)
            assert results["result_frames"]
            assert results["seed"] == 11
            # the status list endpoint sees the same session
            listed = client.status()
            assert [s["session_id"] for s in listed] == [sid]


def test_submit_errors_carry_wire_codes():
    with serve() as host:
        with ServingClient(*host.address) as client:
            with pytest.raises(ServerError) as excinfo:
                client.submit("atlantis", "bus", limit=1)
            assert excinfo.value.code == "unknown-dataset"
            with pytest.raises(ServerError) as excinfo:
                client.submit("synthetic", "zeppelin", limit=1)
            assert excinfo.value.code == "invalid"
            with pytest.raises(ServerError) as excinfo:
                client.status("s99")
            assert excinfo.value.code == "unknown-session"
            with pytest.raises(ServerError) as excinfo:
                client.submit("synthetic", "bus", limit="three")
            assert excinfo.value.code == "bad-request"


def test_ingest_feeds_a_follow_session():
    with serve() as host:
        with ServingClient(*host.address) as client:
            sid = client.submit("cam0", "boat", limit=2, follow=True,
                                seed=5, warm_start=False)
            reply = client.ingest("cam0", frames=3000, clips=2,
                                  category="boat", instances=6)
            assert reply["frames"] == 6000
            status = client.wait_first_result(sid)
            assert status["results_found"] > 0
    # note: "cam0" was never registered — the server's dataset factory
    # materialized an empty live dataset on first ingest


# ------------------------------------------------------ decision parity

def test_served_results_match_in_process_run():
    """The headline contract: the network tier adds zero decisions.
    Sessions run to terminal on both sides; with warm-start off the
    decision stream is a pure function of the seed, so the full results
    payloads must be byte-identical as JSON."""
    seeds = [101, 102, 103, 104]
    served = {}
    with serve() as host:
        with ServingClient(*host.address) as client:
            sids = [
                client.submit("synthetic", "bus", limit=6, max_samples=500,
                              seed=seed, warm_start=False)
                for seed in seeds
            ]
            for sid in sids:
                client.wait_terminal(sid)
                served[sid] = client.results(sid)

    reference = make_service()
    ref_sids = [
        reference.submit("synthetic", "bus", limit=6, max_samples=500,
                         seed=seed, warm_start=False)
        for seed in seeds
    ]
    reference.run_until_idle()
    for sid, ref_sid in zip(sids, ref_sids):
        assert json.dumps(served[sid], sort_keys=True) == json.dumps(
            reference.results(ref_sid), sort_keys=True
        )


# --------------------------------------------------------- admission control

def test_queue_full_rejects_with_retry_after():
    """With the tick loop not running, queued commands stay queued — so
    the bounded queue's rejection path is exercised deterministically."""
    server = AsyncQueryServer(QueryService({}), ServerConfig(max_queue=1))

    async def scenario():
        first = asyncio.ensure_future(
            server._admit("submit", {"op": "submit", "dataset": "d",
                                     "category": "c"})
        )
        await asyncio.sleep(0)  # first is enqueued and parked
        second = await server._admit(
            "submit", {"op": "submit", "dataset": "d", "category": "c"}
        )
        assert second["ok"] is False
        assert second["error"] == "queue-full"
        assert second["retry_after"] > 0
        server._apply_commands()  # settle the parked future
        settled = await first
        assert settled["error"] == "unknown-dataset"

    asyncio.run(scenario())


def test_draining_rejects_submits():
    server = AsyncQueryServer(QueryService({}))
    server.request_drain()

    async def scenario():
        return await server._admit(
            "submit", {"op": "submit", "dataset": "d", "category": "c"}
        )

    response = asyncio.run(scenario())
    assert response["error"] == "draining"
    assert response["retry_after"] > 0


def test_tenant_quota_caps_concurrent_sessions():
    """Follow sessions with no footage idle forever (non-terminal), so
    the quota check is deterministic.  A second tenant is unaffected."""
    with serve(config=ServerConfig(tenant_quota=2)) as host:
        with ServingClient(*host.address, retries=0) as client:
            for _ in range(2):
                client.submit("synthetic", "bus", follow=True,
                              tenant="team-a", warm_start=False)
            with pytest.raises(ServerError) as excinfo:
                client.submit("synthetic", "bus", follow=True,
                              tenant="team-a", warm_start=False)
            assert excinfo.value.code == "quota-exceeded"
            assert excinfo.value.retry_after > 0
            # another tenant (and the default tenant) still admit
            client.submit("synthetic", "bus", follow=True,
                          tenant="team-b", warm_start=False)
            client.submit("synthetic", "bus", follow=True, warm_start=False)
            assert client.stats()["rejected"] == 1


def test_quota_check_reads_the_session_map_once():
    """The quota check walks the service's live-session index once per
    submit — not once per ledger entry of the tenant, which is quadratic
    in resident sessions."""
    reads = []

    class CountingService(QueryService):
        def live_sessions(self):
            reads.append(1)
            return super().live_sessions()

    service = CountingService(make_repo(), chunk_frames=2500)
    server = AsyncQueryServer(service, ServerConfig(tenant_quota=201, max_queue=256))
    submit = {"op": "submit", "dataset": "synthetic", "category": "bus",
              "follow": True, "warm_start": False, "tenant": "team-a"}

    async def scenario():
        parked = [asyncio.ensure_future(server._admit("submit", submit))
                  for _ in range(200)]
        await asyncio.sleep(0)
        server._apply_commands()
        for future in parked:
            assert (await future)["ok"]
        assert server._active_tenant_sessions("team-a") == 200
        del reads[:]
        last = asyncio.ensure_future(server._admit("submit", submit))
        await asyncio.sleep(0)  # admitted (one under quota) and parked
        assert len(reads) == 1
        server._apply_commands()
        assert (await last)["ok"]
        rejected = await server._admit("submit", submit)
        assert rejected["error"] == "quota-exceeded"

    asyncio.run(scenario())
    service.close()


def test_pre_drained_server_thread_exits_cleanly():
    server = AsyncQueryServer(QueryService({}))
    server.request_drain()
    with ServerThread(server):
        pass  # the loop notices the drain immediately and settles


# ------------------------------------------------------- drain and restart

def test_drain_restart_resumes_bit_exactly(tmp_path):
    """Drain mid-flight, restart from the state directory, run to
    terminal: results must be byte-identical to one uninterrupted
    in-process run of the same seeds."""
    state = tmp_path / "state"
    serving_state.load_or_init_config(state, scale=0.05, seed=0)
    seeds = [7, 8, 9]

    def service_on(state_dir):
        cache = DetectionCache(
            SqliteBackend(state_dir / serving_state.CACHE_FILENAME)
        )
        return make_service(cache=cache, frames_per_tick=8)

    with ServerThread(
        lambda: AsyncQueryServer(service_on(state), state_dir=state)
    ) as host:
        with ServingClient(*host.address) as client:
            sids = [
                client.submit("synthetic", "bus", limit=5, max_samples=300,
                              seed=seed, tenant=f"t{seed}", warm_start=False)
                for seed in seeds
            ]
            client.wait_first_result(sids[0])
            client.drain()  # mid-flight: later sessions have barely run

    def restarted():
        service = service_on(state)
        cursor = restore_state(service, state, 0)
        return AsyncQueryServer(service, state_dir=state, journal_cursor=cursor)

    served = {}
    with ServerThread(restarted) as host:
        with ServingClient(*host.address) as client:
            for sid in sids:
                client.wait_terminal(sid)
                served[sid] = client.results(sid)

    reference = make_service(frames_per_tick=8)
    ref_sids = [
        reference.submit("synthetic", "bus", limit=5, max_samples=300,
                         seed=seed, warm_start=False)
        for seed in seeds
    ]
    reference.run_until_idle()
    for sid, ref_sid in zip(sids, ref_sids):
        assert json.dumps(served[sid], sort_keys=True) == json.dumps(
            reference.results(ref_sid), sort_keys=True
        )


def test_tenant_ledger_survives_restart(tmp_path):
    """Quota accounting must not reset on restart: the session→tenant
    map is persisted at drain and reloaded at startup."""
    state = tmp_path / "state"
    serving_state.load_or_init_config(state, scale=0.05, seed=0)

    def service_on():
        cache = DetectionCache(
            SqliteBackend(state / serving_state.CACHE_FILENAME)
        )
        return make_service(cache=cache)

    with ServerThread(
        lambda: AsyncQueryServer(
            service_on(), ServerConfig(tenant_quota=2), state_dir=state
        )
    ) as host:
        with ServingClient(*host.address) as client:
            for _ in range(2):  # follow sessions never terminate unfed
                client.submit("synthetic", "bus", follow=True,
                              tenant="team-a", warm_start=False)
            client.drain()

    def restarted():
        service = service_on()
        cursor = restore_state(service, state, 0)
        return AsyncQueryServer(
            service, ServerConfig(tenant_quota=2),
            state_dir=state, journal_cursor=cursor,
        )

    with ServerThread(restarted) as host:
        with ServingClient(*host.address, retries=0) as client:
            with pytest.raises(ServerError) as excinfo:
                client.submit("synthetic", "bus", follow=True,
                              tenant="team-a", warm_start=False)
            assert excinfo.value.code == "quota-exceeded"


# --------------------------------------------------------------- telemetry

def test_server_layer_appears_in_telemetry_snapshot():
    telemetry.enable()
    try:
        with serve() as host:
            with ServingClient(*host.address) as client:
                sid = client.submit("synthetic", "bus", limit=2,
                                    max_samples=300, seed=3)
                client.wait_first_result(sid)
        snapshot = telemetry.get().snapshot()
    finally:
        telemetry.disable()
    counters, gauges = snapshot["counters"], snapshot["gauges"]
    histograms = snapshot["histograms"]
    assert any(k.startswith("repro_server_requests_total") for k in counters)
    assert counters["repro_server_accepted_total"] == 1
    assert "repro_server_queue_depth_requests" in gauges
    assert "repro_server_inflight_connections" in gauges
    first = histograms["repro_server_submit_to_first_result_seconds"]
    assert first["count"] == 1
    assert first["sum"] > 0
    layers = {name.split("_")[1] for name in
              list(counters) + list(gauges) + list(histograms)}
    assert "server" in layers
