"""Adversarial property tests for the weighted-fair admission tier.

Four claims, each stated as a hypothesis property rather than an
example:

* a tenant's admitted-capacity share is monotone in its weight under
  symmetric saturated load;
* equal weights admit within one session of each other under symmetric
  load;
* no policy layer (throttle, overload shed, WFQ gate) ever rejects a
  tenant below its guaranteed floor;
* ``policy="fcfs"`` reproduces the default ServiceReport byte for byte.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.allocation import SlotAllocator
from repro.service import (ChurnSpec, ChurnWorkload, FairnessSpec,
                           SessionService, TenantSpec,
                           WeightedFairScheduler)
from repro.service.churn import SessionRequest
from repro.service.qos import DEFAULT_CLASSES
from repro.topology.builders import mesh

VIDEO = next(qos for qos in DEFAULT_CLASSES if qos.name == "video")

#: One accounting window for the whole drive: WFQ state never resets,
#: so the properties constrain the full admission history.
ONE_WINDOW = 1e9


def _request(i: int, tenant: str, qos=VIDEO,
             app: str = "app0") -> SessionRequest:
    return SessionRequest(f"s{i}", qos, "ni0", "ni1", 0.0, 1.0,
                          tenant, app)


def _drive_round_robin(scheduler, names, n_arrivals, qos=VIDEO):
    """Symmetric saturated load: tenants arrive in strict rotation.

    Every admission is granted (the property tier has no allocator),
    so the scheduler's gates alone decide the admitted counts.
    """
    admitted = dict.fromkeys(names, 0)
    for i in range(n_arrivals):
        name = names[i % len(names)]
        request = _request(i, name, qos)
        if scheduler.admit_decision(i * 1e-6, request) is None:
            scheduler.on_admitted(i * 1e-6, request)
            admitted[name] += 1
    return admitted


def _enforcing_spec(quantum: float = 1.0, **overrides) -> FairnessSpec:
    """A spec whose WFQ gate is always on (no pressure precondition)."""
    return FairnessSpec(quantum=quantum, window_s=ONE_WINDOW,
                        pressure_threshold=0.0, **overrides)


class TestWeightMonotonicity:
    @settings(max_examples=60, deadline=None)
    @given(low=st.floats(0.25, 8.0), high=st.floats(0.25, 8.0),
           quantum=st.sampled_from([1.0, 1.5, 2.0, 4.0]),
           n_peers=st.integers(1, 3), n_rounds=st.integers(4, 50))
    def test_admitted_share_monotone_in_weight(self, low, high, quantum,
                                               n_peers, n_rounds):
        """Raising only tenant T's weight never lowers T's share."""
        low, high = sorted((low, high))
        names = ["T"] + [f"peer{i}" for i in range(n_peers)]

        def share(weight: float) -> float:
            tenants = tuple(
                TenantSpec(n, weight=weight if n == "T" else 1.0)
                for n in names)
            scheduler = WeightedFairScheduler(
                tenants, spec=_enforcing_spec(quantum))
            admitted = _drive_round_robin(
                scheduler, names, n_rounds * len(names))
            total = sum(admitted.values())
            return admitted["T"] / total if total else 0.0

        assert share(high) >= share(low) - 1e-9

    def test_weight_doubles_share_under_contention(self):
        """The quantitative anchor: w=2 vs two w=1 peers => ~half."""
        names = ("T", "peer0", "peer1")
        tenants = tuple(TenantSpec(n, weight=2.0 if n == "T" else 1.0)
                        for n in names)
        scheduler = WeightedFairScheduler(tenants,
                                          spec=_enforcing_spec(1.0))
        admitted = _drive_round_robin(scheduler, names, 180)
        share = admitted["T"] / sum(admitted.values())
        assert abs(share - 0.5) < 0.05


class TestEqualWeightFairness:
    @settings(max_examples=60, deadline=None)
    @given(n_tenants=st.integers(2, 5), n_arrivals=st.integers(1, 200),
           qos=st.sampled_from(DEFAULT_CLASSES))
    def test_equal_weights_admit_within_one_session(self, n_tenants,
                                                    n_arrivals, qos):
        """Strict quantum, symmetric load: counts differ by at most 1.

        ``n_arrivals`` need not complete the final rotation, so the
        property also covers mid-round prefixes.
        """
        names = tuple(f"t{i}" for i in range(n_tenants))
        scheduler = WeightedFairScheduler(
            tuple(TenantSpec(n) for n in names),
            spec=_enforcing_spec(1.0))
        admitted = _drive_round_robin(scheduler, names, n_arrivals, qos)
        counts = sorted(admitted.values())
        assert counts[-1] - counts[0] <= 1


class TestGuaranteedFloor:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_no_policy_rejection_below_floor(self, data):
        """Every shed verdict logged its tenant at/above its floor.

        The spec is hostile on purpose: one-open throttle ceilings, an
        overload signal primed to shed every rank, and an
        unconditionally enforcing WFQ gate — the floor must beat all
        three layers.
        """
        n_tenants = data.draw(st.integers(1, 3), label="n_tenants")
        floors = tuple(
            data.draw(st.integers(0, 3), label=f"floor{i}")
            for i in range(n_tenants))
        tenants = tuple(
            TenantSpec(f"t{i}", floor_opens_per_window=floors[i],
                       apps=("a", "b"))
            for i in range(n_tenants))
        spec = FairnessSpec(
            quantum=1.0, window_s=0.005, pressure_threshold=0.0,
            tenant_opens_per_window=1, app_opens_per_window=1,
            min_overload_samples=1, overload_window=8,
            shed_thresholds=(0.01, 0.02, 0.03))
        scheduler = WeightedFairScheduler(tenants, spec=spec,
                                          record_decisions=True)
        n_arrivals = data.draw(st.integers(1, 120), label="n_arrivals")
        for i in range(n_arrivals):
            tenant = tenants[data.draw(
                st.integers(0, n_tenants - 1), label=f"who{i}")]
            qos = data.draw(st.sampled_from(DEFAULT_CLASSES),
                            label=f"qos{i}")
            rejected = data.draw(st.booleans(), label=f"reject{i}")
            request = SessionRequest(
                f"s{i}", qos, "ni0", "ni1", 0.0, 1.0, tenant.name,
                tenant.apps[i % len(tenant.apps)])
            time_s = i * 0.0007  # crosses window boundaries
            if scheduler.admit_decision(time_s, request) is None:
                if rejected:
                    scheduler.on_capacity_reject(time_s, request)
                else:
                    scheduler.on_admitted(time_s, request)
        floor_of = {t.name: t.floor_opens_per_window for t in tenants}
        sheds = [d for d in scheduler.decisions if d[4] != "pass"]
        for (_, tenant, _, _, kind, admitted_in_window) in sheds:
            assert kind in WeightedFairScheduler.REASONS
            assert admitted_in_window >= floor_of[tenant], (
                f"{kind} shed tenant {tenant} below its floor")


class TestFcfsByteIdentity:
    @pytest.fixture(scope="class")
    def topology(self):
        return mesh(2, 2, nis_per_router=2)

    @settings(max_examples=8, deadline=None)
    @given(n_sessions=st.integers(8, 30), seed=st.integers(0, 2 ** 20))
    def test_policy_fcfs_reproduces_default_report(self, topology,
                                                   n_sessions, seed):
        """``policy="fcfs"`` is the default path, byte for byte."""
        events = ChurnWorkload(ChurnSpec(n_sessions=n_sessions),
                               topology, seed).events()

        def run(**kwargs):
            service = SessionService(
                topology, allocator=SlotAllocator(
                    topology, table_size=16, frequency_hz=500e6),
                name="identity", seed=7, record_events=False, **kwargs)
            return service.run(events)

        default, explicit = run(), run(policy="fcfs")
        assert default.to_json() == explicit.to_json()
        record = json.loads(default.to_json())
        assert "fairness" not in record
        assert "tenants" not in record
