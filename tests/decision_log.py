"""The verdicts of a weighted-fair scheduler, logged for the floor tests.

:func:`record_decisions` wraps one scheduler's ``admit_decision`` and
logs every verdict beside the tenant's in-window admission count *at
decision time* — the observable the guaranteed-floor tests audit.
"""

from __future__ import annotations


def record_decisions(scheduler) -> list[tuple]:
    """Log every verdict ``scheduler`` hands out from now on, as
    ``(time, tenant, app, QoS class, verdict kind or "pass", admitted
    in window)``; the list fills as the scheduler runs."""
    log: list[tuple] = []
    decide = scheduler.admit_decision

    def logged(time_s, session):
        same_window = int(time_s / scheduler.spec.window_s) == \
            scheduler._bin
        admitted = scheduler._window_admits.get(session.tenant, 0) \
            if same_window else 0
        verdict = decide(time_s, session)
        log.append((time_s, session.tenant, session.app, session.qos.name,
                    verdict[0] if verdict else "pass", admitted))
        return verdict

    scheduler.admit_decision = logged
    return log
