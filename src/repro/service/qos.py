"""QoS classes for online session admission.

A *session* is one user-facing guaranteed-service stream (a video call
leg, a voice channel, a bulk transfer).  Its network requirements are not
negotiated per session: it arrives tagged with a :class:`QosClass` that
fixes the throughput and latency requirement — exactly how Even & Fais
frame online QoS allocation as a request-admission problem, and what
makes the admission hot path cacheable: every (source NI, destination NI,
class) triple maps to the same candidate routes and slot demands.  Path
search happens once per router pair; slot arithmetic at most once per
triple and route traversal time, and only for the routes a placement
reaches — never once per session.

A class's throughput, latency and weight must be finite and positive;
anything else is refused with a ``ConfigurationError`` where the class
is built.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.connection import MB, ChannelSpec
from repro.core.exceptions import ConfigurationError, require_finite_positive

__all__ = ["QosClass", "DEFAULT_CLASSES"]


@dataclass(frozen=True)
class QosClass:
    """Requirements shared by every session of one service class.

    Attributes
    ----------
    name:
        Class label (unique within a churn mix).
    throughput_mb_s:
        Required sustained payload throughput per session.
    max_latency_ns:
        Worst-case flit latency requirement, or ``None`` for classes
        that only need bandwidth (bulk transfers).
    weight:
        Relative arrival weight in a churn mix (normalised by the
        workload generator).

    >>> video = QosClass("video", throughput_mb_s=40.0,
    ...                  max_latency_ns=400.0)
    >>> video.channel_spec("s000001", "ni0_0_0", "ni1_0_0").application
    's000001'
    """

    name: str
    throughput_mb_s: float
    max_latency_ns: float | None = None
    weight: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("QoS class name must be non-empty")
        require_finite_positive(f"class {self.name!r} throughput_mb_s",
                                self.throughput_mb_s)
        if self.max_latency_ns is not None:
            require_finite_positive(f"class {self.name!r} max_latency_ns",
                                    self.max_latency_ns)
        require_finite_positive(f"class {self.name!r} weight", self.weight)

    def channel_spec(self, session_id: str, src_ni: str,
                     dst_ni: str) -> ChannelSpec:
        """The allocator-facing channel of one session of this class.

        Each session is its own application — the unit of composability —
        so the continuous invariant checker can assert per-session
        isolation under churn.
        """
        return ChannelSpec(
            name=session_id, src_ip=src_ni, dst_ip=dst_ni,
            throughput_bytes_per_s=self.throughput_mb_s * MB,
            max_latency_ns=self.max_latency_ns,
            application=session_id)


#: A plausible interactive-SoC session mix at 500 MHz with a 32-slot
#: table (one slot guarantees ~41.7 MB/s of payload): latency-critical
#: control and voice, slot-sized video, and multi-slot bulk streams.
DEFAULT_CLASSES: tuple[QosClass, ...] = (
    QosClass("control", throughput_mb_s=1.0, max_latency_ns=300.0,
             weight=2.0),
    QosClass("voice", throughput_mb_s=5.0, max_latency_ns=150.0,
             weight=3.0),
    QosClass("video", throughput_mb_s=40.0, max_latency_ns=400.0,
             weight=3.0),
    QosClass("bulk", throughput_mb_s=120.0, max_latency_ns=None,
             weight=2.0),
)
