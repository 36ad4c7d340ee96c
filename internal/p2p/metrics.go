package p2p

import (
	"net"

	"repro/internal/telemetry"
)

// frameNames spells each live frame type for metric names; per-type
// counters index into fixed arrays of the same size so the frame path never
// allocates. Slot 0 collects unknown types, and retired numbers (unnamed
// here) count there too.
var frameNames = [frameTypeEnd]string{
	0:                   "other",
	FrameHello:          "hello",
	FrameMeta:           "meta",
	FrameDataRequest:    "data_request",
	FrameData:           "data",
	FrameSyncLocator:    "sync_locator",
	FrameSyncHeaders:    "sync_headers",
	FrameSyncGetBatch:   "sync_get_batch",
	FrameSyncBatch:      "sync_batch",
	FrameBlockAnnounce:  "block_announce",
	FrameGetBlock:       "get_block",
	FrameGetSnapshot:    "get_snapshot",
	FrameSnapshot:       "snapshot",
	FrameMetaAnnounce:   "meta_announce",
	FrameGetMeta:        "get_meta",
	FrameRepairProbe:    "repair_probe",
	FrameRepairProbeAck: "repair_probe_ack",
	FrameCompactBlock:   "compact_block",
}

// Metrics bundles the transport's counters. All fields are nil-safe
// (telemetry.Counter no-ops on nil), so a zero Metrics disables
// collection without any hot-path branching beyond the increments
// themselves. Construct with NewMetrics to register everything under a
// registry.
type Metrics struct {
	// FramesSent / FramesRecv count frames by direction; the ByType
	// arrays split them per frame type (index = frame type, 0 = other).
	FramesSent, FramesRecv             *telemetry.Counter
	FramesSentByType, FramesRecvByType [frameTypeEnd]*telemetry.Counter
	// BytesSent / BytesRecv count wire bytes including the 5-byte header.
	BytesSent, BytesRecv *telemetry.Counter
	// DialFailures counts failed Connect dials.
	DialFailures *telemetry.Counter
	// WriteDeadlineHits counts frame writes that failed on a timeout —
	// the "peer stopped draining its socket" signal.
	WriteDeadlineHits *telemetry.Counter
	// SendErrors counts all failed frame writes (deadline hits included).
	SendErrors *telemetry.Counter
}

// NewMetrics registers the transport metric set under reg (names
// "p2p.*"). A nil registry yields a Metrics whose counters are inert.
func NewMetrics(reg *telemetry.Registry) *Metrics {
	m := &Metrics{
		FramesSent:        reg.Counter("p2p.frames_sent"),
		FramesRecv:        reg.Counter("p2p.frames_recv"),
		BytesSent:         reg.Counter("p2p.bytes_sent"),
		BytesRecv:         reg.Counter("p2p.bytes_recv"),
		DialFailures:      reg.Counter("p2p.dial_failures"),
		WriteDeadlineHits: reg.Counter("p2p.write_deadline_hits"),
		SendErrors:        reg.Counter("p2p.send_errors"),
	}
	for ft, name := range frameNames {
		if name == "" {
			continue // retired number
		}
		m.FramesSentByType[ft] = reg.Counter("p2p.frames_sent." + name)
		m.FramesRecvByType[ft] = reg.Counter("p2p.frames_recv." + name)
	}
	return m
}

func frameSlot(ft byte) int {
	if int(ft) < len(frameNames) && frameNames[ft] != "" {
		return int(ft)
	}
	return 0
}

// onSent records one successfully written frame.
func (m *Metrics) onSent(ft byte, payloadLen int) {
	if m == nil {
		return
	}
	m.FramesSent.Inc()
	m.FramesSentByType[frameSlot(ft)].Inc()
	m.BytesSent.Add(payloadLen + 5)
}

// onRecv records one successfully read frame.
func (m *Metrics) onRecv(ft byte, payloadLen int) {
	if m == nil {
		return
	}
	m.FramesRecv.Inc()
	m.FramesRecvByType[frameSlot(ft)].Inc()
	m.BytesRecv.Add(payloadLen + 5)
}

// onSendErr records one failed frame write, classifying deadline hits.
func (m *Metrics) onSendErr(err error) {
	if m == nil {
		return
	}
	m.SendErrors.Inc()
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		m.WriteDeadlineHits.Inc()
	}
}
